#include "src/apps/redis/redis.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/bytes.h"
#include "src/common/logging.h"
#include "src/common/record.h"

namespace splitft {
namespace {

// AOF command frames are checksummed records (src/common/record.h) whose
// payload is [op (1)] followed by length-prefixed arguments.
constexpr char kOpSet = 'S';
constexpr char kOpDel = 'D';
constexpr char kOpHSet = 'H';
constexpr char kOpLPush = 'L';

std::string Frame(char op, std::initializer_list<std::string_view> args) {
  std::string payload;
  payload.push_back(op);
  for (std::string_view a : args) {
    PutLengthPrefixed(&payload, a);
  }
  std::string frame;
  AppendRecord(&frame, payload);
  return frame;
}

// The value under `key`, default-constructed first if absent. Builds the
// key string only on insert.
template <typename Map>
typename Map::mapped_type& FindOrInsert(Map* map, std::string_view key) {
  auto it = map->lower_bound(key);
  if (it == map->end() || it->first != key) {
    it = map->emplace_hint(it, key, typename Map::mapped_type());
  }
  return it->second;
}

// Erases `key` from `map` without building a key string.
template <typename Map>
void EraseKey(Map* map, std::string_view key) {
  auto it = map->find(key);
  if (it != map->end()) {
    map->erase(it);
  }
}

}  // namespace

Redis::Redis(SplitFs* fs, Simulation* sim, const SimParams* params,
             RedisOptions options)
    : fs_(fs), sim_(sim), params_(params), options_(std::move(options)) {}

Redis::~Redis() = default;

Result<std::unique_ptr<Redis>> Redis::Open(SplitFs* fs, Simulation* sim,
                                           const SimParams* params,
                                           RedisOptions options) {
  std::unique_ptr<Redis> redis(new Redis(fs, sim, params, std::move(options)));
  RETURN_IF_ERROR(redis->Recover());
  return redis;
}

Result<std::unique_ptr<SplitFile>> Redis::OpenAof(bool create) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/aof-%06" PRIu64, aof_generation_);
  SplitOpenOptions opts;
  opts.create = create;
  opts.oncl = options_.mode == DurabilityMode::kSplitFt;
  opts.ncl_capacity = options_.aof_capacity;
  return fs_->Open(options_.dir + buf, opts);
}

uint64_t Redis::aof_bytes() const { return aof_ == nullptr ? 0 : aof_->Size(); }

std::string Redis::SerializeRdb() const {
  std::string out;
  PutKvList(&out, strings_);
  PutFixed32(&out, static_cast<uint32_t>(hashes_.size()));
  for (const auto& [k, fields] : hashes_) {
    PutLengthPrefixed(&out, k);
    PutKvList(&out, fields);
  }
  PutFixed32(&out, static_cast<uint32_t>(lists_.size()));
  for (const auto& [k, items] : lists_) {
    PutLengthPrefixed(&out, k);
    PutFixed32(&out, static_cast<uint32_t>(items.size()));
    for (const std::string& item : items) {
      PutLengthPrefixed(&out, item);
    }
  }
  return out;
}

Status Redis::LoadRdb(std::string_view raw) {
  size_t pos = 0;
  auto read_u32 = [&](uint32_t* v) {
    if (pos + 4 > raw.size()) {
      return false;
    }
    *v = DecodeFixed32(raw.data() + pos);
    pos += 4;
    return true;
  };
  // The RDB is in key order, so every insert lands at the end.
  if (!ForEachKv(raw, &pos, [&](std::string_view k, std::string_view v) {
        strings_.emplace_hint(strings_.end(), k, v);
      })) {
    return DataLossError("rdb truncated (strings)");
  }
  uint32_t n = 0;
  if (!read_u32(&n)) {
    return DataLossError("rdb truncated");
  }
  for (uint32_t i = 0; i < n; ++i) {
    std::string_view k;
    if (!GetLengthPrefixed(raw, &pos, &k)) {
      return DataLossError("rdb truncated (hashes)");
    }
    auto& hash = hashes_.emplace_hint(hashes_.end(), k, KeyMap<std::string>())
                     ->second;
    if (!ForEachKv(raw, &pos, [&](std::string_view f, std::string_view v) {
          hash.emplace_hint(hash.end(), f, v);
        })) {
      return DataLossError("rdb truncated (hash fields)");
    }
  }
  if (!read_u32(&n)) {
    return DataLossError("rdb truncated");
  }
  for (uint32_t i = 0; i < n; ++i) {
    std::string_view k;
    uint32_t items = 0;
    if (!GetLengthPrefixed(raw, &pos, &k) || !read_u32(&items)) {
      return DataLossError("rdb truncated (lists)");
    }
    auto& list =
        lists_.emplace_hint(lists_.end(), k, std::deque<std::string>())
            ->second;
    for (uint32_t j = 0; j < items; ++j) {
      std::string_view item;
      if (!GetLengthPrefixed(raw, &pos, &item)) {
        return DataLossError("rdb truncated (list items)");
      }
      list.emplace_back(item);
    }
  }
  return OkStatus();
}

Status Redis::ApplyCommand(std::string_view frame) {
  if (frame.empty()) {
    return DataLossError("empty aof frame");
  }
  char op = frame[0];
  size_t pos = 1;
  std::string_view a, b, c;
  switch (op) {
    case kOpSet:
      if (!GetLengthPrefixed(frame, &pos, &a) ||
          !GetLengthPrefixed(frame, &pos, &b)) {
        return DataLossError("bad SET frame");
      }
      FindOrInsert(&strings_, a).assign(b);
      return OkStatus();
    case kOpDel:
      if (!GetLengthPrefixed(frame, &pos, &a)) {
        return DataLossError("bad DEL frame");
      }
      EraseKey(&strings_, a);
      EraseKey(&hashes_, a);
      EraseKey(&lists_, a);
      return OkStatus();
    case kOpHSet:
      if (!GetLengthPrefixed(frame, &pos, &a) ||
          !GetLengthPrefixed(frame, &pos, &b) ||
          !GetLengthPrefixed(frame, &pos, &c)) {
        return DataLossError("bad HSET frame");
      }
      FindOrInsert(&FindOrInsert(&hashes_, a), b).assign(c);
      return OkStatus();
    case kOpLPush:
      if (!GetLengthPrefixed(frame, &pos, &a) ||
          !GetLengthPrefixed(frame, &pos, &b)) {
        return DataLossError("bad LPUSH frame");
      }
      FindOrInsert(&lists_, a).emplace_front(b);
      return OkStatus();
    default:
      return DataLossError("unknown aof opcode");
  }
}

Status Redis::Recover() {
  ObsSpan replay_span(fs_->obs().tracer, "app.recover.replay");
  // Load the newest RDB snapshot, then replay AOF generations after it.
  std::vector<std::string> rdbs = fs_->dfs()->List(options_.dir + "/rdb-");
  uint64_t rdb_gen = 0;
  if (!rdbs.empty()) {
    const std::string& newest = rdbs.back();
    SplitOpenOptions opts;
    opts.create = false;
    auto file = fs_->Open(newest, opts);
    if (!file.ok()) {
      return file.status();
    }
    auto raw = (*file)->Read(0, (*file)->Size());
    if (!raw.ok()) {
      return raw.status();
    }
    sim_->Advance(static_cast<SimTime>(raw->size()) *
                  params_->cpu.parse_log_per_byte_ns);
    RETURN_IF_ERROR(LoadRdb(*raw));
    rdb_gen = std::strtoull(newest.substr(newest.rfind('-') + 1).c_str(),
                            nullptr, 10);
  }

  // Find live AOF files.
  std::vector<std::string> aofs =
      options_.mode == DurabilityMode::kSplitFt
          ? fs_->ncl()->ListFiles()
          : fs_->dfs()->List(options_.dir + "/aof-");
  uint64_t newest_gen = 0;
  std::string newest_path;
  for (const std::string& path : aofs) {
    if (path.rfind(options_.dir + "/aof-", 0) != 0) {
      continue;
    }
    uint64_t gen =
        std::strtoull(path.substr(path.rfind('-') + 1).c_str(), nullptr, 10);
    if (gen >= newest_gen) {
      newest_gen = gen;
      newest_path = path;
    }
  }
  if (!newest_path.empty() && newest_gen > rdb_gen) {
    aof_generation_ = newest_gen;
    ASSIGN_OR_RETURN(auto file, OpenAof(/*create=*/false));
    auto raw = file->Read(0, file->Size());
    if (!raw.ok()) {
      return raw.status();
    }
    sim_->Advance(static_cast<SimTime>(raw->size()) *
                  params_->cpu.parse_log_per_byte_ns);
    Status applied;
    ForEachRecord(*raw, [&](std::string_view payload) {
      applied = ApplyCommand(payload);
      if (!applied.ok()) {
        return false;
      }
      replayed_commands_++;
      return true;
    });
    RETURN_IF_ERROR(applied);
    aof_ = std::move(file);
    return OkStatus();
  }
  aof_generation_ = std::max<uint64_t>(rdb_gen + 1, 1);
  ASSIGN_OR_RETURN(auto file, OpenAof(/*create=*/true));
  aof_ = std::move(file);
  return OkStatus();
}

Status Redis::AppendCommands(const std::vector<std::string>& frames) {
  std::string joined;
  for (const std::string& f : frames) {
    joined += f;
  }
  Status appended = aof_->Append(joined);
  if (appended.code() == StatusCode::kResourceExhausted) {
    RETURN_IF_ERROR(MaybeRewriteAof());
    appended = aof_->Append(joined);
  }
  RETURN_IF_ERROR(appended);
  // appendfsync always: both strong (dfs fsync) and splitft (drain the NCL
  // in-flight window) commit the AOF before acking the command.
  if (options_.mode != DurabilityMode::kWeak) {
    RETURN_IF_ERROR(aof_->Sync());
  }
  // The one mutation path: the dataset changes only through the replay
  // decoder, and before the rewrite check, so an RDB snapshot taken below
  // holds every batch the AOF it replaces held.
  for (const std::string& f : frames) {
    RETURN_IF_ERROR(
        ApplyCommand(std::string_view(f).substr(kRecordHeaderBytes)));
  }
  if (aof_->Size() >= options_.aof_rewrite_bytes) {
    RETURN_IF_ERROR(MaybeRewriteAof());
  }
  return OkStatus();
}

Status Redis::MaybeRewriteAof() {
  // Snapshot the dataset to an RDB file (large background write), then
  // delete the AOF and start a new generation.
  rdb_snapshots_++;
  char buf[32];
  uint64_t gen = aof_generation_;
  std::snprintf(buf, sizeof(buf), "/rdb-%06" PRIu64, gen);
  SplitOpenOptions opts;
  auto rdb = fs_->Open(options_.dir + buf, opts);
  if (!rdb.ok()) {
    return rdb.status();
  }
  RETURN_IF_ERROR((*rdb)->Append(SerializeRdb()));
  SyncOptions sync_options;
  sync_options.background = true;
  RETURN_IF_ERROR((*rdb)->Sync(sync_options).status());

  std::string old_aof = aof_->path();
  aof_.reset();
  RETURN_IF_ERROR(fs_->Unlink(old_aof));
  // Older RDBs are superseded.
  for (const std::string& path : fs_->dfs()->List(options_.dir + "/rdb-")) {
    if (path != options_.dir + buf) {
      DiscardStatus(fs_->Unlink(path), "Redis superseded RDB cleanup");
    }
  }
  aof_generation_ = gen + 1;
  ASSIGN_OR_RETURN(auto file, OpenAof(/*create=*/true));
  aof_ = std::move(file);
  return OkStatus();
}

Status Redis::ApplyWriteBatch(const std::vector<KvWrite>& batch) {
  if (batch.empty()) {
    return OkStatus();
  }
  sim_->Advance(params_->cpu.redis_op * static_cast<SimTime>(batch.size()));
  std::vector<std::string> frames;
  frames.reserve(batch.size());
  for (const KvWrite& w : batch) {
    frames.push_back(Frame(kOpSet, {w.key, w.value}));
  }
  return AppendCommands(frames);
}

Status Redis::Put(std::string_view key, std::string_view value) {
  return ApplyWriteBatch({KvWrite{std::string(key), std::string(value)}});
}

Result<std::string> Redis::Get(std::string_view key) {
  sim_->Advance(params_->cpu.redis_op);
  auto it = strings_.find(key);
  if (it == strings_.end()) {
    return NotFoundError("no such key");
  }
  return it->second;
}

Status Redis::Del(std::string_view key) {
  sim_->Advance(params_->cpu.redis_op);
  return AppendCommands({Frame(kOpDel, {key})});
}

Result<int64_t> Redis::Incr(std::string_view key) {
  sim_->Advance(params_->cpu.redis_op);
  int64_t value = 0;
  auto it = strings_.find(key);
  if (it != strings_.end()) {
    value = std::strtoll(it->second.c_str(), nullptr, 10);
  }
  value++;
  std::string text = std::to_string(value);
  RETURN_IF_ERROR(AppendCommands({Frame(kOpSet, {key, text})}));
  return value;
}

Status Redis::HSet(std::string_view key, std::string_view field,
                   std::string_view value) {
  sim_->Advance(params_->cpu.redis_op);
  return AppendCommands({Frame(kOpHSet, {key, field, value})});
}

Result<std::string> Redis::HGet(std::string_view key, std::string_view field) {
  sim_->Advance(params_->cpu.redis_op);
  auto it = hashes_.find(key);
  if (it == hashes_.end()) {
    return NotFoundError("no such hash");
  }
  auto fit = it->second.find(field);
  if (fit == it->second.end()) {
    return NotFoundError("no such field");
  }
  return fit->second;
}

Status Redis::LPush(std::string_view key, std::string_view value) {
  sim_->Advance(params_->cpu.redis_op);
  return AppendCommands({Frame(kOpLPush, {key, value})});
}

Result<std::string> Redis::LIndex(std::string_view key, int64_t index) {
  sim_->Advance(params_->cpu.redis_op);
  auto it = lists_.find(key);
  if (it == lists_.end()) {
    return NotFoundError("no such list");
  }
  const auto& list = it->second;
  if (index < 0) {
    index += static_cast<int64_t>(list.size());
  }
  if (index < 0 || index >= static_cast<int64_t>(list.size())) {
    return NotFoundError("index out of range");
  }
  return list[static_cast<size_t>(index)];
}

}  // namespace splitft
