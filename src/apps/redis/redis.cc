#include "src/apps/redis/redis.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>

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

// The keyspace is split into at most this many hash shards: one per host
// thread the recovery rebuild may use.
constexpr size_t kMaxShards = 4;

// Ordered keyspaces (the RDB serializes them in key order) with a
// transparent comparator, so lookups by string_view allocate nothing.
template <typename V>
using KeyMap = std::map<std::string, V, std::less<>>;

// One decoded AOF command: views into the record payload it was parsed
// from. Every command names exactly one key, and that key picks its shard.
struct Command {
  char op = 0;
  std::string_view key;
  std::string_view field;  // HSET only
  std::string_view value;  // SET, HSET and LPUSH
};

// The one AOF decoder, shared by replay and the live command path.
Status ParseCommand(std::string_view payload, Command* cmd) {
  if (payload.empty()) {
    return DataLossError("empty aof frame");
  }
  cmd->op = payload[0];
  size_t pos = 1;
  switch (cmd->op) {
    case kOpSet:
      if (!GetLengthPrefixed(payload, &pos, &cmd->key) ||
          !GetLengthPrefixed(payload, &pos, &cmd->value)) {
        return DataLossError("bad SET frame");
      }
      return OkStatus();
    case kOpDel:
      if (!GetLengthPrefixed(payload, &pos, &cmd->key)) {
        return DataLossError("bad DEL frame");
      }
      return OkStatus();
    case kOpHSet:
      if (!GetLengthPrefixed(payload, &pos, &cmd->key) ||
          !GetLengthPrefixed(payload, &pos, &cmd->field) ||
          !GetLengthPrefixed(payload, &pos, &cmd->value)) {
        return DataLossError("bad HSET frame");
      }
      return OkStatus();
    case kOpLPush:
      if (!GetLengthPrefixed(payload, &pos, &cmd->key) ||
          !GetLengthPrefixed(payload, &pos, &cmd->value)) {
        return DataLossError("bad LPUSH frame");
      }
      return OkStatus();
    default:
      return DataLossError("unknown aof opcode");
  }
}

// A string in a shard's delta over the snapshot index: its value since
// the snapshot, or a DEL of a key the snapshot holds.
struct StringDelta {
  std::string value;
  bool deleted = false;
};

// Runs fn(s) for every shard s < shards: shard 0 on the calling thread and
// each other shard on a thread of its own. Returns once all have finished,
// rethrowing on the calling thread what a worker threw (std::bad_alloc).
// fn may touch only shard s and read-only inputs, never the simulation.
template <typename Fn>
void ForEachShardInParallel(size_t shards, const Fn& fn) {
  std::vector<std::exception_ptr> thrown(shards);
  {
    std::vector<std::jthread> workers;
    workers.reserve(shards - 1);
    for (size_t s = 1; s < shards; ++s) {
      workers.emplace_back([&fn, &thrown, s] {
        try {
          fn(s);
        } catch (...) {
          thrown[s] = std::current_exception();
        }
      });
    }
    fn(0);
  }  // ~jthread joins the workers, also when fn(0) throws
  for (const std::exception_ptr& e : thrown) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
}

// Calls fn(key, value) for every entry of the map `member` picks out of
// each shard, in global key order: a k-way merge of the shards' sorted
// maps. A key lives in one shard only, so no two runs share a key.
template <typename Shards, typename Member, typename Fn>
void ForEachMerged(const Shards& shards, Member member, const Fn& fn) {
  using Map = std::remove_cvref_t<decltype(shards[0].*member)>;
  using It = typename Map::const_iterator;
  std::vector<std::pair<It, It>> runs;
  for (const auto& shard : shards) {
    const Map& map = shard.*member;
    if (!map.empty()) {
      runs.emplace_back(map.begin(), map.end());
    }
  }
  while (!runs.empty()) {
    size_t next = 0;
    for (size_t r = 1; r < runs.size(); ++r) {
      if (runs[r].first->first < runs[next].first->first) {
        next = r;
      }
    }
    auto& [it, end] = runs[next];
    fn(it->first, it->second);
    if (++it == end) {
      runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(next));
    }
  }
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

struct Redis::Shard {
  // Strings set or deleted since the snapshot; they shadow the index.
  KeyMap<StringDelta> strings;
  KeyMap<KeyMap<std::string>> hashes;
  KeyMap<std::deque<std::string>> lists;

  // Applies one command. The snapshot index is only read, so replay
  // workers share it.
  void Apply(const Command& cmd, const SnapshotIndex& snapshot) {
    switch (cmd.op) {
      case kOpSet: {
        StringDelta& delta = FindOrInsert(&strings, cmd.key);
        delta.value.assign(cmd.value);
        delta.deleted = false;
        return;
      }
      case kOpDel:
        if (FindInSnapshot(snapshot, cmd.key).has_value()) {
          FindOrInsert(&strings, cmd.key) = StringDelta{{}, true};
        } else {
          EraseKey(&strings, cmd.key);
        }
        EraseKey(&hashes, cmd.key);
        EraseKey(&lists, cmd.key);
        return;
      case kOpHSet:
        FindOrInsert(&FindOrInsert(&hashes, cmd.key), cmd.field)
            .assign(cmd.value);
        return;
      case kOpLPush:
        FindOrInsert(&lists, cmd.key).emplace_front(cmd.value);
        return;
      default:
        return;  // ParseCommand admits no other opcode
    }
  }
};

Redis::Redis(SplitFs* fs, Simulation* sim, const SimParams* params,
             RedisOptions options)
    : fs_(fs),
      sim_(sim),
      params_(params),
      options_(std::move(options)),
      shards_(std::clamp<size_t>(std::thread::hardware_concurrency(), 1,
                                 kMaxShards)) {}

Redis::~Redis() = default;

size_t Redis::ShardOf(std::string_view key) const {
  return shards_.size() == 1
             ? 0
             : std::hash<std::string_view>()(key) % shards_.size();
}

Redis::Shard& Redis::ShardFor(std::string_view key) {
  return shards_[ShardOf(key)];
}

std::optional<std::string_view> Redis::FindInSnapshot(
    const SnapshotIndex& index, std::string_view key) {
  auto it = std::lower_bound(
      index.begin(), index.end(), key,
      [](const auto& entry, std::string_view k) { return entry.first < k; });
  if (it == index.end() || it->first != key) {
    return std::nullopt;
  }
  return it->second;
}

size_t Redis::keys() const {
  size_t n = snapshot_.size();
  for (const Shard& shard : shards_) {
    n += shard.hashes.size() + shard.lists.size();
    // A deleted marker hides a snapshot key; a live entry adds a key only
    // when the snapshot lacks it.
    for (const auto& [key, delta] : shard.strings) {
      if (delta.deleted) {
        n--;
      } else if (!FindInSnapshot(snapshot_, key).has_value()) {
        n++;
      }
    }
  }
  return n;
}

std::optional<std::string_view> Redis::FindString(std::string_view key) const {
  const auto& delta = shards_[ShardOf(key)].strings;
  auto it = delta.find(key);
  if (it == delta.end()) {
    return FindInSnapshot(snapshot_, key);
  }
  if (it->second.deleted) {
    return std::nullopt;
  }
  return it->second.value;
}

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
  // The shards are merged back into one key-ordered stream, so the bytes
  // do not depend on the shard count.
  auto total = [this](auto member) {
    size_t n = 0;
    for (const Shard& shard : shards_) {
      n += (shard.*member).size();
    }
    return static_cast<uint32_t>(n);
  };
  std::string out;
  // The strings section is a KV list (src/common/record.h): the snapshot
  // index merged with the key-ordered delta, which wins on equal keys. Its
  // count is patched in once the merge has counted the live strings.
  PutFixed32(&out, 0);
  uint32_t strings = 0;
  auto put_string = [&](std::string_view k, std::string_view v) {
    PutLengthPrefixed(&out, k);
    PutLengthPrefixed(&out, v);
    strings++;
  };
  auto next = snapshot_.begin();
  ForEachMerged(shards_, &Shard::strings,
                [&](const std::string& k, const StringDelta& delta) {
                  for (; next != snapshot_.end() && next->first < k; ++next) {
                    put_string(next->first, next->second);
                  }
                  if (next != snapshot_.end() && next->first == k) {
                    ++next;
                  }
                  if (!delta.deleted) {
                    put_string(k, delta.value);
                  }
                });
  for (; next != snapshot_.end(); ++next) {
    put_string(next->first, next->second);
  }
  EncodeFixed32(out.data(), strings);
  PutFixed32(&out, total(&Shard::hashes));
  ForEachMerged(shards_, &Shard::hashes,
                [&](const std::string& k, const KeyMap<std::string>& fields) {
                  PutLengthPrefixed(&out, k);
                  PutKvList(&out, fields);
                });
  PutFixed32(&out, total(&Shard::lists));
  ForEachMerged(
      shards_, &Shard::lists,
      [&](const std::string& k, const std::deque<std::string>& items) {
        PutLengthPrefixed(&out, k);
        PutFixed32(&out, static_cast<uint32_t>(items.size()));
        for (const std::string& item : items) {
          PutLengthPrefixed(&out, item);
        }
      });
  return out;
}

// Recovery keeps the RDB it read and indexes its strings section in
// place; hashes and lists are copied into their shards. The AOF replay
// then applies on one thread per shard: the calling thread validates and
// routes every command in log order, and each shard applies its own, in
// the same order. Every command names one key and a key's types share a
// shard, so each shard sees exactly its own subsequence of the log and the
// result cannot depend on thread timing.
Status Redis::LoadRdb(SharedBytes rdb) {
  std::string_view raw = rdb;
  size_t pos = 0;
  auto read_u32 = [&](uint32_t* v) {
    if (pos + 4 > raw.size()) {
      return false;
    }
    *v = DecodeFixed32(raw.data() + pos);
    pos += 4;
    return true;
  };
  SnapshotIndex index;
  if (raw.size() >= 4) {
    // Every entry takes at least its two length prefixes.
    index.reserve(std::min<size_t>(DecodeFixed32(raw.data()), raw.size() / 8));
  }
  bool ordered = true;
  if (!ForEachKv(raw, &pos, [&](std::string_view k, std::string_view v) {
        ordered = ordered && (index.empty() || index.back().first < k);
        index.emplace_back(k, v);
      })) {
    return DataLossError("rdb truncated (strings)");
  }
  if (!ordered) {
    // The index is binary searched: its keys must strictly increase.
    return DataLossError("rdb strings out of key order");
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
    // Keys arrive in order, so each insert lands at its shard map's end.
    auto& hashes = ShardFor(k).hashes;
    auto& hash =
        hashes.emplace_hint(hashes.end(), k, KeyMap<std::string>())->second;
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
    auto& lists = ShardFor(k).lists;
    auto& list =
        lists.emplace_hint(lists.end(), k, std::deque<std::string>())->second;
    for (uint32_t j = 0; j < items; ++j) {
      std::string_view item;
      if (!GetLengthPrefixed(raw, &pos, &item)) {
        return DataLossError("rdb truncated (list items)");
      }
      list.emplace_back(item);
    }
  }
  snapshot_rdb_ = std::move(rdb);
  snapshot_ = std::move(index);
  return OkStatus();
}

Status Redis::ReplayAof(std::string_view raw) {
  // A malformed command fails recovery here, before any shard applies
  // anything; a torn or corrupt record ends the log, as it would serially.
  std::vector<std::vector<Command>> commands(shards_.size());
  Status parsed;
  ForEachRecord(raw, [&](std::string_view payload) {
    Command cmd;
    parsed = ParseCommand(payload, &cmd);
    if (!parsed.ok()) {
      return false;
    }
    commands[ShardOf(cmd.key)].push_back(cmd);
    replayed_commands_++;
    return true;
  });
  RETURN_IF_ERROR(parsed);
  ForEachShardInParallel(shards_.size(), [&](size_t s) {
    for (const Command& cmd : commands[s]) {
      shards_[s].Apply(cmd, snapshot_);
    }
  });
  return OkStatus();
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
    RETURN_IF_ERROR(LoadRdb(std::move(*raw)));
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
    RETURN_IF_ERROR(ReplayAof(*raw));
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
    Command cmd;
    RETURN_IF_ERROR(
        ParseCommand(std::string_view(f).substr(kRecordHeaderBytes), &cmd));
    ShardFor(cmd.key).Apply(cmd, snapshot_);
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
  std::optional<std::string_view> value = FindString(key);
  if (!value.has_value()) {
    return NotFoundError("no such key");
  }
  return std::string(*value);
}

Status Redis::Del(std::string_view key) {
  sim_->Advance(params_->cpu.redis_op);
  return AppendCommands({Frame(kOpDel, {key})});
}

Result<int64_t> Redis::Incr(std::string_view key) {
  sim_->Advance(params_->cpu.redis_op);
  int64_t value = 0;
  std::optional<std::string_view> current = FindString(key);
  if (current.has_value()) {
    value = std::strtoll(std::string(*current).c_str(), nullptr, 10);
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
  const auto& hashes = ShardFor(key).hashes;
  auto it = hashes.find(key);
  if (it == hashes.end()) {
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
  const auto& lists = ShardFor(key).lists;
  auto it = lists.find(key);
  if (it == lists.end()) {
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
