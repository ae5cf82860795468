#include "src/apps/redis/redis.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstring>
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

// The AOF bytes per command ReplayAof reserves its shard buckets for.
constexpr size_t kReplayReserveFrameBytes = 128;

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

// A string in a shard's delta: its value since the recovery, or a DEL of
// a key a layer below the delta holds.
struct StringDelta {
  std::string value;
  bool deleted = false;
};

// A string in a shard's replay index: the last SET or DEL of `key` in the
// replayed AOF. A deletion is kept only for a key the snapshot holds.
struct ReplayedString {
  std::string_view key;
  std::string_view value;
  // The fold's sort key: KeyHead of `key` past the shard's common key
  // prefix. Unused once the index is built.
  uint64_t head = 0;
  bool deleted = false;
};

// The 8 bytes of `key` after its first `skip`, zero-padded, as a big-endian
// number. Of two keys sharing their first `skip` bytes, the one with the
// smaller head sorts first; equal heads say nothing.
uint64_t KeyHead(std::string_view key, size_t skip) {
  uint64_t head = 0;
  for (size_t i = skip; i < skip + 8; ++i) {
    head = head << 8 | (i < key.size() ? static_cast<uint8_t>(key[i]) : 0);
  }
  return head;
}

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

// A key-ordered map's entries as a run of ForEachMerged.
template <typename Map>
class MapRun {
 public:
  explicit MapRun(const Map& map) : it_(map.begin()), end_(map.end()) {}
  bool done() const { return it_ == end_; }
  std::string_view key() const { return it_->first; }
  const typename Map::mapped_type& value() const { return it_->second; }
  void Next() { ++it_; }

 private:
  typename Map::const_iterator it_, end_;
};

// A shard's strings in key order: its replay index overlaid with its
// delta, the delta winning on equal keys. value() is nullopt for a
// deletion.
class StringRun {
 public:
  StringRun(const std::vector<ReplayedString>& replayed,
            const KeyMap<StringDelta>& delta)
      : replayed_(replayed.begin()),
        replayed_end_(replayed.end()),
        delta_(delta.begin()),
        delta_end_(delta.end()) {}
  bool done() const {
    return replayed_ == replayed_end_ && delta_ == delta_end_;
  }
  std::string_view key() const {
    return FromDelta() ? std::string_view(delta_->first) : replayed_->key;
  }
  std::optional<std::string_view> value() const {
    if (FromDelta() ? delta_->second.deleted : replayed_->deleted) {
      return std::nullopt;
    }
    return FromDelta() ? std::string_view(delta_->second.value)
                       : replayed_->value;
  }
  void Next() {
    if (!FromDelta()) {
      ++replayed_;
      return;
    }
    if (replayed_ != replayed_end_ && replayed_->key == delta_->first) {
      ++replayed_;  // shadowed by the delta
    }
    ++delta_;
  }

 private:
  bool FromDelta() const {
    return replayed_ == replayed_end_ ||
           (delta_ != delta_end_ && delta_->first <= replayed_->key);
  }

  std::vector<ReplayedString>::const_iterator replayed_, replayed_end_;
  KeyMap<StringDelta>::const_iterator delta_, delta_end_;
};

// Calls fn(key, value) for the entries of every run in global key order: a
// k-way merge of sorted runs. A key lives in one shard only, so no two
// runs share a key.
template <typename Run, typename Fn>
void ForEachMerged(std::vector<Run> runs, const Fn& fn) {
  std::erase_if(runs, [](const Run& run) { return run.done(); });
  while (!runs.empty()) {
    size_t next = 0;
    for (size_t r = 1; r < runs.size(); ++r) {
      if (runs[r].key() < runs[next].key()) {
        next = r;
      }
    }
    Run& run = runs[next];
    fn(run.key(), run.value());
    run.Next();
    if (run.done()) {
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

// A shard's strings are read through three layers, top down: the delta of
// live SETs and DELs since the recovery, the replay index the recovery
// folded the AOF into, and the global snapshot index. The first layer
// holding an entry for a key decides, and a deletion hides the layers
// below it.
struct Redis::Shard {
  enum class Layer { kDelta, kReplay, kSnapshot };

  KeyMap<StringDelta> strings;  // the delta
  // The replay index, sorted by key, viewing replay_bytes. Built once by
  // Replay, then only read.
  std::vector<ReplayedString> replayed;
  std::unique_ptr<char[]> replay_bytes;
  KeyMap<KeyMap<std::string>> hashes;
  KeyMap<std::deque<std::string>> lists;

  // The live string under `key`, reading layer `from` and those below it.
  // The one string lookup: every read, and every test of what a layer
  // hides, goes through it.
  std::optional<std::string_view> Find(std::string_view key,
                                       const SnapshotIndex& snapshot,
                                       Layer from = Layer::kDelta) const {
    if (from == Layer::kDelta) {
      auto it = strings.find(key);
      if (it != strings.end()) {
        return it->second.deleted
                   ? std::nullopt
                   : std::optional<std::string_view>(it->second.value);
      }
    }
    if (from != Layer::kSnapshot) {
      auto it = std::lower_bound(
          replayed.begin(), replayed.end(), key,
          [](const ReplayedString& e, std::string_view k) { return e.key < k; });
      if (it != replayed.end() && it->key == key) {
        return it->deleted ? std::nullopt
                           : std::optional<std::string_view>(it->value);
      }
    }
    return FindInSnapshot(snapshot, key);
  }

  // Applies one live command. A string lands in the delta.
  void Apply(const Command& cmd, const SnapshotIndex& snapshot) {
    switch (cmd.op) {
      case kOpSet: {
        StringDelta& delta = FindOrInsert(&strings, cmd.key);
        delta.value.assign(cmd.value);
        delta.deleted = false;
        return;
      }
      case kOpDel:
        if (Find(cmd.key, snapshot, Layer::kReplay).has_value()) {
          FindOrInsert(&strings, cmd.key) = StringDelta{{}, true};
        } else {
          EraseKey(&strings, cmd.key);
        }
        EraseCollections(cmd.key);
        return;
      case kOpHSet:
      case kOpLPush:
        ApplyCollectionWrite(cmd);
        return;
      default:
        return;  // ParseCommand admits no other opcode
    }
  }

  // Folds the shard's replayed commands, in log order, into the shard. All
  // of them must view one AOF buffer, so that a later command's key view
  // starts at a higher address. Hashes and lists apply command by command;
  // the last SET or DEL of each string wins and lands in the replay index,
  // whose bytes are copied once into one exactly-sized buffer. The
  // snapshot index is only read, so replay workers share it.
  void Replay(const std::vector<Command>& log, const SnapshotIndex& snapshot) {
    assert(replayed.empty() && strings.empty());
    replayed.reserve(static_cast<size_t>(
        std::count_if(log.begin(), log.end(), [](const Command& cmd) {
          return cmd.op == kOpSet || cmd.op == kOpDel;
        })));
    for (const Command& cmd : log) {
      if (cmd.op == kOpSet || cmd.op == kOpDel) {
        replayed.push_back({.key = cmd.key,
                            .value = cmd.value,
                            .deleted = cmd.op == kOpDel});
        if (cmd.op == kOpDel) {
          EraseCollections(cmd.key);
        }
      } else {
        ApplyCollectionWrite(cmd);
      }
    }
    // Sort each key's writes together, in log order. Keys with a long
    // common prefix (YCSB's "user000...") would make most comparisons read
    // both keys out of the AOF; the heads past that prefix settle them.
    std::string_view first;
    if (!replayed.empty()) {
      first = replayed[0].key;
    }
    size_t common = first.size();
    for (const ReplayedString& entry : replayed) {
      common = static_cast<size_t>(
          std::ranges::mismatch(first.substr(0, common), entry.key).in1 -
          first.begin());
    }
    for (ReplayedString& entry : replayed) {
      entry.head = KeyHead(entry.key, common);
    }
    std::sort(replayed.begin(), replayed.end(),
              [](const ReplayedString& a, const ReplayedString& b) {
                if (a.head != b.head) {
                  return a.head < b.head;
                }
                int order = a.key.compare(b.key);
                return order != 0 ? order < 0 : a.key.data() < b.key.data();
              });
    size_t kept = 0;
    size_t bytes = 0;
    for (size_t i = 0; i < replayed.size(); ++i) {
      const ReplayedString& last = replayed[i];
      if ((i + 1 < replayed.size() && replayed[i + 1].key == last.key) ||
          (last.deleted &&
           !Find(last.key, snapshot, Layer::kSnapshot).has_value())) {
        continue;  // overwritten later, or a deletion hiding nothing
      }
      bytes += last.key.size() + last.value.size();
      replayed[kept++] = last;
    }
    replayed.resize(kept);
    // Views into the buffer stay valid because it never grows.
    replay_bytes = std::make_unique_for_overwrite<char[]>(bytes);
    char* out = replay_bytes.get();
    auto copy = [&](std::string_view from) {
      assert(out + from.size() <= replay_bytes.get() + bytes);
      if (!from.empty()) {
        std::memcpy(out, from.data(), from.size());
      }
      out += from.size();
      return std::string_view(out - from.size(), from.size());
    };
    for (ReplayedString& entry : replayed) {
      entry.key = copy(entry.key);
      entry.value = copy(entry.value);
    }
    assert(out == replay_bytes.get() + bytes);
  }

 private:
  // An HSET or LPUSH.
  void ApplyCollectionWrite(const Command& cmd) {
    if (cmd.op == kOpHSet) {
      FindOrInsert(&FindOrInsert(&hashes, cmd.key), cmd.field)
          .assign(cmd.value);
    } else {
      FindOrInsert(&lists, cmd.key).emplace_front(cmd.value);
    }
  }

  // A DEL's effect on the key's hash and list.
  void EraseCollections(std::string_view key) {
    EraseKey(&hashes, key);
    EraseKey(&lists, key);
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
    // A deletion hides a key the layers below it hold; a live entry adds a
    // key only when they lack it.
    auto count = [&](std::string_view key, bool deleted, Shard::Layer below) {
      if (deleted) {
        n--;
      } else if (!shard.Find(key, snapshot_, below).has_value()) {
        n++;
      }
    };
    for (const ReplayedString& entry : shard.replayed) {
      count(entry.key, entry.deleted, Shard::Layer::kSnapshot);
    }
    for (const auto& [key, delta] : shard.strings) {
      count(key, delta.deleted, Shard::Layer::kReplay);
    }
  }
  return n;
}

std::optional<std::string_view> Redis::FindString(std::string_view key) const {
  return shards_[ShardOf(key)].Find(key, snapshot_);
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
  auto runs = [this](auto member) {
    using Map = std::remove_cvref_t<decltype(shards_[0].*member)>;
    std::vector<MapRun<Map>> out;
    for (const Shard& shard : shards_) {
      out.emplace_back(shard.*member);
    }
    return out;
  };
  std::string out;
  // The strings section is a KV list (src/common/record.h): the snapshot
  // index merged with the shards' replay indexes and deltas, a higher
  // layer winning on equal keys. Its count is patched in once the merge
  // has counted the live strings.
  PutFixed32(&out, 0);
  uint32_t strings = 0;
  auto put_string = [&](std::string_view k, std::string_view v) {
    PutLengthPrefixed(&out, k);
    PutLengthPrefixed(&out, v);
    strings++;
  };
  std::vector<StringRun> string_runs;
  for (const Shard& shard : shards_) {
    string_runs.emplace_back(shard.replayed, shard.strings);
  }
  auto next = snapshot_.begin();
  ForEachMerged(std::move(string_runs),
                [&](std::string_view k, std::optional<std::string_view> v) {
                  for (; next != snapshot_.end() && next->first < k; ++next) {
                    put_string(next->first, next->second);
                  }
                  if (next != snapshot_.end() && next->first == k) {
                    ++next;
                  }
                  if (v.has_value()) {
                    put_string(k, *v);
                  }
                });
  for (; next != snapshot_.end(); ++next) {
    put_string(next->first, next->second);
  }
  EncodeFixed32(out.data(), strings);
  PutFixed32(&out, total(&Shard::hashes));
  ForEachMerged(runs(&Shard::hashes),
                [&](std::string_view k, const KeyMap<std::string>& fields) {
                  PutLengthPrefixed(&out, k);
                  PutKvList(&out, fields);
                });
  PutFixed32(&out, total(&Shard::lists));
  ForEachMerged(runs(&Shard::lists),
                [&](std::string_view k, const std::deque<std::string>& items) {
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
  // Each bucket is reserved for its share of the AOF at one command per
  // kReplayReserveFrameBytes, so it rarely regrows (a YCSB SET frames to
  // 141 B); pages a reservation leaves untouched take no memory.
  std::vector<std::vector<Command>> commands(shards_.size());
  for (std::vector<Command>& bucket : commands) {
    bucket.reserve(raw.size() / kReplayReserveFrameBytes / shards_.size());
  }
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
    shards_[s].Replay(commands[s], snapshot_);
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
  // The snapshot is handed over: the dfs keeps its buffer as the dirty
  // range rather than copying it (DESIGN.md §10).
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
      DiscardStatus(fs_->obs(), fs_->Unlink(path),
                    "Redis superseded RDB cleanup");
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
