// Mini-Redis: an in-memory data-structure store with an append-only file
// (AOF) for durability and RDB snapshots for log reclamation.
//
// Commands: SET/GET/DEL (strings), HSET/HGET (hashes), LPUSH/LINDEX
// (lists), INCR (counters). Every mutating command is appended to the AOF:
//   kWeak    — appendfsync everysec: buffered dfs write, lazy flush;
//   kStrong  — appendfsync always: fsync per (batched) append;
//   kSplitFt — the AOF is an ncl file.
// When the AOF exceeds the rewrite threshold, the dataset is serialized to
// an RDB file (large background dfs write) and the AOF is deleted and
// recreated (Table 2's delete-reclaim policy). Recovery loads the RDB and
// replays the AOF. The modelled Redis is single threaded: the harness
// serializes all commands, giving strong mode its head-of-line blocking
// (§5.3). Recovery keeps the RDB it read pinned and serves its strings in
// place through a sorted snapshot index. AOF replay folds each hash
// shard's SETs and DELs into a sorted replay index over one shard-owned
// byte buffer (the last write of a key wins), so it allocates per shard,
// not per command. Live SETs and DELs land in a per-shard delta. A string
// lookup reads the delta, then the replay index, then the snapshot index
// (DESIGN.md §15). Only the simulator's host-side AOF replay runs on
// several threads (one per hash shard, see redis.cc); it charges no
// virtual time of its own.
#ifndef SRC_APPS_REDIS_REDIS_H_
#define SRC_APPS_REDIS_REDIS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/apps/storage_app.h"
#include "src/common/shared_bytes.h"
#include "src/sim/simulation.h"
#include "src/splitft/split_fs.h"

namespace splitft {

struct RedisOptions {
  DurabilityMode mode = DurabilityMode::kSplitFt;
  std::string dir = "/redis";
  // AOF size that triggers an RDB snapshot + AOF rewrite.
  uint64_t aof_rewrite_bytes = 4 << 20;
  uint64_t aof_capacity = 8 << 20;  // NCL region size in SplitFT mode
};

class Redis : public StorageApp {
 public:
  static Result<std::unique_ptr<Redis>> Open(SplitFs* fs, Simulation* sim,
                                             const SimParams* params,
                                             RedisOptions options);
  ~Redis() override;

  // ---- StorageApp (string commands) --------------------------------------
  Status Put(std::string_view key, std::string_view value) override;
  Result<std::string> Get(std::string_view key) override;
  Status ApplyWriteBatch(const std::vector<KvWrite>& batch) override;
  bool supports_batching() const override { return true; }
  std::string name() const override { return "redis-mini"; }
  ObsContext obs() const override { return fs_->obs(); }

  // ---- Data-structure commands -------------------------------------------
  Status Del(std::string_view key);
  Result<int64_t> Incr(std::string_view key);
  Status HSet(std::string_view key, std::string_view field,
              std::string_view value);
  Result<std::string> HGet(std::string_view key, std::string_view field);
  Status LPush(std::string_view key, std::string_view value);
  Result<std::string> LIndex(std::string_view key, int64_t index);

  // Diagnostics.
  size_t keys() const;
  uint64_t aof_bytes() const;
  int rdb_snapshots() const { return rdb_snapshots_; }
  uint64_t replayed_commands() const { return replayed_commands_; }

 private:
  Redis(SplitFs* fs, Simulation* sim, const SimParams* params,
        RedisOptions options);

  // One hash shard of the keyspace (defined in redis.cc). A key's string,
  // hash and list all live in the shard its name hashes to.
  struct Shard;
  // (key, value) views into an RDB's strings section, keys strictly
  // increasing.
  using SnapshotIndex =
      std::vector<std::pair<std::string_view, std::string_view>>;

  // The snapshot's value for `key`: a binary search of `index`.
  static std::optional<std::string_view> FindInSnapshot(
      const SnapshotIndex& index, std::string_view key);

  Status Recover();
  // Appends the command frames to the AOF, commits them, then applies them
  // to the dataset (through the replay decoder) and rewrites the AOF if it
  // crossed the threshold.
  Status AppendCommands(const std::vector<std::string>& frames);
  Status MaybeRewriteAof();
  // Replays the AOF records of `raw` up to its first torn or corrupt one
  // into the shards' replay indexes. Runs once, on a fresh instance.
  Status ReplayAof(std::string_view raw);
  std::string SerializeRdb() const;
  // Indexes the strings of `rdb` in place, keeping it pinned, and copies
  // its hashes and lists into the shards.
  Status LoadRdb(SharedBytes rdb);
  // The live string under `key`, read through its shard's layers.
  std::optional<std::string_view> FindString(std::string_view key) const;
  Result<std::unique_ptr<SplitFile>> OpenAof(bool create);
  size_t ShardOf(std::string_view key) const;
  Shard& ShardFor(std::string_view key);

  SplitFs* fs_;
  Simulation* sim_;
  const SimParams* params_;
  RedisOptions options_;
  std::vector<Shard> shards_;
  // The RDB recovery loaded and the index of its strings section. Later
  // rewrites unlink the file, but the slice keeps its bytes until the next
  // recovery: at most one superseded snapshot stays pinned.
  SharedBytes snapshot_rdb_;
  SnapshotIndex snapshot_;
  std::unique_ptr<SplitFile> aof_;
  uint64_t aof_generation_ = 1;
  int rdb_snapshots_ = 0;
  uint64_t replayed_commands_ = 0;
};

}  // namespace splitft

#endif  // SRC_APPS_REDIS_REDIS_H_
