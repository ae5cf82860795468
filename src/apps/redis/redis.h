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
// replays the AOF. Redis is single threaded: the harness serializes all
// commands, giving strong mode its head-of-line blocking (§5.3).
#ifndef SRC_APPS_REDIS_REDIS_H_
#define SRC_APPS_REDIS_REDIS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/storage_app.h"
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

  // ---- Data-structure commands -------------------------------------------
  Status Del(std::string_view key);
  Result<int64_t> Incr(std::string_view key);
  Status HSet(std::string_view key, std::string_view field,
              std::string_view value);
  Result<std::string> HGet(std::string_view key, std::string_view field);
  Status LPush(std::string_view key, std::string_view value);
  Result<std::string> LIndex(std::string_view key, int64_t index);

  // Diagnostics.
  size_t keys() const {
    return strings_.size() + hashes_.size() + lists_.size();
  }
  uint64_t aof_bytes() const;
  int rdb_snapshots() const { return rdb_snapshots_; }
  uint64_t replayed_commands() const { return replayed_commands_; }

 private:
  Redis(SplitFs* fs, Simulation* sim, const SimParams* params,
        RedisOptions options);

  Status Recover();
  // Appends the command frames to the AOF, commits them, then applies them
  // to the dataset (through ApplyCommand, the replay decoder) and rewrites
  // the AOF if it crossed the threshold.
  Status AppendCommands(const std::vector<std::string>& frames);
  Status MaybeRewriteAof();
  Status ApplyCommand(std::string_view frame);
  std::string SerializeRdb() const;
  Status LoadRdb(std::string_view raw);
  Result<std::unique_ptr<SplitFile>> OpenAof(bool create);

  SplitFs* fs_;
  Simulation* sim_;
  const SimParams* params_;
  RedisOptions options_;
  // Ordered keyspaces (the RDB serializes them in key order) with a
  // transparent comparator, so lookups by string_view allocate nothing.
  template <typename V>
  using KeyMap = std::map<std::string, V, std::less<>>;
  KeyMap<std::string> strings_;
  KeyMap<KeyMap<std::string>> hashes_;
  KeyMap<std::deque<std::string>> lists_;
  std::unique_ptr<SplitFile> aof_;
  uint64_t aof_generation_ = 1;
  int rdb_snapshots_ = 0;
  uint64_t replayed_commands_ = 0;
};

}  // namespace splitft

#endif  // SRC_APPS_REDIS_REDIS_H_
