// Mini-RocksDB: an LSM key-value store over SplitFs.
//
// Write path: batch -> WAL append (+fsync in strong mode) -> memtable (a
// hash map). When the memtable fills, it is sorted once and flushed as an
// L0 sstable (a large background dfs write) and the WAL is deleted and
// rotated (Table 2's delete-reclaim policy). When L0 accumulates, all
// tables are merged in one streaming k-way pass into a single L1 table.
// Reads go memtable -> L0 (newest first) -> L1, through a block cache
// sized at a fraction of the dataset (§5: 30%).
//
// Write stalls: when L0 grows past the stall threshold while earlier
// flush/compaction writes still occupy the dfs backend, the writer waits
// for the backend to drain — this is the effect that makes SplitFT
// slightly *faster* than weak mode (fewer dfs IOs, §5.2).
#ifndef SRC_APPS_KVSTORE_KV_STORE_H_
#define SRC_APPS_KVSTORE_KV_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/apps/kvstore/sstable.h"
#include "src/apps/kvstore/wal.h"
#include "src/apps/lru_cache.h"
#include "src/apps/storage_app.h"
#include "src/sim/simulation.h"
#include "src/splitft/split_fs.h"

namespace splitft {

struct KvStoreOptions {
  DurabilityMode mode = DurabilityMode::kSplitFt;
  std::string dir = "/kv";
  uint64_t memtable_bytes = 2 << 20;
  uint64_t block_cache_bytes = 8 << 20;
  // L0 table count that triggers compaction into L1.
  int l0_compaction_trigger = 4;
  // Content capacity for WAL files (NCL region size in SplitFT mode).
  uint64_t wal_capacity = 8 << 20;
};

class KvStore : public StorageApp {
 public:
  // Opens (and, if prior state exists, recovers) the store.
  static Result<std::unique_ptr<KvStore>> Open(SplitFs* fs, Simulation* sim,
                                               const SimParams* params,
                                               KvStoreOptions options);
  ~KvStore() override;

  Status Put(std::string_view key, std::string_view value) override;
  Result<std::string> Get(std::string_view key) override;
  // Writes a tombstone; the key reads as kNotFound from then on. Tombstones
  // are dropped when compaction rewrites the bottom level.
  Status Delete(std::string_view key);
  Status ApplyWriteBatch(const std::vector<KvWrite>& batch) override;
  Result<SimTime> ApplyWriteBatchDeferred(
      const std::vector<KvWrite>& batch) override;
  bool supports_batching() const override { return true; }
  bool parallel_reads() const override { return true; }
  std::string name() const override { return "rocksdb-mini"; }
  ObsContext obs() const override { return fs_->obs(); }

  // Forces the memtable to an sstable (used by tests).
  Status FlushMemtable();

  // Diagnostics.
  size_t memtable_entries() const { return memtable_.size(); }
  size_t l0_tables() const { return level0_.size(); }
  size_t l1_tables() const { return level1_.size(); }
  uint64_t recovered_batches() const { return recovered_batches_; }
  const LruCache& block_cache() const { return *block_cache_; }

 private:
  KvStore(SplitFs* fs, Simulation* sim, const SimParams* params,
          KvStoreOptions options);

  // Internal value encoding: a one-byte type tag (kValueTag / kTombstoneTag)
  // precedes the user bytes in the WAL, memtable, and sstables, so deletes
  // flow through every layer like ordinary writes.
  static constexpr char kTombstoneTag = 0;
  static constexpr char kValueTag = 1;

  Status RecoverExistingState();
  // `batch` values must already carry the type tag.
  Result<SimTime> ApplyBatchInternal(std::vector<KvWrite> batch,
                                     bool deferred);
  Status RotateWal();
  Status MaybeFlushAndCompact();
  Status Compact();
  Result<std::unique_ptr<SplitFile>> OpenWalFile(const std::string& path,
                                                 bool create);
  std::string WalPath(uint64_t id) const;
  std::string SstPath(int level, uint64_t id) const;
  // Strong and splitft modes both require append-implies-durable before
  // acking a batch. On the dfs this is a real fsync; on an NCL file it
  // drains the in-flight append window (free when nothing is outstanding).
  bool sync_wal() const { return options_.mode != DurabilityMode::kWeak; }

  // Writes `entries` (sorted) as a new sstable at `path` and opens it.
  Result<std::unique_ptr<SstableReader>> WriteTable(
      const std::string& path, const std::vector<SstEntry>& entries);

  // Hashes std::string and std::string_view alike, so memtable lookups by
  // view allocate nothing.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };

  SplitFs* fs_;
  Simulation* sim_;
  const SimParams* params_;
  KvStoreOptions options_;
  std::unique_ptr<LruCache> block_cache_;
  // Unordered; FlushMemtable sorts it once into the sstable's key order.
  std::unordered_map<std::string, std::string, KeyHash, std::equal_to<>>
      memtable_;
  uint64_t memtable_bytes_ = 0;
  std::unique_ptr<WriteAheadLog> wal_;
  uint64_t next_file_id_ = 1;
  std::vector<std::unique_ptr<SstableReader>> level0_;  // newest first
  std::vector<std::unique_ptr<SstableReader>> level1_;
  uint64_t recovered_batches_ = 0;
};

}  // namespace splitft

#endif  // SRC_APPS_KVSTORE_KV_STORE_H_
