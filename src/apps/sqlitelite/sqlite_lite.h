// Mini-SQLite: an embedded relational-style store with a *circular*
// write-ahead log (`db-wal`) that is reused across checkpoints — Table 2's
// overwrite-reclaim policy, and the hard catch-up case of Fig 7(ii).
//
// Commit path (one transaction per operation; SQLite does not batch
// concurrent updates, §5): encode a frame, write it at the WAL write
// pointer (wrapping after a checkpoint), make it durable per the mode.
// When the WAL fills, a checkpoint writes the full table image to the `db`
// file, bumps the WAL generation in the header, and resets the write
// pointer to the start — subsequent frames overwrite old ones in place.
//
// WAL layout:
//   header (16 B): [magic (4)][generation (8)][reserved (4)]
//   frames:        checksummed records (src/common/record.h), payload
//                  [generation (8)] then the transaction's writes as a KV list
// Recovery loads `db`, reads the header generation, and replays frames
// whose crc checks out and whose generation matches; anything else is a
// stale or torn frame.
#ifndef SRC_APPS_SQLITELITE_SQLITE_LITE_H_
#define SRC_APPS_SQLITELITE_SQLITE_LITE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/lru_cache.h"
#include "src/apps/storage_app.h"
#include "src/sim/simulation.h"
#include "src/splitft/split_fs.h"

namespace splitft {

struct SqliteLiteOptions {
  DurabilityMode mode = DurabilityMode::kSplitFt;
  std::string dir = "/sqlite";
  uint64_t wal_capacity = 4 << 20;
  uint64_t page_cache_bytes = 4 << 20;
};

class SqliteLite : public StorageApp {
 public:
  static Result<std::unique_ptr<SqliteLite>> Open(SplitFs* fs, Simulation* sim,
                                                  const SimParams* params,
                                                  SqliteLiteOptions options);
  ~SqliteLite() override;

  // Each Put executes as one transaction: BEGIN; INSERT OR REPLACE; COMMIT.
  Status Put(std::string_view key, std::string_view value) override;
  Result<std::string> Get(std::string_view key) override;
  bool supports_batching() const override { return false; }
  std::string name() const override { return "sqlite-mini"; }
  ObsContext obs() const override { return fs_->obs(); }

  // Multi-statement transaction: all writes commit atomically in one frame.
  Status ExecTransaction(const std::vector<KvWrite>& writes);

  // Forces a checkpoint (also triggered automatically when the WAL fills).
  Status Checkpoint();

  // Diagnostics.
  uint64_t wal_generation() const { return generation_; }
  uint64_t wal_write_offset() const { return write_ptr_; }
  int checkpoints() const { return checkpoints_; }
  size_t rows() const { return table_.size(); }
  uint64_t replayed_frames() const { return replayed_frames_; }

 private:
  SqliteLite(SplitFs* fs, Simulation* sim, const SimParams* params,
             SqliteLiteOptions options);

  Status Recover();
  Status CommitFrame(const std::vector<KvWrite>& writes);
  Status WriteWalHeader();
  std::string SerializeTable() const;
  Status LoadTable(std::string_view raw);

  static constexpr uint32_t kWalMagic = 0x77616c31;  // "wal1"
  static constexpr uint64_t kWalHeaderBytes = 16;

  SplitFs* fs_;
  Simulation* sim_;
  const SimParams* params_;
  SqliteLiteOptions options_;
  std::map<std::string, std::string> table_;
  std::unique_ptr<SplitFile> wal_;
  std::unique_ptr<SplitFile> db_;
  std::unique_ptr<LruCache> page_cache_;
  uint64_t generation_ = 1;
  uint64_t write_ptr_ = kWalHeaderBytes;
  int checkpoints_ = 0;
  uint64_t replayed_frames_ = 0;
};

}  // namespace splitft

#endif  // SRC_APPS_SQLITELITE_SQLITE_LITE_H_
