// Write-ahead log for the mini-RocksDB: CRC-guarded batch records appended
// to a SplitFile (dfs- or NCL-backed depending on the durability mode).
//
// One record per batch in the shared checksummed-record format, its
// payload the batch as a KV list (both in src/common/record.h).
// Replay stops at the first torn or corrupt record — partial tail writes
// are expected after crashes and are unacknowledged by construction
// (§4.5.1: applications use checksums for write atomicity).
#ifndef SRC_APPS_KVSTORE_WAL_H_
#define SRC_APPS_KVSTORE_WAL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/storage_app.h"
#include "src/common/annotations.h"
#include "src/common/status.h"
#include "src/splitft/split_fs.h"

namespace splitft {

class WriteAheadLog {
 public:
  explicit WriteAheadLog(std::unique_ptr<SplitFile> file)
      : file_(std::move(file)) {}

  // Appends one batch as a single record. With `sync`, flushes before
  // returning (strong mode; a no-op overhead-wise on NCL files).
  Status AppendBatch(const std::vector<KvWrite>& batch, bool sync);

  uint64_t Size() const { return file_->Size(); }
  const std::string& path() const SPLITFT_LIFETIMEBOUND {
    return file_->path();
  }
  SplitFile* file() { return file_.get(); }

  // Encodes a batch into a record (exposed for tests).
  static std::string EncodeRecord(const std::vector<KvWrite>& batch);

  // Replays every intact record in `raw`, calling `apply` per write.
  // Returns the number of batches replayed (torn tails are skipped).
  static int Replay(std::string_view raw,
                    const std::function<void(std::string_view key,
                                             std::string_view value)>& apply);

 private:
  std::unique_ptr<SplitFile> file_;
};

}  // namespace splitft

#endif  // SRC_APPS_KVSTORE_WAL_H_
