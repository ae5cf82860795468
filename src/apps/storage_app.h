// Common interface the benchmark harness drives. Each mini-application
// (kvstore/RocksDB, redis, sqlitelite/SQLite) implements it in three
// durability modes:
//   kWeak    — log writes are buffered on the dfs and flushed lazily
//              (acknowledged data can be lost on a crash);
//   kStrong  — every commit is fsynced to the dfs before acknowledging;
//   kSplitFt — log files are opened with the O_NCL flag and made fault
//              tolerant by the near-compute log layer.
#ifndef SRC_APPS_STORAGE_APP_H_
#define SRC_APPS_STORAGE_APP_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/obs/obs.h"
#include "src/sim/simulation.h"

namespace splitft {

enum class DurabilityMode { kWeak, kStrong, kSplitFt };

std::string_view DurabilityModeName(DurabilityMode mode);

struct KvWrite {
  std::string key;
  std::string value;
};

class StorageApp {
 public:
  virtual ~StorageApp() = default;

  virtual Status Put(std::string_view key, std::string_view value) = 0;
  virtual Result<std::string> Get(std::string_view key) = 0;

  // Applies several concurrent client writes as one commit (application-
  // level batching / group commit). The default loops over Put.
  virtual Status ApplyWriteBatch(const std::vector<KvWrite>& batch) {
    for (const KvWrite& w : batch) {
      RETURN_IF_ERROR(Put(w.key, w.value));
    }
    return OkStatus();
  }

  // Group-commit variant: applies the batch and returns the virtual time
  // at which it becomes durable, allowing the caller to overlap subsequent
  // read service with the in-flight flush (how RocksDB's commit pipeline
  // behaves). A returned time <= "now" means the commit is already durable.
  // The default commits synchronously.
  virtual Result<SimTime> ApplyWriteBatchDeferred(
      const std::vector<KvWrite>& batch) {
    RETURN_IF_ERROR(ApplyWriteBatch(batch));
    return SimTime{0};
  }

  // True if the application batches concurrent updates into one log write
  // (RocksDB and Redis do; SQLite does not — §5).
  virtual bool supports_batching() const { return false; }

  // True if the server serves reads while a commit flush is in flight
  // (RocksDB). Redis and SQLite are single threaded: everything queues
  // behind the flush (head-of-line blocking, §5.3).
  virtual bool parallel_reads() const { return false; }

  virtual std::string name() const = 0;

  // The observability handle of the simulation the app runs in (its
  // SplitFs's). The harness counts the app's discarded reads there; the
  // default, for an app that names none, counts them nowhere.
  virtual ObsContext obs() const { return {}; }
};

}  // namespace splitft

#endif  // SRC_APPS_STORAGE_APP_H_
