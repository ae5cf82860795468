// SplitFs: the SplitFT file-system facade (§4.1).
//
// Applications open files through SplitFs exactly as they would through
// POSIX. Files opened with the kONcl flag (the paper's O_NCL) are backed by
// near-compute logs: appends are posted to the log peers immediately and
// ride a bounded in-flight window (NclConfig::inflight_window); fsync
// drains the window, which is free when nothing is outstanding. All other
// files go to the disaggregated file
// system: writes are buffered and fsync pays the dfs cost. The §6 extension
// (kFineGrained) splits writes within a single file by size: small writes
// are journaled in NCL, large writes go straight to the dfs, and recovery
// replays the journal over the dfs image.
#ifndef SRC_SPLITFT_SPLIT_FS_H_
#define SRC_SPLITFT_SPLIT_FS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/annotations.h"
#include "src/common/shared_bytes.h"
#include "src/common/status.h"
#include "src/controller/controller.h"
#include "src/dfs/dfs.h"
#include "src/ncl/ncl_client.h"
#include "src/ncl/peer_directory.h"
#include "src/obs/obs.h"
#include "src/rdma/fabric.h"

namespace splitft {

// Open flags (the interesting subset of the POSIX surface).
struct SplitOpenOptions {
  bool create = true;
  // The paper's O_NCL: this file receives small synchronous writes and is
  // made fault tolerant by the near-compute log layer.
  bool oncl = false;
  // §6 extension: route writes within this file by size.
  bool fine_grained = false;
  uint64_t small_write_threshold = 4096;
  // Content capacity for NCL-backed files (apps configure log sizes).
  uint64_t ncl_capacity = 0;  // 0: NclConfig::default_capacity
  bool direct_io = false;     // dfs reads bypass the page cache
};

// Durability-barrier variants of SplitFile::Sync.
struct SyncOptions {
  // Bulk background flush (compaction/checkpoint writes): occupies the
  // storage backend but does not block the caller's clock.
  bool background = false;
  // Group-commit barrier: starts the flush and reports the virtual time at
  // which it becomes durable without blocking the caller.
  bool deferred = false;
};

// Uniform file handle over the three backends.
class SplitFile {
 public:
  virtual ~SplitFile() = default;

  virtual Status Append(std::string_view data) = 0;
  // Owned append: hands `data`'s buffer to the backend. A dfs-backed file
  // keeps it instead of copying it (DfsFile::Append); NCL-backed files copy
  // it into their log buffer, as the view overload does.
  Status Append(std::string&& data) { return AppendOwned(std::move(data)); }
  // String literals take the view overload.
  Status Append(const char* data) { return Append(std::string_view(data)); }
  virtual Status WriteAt(uint64_t offset, std::string_view data) = 0;
  // Durability barrier. For NCL-backed files this drains the append
  // window — free when every posted append already committed. Returns the
  // virtual time at which the data is durable for deferred syncs; blocking
  // and background syncs return 0 (durable — or queued — by the time the
  // call returns).
  virtual Result<SimTime> Sync(const SyncOptions& options) = 0;

  // The blocking durability barrier, Sync(SyncOptions{}): returns once the
  // data is durable. Background and deferred syncs pass SyncOptions.
  Status Sync() { return Sync(SyncOptions{}).status(); }

  // The bytes come back as a slice that may alias the backend's buffer
  // (DfsFile::Read, NclFile::Read); holding it keeps them alive.
  virtual Result<SharedBytes> Read(uint64_t offset, uint64_t len) = 0;
  // Background-IO read (compaction inputs): remote fetches occupy the
  // storage backend but do not block the caller. Default: normal Read.
  virtual Result<SharedBytes> ReadBackground(uint64_t offset, uint64_t len) {
    return Read(offset, len);
  }
  virtual uint64_t Size() const = 0;
  virtual const std::string& path() const SPLITFT_LIFETIMEBOUND = 0;
  // True when the file is NCL-backed (diagnostics/Table 2).
  virtual bool ncl_backed() const = 0;

 protected:
  // The owned append's backend hook; the default copies.
  virtual Status AppendOwned(std::string&& data) {
    return Append(std::string_view(data));
  }
};

class SplitFs {
 public:
  // The caller keeps ownership of the infrastructure objects; `ncl_config`
  // carries the application identity and failure budget. `obs` wires the
  // facade (and the NclClient it owns) into the shared registry/tracer:
  // "splitfs.route.*" counters record where each open/write was routed.
  SplitFs(NclConfig ncl_config, DfsClient* dfs, Fabric* fabric,
          Controller* controller, PeerDirectory* directory, NodeId app_node,
          ObsContext obs = {});
  ~SplitFs();

  // Acquires the single-instance server lease (§4.7). Returns kAborted if
  // another live instance of this application holds it.
  Status Start();

  // Cooperative lease handover (planned reconfiguration): transfers the
  // single-instance lease to a successor session on the controller without
  // waiting for expiry, then adopts the successor session as this
  // instance's own — modeling the restarted process inheriting the lease
  // with zero unleased window. kFailedPrecondition if no lease is held.
  Status HandOverLease();

  // The current lease session (kNoSession when not started).
  SessionId lease() const { return lease_; }

  Result<std::unique_ptr<SplitFile>> Open(const std::string& path,
                                          const SplitOpenOptions& options);

  Status Unlink(const std::string& path);
  bool Exists(const std::string& path);

  // Models this application-server process crashing: the dfs page cache and
  // dirty buffers are dropped and the controller lease is released. All
  // open SplitFile handles become invalid (behaviour inherited from the
  // backends).
  void SimulateCrash();

  NclClient* ncl() { return ncl_.get(); }
  DfsClient* dfs() { return dfs_; }
  // The observability handle applications should use for their own spans
  // and counters ("app.*" keys).
  const ObsContext& obs() const SPLITFT_LIFETIMEBOUND { return obs_; }

 private:
  std::unique_ptr<NclClient> ncl_;
  DfsClient* dfs_;
  Controller* controller_;
  SessionId lease_ = kNoSession;

  ObsContext obs_;
  Counter* c_ncl_opens_;
  Counter* c_dfs_opens_;
  Counter* c_fine_grained_opens_;
  Counter* c_small_writes_;
  Counter* c_large_writes_;
};

}  // namespace splitft

#endif  // SRC_SPLITFT_SPLIT_FS_H_
