// Simulated disaggregated file system (CephFS-like).
//
// Semantics modeled (the ones the paper's evaluation depends on):
//   * POSIX-style buffered writes: write() lands in the client's page cache
//     and is cheap; durability requires fsync, which pushes the dirty bytes
//     to the replicated storage backend with a high fixed latency plus a
//     bandwidth term (calibrated to Fig 1d);
//   * crash consistency: on an application-server crash, everything up to
//     the last successful fsync survives; dirty data is lost;
//   * a striped multi-server backend: file bytes map deterministically to
//     stripes spread over DfsParams::num_servers object servers, each with
//     its own bandwidth pipe. Every backend charge (fsync, background
//     flush, read, restart replay) is one fan-out of per-server transfer
//     legs in parallel (completion = max over the touched servers);
//     foreground fsyncs still queue behind in-flight background bulk
//     writes *on the pipes they share* (this is what makes weak-mode
//     applications suffer write stalls that SplitFT avoids, §5.2). A
//     one-server cluster is a one-leg fan-out whose leg base is the
//     calibrated single-pipe latency (DESIGN.md §10);
//   * client-side page cache with sequential readahead, plus a direct-IO
//     mode that bypasses it (Fig 11a);
//   * a background flusher that periodically syncs dirty files, which is
//     what gives weak-mode applications their "eventually durable" shape.
#ifndef SRC_DFS_DFS_H_
#define SRC_DFS_DFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/io_trace.h"
#include "src/common/shared_bytes.h"
#include "src/common/status.h"
#include "src/obs/obs.h"
#include "src/sim/params.h"
#include "src/sim/simulation.h"

namespace splitft {

class DfsClient;
class DfsFile;

// The disaggregated storage service: namespace + durable file contents +
// one bandwidth pipe per object server (DfsParams::num_servers).
class DfsCluster {
 public:
  // Registry keys: "dfs.*" counters/histograms, per-server
  // "dfs.server.<i>.*" counters, plus the "dfs.write" / "dfs.fsync" /
  // "dfs.read" trace spans (and async "dfs.server.<i>.{write,read}" spans
  // for striped transfer legs). With a null ObsContext the cluster owns a
  // private registry so the counters stay the bookkeeping source of truth
  // (spans stay disabled).
  DfsCluster(Simulation* sim, const SimParams* params, ObsContext obs = {});

  Simulation* sim() const { return sim_; }
  const SimParams& params() const { return *params_; }
  const ObsContext& obs() const SPLITFT_LIFETIMEBOUND { return obs_; }
  int num_servers() const { return num_servers_; }

  // Optional sink receiving one event per serviced write/delete.
  void set_trace(IoTraceSink* trace) { trace_ = trace; }

  // Total bytes pushed to the backend / fsyncs serviced since
  // construction. Reads of the obs counters (the single source of truth).
  uint64_t bytes_written() const { return c_bytes_written_->value(); }
  uint64_t sync_ops() const { return c_sync_ops_->value(); }

  // When the backend drains (max over the per-server pipes); applications
  // use this to model write stalls (waiting for in-flight background
  // flushes/compactions).
  SimTime pipe_busy_until() const;
  // One server's pipe horizon (tests / diagnostics).
  SimTime server_busy_until(int server) const { return pipe_busy_[server]; }

  // ---- Rolling server restart (planned reconfiguration) -------------------

  // Takes one striped object server offline for a planned restart: FanOut
  // reroutes its stripe shares to the next online server and accrues a
  // write-replay backlog for the absent one. Only one server may be
  // offline at a time (the "rolling" guarantee) and a one-server cluster
  // has no server to spare — both are kFailedPrecondition.
  Status TakeServerOffline(int server);
  // Returns the server to service and replays its accrued write backlog as
  // a background transfer on its own pipe.
  Status BringServerOnline(int server);
  // The currently offline server, or -1.
  int offline_server() const { return offline_server_; }
  // Write bytes awaiting replay on an offline server (tests/diagnostics).
  uint64_t replay_backlog(int server) const { return replay_backlog_[server]; }

 private:
  friend class DfsClient;
  friend class DfsFile;

  // Durable bytes. Reads that touch no dirty range alias them; a later
  // sync copies them first only while such a read is still held.
  struct DurableFile {
    CowBuffer content;
  };

  // Adds the byte range's per-server stripe shares into `shares`
  // (size num_servers_).
  void AddStripeShares(uint64_t offset, uint64_t len,
                       std::vector<uint64_t>* shares) const;

  // What one fan-out costs: the client pays `client_base` once, then each
  // touched server's leg occupies its pipe for
  // server_base + share / bytes_per_ns.
  struct TransferCost {
    SimTime client_base = 0;
    SimTime server_base = 0;
    double bytes_per_ns = 1.0;
  };

  // The only path to the backend pipes: fans the per-server transfer legs
  // of `shares` (size num_servers_) out in parallel. A leg starts at
  // max(now + client_base, its pipe's horizon); completion is the max leg
  // completion, and foreground ops advance the clock to it (background
  // ops only extend the horizons). `ideal_ns`, if non-null, receives the
  // queue-free duration (client_base + longest leg) so callers can split
  // wait from transfer. `is_write` routes the per-server byte counters and
  // span names. Returns the completion time.
  SimTime FanOut(const std::vector<uint64_t>& shares, const TransferCost& cost,
                 bool foreground, bool is_write, SimTime* ideal_ns = nullptr);

  Simulation* sim_;
  const SimParams* params_;
  int num_servers_;
  uint64_t stripe_size_;
  std::map<std::string, DurableFile> files_;
  std::vector<SimTime> pipe_busy_;  // one horizon per server
  // Per-operation costs, chosen once from num_servers_: a one-server
  // cluster charges the calibrated single-pipe bases with no client share.
  TransferCost write_cost_;
  TransferCost read_cost_;
  // Rolling-restart state: at most one server offline, with the write
  // bytes it missed (replayed on return) tracked per server.
  int offline_server_ = -1;
  std::vector<uint64_t> replay_backlog_;
  IoTraceSink* trace_ = nullptr;

  // Owns the registry when constructed without one, so the obs counters
  // can be the only bookkeeping (no shadow members).
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  ObsContext obs_;
  Counter* c_bytes_written_;
  Counter* c_sync_ops_;
  Counter* c_writes_;
  Counter* c_write_bytes_;
  Counter* c_fsyncs_;
  Counter* c_background_syncs_;
  Counter* c_reads_;
  Counter* c_readahead_hits_;
  Counter* c_readahead_misses_;
  Counter* c_direct_reads_;
  Counter* c_background_flush_bytes_;
  // Rolling-restart accounting: bytes rerouted around an offline server,
  // bytes replayed when it returned, and completed restart cycles.
  Counter* c_rerouted_bytes_;
  Counter* c_replayed_bytes_;
  Counter* c_server_restarts_;
  Histogram* h_fsync_ns_;
  // Pipe-wait vs transfer split of each fsync's latency, so stall time is
  // attributable in bench JSON (wait = completion - now - queue-free
  // duration; xfer = the queue-free duration).
  Histogram* h_fsync_wait_ns_;
  Histogram* h_fsync_xfer_ns_;
  // Per-server instruments ("dfs.server.<i>.*"), indexed by server.
  std::vector<Counter*> c_server_bytes_written_;
  std::vector<Counter*> c_server_bytes_read_;
  std::vector<Counter*> c_server_ops_;
  std::vector<std::string> server_write_span_;  // "dfs.server.<i>.write"
  std::vector<std::string> server_read_span_;   // "dfs.server.<i>.read"
};

struct DfsOpenOptions {
  bool create = true;
  // Bypass the client page cache on reads (Fig 11a "DFS direct IO").
  bool direct_io = false;
};

// A mounted client on one application server. Holds the page cache and the
// dirty (not yet fsynced) write buffers. One client per app-server process.
class DfsClient {
 public:
  DfsClient(DfsCluster* cluster, std::string name);

  Result<std::unique_ptr<DfsFile>> Open(const std::string& path,
                                        const DfsOpenOptions& options = {});

  bool Exists(const std::string& path) const;
  Status Unlink(const std::string& path);
  Status Rename(const std::string& from, const std::string& to);
  // All durable paths with the given prefix, sorted.
  std::vector<std::string> List(const std::string& prefix) const;

  // Models the application server crashing: all dirty buffers and the page
  // cache are dropped. Open DfsFile handles become unusable.
  void SimulateCrash();

  // Flushes every dirty file as a *background* operation (the OS flusher /
  // periodic sync used by weak-mode applications). Returns bytes flushed.
  uint64_t BackgroundFlushAll();

  // Schedules BackgroundFlushAll every params.dfs.flush_interval.
  void StartPeriodicFlusher();
  void StopPeriodicFlusher() { flusher_running_ = false; }

  DfsCluster* cluster() const { return cluster_; }
  const std::string& name() const SPLITFT_LIFETIMEBOUND { return name_; }

 private:
  friend class DfsFile;

  struct FileState {
    // Dirty byte ranges: offset -> data, merged opportunistically.
    std::map<uint64_t, std::string> dirty;
    uint64_t dirty_bytes = 0;
    // Page-cache: indexes of cached readahead windows.
    std::set<uint64_t> cached_windows;
    uint64_t open_handles = 0;
    bool deleted = false;
  };

  FileState& GetState(const std::string& path);
  // Applies `st`'s dirty ranges to `content`, clears them, and charges the
  // write to the servers whose stripes they touch. A range at offset 0 of
  // an empty file becomes the content without a copy, unless its string's
  // spare capacity exceeds an eighth of its size. Returns the time the
  // write is durable; *ideal gets its queue-free duration. Sets
  // *overwrote (nullable) when a range rewrote existing bytes.
  SimTime FlushDirty(FileState* st, CowBuffer* content, bool foreground,
                     SimTime* ideal = nullptr, bool* overwrote = nullptr);

  DfsCluster* cluster_;
  std::string name_;
  std::map<std::string, FileState> states_;
  bool crashed_ = false;
  bool flusher_running_ = false;
  uint64_t epoch_ = 0;  // bumped on crash so stale handles fail
};

// An open file. All writes are buffered until Sync().
class DfsFile {
 public:
  // Appends at the current logical end (durable size + pending writes).
  Status Append(std::string_view data);
  // Owned append: when `data` starts a dirty range, its buffer becomes that
  // range instead of being copied, and a sync of an empty file adopts it as
  // the file's content (DESIGN.md §10). Charged and counted as the view
  // overload is.
  Status Append(std::string&& data);
  // String literals take the view overload.
  Status Append(const char* data) { return Append(std::string_view(data)); }
  // Positional write (pwrite).
  Status Write(uint64_t offset, std::string_view data);
  // Pushes all dirty bytes for this file to the backend.
  //   foreground=true: the caller blocks (virtual clock advances);
  //   foreground=false: a background bulk write (compaction/checkpoint).
  Status Sync(bool foreground = true);
  // Group-commit variant: starts the flush and returns the virtual time at
  // which it becomes durable, without blocking the caller. Used by the
  // harness to overlap the commit pipeline with read service.
  Result<SimTime> SyncDeferred();
  // Reads [offset, offset+len) from the file (durable + dirty view).
  // Charges cached/remote/direct-IO latency per the page-cache state. A
  // range no dirty range overlaps aliases the durable bytes, which the
  // slice keeps alive across later writes, syncs and unlinks; one that
  // overlaps a dirty range is an owned overlay.
  Result<SharedBytes> Read(uint64_t offset, uint64_t len);
  // Background variant (compaction inputs): remote fetches occupy the
  // backend pipe but do not block the caller's clock.
  Result<SharedBytes> ReadBackground(uint64_t offset, uint64_t len);

  // Logical size including unflushed writes.
  uint64_t Size() const;
  uint64_t DirtyBytes() const;
  const std::string& path() const SPLITFT_LIFETIMEBOUND { return path_; }

 private:
  friend class DfsClient;
  DfsFile(DfsClient* client, std::string path, bool direct_io, uint64_t epoch);

  Status CheckUsable() const;
  // The one write body: `owned`, when non-null, holds `data`'s bytes and
  // may be moved into a new dirty range.
  Status WriteRange(uint64_t offset, std::string_view data,
                    std::string* owned);
  Status SyncInternal(bool foreground, SimTime* done_at);
  Result<SharedBytes> ReadInternal(uint64_t offset, uint64_t len,
                                   bool foreground);

  DfsClient* client_;
  std::string path_;
  bool direct_io_;
  uint64_t epoch_;
};

}  // namespace splitft

#endif  // SRC_DFS_DFS_H_
