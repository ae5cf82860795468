// Testbed: assembles the full simulated cluster (fabric, controller, log
// peers, dfs) and application servers on top of it. Shared by the benches
// and the examples so every experiment runs against the same environment
// the paper's CloudLab testbed provides.
#ifndef SRC_HARNESS_TESTBED_H_
#define SRC_HARNESS_TESTBED_H_

#include <memory>
#include <string>
#include <vector>

#include "src/apps/kvstore/kv_store.h"
#include "src/apps/redis/redis.h"
#include "src/apps/sqlitelite/sqlite_lite.h"
#include "src/apps/storage_app.h"
#include "src/chaos/chaos_engine.h"
#include "src/controller/controller.h"
#include "src/dfs/dfs.h"
#include "src/ncl/connection_pool.h"
#include "src/ncl/ncl_client.h"
#include "src/ncl/peer.h"
#include "src/ncl/peer_directory.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/rdma/fabric.h"
#include "src/sim/params.h"
#include "src/sim/simulation.h"
#include "src/splitft/split_fs.h"

namespace splitft {

struct TestbedOptions {
  int num_peers = 4;
  // Enables the sim-time span tracer. Counters/histograms are always on
  // (they are cheap); span collection is opt-in so perf experiments can
  // verify the zero-overhead-when-disabled guarantee.
  bool tracing = false;
  SimParams params = {};
};

// Per-server construction knobs for Testbed::MakeServer. C++20 designated
// initializers keep call sites self-describing:
//   testbed.MakeServer("app", {.ncl_capacity = 1 << 20,
//                              .ncl = {.inflight_window = 1}});
struct ServerOptions {
  DurabilityMode mode = DurabilityMode::kSplitFt;
  // Content capacity for NCL-backed files created by this server.
  uint64_t ncl_capacity = 64ull << 20;
  // The server's NCL client settings (src/ncl/ncl_client.h). MakeServer
  // overrides three: app_id becomes its app_id argument, default_capacity
  // becomes ncl_capacity, and with ec_enabled, fault_budget becomes ec.m
  // (EC tolerates exactly m shard losses).
  NclConfig ncl = {};
};

// One application-server process: its dfs mount, SplitFs instance, and the
// application running on it. Crash/restart cycles replace `fs` and `app`
// but keep the identity (app_id) so recovery finds the state.
struct AppServer {
  std::string app_id;
  std::unique_ptr<DfsClient> dfs;
  std::unique_ptr<SplitFs> fs;
  std::unique_ptr<StorageApp> app;
  // Outcome of SplitFs::Start at MakeServer time. Non-OK means the server
  // came up without the single-instance lease (e.g. kAborted because
  // another live instance of app_id holds it) — callers that rely on the
  // lease must check this instead of assuming construction succeeded.
  Status start_status;
};

class Testbed {
 public:
  explicit Testbed(TestbedOptions options = {});
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  Simulation* sim() { return &sim_; }
  const SimParams& params() const { return options_.params; }
  // The shared observability handle every layer was constructed with. All
  // metrics land in one registry keyed "layer.component.metric", the
  // DiscardStatus counts of this testbed's components included; spans (if
  // options.tracing) land in one tracer. Testbeds share no state, so they
  // may end in any order or run on separate threads.
  const ObsContext& obs() const { return obs_; }
  MetricsRegistry* metrics() { return &metrics_; }
  Tracer* tracer() { return &tracer_; }
  Fabric* fabric() { return &fabric_; }
  Controller* controller() { return &controller_; }
  DfsCluster* dfs_cluster() { return &cluster_; }
  PeerDirectory* directory() { return &directory_; }
  // Bounds-checked index accessor: aborts on an out-of-range index instead
  // of walking off the peer vector.
  LogPeer* peer(int i);
  // The registered peer named `name` ("peer-<i>"), or nullptr when absent.
  LogPeer* peer_by_name(const std::string& name);
  int num_peers() const { return static_cast<int>(peers_.size()); }
  NodeId app_node() const { return app_node_; }
  // A ChaosEngine's handles on this cluster: everything but the
  // application server, which callers set (fs, ncl, extra_ncl) when their
  // plan holds drains or lease handovers.
  ChaosTargets chaos_targets();

  // The testbed-owned connection pool rooted at app_node(), constructed
  // lazily on first use. Servers built with `.ncl = {.pool = shared_pool()}`
  // multiplex their peer QPs and share its in-flight budget — the
  // multi-tenant layout benched by fig14 (DESIGN.md §14).
  NclConnectionPool* shared_pool();

  // Builds a fresh application-server process (dfs mount + SplitFs) for
  // `app_id`. See ServerOptions for the knobs; the defaults reproduce the
  // historical single-tenant layout.
  std::unique_ptr<AppServer> MakeServer(const std::string& app_id,
                                        ServerOptions options = {});

  // App constructors on a server. The options' mode must match the server's.
  Result<std::unique_ptr<KvStore>> StartKvStore(AppServer* server,
                                                KvStoreOptions options);
  Result<std::unique_ptr<Redis>> StartRedis(AppServer* server,
                                            RedisOptions options);
  Result<std::unique_ptr<SqliteLite>> StartSqlite(AppServer* server,
                                                  SqliteLiteOptions options);

  // Crashes the server process (drops caches, releases the lease). The
  // caller must discard `server->app` and rebuild via MakeServer + Start*.
  void CrashServer(AppServer* server);

  // Bulk-loads `n` records through the app (the YCSB load phase).
  static Status LoadRecords(StorageApp* app, uint64_t n, uint64_t seed = 1);

 private:
  TestbedOptions options_;
  Simulation sim_;
  MetricsRegistry metrics_;
  Tracer tracer_;
  ObsContext obs_;
  Fabric fabric_;
  Controller controller_;
  DfsCluster cluster_;
  PeerDirectory directory_;
  std::vector<std::unique_ptr<LogPeer>> peers_;
  NodeId app_node_;
  // Lazily built by shared_pool(); declared after fabric_ (it posts on the
  // fabric) and destroyed before it. Servers drawing from the pool must be
  // destroyed before the testbed, which every stack-ordered test already
  // guarantees.
  std::unique_ptr<NclConnectionPool> shared_pool_;
};

}  // namespace splitft

#endif  // SRC_HARNESS_TESTBED_H_
