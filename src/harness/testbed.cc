#include "src/harness/testbed.h"

#include "src/common/logging.h"
#include "src/workload/ycsb.h"

namespace splitft {

// Spare memory each log peer lends to the pool.
constexpr uint64_t kPeerLendBytes = 4ull << 30;

Testbed::Testbed(TestbedOptions options)
    : options_(std::move(options)),
      tracer_(&sim_, options_.tracing),
      obs_{&metrics_, &tracer_},
      fabric_(&sim_, &options_.params, obs_),
      controller_(&sim_, &options_.params, obs_),
      cluster_(&sim_, &options_.params, obs_) {
  // DiscardStatus counts into obs_; the export lists both counters even
  // when nothing was discarded.
  metrics_.counter("common.status.discards");
  metrics_.counter("common.status.discards_nonok");
  app_node_ = fabric_.AddNode("app-server");
  for (int i = 0; i < options_.num_peers; ++i) {
    auto peer = std::make_unique<LogPeer>("peer-" + std::to_string(i),
                                          &fabric_, &controller_,
                                          kPeerLendBytes, obs_);
    // A fresh peer registering with a healthy controller cannot fail; a
    // failure here would silently shrink the cluster under every test.
    CHECK_OK(peer->Start());
    directory_.Register(peer.get());
    peers_.push_back(std::move(peer));
  }
}

Testbed::~Testbed() = default;

LogPeer* Testbed::peer(int i) {
  if (i < 0 || i >= static_cast<int>(peers_.size())) {
    CHECK_OK(InvalidArgumentError("peer index " + std::to_string(i) +
                                  " out of range (testbed has " +
                                  std::to_string(peers_.size()) + " peers)"));
  }
  return peers_[i].get();
}

LogPeer* Testbed::peer_by_name(const std::string& name) {
  for (const auto& peer : peers_) {
    if (peer->name() == name) {
      return peer.get();
    }
  }
  return nullptr;
}

ChaosTargets Testbed::chaos_targets() {
  ChaosTargets targets;
  targets.sim = &sim_;
  targets.fabric = &fabric_;
  targets.controller = &controller_;
  targets.directory = &directory_;
  for (const auto& peer : peers_) {
    targets.peers.push_back(peer.get());
  }
  targets.app_node = app_node_;
  targets.dfs = &cluster_;
  return targets;
}

NclConnectionPool* Testbed::shared_pool() {
  if (shared_pool_ == nullptr) {
    shared_pool_ = std::make_unique<NclConnectionPool>(&fabric_, app_node_,
                                                       NclPoolOptions{}, obs_);
  }
  return shared_pool_.get();
}

std::unique_ptr<AppServer> Testbed::MakeServer(const std::string& app_id,
                                               ServerOptions options) {
  auto server = std::make_unique<AppServer>();
  server->app_id = app_id;
  server->dfs = std::make_unique<DfsClient>(&cluster_, app_id);
  options.ncl.app_id = app_id;
  options.ncl.default_capacity = options.ncl_capacity;
  if (options.ncl.ec_enabled) {
    options.ncl.fault_budget = static_cast<int>(options.ncl.ec.m);
  }
  server->fs = std::make_unique<SplitFs>(
      std::move(options.ncl), server->dfs.get(), &fabric_, &controller_,
      &directory_, app_node_, obs_);
  // Surfaced, not dropped: a failed Start (lease conflict, controller
  // outage) used to be silently ignored here, letting a second instance of
  // an app run leaseless. Callers check start_status when they care.
  server->start_status = server->fs->Start();
  if (!server->start_status.ok()) {
    LOG_WARNING << "MakeServer(" << app_id << "): SplitFs::Start failed: "
                << server->start_status.ToString();
  }
  if (options.mode == DurabilityMode::kWeak) {
    // Weak mode relies on the OS flusher for eventual durability.
    server->dfs->StartPeriodicFlusher();
  }
  return server;
}

Result<std::unique_ptr<KvStore>> Testbed::StartKvStore(
    AppServer* server, KvStoreOptions options) {
  return KvStore::Open(server->fs.get(), &sim_, &options_.params,
                       std::move(options));
}

Result<std::unique_ptr<Redis>> Testbed::StartRedis(AppServer* server,
                                                   RedisOptions options) {
  return Redis::Open(server->fs.get(), &sim_, &options_.params,
                     std::move(options));
}

Result<std::unique_ptr<SqliteLite>> Testbed::StartSqlite(
    AppServer* server, SqliteLiteOptions options) {
  return SqliteLite::Open(server->fs.get(), &sim_, &options_.params,
                          std::move(options));
}

void Testbed::CrashServer(AppServer* server) {
  server->app.reset();
  server->fs->SimulateCrash();
}

Status Testbed::LoadRecords(StorageApp* app, uint64_t n, uint64_t seed) {
  YcsbWorkload loader(YcsbWorkloadKind::kWriteOnly, n, seed);
  const uint64_t kChunk = 128;
  std::vector<KvWrite> batch;
  batch.reserve(kChunk);
  for (uint64_t id = 0; id < n; ++id) {
    batch.push_back(KvWrite{YcsbWorkload::KeyFor(id), loader.ValueFor(id)});
    if (batch.size() == kChunk || id + 1 == n) {
      RETURN_IF_ERROR(app->ApplyWriteBatch(batch));
      batch.clear();
    }
  }
  return OkStatus();
}

}  // namespace splitft
