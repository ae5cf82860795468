#include "src/chaos/campaign.h"

#include <algorithm>
#include <memory>
#include <string>

#include "src/chaos/chaos_engine.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/controller/controller.h"
#include "src/ncl/connection_pool.h"
#include "src/ncl/ncl_client.h"
#include "src/ncl/peer.h"
#include "src/ncl/peer_directory.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/rdma/fabric.h"
#include "src/sim/params.h"
#include "src/sim/simulation.h"

namespace splitft {

namespace {

constexpr char kFileName[] = "chaos-wal";

// One run's cluster, torn down and rebuilt per seed so runs are independent.
// The per-run MetricsRegistry is the source of truth for client fault
// counters ("ncl.client.*"); both the workload client and the recovery
// client land in it, and the campaign rolls it into CampaignStats.
struct MiniCluster {
  explicit MiniCluster(const CampaignOptions& options) {
    params.rdma.unreachable_retry_timeout = options.nic_retry_window;
    fabric = std::make_unique<Fabric>(&sim, &params);
    controller = std::make_unique<Controller>(&sim, &params);
    for (int i = 0; i < options.num_peers; ++i) {
      peers.push_back(std::make_unique<LogPeer>(
          "peer-" + std::to_string(i), fabric.get(), controller.get(),
          options.peer_memory));
      // No faults are active during cluster construction; a Start failure
      // here would silently shrink every schedule's peer pool.
      CHECK_OK(peers.back()->Start());
      directory.Register(peers.back().get());
    }
    app_node = fabric->AddNode("chaos-app");
    // Both the workload client and the post-crash recovery client draw
    // their QPs from one node-rooted pool (DESIGN.md §14), so every
    // campaign seed exercises the pooled fabric: shared lanes, collateral
    // flush rewrites under faults, and warm reconnects during recovery.
    pool = std::make_unique<NclConnectionPool>(fabric.get(), app_node,
                                               NclPoolOptions{}, Obs());
  }

  ChaosTargets Targets() {
    ChaosTargets t;
    t.sim = &sim;
    t.fabric = fabric.get();
    t.controller = controller.get();
    t.directory = &directory;
    for (auto& p : peers) {
      t.peers.push_back(p.get());
    }
    t.app_node = app_node;
    return t;
  }

  ObsContext Obs() { return ObsContext{&metrics, nullptr}; }

  Simulation sim;
  SimParams params;
  MetricsRegistry metrics;
  std::unique_ptr<Fabric> fabric;
  std::unique_ptr<Controller> controller;
  PeerDirectory directory;
  std::vector<std::unique_ptr<LogPeer>> peers;
  NodeId app_node = kInvalidNode;
  std::unique_ptr<NclConnectionPool> pool;
};

NclConfig MakeConfig(const CampaignOptions& options, uint64_t rng_seed) {
  NclConfig config;
  config.app_id = "chaos";
  config.fault_budget = options.fault_budget;
  config.default_capacity = options.capacity;
  config.retry = options.retry;
  config.rng_seed = rng_seed;
  if (options.with_ec) {
    config.ec_enabled = true;
    config.ec = options.ec;
    config.fault_budget = static_cast<int>(options.ec.m);
  }
  return config;
}

// Faulty members the run may absorb before unavailability is justified:
// f under replication, the m parity shards under EC.
int FaultBudget(const CampaignOptions& options) {
  return options.with_ec ? static_cast<int>(options.ec.m)
                         : options.fault_budget;
}

// Holders that make a recovery failure a violation: f+1 replicas suffice
// to recover, k shard streams do under EC.
int RecoverableHolders(const CampaignOptions& options) {
  return options.with_ec ? static_cast<int>(options.ec.k)
                         : options.fault_budget + 1;
}

void AddViolation(CampaignResult* result, uint64_t seed,
                  const std::string& invariant, const std::string& detail,
                  const std::string& schedule) {
  CampaignViolation v;
  v.seed = seed;
  v.invariant = invariant;
  v.detail = detail;
  v.schedule = schedule;
  result->violations.push_back(std::move(v));
}

// Counts current file members that are faulty right now or were ever the
// target of a fault this run. "Ever faulted" avoids a false positive when
// a transient fault heals between the demotion it caused and this check.
int CountFaultyMembers(const MiniCluster& cluster, const ChaosEngine& engine,
                       const std::vector<std::string>& members) {
  int faulty = 0;
  for (const std::string& name : members) {
    if (engine.faulted_peers().count(name) > 0) {
      faulty++;
      continue;
    }
    LogPeer* peer = cluster.directory.Lookup(name);
    if (peer == nullptr || !peer->alive() ||
        cluster.fabric->IsPartitioned(cluster.app_node, peer->node())) {
      faulty++;
    }
  }
  return faulty;
}

// Snapshot of the run registry's "ncl.client.*" fault counters. Taken
// before and after a phase so the delta attributes counts to that phase
// (the registry aggregates every client in the run).
struct ClientCounters {
  uint64_t suspect_retries = 0;
  uint64_t transient_recoveries = 0;
  uint64_t suffix_reposts = 0;
  uint64_t permanent_demotions = 0;
  uint64_t controller_rpc_retries = 0;
  uint64_t directory_lookup_retries = 0;
  uint64_t release_failures = 0;
  uint64_t ec_repairs = 0;
};

ClientCounters ReadClientCounters(const MetricsRegistry& metrics) {
  ClientCounters c;
  c.suspect_retries = metrics.CounterValue("ncl.client.suspect_retries");
  c.transient_recoveries =
      metrics.CounterValue("ncl.client.transient_recoveries");
  c.suffix_reposts = metrics.CounterValue("ncl.client.suffix_reposts");
  c.permanent_demotions =
      metrics.CounterValue("ncl.client.permanent_demotions");
  c.controller_rpc_retries =
      metrics.CounterValue("ncl.client.controller_rpc_retries");
  c.directory_lookup_retries =
      metrics.CounterValue("ncl.client.directory_lookup_retries");
  c.release_failures = metrics.CounterValue("ncl.client.release_failures");
  c.ec_repairs = metrics.CounterValue("ncl.ec.repairs");
  return c;
}

void Accumulate(CampaignStats* stats, const ClientCounters& now,
                const ClientCounters& base = {}) {
  stats->suspect_retries += now.suspect_retries - base.suspect_retries;
  stats->transient_recoveries +=
      now.transient_recoveries - base.transient_recoveries;
  stats->suffix_reposts += now.suffix_reposts - base.suffix_reposts;
  stats->permanent_demotions +=
      now.permanent_demotions - base.permanent_demotions;
  stats->controller_rpc_retries +=
      now.controller_rpc_retries - base.controller_rpc_retries;
  stats->directory_lookup_retries +=
      now.directory_lookup_retries - base.directory_lookup_retries;
  stats->release_failures += now.release_failures - base.release_failures;
  stats->ec_repairs += now.ec_repairs - base.ec_repairs;
}

}  // namespace

void RunChaosSchedule(uint64_t seed, const CampaignOptions& options,
                      CampaignResult* result) {
  MiniCluster cluster(options);
  RandomPlanOptions plan_options = options.plan;
  plan_options.num_peers = options.num_peers;
  if (seed % 4 == 0) {
    // Every fourth schedule is crash-heavy so quorum loss, replacement
    // exhaustion, and justified unavailability get exercised, not just the
    // transient faults the retry policy absorbs.
    plan_options.num_events += 4;
    plan_options.crash_weight = 4;
  }
  FaultPlan plan = FaultPlan::Random(seed, plan_options);
  std::string schedule = plan.Describe();

  // The planned-reconfiguration schedule composing with the faults: drains
  // (with live region migration off the drained peer) and re-activations,
  // derived from the same seed so a violating run reproduces both halves.
  // Its events follow the faults in the one plan the engine schedules.
  if (options.with_reconfig) {
    ReconfigPlanOptions rp = options.reconfig_plan;
    rp.num_peers = options.num_peers;
    rp.horizon = plan_options.horizon;
    rp.lease_handover = false;  // raw NclClient: no SplitFs lease to move
    rp.num_dfs_servers = 0;     // no dfs in the mini-cluster
    FaultPlan planned = FaultPlan::RandomReconfig(seed ^ 0x9e3c0f15ull, rp);
    schedule += "  planned:\n" + planned.Describe();
    for (const FaultEvent& ev : planned.events()) {
      plan.Add(ev);
    }
  }

  result->stats.runs++;
  NclConfig workload_config = MakeConfig(options, seed * 2654435761ull + 1);
  workload_config.pool = cluster.pool.get();
  NclClient client(workload_config, cluster.fabric.get(),
                   cluster.controller.get(), &cluster.directory,
                   cluster.app_node, cluster.Obs());
  auto file = client.Create(kFileName);
  if (!file.ok()) {
    AddViolation(result, seed, "setup",
                 "Create failed before any fault: " +
                     file.status().ToString(),
                 schedule);
    return;
  }

  // Unleash the schedule and drive the append workload across it.
  ChaosTargets targets = cluster.Targets();
  targets.ncl = &client;
  ChaosEngine engine(std::move(targets));
  engine.Schedule(plan);
  Rng workload_rng(seed ^ 0x3c0ad5ull);
  std::string shadow;        // every append applied locally (the oracle)
  uint64_t acked_len = 0;    // durable prefix: through the last OK append
  SimTime gap = plan_options.horizon /
                std::max(1, options.appends_per_run);
  for (int k = 0; k < options.appends_per_run; ++k) {
    uint64_t len = workload_rng.UniformRange(1, options.max_append_bytes);
    if (shadow.size() + len > options.capacity) {
      break;
    }
    std::string payload(len, static_cast<char>('a' + (k % 26)));
    shadow.append(payload);

    SimTime t0 = cluster.sim.Now();
    Status st = (*file)->Append(payload);
    if (cluster.sim.Now() - t0 > options.max_stall) {
      AddViolation(result, seed, "liveness",
                   "append " + std::to_string(k) + " stalled for " +
                       std::to_string((cluster.sim.Now() - t0) / 1000000) +
                       "ms",
                   schedule);
      return;
    }
    if (st.ok()) {
      acked_len = shadow.size();
      result->stats.appends_acked++;
      cluster.sim.RunUntil(cluster.sim.Now() + gap);
      continue;
    }
    result->stats.append_failures++;
    if (st.code() == StatusCode::kUnavailable) {
      // Invariant 3: unavailability must be backed by > f faulty members.
      int faulty =
          CountFaultyMembers(cluster, engine, (*file)->peer_names());
      if (faulty <= FaultBudget(options)) {
        AddViolation(result, seed, "fault-budget",
                     "append failed kUnavailable with only " +
                         std::to_string(faulty) + " faulty member(s)",
                     schedule);
        return;
      }
    } else {
      AddViolation(result, seed, "liveness",
                   "append " + std::to_string(k) +
                       " failed: " + st.ToString(),
                   schedule);
      return;
    }
    break;
  }
  result->stats.faults_injected += engine.faults_injected();
  result->stats.peers_replaced += client.peers_replaced();
  result->stats.regions_migrated += client.regions_migrated();
  ClientCounters workload_counters = ReadClientCounters(cluster.metrics);
  Accumulate(&result->stats, workload_counters);

  // Crash the application: drop the file handle without releasing anything,
  // retire planned operations and transient faults (crashed peers stay
  // crashed), and recover with a fresh client.
  file->reset();
  result->stats.reconfig_ops_completed += engine.ops_completed();
  result->stats.reconfig_ops_skipped += engine.ops_skipped();
  engine.Quiesce();
  NclConfig recovery_config = MakeConfig(options, seed * 2654435761ull + 2);
  recovery_config.pool = cluster.pool.get();
  NclClient fresh(recovery_config, cluster.fabric.get(),
                  cluster.controller.get(), &cluster.directory,
                  cluster.app_node, cluster.Obs());
  auto recovered_file = fresh.Recover(kFileName);
  if (!recovered_file.ok()) {
    result->stats.recoveries_unavailable++;
    // Unavailability is justified only when fewer than f+1 of the recorded
    // members still hold the region.
    auto apmap = cluster.controller->GetApMap("chaos", kFileName);
    int holders = 0;
    if (apmap.ok()) {
      for (const std::string& name : apmap->peers) {
        LogPeer* peer = cluster.directory.Lookup(name);
        if (peer != nullptr && peer->alive() &&
            peer->LookupForRecovery("chaos", kFileName).ok()) {
          holders++;
        }
      }
    }
    if (holders >= RecoverableHolders(options)) {
      AddViolation(result, seed, "availability",
                   "recovery failed (" + recovered_file.status().ToString() +
                       ") although " + std::to_string(holders) +
                       " members still hold the region",
                   schedule);
    }
    return;
  }
  result->stats.recoveries_ok++;

  // Invariants 1 + 2: the recovered contents cover every acknowledged byte
  // and match the shadow oracle bytewise.
  NclFile* rec = recovered_file->get();
  auto contents = rec->Read(0, rec->size());
  if (!contents.ok()) {
    AddViolation(result, seed, "oracle",
                 "recovered read failed: " + contents.status().ToString(),
                 schedule);
    return;
  }
  if (contents->size() < acked_len) {
    AddViolation(result, seed, "durability",
                 "acknowledged write lost: recovered " +
                     std::to_string(contents->size()) + " bytes, " +
                     std::to_string(acked_len) + " were acknowledged",
                 schedule);
    return;
  }
  if (contents->size() > shadow.size() ||
      shadow.compare(0, contents->size(), *contents) != 0) {
    AddViolation(result, seed, "oracle",
                 "recovered " + std::to_string(contents->size()) +
                     " bytes do not match the shadow oracle prefix",
                 schedule);
    return;
  }
  // Liveness after recovery: the file must accept writes again.
  Status post = rec->Append("post-recovery");
  if (!post.ok()) {
    AddViolation(result, seed, "liveness",
                 "post-recovery append failed: " + post.ToString(), schedule);
    return;
  }
  // Exercise the release path. Failures are expected when peers stayed
  // crashed; "ncl.client.release_failures" counts them and the delta
  // accumulation below rolls them into the campaign stats.
  DiscardStatus(cluster.Obs(), rec->Delete(),
                "chaos campaign post-recovery delete");
  result->stats.peers_replaced += fresh.peers_replaced();
  Accumulate(&result->stats, ReadClientCounters(cluster.metrics),
             workload_counters);
}

CampaignResult RunChaosCampaign(const CampaignOptions& options) {
  CampaignResult result;
  if (auto seed = options.seed_from_env ? SeedFromEnv() : std::nullopt) {
    LOG_INFO << "chaos campaign: SPLITFT_SEED=" << *seed
             << " — running only that schedule";
    RunChaosSchedule(*seed, options, &result);
    for (const CampaignViolation& v : result.violations) {
      LOG_ERROR << "chaos violation [" << v.invariant << "] seed=" << v.seed
                << ": " << v.detail << "\nschedule:\n"
                << v.schedule;
    }
    return result;
  }
  for (int k = 0; k < options.runs; ++k) {
    RunChaosSchedule(options.base_seed + static_cast<uint64_t>(k), options,
                     &result);
  }
  for (const CampaignViolation& v : result.violations) {
    LOG_ERROR << "chaos violation [" << v.invariant << "] seed=" << v.seed
              << ": " << v.detail
              << "\nreproduce with SPLITFT_SEED=" << v.seed
              << "\nschedule:\n" << v.schedule;
  }
  return result;
}

}  // namespace splitft
