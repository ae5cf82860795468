// Figure 13 — Planned Failover & Live Reconfiguration Under Traffic.
//
// RocksDB-mini in SplitFT with f=1 (3 of 6 peers) runs a write-only
// workload while a planned-reconfiguration script executes against the
// live cluster, one operation per phase:
//
//   baseline    no operation (the reference p99)
//   drain       drain the peer hosting the WAL region: allocations avoid
//               it, the region migrates off via the epoch-fenced snapshot
//               copy + suffix catch-up + ap-map cutover
//   handover    cooperative single-instance lease transfer
//   dfs-roll    rolling restart of all striped dfs servers, one at a time
//   reactivate  end the drain; the peer accepts allocations again (checked
//               after the last phase with a direct allocation)
//
// Traffic must keep flowing through every phase (the paper's planned
// operations are invisible next to the unplanned-failure stalls of Fig 12);
// the bench emits a per-phase append-p99 timeline and asserts the per-peer
// drain gauges so a silent migration failure turns the run red.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/chaos/chaos_engine.h"
#include "src/chaos/fault_plan.h"
#include "src/harness/closed_loop.h"
#include "src/harness/testbed.h"

namespace {

splitft::FaultEvent Event(splitft::FaultKind kind, int peer, int server,
                          splitft::SimTime duration) {
  return {.kind = kind, .peer = peer, .duration = duration, .server = server};
}

}  // namespace

int main() {
  using namespace splitft;
  bench::Reporter reporter("fig13_reconfig");
  bench::Title("Figure 13: append p99 under planned reconfiguration");

  TestbedOptions testbed_options;
  testbed_options.num_peers = 6;  // 3 assigned + spares for migration
  // Striped, so dfs server restarts can roll.
  testbed_options.params.dfs.num_servers = 3;
  Testbed testbed(testbed_options);
  auto server = testbed.MakeServer("fig13", {.ncl_capacity = 64ull << 20});
  KvStoreOptions options;
  options.mode = DurabilityMode::kSplitFt;
  options.memtable_bytes = 8 << 20;
  options.wal_capacity = 64ull << 20;
  auto store = testbed.StartKvStore(server.get(), options);
  if (!store.ok()) {
    std::fprintf(stderr, "open failed\n");
    return 1;
  }
  CHECK_OK(Testbed::LoadRecords(store->get(), reporter.Iters(20000, 2000)));

  ChaosTargets targets = testbed.chaos_targets();
  targets.fs = server->fs.get();
  ChaosEngine engine(targets, testbed.obs());

  // The drain victim: the first peer with a resident region (the WAL
  // lives on it), read off the per-peer gauges the drain also updates.
  auto resident_gauge = [&](int i) -> const Gauge* {
    return testbed.metrics()->FindGauge("ncl.peer.peer-" + std::to_string(i) +
                                        ".regions_resident");
  };
  auto state_gauge = [&](int i) -> const Gauge* {
    return testbed.metrics()->FindGauge("ncl.peer.peer-" + std::to_string(i) +
                                        ".state");
  };
  int victim = -1;
  for (int i = 0; i < testbed.num_peers(); ++i) {
    const Gauge* g = resident_gauge(i);
    if (g != nullptr && g->value() > 0) {
      victim = i;
      break;
    }
  }
  if (victim < 0) {
    std::fprintf(stderr, "no peer holds a region after load\n");
    return 1;
  }
  SessionId lease_before = server->fs->lease();

  const SimTime phase_len = reporter.smoke() ? Millis(300) : Seconds(2);
  struct Phase {
    std::string name;
    std::function<void()> op;  // fired 20% into the phase (may be empty)
  };
  std::vector<Phase> phases;
  phases.push_back({"baseline", {}});
  phases.push_back({"drain", [&] {
                      engine.Inject(
                          Event(FaultKind::kPeerDrain, victim, -1, 0));
                    }});
  phases.push_back({"handover", [&] {
                      engine.Inject(
                          Event(FaultKind::kLeaseHandover, -1, -1, 0));
                    }});
  phases.push_back({"dfs-roll", [&] {
                      // One restart now; the rest chain as each completes
                      // (the engine enforces one-offline-at-a-time).
                      SimTime window = phase_len / 8;
                      SimTime gap = phase_len / 4;
                      for (int s = 0; s < testbed.dfs_cluster()->num_servers();
                           ++s) {
                        // deeplint: allow(dangling-capture) fires inside harness.Run(), in main's frame
                        testbed.sim()->Schedule(s * gap, [&engine, s, window] {
                          engine.Inject(Event(FaultKind::kDfsRestart, -1, s,
                                              window));
                        });
                      }
                    }});
  phases.push_back({"reactivate", [&] {
                      engine.Inject(
                          Event(FaultKind::kPeerActivate, victim, -1, 0));
                    }});

  std::printf("\n  %-12s %10s %12s %12s %12s\n", "phase", "ops", "tput KOps/s",
              "p50 us", "p99 us");
  bench::Rule();
  Histogram p99_timeline;
  bool traffic_gap = false;
  // Read when the drain phase ends: a later phase may legitimately place a
  // new region on the re-activated peer.
  int64_t resident_after_drain = -1;
  for (const Phase& phase : phases) {
    if (phase.op) {
      testbed.sim()->Schedule(phase_len / 5, phase.op);
    }
    YcsbWorkload workload(YcsbWorkloadKind::kWriteOnly,
                          reporter.Iters(20000, 2000), 42);
    HarnessOptions harness_options;
    harness_options.num_clients = 12;
    harness_options.target_ops = 100000000;  // run to the duration limit
    harness_options.max_duration = phase_len;
    ClosedLoopHarness harness(testbed.sim(), store->get(), &workload,
                              harness_options);
    HarnessResult result = harness.Run();
    double p50_us = result.latency.P50() / 1e3;
    double p99_us = result.latency.P99() / 1e3;
    std::printf("  %-12s %10llu %12.1f %12.1f %12.1f\n", phase.name.c_str(),
                static_cast<unsigned long long>(result.ops),
                result.throughput_kops, p50_us, p99_us);
    p99_timeline.Add(static_cast<int64_t>(result.latency.P99()));
    if (result.ops == 0) {
      traffic_gap = true;
    }
    if (phase.name == "drain") {
      const Gauge* g = resident_gauge(victim);
      resident_after_drain = g != nullptr ? g->value() : -1;
    }
    reporter.AddSeries("phase_" + phase.name, "us")
        .FromHistogram(result.latency, 1e-3)
        .Scalar("ops", static_cast<double>(result.ops))
        .Scalar("tput_kops", result.throughput_kops);
  }
  bench::Rule();
  // The registry as the phases left it, before the reactivate probe below
  // touches the victim's gauges.
  std::string metrics_json = testbed.metrics()->ToJson();

  // The planned operations all landed, under traffic, without failures.
  std::string errors;
  if (traffic_gap) {
    errors += "  a phase completed zero ops: traffic stalled\n";
  }
  if (engine.ops_failed() != 0) {
    errors += "  planned operations failed:\n";
    for (const std::string& line : engine.log()) {
      errors += "    " + line + "\n";
    }
  }
  // Drain satellite: the victim migrated its region off while DRAINING,
  // and the reactivate phase returned it to ACTIVE.
  if (server->fs->ncl()->regions_migrated() < 1) {
    errors += "  drain completed without migrating any region\n";
  }
  const Gauge* vstate = state_gauge(victim);
  if (vstate == nullptr ||
      vstate->value() != static_cast<int64_t>(LogPeerState::kActive)) {
    errors += "  victim peer not back to ACTIVE after reactivate\n";
  }
  // ... and it takes placements again: a direct allocation is granted and
  // released. Probed after the last phase, so no series moves.
  LogPeer* victim_peer = testbed.peer(victim);
  if (!victim_peer->Allocate("fig13-probe", "reactivate", 4096, 0).ok() ||
      !victim_peer->Release("fig13-probe", "reactivate").ok()) {
    errors += "  victim peer refused an allocation after reactivate\n";
  }
  if (resident_after_drain != 0) {
    errors += "  victim peer still holds regions after the drain\n";
  }
  if (server->fs->lease() == lease_before) {
    errors += "  lease handover did not change the lease session\n";
  }
  if (testbed.dfs_cluster()->offline_server() >= 0) {
    errors += "  a dfs server is still offline after the rolling restart\n";
  }
  if (!errors.empty()) {
    std::fprintf(stderr, "fig13 invariants failed:\n%s", errors.c_str());
    return 1;
  }

  std::printf("  planned ops: %d completed, %d skipped; regions migrated: %d; "
              "dfs restarts: %llu\n",
              engine.ops_completed(), engine.ops_skipped(),
              server->fs->ncl()->regions_migrated(),
              static_cast<unsigned long long>(testbed.metrics()->CounterValue(
                  "dfs.cluster.server_restarts")));
  reporter.AddSeries("append_p99_timeline", "us")
      .FromHistogram(p99_timeline, 1e-3)
      .Scalar("reconfig_ops_completed", engine.ops_completed())
      .Scalar("reconfig_ops_skipped", engine.ops_skipped())
      .Scalar("regions_migrated", server->fs->ncl()->regions_migrated())
      .Scalar("dfs_server_restarts",
              static_cast<double>(testbed.metrics()->CounterValue(
                  "dfs.cluster.server_restarts")));
  reporter.SetMetricsJson(std::move(metrics_json));
  bench::Note("planned operations ride the traffic: the drain's cutover "
              "window is bounded by suffix catch-up, so p99 stays near the "
              "baseline (contrast with Fig 12's quorum-loss stalls)");
  return reporter.WriteJson() ? 0 : 1;
}
