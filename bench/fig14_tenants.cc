// Figure 14: multi-tenant pooled NCL fabric (DESIGN.md §14).
//
// Sweeps the number of SplitFs/NCL tenants sharing one node's
// NclConnectionPool against a fixed set of log peers and reports the
// per-tenant append latency distribution at each point. The paper's
// claim is that pooling keeps the fabric flat: QP state and the cold
// handshake cost are paid per (node, peer) lane — not per tenant — so
// appends at 10k tenants look like appends at 10.
//
// Invariants checked (non-zero exit on violation):
//   * append p99 at every sweep point stays within 1.5x of the
//     10-tenant point;
//   * open QPs stay bounded by qps_per_peer x peers (never scale with
//     tenant count) and peer slab occupancy stays flat per tenant;
//   * the chaos tail — crashing one pooled peer mid-run — drives a mass
//     re-registration storm in which every affected tenant replaces its
//     dead slot with zero lost acked appends and a bounded controller
//     RPC cost.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/histogram.h"
#include "src/harness/testbed.h"
#include "src/ncl/connection_pool.h"
#include "src/ncl/ncl_client.h"
#include "src/ncl/peer.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"

namespace {

using namespace splitft;  // NOLINT

constexpr int kNumPeers = 8;

struct Tenant {
  std::unique_ptr<NclClient> client;
  std::unique_ptr<NclFile> file;
  std::string oracle;
};

// Peer bytes one tenant's WAL pins under `config`'s redundancy: n regions
// of header + contents each — (2f+1) full replicas, or k+m shard regions
// of ShardCapacity each in EC mode. The flat-occupancy invariant below
// compares measured slab bytes/tenant against this, so the expectation
// tracks whatever redundancy the sweep point configured instead of
// hard-coding the 3x replication factor.
double ExpectedBytesPerTenant(const NclConfig& config) {
  NclGeometry geo = config.geometry();
  return static_cast<double>(geo.n()) *
         static_cast<double>(geo.SlotRegionBytes(config.default_capacity));
}

// Builds `n` tenants drawing QPs from the testbed's shared pool, each
// with a small NCL-backed WAL already holding `warm_appends` records.
bool MakeTenants(Testbed& testbed, int n, int warm_appends, bool ec,
                 std::vector<Tenant>* tenants, std::string* errors) {
  ObsContext obs{testbed.metrics(), nullptr};
  for (int i = 0; i < n; ++i) {
    NclConfig config;
    config.app_id = "tenant-" + std::to_string(i);
    config.default_capacity = 8 << 10;
    config.pool = testbed.shared_pool();
    if (ec) {
      config.ec_enabled = true;
      config.ec = EcGeometry{2, 2, 64};
      config.fault_budget = 2;
    }
    Tenant t;
    t.client = std::make_unique<NclClient>(config, testbed.fabric(),
                                           testbed.controller(),
                                           testbed.directory(),
                                           testbed.app_node(), obs);
    auto file = t.client->Create("wal");
    if (!file.ok()) {
      *errors += "tenant " + std::to_string(i) +
                 ": Create failed: " + file.status().ToString() + "\n";
      return false;
    }
    t.file = std::move(*file);
    for (int k = 0; k < warm_appends; ++k) {
      std::string rec = "w" + std::to_string(k) + ";";
      Status s = t.file->Append(rec);
      if (!s.ok()) {
        *errors += "tenant " + std::to_string(i) +
                   ": warm append failed: " + s.ToString() + "\n";
        return false;
      }
      t.oracle += rec;
    }
    tenants->push_back(std::move(t));
  }
  return true;
}

// One timed append per tenant, round-robin `rounds` times.
bool TimedAppends(Testbed& testbed, std::vector<Tenant>& tenants, int rounds,
                  const std::string& tag, Histogram* latency,
                  std::string* errors) {
  for (int k = 0; k < rounds; ++k) {
    for (size_t i = 0; i < tenants.size(); ++i) {
      std::string rec = tag + std::to_string(k) + ";";
      SimTime t0 = testbed.sim()->Now();
      Status s = tenants[i].file->Append(rec);
      if (!s.ok()) {
        *errors += "tenant " + std::to_string(i) + ": " + tag +
                   " append failed: " + s.ToString() + "\n";
        return false;
      }
      latency->Add(static_cast<int64_t>(testbed.sim()->Now() - t0));
      tenants[i].oracle += rec;
    }
  }
  return true;
}

// Peer slab occupancy summed across the fixed peer set.
int64_t TotalSlabUsed(Testbed& testbed) {
  int64_t used = 0;
  for (int i = 0; i < testbed.num_peers(); ++i) {
    const Gauge* g = testbed.metrics()->FindGauge(
        "ncl.peer." + testbed.peer(i)->name() + ".slab_used_bytes");
    if (g != nullptr) {
      used += g->value();
    }
  }
  return used;
}

}  // namespace

int main() {
  bench::Reporter reporter("fig14_tenants");
  bench::Title(
      "Figure 14: tenant scaling on a pooled NCL fabric (" +
      std::to_string(kNumPeers) + " peers, shared QP lanes + windows)");

  std::string errors;

  // ------------------------------------------------------ tenant sweep --
  // Full mode walks 10 -> 10k tenants; smoke keeps the shape (three
  // points, two decades apart in spirit) at CI-friendly sizes.
  std::vector<int> sweep = reporter.smoke()
                               ? std::vector<int>{10, 50, 200}
                               : std::vector<int>{10, 100, 1000, 10000};
  const int rounds = static_cast<int>(reporter.Iters(8, 4));

  // Replication tenants and erasure-coded tenants (k=2+m=2 shard regions,
  // DESIGN.md §16) sweep the same points; per-tenant expectations are
  // derived from each mode's configured redundancy.
  for (bool ec : {false, true}) {
    const std::string mode = ec ? "ec" : "replication";
    const std::string prefix = ec ? "ec_tenants_" : "tenants_";
    double p99_base_us = 0;
    double bytes_per_tenant_base = 0;
    bench::Rule();
    std::printf("[%s]\n%10s %12s %12s %10s %14s\n", mode.c_str(), "tenants",
                "p50_us", "p99_us", "open_qps", "bytes/tenant");
    for (int n : sweep) {
      TestbedOptions options;
      options.num_peers = kNumPeers;
      Testbed testbed(options);

      std::vector<Tenant> tenants;
      tenants.reserve(n);
      if (!MakeTenants(testbed, n, /*warm_appends=*/2, ec, &tenants,
                       &errors)) {
        break;
      }
      Histogram latency;
      if (!TimedAppends(testbed, tenants, rounds, "s", &latency, &errors)) {
        break;
      }

      double p50_us = latency.P50() * 1e-3;
      double p99_us = latency.P99() * 1e-3;
      size_t open_qps = testbed.shared_pool()->open_qps();
      double bytes_per_tenant =
          static_cast<double>(TotalSlabUsed(testbed)) / n;
      std::printf("%10d %12.2f %12.2f %10zu %14.0f\n", n, p50_us, p99_us,
                  open_qps, bytes_per_tenant);

      reporter.AddSeries(prefix + std::to_string(n), "us")
          .FromHistogram(latency, 1e-3)
          .Scalar("tenants", n)
          .Scalar("open_qps", static_cast<double>(open_qps))
          .Scalar("slab_bytes_per_tenant", bytes_per_tenant);

      // Invariant: QP state is per-lane, never per-tenant.
      size_t max_qps = static_cast<size_t>(
          testbed.shared_pool()->options().qps_per_peer * kNumPeers);
      if (open_qps > max_qps) {
        errors += mode + " tenants=" + std::to_string(n) + ": open_qps " +
                  std::to_string(open_qps) + " exceeds lane bound " +
                  std::to_string(max_qps) + "\n";
      }
      // Invariant: slab bytes/tenant match the configured redundancy (no
      // fragmentation or over-reservation at any density).
      double expected = ExpectedBytesPerTenant(tenants.front().client->config());
      if (bytes_per_tenant > 1.05 * expected) {
        errors += mode + " tenants=" + std::to_string(n) +
                  ": slab bytes/tenant " + std::to_string(bytes_per_tenant) +
                  " exceeds the configured redundancy (" +
                  std::to_string(expected) + ")\n";
      }
      if (n == sweep.front()) {
        p99_base_us = p99_us;
        bytes_per_tenant_base = bytes_per_tenant;
      } else {
        // Invariant: the append tail does not grow with tenant count.
        if (p99_us > 1.5 * p99_base_us) {
          errors += mode + " tenants=" + std::to_string(n) +
                    ": append p99 " + std::to_string(p99_us) +
                    "us exceeds 1.5x the " + std::to_string(sweep.front()) +
                    "-tenant point (" + std::to_string(p99_base_us) +
                    "us)\n";
        }
        // Invariant: peer occupancy is flat per tenant as density grows.
        if (bytes_per_tenant > 1.25 * bytes_per_tenant_base) {
          errors += mode + " tenants=" + std::to_string(n) +
                    ": slab bytes/tenant " +
                    std::to_string(bytes_per_tenant) +
                    " exceeds 1.25x the baseline (" +
                    std::to_string(bytes_per_tenant_base) + ")\n";
        }
      }
    }
  }

  // ------------------------------------- mass re-registration storm --
  // Crash one pooled peer with every tenant resident: all tenants whose
  // WAL had a slot there must replace it concurrently. Acked appends
  // survive, the controller sees a bounded per-tenant RPC cost, and the
  // post-storm append tail is reported as its own series.
  const int storm_tenants = static_cast<int>(reporter.Iters(1000, 50));
  {
    TestbedOptions options;
    options.num_peers = kNumPeers;
    Testbed testbed(options);

    std::vector<Tenant> tenants;
    tenants.reserve(storm_tenants);
    Histogram pre_crash;
    Histogram post_crash;
    if (MakeTenants(testbed, storm_tenants, /*warm_appends=*/2, /*ec=*/false,
                    &tenants, &errors) &&
        TimedAppends(testbed, tenants, 2, "pre", &pre_crash, &errors)) {
      uint64_t rpcs_before = testbed.controller()->rpc_count();
      testbed.peer(0)->Crash();
      if (TimedAppends(testbed, tenants, 2, "post", &post_crash, &errors)) {
        // Zero lost acked appends: every tenant's full history reads
        // back; every tenant resident on the dead peer replaced exactly
        // one slot.
        int replaced = 0;
        for (size_t i = 0; i < tenants.size(); ++i) {
          auto contents =
              tenants[i].file->Read(0, tenants[i].file->size());
          if (!contents.ok() || *contents != tenants[i].oracle) {
            errors += "tenant " + std::to_string(i) +
                      ": lost acked appends after the storm\n";
            break;
          }
          replaced += tenants[i].client->peers_replaced();
        }
        uint64_t retries =
            testbed.metrics()->CounterValue("ncl.client.controller_rpc_retries");
        uint64_t rpc_delta = testbed.controller()->rpc_count() - rpcs_before;
        if (replaced == 0) {
          errors += "storm: peer crash replaced no slots (storm never "
                    "happened?)\n";
        }
        if (retries != 0) {
          errors += "storm: " + std::to_string(retries) +
                    " controller RPC retries against a healthy controller\n";
        }
        // Bounded storm: a small constant RPC cost per affected tenant
        // plus the appends themselves — not a stampede that grows with
        // pool occupancy.
        uint64_t rpc_bound =
            static_cast<uint64_t>(replaced) * 8 +
            static_cast<uint64_t>(storm_tenants) * 4;
        if (rpc_delta > rpc_bound) {
          errors += "storm: controller RPC delta " +
                    std::to_string(rpc_delta) + " exceeds bound " +
                    std::to_string(rpc_bound) + "\n";
        }
        std::printf("storm: %d tenants, %d slots replaced, %" PRIu64
                    " controller RPCs, post-crash p99 %.2fus\n",
                    storm_tenants, replaced, rpc_delta,
                    post_crash.P99() * 1e-3);
        reporter.AddSeries("storm_pre_crash", "us")
            .FromHistogram(pre_crash, 1e-3)
            .Scalar("tenants", storm_tenants);
        reporter.AddSeries("storm_post_crash", "us")
            .FromHistogram(post_crash, 1e-3)
            .Scalar("tenants", storm_tenants)
            .Scalar("slots_replaced", replaced)
            .Scalar("controller_rpcs", static_cast<double>(rpc_delta));
      }
    }
    reporter.SetMetricsJson(testbed.metrics()->ToJson());
  }

  if (!errors.empty()) {
    std::fprintf(stderr, "INVARIANT FAILURES:\n%s", errors.c_str());
    return 1;
  }
  bench::Note(
      "Pooling keeps the fabric flat: lanes and cold handshakes are per "
      "(node, peer), windows carve from one shared budget, and a pooled "
      "peer crash is absorbed as one bounded re-registration storm.");
  return reporter.WriteJson() ? 0 : 1;
}
