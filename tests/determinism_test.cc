// Byte-for-byte determinism of the observability exports: two
// identically-seeded runs of the same chaos-laced workload must produce
// identical metrics JSON and identical trace buffers. The 200-seed chaos
// campaign and the checked-in bench baselines are only meaningful because
// this property holds; tools/simlint.py is the static half of the same
// contract (no wall clocks, no raw randomness, no unordered iteration
// feeding output).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "src/chaos/chaos_engine.h"
#include "src/chaos/fault_plan.h"
#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/harness/testbed.h"

namespace splitft {
namespace {

// Serializes every completed span plus the per-name aggregates. Any
// nondeterminism in event order, timing, or naming shows up as a byte
// difference.
std::string TraceDump(const Tracer& tracer) {
  std::string out;
  char buf[256];
  for (const SpanEvent& ev : tracer.events()) {
    std::snprintf(buf, sizeof(buf), "%s %" PRId64 "-%" PRId64 " d%u%s\n",
                  ev.name.c_str(), ev.start, ev.end, ev.depth,
                  ev.async ? " async" : "");
    out += buf;
  }
  for (const auto& [name, stats] : tracer.aggregates()) {
    std::snprintf(buf, sizeof(buf),
                  "agg %s count=%" PRIu64 " total=%" PRId64 " self=%" PRId64
                  "\n",
                  name.c_str(), stats.count, stats.total, stats.self);
    out += buf;
  }
  return out;
}

struct RunArtifacts {
  std::string metrics_json;
  std::string trace;
};

RunArtifacts RunSeededChaosScenario(uint64_t seed, bool ec = false) {
  TestbedOptions options;
  options.tracing = true;
  if (ec) {
    options.num_peers = 6;  // k+m members + spares for repair churn
  }
  Testbed testbed(options);
  ServerOptions server_options;
  server_options.ncl_ec = ec;
  auto server = testbed.MakeServer("det-app", server_options);
  CHECK_OK(server->start_status);
  SplitOpenOptions opts;
  opts.oncl = true;
  opts.ncl_capacity = 4 << 20;
  auto file = server->fs->Open("/det-wal", opts);
  CHECK_OK(file.status());

  ChaosTargets targets;
  targets.sim = testbed.sim();
  targets.fabric = testbed.fabric();
  targets.controller = testbed.controller();
  targets.directory = testbed.directory();
  for (int i = 0; i < testbed.num_peers(); ++i) {
    targets.peers.push_back(testbed.peer(i));
  }
  targets.app_node = testbed.app_node();
  ChaosEngine engine(std::move(targets));

  RandomPlanOptions plan_options;
  plan_options.num_peers = testbed.num_peers();
  engine.Schedule(FaultPlan::Random(seed, plan_options));

  Rng rng(seed ^ 0xdecafull);
  for (int k = 0; k < 120; ++k) {
    std::string payload(rng.UniformRange(1, 256),
                        static_cast<char>('a' + (k % 26)));
    // Failures under injected faults are part of the scenario.
    DiscardStatus((*file)->Append(payload), "determinism append");
    if (k % 16 == 15) {
      DiscardStatus((*file)->Sync(), "determinism sync");
    }
    testbed.sim()->RunUntil(testbed.sim()->Now() + Millis(2));
  }
  engine.HealAll();

  RunArtifacts out;
  out.metrics_json = testbed.metrics()->ToJson();
  out.trace = TraceDump(*testbed.tracer());
  return out;
}

TEST(DeterminismTest, SeededChaosRunExportsAreByteForByteIdentical) {
  RunArtifacts a = RunSeededChaosScenario(1234);
  RunArtifacts b = RunSeededChaosScenario(1234);
  ASSERT_FALSE(a.metrics_json.empty());
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(DeterminismTest, EcSeededChaosRunExportsAreByteForByteIdentical) {
  // The EC data path adds per-append shard encoding, per-slot shard
  // headers, and background repair; all of it must stay on the virtual
  // clock and deterministic iteration orders.
  RunArtifacts a = RunSeededChaosScenario(1234, /*ec=*/true);
  RunArtifacts b = RunSeededChaosScenario(1234, /*ec=*/true);
  ASSERT_FALSE(a.metrics_json.empty());
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace, b.trace);
  // And EC must actually have been exercised, not silently disabled.
  RunArtifacts plain = RunSeededChaosScenario(1234, /*ec=*/false);
  EXPECT_NE(a.metrics_json, plain.metrics_json);
}

TEST(DeterminismTest, DifferentSeedsActuallyDiverge) {
  // Guards against the equality above passing vacuously (e.g. both runs
  // exporting empty registries).
  RunArtifacts a = RunSeededChaosScenario(1234);
  RunArtifacts c = RunSeededChaosScenario(4321);
  EXPECT_NE(a.metrics_json, c.metrics_json);
}

// The calendar-queue scheduler's cursor crosses a bucket boundary every
// 1024 virtual ns and wraps the whole 4096-bucket ring every ~4.2 ms. A
// 2 ms-stepped, multi-millisecond chaos scenario (above) already rolls the
// wheel over dozens of times; this variant pins the workload's own append
// cadence to exact bucket-boundary timestamps so rollover handling itself
// is inside the byte-compared window.
RunArtifacts RunBucketBoundaryScenario(uint64_t seed) {
  TestbedOptions options;
  options.tracing = true;
  Testbed testbed(options);
  auto server = testbed.MakeServer("det-roll");
  CHECK_OK(server->start_status);
  SplitOpenOptions opts;
  opts.oncl = true;
  opts.ncl_capacity = 4 << 20;
  auto file = server->fs->Open("/det-roll-wal", opts);
  CHECK_OK(file.status());

  constexpr SimTime kBucket = sim_internal::EventQueue::kBucketWidth;
  constexpr SimTime kHorizon = sim_internal::EventQueue::kHorizon;
  Simulation* sim = testbed.sim();
  Rng rng(seed);
  for (int k = 0; k < 40; ++k) {
    std::string payload(rng.UniformRange(1, 128),
                        static_cast<char>('a' + (k % 26)));
    DiscardStatus((*file)->Append(payload), "rollover append");
    // Step exactly to the next bucket edge, to one edge ± 1, or clear past
    // the full wheel horizon (forcing overflow migration + cursor sync).
    SimTime now = sim->Now();
    SimTime next_edge = (now / kBucket + 1) * kBucket;
    switch (k % 4) {
      case 0:
        sim->RunUntil(next_edge);
        break;
      case 1:
        sim->RunUntil(next_edge - 1);
        break;
      case 2:
        sim->RunUntil(next_edge + 1);
        break;
      default:
        sim->RunUntil(now + kHorizon + kBucket + 3);
        break;
    }
  }

  RunArtifacts out;
  out.metrics_json = testbed.metrics()->ToJson();
  out.trace = TraceDump(*testbed.tracer());
  return out;
}

TEST(DeterminismTest, BucketBoundaryRolloversAreByteForByteIdentical) {
  RunArtifacts a = RunBucketBoundaryScenario(77);
  RunArtifacts b = RunBucketBoundaryScenario(77);
  ASSERT_FALSE(a.metrics_json.empty());
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace, b.trace);
}

uint32_t Digest(const RunArtifacts& run) {
  return Crc32c(run.metrics_json + run.trace);
}

// Cross-commit behaviour pin. The tests above only compare a run with
// itself, so a refactor that changes protocol behaviour would still pass
// them; these digests were recorded before such refactors and must stay
// put across them. A deliberate protocol change (new WR shapes, recovery
// rule, timing model, metric or span names) updates the values here and
// says why in CHANGES.md.
TEST(DeterminismTest, ExportsMatchPinnedDigests) {
  EXPECT_EQ(Digest(RunSeededChaosScenario(1234)), 0xbd7c8487u);
  EXPECT_EQ(Digest(RunSeededChaosScenario(1234, /*ec=*/true)), 0x6f1c6dd1u);
  EXPECT_EQ(Digest(RunBucketBoundaryScenario(77)), 0x973b53c2u);
}

}  // namespace
}  // namespace splitft
