// Byte-for-byte determinism of the observability exports: two
// identically-seeded runs of the same chaos-laced workload must produce
// identical metrics JSON and identical trace buffers. The 200-seed chaos
// campaign and the checked-in bench baselines are only meaningful because
// this property holds; tools/deeplint is the static half of the same
// contract (no wall clocks, no raw randomness, no unordered iteration
// feeding output).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/chaos/chaos_engine.h"
#include "src/chaos/fault_plan.h"
#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/harness/closed_loop.h"
#include "src/harness/testbed.h"
#include "src/ncl/ncl_client.h"

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
  auto server = testbed.MakeServer("det-app", {.ncl = {.ec_enabled = ec}});
  CHECK_OK(server->start_status);
  SplitOpenOptions opts;
  opts.oncl = true;
  opts.ncl_capacity = 4 << 20;
  auto file = server->fs->Open("/det-wal", opts);
  CHECK_OK(file.status());

  ChaosEngine engine(testbed.chaos_targets());
  RandomPlanOptions plan_options;
  plan_options.num_peers = testbed.num_peers();
  engine.Schedule(FaultPlan::Random(seed, plan_options));

  Rng rng(seed ^ 0xdecafull);
  for (int k = 0; k < 120; ++k) {
    std::string payload(rng.UniformRange(1, 256),
                        static_cast<char>('a' + (k % 26)));
    // Failures under injected faults are part of the scenario.
    DiscardStatus(testbed.obs(), (*file)->Append(payload),
                  "determinism append");
    if (k % 16 == 15) {
      DiscardStatus(testbed.obs(), (*file)->Sync(), "determinism sync");
    }
    testbed.sim()->RunUntil(testbed.sim()->Now() + Millis(2));
  }
  engine.Quiesce();

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

// Faults and planned operations on one timeline: a seeded fault plan and a
// seeded planned plan (drains, re-activations, lease handovers, restarts
// of a striped dfs) run against one server's NCL WAL and dfs data file.
// Then every planned operation is retired, every transient fault healed,
// and the server crashes and recovers its WAL. The digest covers the
// recovered bytes, the exports and the final virtual time, but not the
// engine's log text.
struct MixedRun {
  RunArtifacts artifacts;
  std::string recovered;
  SimTime end = 0;
  int faults_injected = 0;
  int planned_completed = 0;
};

MixedRun RunSeededMixedScenario(uint64_t seed) {
  TestbedOptions options;
  options.tracing = true;
  options.num_peers = 6;  // 3 assigned + spares for drains and replacement
  options.params.dfs.num_servers = 3;
  Testbed testbed(options);
  auto server = testbed.MakeServer("det-mixed");
  CHECK_OK(server->start_status);
  SplitOpenOptions wal_opts;
  wal_opts.oncl = true;
  wal_opts.ncl_capacity = 4 << 20;
  auto wal = server->fs->Open("/det-mixed-wal", wal_opts);
  CHECK_OK(wal.status());
  auto data = server->fs->Open("/det-mixed-data", SplitOpenOptions{});
  CHECK_OK(data.status());

  ChaosTargets targets = testbed.chaos_targets();
  targets.fs = server->fs.get();
  ChaosEngine engine(std::move(targets), testbed.obs());
  RandomPlanOptions plan_options;
  plan_options.num_peers = testbed.num_peers();
  ReconfigPlanOptions planned_options;
  planned_options.num_events = 8;
  planned_options.num_peers = testbed.num_peers();
  planned_options.num_dfs_servers = options.params.dfs.num_servers;
  FaultPlan plan = FaultPlan::Random(seed, plan_options);
  const FaultPlan planned =
      FaultPlan::RandomReconfig(seed ^ 0x9e3c0f15ull, planned_options);
  for (const FaultEvent& ev : planned.events()) {
    plan.Add(ev);
  }
  engine.Schedule(plan);

  Rng rng(seed ^ 0x3ed5ull);
  for (int k = 0; k < 120; ++k) {
    std::string payload(rng.UniformRange(1, 256),
                        static_cast<char>('a' + (k % 26)));
    DiscardStatus(testbed.obs(), (*wal)->Append(payload), "mixed append");
    if (k % 4 == 3) {
      DiscardStatus(testbed.obs(), (*data)->Append(std::string(4096, 'd')),
                    "mixed data append");
      DiscardStatus(testbed.obs(), (*data)->Sync(), "mixed data sync");
    }
    testbed.sim()->RunUntil(testbed.sim()->Now() + Millis(2));
  }
  engine.Quiesce();

  MixedRun out;
  out.faults_injected = engine.faults_injected();
  out.planned_completed = engine.ops_completed();
  wal->reset();
  data->reset();
  testbed.CrashServer(server.get());
  server.reset();
  testbed.sim()->RunUntilIdle();
  server = testbed.MakeServer("det-mixed");
  CHECK_OK(server->start_status);
  auto recovered = server->fs->Open("/det-mixed-wal", wal_opts);
  CHECK_OK(recovered.status());
  auto bytes = (*recovered)->Read(0, (*recovered)->Size());
  CHECK_OK(bytes.status());
  out.recovered = std::string(*bytes);
  out.end = testbed.sim()->Now();
  out.artifacts.metrics_json = testbed.metrics()->ToJson();
  out.artifacts.trace = TraceDump(*testbed.tracer());
  return out;
}

TEST(DeterminismTest, SeededMixedRunExportsAreByteForByteIdentical) {
  MixedRun a = RunSeededMixedScenario(4);
  MixedRun b = RunSeededMixedScenario(4);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.artifacts.metrics_json, b.artifacts.metrics_json);
  EXPECT_EQ(a.artifacts.trace, b.artifacts.trace);
  // Both halves of the schedule must actually have run.
  EXPECT_GT(a.faults_injected, 0);
  EXPECT_GT(a.planned_completed, 0);
  EXPECT_FALSE(a.recovered.empty());
}

// A variant whose append cadence is pinned to exact multiples of 1024
// virtual ns, to one either side, or clear past a ~4.2 ms horizon: the
// bucket edges and ring horizon of an earlier calendar-queue scheduler.
// The scheduler is one heap now and has no such edges; the scenario keeps
// its steps, so its pinned digest still covers RunUntil stops between
// appends and long idle jumps of the clock.
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

  constexpr SimTime kBucket = 1024;
  constexpr SimTime kHorizon = 4096 * kBucket;
  Simulation* sim = testbed.sim();
  Rng rng(seed);
  for (int k = 0; k < 40; ++k) {
    std::string payload(rng.UniformRange(1, 128),
                        static_cast<char>('a' + (k % 26)));
    DiscardStatus(testbed.obs(), (*file)->Append(payload),
                  "rollover append");
    // Step exactly to the next bucket edge, to one edge ± 1, or clear past
    // the whole horizon.
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

// The pooled multi-tenant fabric (DESIGN.md §14): ten NclClient tenants,
// alternately replicated and EC 2+2, share the testbed pool's lanes with
// append windows > 1. A peer crashes while every tenant has appends in
// flight toward it, so its shared lanes error, co-tenants' collateral
// flushes are rewritten and every resident tenant replaces its slot. The
// peer then restarts, and the second files placed on it repair its lanes.
struct PooledRun {
  RunArtifacts artifacts;
  uint64_t flush_rewrites = 0;
  uint64_t lane_repairs = 0;
};

PooledRun RunPooledTenantsScenario(uint64_t seed) {
  constexpr int kTenants = 10;
  TestbedOptions options;
  options.tracing = true;
  options.num_peers = 6;
  Testbed testbed(options);
  ObsContext obs{testbed.metrics(), testbed.tracer()};
  // Declared after the testbed, so destroyed before its pool.
  std::vector<std::unique_ptr<NclClient>> clients;
  std::vector<std::unique_ptr<NclFile>> files;
  auto create = [&](int i, const std::string& name) {
    auto file = clients[static_cast<size_t>(i)]->Create(name);
    CHECK_OK(file.status());
    files.push_back(std::move(*file));
  };
  for (int i = 0; i < kTenants; ++i) {
    NclConfig config;
    config.app_id = "det-tenant-" + std::to_string(i);
    config.default_capacity = 256 << 10;
    config.pool = testbed.shared_pool();
    if (i % 2 == 1) {
      config.ec_enabled = true;
      config.ec = EcGeometry{2, 2, 64};
      config.fault_budget = 2;
    }
    clients.push_back(std::make_unique<NclClient>(
        config, testbed.fabric(), testbed.controller(), testbed.directory(),
        testbed.app_node(), obs));
    create(i, "wal");
  }

  Rng rng(seed);
  // Round-robin bursts of AppendAsync across every open file, then a drain
  // of each: all files have WRs in flight on the shared lanes at once.
  auto round = [&](int crash_at) {
    for (size_t f = 0; f < files.size(); ++f) {
      for (int k = 0; k < 3; ++k) {
        std::string payload(rng.UniformRange(1, 200),
                            static_cast<char>('a' + (f + k) % 26));
        DiscardStatus(obs, files[f]->AppendAsync(payload), "pooled append");
      }
      if (static_cast<int>(f) == crash_at) {
        testbed.peer(0)->Crash();
      }
    }
    for (const auto& file : files) {
      DiscardStatus(obs, file->Drain(), "pooled drain");
    }
  };
  round(-1);
  round(kTenants / 2);
  round(-1);
  CHECK_OK(testbed.peer(0)->Restart());
  for (int i = 0; i < kTenants; i += 3) {
    create(i, "wal2");
  }
  round(-1);
  round(-1);

  PooledRun out;
  out.artifacts.metrics_json = testbed.metrics()->ToJson();
  out.artifacts.trace = TraceDump(*testbed.tracer());
  out.flush_rewrites = testbed.shared_pool()->flush_rewrites();
  out.lane_repairs = testbed.metrics()->CounterValue("ncl.pool.lane_repairs");
  return out;
}

TEST(DeterminismTest, PooledTenantsExportsAreByteForByteIdentical) {
  PooledRun a = RunPooledTenantsScenario(99);
  PooledRun b = RunPooledTenantsScenario(99);
  ASSERT_FALSE(a.artifacts.metrics_json.empty());
  EXPECT_EQ(a.artifacts.metrics_json, b.artifacts.metrics_json);
  EXPECT_EQ(a.artifacts.trace, b.artifacts.trace);
  // The scenario must reach the shared-lane failure paths it exists for.
  EXPECT_GT(a.flush_rewrites, 0u);
  EXPECT_GT(a.lane_repairs, 0u);
}

// rocksdb-mini end to end: a small store is loaded, has a
// few keys deleted and flushed (tombstones reach L0), then serves YCSB-A
// through the closed-loop harness across several memtable flushes and
// compactions, and finally crashes and recovers from its NCL WAL. The
// summary covers what the app decides on the virtual clock: the harness
// result, the block cache's hit/miss/eviction counts, a sample of
// recovered reads and the bytes of every sstable left on the dfs; the
// exports cover every layer below.
struct KvStoreRun {
  RunArtifacts artifacts;
  std::string summary;
  uint64_t sstable_writes = 0;
  uint64_t l1_tables = 0;
  uint64_t recovered_batches = 0;
};

__attribute__((format(printf, 2, 3))) void Appendf(std::string* out,
                                                   const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

KvStoreRun RunKvStoreScenario(uint64_t seed) {
  constexpr uint64_t kRecords = 2000;
  TestbedOptions options;
  options.tracing = true;
  Testbed testbed(options);
  KvStoreOptions kv_options;
  kv_options.memtable_bytes = 48 << 10;
  kv_options.block_cache_bytes = 64 << 10;  // ~25% of the dataset
  kv_options.l0_compaction_trigger = 3;
  kv_options.wal_capacity = 1 << 20;
  const ServerOptions server_options{.ncl_capacity = 1 << 20};
  KvStoreRun out;
  std::string* summary = &out.summary;

  auto server = testbed.MakeServer("det-kv", server_options);
  CHECK_OK(server->start_status);
  auto store = testbed.StartKvStore(server.get(), kv_options);
  CHECK_OK(store.status());
  KvStore* kv = store->get();
  server->app = std::move(*store);
  CHECK_OK(Testbed::LoadRecords(kv, kRecords, seed));
  // Tombstones for a spread of loaded keys, flushed into their own L0
  // table so a later compaction has to drop them.
  for (uint64_t id = 7; id < kRecords; id += 97) {
    CHECK_OK(kv->Delete(YcsbWorkload::KeyFor(id)));
  }
  CHECK_OK(kv->FlushMemtable());
  Appendf(summary, "after-deletes l0=%zu l1=%zu\n", kv->l0_tables(),
          kv->l1_tables());

  YcsbWorkload workload(YcsbWorkloadKind::kA, kRecords, seed);
  HarnessOptions harness_options;
  harness_options.num_clients = 6;
  harness_options.target_ops = 6000;
  harness_options.max_duration = Seconds(60);
  ClosedLoopHarness harness(testbed.sim(), kv, &workload, harness_options);
  HarnessResult result = harness.Run();
  Appendf(summary, "harness ops=%" PRIu64 " duration=%" PRId64 " kops=%.6f\n",
          result.ops, result.duration, result.throughput_kops);
  Appendf(summary,
          "latency count=%" PRIu64 " min=%" PRId64 " max=%" PRId64
          " mean=%.3f p50=%.3f p99=%.3f\n",
          result.latency.count(), result.latency.min(), result.latency.max(),
          result.latency.Mean(), result.latency.P50(), result.latency.P99());
  const LruCache& cache = kv->block_cache();
  Appendf(summary,
          "cache hits=%" PRIu64 " misses=%" PRIu64 " evictions=%" PRIu64
          " used=%" PRIu64 " entries=%zu\n",
          cache.hits(), cache.misses(), cache.evictions(), cache.used_bytes(),
          cache.size());
  Appendf(summary, "tables l0=%zu l1=%zu memtable=%zu\n", kv->l0_tables(),
          kv->l1_tables(), kv->memtable_entries());
  // More tombstones: half flushed into the last L0 table, half left in the
  // WAL for recovery to replay.
  for (uint64_t id = 37; id <= 10 * 37; id += 37) {
    CHECK_OK(kv->Delete(YcsbWorkload::KeyFor(id)));
    if (id == 5 * 37) {
      CHECK_OK(kv->FlushMemtable());
    }
  }

  testbed.CrashServer(server.get());
  server.reset();
  testbed.sim()->RunUntilIdle();
  server = testbed.MakeServer("det-kv", server_options);
  CHECK_OK(server->start_status);
  store = testbed.StartKvStore(server.get(), kv_options);
  CHECK_OK(store.status());
  kv = store->get();
  server->app = std::move(*store);
  out.recovered_batches = kv->recovered_batches();
  Appendf(summary,
          "recovered batches=%" PRIu64 " memtable=%zu l0=%zu l1=%zu\n",
          kv->recovered_batches(), kv->memtable_entries(), kv->l0_tables(),
          kv->l1_tables());
  for (uint64_t id = 0; id < kRecords; id += 37) {
    auto v = kv->Get(YcsbWorkload::KeyFor(id));
    Appendf(summary, "get %" PRIu64 " %d %08x\n", id,
            static_cast<int>(v.status().code()), v.ok() ? Crc32c(*v) : 0u);
  }
  out.artifacts.metrics_json = testbed.metrics()->ToJson();
  out.artifacts.trace = TraceDump(*testbed.tracer());
  // Every flush and compaction is one background sstable write.
  out.sstable_writes =
      testbed.metrics()->CounterValue("dfs.client.background_syncs");

  // Every sstable's bytes, read through a separate mount after the
  // exports above were taken.
  DfsClient reader(testbed.dfs_cluster(), "det-kv-digest");
  for (const std::string& path : reader.List("/kv/sst-")) {
    auto file = reader.Open(path, {.create = false});
    CHECK_OK(file.status());
    auto bytes = (*file)->Read(0, (*file)->Size());
    CHECK_OK(bytes.status());
    Appendf(summary, "%s %zu %08x\n", path.c_str(), bytes->size(),
            Crc32c(*bytes));
    if (path.rfind("/kv/sst-L1-", 0) == 0) {
      out.l1_tables++;
    }
  }
  return out;
}

TEST(DeterminismTest, KvStoreExportsAreByteForByteIdentical) {
  KvStoreRun a = RunKvStoreScenario(5);
  KvStoreRun b = RunKvStoreScenario(5);
  ASSERT_FALSE(a.artifacts.metrics_json.empty());
  EXPECT_EQ(a.summary, b.summary);
  EXPECT_EQ(a.artifacts.metrics_json, b.artifacts.metrics_json);
  EXPECT_EQ(a.artifacts.trace, b.artifacts.trace);
  // The scenario must reach the flush, compaction and recovery paths: at
  // least two flushes and a compaction, and a WAL tail to replay.
  EXPECT_GE(a.sstable_writes, 3u);
  EXPECT_EQ(a.l1_tables, 1u);
  EXPECT_GT(a.recovered_batches, 0u);
}

uint32_t Digest(const RunArtifacts& run) {
  return Crc32c(run.metrics_json + run.trace);
}

uint32_t Digest(const MixedRun& run) {
  return Crc32c(run.artifacts.metrics_json + run.artifacts.trace +
                run.recovered + std::to_string(run.end));
}

uint32_t Digest(const KvStoreRun& run) {
  return Crc32c(run.artifacts.metrics_json + run.artifacts.trace +
                run.summary);
}

// Cross-commit behaviour pin. The tests above only compare a run with
// itself, so a refactor that changes protocol behaviour would still pass
// them; these digests were recorded before such refactors and must stay
// put across them. A deliberate protocol change (new WR shapes, recovery
// rule, timing model, metric or span names) updates the values here and
// says why in CHANGES.md.
TEST(DeterminismTest, ExportsMatchPinnedDigests) {
  EXPECT_EQ(Digest(RunSeededChaosScenario(1234)), 0x42df6cdeu);
  EXPECT_EQ(Digest(RunSeededChaosScenario(1234, /*ec=*/true)), 0x6f1c6dd1u);
  EXPECT_EQ(Digest(RunBucketBoundaryScenario(77)), 0x973b53c2u);
  EXPECT_EQ(Digest(RunPooledTenantsScenario(99).artifacts), 0xa42cb439u);
  EXPECT_EQ(Digest(RunKvStoreScenario(5)), 0xbd521b87u);
  EXPECT_EQ(Digest(RunSeededMixedScenario(4)), 0x30fb86d5u);
}

}  // namespace
}  // namespace splitft
