// Harness tests: closed-loop mechanics plus end-to-end sanity on the
// paper's headline performance shapes (who wins and by roughly how much).
#include <gtest/gtest.h>

#include <memory>

#include "src/harness/closed_loop.h"
#include "src/harness/testbed.h"

namespace splitft {
namespace {

HarnessResult RunKvStore(DurabilityMode mode, YcsbWorkloadKind kind,
                         int clients, uint64_t target_ops,
                         uint64_t records = 20000) {
  Testbed testbed;
  auto server = testbed.MakeServer(
      "kv-bench", {.mode = mode, .ncl_capacity = 32ull << 20});
  KvStoreOptions options;
  options.mode = mode;
  auto store = testbed.StartKvStore(server.get(), options);
  EXPECT_TRUE(store.ok());
  EXPECT_TRUE(Testbed::LoadRecords(store->get(), records).ok());

  YcsbWorkload workload(kind, records, 7);
  HarnessOptions harness_options;
  harness_options.num_clients = clients;
  harness_options.target_ops = target_ops;
  ClosedLoopHarness harness(testbed.sim(), store->get(), &workload,
                            harness_options);
  return harness.Run();
}

TEST(HarnessTest, CompletesTargetOps) {
  HarnessResult result = RunKvStore(DurabilityMode::kSplitFt,
                                    YcsbWorkloadKind::kWriteOnly, 8, 5000);
  EXPECT_GE(result.ops, 5000u);
  EXPECT_GT(result.duration, 0);
  EXPECT_GT(result.throughput_kops, 0.0);
  EXPECT_EQ(result.latency.count(), result.ops);
}

TEST(HarnessTest, LatencyIncludesRttFloor) {
  HarnessResult result = RunKvStore(DurabilityMode::kSplitFt,
                                    YcsbWorkloadKind::kWriteOnly, 1, 1000);
  // Single client: latency >= service time; throughput bounded by
  // 1 / (rtt + service).
  EXPECT_GT(result.latency.Mean(), static_cast<double>(Micros(4)));
  EXPECT_LT(result.latency.Mean(), static_cast<double>(Micros(200)));
}

TEST(HarnessTest, TimelineSamplesCoverRun) {
  Testbed testbed;
  auto server = testbed.MakeServer("kv-tl");
  KvStoreOptions options;
  options.mode = DurabilityMode::kSplitFt;
  auto store = testbed.StartKvStore(server.get(), options);
  ASSERT_TRUE(store.ok());
  YcsbWorkload workload(YcsbWorkloadKind::kWriteOnly, 5000, 7);
  HarnessOptions harness_options;
  harness_options.num_clients = 8;
  harness_options.target_ops = 20000;
  harness_options.sample_interval = Millis(10);
  ClosedLoopHarness harness(testbed.sim(), store->get(), &workload,
                            harness_options);
  HarnessResult result = harness.Run();
  ASSERT_FALSE(result.timeline.empty());
  uint64_t total = 0;
  for (const TimelineSample& s : result.timeline) {
    total += static_cast<uint64_t>(s.kops * 1000.0 *
                                   (static_cast<double>(Millis(10)) / 1e9) +
                                   0.5);
  }
  EXPECT_NEAR(static_cast<double>(total), static_cast<double>(result.ops),
              static_cast<double>(result.ops) * 0.02);
}

// ---- Paper-shape sanity checks ---------------------------------------------

TEST(HarnessShapeTest, WriteOnlyStrongIsFarSlowerThanSplitFt) {
  // Table 1 / Fig 9 shape: strong mode loses by an order of magnitude or
  // more on a write-only workload; SplitFT approximates weak.
  HarnessResult strong = RunKvStore(DurabilityMode::kStrong,
                                    YcsbWorkloadKind::kWriteOnly, 12, 6000);
  HarnessResult weak = RunKvStore(DurabilityMode::kWeak,
                                  YcsbWorkloadKind::kWriteOnly, 12, 30000);
  HarnessResult splitft = RunKvStore(DurabilityMode::kSplitFt,
                                     YcsbWorkloadKind::kWriteOnly, 12, 30000);

  EXPECT_GT(splitft.throughput_kops, strong.throughput_kops * 8)
      << "splitft=" << splitft.throughput_kops
      << " strong=" << strong.throughput_kops;
  // SplitFT within ~25% of weak (paper: 0.1%-10% overhead, sometimes
  // slightly faster).
  EXPECT_GT(splitft.throughput_kops, weak.throughput_kops * 0.75);
  // Strong latency is orders of magnitude higher.
  EXPECT_GT(strong.latency.Mean(), splitft.latency.Mean() * 10);
}

TEST(HarnessShapeTest, ReadOnlyGapCloses) {
  // Fig 10 YCSB-C: all three configurations converge on a read-only
  // workload.
  HarnessResult strong =
      RunKvStore(DurabilityMode::kStrong, YcsbWorkloadKind::kC, 12, 8000);
  HarnessResult splitft =
      RunKvStore(DurabilityMode::kSplitFt, YcsbWorkloadKind::kC, 12, 8000);
  double ratio = splitft.throughput_kops / strong.throughput_kops;
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(HarnessShapeTest, SqliteUnbatchedStrongIsSlowest) {
  Testbed testbed;
  double tput[3];
  int idx = 0;
  for (DurabilityMode mode :
       {DurabilityMode::kStrong, DurabilityMode::kWeak,
        DurabilityMode::kSplitFt}) {
    auto server = testbed.MakeServer(
        "sql-" + std::string(DurabilityModeName(mode)),
        {.mode = mode,
         .ncl_capacity = 8ull << 20});
    SqliteLiteOptions options;
    options.mode = mode;
    auto db = testbed.StartSqlite(server.get(), options);
    ASSERT_TRUE(db.ok());
    YcsbWorkload workload(YcsbWorkloadKind::kWriteOnly, 2000, 7);
    HarnessOptions harness_options;
    harness_options.num_clients = 1;  // SQLite is single threaded (§5)
    harness_options.target_ops = mode == DurabilityMode::kStrong ? 800 : 5000;
    ClosedLoopHarness harness(testbed.sim(), db->get(), &workload,
                              harness_options);
    tput[idx++] = harness.Run().throughput_kops;
  }
  // strong << weak ~ splitft.
  EXPECT_LT(tput[0] * 5, tput[2]);
  EXPECT_GT(tput[2], tput[1] * 0.7);
}

TEST(HarnessShapeTest, RedisHeadOfLineBlockingUnderStrong) {
  // Fig 10(b): strong-mode Redis is slow even on read-heavy workloads
  // because reads queue behind synchronous AOF flushes.
  auto run_redis = [](DurabilityMode mode, uint64_t ops) {
    Testbed testbed;
    auto server = testbed.MakeServer(
        "redis-" + std::string(DurabilityModeName(mode)),
        {.mode = mode,
         .ncl_capacity = 16ull << 20});
    RedisOptions options;
    options.mode = mode;
    options.aof_rewrite_bytes = 16 << 20;
    options.aof_capacity = 32 << 20;
    auto redis = testbed.StartRedis(server.get(), options);
    EXPECT_TRUE(redis.ok());
    EXPECT_TRUE(Testbed::LoadRecords(redis->get(), 20000).ok());
    YcsbWorkload workload(YcsbWorkloadKind::kB, 20000, 7);  // 95% reads
    HarnessOptions harness_options;
    harness_options.num_clients = 20;
    harness_options.target_ops = ops;
    ClosedLoopHarness harness(testbed.sim(), redis->get(), &workload,
                              harness_options);
    return harness.Run().throughput_kops;
  };
  double strong = run_redis(DurabilityMode::kStrong, 6000);
  double splitft = run_redis(DurabilityMode::kSplitFt, 30000);
  // Despite 95% reads, strong Redis is several times slower: reads are
  // blocked by the writes ahead of them.
  EXPECT_GT(splitft, strong * 3)
      << "splitft=" << splitft << " strong=" << strong;
}

TEST(MakeServerTest, LeaseConflictSurfacesInStartStatus) {
  // Regression for the dropped-error bug: MakeServer used to (void) the
  // SplitFs::Start status, so a second live instance of an app ran without
  // the single-instance lease and nobody could tell.
  Testbed testbed;
  auto first = testbed.MakeServer("lease-app");
  EXPECT_TRUE(first->start_status.ok()) << first->start_status.ToString();
  auto second = testbed.MakeServer("lease-app");
  EXPECT_EQ(second->start_status.code(), StatusCode::kAborted);
  // Graceful shutdown of both instances releases the lease, so a fresh
  // server acquires it again (the leak half of the same bug).
  second.reset();
  first.reset();
  auto third = testbed.MakeServer("lease-app");
  EXPECT_TRUE(third->start_status.ok()) << third->start_status.ToString();
}

TEST(MakeServerTest, ClientIsBuiltWithTheCallersNclSettings) {
  // Every NCL setting is fixed when the client is built. MakeServer passes
  // the caller's through and overrides only app_id, default_capacity and,
  // for EC, fault_budget.
  Testbed testbed({.num_peers = 5});
  NclConnectionPool* pool = testbed.shared_pool();
  auto replicated = testbed.MakeServer(
      "knobs-rep", {.ncl_capacity = 1 << 20,
                    .ncl = {.app_id = "overridden",
                            .fault_budget = 2,
                            .default_capacity = 5,
                            .prefetch_on_recovery = false,
                            .diff_catchup = true,
                            .eager_peer_replacement = false,
                            .inflight_window = 3,
                            .pool = pool}});
  const NclClient* rep = replicated->fs->ncl();
  EXPECT_TRUE(rep->status().ok()) << rep->status().ToString();
  EXPECT_EQ(rep->config().app_id, "knobs-rep");
  EXPECT_EQ(rep->config().default_capacity, 1u << 20);
  EXPECT_EQ(rep->config().fault_budget, 2);
  EXPECT_FALSE(rep->config().prefetch_on_recovery);
  EXPECT_TRUE(rep->config().diff_catchup);
  EXPECT_FALSE(rep->config().eager_peer_replacement);
  EXPECT_EQ(rep->config().inflight_window, 3);
  EXPECT_FALSE(rep->config().ec_enabled);
  EXPECT_EQ(rep->config().pool, pool);
  EXPECT_EQ(rep->pool(), pool);
  EXPECT_EQ(rep->config().geometry().n(), 5);

  // With EC, fault_budget follows the parity width m, whatever was passed.
  auto striped = testbed.MakeServer(
      "knobs-ec",
      {.ncl = {.fault_budget = 2,
               .ec_enabled = true,
               .ec = {.k = 3, .m = 1, .stripe_unit = 128}}});
  const NclClient* ec = striped->fs->ncl();
  EXPECT_TRUE(ec->status().ok()) << ec->status().ToString();
  EXPECT_EQ(ec->config().app_id, "knobs-ec");
  EXPECT_EQ(ec->config().default_capacity, ServerOptions{}.ncl_capacity);
  EXPECT_EQ(ec->config().fault_budget, 1);
  EXPECT_TRUE(ec->config().ec_enabled);
  EXPECT_EQ(ec->config().ec.k, 3u);
  EXPECT_EQ(ec->config().ec.m, 1u);
  EXPECT_EQ(ec->config().ec.stripe_unit, 128u);
  EXPECT_EQ(ec->config().geometry().n(), 4);
  // No pool was passed, so the client built its own.
  EXPECT_EQ(ec->config().pool, nullptr);
  EXPECT_NE(ec->pool(), pool);
}

}  // namespace
}  // namespace splitft
