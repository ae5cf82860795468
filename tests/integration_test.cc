// Cross-cutting integration tests: several ncl files per application,
// several applications sharing the peer pool, peer-memory accounting
// across app lifecycles, and periodic leak GC driven by the virtual clock.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/harness/testbed.h"

namespace splitft {
namespace {

TEST(IntegrationTest, MultipleNclFilesPerApplication) {
  Testbed testbed;
  auto server = testbed.MakeServer("multi-file");
  SplitOpenOptions opts;
  opts.oncl = true;
  opts.ncl_capacity = 64 << 10;

  // Several live logs at once (RocksDB can hold multiple column-family
  // WALs; Redis an AOF per shard).
  std::vector<std::unique_ptr<SplitFile>> files;
  for (int i = 0; i < 4; ++i) {
    auto file = server->fs->Open("/logs/wal-" + std::to_string(i), opts);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("content-" + std::to_string(i)).ok());
    files.push_back(std::move(*file));
  }
  EXPECT_EQ(server->fs->ncl()->ListFiles().size(), 4u);

  // Crash; recover each file independently.
  files.clear();
  testbed.CrashServer(server.get());
  testbed.sim()->RunUntilIdle();
  auto server2 = testbed.MakeServer("multi-file");
  for (int i = 0; i < 4; ++i) {
    auto file = server2->fs->Open("/logs/wal-" + std::to_string(i), opts);
    ASSERT_TRUE(file.ok()) << i;
    auto data = (*file)->Read(0, 100);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(*data, "content-" + std::to_string(i));
  }
}

TEST(IntegrationTest, TwoApplicationsShareThePeerPool) {
  Testbed testbed;
  auto kv_server = testbed.MakeServer("tenant-kv");
  auto redis_server =
      testbed.MakeServer("tenant-redis");

  KvStoreOptions kv_options;
  kv_options.mode = DurabilityMode::kSplitFt;
  auto kv = testbed.StartKvStore(kv_server.get(), kv_options);
  ASSERT_TRUE(kv.ok());
  RedisOptions redis_options;
  redis_options.mode = DurabilityMode::kSplitFt;
  auto redis = testbed.StartRedis(redis_server.get(), redis_options);
  ASSERT_TRUE(redis.ok());

  ASSERT_TRUE((*kv)->Put("kv-key", "kv-value").ok());
  ASSERT_TRUE((*redis)->Put("redis-key", "redis-value").ok());

  // Both tenants' regions coexist on the shared peers.
  size_t total_regions = 0;
  for (int i = 0; i < testbed.num_peers(); ++i) {
    total_regions += testbed.peer(i)->active_regions();
  }
  EXPECT_GE(total_regions, 6u);  // >= 2 files x 3 peers

  // Crash one tenant; the other is unaffected.
  testbed.CrashServer(kv_server.get());
  EXPECT_EQ(*(*redis)->Get("redis-key"), "redis-value");
  ASSERT_TRUE((*redis)->Put("redis-key2", "v").ok());

  // The crashed tenant recovers with its own data only.
  testbed.sim()->RunUntilIdle();
  auto kv_server2 = testbed.MakeServer("tenant-kv");
  auto kv2 = testbed.StartKvStore(kv_server2.get(), kv_options);
  ASSERT_TRUE(kv2.ok());
  EXPECT_EQ(*(*kv2)->Get("kv-key"), "kv-value");
  EXPECT_FALSE((*kv2)->Get("redis-key").ok());
}

TEST(IntegrationTest, PeerMemoryFullyReclaimedAfterAppDeletesEverything) {
  Testbed testbed;
  uint64_t baseline[8];
  for (int i = 0; i < testbed.num_peers(); ++i) {
    baseline[i] = testbed.peer(i)->available_bytes();
  }
  auto server = testbed.MakeServer("reclaim");
  SplitOpenOptions opts;
  opts.oncl = true;
  opts.ncl_capacity = 1 << 20;
  for (int round = 0; round < 3; ++round) {
    auto file = server->fs->Open("/wal", opts);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("payload").ok());
    file->reset();
    ASSERT_TRUE(server->fs->Unlink("/wal").ok());
  }
  for (int i = 0; i < testbed.num_peers(); ++i) {
    EXPECT_EQ(testbed.peer(i)->available_bytes(), baseline[i])
        << testbed.peer(i)->name();
    EXPECT_EQ(testbed.peer(i)->active_regions(), 0u);
  }
}

TEST(IntegrationTest, PeriodicLeakGcReclaimsOrphanedRegions) {
  Testbed testbed;
  // Orphan an allocation: epoch bumped, region allocated, app never writes
  // the ap-map (simulated initialization crash), then the app moves on.
  auto epoch = testbed.controller()->BumpAppEpoch("leaky-app");
  ASSERT_TRUE(epoch.ok());
  ASSERT_TRUE(
      testbed.peer(0)->Allocate("leaky-app", "/orphan", 1 << 20, *epoch).ok());
  ASSERT_TRUE(testbed.controller()->BumpAppEpoch("leaky-app").ok());

  // Drive GC from the virtual clock like a real peer daemon would.
  int freed = 0;
  for (int tick = 0; tick < 5 && freed == 0; ++tick) {
    testbed.sim()->RunUntil(testbed.sim()->Now() + Seconds(30));
    freed += testbed.peer(0)->RunLeakGc();
  }
  EXPECT_EQ(freed, 1);
  EXPECT_EQ(testbed.peer(0)->active_regions(), 0u);
}

TEST(IntegrationTest, LeaseBlocksSplitBrainAcrossIncarnations) {
  Testbed testbed;
  auto server1 = testbed.MakeServer("sb-app");
  // MakeServer acquired the lease; a concurrent second instance must not
  // be able to take it while the first is alive.
  NclConfig config;
  config.app_id = "sb-app";
  auto dfs2 = std::make_unique<DfsClient>(testbed.dfs_cluster(), "sb-app-2");
  SplitFs second(config, dfs2.get(), testbed.fabric(), testbed.controller(),
                 testbed.directory(), 0);
  EXPECT_EQ(second.Start().code(), StatusCode::kAborted);
  // After the first crashes, the second instance may proceed.
  testbed.CrashServer(server1.get());
  EXPECT_TRUE(second.Start().ok());
}

TEST(IntegrationTest, FaultBudgetTwoEndToEnd) {
  // A full application stack at f=2 (five peers per file) surviving two
  // simultaneous peer crashes plus an app crash.
  TestbedOptions options;
  options.num_peers = 7;
  Testbed testbed(options);
  const ServerOptions f2 = {.ncl = {.fault_budget = 2}};
  KvStoreOptions kv_options;
  kv_options.mode = DurabilityMode::kSplitFt;
  {
    auto server = testbed.MakeServer("f2-app", f2);
    auto kv = testbed.StartKvStore(server.get(), kv_options);
    ASSERT_TRUE(kv.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*kv)->Put("k" + std::to_string(i), "v").ok());
    }
    testbed.sim()->RunUntilIdle();
    testbed.peer(0)->Crash();
    testbed.peer(1)->Crash();
    testbed.CrashServer(server.get());
  }
  testbed.sim()->RunUntilIdle();
  auto server = testbed.MakeServer("f2-app", f2);
  auto kv = testbed.StartKvStore(server.get(), kv_options);
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 100; i += 9) {
    EXPECT_TRUE((*kv)->Get("k" + std::to_string(i)).ok()) << i;
  }
}

}  // namespace
}  // namespace splitft
