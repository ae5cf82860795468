#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/controller/controller.h"
#include "src/dfs/dfs.h"
#include "src/ncl/peer.h"
#include "src/ncl/peer_directory.h"
#include "src/rdma/fabric.h"
#include "src/sim/params.h"
#include "src/sim/retry.h"
#include "src/sim/simulation.h"
#include "src/splitft/split_fs.h"

namespace splitft {
namespace {

class SplitFsTest : public ::testing::Test {
 protected:
  SplitFsTest()
      : fabric_(&sim_, &params_),
        controller_(&sim_, &params_),
        cluster_(&sim_, &params_),
        dfs_(&cluster_, "app-server") {
    app_node_ = fabric_.AddNode("app-server");
    for (int i = 0; i < 4; ++i) {
      auto peer = std::make_unique<LogPeer>("p" + std::to_string(i), &fabric_,
                                            &controller_, 512ull << 20);
      EXPECT_TRUE(peer->Start().ok());
      directory_.Register(peer.get());
      peers_.push_back(std::move(peer));
    }
  }

  std::unique_ptr<SplitFs> MakeFs(const std::string& app = "split-app") {
    NclConfig config;
    config.app_id = app;
    config.default_capacity = 1 << 20;
    return std::make_unique<SplitFs>(config, &dfs_, &fabric_, &controller_,
                                     &directory_, app_node_);
  }

  std::string ReadAll(SplitFile* file) {
    auto data = file->Read(0, file->Size());
    EXPECT_TRUE(data.ok());
    return data.ok() ? std::string(*data) : std::string();
  }

  Simulation sim_;
  SimParams params_;
  Fabric fabric_;
  Controller controller_;
  DfsCluster cluster_;
  DfsClient dfs_;
  PeerDirectory directory_;
  std::vector<std::unique_ptr<LogPeer>> peers_;
  NodeId app_node_;
};

TEST_F(SplitFsTest, NonNclFilesGoToDfs) {
  auto fs = MakeFs();
  SplitOpenOptions opts;
  auto file = fs->Open("/db/sstable-1", opts);
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE((*file)->ncl_backed());
  ASSERT_TRUE((*file)->Append("bulk-data").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  EXPECT_TRUE(dfs_.Exists("/db/sstable-1"));
}

TEST_F(SplitFsTest, ONclFilesGoToNcl) {
  auto fs = MakeFs();
  SplitOpenOptions opts;
  opts.oncl = true;
  auto file = fs->Open("/db/wal-1", opts);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->ncl_backed());
  ASSERT_TRUE((*file)->Append("log-record").ok());
  EXPECT_FALSE(dfs_.Exists("/db/wal-1"));
  EXPECT_TRUE(fs->ncl()->Exists("/db/wal-1"));
}

TEST_F(SplitFsTest, SyncOnNclFileDrainsThenIsFree) {
  auto fs = MakeFs();
  SplitOpenOptions opts;
  opts.oncl = true;
  auto file = fs->Open("/wal", opts);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());
  // Appends ride the in-flight window, so the first Sync drains it...
  SimTime before = sim_.Now();
  ASSERT_TRUE((*file)->Sync().ok());
  EXPECT_GT(sim_.Now(), before);
  // ...and a Sync with nothing outstanding is free.
  before = sim_.Now();
  ASSERT_TRUE((*file)->Sync().ok());
  EXPECT_EQ(sim_.Now(), before);
}

TEST_F(SplitFsTest, SyncOnDfsFilePaysDfsCost) {
  auto fs = MakeFs();
  auto file = fs->Open("/bulk", SplitOpenOptions{});
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());
  SimTime before = sim_.Now();
  ASSERT_TRUE((*file)->Sync().ok());
  EXPECT_GT(sim_.Now() - before, Millis(1));
}

TEST_F(SplitFsTest, ReadBackgroundChargesPipeWithoutBlockingCaller) {
  auto fs = MakeFs();
  {
    auto file = fs->Open("/sstable", SplitOpenOptions{});
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(std::string(1 << 20, 's')).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  dfs_.SimulateCrash();  // drop the page cache so the read goes remote

  auto file = fs->Open("/sstable", SplitOpenOptions{});
  ASSERT_TRUE(file.ok());
  SimTime before = sim_.Now();
  SimTime busy_before = cluster_.pipe_busy_until();
  auto data = (*file)->ReadBackground(0, 1 << 20);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), static_cast<size_t>(1 << 20));
  EXPECT_EQ(sim_.Now(), before);  // compaction input read did not block
  EXPECT_GT(cluster_.pipe_busy_until(), busy_before);  // but occupied pipes
}

TEST_F(SplitFsTest, CrashRecoveryAcrossBothLayers) {
  {
    auto fs = MakeFs();
    ASSERT_TRUE(fs->Start().ok());
    SplitOpenOptions wal_opts;
    wal_opts.oncl = true;
    auto wal = fs->Open("/db/wal", wal_opts);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("wal-records").ok());

    auto sst = fs->Open("/db/sst-1", SplitOpenOptions{});
    ASSERT_TRUE(sst.ok());
    ASSERT_TRUE((*sst)->Append("sst-data").ok());
    ASSERT_TRUE((*sst)->Sync().ok());
    fs->SimulateCrash();
  }
  sim_.RunUntilIdle();

  auto fs2 = MakeFs();
  ASSERT_TRUE(fs2->Start().ok());
  SplitOpenOptions wal_opts;
  wal_opts.oncl = true;
  auto wal = fs2->Open("/db/wal", wal_opts);  // triggers NCL recovery
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(ReadAll(wal->get()), "wal-records");
  auto sst = fs2->Open("/db/sst-1", SplitOpenOptions{});
  ASSERT_TRUE(sst.ok());
  EXPECT_EQ(ReadAll(sst->get()), "sst-data");
}

TEST_F(SplitFsTest, SingleInstanceLeaseEnforced) {
  auto fs1 = MakeFs();
  ASSERT_TRUE(fs1->Start().ok());
  auto fs2 = MakeFs();
  EXPECT_EQ(fs2->Start().code(), StatusCode::kAborted);
  // After the first instance crashes, the second can start.
  fs1->SimulateCrash();
  EXPECT_TRUE(fs2->Start().ok());
}

TEST_F(SplitFsTest, StartRetriesThroughControllerOutage) {
  // The default policy (one attempt) surfaces the outage as kTimedOut.
  controller_.OutageFor(Millis(5));
  EXPECT_EQ(MakeFs()->Start().code(), StatusCode::kTimedOut);
  sim_.RunUntilIdle();

  // A retrying policy waits the outage out and takes the lease.
  NclConfig config;
  config.app_id = "split-app";
  config.retry = RetryPolicy::Transient(/*attempts=*/8);
  SplitFs fs(config, &dfs_, &fabric_, &controller_, &directory_, app_node_);
  SimTime healed = sim_.Now() + Millis(5);
  controller_.OutageFor(Millis(5));
  ASSERT_TRUE(fs.Start().ok());
  EXPECT_GE(sim_.Now(), healed);
  EXPECT_EQ(MakeFs()->Start().code(), StatusCode::kAborted)
      << "the retried Start must hold the single-instance lease";
}

TEST_F(SplitFsTest, GracefulDestructionReleasesTheLease) {
  // Regression for a dropped-error bug the [[nodiscard]] sweep surfaced:
  // ~SplitFs never released the server lease, so every later instance of
  // the same app failed Start with kAborted — and the failure was
  // (void)-discarded by the harness, leaving the successor leaseless.
  auto fs1 = MakeFs();
  ASSERT_TRUE(fs1->Start().ok());
  fs1.reset();  // graceful shutdown, not a crash
  auto fs2 = MakeFs();
  EXPECT_TRUE(fs2->Start().ok());
}

TEST_F(SplitFsTest, UnlinkRoutesToTheRightLayer) {
  auto fs = MakeFs();
  SplitOpenOptions ncl_opts;
  ncl_opts.oncl = true;
  ASSERT_TRUE(fs->Open("/wal", ncl_opts).ok());
  ASSERT_TRUE(fs->Open("/sst", SplitOpenOptions{}).ok());

  ASSERT_TRUE(fs->Unlink("/wal").ok());
  EXPECT_FALSE(fs->ncl()->Exists("/wal"));
  for (auto& peer : peers_) {
    EXPECT_EQ(peer->active_regions(), 0u);
  }
  ASSERT_TRUE(fs->Unlink("/sst").ok());
  EXPECT_FALSE(fs->Exists("/sst"));
  EXPECT_EQ(fs->Unlink("/ghost").code(), StatusCode::kNotFound);
}

// When every peer refuses the release (each restarted and lost its
// mr-map), the ncl file is still gone, but Unlink warns that the regions
// leak until the epoch GC.
TEST_F(SplitFsTest, UnlinkWarnsWhenEveryReleaseFails) {
  auto fs = MakeFs();
  SplitOpenOptions ncl_opts;
  ncl_opts.oncl = true;
  ASSERT_TRUE(fs->Open("/wal", ncl_opts).ok());
  for (auto& peer : peers_) {
    peer->Crash();
    ASSERT_TRUE(peer->Restart().ok());
  }
  EXPECT_EQ(fs->Unlink("/wal").code(), StatusCode::kUnavailable);
  EXPECT_FALSE(fs->Exists("/wal"));
}

TEST_F(SplitFsTest, WalRotationPattern) {
  // The RocksDB pattern: write wal-1, checkpoint to an sstable, delete
  // wal-1, create wal-2 (Table 2's delete-reclaim policy).
  auto fs = MakeFs();
  SplitOpenOptions wal_opts;
  wal_opts.oncl = true;
  auto wal1 = fs->Open("/db/wal-1", wal_opts);
  ASSERT_TRUE(wal1.ok());
  ASSERT_TRUE((*wal1)->Append("memtable-contents").ok());

  auto sst = fs->Open("/db/sst-1", SplitOpenOptions{});
  ASSERT_TRUE(sst.ok());
  ASSERT_TRUE((*sst)->Append("compacted").ok());
  ASSERT_TRUE((*sst)->Sync(SyncOptions{.background = true}).ok());

  wal1->reset();
  ASSERT_TRUE(fs->Unlink("/db/wal-1").ok());
  auto wal2 = fs->Open("/db/wal-2", wal_opts);
  ASSERT_TRUE(wal2.ok());
  ASSERT_TRUE((*wal2)->Append("new-records").ok());
  EXPECT_EQ(ReadAll(wal2->get()), "new-records");
}

// ------------------------------------------------- fine-grained splitting --

TEST_F(SplitFsTest, FineGrainedRoutesBySize) {
  auto fs = MakeFs();
  SplitOpenOptions opts;
  opts.fine_grained = true;
  opts.small_write_threshold = 1024;
  auto file = fs->Open("/mixed", opts);
  ASSERT_TRUE(file.ok());

  uint64_t dfs_before = cluster_.bytes_written();
  ASSERT_TRUE((*file)->WriteAt(0, std::string(100, 's')).ok());  // small
  EXPECT_EQ(cluster_.bytes_written(), dfs_before);  // did not touch the dfs

  ASSERT_TRUE((*file)->WriteAt(4096, std::string(8192, 'L')).ok());  // large
  EXPECT_GT(cluster_.bytes_written(), dfs_before);

  std::string all = ReadAll(file->get());
  EXPECT_EQ(all.substr(0, 100), std::string(100, 's'));
  EXPECT_EQ(all.substr(4096, 8192), std::string(8192, 'L'));
}

TEST_F(SplitFsTest, FineGrainedRecoversInterleavedWrites) {
  // Order matters: small, then large overlapping, then small overlapping.
  {
    auto fs = MakeFs();
    SplitOpenOptions opts;
    opts.fine_grained = true;
    opts.small_write_threshold = 1024;
    auto file = fs->Open("/mixed", opts);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->WriteAt(0, std::string(512, 'a')).ok());     // small
    ASSERT_TRUE((*file)->WriteAt(0, std::string(4096, 'B')).ok());    // large
    ASSERT_TRUE((*file)->WriteAt(100, std::string(16, 'c')).ok());    // small
    fs->SimulateCrash();
  }
  sim_.RunUntilIdle();

  auto fs2 = MakeFs();
  SplitOpenOptions opts;
  opts.fine_grained = true;
  opts.small_write_threshold = 1024;
  auto file = fs2->Open("/mixed", opts);
  ASSERT_TRUE(file.ok());
  std::string all = ReadAll(file->get());
  ASSERT_EQ(all.size(), 4096u);
  EXPECT_EQ(all.substr(0, 100), std::string(100, 'B'));
  EXPECT_EQ(all.substr(100, 16), std::string(16, 'c'));
  EXPECT_EQ(all.substr(116, 4096 - 116), std::string(4096 - 116, 'B'));
}

TEST_F(SplitFsTest, FineGrainedJournalCheckpointOnFull) {
  auto fs = MakeFs();
  SplitOpenOptions opts;
  opts.fine_grained = true;
  opts.small_write_threshold = 1024;
  opts.ncl_capacity = 4096;  // tiny journal to force checkpoints
  auto file = fs->Open("/mixed", opts);
  ASSERT_TRUE(file.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*file)->WriteAt(i * 100, std::string(100, 'x')).ok());
  }
  EXPECT_EQ((*file)->Size(), 10000u);
  EXPECT_EQ(ReadAll(file->get()), std::string(10000, 'x'));
}

TEST_F(SplitFsTest, FineGrainedSmallWritesAreFastLargeWritesStream) {
  auto fs = MakeFs();
  SplitOpenOptions opts;
  opts.fine_grained = true;
  opts.small_write_threshold = 4096;
  auto file = fs->Open("/mixed", opts);
  ASSERT_TRUE(file.ok());

  SimTime t0 = sim_.Now();
  ASSERT_TRUE((*file)->WriteAt(0, std::string(128, 's')).ok());
  SimTime small_lat = sim_.Now() - t0;
  EXPECT_LT(small_lat, Micros(20));  // NCL path

  t0 = sim_.Now();
  ASSERT_TRUE((*file)->WriteAt(1 << 20, std::string(1 << 20, 'L')).ok());
  SimTime large_lat = sim_.Now() - t0;
  EXPECT_GT(large_lat, Millis(1));  // dfs path
}

}  // namespace
}  // namespace splitft
