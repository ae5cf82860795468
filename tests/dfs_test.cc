#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/dfs/dfs.h"
#include "src/sim/params.h"
#include "src/sim/simulation.h"

namespace splitft {
namespace {

// Pinned to the seed-calibrated single-pipe model (num_servers = 1): these
// tests assert the calibrated latency arithmetic. Striped behaviour is
// covered by StripedDfsTest below.
class DfsTest : public ::testing::Test {
 protected:
  static SimParams SinglePipeParams() {
    SimParams p;
    p.dfs.num_servers = 1;
    return p;
  }

  DfsTest()
      : params_(SinglePipeParams()),
        cluster_(&sim_, &params_),
        client_(&cluster_, "app-server") {}

  Simulation sim_;
  SimParams params_;
  DfsCluster cluster_;
  DfsClient client_;
};

TEST_F(DfsTest, CreateWriteSyncRead) {
  auto file = client_.Open("/data/f1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello ").ok());
  ASSERT_TRUE((*file)->Append("world").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  auto data = (*file)->Read(0, 11);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "hello world");
}

TEST_F(DfsTest, OpenWithoutCreateFailsOnMissing) {
  DfsOpenOptions opts;
  opts.create = false;
  EXPECT_FALSE(client_.Open("/missing", opts).ok());
}

TEST_F(DfsTest, ReadSeesUnflushedWrites) {
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("buffered").ok());
  auto data = (*file)->Read(0, 8);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "buffered");  // POSIX: reads see the page cache
}

TEST_F(DfsTest, CrashLosesDirtyDataButKeepsSynced) {
  auto file = client_.Open("/wal");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("durable|").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("volatile").ok());

  client_.SimulateCrash();

  // Handle from before the crash is unusable.
  EXPECT_FALSE((*file)->Append("x").ok());

  auto reopened = client_.Open("/wal");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Size(), 8u);
  auto data = (*reopened)->Read(0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "durable|");
}

TEST_F(DfsTest, PositionalOverwrite) {
  auto file = client_.Open("/circular");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("AAAAAAAA").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Write(2, "BB").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  auto data = (*file)->Read(0, 8);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "AABBAAAA");
  EXPECT_EQ((*file)->Size(), 8u);
}

TEST_F(DfsTest, SyncChargesHighFixedLatency) {
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(128, 'x')).ok());
  SimTime before = sim_.Now();
  ASSERT_TRUE((*file)->Sync().ok());
  SimTime elapsed = sim_.Now() - before;
  EXPECT_GT(elapsed, Millis(1.5));
  EXPECT_LT(elapsed, Millis(3.5));
}

TEST_F(DfsTest, BufferedWriteIsCheap) {
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  SimTime before = sim_.Now();
  ASSERT_TRUE((*file)->Append(std::string(128, 'x')).ok());
  EXPECT_LT(sim_.Now() - before, Micros(5));
}

TEST_F(DfsTest, EmptySyncIsFree) {
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  SimTime before = sim_.Now();
  ASSERT_TRUE((*file)->Sync().ok());
  EXPECT_EQ(sim_.Now(), before);
  EXPECT_EQ(cluster_.sync_ops(), 0u);
}

TEST_F(DfsTest, BackgroundSyncDoesNotBlockCaller) {
  auto file = client_.Open("/sstable");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(8 << 20, 's')).ok());
  SimTime before = sim_.Now();
  ASSERT_TRUE((*file)->Sync(/*foreground=*/false).ok());
  EXPECT_EQ(sim_.Now(), before);  // caller did not wait
  // Data is durable nonetheless.
  client_.SimulateCrash();
  auto reopened = client_.Open("/sstable");
  EXPECT_EQ((*reopened)->Size(), static_cast<uint64_t>(8 << 20));
}

TEST_F(DfsTest, ForegroundSyncQueuesBehindBackgroundWrite) {
  // A large background compaction write occupies the backend pipe; a small
  // foreground fsync issued right after must wait for it (write stalls).
  auto big = client_.Open("/sstable");
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE((*big)->Append(std::string(64 << 20, 's')).ok());
  ASSERT_TRUE((*big)->Sync(/*foreground=*/false).ok());

  auto wal = client_.Open("/wal");
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append("tiny").ok());
  SimTime before = sim_.Now();
  ASSERT_TRUE((*wal)->Sync().ok());
  SimTime elapsed = sim_.Now() - before;
  // 64 MiB at ~0.7 B/ns is ~96 ms; the small sync had to queue behind it.
  EXPECT_GT(elapsed, Millis(50));
}

TEST_F(DfsTest, UnlinkRemovesFile) {
  auto file = client_.Open("/tmp1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE(client_.Unlink("/tmp1").ok());
  EXPECT_FALSE(client_.Exists("/tmp1"));
  EXPECT_FALSE((*file)->Append("y").ok());
  EXPECT_EQ(client_.Unlink("/tmp1").code(), StatusCode::kNotFound);
}

TEST_F(DfsTest, RenameMovesContent) {
  auto file = client_.Open("/old");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("payload").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE(client_.Rename("/old", "/new").ok());
  EXPECT_FALSE(client_.Exists("/old"));
  auto renamed = client_.Open("/new");
  ASSERT_TRUE(renamed.ok());
  auto data = (*renamed)->Read(0, 7);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "payload");
}

TEST_F(DfsTest, ListFiltersByPrefix) {
  for (const char* p : {"/db/sst/1", "/db/sst/2", "/db/wal/1", "/other"}) {
    auto f = client_.Open(p);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Sync().ok());
  }
  auto ssts = client_.List("/db/sst/");
  EXPECT_EQ(ssts.size(), 2u);
  EXPECT_EQ(client_.List("/db/").size(), 3u);
  EXPECT_EQ(client_.List("/nope").size(), 0u);
}

TEST_F(DfsTest, PeriodicFlusherMakesWeakDataEventuallyDurable) {
  auto file = client_.Open("/aof");
  ASSERT_TRUE(file.ok());
  client_.StartPeriodicFlusher();
  ASSERT_TRUE((*file)->Append("acknowledged-but-unsynced").ok());
  // Before the flush interval elapses, a crash would lose the data; run the
  // sim past the interval.
  sim_.RunUntil(sim_.Now() + params_.dfs.flush_interval + Millis(1));
  client_.StopPeriodicFlusher();
  client_.SimulateCrash();
  auto reopened = client_.Open("/aof");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Size(), 25u);
}

TEST_F(DfsTest, CachedReadIsFasterThanFirstRead) {
  auto file = client_.Open("/log");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(1 << 20, 'z')).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  client_.SimulateCrash();  // drop the page cache

  auto f2 = client_.Open("/log");
  ASSERT_TRUE(f2.ok());
  SimTime t0 = sim_.Now();
  ASSERT_TRUE((*f2)->Read(0, 4096).ok());
  SimTime miss = sim_.Now() - t0;

  t0 = sim_.Now();
  ASSERT_TRUE((*f2)->Read(4096, 4096).ok());
  SimTime hit = sim_.Now() - t0;

  EXPECT_GT(miss, hit * 10);
}

TEST_F(DfsTest, DirectIoBypassesCache) {
  {
    auto file = client_.Open("/log");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(std::string(64 << 10, 'z')).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  DfsOpenOptions opts;
  opts.direct_io = true;
  auto file = client_.Open("/log", opts);
  ASSERT_TRUE(file.ok());
  SimTime t0 = sim_.Now();
  ASSERT_TRUE((*file)->Read(0, 128).ok());
  SimTime first = sim_.Now() - t0;
  t0 = sim_.Now();
  ASSERT_TRUE((*file)->Read(0, 128).ok());
  SimTime second = sim_.Now() - t0;
  // No caching: both reads pay the remote cost.
  EXPECT_GT(second, first / 2);
  EXPECT_GT(second, Millis(1));
}

TEST_F(DfsTest, ReadPastEofReturnsShortData) {
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("abc").ok());
  auto data = (*file)->Read(1, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "bc");
  auto past = (*file)->Read(10, 5);
  ASSERT_TRUE(past.ok());
  EXPECT_EQ(*past, "");
}

TEST_F(DfsTest, TraceRecordsSyncSizesAndDeletes) {
  IoTraceSink trace;
  cluster_.set_trace(&trace);
  auto file = client_.Open("/wal-1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(200, 'x')).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE(client_.Unlink("/wal-1").ok());
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[0].path, "/wal-1");
  EXPECT_EQ(trace.events()[0].bytes, 200u);
  EXPECT_TRUE(trace.events()[0].sync);
  EXPECT_TRUE(trace.events()[1].is_delete);
  cluster_.set_trace(nullptr);
}

// ---- dirty-range trim/split bookkeeping ------------------------------------
// The general-case overwrite path keeps dirty ranges non-overlapping; every
// edge (head trim, tail split, straddling erase) must keep dirty_bytes equal
// to the union of the ranges, or Sync() charges the wrong transfer size.

TEST_F(DfsTest, OverwriteOverlappingHeadTrimsPreviousRange) {
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(0, "aaaaaaaa").ok());   // [0,8)
  ASSERT_TRUE((*file)->Write(4, "BBBBBBBB").ok());   // [4,12): trims to [0,4)
  EXPECT_EQ((*file)->DirtyBytes(), 12u);
  ASSERT_TRUE((*file)->Sync().ok());
  auto data = (*file)->Read(0, 12);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "aaaaBBBBBBBB");
  EXPECT_EQ(cluster_.bytes_written(), 12u);
}

TEST_F(DfsTest, OverwriteOverlappingTailSplitsFollowingRange) {
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(4, "aaaaaaaa").ok());   // [4,12)
  ASSERT_TRUE((*file)->Write(0, "BBBBBBBB").ok());   // [0,8): tail [8,12) kept
  EXPECT_EQ((*file)->DirtyBytes(), 12u);
  ASSERT_TRUE((*file)->Sync().ok());
  auto data = (*file)->Read(0, 12);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "BBBBBBBBaaaa");
  EXPECT_EQ(cluster_.bytes_written(), 12u);
}

TEST_F(DfsTest, OverwriteContainedInDirtyRangeKeepsSize) {
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(0, "aaaaaaaaaaaa").ok());  // [0,12)
  ASSERT_TRUE((*file)->Write(4, "BBBB").ok());          // inside [0,12)
  EXPECT_EQ((*file)->DirtyBytes(), 12u);
  ASSERT_TRUE((*file)->Sync().ok());
  auto data = (*file)->Read(0, 12);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "aaaaBBBBaaaa");
  EXPECT_EQ(cluster_.bytes_written(), 12u);
}

TEST_F(DfsTest, OverwriteStraddlingMultipleRangesCoalesces) {
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(0, "aaaa").ok());       // [0,4)
  ASSERT_TRUE((*file)->Write(8, "cccc").ok());       // [8,12)
  EXPECT_EQ((*file)->DirtyBytes(), 8u);
  ASSERT_TRUE((*file)->Write(2, "BBBBBBBB").ok());   // [2,10): eats into both
  EXPECT_EQ((*file)->DirtyBytes(), 12u);
  ASSERT_TRUE((*file)->Sync().ok());
  auto data = (*file)->Read(0, 12);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "aaBBBBBBBBcc");
  EXPECT_EQ(cluster_.bytes_written(), 12u);
}

TEST_F(DfsTest, OverwriteExactlyCoveringRangeReplacesIt) {
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(4, "aaaa").ok());   // [4,8)
  ASSERT_TRUE((*file)->Write(4, "BBBB").ok());   // same extent
  EXPECT_EQ((*file)->DirtyBytes(), 4u);
  ASSERT_TRUE((*file)->Write(0, "xxxxxxxxxxxx").ok());  // [0,12) swallows it
  EXPECT_EQ((*file)->DirtyBytes(), 12u);
  ASSERT_TRUE((*file)->Sync().ok());
  auto data = (*file)->Read(0, 12);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "xxxxxxxxxxxx");
  EXPECT_EQ(cluster_.bytes_written(), 12u);
}

// A read of durable bytes is a slice of them. It keeps its bytes across a
// later overwrite + sync and across an unlink, while a fresh read sees the
// new bytes (use-after-free under the ASan job otherwise).
TEST_F(DfsTest, ReadSliceOutlivesOverwriteSyncAndUnlink) {
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  // An owned append to an empty file: the sync adopts the handed buffer.
  std::string handed(4096, 'a');
  const char* handed_bytes = handed.data();
  ASSERT_TRUE((*file)->Append(std::move(handed)).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  auto old = (*file)->Read(0, 4096);
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(old->data(), handed_bytes);
  auto alias = (*file)->Read(100, 10);
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(alias->data(), old->data() + 100);  // durable reads alias

  ASSERT_TRUE((*file)->Write(0, std::string(8192, 'b')).ok());
  auto overlay = (*file)->Read(4000, 200);  // overlaps the dirty range
  ASSERT_TRUE(overlay.ok());
  EXPECT_EQ(*overlay, std::string(200, 'b'));
  ASSERT_TRUE((*file)->Sync().ok());
  EXPECT_EQ(*old, std::string(4096, 'a'));
  auto fresh = (*file)->Read(0, 8192);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, std::string(8192, 'b'));

  ASSERT_TRUE(client_.Unlink("/f").ok());
  file->reset();
  EXPECT_EQ(*old, std::string(4096, 'a'));
  EXPECT_EQ(*alias, std::string(10, 'a'));
  EXPECT_EQ(*fresh, std::string(8192, 'b'));
}

// What one write sequence leaves behind, for comparing owned and view
// appends: the bytes, the size, the write counters and both clocks.
struct DfsOutcome {
  std::string bytes;
  uint64_t size = 0;
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  uint64_t background_syncs = 0;
  uint64_t bytes_written = 0;
  SimTime now = 0;
  SimTime pipe_busy = 0;

  bool operator==(const DfsOutcome&) const = default;
};

// An sstable-shaped write (a reserved body, two appends into its tail, a
// background sync), then an append to the durable file and a foreground
// sync; `owned` hands each string over instead of passing a view.
DfsOutcome RunAppends(bool owned) {
  Simulation sim;
  SimParams params;
  DfsCluster cluster(&sim, &params);
  DfsClient client(&cluster, "app-server");
  auto file = client.Open("/t");
  EXPECT_TRUE(file.ok());
  auto append = [&](std::string data) {
    EXPECT_TRUE((owned ? (*file)->Append(std::move(data))
                       : (*file)->Append(std::string_view(data)))
                    .ok());
  };
  std::string body(300000, 'd');
  body.reserve(body.size() + 64);
  append(std::move(body));
  append(std::string(40, 'i'));
  append(std::string(20, 'f'));
  EXPECT_TRUE((*file)->Sync(/*foreground=*/false).ok());
  append(std::string(5000, 't'));
  EXPECT_TRUE((*file)->Sync().ok());

  DfsOutcome out;
  auto bytes = (*file)->Read(0, (*file)->Size());
  EXPECT_TRUE(bytes.ok());
  out.bytes = std::string(*bytes);
  out.size = (*file)->Size();
  const MetricsRegistry& metrics = *cluster.obs().metrics;
  out.writes = metrics.CounterValue("dfs.client.writes");
  out.write_bytes = metrics.CounterValue("dfs.client.write_bytes");
  out.background_syncs = metrics.CounterValue("dfs.client.background_syncs");
  out.bytes_written = cluster.bytes_written();
  out.now = sim.Now();
  out.pipe_busy = cluster.pipe_busy_until();
  return out;
}

TEST_F(DfsTest, OwnedAppendMatchesViewAppend) {
  DfsOutcome view = RunAppends(/*owned=*/false);
  DfsOutcome owned = RunAppends(/*owned=*/true);
  EXPECT_EQ(owned, view);
  EXPECT_EQ(owned.size, 305060u);
  EXPECT_EQ(owned.writes, 4u);
  EXPECT_EQ(owned.background_syncs, 1u);
  EXPECT_GT(owned.now, 0);
}

TEST_F(DfsTest, SyncCopiesAnOwnedBufferWithLargeSlack) {
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  std::string handed(4096, 'a');
  handed.reserve(1 << 20);
  const char* handed_bytes = handed.data();
  ASSERT_TRUE((*file)->Append(std::move(handed)).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  auto read = (*file)->Read(0, 4096);
  ASSERT_TRUE(read.ok());
  EXPECT_NE(read->data(), handed_bytes);
  EXPECT_EQ(*read, std::string(4096, 'a'));
}

TEST_F(DfsTest, AppendBetweenRangesBridgesWithoutDoubleCount) {
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(0, "aaaa").ok());   // [0,4)
  ASSERT_TRUE((*file)->Write(6, "cc").ok());     // [6,8)
  ASSERT_TRUE((*file)->Write(4, "BBBB").ok());   // [4,8): appends to [0,4),
                                                 // swallows [6,8)
  EXPECT_EQ((*file)->DirtyBytes(), 8u);
  ASSERT_TRUE((*file)->Sync().ok());
  auto data = (*file)->Read(0, 8);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "aaaaBBBB");
  EXPECT_EQ(cluster_.bytes_written(), 8u);
}

// ---- striped multi-server backend ------------------------------------------

class StripedDfsTest : public ::testing::Test {
 protected:
  static SimParams StripedParams(int servers) {
    SimParams p;
    p.dfs.num_servers = servers;
    return p;
  }

  explicit StripedDfsTest(int servers = 3)
      : params_(StripedParams(servers)),
        obs_{&metrics_, nullptr},
        cluster_(&sim_, &params_, obs_),
        client_(&cluster_, "app-server") {}

  Simulation sim_;
  SimParams params_;
  MetricsRegistry metrics_;
  ObsContext obs_;
  DfsCluster cluster_;
  DfsClient client_;
};

TEST_F(StripedDfsTest, SinglePipeReductionMatchesSeedArithmetic) {
  // Every charge a one-server cluster makes is the seed's calibrated
  // arithmetic, max(now, busy) + base + bytes/bw, with each missing
  // readahead window its own request; the replay leg of a rolling restart
  // is stripe_server_base + backlog/bw on the returning server's pipe.
  // Each case states its exact expected time from the raw parameters.
  const SimParams p;
  const uint64_t kMiB = 1ull << 20;
  const uint64_t kWindow = p.dfs.readahead_bytes;
  auto bw = [](uint64_t bytes, double bytes_per_ns) {
    return static_cast<SimTime>(static_cast<double>(bytes) / bytes_per_ns);
  };
  // Writes and fsyncs `bytes` to `path` (no page-cache windows result).
  auto put = [](DfsClient& client, const std::string& path, uint64_t bytes) {
    auto file = client.Open(path);
    EXPECT_TRUE(file.ok());
    EXPECT_TRUE((*file)->Append(std::string(bytes, 'x')).ok());
    EXPECT_TRUE((*file)->Sync().ok());
  };
  struct Case {
    const char* name;
    int servers;
    // Drives the cluster; returns the measured time.
    std::function<SimTime(Simulation&, DfsCluster&, DfsClient&)> measure;
    SimTime expected;
  };
  const std::vector<Case> cases = {
      {"foreground fsync", 1,
       [](Simulation& sim, DfsCluster&, DfsClient& client) {
         auto file = client.Open("/f");
         EXPECT_TRUE(file.ok());
         EXPECT_TRUE((*file)->Append(std::string(1 << 20, 'x')).ok());
         SimTime before = sim.Now();
         EXPECT_TRUE((*file)->Sync().ok());
         return sim.Now() - before;
       },
       p.dfs.sync_base_latency + bw(kMiB, p.dfs.write_bytes_per_ns)},
      {"background flush horizon", 1,
       [](Simulation& sim, DfsCluster& cluster, DfsClient& client) {
         auto file = client.Open("/f");
         EXPECT_TRUE(file.ok());
         EXPECT_TRUE((*file)->Append(std::string(1 << 20, 'x')).ok());
         SimTime before = sim.Now();
         EXPECT_EQ(client.BackgroundFlushAll(), 1u << 20);
         EXPECT_EQ(sim.Now(), before);  // the caller does not block
         return cluster.server_busy_until(0) - before;
       },
       p.dfs.sync_base_latency + bw(kMiB, p.dfs.write_bytes_per_ns)},
      {"direct-IO read", 1,
       [&put](Simulation& sim, DfsCluster&, DfsClient& client) {
         put(client, "/f", 3 << 20);
         DfsOpenOptions direct;
         direct.direct_io = true;
         auto file = client.Open("/f", direct);
         EXPECT_TRUE(file.ok());
         SimTime before = sim.Now();
         EXPECT_EQ((*file)->Read(0, 3 << 20)->size(), 3u << 20);
         return sim.Now() - before;
       },
       p.dfs.remote_read_base + bw(3 * kMiB, p.dfs.read_bytes_per_ns)},
      {"two-window cold page-cache read", 1,
       [&put, kWindow](Simulation& sim, DfsCluster&, DfsClient& client) {
         put(client, "/f", 2 * kWindow);
         client.SimulateCrash();  // cold page cache
         auto file = client.Open("/f");
         EXPECT_TRUE(file.ok());
         SimTime before = sim.Now();
         EXPECT_EQ((*file)->Read(0, 2 * kWindow)->size(), 2 * kWindow);
         return sim.Now() - before;
       },
       // Two serial requests, one per missing window.
       2 * (p.dfs.remote_read_base + bw(kWindow, p.dfs.read_bytes_per_ns))},
      {"rolling-restart replay horizon", 3,
       [&put](Simulation& sim, DfsCluster& cluster, DfsClient& client) {
         EXPECT_TRUE(cluster.TakeServerOffline(1).ok());
         // 3 MiB at 64 KiB stripes: server 1 misses 16 stripes.
         put(client, "/f", 3 << 20);
         EXPECT_EQ(cluster.replay_backlog(1), 16u * 64 * 1024);
         sim.AdvanceTo(cluster.pipe_busy_until() + Millis(1));
         SimTime before = sim.Now();
         SimTime other = cluster.server_busy_until(0);
         EXPECT_TRUE(cluster.BringServerOnline(1).ok());
         EXPECT_EQ(cluster.server_busy_until(0), other);  // own pipe only
         return cluster.server_busy_until(1) - before;
       },
       p.dfs.stripe_server_base + bw(kMiB, p.dfs.write_bytes_per_ns)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SimParams params = StripedParams(c.servers);
    Simulation sim;
    DfsCluster cluster(&sim, &params);
    DfsClient client(&cluster, "app");
    EXPECT_EQ(c.measure(sim, cluster, client), c.expected);
  }
}

TEST_F(StripedDfsTest, LargeFsyncFansOutAtLeastTwiceAsFast) {
  // The acceptance point: a 4 MiB fsync with 3 servers vs the seed pipe.
  const uint64_t kBytes = 4ull << 20;
  SimTime striped;
  {
    auto file = client_.Open("/striped");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(std::string(kBytes, 'x')).ok());
    SimTime before = sim_.Now();
    ASSERT_TRUE((*file)->Sync().ok());
    striped = sim_.Now() - before;
  }
  SimTime single = params_.DfsSyncWriteLatency(kBytes);
  EXPECT_GE(single, 2 * striped)
      << "striped=" << striped << "ns single=" << single << "ns";
}

TEST_F(StripedDfsTest, FsyncSplitsBytesAcrossAllServerCounters) {
  const uint64_t kBytes = 4ull << 20;  // 64 stripes over 3 servers
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(kBytes, 'x')).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  uint64_t total = 0;
  for (int s = 0; s < cluster_.num_servers(); ++s) {
    uint64_t bytes = metrics_.CounterValue("dfs.server." + std::to_string(s) +
                                           ".bytes_written");
    EXPECT_GT(bytes, 0u) << "server " << s << " untouched";
    total += bytes;
  }
  EXPECT_EQ(total, kBytes);
  EXPECT_EQ(cluster_.bytes_written(), kBytes);
}

TEST_F(StripedDfsTest, BackgroundFlushOccupiesOnlyTouchedPipes) {
  // A file smaller than one stripe maps entirely to server 0; a background
  // flush of it must leave the other pipes idle.
  auto file = client_.Open("/small");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(1024, 'x')).ok());
  ASSERT_TRUE((*file)->Sync(/*foreground=*/false).ok());
  EXPECT_GT(cluster_.server_busy_until(0), sim_.Now());
  EXPECT_EQ(cluster_.server_busy_until(1), 0);
  EXPECT_EQ(cluster_.server_busy_until(2), 0);
}

TEST_F(StripedDfsTest, ForegroundSyncQueuesOnlyOnSharedPipes) {
  // Background write covering only server 0's stripes; a foreground sync of
  // stripes on the other servers does not stall behind it.
  auto bg = client_.Open("/bg");
  ASSERT_TRUE(bg.ok());
  ASSERT_TRUE((*bg)->Append(std::string(params_.dfs.stripe_size, 'x')).ok());
  ASSERT_TRUE((*bg)->Sync(/*foreground=*/false).ok());
  SimTime bg_done = cluster_.server_busy_until(0);
  ASSERT_GT(bg_done, sim_.Now());

  // Dirty only the second stripe (server 1) of another file.
  auto fg = client_.Open("/fg");
  ASSERT_TRUE(fg.ok());
  ASSERT_TRUE((*fg)->Write(params_.dfs.stripe_size, "tiny").ok());
  SimTime before = sim_.Now();
  ASSERT_TRUE((*fg)->Sync().ok());
  SimTime elapsed = sim_.Now() - before;
  EXPECT_LT(sim_.Now(), bg_done);  // finished while server 0 still busy
  EXPECT_EQ(elapsed, params_.dfs.stripe_client_base +
                         params_.DfsStripeWriteLeg(4));
}

TEST_F(StripedDfsTest, CrashConsistencyHoldsWithStriping) {
  auto file = client_.Open("/wal");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("durable|").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("volatile").ok());
  client_.SimulateCrash();
  auto reopened = client_.Open("/wal");
  ASSERT_TRUE(reopened.ok());
  auto data = (*reopened)->Read(0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "durable|");  // dirty data lost, fsynced prefix kept
}

TEST_F(StripedDfsTest, FsyncWaitAndXferHistogramsSplitTheLatency) {
  // First fsync is queue-free: wait == 0, xfer == full latency. A second
  // fsync issued behind a background flush records the stall as wait.
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(1 << 20, 'x')).ok());
  SimTime before = sim_.Now();
  ASSERT_TRUE((*file)->Sync().ok());
  SimTime first = sim_.Now() - before;
  const Histogram* wait = metrics_.FindHistogram("dfs.client.fsync_wait_ns");
  const Histogram* xfer = metrics_.FindHistogram("dfs.client.fsync_xfer_ns");
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(xfer, nullptr);
  EXPECT_EQ(wait->max(), 0);
  EXPECT_EQ(xfer->max(), first);

  auto bg = client_.Open("/bg");
  ASSERT_TRUE(bg.ok());
  ASSERT_TRUE((*bg)->Append(std::string(32 << 20, 'x')).ok());
  ASSERT_TRUE((*bg)->Sync(/*foreground=*/false).ok());
  ASSERT_TRUE((*file)->Append(std::string(1 << 20, 'y')).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  EXPECT_GT(wait->max(), 0);  // the stall behind the flush is attributed
  // Three syncs recorded: the first fsync, the background bulk sync, and
  // the queued fsync (background syncs are fsyncs too, just non-blocking).
  EXPECT_EQ(wait->count(), 3u);
  EXPECT_EQ(xfer->count(), 3u);
}

TEST_F(StripedDfsTest, DirectIoReadFansOut) {
  const uint64_t kBytes = 4ull << 20;
  {
    auto file = client_.Open("/data");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(std::string(kBytes, 'z')).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  DfsOpenOptions opts;
  opts.direct_io = true;
  auto file = client_.Open("/data", opts);
  ASSERT_TRUE(file.ok());
  SimTime before = sim_.Now();
  auto data = (*file)->Read(0, kBytes);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), kBytes);
  SimTime striped = sim_.Now() - before;
  SimTime single =
      params_.dfs.remote_read_base +
      static_cast<SimTime>(static_cast<double>(kBytes) /
                           params_.dfs.read_bytes_per_ns);
  EXPECT_LT(2 * striped, single);
  // Per-server read counters cover every byte exactly once.
  uint64_t total = 0;
  for (int s = 0; s < cluster_.num_servers(); ++s) {
    total += metrics_.CounterValue("dfs.server." + std::to_string(s) +
                                   ".bytes_read");
  }
  EXPECT_EQ(total, kBytes);
}

TEST_F(StripedDfsTest, CacheMissReadBatchesWindowsIntoOneFanOut) {
  const uint64_t kBytes = 8ull << 20;  // two readahead windows
  {
    auto file = client_.Open("/log");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(std::string(kBytes, 'z')).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  client_.SimulateCrash();  // drop the page cache
  auto file = client_.Open("/log");
  ASSERT_TRUE(file.ok());
  SimTime before = sim_.Now();
  ASSERT_TRUE((*file)->Read(0, kBytes).ok());
  SimTime striped = sim_.Now() - before;
  // Both missing windows fetch in one fan-out: the per-server read base is
  // paid once, and the 8 MiB spreads over three pipes.
  SimTime serial_single =
      2 * (params_.dfs.remote_read_base +
           static_cast<SimTime>(static_cast<double>(kBytes / 2) /
                                params_.dfs.read_bytes_per_ns));
  EXPECT_LT(2 * striped, serial_single);
  // Subsequent read is a cache hit and stays cheap.
  before = sim_.Now();
  ASSERT_TRUE((*file)->Read(0, 4096).ok());
  EXPECT_LT(sim_.Now() - before, Micros(10));
}

TEST_F(StripedDfsTest, StripeMappingIsDeterministicRoundRobin) {
  // 4 MiB at 64 KiB stripes over 3 servers: 64 stripes → 22/21/21 split.
  const uint64_t kBytes = 4ull << 20;
  auto file = client_.Open("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(kBytes, 'x')).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  uint64_t stripe = params_.dfs.stripe_size;
  EXPECT_EQ(metrics_.CounterValue("dfs.server.0.bytes_written"), 22 * stripe);
  EXPECT_EQ(metrics_.CounterValue("dfs.server.1.bytes_written"), 21 * stripe);
  EXPECT_EQ(metrics_.CounterValue("dfs.server.2.bytes_written"), 21 * stripe);
}

// Property sweep: the modeled sync-write throughput must grow monotonically
// with block size (shape of Fig 1d).
class DfsThroughputSweep : public DfsTest,
                           public ::testing::WithParamInterface<uint64_t> {};

TEST_P(DfsThroughputSweep, ThroughputMonotoneInBlockSize) {
  uint64_t block = GetParam();
  double small_tput =
      static_cast<double>(block) /
      static_cast<double>(params_.DfsSyncWriteLatency(block));
  double big_tput =
      static_cast<double>(block * 8) /
      static_cast<double>(params_.DfsSyncWriteLatency(block * 8));
  EXPECT_GT(big_tput, small_tput);
}

INSTANTIATE_TEST_SUITE_P(Blocks, DfsThroughputSweep,
                         ::testing::Values(512, 4096, 65536, 1 << 20,
                                           8 << 20));

}  // namespace
}  // namespace splitft
