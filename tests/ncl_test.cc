// Tests for the NCL core: replication, recovery, peer failures, catch-up
// and space-leak GC. The unsafe orderings of §4.6 are demonstrated by the
// model checker (tests/modelcheck_test.cc).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/controller/controller.h"
#include "src/ncl/ncl_client.h"
#include "src/ncl/peer.h"
#include "src/ncl/peer_directory.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/rdma/fabric.h"
#include "src/sim/params.h"
#include "src/sim/simulation.h"

namespace splitft {
namespace {

constexpr uint64_t kLend = 512ull << 20;

class NclTest : public ::testing::Test {
 protected:
  NclTest()
      : fabric_(&sim_, &params_, ObsContext{&metrics_, nullptr}),
        controller_(&sim_, &params_) {
    app_node_ = fabric_.AddNode("app-server");
  }

  // Client fault counters land in the fixture registry ("ncl.client.*").
  uint64_t ClientCounter(const std::string& name) {
    return metrics_.CounterValue("ncl.client." + name);
  }

  // Creates `n` peers named p0..p{n-1}, started and registered.
  void StartPeers(int n, uint64_t lend = kLend) {
    for (int i = 0; i < n; ++i) {
      auto peer = std::make_unique<LogPeer>("p" + std::to_string(i), &fabric_,
                                            &controller_, lend);
      EXPECT_TRUE(peer->Start().ok());
      directory_.Register(peer.get());
      peers_.push_back(std::move(peer));
    }
  }

  std::unique_ptr<NclClient> MakeClient(NclConfig config = {}) {
    if (config.app_id == "app") {
      config.app_id = "test-app";
    }
    if (config.default_capacity == 64ull << 20) {
      config.default_capacity = 1 << 20;  // keep tests snappy
    }
    return std::make_unique<NclClient>(config, &fabric_, &controller_,
                                       &directory_, app_node_,
                                       ObsContext{&metrics_, &tracer_});
  }

  LogPeer* PeerNamed(const std::string& name) {
    return directory_.Lookup(name);
  }

  // Reads the file fully via the library.
  std::string Contents(NclFile* file) {
    auto data = file->Read(0, file->size());
    EXPECT_TRUE(data.ok());
    return data.ok() ? std::string(*data) : std::string();
  }

  // Appends ten 100 B records to a file, closes it and its client, then
  // recovers the file through a fresh client and appends once more. The
  // recovered buffer must hold the log, and must not move on that append.
  void ExpectRecoveredLogAppendsInPlace(NclConfig config) {
    std::string oracle;
    {
      auto client = MakeClient(config);
      auto file = client->Create("/wal/1");
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      for (int i = 0; i < 10; ++i) {
        std::string record(100, static_cast<char>('a' + i));
        oracle += record;
        ASSERT_TRUE((*file)->Append(record).ok());
      }
    }
    sim_.RunUntilIdle();
    EXPECT_GT(fabric_.SpareBufferBytes(), oracle.size());
    auto fresh = MakeClient(config);
    auto recovered = fresh->Recover("/wal/1");
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(fabric_.SpareBufferBytes(), 0u);
    EXPECT_EQ(Contents(recovered->get()), oracle);
    const char* before = (*recovered)->Read(0, 1)->data();
    ASSERT_TRUE((*recovered)->Append("tail").ok());
    EXPECT_EQ((*recovered)->Read(0, 1)->data(), before)
        << "the first append after recovery moved the log";
    EXPECT_EQ(Contents(recovered->get()), oracle + "tail");
  }

  // Runs `fire` at the first microsecond tick where `ready` holds, polling
  // for at most `ticks` ticks.
  void PollThen(std::function<bool()> ready, std::function<void()> fire,
                int ticks) {
    sim_.Schedule(Micros(1), [this, ready, fire, ticks] {
      if (ready()) {
        fire();
      } else if (ticks > 0) {
        PollThen(ready, fire, ticks - 1);
      }
    });
  }

  // Gauge value or 0 when absent.
  int64_t GaugeValue(const std::string& name) {
    auto it = metrics_.gauges().find(name);
    return it == metrics_.gauges().end() ? 0 : it->second->value();
  }

  // Writes "/wal/1" (one acknowledged 512 KiB append) on every member of
  // `config`'s geometry, lets `arrange` pick one member and make its
  // catch-up staging fail, then recovers through a fresh client: recovery
  // must succeed at quorum with only that slot dead and the others
  // switched. `*degraded`, when given, receives the ncl.ec.degraded_stripes
  // gauge as recovery left it.
  void ExpectStagingFailureDropsOnlyThatSlot(
      const std::function<LogPeer*(const std::vector<std::string>& members)>&
          arrange,
      NclConfig config = {}, int64_t* degraded = nullptr) {
    const std::string expect(512 << 10, 's');
    std::vector<std::string> members;
    {
      auto client = MakeClient(config);
      auto file = client->Create("/wal/1");
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      ASSERT_TRUE((*file)->Append(expect).ok());
      members = (*file)->peer_names();
    }
    sim_.RunUntilIdle();
    ASSERT_EQ(members.size(),
              static_cast<size_t>(config.geometry().n()));
    std::map<std::string, RKey> old_rkeys;
    for (const std::string& name : members) {
      auto grant = PeerNamed(name)->LookupForRecovery("test-app", "/wal/1");
      ASSERT_TRUE(grant.ok());
      old_rkeys[name] = grant->rkey;
    }
    LogPeer* victim = arrange(members);
    const uint64_t failed_wrs = metrics_.CounterValue("fabric.wr.failed_wrs");

    auto client2 = MakeClient(config);
    auto recovered = client2->Recover("/wal/1");
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    if (degraded != nullptr) {
      *degraded = GaugeValue("ncl.ec.degraded_stripes");
    }
    EXPECT_EQ(metrics_.CounterValue("fabric.wr.failed_wrs"), failed_wrs)
        << "a recovery READ failed: the slot died before its staging";
    EXPECT_EQ((*recovered)->alive_peers(),
              static_cast<int>(members.size()) - 1);
    EXPECT_EQ(Contents(recovered->get()), expect);
    for (const std::string& name : members) {
      if (name == victim->name()) {
        continue;
      }
      auto grant = PeerNamed(name)->LookupForRecovery("test-app", "/wal/1");
      ASSERT_TRUE(grant.ok()) << name;
      EXPECT_NE(grant->rkey, old_rkeys[name]) << name << " was not switched";
    }
    // The caught-up slots are a quorum: the file keeps taking appends.
    ASSERT_TRUE((*recovered)->Append("more").ok());
    EXPECT_EQ(Contents(recovered->get()), expect + "more");
  }

  // Creates "/wal/1" with one 32 KiB append, crashes its first member and
  // schedules `race` 100 us later, inside the snapshot copy of the
  // replacement that the next append ("after") starts once it commits.
  // Then appends "tail", drains, and checks that a fresh client recovers
  // every byte, the racer's included (`race` appends "racer"). Returns the
  // client and file for further checks.
  std::pair<std::unique_ptr<NclClient>, std::unique_ptr<NclFile>>
  ExpectAppendRacingReplacementSurvives(
      NclConfig config, const std::function<void(NclFile*)>& race) {
    auto client = MakeClient(config);
    auto created = client->Create("/wal/1");
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (!created.ok()) {
      return {};
    }
    std::unique_ptr<NclFile> file = std::move(*created);
    const std::string fat(32 << 10, 'x');
    EXPECT_TRUE(file->Append(fat).ok());
    PeerNamed(file->peer_names()[0])->Crash();
    NclFile* raw = file.get();
    sim_.ScheduleAt(sim_.Now() + Micros(100), [raw, &race] { race(raw); });
    EXPECT_TRUE(file->Append("after").ok());
    EXPECT_TRUE(file->Append("tail").ok());
    EXPECT_TRUE(file->Drain().ok());
    sim_.RunUntilIdle();
    const std::string expect = fat + "afterracertail";
    EXPECT_EQ(Contents(file.get()), expect);
    auto fresh = MakeClient(config);
    auto recovered = fresh->Recover("/wal/1");
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    if (recovered.ok()) {
      const std::string got = Contents(recovered->get());
      EXPECT_EQ(got.size(), expect.size());
      EXPECT_TRUE(got == expect)
          << "recovered tail: "
          << got.substr(std::min(got.size(), fat.size()));
    }
    return {std::move(client), std::move(file)};
  }

  // The race above with a blocking racer, which re-enters WaitFor and
  // replaces the same dead slot from inside the first replacement's copy:
  // exactly one successor joins, and the ap-map names it.
  void ExpectBlockingRacerJoinsOneSuccessor() {
    bool racer_ok = false;
    auto [client, file] = ExpectAppendRacingReplacementSurvives(
        NclConfig{},
        [&racer_ok](NclFile* f) { racer_ok = f->Append("racer").ok(); });
    ASSERT_NE(file, nullptr);
    EXPECT_TRUE(racer_ok);
    EXPECT_EQ(client->peers_replaced(), 1);
    EXPECT_EQ(file->alive_peers(), 3);
    auto apmap = controller_.GetApMap("test-app", "/wal/1");
    ASSERT_TRUE(apmap.ok());
    EXPECT_EQ(apmap->peers, file->peer_names());
    EXPECT_NE(apmap->peers[0], "p0") << "the ap-map must name the successor";
  }

  Simulation sim_;
  SimParams params_;
  MetricsRegistry metrics_;
  Tracer tracer_{&sim_, /*enabled=*/true};
  Fabric fabric_;
  Controller controller_;
  PeerDirectory directory_;
  std::vector<std::unique_ptr<LogPeer>> peers_;
  NodeId app_node_;
};

// ------------------------------------------------------------ Log peers --

TEST_F(NclTest, PeerRegistersOnController) {
  StartPeers(1);
  auto rec = controller_.GetPeer("p0");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->available_bytes, kLend);
}

TEST_F(NclTest, PeerAllocationDecrementsAvailability) {
  StartPeers(1);
  auto grant = peers_[0]->Allocate("app", "f", 1 << 20, 1);
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(peers_[0]->available_bytes(), kLend - (1 << 20));
  auto rec = controller_.GetPeer("p0");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->available_bytes, kLend - (1 << 20));
  ASSERT_TRUE(peers_[0]->Release("app", "f").ok());
  EXPECT_EQ(peers_[0]->available_bytes(), kLend);
}

TEST_F(NclTest, PeerRejectsWhenOutOfMemory) {
  StartPeers(1, /*lend=*/1 << 20);
  auto grant = peers_[0]->Allocate("app", "f", 2 << 20, 1);
  EXPECT_EQ(grant.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(NclTest, PeerLookupAfterCrashRejects) {
  StartPeers(1);
  ASSERT_TRUE(peers_[0]->Allocate("app", "f", 1 << 20, 1).ok());
  peers_[0]->Crash();
  ASSERT_TRUE(peers_[0]->Restart().ok());
  // mr-map was lost with the crash: the peer must reject, not return junk.
  EXPECT_FALSE(peers_[0]->LookupForRecovery("app", "f").ok());
  EXPECT_EQ(peers_[0]->available_bytes(), kLend);
}

TEST_F(NclTest, StagedSwitchIsAtomic) {
  StartPeers(1);
  auto grant = peers_[0]->Allocate("app", "f", 1024, 1);
  ASSERT_TRUE(grant.ok());
  ASSERT_TRUE(
      fabric_.WriteRegion(peers_[0]->node(), grant->rkey, 0, "old").ok());

  auto staged = peers_[0]->AllocateCatchupRegion("app", "f", 1024, 2);
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE(
      fabric_.WriteRegion(peers_[0]->node(), staged->rkey, 0, "new").ok());

  // Before the switch, recovery still sees the old region.
  auto lookup = peers_[0]->LookupForRecovery("app", "f");
  ASSERT_TRUE(lookup.ok());
  EXPECT_EQ(lookup->rkey, grant->rkey);

  ASSERT_TRUE(peers_[0]->SwitchRegion("app", "f", staged->rkey).ok());
  lookup = peers_[0]->LookupForRecovery("app", "f");
  ASSERT_TRUE(lookup.ok());
  EXPECT_EQ(lookup->rkey, staged->rkey);
  // The old region was freed.
  EXPECT_FALSE(
      fabric_.ReadRegion(peers_[0]->node(), grant->rkey, 0, 3).ok());
  EXPECT_EQ(peers_[0]->available_bytes(), kLend - 1024);
}

TEST_F(NclTest, SwitchRejectsUnknownStagedRegion) {
  StartPeers(1);
  ASSERT_TRUE(peers_[0]->Allocate("app", "f", 1024, 1).ok());
  EXPECT_EQ(peers_[0]->SwitchRegion("app", "f", 999).code(),
            StatusCode::kFailedPrecondition);
}

// ----------------------------------------------------- Create and record --

TEST_F(NclTest, CreateAllocatesOnNPeers) {
  StartPeers(4);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->peer_names().size(), 3u);  // n = 2f+1 with f=1
  EXPECT_EQ((*file)->alive_peers(), 3);
  EXPECT_TRUE(client->Exists("/wal/1"));
  auto apmap = controller_.GetApMap("test-app", "/wal/1");
  ASSERT_TRUE(apmap.ok());
  EXPECT_EQ(apmap->peers.size(), 3u);
}

TEST_F(NclTest, CreateFailsWithTooFewPeers) {
  StartPeers(2);  // f=1 needs 3
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  EXPECT_EQ(file.status().code(), StatusCode::kUnavailable);
}

TEST_F(NclTest, CreateDuplicateFails) {
  StartPeers(3);
  auto client = MakeClient();
  ASSERT_TRUE(client->Create("/wal/1").ok());
  EXPECT_EQ(client->Create("/wal/1").status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(NclTest, AppendReplicatesToMajorityAndLocally) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello").ok());
  ASSERT_TRUE((*file)->Append(" world").ok());
  EXPECT_EQ((*file)->size(), 11u);
  EXPECT_EQ((*file)->seq(), 2u);
  EXPECT_EQ(Contents(file->get()), "hello world");
  // Let every in-flight WR land, then inspect the peers' memory directly.
  sim_.RunUntilIdle();
  int holding = 0;
  for (auto& peer : peers_) {
    auto grant = peer->LookupForRecovery("test-app", "/wal/1");
    if (!grant.ok()) {
      continue;
    }
    auto bytes =
        fabric_.ReadRegion(peer->node(), grant->rkey, kNclRegionHeaderBytes, 11);
    ASSERT_TRUE(bytes.ok());
    if (*bytes == "hello world") {
      holding++;
    }
  }
  EXPECT_EQ(holding, 3);
}

TEST_F(NclTest, WriteLatencyMatchesPaperMicrobenchmark) {
  // §5.1: a 128 B NCL write completes in single-digit microseconds (the
  // paper measures 4.6 us); a dfs sync write costs milliseconds.
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("warmup").ok());
  SimTime before = sim_.Now();
  ASSERT_TRUE((*file)->Append(std::string(128, 'x')).ok());
  SimTime lat = sim_.Now() - before;
  EXPECT_GT(lat, Micros(2));
  EXPECT_LT(lat, Micros(10));
}

// ------------------------------------------------- Pipelined append path --

TEST_F(NclTest, PipelinedAppendsRespectWindowAndDrain) {
  StartPeers(3);
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  config.inflight_window = 4;
  auto client = MakeClient(config);
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  std::string expect;
  for (int i = 0; i < 20; ++i) {
    std::string rec = "rec-" + std::to_string(i) + ";";
    ASSERT_TRUE((*file)->AppendAsync(rec).ok());
    expect += rec;
    // The backpressure bound: never more than `window` uncommitted appends.
    EXPECT_LE((*file)->inflight(), 4u);
  }
  ASSERT_TRUE((*file)->Drain().ok());
  EXPECT_EQ((*file)->committed_seq(), (*file)->seq());
  EXPECT_EQ((*file)->inflight(), 0u);
  EXPECT_EQ(Contents(file->get()), expect);
}

TEST_F(NclTest, WindowOfOneIsSynchronous) {
  StartPeers(3);
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  config.inflight_window = 1;
  auto client = MakeClient(config);
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*file)->AppendAsync("x").ok());
    // Window 1 degenerates to the fully synchronous path: every append has
    // committed on a majority by the time the call returns.
    EXPECT_EQ((*file)->committed_seq(), (*file)->seq());
  }
}

TEST_F(NclTest, PipelinedAppendsOutperformSynchronous) {
  StartPeers(3);
  auto run = [&](int window, const std::string& path) {
    NclConfig config;
    config.app_id = "test-app";
    config.default_capacity = 1 << 20;
    config.inflight_window = window;
    auto client = MakeClient(config);
    auto file = client->Create(path);
    EXPECT_TRUE(file.ok());
    SimTime t0 = sim_.Now();
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE((*file)->AppendAsync(std::string(128, 'x')).ok());
    }
    EXPECT_TRUE((*file)->Drain().ok());
    return sim_.Now() - t0;
  };
  SimTime sync_time = run(1, "/wal/sync");
  SimTime pipe_time = run(8, "/wal/pipe");
  // Overlapping quorum rounds must beat one round per append by a wide
  // margin (the acceptance bar for the fig8 ablation is >= 20%).
  EXPECT_LT(pipe_time * 5, sync_time * 4);
}

TEST_F(NclTest, RecoveryAfterPipelinedBurstSeesGaplessPrefix) {
  // Drop the file mid-window: recovery must observe a prefix of the append
  // sequence — never a gap — and at least everything that committed.
  StartPeers(3);
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  config.inflight_window = 8;
  std::string expect;
  uint64_t committed = 0;
  const std::string rec(16, 'r');
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE((*file)->AppendAsync(rec).ok());
      expect += rec;
    }
    committed = (*file)->committed_seq();
    // Crash without draining: the last few appends are posted, unacked.
  }
  sim_.RunUntilIdle();
  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  std::string got = Contents(recovered->get());
  ASSERT_LE(got.size(), expect.size());
  EXPECT_EQ(got, expect.substr(0, got.size())) << "recovered a non-prefix";
  EXPECT_EQ(got.size() % rec.size(), 0u) << "recovered a torn record";
  EXPECT_GE(got.size(), committed * rec.size()) << "lost a committed append";
}

TEST_F(NclTest, PositionalOverwriteForCircularLogs) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/db-wal", 64);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("AAAABBBB").ok());
  ASSERT_TRUE((*file)->Write(0, "CCCC").ok());  // wrap around
  EXPECT_EQ(Contents(file->get()), "CCCCBBBB");
  EXPECT_EQ((*file)->size(), 8u);
}

TEST_F(NclTest, AppendPastCapacityFails) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal", 16);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("0123456789abcdef").ok());
  EXPECT_EQ((*file)->Append("x").code(), StatusCode::kResourceExhausted);
}

TEST_F(NclTest, TruncateResetsContentButKeepsSeqGrowing) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/aof", 1024);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("old-data").ok());
  uint64_t seq_before = (*file)->seq();
  ASSERT_TRUE((*file)->Truncate().ok());
  EXPECT_EQ((*file)->size(), 0u);
  EXPECT_GT((*file)->seq(), seq_before);
  ASSERT_TRUE((*file)->Append("fresh").ok());
  EXPECT_EQ(Contents(file->get()), "fresh");
}

TEST_F(NclTest, DeleteReleasesRegionsAndApMap) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1", 1 << 20);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());
  ASSERT_TRUE((*file)->Delete().ok());
  EXPECT_FALSE(client->Exists("/wal/1"));
  for (auto& peer : peers_) {
    EXPECT_EQ(peer->available_bytes(), kLend);
    EXPECT_EQ(peer->active_regions(), 0u);
  }
  EXPECT_EQ((*file)->Append("y").code(), StatusCode::kFailedPrecondition);
}

TEST_F(NclTest, DeleteReportsPartialReleaseFailure) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1", 1 << 20);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());
  // One peer crash-restarts, losing its mr-map: its Release will fail with
  // NotFound while the peer is alive. The other two succeed, so Delete is
  // still a success — the signal lands in the report and the counters.
  peers_[0]->Crash();
  ASSERT_TRUE(peers_[0]->Restart().ok());
  auto report = client->DeleteWithReport("/wal/1");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->peers_attempted, 3);
  EXPECT_EQ(report->peers_released, 2);
  EXPECT_EQ(report->release_failures, 1);
  EXPECT_FALSE(report->AllReleasesFailed());
  EXPECT_FALSE(client->Exists("/wal/1"));
  EXPECT_EQ(ClientCounter("release_failures"), 1u);
}

TEST_F(NclTest, DeleteWarnsWhenEveryReleaseFails) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1", 1 << 20);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());
  for (auto& peer : peers_) {
    peer->Crash();
    ASSERT_TRUE(peer->Restart().ok());
  }
  // Every release fails: the delete still removes the ap-map entry (the
  // file is gone) but its report says so, so the caller knows peer memory
  // leaks until the epoch GC.
  auto report = client->DeleteWithReport("/wal/1");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->AllReleasesFailed());
  EXPECT_EQ(report->peers_attempted, 3);
  EXPECT_FALSE(client->Exists("/wal/1"));
  EXPECT_EQ(ClientCounter("release_failures"), 3u);
}

TEST_F(NclTest, ListFilesReflectsApMap) {
  StartPeers(3);
  auto client = MakeClient();
  ASSERT_TRUE(client->Create("/wal/1").ok());
  auto f2 = client->Create("/wal/2");
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(client->ListFiles().size(), 2u);
  ASSERT_TRUE((*f2)->Delete().ok());
  EXPECT_EQ(client->ListFiles().size(), 1u);
}

TEST_F(NclTest, AllocationRetriesPastRejectingPeer) {
  // p0 advertises plenty but actually has little (stale hint): the
  // allocation must fall through to other peers and still succeed.
  StartPeers(4);
  // Drain p0's real memory with a direct allocation, then restore its
  // controller record to pretend it is still empty.
  ASSERT_TRUE(peers_[0]->Allocate("other", "/x", kLend - 1024, 1).ok());
  ASSERT_TRUE(controller_.UpdatePeerMemory("p0", kLend).ok());

  auto client = MakeClient();
  auto file = client->Create("/wal/1", 1 << 20);
  ASSERT_TRUE(file.ok());
  for (const std::string& name : (*file)->peer_names()) {
    EXPECT_NE(name, "p0");
  }
}

// ------------------------------------------------------------- Recovery --

TEST_F(NclTest, RecoverReturnsAllAckedWritesInOrder) {
  StartPeers(3);
  std::string expect;
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    for (int i = 0; i < 50; ++i) {
      std::string rec = "record-" + std::to_string(i) + ";";
      ASSERT_TRUE((*file)->Append(rec).ok());
      expect += rec;
    }
    // Application crashes: the NclFile is dropped without Delete.
  }
  sim_.RunUntilIdle();

  auto client2 = MakeClient();
  ASSERT_EQ(client2->ListFiles().size(), 1u);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->size(), expect.size());
  EXPECT_EQ(Contents(recovered->get()), expect);
  // The file remains writable after recovery.
  ASSERT_TRUE((*recovered)->Append("more").ok());
  EXPECT_EQ(Contents(recovered->get()), expect + "more");
}

TEST_F(NclTest, RecoverUnknownFileIsNotFound) {
  StartPeers(3);
  auto client = MakeClient();
  EXPECT_EQ(client->Recover("/nope").status().code(), StatusCode::kNotFound);
}

TEST_F(NclTest, RecoverToleratesFPeerCrashes) {
  StartPeers(3);
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("acked-data").ok());
  }
  sim_.RunUntilIdle();
  peers_[1]->Crash();  // one of three: within the budget

  auto client2 = MakeClient();
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Contents(recovered->get()), "acked-data");
}

// With one of three peers dead and no spare, eager replacement asks the
// controller once. Until the peer registry changes, the appends after it
// neither bump the epoch nor pay for a try; a peer that registers makes
// the next append replace the slot.
TEST_F(NclTest, MissingSpareIsNotRetriedUntilTheRegistryChanges) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("healthy").ok());
  const uint64_t epoch = *controller_.GetAppEpoch("test-app");
  PeerNamed((*file)->peer_names()[0])->Crash();
  ASSERT_TRUE((*file)->Append("first").ok());  // finds no spare
  EXPECT_EQ((*file)->alive_peers(), 2);
  const uint64_t rpcs = controller_.rpc_count();
  const SimTime start = sim_.Now();
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE((*file)->Append("more").ok());
  }
  EXPECT_EQ(controller_.rpc_count(), rpcs);
  EXPECT_LT(sim_.Now() - start, Micros(100));
  EXPECT_LE(*controller_.GetAppEpoch("test-app"), epoch + 1);
  EXPECT_EQ((*file)->alive_peers(), 2);

  auto spare = std::make_unique<LogPeer>("p3", &fabric_, &controller_, kLend);
  ASSERT_TRUE(spare->Start().ok());
  directory_.Register(spare.get());
  peers_.push_back(std::move(spare));
  ASSERT_TRUE((*file)->Append("tail").ok());
  EXPECT_EQ((*file)->alive_peers(), 3);
  std::string oracle = "healthyfirst";
  for (int i = 0; i < 9; ++i) {
    oracle += "more";
  }
  EXPECT_EQ(Contents(file->get()), oracle + "tail");
}

// Blocked writes share the gate: with two of three peers dead and no
// spare, the first blocked append asks the controller once and fails.
// The blocked appends after it fail without a try, so the epoch moves at
// most once until a peer registers; then the next append replaces a slot
// and regains the quorum.
TEST_F(NclTest, BlockedAppendsDoNotRetryAMissingSpareUntilTheRegistryChanges) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("healthy").ok());
  const uint64_t epoch = *controller_.GetAppEpoch("test-app");
  const std::vector<std::string> names = (*file)->peer_names();
  PeerNamed(names[0])->Crash();
  PeerNamed(names[1])->Crash();
  EXPECT_EQ((*file)->Append("blocked").code(), StatusCode::kUnavailable);
  const uint64_t rpcs = controller_.rpc_count();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ((*file)->Append("blocked").code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(controller_.rpc_count(), rpcs);
  EXPECT_LE(*controller_.GetAppEpoch("test-app"), epoch + 1);

  auto spare = std::make_unique<LogPeer>("p3", &fabric_, &controller_, kLend);
  ASSERT_TRUE(spare->Start().ok());
  directory_.Register(spare.get());
  peers_.push_back(std::move(spare));
  ASSERT_TRUE((*file)->Append("tail").ok());
  EXPECT_GT(*controller_.GetAppEpoch("test-app"), epoch + 1);
  EXPECT_EQ((*file)->alive_peers(), 2);
}

TEST_F(NclTest, RecoverUnavailableWhenMajorityLost) {
  StartPeers(3);
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("acked-data").ok());
  }
  sim_.RunUntilIdle();
  peers_[0]->Crash();
  peers_[1]->Crash();

  auto client2 = MakeClient();
  auto recovered = client2->Recover("/wal/1");
  // NCL correctly makes the file unavailable instead of silently losing
  // acknowledged data (§4.2).
  EXPECT_EQ(recovered.status().code(), StatusCode::kUnavailable);
}

TEST_F(NclTest, RecoverPicksMaximumSequenceNumber) {
  // Fig 7(i): the app crashes mid-replication; one peer received the new
  // write, the others did not. Recovery must return the newest state that
  // could have been acknowledged... and after recovery the state must
  // survive the loss of the ahead peer. (Recovery without the catch-up is
  // ModelCheckTest.SkipRecoveryCatchupBugIsCaught.)
  StartPeers(3);
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  std::vector<std::string> members;
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("a").ok());
    sim_.RunUntilIdle();  // every peer holds "a"
    members = (*file)->peer_names();
    // "b" reaches the first member only: the app's links to the other two
    // are cut, and the app dies with the append unacknowledged.
    fabric_.SetPartitioned(app_node_, PeerNamed(members[1])->node(), true);
    fabric_.SetPartitioned(app_node_, PeerNamed(members[2])->node(), true);
    ASSERT_TRUE((*file)->AppendAsync("b").ok());
    EXPECT_EQ((*file)->committed_seq(), 1u);
  }
  // The WRs outlive their QPs: "b" lands on the first member, and the
  // partitioned ones exhaust the NIC retry window.
  sim_.RunUntilIdle();
  fabric_.SetPartitioned(app_node_, PeerNamed(members[1])->node(), false);
  fabric_.SetPartitioned(app_node_, PeerNamed(members[2])->node(), false);

  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  // "b" was unacknowledged; recovering it is allowed but not required.
  // Recovery chose the max sequence number, so here it is recovered.
  std::string first_recovery = Contents(recovered->get());
  EXPECT_EQ(first_recovery, "ab");

  // Now the divergence test: the peer that was ahead dies together with
  // the app. Because recovery caught the other peers up before returning
  // data, the same state must be recovered again (§4.5.1).
  std::string ahead_peer = (*recovered)->peer_names()[0];
  recovered->reset();
  sim_.RunUntilIdle();
  for (auto& peer : peers_) {
    if (peer->name() == ahead_peer) {
      peer->Crash();
    }
  }
  auto client3 = MakeClient(config);
  auto again = client3->Recover("/wal/1");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Contents(again->get()), first_recovery)
      << "externalized state lost after second failure";
}

TEST_F(NclTest, CircularLogRecoveryAfterOverwrite) {
  // Fig 7(ii): reused (circular) logs cannot be caught up by shipping a
  // tail; the full-region catch-up must reproduce overwritten state.
  StartPeers(3);
  {
    auto client = MakeClient();
    auto file = client->Create("/db-wal", 8);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("aaaa").ok());
    ASSERT_TRUE((*file)->Append("bbbb").ok());
    ASSERT_TRUE((*file)->Write(0, "cccc").ok());  // wraps, overwriting "aaaa"
  }
  sim_.RunUntilIdle();
  auto client2 = MakeClient();
  auto recovered = client2->Recover("/db-wal");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Contents(recovered->get()), "ccccbbbb");
}

TEST_F(NclTest, RecoveryPhaseSpansPopulated) {
  StartPeers(3);
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1", 1 << 20);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(std::string(512 << 10, 'x')).ok());
  }
  sim_.RunUntilIdle();
  auto before = tracer_.Snapshot();
  auto client2 = MakeClient();
  ASSERT_TRUE(client2->Recover("/wal/1").ok());
  // The tracer's four phase spans are the canonical recovery breakdown:
  // each must have consumed sim time during this recovery.
  auto window = SpanDiff(before, tracer_.Snapshot());
  for (const char* phase :
       {"ncl.recover.get_peers", "ncl.recover.connect",
        "ncl.recover.rdma_read", "ncl.recover.sync_peers"}) {
    ASSERT_EQ(window.count(phase), 1u) << phase;
    EXPECT_GT(window.at(phase).total, 0) << phase;
  }
}

TEST_F(NclTest, ColdRecoveryStagesEveryPeerAtOnce) {
  StartPeers(3);
  // A 48 MiB region leaves its peer's 64 MiB slab no room for a second
  // one, so every staged region needs a fresh slab registration.
  const uint64_t kCapacity = 48ull << 20;
  std::string expect(1 << 20, 'c');
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1", kCapacity);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(expect).ok());
  }
  sim_.RunUntilIdle();
  auto before = tracer_.Snapshot();
  auto client2 = MakeClient();
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->alive_peers(), 3);
  EXPECT_EQ(Contents(recovered->get()), expect);
  // The three registrations overlap: the phase pays about one, not three.
  auto window = SpanDiff(before, tracer_.Snapshot());
  const SimTime registration = params_.MrRegisterLatency(64ull << 20);
  ASSERT_EQ(window.count("ncl.recover.sync_peers"), 1u);
  EXPECT_GT(window.at("ncl.recover.sync_peers").total, registration);
  EXPECT_LT(window.at("ncl.recover.sync_peers").total, 2 * registration);
}

TEST_F(NclTest, StagingOnAPeerOutOfMemoryDropsOnlyThatSlot) {
  // p2 lends room for the file's region but not for a staged second copy.
  StartPeers(2);
  auto small = std::make_unique<LogPeer>("p2", &fabric_, &controller_,
                                         (3ull << 20) / 2);
  ASSERT_TRUE(small->Start().ok());
  directory_.Register(small.get());
  peers_.push_back(std::move(small));
  ExpectStagingFailureDropsOnlyThatSlot(
      [this](const std::vector<std::string>&) { return PeerNamed("p2"); });
}

TEST_F(NclTest, StagingOnACrashedPeerDropsOnlyThatSlot) {
  StartPeers(3);
  // The first event recovery runs is in its header reads. 50 us later they
  // are done and the 512 KiB image READ from the claim's source (role 0)
  // is still in flight, so the role-2 peer answered every read and is
  // down when phase 4 stages on it.
  ExpectStagingFailureDropsOnlyThatSlot(
      [this](const std::vector<std::string>& members) {
        LogPeer* victim = PeerNamed(members[2]);
        sim_.Schedule(0, [this, victim] {
          sim_.Schedule(Micros(50), [victim] { victim->Crash(); });
        });
        return victim;
      });
}

// The EC twin (k=2, m=2, no spare): the shard whose peer crashed before
// its staging stays dead, and the degraded-stripes gauge counts it behind
// the tail. Recovery leaves the gauge where the writer's last commit set
// it (one append, committed on two of four shards); the append after
// recovery reads the dead slot at sequence number 0, two behind, so a slot
// that never switched to a caught-up region does not read as caught up.
TEST_F(NclTest, StagingOnACrashedShardPeerDropsOnlyThatSlot) {
  StartPeers(4);
  NclConfig config;
  config.ec_enabled = true;
  config.ec = EcGeometry{2, 2, 64};
  config.fault_budget = 2;
  int64_t degraded = -1;
  ExpectStagingFailureDropsOnlyThatSlot(
      [this](const std::vector<std::string>& members) {
        LogPeer* victim = PeerNamed(members[3]);
        sim_.Schedule(0, [this, victim] {
          sim_.Schedule(Micros(50), [victim] { victim->Crash(); });
        });
        return victim;
      },
      config, &degraded);
  EXPECT_EQ(degraded, 1);
  EXPECT_EQ(GaugeValue("ncl.ec.degraded_stripes"), 2);
}

// The shard peer written first (role 0) crashes once its staged image
// acked, while the next slot's image is in flight: its switch fails. That
// slot still holds its old region, so the staged header it acked must not
// count: the append after recovery reads it two behind, as a slot that
// never staged does.
TEST_F(NclTest, SwitchOnAShardPeerCrashedAfterItsImageDropsOnlyThatSlot) {
  StartPeers(4);
  NclConfig config;
  config.ec_enabled = true;
  config.ec = EcGeometry{2, 2, 64};
  config.fault_budget = 2;
  ExpectStagingFailureDropsOnlyThatSlot(
      [this](const std::vector<std::string>& members) {
        LogPeer* victim = PeerNamed(members[0]);
        // Phase 4 posts the first slot's image and header, awaits them,
        // then posts the second slot's image: the third WRITE of the
        // recovery.
        const uint64_t posted =
            metrics_.CounterValue("fabric.wr.writes_posted");
        PollThen(
            [this, posted] {
              return metrics_.CounterValue("fabric.wr.writes_posted") >=
                     posted + 3;
            },
            [victim] { victim->Crash(); }, 1000000);
        return victim;
      },
      config);
  EXPECT_EQ(GaugeValue("ncl.ec.degraded_stripes"), 2);
}

// -------------------------------------------------- Peer failure handling --

TEST_F(NclTest, SinglePeerCrashDoesNotBlockWrites) {
  StartPeers(4);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("before").ok());

  // Crash one of the three assigned peers.
  PeerNamed((*file)->peer_names()[0])->Crash();
  ASSERT_TRUE((*file)->Append("after").ok());
  EXPECT_EQ(Contents(file->get()), "beforeafter");
  // The failed peer was replaced with the spare (p3) and caught up.
  EXPECT_EQ(client->peers_replaced(), 1);
  EXPECT_EQ((*file)->alive_peers(), 3);
  auto apmap = controller_.GetApMap("test-app", "/wal/1");
  ASSERT_TRUE(apmap.ok());
  bool has_spare = false;
  for (const std::string& name : apmap->peers) {
    if (name == "p3") {
      has_spare = true;
    }
  }
  EXPECT_TRUE(has_spare);
}

TEST_F(NclTest, TwoSimultaneousCrashesBlockThenRecover) {
  StartPeers(5);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());

  PeerNamed((*file)->peer_names()[0])->Crash();
  PeerNamed((*file)->peer_names()[1])->Crash();
  SimTime before = sim_.Now();
  ASSERT_TRUE((*file)->Append("y").ok());
  // The write had to wait for at least one replacement (tens of ms for MR
  // registration + catch-up, Table 3) instead of the usual microseconds.
  EXPECT_GT(sim_.Now() - before, Millis(5));
  EXPECT_EQ(Contents(file->get()), "xy");
  EXPECT_EQ((*file)->alive_peers(), 3);
  EXPECT_EQ(client->peers_replaced(), 2);
}

TEST_F(NclTest, WritesFailWhenNoReplacementAvailable) {
  StartPeers(3);  // no spares
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());
  PeerNamed((*file)->peer_names()[0])->Crash();
  PeerNamed((*file)->peer_names()[1])->Crash();
  EXPECT_EQ((*file)->Append("y").code(), StatusCode::kUnavailable);
}

// An append fired from a simulation event while a replacement copies the
// snapshot lands on the old members only. The successor must be caught up
// on it before it joins, or it claims a sequence number whose bytes it
// never received and recovery from it returns zeros.
TEST_F(NclTest, AsyncAppendRacingReplacementCopyIsNotLost) {
  StartPeers(4);
  ExpectAppendRacingReplacementSurvives(NclConfig{}, [](NclFile* file) {
    EXPECT_TRUE(file->AppendAsync("racer").ok());
  });
  EXPECT_GE(ClientCounter("suffix_reposts"), 1u);
}

// A blocking racer re-enters WaitFor, whose eager replacement starts a
// second join for the same dead slot inside the first one's copy. With one
// spare (p3), which holds the outer join's successor, the nested join
// finds no peer and leaves the slot to the outer one: one replacement copy
// (the fresh client's recovery adds three catch-up copies), and the only
// failed WRs are the append chain posted to the crashed p0. Taking p3 would
// re-allocate the outer successor's region under its copy.
TEST_F(NclTest, BlockingAppendRacingReplacementJoinsOneSuccessor) {
  StartPeers(4);
  ExpectBlockingRacerJoinsOneSuccessor();
  EXPECT_EQ(tracer_.aggregates().at("ncl.catchup.bulk").count, 1u + 3u);
  EXPECT_EQ(metrics_.CounterValue("fabric.wr.failed_wrs"), 2u);
}

// With two spares the nested join lands on the other one, so the outer
// join finishes its copy and must stand down at the supersession check.
// The append that started it reads that as a skipped replacement, not as
// a crash.
TEST_F(NclTest, SupersededReplacementStandsDown) {
  StartPeers(5);
  ExpectBlockingRacerJoinsOneSuccessor();
}

// More appends race a join's image copy than the window history keeps, so
// history is pruned past the successor's snapshot: its catch-up round
// ships the image again instead of a suffix, and nothing is lost.
TEST_F(NclTest, JoinRoundShipsTheImageAgainOncePruned) {
  StartPeers(4);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  const std::string fat(256 << 10, 'x');
  ASSERT_TRUE((*file)->Append(fat).ok());
  std::string expect = fat;
  std::vector<std::string> racers;
  for (int i = 0; i < 40; ++i) {
    racers.push_back("r" + std::to_string(i) + ";");
    expect += racers.back();
  }
  // The successor's allocation and connection advance the clock without
  // running events, so this one runs inside its image copy.
  NclFile* raw = file->get();
  int acked = 0;
  sim_.ScheduleAt(sim_.Now() + Micros(1), [&racers, &acked, raw] {
    for (const std::string& racer : racers) {
      acked += raw->Append(racer).ok() ? 1 : 0;
    }
  });
  const uint64_t bytes = metrics_.CounterValue("fabric.wr.write_bytes");
  const uint64_t suffixes = ClientCounter("suffix_reposts");
  ASSERT_TRUE(client->MigrateOffPeer((*file)->peer_names()[0]).ok());
  EXPECT_EQ(acked, 40);
  EXPECT_EQ(client->regions_migrated(), 1);
  EXPECT_EQ(ClientCounter("suffix_reposts"), suffixes);
  EXPECT_GE(metrics_.CounterValue("fabric.wr.write_bytes") - bytes,
            2 * fat.size())
      << "the successor got the image once";
  ASSERT_TRUE((*file)->Drain().ok());
  file->reset();
  sim_.RunUntilIdle();
  auto fresh = MakeClient();
  auto recovered = fresh->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Contents(recovered->get()), expect);
}

// Case (a) on a k=2, m=2 stripe: a shard's suffix round encodes through
// the geometry's slot bytes, not a replica's buffer view.
TEST_F(NclTest, AsyncAppendRacingShardRepairIsNotLost) {
  StartPeers(5);
  NclConfig config;
  config.ec_enabled = true;
  config.ec = EcGeometry{2, 2, 64};
  config.fault_budget = 2;
  ExpectAppendRacingReplacementSurvives(config, [](NclFile* file) {
    EXPECT_TRUE(file->AppendAsync("racer").ok());
  });
  EXPECT_GE(ClientCounter("suffix_reposts"), 1u);
  EXPECT_GE(metrics_.CounterValue("ncl.ec.repairs"), 1u);
}

TEST_F(NclTest, ReplacementSurvivesSubsequentRecovery) {
  // After a peer is replaced and the app crashes, recovery must find the
  // data on the *new* peer set (catch-up before ap-map update, §4.5.2).
  StartPeers(4);
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("payload-1|").ok());
    PeerNamed((*file)->peer_names()[0])->Crash();
    ASSERT_TRUE((*file)->Append("payload-2|").ok());
  }
  sim_.RunUntilIdle();
  auto client2 = MakeClient();
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Contents(recovered->get()), "payload-1|payload-2|");
}

TEST_F(NclTest, SafeOrderingSurvivesSameScenario) {
  // Fig 7(iii): writes a,b acked on {p0,p1}; p2 lags with only a; p1 is
  // replaced by p3; the app crashes; p0 then dies. The replacement caught
  // p3 up before the ap-map named it, so "b" survives. (The unsafe
  // ordering is ModelCheckTest.ApMapBeforeCatchupBugIsCaught.)
  StartPeers(4);
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  config.eager_peer_replacement = false;
  std::string peer_a, peer_b, peer_lag;
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("a").ok());
    sim_.RunUntilIdle();
    peer_a = (*file)->peer_names()[0];
    peer_b = (*file)->peer_names()[1];
    peer_lag = (*file)->peer_names()[2];
    fabric_.SetPartitioned(app_node_, PeerNamed(peer_lag)->node(), true);
    ASSERT_TRUE((*file)->Append("b").ok());
    PeerNamed(peer_b)->Crash();
    // Safe replacement: catch-up precedes the ap-map update; the app then
    // crashes (file dropped) right after the replacement write completes.
    ASSERT_TRUE((*file)->Append("c").ok());
  }
  sim_.RunUntilIdle();
  fabric_.SetPartitioned(app_node_, PeerNamed(peer_lag)->node(), false);
  PeerNamed(peer_a)->Crash();

  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  std::string contents = Contents(recovered->get());
  EXPECT_NE(contents.find("b"), std::string::npos)
      << "acked write lost under the safe protocol";
}

TEST_F(NclTest, MemoryRevocationTreatedAsPeerFailure) {
  StartPeers(4);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("before").ok());
  // A peer revokes the region to reclaim memory (§4.5.2).
  std::string victim = (*file)->peer_names()[1];
  ASSERT_TRUE(PeerNamed(victim)->Revoke("test-app", "/wal/1").ok());
  ASSERT_TRUE((*file)->Append("after").ok());
  EXPECT_EQ(Contents(file->get()), "beforeafter");
  EXPECT_EQ(client->peers_replaced(), 1);
  for (const std::string& name : (*file)->peer_names()) {
    EXPECT_NE(name, victim);
  }
}

// ------------------------------------------------------------- Leak GC --

TEST_F(NclTest, LeakedAllocationFreedAfterAppMovesOn) {
  StartPeers(3);
  auto client = MakeClient();
  // Simulate: app bumps epoch, allocates on p0, crashes before writing the
  // ap-map.
  auto epoch = controller_.BumpAppEpoch("test-app");
  ASSERT_TRUE(epoch.ok());
  ASSERT_TRUE(peers_[0]->Allocate("test-app", "/leaked", 1 << 20, *epoch).ok());
  EXPECT_EQ(peers_[0]->active_regions(), 1u);

  // GC must not free it yet: the app might still be initializing.
  sim_.Advance(Millis(100));
  EXPECT_EQ(peers_[0]->RunLeakGc(), 0);

  // The app restarts and moves to a new epoch (creates another file).
  ASSERT_TRUE(controller_.BumpAppEpoch("test-app").ok());
  EXPECT_EQ(peers_[0]->RunLeakGc(), 1);
  EXPECT_EQ(peers_[0]->active_regions(), 0u);
  EXPECT_EQ(peers_[0]->available_bytes(), kLend);
}

TEST_F(NclTest, GcFreesAllocationNotInApMapAtSameEpoch) {
  StartPeers(4);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  // p3 holds a stale allocation at the same epoch but is not in the ap-map.
  auto apmap = controller_.GetApMap("test-app", "/wal/1");
  ASSERT_TRUE(apmap.ok());
  ASSERT_TRUE(
      peers_[3]->Allocate("test-app", "/wal/1", 1 << 20, apmap->epoch).ok());
  sim_.Advance(Millis(100));
  EXPECT_EQ(peers_[3]->RunLeakGc(), 1);
}

TEST_F(NclTest, GcKeepsLiveAllocations) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("data").ok());
  sim_.Advance(Seconds(10));
  for (auto& peer : peers_) {
    EXPECT_EQ(peer->RunLeakGc(), 0) << peer->name();
  }
  // The file is still recoverable.
  sim_.RunUntilIdle();
  auto client2 = MakeClient();
  EXPECT_TRUE(client2->Recover("/wal/1").ok());
}

// A replacement bumps the ap-map's epoch past the survivors' allocations.
// The survivors are still named in it, so they keep their regions.
TEST_F(NclTest, GcKeepsSurvivorRegionsAfterReplacement) {
  StartPeers(4);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("before").ok());
  const std::vector<std::string> members = (*file)->peer_names();
  PeerNamed(members[0])->Crash();
  ASSERT_TRUE((*file)->Append("after").ok());
  ASSERT_EQ(client->peers_replaced(), 1);
  sim_.Advance(Millis(100));
  for (size_t i = 1; i < members.size(); ++i) {
    EXPECT_EQ(PeerNamed(members[i])->RunLeakGc(), 0) << members[i];
  }
  ASSERT_TRUE((*file)->Append("more").ok());
  EXPECT_EQ((*file)->alive_peers(), 3);
  EXPECT_EQ(client->peers_replaced(), 1);
}

// Recovery bumps the ap-map's epoch, and its staged-region switch keeps
// each region's allocation epoch. Every member keeps its region, so the
// file recovers again with the same bytes.
TEST_F(NclTest, GcKeepsEveryMemberRegionAfterRecovery) {
  StartPeers(3);
  const std::string oracle = "recovered-bytes";
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(oracle).ok());
  }
  sim_.RunUntilIdle();
  {
    auto client = MakeClient();
    auto recovered = client->Recover("/wal/1");
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(Contents(recovered->get()), oracle);
  }
  sim_.RunUntilIdle();
  sim_.Advance(Millis(100));
  for (auto& peer : peers_) {
    EXPECT_EQ(peer->RunLeakGc(), 0) << peer->name();
  }
  auto client = MakeClient();
  auto again = client->Recover("/wal/1");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(Contents(again->get()), oracle);
}

TEST_F(NclTest, GcGracePeriodProtectsInProgressInit) {
  StartPeers(3);
  auto epoch = controller_.BumpAppEpoch("fresh-app");
  ASSERT_TRUE(epoch.ok());
  ASSERT_TRUE(peers_[0]->Allocate("fresh-app", "/f", 1024, *epoch).ok());
  // Probe immediately: within the grace period nothing is freed even
  // though the ap-map entry does not exist yet.
  EXPECT_EQ(peers_[0]->RunLeakGc(), 0);
}

// -------------------------------------------- Catch-up transfer variants --

TEST_F(NclTest, DiffCatchupRecoversSameContent) {
  StartPeers(3);
  std::string expect;
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1", 64 << 10);
    ASSERT_TRUE(file.ok());
    for (int i = 0; i < 20; ++i) {
      std::string rec(1000, static_cast<char>('a' + (i % 26)));
      ASSERT_TRUE((*file)->Append(rec).ok());
      expect += rec;
    }
  }
  sim_.RunUntilIdle();
  NclConfig config;
  config.app_id = "test-app";
  config.diff_catchup = true;
  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Contents(recovered->get()), expect);
  // And remains usable.
  ASSERT_TRUE((*recovered)->Append("!").ok());
}

TEST_F(NclTest, DiffCatchupShipsFewerBytesWhenPeersCurrent) {
  StartPeers(3);
  const uint64_t kBig = 256 << 10;
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1", kBig);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(std::string(kBig - 16, 'x')).ok());
  }
  sim_.RunUntilIdle();

  uint64_t before_full = metrics_.CounterValue("fabric.wr.write_bytes");
  {
    auto client2 = MakeClient();
    ASSERT_TRUE(client2->Recover("/wal/1").ok());
  }
  uint64_t full_bytes =
      metrics_.CounterValue("fabric.wr.write_bytes") - before_full;

  sim_.RunUntilIdle();
  uint64_t before_diff = metrics_.CounterValue("fabric.wr.write_bytes");
  {
    NclConfig config;
    config.app_id = "test-app";
    config.diff_catchup = true;
    auto client3 = MakeClient(config);
    ASSERT_TRUE(client3->Recover("/wal/1").ok());
  }
  uint64_t diff_bytes =
      metrics_.CounterValue("fabric.wr.write_bytes") - before_diff;
  // All peers were already up to date: the diff is (nearly) empty while the
  // full-copy catch-up re-ships the whole region to every peer.
  EXPECT_LT(diff_bytes * 10, full_bytes);
}

TEST_F(NclTest, NoPrefetchReadsPayPerReadRdmaCost) {
  StartPeers(3);
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1", 1 << 20);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(std::string(256 << 10, 'x')).ok());
  }
  sim_.RunUntilIdle();

  NclConfig prefetch_config;
  prefetch_config.app_id = "test-app";
  auto c1 = MakeClient(prefetch_config);
  auto with_prefetch = c1->Recover("/wal/1");
  ASSERT_TRUE(with_prefetch.ok());
  SimTime t0 = sim_.Now();
  ASSERT_TRUE((*with_prefetch)->Read(0, 128).ok());
  SimTime local_read = sim_.Now() - t0;

  NclConfig nop_config;
  nop_config.app_id = "test-app";
  nop_config.prefetch_on_recovery = false;
  auto c2 = MakeClient(nop_config);
  auto without_prefetch = c2->Recover("/wal/1");
  ASSERT_TRUE(without_prefetch.ok());
  t0 = sim_.Now();
  ASSERT_TRUE((*without_prefetch)->Read(0, 128).ok());
  SimTime remote_read = sim_.Now() - t0;

  // Fig 11(a): without prefetch every read pays the fabric round trip.
  EXPECT_GT(remote_read, local_read * 3);
}

// Without prefetch, reads go to the recovery peer over the QP that also
// carries its appends. The READ's wait must leave the appends' acks on
// that QP to the append path: a frozen acked_seq on the recovery slot
// stalls every append once one other member is lost, although two of the
// three members are alive.
TEST_F(NclTest, NoPrefetchReadKeepsAppendAcks) {
  StartPeers(3);
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE((*file)->Append("base|").ok());
  }
  sim_.RunUntilIdle();
  NclConfig config;
  config.prefetch_on_recovery = false;
  auto client = MakeClient(config);
  auto recovered = client->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  NclFile* file = recovered->get();
  ASSERT_TRUE(file->AppendAsync("async|").ok());
  auto read = file->Read(0, 5);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(std::string(*read), "base|");
  // Every member holds the same state, so the claim's source — the peer
  // serving reads — is role 0. Lose another member; no spare replaces it.
  PeerNamed(file->peer_names()[1])->Crash();
  Status appended = file->Append("tail|");
  ASSERT_TRUE(appended.ok()) << appended.ToString();
  EXPECT_EQ(file->alive_peers(), 2);
  EXPECT_EQ(Contents(file), "base|async|tail|");
}

// A blocking append fired from a simulation event while a no-prefetch
// Read waits for its READ resolves the recovery slot's completions, the
// READ's included. The Read must still get its bytes instead of taking
// the quiet fabric for a dead peer.
TEST_F(NclTest, NestedAppendLeavesNoPrefetchReadItsCompletion) {
  StartPeers(3);
  const std::string image(200 << 10, 'r');
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE((*file)->Append(image).ok());
  }
  sim_.RunUntilIdle();
  NclConfig config;
  config.prefetch_on_recovery = false;
  auto client = MakeClient(config);
  auto recovered = client->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  NclFile* file = recovered->get();
  // The nested append commits only once a slow member acks, long after
  // the READ on the recovery peer (role 0) completed.
  for (int i = 1; i < 3; ++i) {
    LogPeer* slow = PeerNamed(file->peer_names()[i]);
    fabric_.SetCompletionDelay(app_node_, slow->node(), Micros(500));
  }
  bool nested_ok = false;
  sim_.ScheduleAt(sim_.Now() + Micros(1), [file, &nested_ok] {
    nested_ok = file->Append("nested").ok();
  });
  auto read = file->Read(0, image.size());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(*read == image);
  EXPECT_TRUE(nested_ok);
  EXPECT_EQ(file->alive_peers(), 3);
}

// Regression for the PostSuffix dangling-view bug (the shape deeplint's
// view-lifetime rule exists for — see tools/deeplint/rules.py and
// DESIGN.md §17): PostSuffix accumulates per-entry encoded shard chunks
// in `shard_scratch` while `ops` holds string_views into them. The
// `shard_scratch.reserve(window_.size())` before the loop is
// load-bearing — without it, vector growth relocates the small (SSO)
// chunk strings out from under their views and the replayed suffix
// bytes are garbage. This test forces exactly that shape: a tiny stripe
// unit keeps every encoded chunk within SSO, and the >64-entry suffix
// window would reallocate the scratch vector several times over.
// Corruption shows up as an oracle mismatch after recovery (and as a
// heap-use-after-free under the ASan job).
TEST_F(NclTest, EcSuffixRepostSurvivesScratchGrowth) {
  StartPeers(4);  // exactly k+m members; the laggard stays in place
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  config.ec_enabled = true;
  config.ec = EcGeometry{2, 2, 8};  // 8 B lane chunks: scratch stays SSO
  config.fault_budget = 2;
  // Transient-tolerant retry: the partitioned peer goes *suspect* and is
  // resurrected through RepostSuspect -> PostSuffix, instead of being
  // demoted on first error and replaced via a snapshot copy.
  config.retry = RetryPolicy::Transient(8, Millis(20));
  config.eager_peer_replacement = false;
  std::string oracle;
  std::vector<std::string> members;
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    for (int i = 0; i < 8; ++i) {
      std::string payload(16, static_cast<char>('a' + (i % 26)));
      oracle += payload;
      ASSERT_TRUE((*file)->Append(payload).ok()) << i;
    }
    ASSERT_TRUE((*file)->Drain().ok());
    members = (*file)->peer_names();
    ASSERT_EQ(members.size(), 4u);
    // Partition one shard holder (heals at +3 ms, inside the retry
    // deadline) and keep appending: the window accumulates entries the
    // suspect never saw — enough to take the scratch vector through
    // several growth doublings, while staying inside the PruneWindow cap
    // so the resurrection uses the suffix path, not the image.
    fabric_.PartitionFor(app_node_, PeerNamed(members[1])->node(), Millis(3));
    for (int i = 8; i < 32; ++i) {
      std::string payload(16, static_cast<char>('a' + (i % 26)));
      oracle += payload;
      ASSERT_TRUE((*file)->Append(payload).ok()) << i;
    }
    // Retries fire from inside Append; space a few appends past the heal
    // to drive the resurrection home.
    for (int i = 0; i < 8 && ClientCounter("transient_recoveries") < 1;
         ++i) {
      sim_.RunUntil(sim_.Now() + Millis(2));
      std::string payload(16, 'z');
      oracle += payload;
      ASSERT_TRUE((*file)->Append(payload).ok()) << i;
    }
    ASSERT_TRUE((*file)->Drain().ok());
    EXPECT_GE(ClientCounter("transient_recoveries"), 1u);
    EXPECT_GE(ClientCounter("suffix_reposts"), 1u);
    EXPECT_EQ(ClientCounter("permanent_demotions"), 0u);
  }
  sim_.RunUntilIdle();
  // Make recovery depend on the replayed shard: kill two of the peers
  // that stayed current, leaving exactly k survivors including the healed
  // laggard. If the repost shipped dangling-view garbage, reconstruction
  // returns corrupt bytes here (and ASan flags the read outright).
  PeerNamed(members[0])->Crash();
  PeerNamed(members[2])->Crash();
  auto fresh = MakeClient(config);
  auto recovered = fresh->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Contents(recovered->get()), oracle);
}

// A read served from the local buffer is a slice of it. Later appends and
// overwrites copy the buffer first while the slice is held, so the slice
// keeps the bytes it viewed (use-after-free under the ASan job otherwise).
TEST_F(NclTest, ReadSliceSurvivesAppend) {
  StartPeers(3);
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(64, 'a')).ok());
  auto slice = (*file)->Read(0, 64);
  ASSERT_TRUE(slice.ok());
  auto alias = (*file)->Read(16, 8);
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(alias->data(), slice->data() + 16);  // no copy per read
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE((*file)->Append(std::string(1024, 'b')).ok());
  }
  ASSERT_TRUE((*file)->Write(0, std::string(64, 'c')).ok());
  EXPECT_EQ(*slice, std::string(64, 'a'));
  EXPECT_EQ(*alias, std::string(8, 'a'));
  auto fresh = (*file)->Read(0, 64);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, std::string(64, 'c'));
}

// A suspect's image repost (PostImage) references the local buffer instead
// of copying it. When the application dies with that image WR in flight
// (Fig 7(i)), the WR keeps the bytes alive, still lands, and the next
// recovery reads the peer it caught up.
TEST_F(NclTest, BulkCatchUpWrLandsAfterItsFileIsDestroyed) {
  StartPeers(3);
  NclConfig config;
  config.app_id = "test-app";
  config.default_capacity = 1 << 20;
  config.retry = RetryPolicy::Transient(8, Millis(20));
  config.eager_peer_replacement = false;
  std::string oracle;
  auto client = MakeClient(config);
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const std::vector<std::string> members = (*file)->peer_names();
  ASSERT_EQ(members.size(), 3u);
  LogPeer* laggard = PeerNamed(members[1]);
  constexpr uint64_t kHeaderBytes = 16;  // a replica's region header
  // Partition one replica (healing at +3 ms) and append past the window
  // history's cap, so its resurrection must repost the image. Every
  // WR to it pays an extra millisecond, so that repost is still in flight
  // when the append that triggered it returns.
  fabric_.PartitionFor(app_node_, laggard->node(), Millis(3));
  fabric_.SetLinkDelay(app_node_, laggard->node(), Millis(1));
  auto append = [&](char c) {
    std::string payload(1024, c);
    oracle += payload;
    ASSERT_TRUE((*file)->Append(payload).ok());
  };
  for (int i = 0; i < 48; ++i) {
    append(static_cast<char>('a' + i % 26));
  }
  sim_.RunUntil(sim_.Now() + Millis(4));
  ASSERT_FALSE(fabric_.IsPartitioned(app_node_, laggard->node()));
  const uint64_t retries = ClientCounter("suspect_retries");
  for (int i = 0; i < 16 && ClientCounter("suspect_retries") == retries;
       ++i) {
    sim_.RunUntil(sim_.Now() + Millis(1));
    append('z');
  }
  ASSERT_GT(ClientCounter("suspect_retries"), retries);
  EXPECT_EQ(ClientCounter("suffix_reposts"), 0u);
  auto grant = laggard->LookupForRecovery("test-app", "/wal/1");
  ASSERT_TRUE(grant.ok());
  auto before = fabric_.ReadRegion(laggard->node(), grant->rkey,
                                   kHeaderBytes, oracle.size());
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(*before != oracle) << "the image WR landed too early";

  // The application dies with the repost in flight.
  file->reset();
  client.reset();
  sim_.RunUntilIdle();
  auto landed = fabric_.ReadRegion(laggard->node(), grant->rkey,
                                   kHeaderBytes, oracle.size());
  ASSERT_TRUE(landed.ok());
  EXPECT_TRUE(*landed == oracle) << "the in-flight repost did not land";

  // With the first replica gone, recovery claims from the laggard (the
  // lowest role at the highest sequence number).
  fabric_.ClearLinkFaults();
  PeerNamed(members[0])->Crash();
  auto fresh = MakeClient(config);
  auto recovered = fresh->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(Contents(recovered->get()) == oracle);
}

// ------------------------------------------- Recovery into the spare buffer --

// A closed file leaves its log buffer on the fabric and its recovery lands
// in it, room to append included: the first append after the recovery
// leaves the buffer where the recovery put it instead of copying the log.
TEST_F(NclTest, RecoveredReplicaAppendsInPlace) {
  StartPeers(3);
  ExpectRecoveredLogAppendsInPlace(NclConfig{});
}

// Recovery stages the same image on all three replicas: their regions
// adopt the whole chunks of one host copy of it instead of copying it
// three times, and the log stays intact through appends and a second
// recovery.
TEST_F(NclTest, StagedReplicasShareOneImageCopy) {
  StartPeers(3);
  constexpr uint64_t kChunk = Fabric::kRegionChunkBytes;
  constexpr uint64_t kImage = 5 * kChunk;
  NclConfig config;
  config.default_capacity = 8 * kChunk;
  std::string oracle;
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    for (uint64_t i = 0; i < kImage / (64 << 10); ++i) {
      std::string record(64 << 10, static_cast<char>('a' + i % 26));
      oracle += record;
      ASSERT_TRUE((*file)->Append(record).ok());
    }
  }
  sim_.RunUntilIdle();
  auto fresh = MakeClient(config);
  auto recovered = fresh->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  uint64_t resident = 0;
  for (const auto& peer : peers_) {
    resident += fabric_.ResidentRegionBytes(peer->node());
  }
  EXPECT_GE(resident, 3 * kImage);
  // One copy of the image's whole chunks, plus each region's partial
  // first and last chunks.
  EXPECT_LE(fabric_.HostRegionBytes(), kImage + 3 * 2 * kChunk);

  ASSERT_TRUE((*recovered)->Append("tail").ok());
  oracle += "tail";
  EXPECT_TRUE(Contents(recovered->get()) == oracle);
  recovered->reset();
  sim_.RunUntilIdle();
  auto third = MakeClient(config);
  auto again = third->Recover("/wal/1");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(Contents(again->get()) == oracle);
}

TEST_F(NclTest, RecoveredStripeAppendsInPlace) {
  StartPeers(4);
  NclConfig config;
  config.ec_enabled = true;
  config.fault_budget = 2;
  ExpectRecoveredLogAppendsInPlace(config);
}

// Deleting a log drops the buffer its closed handle left on the fabric, and
// a log re-created under the same name recovers only its own bytes.
TEST_F(NclTest, RecreatedLogNeverRecoversIntoItsPredecessorsBytes) {
  StartPeers(3);
  {
    auto client = MakeClient();
    {
      auto file = client->Create("/wal/1");
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE((*file)->Append(std::string(4096, 'o')).ok());
    }
    EXPECT_GE(fabric_.SpareBufferBytes(), 4096u);
    auto report = client->DeleteWithReport("/wal/1");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(report->AllReleasesFailed());
    EXPECT_EQ(fabric_.SpareBufferBytes(), 0u);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("new").ok());
  }
  sim_.RunUntilIdle();
  auto fresh = MakeClient();
  auto recovered = fresh->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Contents(recovered->get()), "new");
}

// Parameterized across failure budgets: the protocol works for any f.
class NclFaultBudgetSweep : public NclTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(NclFaultBudgetSweep, WritesSurviveFFailures) {
  int f = GetParam();
  int n = 2 * f + 1;
  StartPeers(n + 1);
  NclConfig config;
  config.app_id = "test-app";
  config.fault_budget = f;
  config.default_capacity = 1 << 20;
  {
    auto client = MakeClient(config);
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    ASSERT_EQ((*file)->peer_names().size(), static_cast<size_t>(n));
    ASSERT_TRUE((*file)->Append("survivor").ok());
    // Crash exactly f of the assigned peers after the write acked.
    sim_.RunUntilIdle();
    for (int i = 0; i < f; ++i) {
      PeerNamed((*file)->peer_names()[i])->Crash();
    }
  }
  sim_.RunUntilIdle();
  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("/wal/1");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Contents(recovered->get()), "survivor");
}

INSTANTIATE_TEST_SUITE_P(FaultBudgets, NclFaultBudgetSweep,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace splitft
