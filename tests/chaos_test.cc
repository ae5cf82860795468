// Chaos harness tests: the new fabric fault-injection primitives, the
// client-side RetryPolicy (suspect slots, controller outage retries,
// unreachable setup processes), the promoted Fig 12 double-crash scenario,
// and the seeded random campaign with its safety/liveness invariants.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/chaos/campaign.h"
#include "src/chaos/chaos_engine.h"
#include "src/chaos/fault_plan.h"
#include "src/controller/controller.h"
#include "src/harness/testbed.h"
#include "src/ncl/ncl_client.h"
#include "src/ncl/peer.h"
#include "src/ncl/peer_directory.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/rdma/fabric.h"
#include "src/sim/params.h"
#include "src/sim/retry.h"
#include "src/sim/simulation.h"

namespace splitft {
namespace {

// ---------------------------------------------------- Fabric primitives --

class ChaosFabricTest : public ::testing::Test {
 protected:
  ChaosFabricTest()
      : fabric_(&sim_, &params_, ObsContext{&metrics_, nullptr}) {
    app_ = fabric_.AddNode("app");
    peer_ = fabric_.AddNode("peer1");
  }

  Completion WaitCompletion(QueuePair* qp) {
    Completion c;
    EXPECT_TRUE(sim_.RunUntilPredicate([&] { return qp->PollCq(&c); }));
    return c;
  }

  Simulation sim_;
  SimParams params_;
  MetricsRegistry metrics_;
  Fabric fabric_;
  NodeId app_;
  NodeId peer_;
};

TEST_F(ChaosFabricTest, PartitionForHealsAutomatically) {
  fabric_.PartitionFor(app_, peer_, Millis(2));
  EXPECT_TRUE(fabric_.IsPartitioned(app_, peer_));
  sim_.RunUntil(sim_.Now() + Millis(3));
  EXPECT_FALSE(fabric_.IsPartitioned(app_, peer_));
}

TEST_F(ChaosFabricTest, CancelledHealLeavesPartitionInPlace) {
  uint64_t token = fabric_.PartitionFor(app_, peer_, Millis(2));
  sim_.Cancel(token);
  sim_.RunUntil(sim_.Now() + Millis(5));
  EXPECT_TRUE(fabric_.IsPartitioned(app_, peer_));
}

TEST_F(ChaosFabricTest, LinkDelaySpikeSlowsWrites) {
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);

  SimTime t0 = sim_.Now();
  qp.PostWrite(*rkey, 0, "x");
  WaitCompletion(&qp);
  SimTime baseline = sim_.Now() - t0;

  fabric_.SetLinkDelay(app_, peer_, Micros(300));
  t0 = sim_.Now();
  qp.PostWrite(*rkey, 0, "x");
  WaitCompletion(&qp);
  SimTime delayed = sim_.Now() - t0;
  EXPECT_GE(delayed - baseline, Micros(300));

  fabric_.SetLinkDelay(app_, peer_, 0);
  t0 = sim_.Now();
  qp.PostWrite(*rkey, 0, "x");
  WaitCompletion(&qp);
  EXPECT_LT(sim_.Now() - t0, delayed);
}

TEST_F(ChaosFabricTest, CompletionDelayDefersCqNotData) {
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  fabric_.SetCompletionDelay(app_, peer_, Millis(1));
  QueuePair qp(&fabric_, app_, peer_);
  qp.PostWrite(*rkey, 0, "durable");
  // The data lands at the normal time even though the completion is held.
  sim_.RunUntil(sim_.Now() + Micros(100));
  auto bytes = fabric_.ReadRegion(peer_, *rkey, 0, 7);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "durable");
  Completion dummy;
  EXPECT_FALSE(qp.PollCq(&dummy));
  Completion c = WaitCompletion(&qp);
  EXPECT_EQ(c.status, WcStatus::kSuccess);
}

// Clearing a link delay must not let a WR posted after the clear land
// before one posted under the delay: SQ order holds across the change.
TEST_F(ChaosFabricTest, ClearedLinkDelayKeepsSendQueueOrder) {
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  fabric_.SetLinkDelay(app_, peer_, Micros(300));
  uint64_t old_wr = qp.PostWrite(*rkey, 0, "old");
  fabric_.SetLinkDelay(app_, peer_, 0);
  uint64_t new_wr = qp.PostWrite(*rkey, 0, "new");
  Completion first = WaitCompletion(&qp);
  Completion second = WaitCompletion(&qp);
  EXPECT_EQ(first.wr_id, old_wr);
  EXPECT_EQ(second.wr_id, new_wr);
  EXPECT_EQ(first.status, WcStatus::kSuccess);
  EXPECT_EQ(second.status, WcStatus::kSuccess);
  auto bytes = fabric_.ReadRegion(peer_, *rkey, 0, 3);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "new");
}

// Clearing a completion delay while a completion is held must not let a
// later WR's completion surface first: the CQ stays in post order.
TEST_F(ChaosFabricTest, ClearedCompletionDelayKeepsCqOrder) {
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  fabric_.SetCompletionDelay(app_, peer_, Millis(1));
  uint64_t held = qp.PostWrite(*rkey, 0, "one");
  sim_.RunUntil(sim_.Now() + Micros(100));
  auto bytes = fabric_.ReadRegion(peer_, *rkey, 0, 3);
  ASSERT_TRUE(bytes.ok());
  ASSERT_EQ(*bytes, "one");  // landed, completion still held
  Completion c;
  ASSERT_FALSE(qp.PollCq(&c));
  fabric_.SetCompletionDelay(app_, peer_, 0);
  uint64_t later = qp.PostWrite(*rkey, 8, "two");
  Completion first = WaitCompletion(&qp);
  Completion second = WaitCompletion(&qp);
  EXPECT_EQ(first.wr_id, held);
  EXPECT_EQ(second.wr_id, later);
}

// The same, when the later WR lands at the very instant the held
// completion is due: the held one still surfaces first.
TEST_F(ChaosFabricTest, ClearedCompletionDelayKeepsCqOrderAtATie) {
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  // Two same-size WRs in one chain land one WR occupancy apart; a
  // completion delay of exactly that long makes the first one's
  // completion due when the second lands.
  fabric_.SetCompletionDelay(app_, peer_, params_.RdmaWrOccupancy(3));
  std::vector<uint64_t> ids =
      qp.PostWriteBatch({{*rkey, 0, "one"}, {*rkey, 8, "two"}});
  sim_.RunUntil(sim_.Now() + params_.RdmaWriteLatency(3));
  Completion c;
  ASSERT_FALSE(qp.PollCq(&c));  // the first landed, its completion held
  fabric_.SetCompletionDelay(app_, peer_, 0);
  Completion first = WaitCompletion(&qp);
  Completion second = WaitCompletion(&qp);
  EXPECT_EQ(first.wr_id, ids[0]);
  EXPECT_EQ(second.wr_id, ids[1]);
}

// The same, when the clock has passed the held completion's due time
// without running events (synchronous work such as posting overhead): a
// WR landing then, with no delay in force, still surfaces behind it.
TEST_F(ChaosFabricTest, HeldCompletionKeepsCqOrderPastItsDueTime) {
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  fabric_.SetCompletionDelay(app_, peer_, Micros(5));
  uint64_t held = qp.PostWrite(*rkey, 0, "one");
  sim_.RunUntil(sim_.Now() + params_.RdmaWriteLatency(3));
  Completion c;
  ASSERT_FALSE(qp.PollCq(&c));  // landed, its completion held
  fabric_.SetCompletionDelay(app_, peer_, 0);
  uint64_t later = qp.PostWrite(*rkey, 8, "two");
  // Past the held completion's due time and the later WR's delivery,
  // neither of which has run.
  sim_.Advance(Micros(10));
  Completion first = WaitCompletion(&qp);
  Completion second = WaitCompletion(&qp);
  EXPECT_EQ(first.wr_id, held);
  EXPECT_EQ(second.wr_id, later);
}

TEST_F(ChaosFabricTest, NicRetryWindowSurvivesHealedPartition) {
  params_.rdma.unreachable_retry_timeout = Millis(2);
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);  // established before the partition
  fabric_.PartitionFor(app_, peer_, Millis(1));
  qp.PostWrite(*rkey, 0, "retried");
  Completion c = WaitCompletion(&qp);
  // The partition healed inside the NIC retransmission window: no error
  // ever surfaced.
  EXPECT_EQ(c.status, WcStatus::kSuccess);
  EXPECT_GT(metrics_.CounterValue("fabric.wr.wr_retries"), 0u);
  EXPECT_EQ(metrics_.CounterValue("fabric.wr.wr_retry_recoveries"), 1u);
  auto bytes = fabric_.ReadRegion(peer_, *rkey, 0, 7);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "retried");
}

TEST_F(ChaosFabricTest, NicRetryWindowPreservesSqOrdering) {
  // A heal landing between retry ticks must not let a later WR (the
  // header) overtake the retrying head-of-line WR (the data) — §4.4's
  // correctness argument depends on SQ ordering.
  params_.rdma.unreachable_retry_timeout = Millis(2);
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  fabric_.PartitionFor(app_, peer_, Micros(120));
  qp.PostWrite(*rkey, 8, "data");
  qp.PostWrite(*rkey, 0, "hdr");
  std::vector<uint64_t> order;
  while (order.size() < 2) {
    Completion c = WaitCompletion(&qp);
    ASSERT_EQ(c.status, WcStatus::kSuccess);
    order.push_back(c.wr_id);
  }
  EXPECT_LT(order[0], order[1]);
  auto bytes = fabric_.ReadRegion(peer_, *rkey, 0, 12);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->substr(8, 4), "data");
  EXPECT_EQ(bytes->substr(0, 3), "hdr");
}

TEST_F(ChaosFabricTest, NicRetryWindowExhaustsToRetryExceeded) {
  params_.rdma.unreachable_retry_timeout = Millis(1);
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  fabric_.SetPartitioned(app_, peer_, true);
  qp.PostWrite(*rkey, 0, "lost");
  Completion c = WaitCompletion(&qp);
  EXPECT_EQ(c.status, WcStatus::kRetryExceeded);
}

// --------------------------------------------------- RetryPolicy basics --

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndClamps) {
  RetryPolicy policy = RetryPolicy::Transient(16, Seconds(10));
  policy.jitter = 0;  // deterministic for the assertion
  RetryState state(&policy, 0);
  Rng rng(1);
  SimTime prev = 0;
  for (int i = 0; i < 10; ++i) {
    SimTime b = state.NextBackoff(&rng);
    EXPECT_GE(b, prev);
    EXPECT_LE(b, policy.max_backoff);
    prev = b;
  }
  EXPECT_EQ(prev, policy.max_backoff);
}

TEST(RetryPolicyTest, DeadlineStopsRetries) {
  RetryPolicy policy = RetryPolicy::Transient(100, Millis(1));
  RetryState state(&policy, 0);
  EXPECT_TRUE(state.ShouldRetry(0));
  EXPECT_FALSE(state.ShouldRetry(Millis(1)));
}

TEST(RetryPolicyTest, LegacyPolicyNeverRetries) {
  RetryPolicy policy;  // defaults: max_attempts = 1
  RetryState state(&policy, 0);
  EXPECT_FALSE(state.ShouldRetry(0));
}

TEST(RetryPolicyTest, RetryUnderPolicyStartsTheClockAtTheFirstFailure) {
  // The first attempt alone outlasts the 1 ms deadline; the retries still
  // run because the deadline counts from the first failure.
  Simulation sim;
  RetryPolicy policy = RetryPolicy::Transient(100, Millis(1));
  policy.jitter = 0;
  Rng rng(1);
  Counter retries;
  int target = 7;
  int calls = 0;
  int* found = RetryUnderPolicy(
      &sim, policy, &rng,
      [&]() -> int* {
        sim.Advance(++calls == 1 ? Millis(2) : Micros(100));
        return calls == 3 ? &target : nullptr;
      },
      [](const int* p) { return p == nullptr; }, &retries);
  EXPECT_EQ(found, &target);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries.value(), 2u);
  // 2 ms + 250 us + 100 us + 500 us + 100 us of unjittered backoff and work.
  EXPECT_EQ(sim.Now(), Millis(2) + Micros(950));
}

// ----------------------------------------------- Client-side transients --

constexpr uint64_t kLend = 512ull << 20;

class ChaosNclTest : public ::testing::Test {
 protected:
  ChaosNclTest() : fabric_(&sim_, &params_), controller_(&sim_, &params_) {
    app_node_ = fabric_.AddNode("app-server");
  }

  // Client fault counters land in the fixture registry ("ncl.client.*");
  // every client this fixture makes shares it, so values aggregate.
  uint64_t ClientCounter(const std::string& name) {
    return metrics_.CounterValue("ncl.client." + name);
  }

  void StartPeers(int n, uint64_t lend = kLend) {
    for (int i = 0; i < n; ++i) {
      auto peer = std::make_unique<LogPeer>("p" + std::to_string(i), &fabric_,
                                            &controller_, lend);
      EXPECT_TRUE(peer->Start().ok());
      directory_.Register(peer.get());
      peers_.push_back(std::move(peer));
    }
  }

  NclConfig TransientConfig() {
    NclConfig config;
    config.app_id = "chaos-test";
    config.default_capacity = 1 << 20;
    config.retry = RetryPolicy::Transient(8, Millis(20));
    return config;
  }

  std::unique_ptr<NclClient> MakeClient(NclConfig config) {
    return std::make_unique<NclClient>(config, &fabric_, &controller_,
                                       &directory_, app_node_,
                                       ObsContext{&metrics_, nullptr});
  }

  LogPeer* PeerNamed(const std::string& name) {
    return directory_.Lookup(name);
  }

  Simulation sim_;
  SimParams params_;
  MetricsRegistry metrics_;
  Fabric fabric_;
  Controller controller_;
  PeerDirectory directory_;
  std::vector<std::unique_ptr<LogPeer>> peers_;
  NodeId app_node_;
};

TEST_F(ChaosNclTest, PartitionHealingWithinDeadlineAvoidsReplacement) {
  StartPeers(3);
  auto client = MakeClient(TransientConfig());
  auto file = client->Create("wal");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("before").ok());

  // Cut the app's links to a majority of the peers; both heal inside the
  // 20 ms retry deadline. The in-flight append must complete without any
  // peer being demoted or replaced.
  for (const std::string& name : (*file)->peer_names()) {
    LogPeer* peer = PeerNamed(name);
    if (peer != peers_[2].get()) {
      fabric_.PartitionFor(app_node_, peer->node(), Millis(3));
    }
  }
  ASSERT_TRUE((*file)->Append("during-partition").ok());
  EXPECT_GE(ClientCounter("suspect_retries"), 2u);
  EXPECT_GE(ClientCounter("transient_recoveries"), 1u);

  // The append returns once a majority acked, so the second suspect may
  // still be mid-resurrection; retries are driven from inside Append, so a
  // few more appends spaced out in virtual time drive it home.
  for (int i = 0; i < 5 && ClientCounter("transient_recoveries") < 2; ++i) {
    sim_.RunUntil(sim_.Now() + Millis(2));
    ASSERT_TRUE((*file)->Append("after").ok());
  }
  EXPECT_EQ(client->peers_replaced(), 0);
  EXPECT_EQ(ClientCounter("permanent_demotions"), 0u);
  EXPECT_EQ(ClientCounter("transient_recoveries"), 2u);
  EXPECT_EQ((*file)->alive_peers(), 3);
  EXPECT_TRUE((*file)->Delete().ok());
}

TEST_F(ChaosNclTest, PartitionOutlastingDeadlineTriggersReplacement) {
  StartPeers(5);  // 3 assigned + 2 spares for replacement
  NclConfig config = TransientConfig();
  config.retry = RetryPolicy::Transient(8, Millis(5));
  auto client = MakeClient(config);
  auto file = client->Create("wal");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("before").ok());

  // Partition two of the three assigned peers for far longer than the
  // 5 ms retry deadline: the policy exhausts, both are demoted, and the
  // existing replacement path restores the quorum.
  int cut = 0;
  for (const std::string& name : (*file)->peer_names()) {
    if (cut == 2) {
      break;
    }
    fabric_.PartitionFor(app_node_, PeerNamed(name)->node(), Millis(500));
    cut++;
  }
  ASSERT_TRUE((*file)->Append("during-partition").ok());
  EXPECT_EQ(client->peers_replaced(), 2);
  EXPECT_EQ(ClientCounter("permanent_demotions"), 2u);
  EXPECT_GE(ClientCounter("suspect_retries"), 2u);
  EXPECT_EQ((*file)->alive_peers(), 3);
}

TEST_F(ChaosNclTest, LegacyPolicyStillReplacesImmediately) {
  StartPeers(4);
  NclConfig config;
  config.app_id = "chaos-test";
  config.default_capacity = 1 << 20;  // default policy: max_attempts = 1
  auto client = MakeClient(config);
  auto file = client->Create("wal");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());

  PeerNamed((*file)->peer_names()[0])->Crash();
  ASSERT_TRUE((*file)->Append("y").ok());
  EXPECT_EQ(client->peers_replaced(), 1);
  EXPECT_EQ(ClientCounter("permanent_demotions"), 1u);
  EXPECT_EQ(ClientCounter("suspect_retries"), 0u);
}

TEST_F(ChaosNclTest, ControllerOutageRetriedUntilHeal) {
  StartPeers(3);
  auto client = MakeClient(TransientConfig());
  controller_.OutageFor(Millis(4));
  // Create's first controller RPC lands inside the outage window and is
  // retried under the policy until the window closes.
  auto file = client->Create("wal");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_GT(ClientCounter("controller_rpc_retries"), 0u);
  ASSERT_TRUE((*file)->Append("x").ok());
}

TEST_F(ChaosNclTest, ControllerOutageOutlastingDeadlineFails) {
  StartPeers(3);
  NclConfig config = TransientConfig();
  config.retry = RetryPolicy::Transient(4, Millis(5));
  auto client = MakeClient(config);
  controller_.OutageFor(Seconds(1));
  auto file = client->Create("wal");
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kTimedOut);
}

TEST_F(ChaosNclTest, UnreachableSetupProcessRetriedDuringRecovery) {
  StartPeers(3);
  auto client = MakeClient(TransientConfig());
  {
    auto file = client->Create("wal");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("payload").ok());
    // Drop the handle without releasing: the application crashed.
  }

  // p0's setup process is unreachable for 2 ms — well within the retry
  // deadline. Recovery must retry the lookup instead of treating p0 as
  // crashed and replacing it.
  directory_.SetUnreachable("p0", true);
  sim_.Schedule(Millis(2), [this] { directory_.SetUnreachable("p0", false); });

  auto recovered = MakeClient(TransientConfig());
  auto file = recovered->Recover("wal");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_GT(ClientCounter("directory_lookup_retries"), 0u);
  EXPECT_EQ(recovered->peers_replaced(), 0);
  EXPECT_EQ((*file)->alive_peers(), 3);
  auto contents = (*file)->Read(0, (*file)->size());
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "payload");
}

TEST_F(ChaosNclTest, UnreachableSetupProcessWithLegacyPolicyIsReplaced) {
  StartPeers(4);
  NclConfig config;
  config.app_id = "chaos-test";
  config.default_capacity = 1 << 20;
  auto client = MakeClient(config);
  {
    auto file = client->Create("wal");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("payload").ok());
  }

  directory_.SetUnreachable("p0", true);
  auto recovered = MakeClient(config);
  auto file = recovered->Recover("wal");
  ASSERT_TRUE(file.ok());
  // Legacy semantics: the first nullptr lookup is final; p0 was replaced.
  EXPECT_EQ(recovered->peers_replaced(), 1);
  EXPECT_EQ(ClientCounter("directory_lookup_retries"), 0u);
}

TEST_F(ChaosNclTest, ReleaseFailureIsCountedNotSwallowed) {
  StartPeers(3);
  auto client = MakeClient(TransientConfig());
  auto file = client->Create("wal");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x").ok());

  // p0 crashes and restarts between the last append and the delete: it is
  // alive but lost its mr-map, so Release fails — previously that error
  // was silently discarded.
  LogPeer* p0 = PeerNamed((*file)->peer_names()[0]);
  p0->Crash();
  ASSERT_TRUE(p0->Restart().ok());
  EXPECT_TRUE((*file)->Delete().ok());
  EXPECT_EQ(ClientCounter("release_failures"), 1u);
}

TEST_F(ChaosNclTest, TransientPartitionMidWindowRepostsUnackedSuffix) {
  // A peer drops out in the middle of a pipelined burst and heals within
  // the retry deadline: the resurrection must repost only the unacked
  // suffix of the window (not the full region), and nothing acked is lost.
  StartPeers(3);
  NclConfig config = TransientConfig();
  config.inflight_window = 8;
  auto client = MakeClient(config);
  auto file = client->Create("wal");
  ASSERT_TRUE(file.ok());
  std::string expect;
  auto burst = [&](int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      std::string rec = "r" + std::to_string(i) + ";";
      ASSERT_TRUE((*file)->AppendAsync(rec).ok());
      expect += rec;
    }
  };
  burst(0, 10);
  std::string victim = (*file)->peer_names()[0];
  fabric_.PartitionFor(app_node_, PeerNamed(victim)->node(), Millis(3));
  burst(10, 20);
  ASSERT_TRUE((*file)->Drain().ok());

  // Drive the resurrection home: retries run inside client calls.
  for (int i = 0; i < 8 && ClientCounter("transient_recoveries") < 1; ++i) {
    sim_.RunUntil(sim_.Now() + Millis(2));
    ASSERT_TRUE((*file)->Append("x").ok());
    expect += "x";
  }
  EXPECT_GE(ClientCounter("suffix_reposts"), 1u);
  EXPECT_GE(ClientCounter("transient_recoveries"), 1u);
  EXPECT_EQ(client->peers_replaced(), 0);
  EXPECT_EQ((*file)->alive_peers(), 3);
  auto contents = (*file)->Read(0, (*file)->size());
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, expect);
}

TEST_F(ChaosNclTest, PeerKilledMidWindowIsDemotedWithoutLosingAckedAppends) {
  // A peer dies for good in the middle of a pipelined burst: the slot is
  // demoted and replaced, the burst completes, and recovery after an app
  // crash still finds every committed append.
  StartPeers(4);
  NclConfig config;
  config.app_id = "chaos-test";
  config.default_capacity = 1 << 20;
  config.inflight_window = 8;
  std::string expect;
  {
    auto client = MakeClient(config);
    auto file = client->Create("wal");
    ASSERT_TRUE(file.ok());
    for (int i = 0; i < 10; ++i) {
      std::string rec = "r" + std::to_string(i) + ";";
      ASSERT_TRUE((*file)->AppendAsync(rec).ok());
      expect += rec;
    }
    PeerNamed((*file)->peer_names()[0])->Crash();
    for (int i = 10; i < 20; ++i) {
      std::string rec = "r" + std::to_string(i) + ";";
      ASSERT_TRUE((*file)->AppendAsync(rec).ok());
      expect += rec;
    }
    ASSERT_TRUE((*file)->Drain().ok());
    EXPECT_EQ((*file)->committed_seq(), (*file)->seq());
    EXPECT_GE(ClientCounter("permanent_demotions"), 1u);
    EXPECT_GE(client->peers_replaced(), 1);
    auto contents = (*file)->Read(0, (*file)->size());
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(*contents, expect);
    // The app crashes without a clean shutdown.
  }
  sim_.RunUntilIdle();
  auto client2 = MakeClient(config);
  auto recovered = client2->Recover("wal");
  ASSERT_TRUE(recovered.ok());
  auto contents = (*recovered)->Read(0, (*recovered)->size());
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, expect) << "acked appends lost across kill + crash";
}

// ------------------------------------------------ ChaosEngine + Testbed --

TEST(ChaosEngineTest, InjectsAndHealsAgainstTestbed) {
  TestbedOptions options;
  options.num_peers = 4;
  Testbed testbed(options);

  ChaosEngine engine(testbed.chaos_targets());

  FaultPlan plan;
  plan.Add({Millis(1), FaultKind::kTransientPartition, 0, Millis(50), 0});
  plan.Add({Millis(2), FaultKind::kControllerOutage, -1, Millis(50), 0});
  plan.Add({Millis(3), FaultKind::kPeerUnreachable, 1, Millis(50), 0});
  plan.Add({Millis(4), FaultKind::kLinkDelaySpike, 2, Millis(50), Micros(200)});
  engine.Schedule(plan);
  testbed.sim()->RunUntil(testbed.sim()->Now() + Millis(5));

  EXPECT_EQ(engine.faults_injected(), 4);
  EXPECT_TRUE(testbed.fabric()->IsPartitioned(testbed.app_node(),
                                              testbed.peer(0)->node()));
  EXPECT_TRUE(testbed.controller()->unavailable());
  EXPECT_EQ(testbed.directory()->Lookup(testbed.peer(1)->name()), nullptr);
  EXPECT_GT(testbed.fabric()->LinkDelay(testbed.app_node(),
                                        testbed.peer(2)->node()),
            0);

  engine.Quiesce();
  EXPECT_FALSE(testbed.fabric()->IsPartitioned(testbed.app_node(),
                                               testbed.peer(0)->node()));
  EXPECT_FALSE(testbed.controller()->unavailable());
  EXPECT_NE(testbed.directory()->Lookup(testbed.peer(1)->name()), nullptr);
  EXPECT_EQ(testbed.fabric()->LinkDelay(testbed.app_node(),
                                        testbed.peer(2)->node()),
            0);
}

// ------------------------------------------- Fig 12 promoted to a ctest --

// The bench's failure script (two simultaneous peer crashes — quorum loss —
// then a third crash) as a correctness test: writes keep succeeding, the
// dead peers are replaced, and a post-crash recovery finds every write.
TEST(Fig12ScenarioTest, DoubleCrashQuorumLossReplacementAndRecovery) {
  TestbedOptions options;
  options.num_peers = 6;  // 3 assigned + spares for replacement
  Testbed testbed(options);
  auto server = testbed.MakeServer("fig12", {.ncl_capacity = 8ull << 20});
  KvStoreOptions kv_options;
  kv_options.mode = DurabilityMode::kSplitFt;
  kv_options.wal_capacity = 8ull << 20;
  auto store = testbed.StartKvStore(server.get(), kv_options);
  ASSERT_TRUE(store.ok());

  auto put_range = [&](int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      ASSERT_TRUE((*store)
                      ->Put("k" + std::to_string(i), "v" + std::to_string(i))
                      .ok());
    }
  };
  put_range(0, 100);

  // Two peers crash simultaneously: the quorum is lost and the next write
  // stalls until a replacement is caught up (§4.5.2 / Fig 12).
  testbed.peer(0)->Crash();
  testbed.peer(1)->Crash();
  put_range(100, 200);
  EXPECT_GE(server->fs->ncl()->peers_replaced(), 2);

  // One more crash: no quorum loss, just a blip.
  testbed.peer(2)->Crash();
  put_range(200, 300);
  EXPECT_GE(server->fs->ncl()->peers_replaced(), 3);

  // The server process dies; a fresh instance recovers from the surviving
  // peers. Every acknowledged write must be there.
  testbed.CrashServer(server.get());
  auto server2 = testbed.MakeServer("fig12", {.ncl_capacity = 8ull << 20});
  auto store2 = testbed.StartKvStore(server2.get(), kv_options);
  ASSERT_TRUE(store2.ok());
  for (int i = 0; i < 300; i += 37) {
    auto got = (*store2)->Get("k" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "k" << i;
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
}

// ----------------------------------------------------------- Campaign --

TEST(ChaosCampaignTest, TwoHundredSeededSchedulesNoViolations) {
  CampaignOptions options;
  options.seed_from_env = false;  // the test always sweeps all seeds
  ASSERT_GE(options.runs, 200);
  CampaignResult result = RunChaosCampaign(options);

  for (const CampaignViolation& v : result.violations) {
    ADD_FAILURE() << "invariant '" << v.invariant << "' violated by seed "
                  << v.seed << ": " << v.detail
                  << "\nreproduce with SPLITFT_SEED=" << v.seed
                  << "\nschedule:\n"
                  << v.schedule;
  }
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.stats.runs, options.runs);

  // The sweep exercised the interesting machinery, not just happy paths.
  EXPECT_GT(result.stats.faults_injected, 0);
  EXPECT_GT(result.stats.appends_acked, 0);
  EXPECT_GT(result.stats.recoveries_ok, 0);
  EXPECT_GT(result.stats.peers_replaced, 0);
  EXPECT_GT(result.stats.suspect_retries, 0u);
  EXPECT_GT(result.stats.transient_recoveries, 0u);
  EXPECT_GT(result.stats.permanent_demotions, 0u);
  EXPECT_GT(result.stats.controller_rpc_retries, 0u);
}

TEST(ChaosCampaignTest, MixedPlannedAndUnplannedSchedulesNoViolations) {
  // Every seeded fault schedule now composes with a seeded *planned*
  // reconfiguration schedule (peer drains with live region migration,
  // re-activations) on the same virtual-time line. The invariants are
  // unchanged: planned operations must never lose acknowledged appends,
  // regress the committed prefix, or wedge the workload.
  CampaignOptions options;
  options.seed_from_env = false;
  options.with_reconfig = true;
  ASSERT_GE(options.runs, 200);
  CampaignResult result = RunChaosCampaign(options);

  for (const CampaignViolation& v : result.violations) {
    ADD_FAILURE() << "invariant '" << v.invariant << "' violated by seed "
                  << v.seed << ": " << v.detail
                  << "\nreproduce with SPLITFT_SEED=" << v.seed
                  << "\nschedule:\n"
                  << v.schedule;
  }
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.stats.runs, options.runs);

  // The planned machinery actually ran: across 200 seeds some drains
  // completed with real region migrations, and some were skipped because
  // they raced injected faults (dead peer, too few active peers).
  EXPECT_GT(result.stats.reconfig_ops_completed, 0);
  EXPECT_GT(result.stats.reconfig_ops_skipped, 0);
  EXPECT_GT(result.stats.regions_migrated, 0);
  // And the unplanned machinery still fired alongside it.
  EXPECT_GT(result.stats.faults_injected, 0);
  EXPECT_GT(result.stats.peers_replaced, 0);
  EXPECT_GT(result.stats.recoveries_ok, 0);
}

TEST(ChaosCampaignTest, SeedEnvOverrideRunsSingleSchedule) {
  CampaignOptions options;
  options.runs = 50;
  ASSERT_EQ(setenv("SPLITFT_SEED", "12345", 1), 0);
  CampaignResult result = RunChaosCampaign(options);
  unsetenv("SPLITFT_SEED");
  EXPECT_EQ(result.stats.runs, 1);
  EXPECT_TRUE(result.ok());
}

}  // namespace
}  // namespace splitft
