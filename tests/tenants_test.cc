// Multi-tenant pooled NCL fabric (DESIGN.md §14): many clients on one
// node share a NclConnectionPool — peer QPs are multiplexed onto a small
// set of lanes and every tenant carves its append window from one shared
// in-flight budget. These tests cover the pool lifecycle, the fairness
// carve, the testbed integration, and the mass re-registration storm: a
// pooled peer crash hits every resident tenant at once, and all of them
// must replace their dead slot without losing an acked append or
// stampeding the controller.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/controller/controller.h"
#include "src/harness/testbed.h"
#include "src/ncl/connection_pool.h"
#include "src/ncl/ncl_client.h"
#include "src/ncl/peer.h"
#include "src/ncl/peer_directory.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/rdma/fabric.h"
#include "src/sim/params.h"
#include "src/sim/simulation.h"

namespace splitft {
namespace {

constexpr uint64_t kLend = 512ull << 20;

class TenantsTest : public ::testing::Test {
 protected:
  TenantsTest() : fabric_(&sim_, &params_), controller_(&sim_, &params_) {
    app_node_ = fabric_.AddNode("app-server");
    pool_ = std::make_unique<NclConnectionPool>(
        &fabric_, app_node_, NclPoolOptions{}, ObsContext{&metrics_, nullptr});
  }

  void StartPeers(int n, uint64_t lend = kLend) {
    for (int i = 0; i < n; ++i) {
      AddPeer("p" + std::to_string(i), lend);
    }
  }

  LogPeer* AddPeer(const std::string& name, uint64_t lend = kLend) {
    auto peer = std::make_unique<LogPeer>(name, &fabric_, &controller_, lend,
                                          ObsContext{&metrics_, nullptr});
    EXPECT_TRUE(peer->Start().ok());
    directory_.Register(peer.get());
    peers_.push_back(std::move(peer));
    return peers_.back().get();
  }

  // A tenant client drawing its QPs from the shared pool.
  std::unique_ptr<NclClient> MakeTenant(const std::string& app_id) {
    NclConfig config;
    config.app_id = app_id;
    config.default_capacity = 64 << 10;
    config.pool = pool_.get();
    return std::make_unique<NclClient>(config, &fabric_, &controller_,
                                       &directory_, app_node_,
                                       ObsContext{&metrics_, nullptr});
  }

  uint64_t ClientCounter(const std::string& name) {
    return metrics_.CounterValue("ncl.client." + name);
  }

  Simulation sim_;
  SimParams params_;
  MetricsRegistry metrics_;
  Fabric fabric_;
  Controller controller_;
  PeerDirectory directory_;
  std::vector<std::unique_ptr<LogPeer>> peers_;
  NodeId app_node_;
  std::unique_ptr<NclConnectionPool> pool_;
};

TEST_F(TenantsTest, SharedBudgetCarvesPerTenantWindows) {
  StartPeers(3);
  const int budget = NclConnectionPool::kSharedInflightBudget;
  EXPECT_EQ(pool_->clients(), 0);
  EXPECT_EQ(pool_->per_client_window(), budget);

  std::vector<std::unique_ptr<NclClient>> tenants;
  for (int i = 0; i < 16; ++i) {
    tenants.push_back(MakeTenant("tenant-" + std::to_string(i)));
    EXPECT_EQ(pool_->clients(), i + 1);
    EXPECT_EQ(pool_->per_client_window(),
              std::max(1, budget / (i + 1)));
  }
  // Far past the budget the carve floors at 1, never 0.
  for (int i = 16; i < budget + 8; ++i) {
    tenants.push_back(MakeTenant("tenant-" + std::to_string(i)));
  }
  EXPECT_EQ(pool_->per_client_window(), 1);

  tenants.clear();
  EXPECT_EQ(pool_->clients(), 0);
}

TEST_F(TenantsTest, ManyTenantsMultiplexOntoBoundedQps) {
  StartPeers(3);
  const int tenants_n = 24;
  std::vector<std::unique_ptr<NclClient>> tenants;
  std::vector<std::unique_ptr<NclFile>> files;
  for (int i = 0; i < tenants_n; ++i) {
    tenants.push_back(MakeTenant("tenant-" + std::to_string(i)));
    auto file = tenants.back()->Create("wal");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE((*file)->Append("hello-" + std::to_string(i)).ok());
    files.push_back(std::move(*file));
  }
  // 24 tenants x 3 slots = 72 handles, but at most qps_per_peer lanes per
  // remote actually exist — QP state no longer scales with tenant count.
  size_t max_qps = static_cast<size_t>(pool_->options().qps_per_peer) *
                   peers_.size();
  EXPECT_LE(pool_->open_qps(), max_qps);
  EXPECT_GE(metrics_.CounterValue("ncl.pool.warm_connects"), 1u);
  // Only the first QP toward each remote pays the cold handshake.
  EXPECT_EQ(metrics_.CounterValue("ncl.pool.cold_connects"), peers_.size());

  // Every tenant's data is readable through the shared lanes.
  for (int i = 0; i < tenants_n; ++i) {
    auto contents = files[i]->Read(0, files[i]->size());
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(*contents, "hello-" + std::to_string(i));
  }
}

TEST_F(TenantsTest, PooledPeerCrashMassReRegistration) {
  // Every tenant is resident on all three peers; a fourth spare comes up
  // before the crash so replacements have somewhere to land.
  StartPeers(3);
  const int tenants_n = 32;
  std::vector<std::unique_ptr<NclClient>> tenants;
  std::vector<std::unique_ptr<NclFile>> files;
  std::vector<std::string> oracle(tenants_n);
  for (int i = 0; i < tenants_n; ++i) {
    tenants.push_back(MakeTenant("tenant-" + std::to_string(i)));
    auto file = tenants.back()->Create("wal");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    for (int k = 0; k < 4; ++k) {
      std::string rec = "t" + std::to_string(i) + "r" + std::to_string(k) +
                        ";";
      ASSERT_TRUE((*file)->Append(rec).ok());
      oracle[i] += rec;
    }
    files.push_back(std::move(*file));
  }
  AddPeer("spare");

  // The pooled peer dies: every tenant's slot on it errors, and each
  // tenant must re-register onto the spare. Shared lanes mean one tenant's
  // hard error surfaces as collateral flushes for its co-tenants — the
  // pool rewrites those so innocents take the normal demotion path too.
  uint64_t rpcs_before = controller_.rpc_count();
  peers_[0]->Crash();
  for (int i = 0; i < tenants_n; ++i) {
    std::string rec = "post-crash-" + std::to_string(i) + ";";
    ASSERT_TRUE(files[i]->Append(rec).ok()) << "tenant " << i;
    oracle[i] += rec;
  }

  // Zero lost acked appends: every tenant's full history reads back.
  for (int i = 0; i < tenants_n; ++i) {
    EXPECT_EQ(files[i]->alive_peers(), 3) << "tenant " << i;
    EXPECT_EQ(tenants[i]->peers_replaced(), 1) << "tenant " << i;
    auto contents = files[i]->Read(0, files[i]->size());
    ASSERT_TRUE(contents.ok()) << "tenant " << i;
    EXPECT_EQ(*contents, oracle[i]) << "tenant " << i;
  }

  // The re-registration storm stays bounded: no retry loops against the
  // healthy controller, and the per-tenant RPC cost is a small constant
  // (epoch bump + peer lookup + allocation + ap-map update, not a
  // stampede that grows with pool occupancy).
  EXPECT_EQ(ClientCounter("controller_rpc_retries"), 0u);
  uint64_t rpc_delta = controller_.rpc_count() - rpcs_before;
  EXPECT_LE(rpc_delta, static_cast<uint64_t>(tenants_n) * 8);
  EXPECT_EQ(ClientCounter("permanent_demotions"),
            static_cast<uint64_t>(tenants_n));
}

TEST_F(TenantsTest, CollateralFlushesRewrittenForCoTenants) {
  // Two tenants pinned to the same lane toward a peer: when the first
  // tenant's WR errors the lane, the second tenant's posts complete as
  // flushes and must be rewritten (kRetryExceeded), not surfaced as the
  // other tenant's error.
  StartPeers(3);
  auto a = MakeTenant("tenant-a");
  auto b = MakeTenant("tenant-b");
  auto fa = a->Create("wal");
  auto fb = b->Create("wal");
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  ASSERT_TRUE((*fa)->Append("a0").ok());
  ASSERT_TRUE((*fb)->Append("b0").ok());

  AddPeer("spare");
  peers_[0]->Crash();
  ASSERT_TRUE((*fa)->Append("a1").ok());
  ASSERT_TRUE((*fb)->Append("b1").ok());
  EXPECT_EQ((*fa)->alive_peers(), 3);
  EXPECT_EQ((*fb)->alive_peers(), 3);
  auto ca = (*fa)->Read(0, (*fa)->size());
  auto cb = (*fb)->Read(0, (*fb)->size());
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  EXPECT_EQ(*ca, "a0a1");
  EXPECT_EQ(*cb, "b0b1");
}

// ------------------------------------------------- Completion-driven pool --

// Posts one write on `h` into `rkey`, runs the fabric dry and expects the
// write's completion to be the only one `h` sees.
void ExpectWriteRoundTrip(Simulation* sim, PooledQp* h, RKey rkey,
                          const std::string& what) {
  uint64_t wr = h->PostWrite(rkey, 0, "x");
  sim->RunUntilIdle();
  Completion c;
  ASSERT_TRUE(h->PollCq(&c)) << what;
  EXPECT_EQ(c.wr_id, wr) << what;
  EXPECT_EQ(c.status, WcStatus::kSuccess) << what;
  EXPECT_FALSE(h->PollCq(&c)) << what;
  EXPECT_EQ(h->Outstanding(), 0u) << what;
}

TEST_F(TenantsTest, HandlesSurviveLaneGrowthAndRepair) {
  // Handles hold their lane directly, so growing a remote from one lane to
  // qps_per_peer lanes, and repairing a lane, must never move one.
  const NodeId remote = fabric_.AddNode("remote");
  auto region = fabric_.RegisterRegion(remote, 1 << 20);
  ASSERT_TRUE(region.ok());
  const int lanes = pool_->options().qps_per_peer;
  std::vector<std::unique_ptr<PooledQp>> handles;
  for (int i = 0; i < 2 * lanes + 1; ++i) {
    handles.push_back(pool_->Connect(remote));
    for (size_t h = 0; h < handles.size(); ++h) {
      ExpectWriteRoundTrip(&sim_, handles[h].get(), *region,
                           "handle " + std::to_string(h) + " after connect " +
                               std::to_string(i));
    }
  }
  EXPECT_EQ(pool_->open_qps(), static_cast<size_t>(lanes));

  // Break the lane the next Connect lands on (the round-robin is back at
  // lane 1: handle 1 and every lanes-th one after it share it), then let
  // that Connect repair it.
  PooledQp* victim = handles[1].get();
  victim->PostWrite(*region + 1000, 0, "bad rkey");
  sim_.RunUntilIdle();
  ASSERT_TRUE(victim->in_error_state());
  Completion c;
  ASSERT_TRUE(victim->PollCq(&c));
  EXPECT_EQ(c.status, WcStatus::kRemoteAccessError);
  handles.push_back(pool_->Connect(remote));
  EXPECT_EQ(metrics_.CounterValue("ncl.pool.lane_repairs"), 1u);
  EXPECT_FALSE(victim->in_error_state());
  for (size_t h = 0; h < handles.size(); ++h) {
    ExpectWriteRoundTrip(&sim_, handles[h].get(), *region,
                         "handle " + std::to_string(h) + " after repair");
  }
}

TEST_F(TenantsTest, RetiredQpCompletionsSurfaceBeforeLiveOnes) {
  // One lane, so every Connect lands on it. The owner's WRs straddle a
  // repair: one is still in flight on the errored (retired) QP when the
  // next WR goes to the fresh live QP and lands first. The owner must
  // still see them in post order — retired QP before live QP.
  NclPoolOptions one_lane;
  one_lane.qps_per_peer = 1;
  NclConnectionPool pool(&fabric_, app_node_, one_lane);
  const NodeId remote = fabric_.AddNode("remote");
  auto region = fabric_.RegisterRegion(remote, 1 << 20);
  ASSERT_TRUE(region.ok());

  auto owner = pool.Connect(remote);
  uint64_t bad = owner->PostWrite(*region + 1000, 0, "bad rkey");
  sim_.RunUntilIdle();
  ASSERT_TRUE(owner->in_error_state());
  // Large, so it completes (as a flush) well after the small write below.
  uint64_t straddler =
      owner->PostWrite(*region, 0, std::string(256 << 10, 'r'));
  auto repairer = pool.Connect(remote);  // retires the errored QP
  ASSERT_FALSE(owner->in_error_state());
  EXPECT_EQ(pool.open_qps(), 2u);  // live + retired
  uint64_t live = owner->PostWrite(*region, 0, "l");
  sim_.RunUntilIdle();

  std::vector<std::pair<uint64_t, WcStatus>> seen;
  Completion c;
  while (owner->PollCq(&c)) {
    seen.emplace_back(c.wr_id, c.status);
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], std::make_pair(bad, WcStatus::kRemoteAccessError));
  // The owner hit the real error itself, so its flush is not rewritten.
  EXPECT_EQ(seen[1], std::make_pair(straddler, WcStatus::kFlushError));
  EXPECT_EQ(seen[2], std::make_pair(live, WcStatus::kSuccess));
  EXPECT_EQ(pool.open_qps(), 1u);  // the drained retired QP is gone
}

TEST_F(TenantsTest, SharedLaneReadLandsInItsOwnBufferBesideWrites) {
  // One lane, two handles: a reader's READ and a writer's WRITEs share
  // the QP's CQ. The READ's bytes reach only the reader, in the very
  // storage of the landing buffer it posted; the writer's completions
  // carry no READ bytes; and a reader's real error still turns the
  // writer's collateral flush into kRetryExceeded.
  NclPoolOptions one_lane;
  one_lane.qps_per_peer = 1;
  NclConnectionPool pool(&fabric_, app_node_, one_lane);
  const NodeId remote = fabric_.AddNode("remote");
  auto region = fabric_.RegisterRegion(remote, 1 << 20);
  ASSERT_TRUE(region.ok());
  const std::string image(3000, 'r');
  ASSERT_TRUE(fabric_.WriteRegion(remote, *region, 4096, image).ok());
  auto reader = pool.Connect(remote);
  auto writer = pool.Connect(remote);

  std::string landing(8192, 's');
  const char* storage = landing.data();
  uint64_t w0 = writer->PostWrite(*region, 0, "w0");
  uint64_t rd = reader->PostRead(*region, 4096, image.size(),
                                 std::move(landing));
  uint64_t w1 = writer->PostWrite(*region, 16, std::string(512, 'w'));
  sim_.RunUntilIdle();

  Completion c;
  ASSERT_TRUE(reader->PollCq(&c));
  EXPECT_EQ(c.wr_id, rd);
  ASSERT_EQ(c.status, WcStatus::kSuccess);
  ASSERT_NE(c.read_data, nullptr);
  EXPECT_EQ(*c.read_data, image);
  EXPECT_EQ(c.read_data->data(), storage);
  EXPECT_FALSE(reader->PollCq(&c));
  std::vector<uint64_t> writes;
  while (writer->PollCq(&c)) {
    EXPECT_EQ(c.status, WcStatus::kSuccess);
    EXPECT_EQ(c.read_data, nullptr);
    writes.push_back(c.wr_id);
  }
  EXPECT_EQ(writes, (std::vector<uint64_t>{w0, w1}));

  // The reader's READ of a bad rkey errors the lane; the writer's WRITE
  // posted behind it is flushed.
  uint64_t bad = reader->PostRead(*region + 1000, 0, 64, std::string(64, 's'));
  sim_.RunUntilIdle();
  uint64_t w2 = writer->PostWrite(*region, 0, "w2");
  sim_.RunUntilIdle();
  ASSERT_TRUE(reader->PollCq(&c));
  EXPECT_EQ(c.wr_id, bad);
  EXPECT_EQ(c.status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(c.read_data, nullptr);
  ASSERT_TRUE(writer->PollCq(&c));
  EXPECT_EQ(c.wr_id, w2);
  EXPECT_EQ(c.status, WcStatus::kRetryExceeded);
  EXPECT_EQ(c.read_data, nullptr);
  EXPECT_EQ(pool.flush_rewrites(), 1u);
}

TEST_F(TenantsTest, SharedLaneReadThenWriteExecutesInPostOrder) {
  // Two handles pinned to one lane: a READ posted by one handle and then a
  // WRITE to the same bytes posted by the other ride one QP, so RC order
  // executes the READ first — it returns the old bytes, and its completion
  // surfaces before the WRITE's.
  NclPoolOptions one_lane;
  one_lane.qps_per_peer = 1;
  NclConnectionPool pool(&fabric_, app_node_, one_lane);
  const NodeId remote = fabric_.AddNode("remote");
  auto region = fabric_.RegisterRegion(remote, 4096);
  ASSERT_TRUE(region.ok());
  ASSERT_TRUE(fabric_.WriteRegion(remote, *region, 64, "old").ok());
  auto reader = pool.Connect(remote);
  auto writer = pool.Connect(remote);

  uint64_t rd = reader->PostRead(*region, 64, 3);
  uint64_t wr = writer->PostWrite(*region, 64, "new");
  std::vector<std::string> order;
  Completion c;
  while (order.size() < 2 && sim_.RunOne()) {
    if (reader->PollCq(&c)) {
      EXPECT_EQ(c.wr_id, rd);
      ASSERT_EQ(c.status, WcStatus::kSuccess);
      ASSERT_NE(c.read_data, nullptr);
      EXPECT_EQ(*c.read_data, "old");
      order.push_back("read");
    }
    if (writer->PollCq(&c)) {
      EXPECT_EQ(c.wr_id, wr);
      EXPECT_EQ(c.status, WcStatus::kSuccess);
      order.push_back("write");
    }
  }
  EXPECT_EQ(order, (std::vector<std::string>{"read", "write"}));
  EXPECT_EQ(*fabric_.ReadRegion(remote, *region, 64, 3), "new");
  EXPECT_EQ(pool.open_qps(), 1u);
}

TEST_F(TenantsTest, BurstDrainsLanesAtMostOncePerCompletion) {
  // A lane is drained only after a completion landed on it, so 32 tenants
  // sharing lanes cost at most one drain per completion — not one per
  // tenant poll.
  StartPeers(3);
  const int tenants_n = 32;
  std::vector<std::unique_ptr<NclClient>> tenants;
  std::vector<std::unique_ptr<NclFile>> files;
  for (int i = 0; i < tenants_n; ++i) {
    tenants.push_back(MakeTenant("tenant-" + std::to_string(i)));
    auto file = tenants.back()->Create("wal");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    files.push_back(std::move(*file));
  }
  const uint64_t drains0 = pool_->lane_drains();
  const uint64_t routed0 = pool_->completions_routed();
  for (int round = 0; round < 4; ++round) {
    for (auto& file : files) {
      ASSERT_TRUE(file->AppendAsync("burst-record").ok());
    }
  }
  for (auto& file : files) {
    ASSERT_TRUE(file->Drain().ok());
  }
  const uint64_t drains = pool_->lane_drains() - drains0;
  const uint64_t routed = pool_->completions_routed() - routed0;
  // 32 tenants x 4 appends x (data + header) WRs, to at least the ack
  // quorum of 2 peers and at most all 3 (Drain returns on the quorum).
  EXPECT_GE(routed, 32u * 4 * 2 * 2);
  EXPECT_LE(routed, 32u * 4 * 3 * 2);
  EXPECT_GT(drains, 0u);
  EXPECT_LE(drains, routed);
}

// --------------------------------------------------- Testbed integration --

TEST(TenantsTestbedTest, ServersShareTheTestbedPool) {
  Testbed testbed;
  auto s1 = testbed.MakeServer(
      "tenant-kv",
      {.ncl_capacity = 1 << 20, .ncl = {.pool = testbed.shared_pool()}});
  auto s2 = testbed.MakeServer(
      "tenant-redis",
      {.ncl_capacity = 1 << 20, .ncl = {.pool = testbed.shared_pool()}});
  EXPECT_EQ(testbed.shared_pool()->clients(), 2);

  SplitOpenOptions opts;
  opts.oncl = true;
  auto f1 = s1->fs->Open("/wal", opts);
  auto f2 = s2->fs->Open("/wal", opts);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE((*f1)->Append("from-kv").ok());
  ASSERT_TRUE((*f2)->Append("from-redis").ok());
  auto r1 = (*f1)->Read(0, (*f1)->Size());
  auto r2 = (*f2)->Read(0, (*f2)->Size());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, "from-kv");
  EXPECT_EQ(*r2, "from-redis");

  // The pool gauge surfaces occupancy through the testbed registry.
  const Gauge* clients = testbed.metrics()->FindGauge("ncl.pool.clients");
  ASSERT_NE(clients, nullptr);
  EXPECT_EQ(clients->value(), 2);
}

TEST(TenantsTestbedTest, PeerAccessors) {
  Testbed testbed;
  ASSERT_GT(testbed.num_peers(), 0);
  LogPeer* p0 = testbed.peer(0);
  ASSERT_NE(p0, nullptr);
  EXPECT_EQ(testbed.peer_by_name(p0->name()), p0);
  EXPECT_EQ(testbed.peer_by_name("no-such-peer"), nullptr);
}

#if GTEST_HAS_DEATH_TEST
TEST(TenantsTestbedDeathTest, OutOfRangePeerIndexAborts) {
  Testbed testbed;
  EXPECT_DEATH(testbed.peer(testbed.num_peers()), "out of range");
  EXPECT_DEATH(testbed.peer(-1), "out of range");
}
#endif

}  // namespace
}  // namespace splitft
