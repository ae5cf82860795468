// Planned reconfiguration tests (DESIGN.md §13): peer drain with live
// region migration (epoch-fenced snapshot copy + suffix catch-up + ap-map
// cutover), the SetApMap bump-then-write fence, cooperative lease
// handover, rolling dfs server restarts, and the planned kinds of the
// ChaosEngine and FaultPlan — including the migrate-vs-crash and
// migrate-vs-append races.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/chaos/chaos_engine.h"
#include "src/chaos/fault_plan.h"
#include "src/controller/controller.h"
#include "src/dfs/dfs.h"
#include "src/harness/testbed.h"
#include "src/ncl/ncl_client.h"
#include "src/ncl/peer.h"
#include "src/sim/simulation.h"

namespace splitft {
namespace {

TestbedOptions Options(int num_peers,
                       int dfs_servers = DfsParams{}.num_servers) {
  TestbedOptions options;
  options.num_peers = num_peers;
  options.params.dfs.num_servers = dfs_servers;
  return options;
}

FaultEvent Event(SimTime at, FaultKind kind, int peer = -1, int server = -1,
                 SimTime duration = 0) {
  return {.at = at,
          .kind = kind,
          .peer = peer,
          .duration = duration,
          .server = server};
}

// ------------------------------------------------ Controller: drain state --

TEST(PeerDrainStateTest, DrainingPeersAreSkippedByGetPeers) {
  Testbed testbed(Options(4));
  Controller* controller = testbed.controller();

  ASSERT_TRUE(controller->SetPeerState("peer-1", PeerState::kDraining).ok());
  auto rec = controller->GetPeer("peer-1");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, PeerState::kDraining);

  // Only 3 of the 4 registered peers remain eligible; asking for all 4 is
  // now kUnavailable, and the 3 returned never include the draining one.
  EXPECT_EQ(controller->GetPeers(4, 1, {}).status().code(),
            StatusCode::kUnavailable);
  auto peers = controller->GetPeers(3, 1, {});
  ASSERT_TRUE(peers.ok());
  for (const PeerRecord& p : *peers) {
    EXPECT_NE(p.name, "peer-1");
  }

  // Availability updates preserve the drain marker.
  ASSERT_TRUE(controller->UpdatePeerMemory("peer-1", 123).ok());
  rec = controller->GetPeer("peer-1");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, PeerState::kDraining);
  EXPECT_EQ(rec->available_bytes, 123u);

  // Re-registration (peer restart) clears it: a rebooted peer starts
  // active with empty memory.
  ASSERT_TRUE(controller->RegisterPeer("peer-1", rec->node, 456).ok());
  rec = controller->GetPeer("peer-1");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, PeerState::kActive);
}

TEST(PeerDrainStateTest, LogPeerDrainGaugesAndAllocationRejection) {
  Testbed testbed(Options(4));
  LogPeer* peer = testbed.peer(0);
  const Gauge* state =
      testbed.metrics()->FindGauge("ncl.peer.peer-0.state");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->value(),
            static_cast<int64_t>(LogPeerState::kActive));

  ASSERT_TRUE(peer->StartDrain().ok());
  EXPECT_TRUE(peer->draining());
  EXPECT_EQ(state->value(),
            static_cast<int64_t>(LogPeerState::kDraining));

  // Fresh allocations are refused while draining.
  auto grant = peer->Allocate("app", "f", 4096, 1);
  EXPECT_FALSE(grant.ok());
  EXPECT_EQ(grant.status().code(), StatusCode::kResourceExhausted);

  ASSERT_TRUE(peer->EndDrain().ok());
  EXPECT_EQ(state->value(),
            static_cast<int64_t>(LogPeerState::kActive));
  EXPECT_TRUE(peer->Allocate("app", "f", 4096, 1).ok());

  peer->Crash();
  EXPECT_EQ(state->value(), static_cast<int64_t>(LogPeerState::kDead));
}

// ------------------------------------------------- SetApMap epoch fence --

TEST(ApMapFenceTest, WriteSkippingEpochBumpIsFenced) {
  Testbed testbed(Options(3));
  Controller* controller = testbed.controller();

  auto epoch = controller->BumpAppEpoch("app");
  ASSERT_TRUE(epoch.ok());
  ApMapEntry entry;
  entry.epoch = *epoch;
  entry.peers = {"peer-0", "peer-1", "peer-2"};
  // deeplint: allow(epoch-fence) test drives the fence directly
  ASSERT_TRUE(controller->SetApMap("app", "wal", entry).ok());

  // Identical same-epoch rewrite: idempotent (client RPC retries).
  // deeplint: allow(epoch-fence) idempotent-rewrite path under test
  EXPECT_TRUE(controller->SetApMap("app", "wal", entry).ok());

  // Changing the peer set without bumping the epoch violates
  // bump-then-write and must be fenced.
  ApMapEntry no_bump = entry;
  no_bump.peers = {"peer-0", "peer-1", "peer-3"};
  // deeplint: allow(epoch-fence) exercising the fence rejection path
  Status fenced = controller->SetApMap("app", "wal", no_bump);
  EXPECT_EQ(fenced.code(), StatusCode::kFailedPrecondition);

  // A stale writer (older epoch) is fenced even with the same peers.
  auto epoch2 = controller->BumpAppEpoch("app");
  ASSERT_TRUE(epoch2.ok());
  ApMapEntry current = entry;
  current.epoch = *epoch2;
  // deeplint: allow(epoch-fence) test drives the fence directly
  ASSERT_TRUE(controller->SetApMap("app", "wal", current).ok());
  ApMapEntry stale = entry;  // epoch1 < epoch2
  // deeplint: allow(epoch-fence) exercising the stale-writer fence
  Status stale_st = controller->SetApMap("app", "wal", stale);
  EXPECT_EQ(stale_st.code(), StatusCode::kFailedPrecondition);

  EXPECT_EQ(testbed.metrics()->CounterValue("controller.apmap.fenced_writes"),
            2u);

  // The stored entry is untouched by the fenced writes.
  auto stored = controller->GetApMap("app", "wal");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->epoch, *epoch2);
  EXPECT_EQ(stored->peers, entry.peers);
}

// ------------------------------------------------------ Region migration --

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest() : testbed_(Options(6)) {}

  std::unique_ptr<NclClient> MakeClient(const std::string& app) {
    NclConfig config;
    config.app_id = app;
    config.fault_budget = 1;
    config.default_capacity = 64ull << 10;
    return std::make_unique<NclClient>(config, testbed_.fabric(),
                                       testbed_.controller(),
                                       testbed_.directory(),
                                       testbed_.app_node(), testbed_.obs());
  }

  static bool IsMember(const NclFile& file, const std::string& peer) {
    for (const std::string& name : file.peer_names()) {
      if (name == peer) {
        return true;
      }
    }
    return false;
  }

  Testbed testbed_;
};

TEST_F(MigrationTest, MigrateOffPeerMovesRegionAndBumpsEpoch) {
  auto client = MakeClient("mig");
  auto file = client->Create("wal");
  ASSERT_TRUE(file.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*file)->Append("payload-" + std::to_string(i)).ok());
  }

  const std::string victim = (*file)->peer_names()[0];
  auto before = testbed_.controller()->GetApMap("mig", "wal");
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(client->MigrateOffPeer(victim).ok());
  EXPECT_EQ(client->regions_migrated(), 1);
  EXPECT_FALSE(IsMember(**file, victim));

  // The cutover bumped the epoch and rewrote the ap-map with the new
  // membership.
  auto after = testbed_.controller()->GetApMap("mig", "wal");
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->epoch, before->epoch);
  EXPECT_EQ(after->peers, (*file)->peer_names());

  // The drained-off region was released: the victim holds nothing.
  LogPeer* old_peer = testbed_.directory()->Lookup(victim);
  ASSERT_NE(old_peer, nullptr);
  EXPECT_FALSE(old_peer->LookupForRecovery("mig", "wal").ok());
  const Gauge* resident = testbed_.metrics()->FindGauge(
      "ncl.peer." + victim + ".regions_resident");
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(resident->value(), 0);

  // Appends keep working on the new membership.
  ASSERT_TRUE((*file)->Append("post-migration").ok());
}

TEST_F(MigrationTest, MigrationSurvivesAppendsAtTheCutoverBoundary) {
  auto client = MakeClient("race");
  auto file = client->Create("wal");
  ASSERT_TRUE(file.ok());
  std::string expect;
  for (int i = 0; i < 10; ++i) {
    std::string payload = "pre-" + std::to_string(i) + ";";
    ASSERT_TRUE((*file)->Append(payload).ok());
    expect += payload;
  }

  // Appends land *while the migration runs*: MigrateOffPeer pumps the
  // simulation through the snapshot copy and catch-up rounds, so appends
  // scheduled inside that window hit the catch-up/cutover boundary.
  const std::string victim = (*file)->peer_names()[1];
  int racing_acked = 0;
  for (int i = 0; i < 8; ++i) {
    std::string payload = "race-" + std::to_string(i) + ";";
    testbed_.sim()->ScheduleAt(
        testbed_.sim()->Now() + Micros(2) + i * Micros(4),
        [this, &file, &racing_acked, payload] {
          if ((*file)->AppendAsync(payload).ok()) {
            racing_acked++;
          }
        });
    expect += payload;
  }
  ASSERT_TRUE(client->MigrateOffPeer(victim).ok());
  EXPECT_FALSE(IsMember(**file, victim));
  // Let stragglers land, then drain the window.
  testbed_.sim()->RunUntil(testbed_.sim()->Now() + Millis(1));
  ASSERT_TRUE((*file)->Drain().ok());
  EXPECT_EQ(racing_acked, 8);

  // Crash the app and recover: every acknowledged byte (pre- and
  // mid-migration) must come back, in order, from the new membership.
  file->reset();
  auto fresh = MakeClient("race");
  auto recovered = fresh->Recover("wal");
  ASSERT_TRUE(recovered.ok());
  auto contents = (*recovered)->Read(0, (*recovered)->size());
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, expect);
  EXPECT_FALSE(IsMember(**recovered, victim));
}

TEST_F(MigrationTest, SourceCrashMidCopySupersedesMigration) {
  auto client = MakeClient("crash");
  auto file = client->Create("wal");
  ASSERT_TRUE(file.ok());
  // A fat log makes the snapshot bulk copy take long enough that events
  // scheduled a few microseconds out land mid-copy.
  std::string fat(32 << 10, 'x');
  ASSERT_TRUE((*file)->Append(fat).ok());

  const std::string victim = (*file)->peer_names()[0];
  LogPeer* victim_peer = testbed_.directory()->Lookup(victim);
  ASSERT_NE(victim_peer, nullptr);

  // Mid-copy, the source peer crashes AND an append discovers the death —
  // triggering the crash-driven ReplaceSlot, which bumps the epoch and
  // supersedes the planned migration.
  testbed_.sim()->ScheduleAt(testbed_.sim()->Now() + Micros(1),
                             [victim_peer] { victim_peer->Crash(); });
  bool replacement_append_ok = false;
  testbed_.sim()->ScheduleAt(
      testbed_.sim()->Now() + Micros(2),
      [&file, &replacement_append_ok] {
        replacement_append_ok = (*file)->Append("after-crash").ok();
      });

  Status st = client->MigrateOffPeer(victim);
  // The superseded migration is skipped, not an error; the crash-driven
  // replacement already moved the region off the dead source.
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(replacement_append_ok);
  EXPECT_EQ(client->regions_migrated(), 0);
  EXPECT_GE(client->peers_replaced(), 1);
  EXPECT_FALSE(IsMember(**file, victim));

  // The file is intact: recovery returns both appends.
  ASSERT_TRUE((*file)->Drain().ok());
  file->reset();
  auto fresh = MakeClient("crash");
  auto recovered = fresh->Recover("wal");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->size(), fat.size() + std::string("after-crash").size());
}

TEST_F(MigrationTest, DrainingPeerReceivesNoNewRegions) {
  ASSERT_TRUE(testbed_.peer(0)->StartDrain().ok());
  auto client = MakeClient("fresh");
  auto file = client->Create("wal");
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE(IsMember(**file, "peer-0"));
}

// -------------------------------------------------------- Lease handover --

TEST(LeaseHandoverTest, HandoverMovesTheLeaseWithoutAnUnleasedWindow) {
  Testbed testbed(Options(4));
  auto server = testbed.MakeServer("app-a");
  ASSERT_TRUE(server->start_status.ok());
  SessionId old_lease = server->fs->lease();
  ASSERT_NE(old_lease, kNoSession);

  ASSERT_TRUE(server->fs->HandOverLease().ok());
  SessionId new_lease = server->fs->lease();
  EXPECT_NE(new_lease, old_lease);

  // The lease is continuously held: a second instance still can't start.
  auto rival = testbed.MakeServer("app-a");
  EXPECT_EQ(rival->start_status.code(), StatusCode::kAborted);

  // The predecessor session no longer owns it and cannot steal it back.
  auto steal = testbed.controller()->TransferServerLease("app-a", old_lease);
  ASSERT_FALSE(steal.ok());
  EXPECT_EQ(steal.status().code(), StatusCode::kFailedPrecondition);

  // Expiring the *old* session must not release the successor's lease.
  testbed.controller()->ExpireSession(old_lease);
  auto rival2 = testbed.MakeServer("app-a");
  EXPECT_EQ(rival2->start_status.code(), StatusCode::kAborted);
}

TEST(LeaseHandoverTest, HandoverWithoutALeaseFailsPrecondition) {
  Testbed testbed(Options(4));
  auto first = testbed.MakeServer("app-b");
  ASSERT_TRUE(first->start_status.ok());
  auto second = testbed.MakeServer("app-b");
  ASSERT_EQ(second->start_status.code(), StatusCode::kAborted);
  EXPECT_EQ(second->fs->HandOverLease().code(),
            StatusCode::kFailedPrecondition);
}

// -------------------------------------------------- Rolling dfs restarts --

TEST(DfsRollingRestartTest, OfflineServerReroutesAndReplaysOnReturn) {
  Testbed testbed(Options(4, 3));
  DfsCluster* cluster = testbed.dfs_cluster();
  DfsClient client(cluster, "app");
  auto file = client.Open("f", {});
  ASSERT_TRUE(file.ok());

  ASSERT_TRUE(cluster->TakeServerOffline(1).ok());
  EXPECT_EQ(cluster->offline_server(), 1);
  // The rolling guarantee: a second concurrent restart is refused.
  EXPECT_EQ(cluster->TakeServerOffline(2).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster->TakeServerOffline(1).code(),
            StatusCode::kFailedPrecondition);

  // A striped write spanning all three servers: server 1's share is
  // rerouted (the fsync succeeds without it) and accrues as its backlog.
  std::string data(3ull << 20, 'd');
  ASSERT_TRUE((*file)->Append(data).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  EXPECT_GT(cluster->replay_backlog(1), 0u);
  EXPECT_GT(testbed.metrics()->CounterValue("dfs.cluster.rerouted_bytes"), 0u);
  EXPECT_EQ(testbed.metrics()->CounterValue("dfs.server.1.bytes_written"), 0u);

  ASSERT_TRUE(cluster->BringServerOnline(1).ok());
  EXPECT_EQ(cluster->offline_server(), -1);
  EXPECT_EQ(cluster->replay_backlog(1), 0u);
  EXPECT_GT(testbed.metrics()->CounterValue("dfs.cluster.replayed_bytes"), 0u);
  EXPECT_GT(testbed.metrics()->CounterValue("dfs.server.1.bytes_written"), 0u);
  EXPECT_EQ(testbed.metrics()->CounterValue("dfs.cluster.server_restarts"),
            1u);

  // Bringing an online server "back" is refused.
  EXPECT_EQ(cluster->BringServerOnline(1).code(),
            StatusCode::kFailedPrecondition);
}

TEST(DfsRollingRestartTest, SinglePipeClusterRefusesRestarts) {
  Testbed testbed(Options(4, 1));
  EXPECT_EQ(testbed.dfs_cluster()->TakeServerOffline(0).code(),
            StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------- Plan and engine --

TEST(ReconfigPlanTest, RandomPlansAreSeedDeterministic) {
  ReconfigPlanOptions options;
  options.num_events = 8;
  options.num_dfs_servers = 3;
  FaultPlan a = FaultPlan::RandomReconfig(42, options);
  FaultPlan b = FaultPlan::RandomReconfig(42, options);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].peer, b.events()[i].peer);
  }
  // Sorted by start time, and non-trivially described.
  for (size_t i = 1; i < a.events().size(); ++i) {
    EXPECT_LE(a.events()[i - 1].at, a.events()[i].at);
  }
  EXPECT_FALSE(a.Describe().empty());
  EXPECT_NE(FaultPlan::RandomReconfig(43, options).Describe(), a.Describe());
}

TEST(ReconfigEngineTest, ExecutesAFullPlannedCampaign) {
  Testbed testbed(Options(6, 3));
  auto server = testbed.MakeServer("app-r");
  ASSERT_TRUE(server->start_status.ok());
  SplitOpenOptions oncl;
  oncl.oncl = true;
  auto file = server->fs->Open("wal", oncl);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("seed").ok());

  ChaosTargets targets = testbed.chaos_targets();
  targets.fs = server->fs.get();
  ChaosEngine engine(targets, testbed.obs());

  // Drain a peer that actually holds the file's region so the plan
  // exercises a real migration ("peer-<i>" → index i).
  int victim = -1;
  {
    auto apmap = testbed.controller()->GetApMap("app-r", "wal");
    ASSERT_TRUE(apmap.ok());
    ASSERT_FALSE(apmap->peers.empty());
    victim = std::stoi(apmap->peers[0].substr(std::string("peer-").size()));
  }

  SessionId lease_before = server->fs->lease();
  FaultPlan plan;
  plan.Add(Event(Micros(50), FaultKind::kPeerDrain, victim))
      .Add(Event(Micros(300), FaultKind::kLeaseHandover))
      .Add(Event(Micros(400), FaultKind::kDfsRestart, -1, 2, Micros(200)))
      .Add(Event(Millis(1), FaultKind::kPeerActivate, victim));
  engine.Schedule(plan);
  // The drain's migration pumps the simulation forward (controller RPCs
  // model quorum-committed ZooKeeper ops), which pushes later plan events —
  // and the dfs bring-online leg, scheduled relative to wherever the clock
  // then is — past their nominal times; run until the whole plan retired.
  ASSERT_TRUE(testbed.sim()->RunUntilPredicate([&] {
    return engine.ops_completed() + engine.ops_skipped() +
                   engine.ops_failed() >=
               4 &&
           testbed.dfs_cluster()->offline_server() < 0;
  }));

  EXPECT_EQ(engine.ops_failed(), 0) << [&] {
    std::string all;
    for (const std::string& line : engine.log()) {
      all += line + "\n";
    }
    return all;
  }();
  EXPECT_EQ(engine.ops_completed(), 4);
  EXPECT_FALSE(testbed.peer(victim)->draining());
  EXPECT_NE(server->fs->lease(), lease_before);
  EXPECT_EQ(testbed.dfs_cluster()->offline_server(), -1);
  EXPECT_EQ(testbed.metrics()->CounterValue("reconfig.ops.completed"), 4u);
  EXPECT_EQ(server->fs->ncl()->regions_migrated(), 1);

  // The log is still writable and intact after the full campaign.
  ASSERT_TRUE((*file)->Append("after").ok());
  ASSERT_TRUE((*file)->Sync().ok());
}

TEST(ReconfigEngineTest, DrainMigratesPooledCoTenants) {
  // Two tenants share the testbed pool (DESIGN.md §14); draining a peer
  // that holds regions for both must migrate both, not just the primary
  // client named in targets.fs.
  Testbed testbed(Options(5));
  auto s1 =
      testbed.MakeServer("tenant-a", {.ncl = {.pool = testbed.shared_pool()}});
  auto s2 =
      testbed.MakeServer("tenant-b", {.ncl = {.pool = testbed.shared_pool()}});
  ASSERT_TRUE(s1->start_status.ok());
  ASSERT_TRUE(s2->start_status.ok());
  SplitOpenOptions oncl;
  oncl.oncl = true;
  auto f1 = s1->fs->Open("wal", oncl);
  auto f2 = s2->fs->Open("wal", oncl);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE((*f1)->Append("a0").ok());
  ASSERT_TRUE((*f2)->Append("b0").ok());

  ChaosTargets targets = testbed.chaos_targets();
  targets.fs = s1->fs.get();
  targets.extra_ncl.push_back(s2->fs->ncl());
  ChaosEngine engine(targets, testbed.obs());

  // Pick a victim both tenants are resident on (3-wide replication on 5
  // peers guarantees the two ap-maps intersect).
  auto m1 = testbed.controller()->GetApMap("tenant-a", "wal");
  auto m2 = testbed.controller()->GetApMap("tenant-b", "wal");
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  std::string victim_name;
  for (const std::string& p : m1->peers) {
    for (const std::string& q : m2->peers) {
      if (p == q) {
        victim_name = p;
      }
    }
  }
  ASSERT_FALSE(victim_name.empty());
  int victim = std::stoi(victim_name.substr(std::string("peer-").size()));

  engine.Inject(Event(0, FaultKind::kPeerDrain, victim));
  EXPECT_EQ(engine.ops_failed(), 0);
  EXPECT_EQ(engine.ops_completed(), 1);
  EXPECT_EQ(s1->fs->ncl()->regions_migrated(), 1);
  EXPECT_EQ(s2->fs->ncl()->regions_migrated(), 1);

  // The drained peer holds neither tenant's regions any more, and both
  // logs stay writable and intact.
  for (const char* app : {"tenant-a", "tenant-b"}) {
    auto apmap = testbed.controller()->GetApMap(app, "wal");
    ASSERT_TRUE(apmap.ok());
    for (const std::string& p : apmap->peers) {
      EXPECT_NE(p, victim_name) << app;
    }
  }
  ASSERT_TRUE((*f1)->Append("a1").ok());
  ASSERT_TRUE((*f2)->Append("b1").ok());
  auto r1 = (*f1)->Read(0, (*f1)->Size());
  auto r2 = (*f2)->Read(0, (*f2)->Size());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, "a0a1");
  EXPECT_EQ(*r2, "b0b1");
}

TEST(ReconfigEngineTest, DrainOfAnEcMemberLeavesKPlusMActivePeers) {
  // k=m=2 striping spans 4 peers and MakeServer sets f = m = 2. On 5 peers,
  // draining a member leaves the 4 the file needs, with the one non-member
  // as the migration destination; a 2f+1 = 5 width would refuse the drain.
  Testbed testbed(Options(5));
  auto server = testbed.MakeServer("ec-app", {.ncl = {.ec_enabled = true}});
  ASSERT_TRUE(server->start_status.ok());
  SplitOpenOptions oncl;
  oncl.oncl = true;
  auto file = server->fs->Open("wal", oncl);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("e0").ok());

  ChaosTargets targets = testbed.chaos_targets();
  targets.fs = server->fs.get();
  ChaosEngine engine(targets, testbed.obs());

  auto before = testbed.controller()->GetApMap("ec-app", "wal");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->peers.size(), 4u);
  const std::string victim_name = before->peers.front();
  int victim = std::stoi(victim_name.substr(std::string("peer-").size()));

  engine.Inject(Event(0, FaultKind::kPeerDrain, victim));
  EXPECT_EQ(engine.ops_skipped(), 0);
  EXPECT_EQ(engine.ops_failed(), 0);
  EXPECT_EQ(engine.ops_completed(), 1);
  EXPECT_EQ(server->fs->ncl()->regions_migrated(), 1);

  auto after = testbed.controller()->GetApMap("ec-app", "wal");
  ASSERT_TRUE(after.ok());
  for (const std::string& p : after->peers) {
    EXPECT_NE(p, victim_name);
  }
  ASSERT_TRUE((*file)->Append("e1").ok());
  auto contents = (*file)->Read(0, (*file)->Size());
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "e0e1");
}

TEST(ReconfigEngineTest, QuiesceRetiresOutstandingOperations) {
  Testbed testbed(Options(6, 3));
  ChaosEngine engine(testbed.chaos_targets());

  // Start a drain and a dfs restart but never let the plan finish them.
  engine.Inject(Event(0, FaultKind::kPeerDrain, 2));
  engine.Inject(Event(0, FaultKind::kDfsRestart, -1, 1, Seconds(5)));
  EXPECT_TRUE(testbed.peer(2)->draining());
  EXPECT_EQ(testbed.dfs_cluster()->offline_server(), 1);

  engine.Quiesce();
  EXPECT_FALSE(testbed.peer(2)->draining());
  EXPECT_EQ(testbed.dfs_cluster()->offline_server(), -1);
  // The cancelled bring-online never double-fires.
  testbed.sim()->RunUntil(testbed.sim()->Now() + Seconds(6));
  EXPECT_EQ(testbed.dfs_cluster()->offline_server(), -1);
}

}  // namespace
}  // namespace splitft
