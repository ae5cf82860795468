// Tests for the observability layer: MetricsRegistry, the sim-time span
// Tracer (self-time accounting, ring buffer, disabled-mode no-ops), and the
// end-to-end guarantee the benches rely on — NCL recovery phase spans sum
// exactly to the observed end-to-end recovery latency.
//
// deeplint: allow-file(metric-name) these tests exercise the registry and
// tracer APIs directly with deliberately minimal synthetic names ("x",
// "root"); the naming convention applies to instrumentation, not to the
// instruments' own unit tests.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/controller/controller.h"
#include "src/harness/testbed.h"
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

// Consumes one value of the shapes MetricsRegistry::ToJson emits (an object
// of "key": value members, or a number) at text[*at].
bool ConsumeJsonValue(const std::string& text, size_t* at) {
  auto peek = [&](char c) { return *at < text.size() && text[*at] == c; };
  auto skip_spaces = [&] {
    while (peek(' ')) {
      ++*at;
    }
  };
  skip_spaces();
  if (!peek('{')) {
    const size_t start = *at;
    while (*at < text.size() &&
           std::string_view("0123456789+-.eE").find(text[*at]) !=
               std::string_view::npos) {
      ++*at;
    }
    return *at > start;
  }
  ++*at;
  skip_spaces();
  if (peek('}')) {
    ++*at;
    return true;
  }
  while (true) {
    if (!peek('"')) {
      return false;
    }
    const size_t close = text.find('"', *at + 1);
    if (close == std::string::npos) {
      return false;
    }
    *at = close + 1;
    skip_spaces();
    if (!peek(':')) {
      return false;
    }
    ++*at;
    if (!ConsumeJsonValue(text, at)) {
      return false;
    }
    skip_spaces();
    if (peek('}')) {
      ++*at;
      return true;
    }
    if (!peek(',')) {
      return false;
    }
    ++*at;
    skip_spaces();
  }
}

bool ParsesAsJson(const std::string& text) {
  size_t at = 0;
  return ConsumeJsonValue(text, &at) && at == text.size();
}

// ------------------------------------------------------- MetricsRegistry --

TEST(MetricsRegistryTest, CounterCreateOnFirstUseWithStablePointers) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.FindCounter("ncl.record.count"), nullptr);
  Counter* c = registry.counter("ncl.record.count");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(registry.counter("ncl.record.count"), c);
  c->Add();
  c->Add(9);
  EXPECT_EQ(registry.CounterValue("ncl.record.count"), 10u);
  EXPECT_EQ(registry.CounterValue("never.registered"), 0u);
  EXPECT_EQ(registry.FindCounter("ncl.record.count"), c);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("ncl.client.alive_peers");
  g->Set(5);
  g->Add(-2);
  EXPECT_EQ(g->value(), 3);
  EXPECT_EQ(registry.FindGauge("ncl.client.alive_peers"), g);
}

TEST(MetricsRegistryTest, NullSafeHelpersTolerateNullInstruments) {
  ObsAdd(nullptr);
  ObsAdd(nullptr, 7);
  ObsSet(nullptr, 3);
  ObsRecord(nullptr, 100);
  ObsContext obs;  // both pointers null
  EXPECT_EQ(obs.counter("x"), nullptr);
  EXPECT_EQ(obs.gauge("x"), nullptr);
  EXPECT_EQ(obs.histogram("x"), nullptr);
}

TEST(MetricsRegistryTest, ToJsonCoversAllInstrumentKinds) {
  MetricsRegistry registry;
  registry.counter("fabric.wr.writes_posted")->Add(3);
  registry.gauge("dfs.client.dirty_bytes")->Set(-12);
  Histogram* h = registry.histogram("ncl.record.latency_ns");
  for (int i = 1; i <= 100; ++i) {
    h->Add(i * 1000);
  }
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"fabric.wr.writes_posted\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"dfs.client.dirty_bytes\": -12"), std::string::npos);
  EXPECT_NE(json.find("\"ncl.record.latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
}

TEST(MetricsRegistryTest, ToJsonKeepsLongNamesAndHugeValues) {
  MetricsRegistry registry;
  const std::string name = "obs.test." + std::string(160, 'n');
  registry.counter(name)->Add(7);
  registry.histogram("obs.test.huge")->Add(40'000'000'000'000);
  std::string json = registry.ToJson();
  EXPECT_TRUE(ParsesAsJson(json)) << json;
  EXPECT_NE(json.find("\"" + name + "\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"max\": 40000000000000}}"), std::string::npos);
}

TEST(MetricsRegistryTest, StatusDiscardsCountIntoTheRegistry) {
  MetricsRegistry registry;
  ObsContext obs{&registry, nullptr};
  DiscardStatus(obs, OkStatus(), "obs test ok");
  DiscardStatus(obs, TimedOutError("slow"), "obs test bad");
  EXPECT_EQ(registry.CounterValue("common.status.discards"), 2u);
  EXPECT_EQ(registry.CounterValue("common.status.discards_nonok"), 1u);
  // A discard without a registry counts nowhere.
  DiscardStatus(ObsContext{}, TimedOutError("slow"), "no registry");
  EXPECT_EQ(registry.CounterValue("common.status.discards"), 2u);
}

TEST(StatusDiscardTest, CountsTotalAndNonOkSeparately) {
  MetricsRegistry registry;
  ObsContext obs{&registry, nullptr};
  DiscardStatus(obs, OkStatus(), "test ok");
  DiscardStatus(obs, UnavailableError("peer down"), "test bad");
  DiscardStatus(obs, Result<int>(NotFoundError("gone")), "test result");
  DiscardStatus(obs, Result<int>(7), "test ok result");
  EXPECT_EQ(registry.CounterValue("common.status.discards"), 4u);
  EXPECT_EQ(registry.CounterValue("common.status.discards_nonok"), 2u);
}

TEST(StatusDiscardTest, LogLimitComesFromTheRegistry) {
  MetricsRegistry registry;
  ObsContext obs{&registry, nullptr};
  testing::internal::CaptureStderr();
  for (int i = 0; i < 20; ++i) {
    DiscardStatus(obs, AbortedError("race"), "log limit");
  }
  std::string logged = testing::internal::GetCapturedStderr();
  size_t lines = 0;
  for (size_t at = logged.find("log limit"); at != std::string::npos;
       at = logged.find("log limit", at + 1)) {
    lines++;
  }
  EXPECT_EQ(lines, 16u);
  EXPECT_NE(logged.find("(further discard logs suppressed)"),
            std::string::npos);
  EXPECT_EQ(registry.CounterValue("common.status.discards_nonok"), 20u);
}

// A small NCL workload on `testbed`: appends to an NCL-backed log, each
// result discarded, then `misses` unlinks of an absent file, each a
// deliberate non-OK discard.
void RunDiscardingWorkload(Testbed* testbed, int misses) {
  auto server = testbed->MakeServer("discard-app");
  CHECK_OK(server->start_status);
  SplitOpenOptions opts;
  opts.oncl = true;
  opts.ncl_capacity = 1 << 20;
  auto file = server->fs->Open("/discard-log", opts);
  CHECK_OK(file.status());
  for (int k = 0; k < 16; ++k) {
    DiscardStatus(testbed->obs(), (*file)->Append("record"),
                  "workload append");
  }
  for (int k = 0; k < misses; ++k) {
    DiscardStatus(testbed->obs(), server->fs->Unlink("/absent"),
                  "workload miss");
  }
}

TEST(StatusDiscardTest, TestbedsMayEndInAnyOrder) {
  auto first = std::make_unique<Testbed>();
  auto second = std::make_unique<Testbed>();
  // A fresh testbed's export lists both discard counters at 0.
  std::string json = second->metrics()->ToJson();
  EXPECT_NE(json.find("\"common.status.discards\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"common.status.discards_nonok\": 0"),
            std::string::npos);

  RunDiscardingWorkload(first.get(), 3);
  const uint64_t first_total =
      first->metrics()->CounterValue("common.status.discards");
  EXPECT_EQ(first->metrics()->CounterValue("common.status.discards_nonok"),
            3u);
  EXPECT_EQ(second->metrics()->CounterValue("common.status.discards"), 0u);
  // The first testbed ends before the second, against construction order.
  first.reset();
  RunDiscardingWorkload(second.get(), 5);
  EXPECT_EQ(second->metrics()->CounterValue("common.status.discards"),
            first_total + 2);
  EXPECT_EQ(second->metrics()->CounterValue("common.status.discards_nonok"),
            5u);
  second.reset();
  // With both gone, a discard has no registry to reach.
  DiscardStatus(ObsContext{}, InternalError("late"), "after both testbeds");
}

TEST(StatusDiscardTest, TestbedsOnTwoThreadsCountTheirOwnDiscards) {
  auto run = [](int misses) {
    Testbed testbed;
    RunDiscardingWorkload(&testbed, misses);
    return testbed.metrics()->ToJson();
  };
  const std::string serial_a = run(3);
  const std::string serial_b = run(5);
  ASSERT_NE(serial_a, serial_b);
  std::string a;
  std::string b;
  std::thread thread_a([&] { a = run(3); });
  std::thread thread_b([&] { b = run(5); });
  thread_a.join();
  thread_b.join();
  // Two simulations on two threads share nothing: each export is the one
  // its workload gives when run alone.
  EXPECT_EQ(a, serial_a);
  EXPECT_EQ(b, serial_b);
  EXPECT_NE(a.find("\"common.status.discards_nonok\": 3,"),
            std::string::npos);
  EXPECT_NE(b.find("\"common.status.discards_nonok\": 5,"),
            std::string::npos);
}

// ----------------------------------------------------------------- Tracer --

TEST(TracerTest, SelfTimeSumsExactlyToRootDuration) {
  Simulation sim;
  Tracer tracer(&sim, /*enabled=*/true);
  tracer.Begin("root");
  sim.Advance(10);
  tracer.Begin("child");
  sim.Advance(30);
  tracer.End();
  sim.Advance(5);
  tracer.Begin("child");
  sim.Advance(20);
  tracer.End();
  tracer.End();

  const auto& agg = tracer.aggregates();
  EXPECT_EQ(agg.at("root").total, 65);
  EXPECT_EQ(agg.at("root").self, 15);
  EXPECT_EQ(agg.at("child").count, 2u);
  EXPECT_EQ(agg.at("child").total, 50);
  EXPECT_EQ(agg.at("child").self, 50);
  // The attribution invariant: self summed over all spans == root duration.
  EXPECT_EQ(tracer.AttributedSelfTime(), agg.at("root").total);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(TracerTest, PrefixSumAndAsyncExclusion) {
  Simulation sim;
  Tracer tracer(&sim, /*enabled=*/true);
  tracer.Begin("ncl.recover");
  tracer.Begin("ncl.recover.get_peers");
  sim.Advance(7);
  tracer.End();
  tracer.Begin("ncl.recover.rdma_read");
  sim.Advance(13);
  tracer.End();
  tracer.End();
  tracer.AddAsyncSpan("fabric.wr.write", 0, 20);

  // The trailing dot excludes the root span itself from the phase sum.
  EXPECT_EQ(tracer.TotalForPrefix("ncl.recover."), 20);
  EXPECT_EQ(tracer.TotalForPrefix("ncl.recover"), 40);
  // Async spans are aggregated but never attributed (they overlap a scoped
  // span's time).
  EXPECT_TRUE(tracer.aggregates().at("fabric.wr.write").async);
  EXPECT_EQ(tracer.TotalForPrefix("fabric."), 0);
  EXPECT_EQ(tracer.AttributedSelfTime(), 20);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Simulation sim;
  Tracer tracer(&sim, /*enabled=*/false);
  tracer.Begin("root");
  sim.Advance(10);
  tracer.End();
  tracer.AddAsyncSpan("x", 0, 5);
  {
    ObsSpan span(&tracer, "guarded");
    sim.Advance(5);
  }
  EXPECT_TRUE(tracer.aggregates().empty());
  EXPECT_TRUE(tracer.events().empty());
  // Null tracer is equally fine.
  ObsSpan null_span(nullptr, "nothing");
}

TEST(TracerTest, RingBufferKeepsNewestEventsOldestFirst) {
  Simulation sim;
  Tracer tracer(&sim, /*enabled=*/true, /*ring_capacity=*/2);
  for (int i = 0; i < 3; ++i) {
    tracer.Begin("span-" + std::to_string(i));
    sim.Advance(1);
    tracer.End();
  }
  auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "span-1");
  EXPECT_EQ(events[1].name, "span-2");
  EXPECT_LE(events[0].end, events[1].start);
}

TEST(TracerTest, SnapshotDiffScopesAWindow) {
  Simulation sim;
  Tracer tracer(&sim, /*enabled=*/true);
  tracer.Begin("op");
  sim.Advance(10);
  tracer.End();
  auto before = tracer.Snapshot();
  tracer.Begin("op");
  sim.Advance(25);
  tracer.End();
  auto diff = SpanDiff(before, tracer.Snapshot());
  ASSERT_EQ(diff.count("op"), 1u);
  EXPECT_EQ(diff.at("op").count, 1u);
  EXPECT_EQ(diff.at("op").total, 25);
}

// -------------------------------------------- End-to-end span attribution --

class ObsNclTest : public ::testing::Test {
 protected:
  ObsNclTest()
      : tracer_(&sim_, /*enabled=*/true),
        obs_{&registry_, &tracer_},
        fabric_(&sim_, &params_, obs_),
        controller_(&sim_, &params_, obs_) {
    app_node_ = fabric_.AddNode("app-server");
    for (int i = 0; i < 3; ++i) {
      auto peer = std::make_unique<LogPeer>("p" + std::to_string(i), &fabric_,
                                            &controller_, 512ull << 20);
      EXPECT_TRUE(peer->Start().ok());
      directory_.Register(peer.get());
      peers_.push_back(std::move(peer));
    }
  }

  std::unique_ptr<NclClient> MakeClient() {
    NclConfig config;
    config.app_id = "obs-app";
    config.default_capacity = 1 << 20;
    return std::make_unique<NclClient>(config, &fabric_, &controller_,
                                       &directory_, app_node_, obs_);
  }

  Simulation sim_;
  SimParams params_;
  MetricsRegistry registry_;
  Tracer tracer_;
  ObsContext obs_;
  Fabric fabric_;
  Controller controller_;
  PeerDirectory directory_;
  std::vector<std::unique_ptr<LogPeer>> peers_;
  NodeId app_node_;
};

TEST_F(ObsNclTest, RecoveryPhaseSpansSumToEndToEndLatency) {
  {
    auto client = MakeClient();
    auto file = client->Create("/wal/1");
    ASSERT_TRUE(file.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*file)->Append("record-" + std::to_string(i) + ";").ok());
    }
    // Crash: the handle is dropped without Delete.
  }
  sim_.RunUntilIdle();

  auto before = tracer_.Snapshot();
  auto client2 = MakeClient();
  SimTime start = sim_.Now();
  auto recovered = client2->Recover("/wal/1");
  SimTime elapsed = sim_.Now() - start;
  ASSERT_TRUE(recovered.ok());
  ASSERT_GT(elapsed, 0);

  auto window = SpanDiff(before, tracer_.Snapshot());
  // The root recovery span covers the whole call...
  ASSERT_EQ(window.count("ncl.recover"), 1u);
  EXPECT_EQ(window.at("ncl.recover").total, elapsed);
  // ...and the four phase spans partition it exactly: their durations sum
  // to the observed end-to-end recovery latency with nothing unattributed.
  SimTime phase_sum = 0;
  for (const char* phase :
       {"ncl.recover.get_peers", "ncl.recover.connect",
        "ncl.recover.rdma_read", "ncl.recover.sync_peers"}) {
    ASSERT_EQ(window.count(phase), 1u) << phase;
    phase_sum += window.at(phase).total;
  }
  EXPECT_EQ(phase_sum, elapsed);
  EXPECT_EQ(tracer_.TotalForPrefix("ncl.recover."),
            tracer_.aggregates().at("ncl.recover").total);

  // The registry saw the same recovery through the histogram mirror.
  const Histogram* h = registry_.FindHistogram("ncl.recover.latency_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
}

TEST_F(ObsNclTest, RegistryMirrorsRecordAndFabricActivity) {
  auto client = MakeClient();
  auto file = client->Create("/wal/1");
  ASSERT_TRUE(file.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*file)->Append("payload").ok());
  }
  EXPECT_EQ(registry_.CounterValue("ncl.record.count"), 10u);
  EXPECT_EQ(registry_.CounterValue("ncl.record.bytes"), 70u);
  EXPECT_GT(registry_.CounterValue("fabric.wr.writes_posted"), 0u);
  EXPECT_GT(registry_.CounterValue("fabric.wr.write_bytes"), 0u);
  EXPECT_GT(registry_.CounterValue("controller.rpc.count"), 0u);
  // Fabric WR async spans were recorded between post and completion.
  EXPECT_GT(tracer_.aggregates().count("fabric.wr.write"), 0u);
  // No fault-path counters fired on this clean run.
  EXPECT_EQ(registry_.CounterValue("ncl.client.release_failures"), 0u);
}

// --------------------------------------------------- Testbed integration --

TEST(ObsTestbedTest, TestbedWiresOneRegistryThroughEveryLayer) {
  TestbedOptions options;
  options.tracing = true;
  Testbed bed(options);
  auto server = bed.MakeServer("app-1");
  KvStoreOptions kv_options;
  kv_options.mode = DurabilityMode::kSplitFt;
  kv_options.dir = "/app-1";
  // Tiny memtable so the load phase flushes sstables to the dfs and the
  // "dfs.client.*" counters see traffic too.
  kv_options.memtable_bytes = 16 << 10;
  auto kv = bed.StartKvStore(server.get(), kv_options);
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE(Testbed::LoadRecords(kv->get(), 200).ok());
  server->app = std::move(*kv);

  MetricsRegistry* metrics = bed.metrics();
  EXPECT_GT(metrics->CounterValue("splitfs.route.ncl_opens"), 0u);
  EXPECT_GT(metrics->CounterValue("ncl.record.count"), 0u);
  EXPECT_GT(metrics->CounterValue("fabric.wr.writes_posted"), 0u);
  EXPECT_GT(metrics->CounterValue("controller.rpc.count"), 0u);
  EXPECT_GT(bed.tracer()->aggregates().count("ncl.record"), 0u);

  // Crash + restart: the application replay span appears and recovery
  // phases land in the same tracer.
  bed.CrashServer(server.get());
  server = bed.MakeServer("app-1");
  auto kv2 = bed.StartKvStore(server.get(), kv_options);
  ASSERT_TRUE(kv2.ok());
  EXPECT_GT(bed.tracer()->aggregates().count("app.recover.replay"), 0u);
  EXPECT_GT(bed.tracer()->aggregates().count("ncl.recover"), 0u);
  EXPECT_GT(metrics->CounterValue("dfs.client.fsyncs") +
                metrics->CounterValue("dfs.client.background_syncs"),
            0u);

  std::string json = metrics->ToJson();
  EXPECT_NE(json.find("\"ncl.record.count\""), std::string::npos);
}

}  // namespace
}  // namespace splitft
