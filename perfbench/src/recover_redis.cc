// recover_redis: redis-mini in SplitFT mode, preloaded with about 48 MiB
// of SETs and an AOF rewrite threshold of 32 MiB, which leaves about a
// 31 MB RDB snapshot on the dfs plus about 16 MB of AOF in NCL. Then
// cycles of: 4096 acked tail SETs, CrashServer, MakeServer + StartRedis
// (recovery), verify. It uses the layers the other workloads leave idle:
// NCL read and recover (rdma reads, peer sync) instead of appends, a dfs
// bulk read instead of background writes, and checksummed AOF replay.
#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/common/rng.h"
#include "src/harness/testbed.h"
#include "src/workload/ycsb.h"

namespace perfbench {
namespace {

using splitft::SimTime;

// Crash-recovery cycles per requested second. About 0.45 s each on the
// reference machine; fewer than that fills the requested time because every
// cycle leaves about 70 MB of resident memory behind (measured as
// process.rss_growth_mb_per_cycle), and 12 cycles already peak near 1 GB.
constexpr double kCyclesPerSecond = 0.8;
// Acked tail SETs per cycle: about 1 MB of AOF, and enough host time per
// cycle (~50 ms) to time the SET path steadily.
constexpr int kTailWrites = 4096;
constexpr int kPreloadSample = 1024;
constexpr char kAppId[] = "redis";
// AOF frame bytes of one SET: crc + len + op + two length-prefixed
// arguments.
constexpr uint64_t SetFrameBytes(uint64_t key, uint64_t value) {
  return 4 + 4 + 1 + 4 + key + 4 + value;
}

// Loads `records` SETs (YCSB keys and loader values, batches of 128, the
// same stream as Testbed::LoadRecords). The one AOF rewrite is triggered by
// a marker SET sized to cross the threshold on its own: redis-mini applies
// a batch to its in-memory map only after the rewrite has snapshotted it,
// so the batch that triggers a rewrite is lost on the next crash. The
// marker is that batch, and the oracles never check it.
splitft::Status Preload(splitft::Redis* redis, uint64_t records,
                        uint64_t seed, uint64_t rewrite_bytes) {
  splitft::YcsbWorkload loader(splitft::YcsbWorkloadKind::kWriteOnly, records,
                               seed);
  const std::string marker_key = "perfbench-aof-rewrite";
  std::vector<splitft::KvWrite> batch;
  uint64_t batch_bytes = 0;
  bool rewritten = false;
  for (uint64_t id = 0; id < records; ++id) {
    splitft::KvWrite w{splitft::YcsbWorkload::KeyFor(id), loader.ValueFor(id)};
    batch_bytes += SetFrameBytes(w.key.size(), w.value.size());
    batch.push_back(std::move(w));
    if (batch.size() < 128 && id + 1 < records) {
      continue;
    }
    if (!rewritten && redis->aof_bytes() + batch_bytes >= rewrite_bytes) {
      const uint64_t overhead = SetFrameBytes(marker_key.size(), 0);
      const uint64_t room = rewrite_bytes - redis->aof_bytes();
      const uint64_t len = room > overhead ? room - overhead : 1;
      RETURN_IF_ERROR(redis->Put(marker_key, std::string(len, 'm')));
      rewritten = true;
    }
    RETURN_IF_ERROR(redis->ApplyWriteBatch(batch));
    batch.clear();
    batch_bytes = 0;
  }
  return splitft::OkStatus();
}

struct Stack {
  std::unique_ptr<splitft::Testbed> testbed;
  std::unique_ptr<splitft::AppServer> server;
  splitft::Redis* redis = nullptr;  // owned by server->app

  void Reset() {
    redis = nullptr;
    server.reset();  // before the testbed it runs on
    testbed.reset();
  }
};

}  // namespace

void RunRecoverRedis(const RunConfig& config, Report* report) {
  const uint64_t preload_bytes = config.small ? 6ull << 20 : 48ull << 20;
  // The record count moves a little with the seed, so the AOF tail, and
  // with it every recovery time, differs between seeds.
  const uint64_t records =
      preload_bytes / SetFrameBytes(splitft::YcsbWorkload::kKeyBytes,
                                    splitft::YcsbWorkload::kValueBytes) +
      config.seed % 997;
  splitft::RedisOptions options;
  options.aof_rewrite_bytes = config.small ? 4ull << 20 : 32ull << 20;
  options.aof_capacity = options.aof_rewrite_bytes + (8ull << 20);
  const splitft::ServerOptions server_options{.ncl_capacity =
                                                  options.aof_capacity};
  const int setups = config.small ? 1 : 3;
  const int cycles = std::max(
      3, static_cast<int>(config.seconds * kCyclesPerSecond *
                          (config.small ? 0.5 : 1.0)));

  HostTrace trace(config.trace, 1 << 16);
  const uint32_t make_server_span = trace.Intern("splitft.make_server");
  const uint32_t start_span = trace.Intern("apps.start_redis");
  const uint32_t crash_span = trace.Intern("testbed.crash_server");
  const uint32_t put_span = trace.Intern("apps.put");
  const uint32_t get_span = trace.Intern("apps.get");

  auto start = [&](Stack* stack) {
    {
      HostSpan span(&trace, make_server_span);
      stack->server = stack->testbed->MakeServer(kAppId, server_options);
    }
    HostSpan span(&trace, start_span);
    auto redis = stack->testbed->StartRedis(stack->server.get(), options);
    if (!redis.ok()) {
      report->Fail("StartRedis: " + redis.status().ToString());
      return false;
    }
    stack->redis = redis->get();
    stack->server->app = std::move(*redis);
    return true;
  };

  Stack stack;
  std::vector<double> setup_s, speeds;
  for (int s = 0; s < setups; ++s) {
    stack.Reset();
    int64_t t0 = HostNowNs();
    splitft::TestbedOptions testbed_options;
    testbed_options.tracing = config.trace;
    stack.testbed = std::make_unique<splitft::Testbed>(testbed_options);
    if (!start(&stack)) {
      return;
    }
    splitft::Status loaded = Preload(stack.redis, records, config.seed,
                                     options.aof_rewrite_bytes);
    if (!loaded.ok()) {
      report->Fail("preload: " + loaded.ToString());
      return;
    }
    setup_s.push_back(static_cast<double>(HostNowNs() - t0) / 1e9);
    speeds.push_back(MachineSpeed());
  }

  splitft::Testbed& testbed = *stack.testbed;
  splitft::Simulation* sim = testbed.sim();
  splitft::MetricsRegistry* registry = testbed.metrics();

  if (stack.redis->rdb_snapshots() != 1) {
    report->Fail("preload made " +
                 std::to_string(stack.redis->rdb_snapshots()) +
                 " RDB snapshots, expected 1");
  }
  // Expected values of a seeded sample of preloaded keys: a twin of the
  // loader's generator replays its value stream.
  splitft::Rng rng(config.seed);
  std::unordered_map<std::string, std::string> preloaded;
  {
    std::vector<uint64_t> ids;
    for (int i = 0; i < kPreloadSample; ++i) {
      ids.push_back(rng.Uniform(records));
    }
    std::sort(ids.begin(), ids.end());
    splitft::YcsbWorkload twin(splitft::YcsbWorkloadKind::kWriteOnly, records,
                               config.seed);
    size_t next = 0;
    for (uint64_t id = 0; id < records && next < ids.size(); ++id) {
      std::string value = twin.ValueFor(id);
      for (; next < ids.size() && ids[next] == id; ++next) {
        preloaded[splitft::YcsbWorkload::KeyFor(id)] = value;
      }
    }
  }
  if (config.inject_mismatch && !preloaded.empty()) {
    preloaded.begin()->second += "#";
  }

  // Tail values are windows of one seeded random text, 64 B up to a
  // seed-dependent 128..143 B: SET latency follows the value size, so the
  // seed moves the latency percentiles.
  const uint64_t max_value = 128 + config.seed * 37 % 16;
  std::string text(1 << 16, '\0');
  for (char& c : text) {
    c = static_cast<char>('a' + rng.Uniform(26));
  }

  for (const char* h : {"ncl.record.latency_ns", "controller.rpc.latency_ns"}) {
    registry->histogram(h)->Reset();
  }
  CounterWindow counters(registry);
  auto sched0 = sim->scheduler_stats();
  std::unordered_map<std::string, std::string> oracle;  // acked tail SETs
  std::vector<int64_t> put_ns;
  std::vector<double> rss_mb;
  RecoveryLog recoveries;
  SimTime tail_virt = 0, recover_virt = 0;
  int64_t tail_host_ns = 0, recover_host_ns = 0;
  double replayed = 0;
  for (int c = 0; c < cycles; ++c) {
    // A tail SET that triggered an AOF rewrite would be lost (see Preload),
    // so the run must stay inside the AOF headroom.
    if (stack.redis->aof_bytes() +
            kTailWrites * SetFrameBytes(splitft::YcsbWorkload::kKeyBytes,
                                        max_value) >=
        options.aof_rewrite_bytes) {
      report->Fail("cycle " + std::to_string(c) +
                   ": tail writes would trigger an AOF rewrite; run shorter");
      break;
    }
    // ---- acked tail writes ------------------------------------------------
    SimTime tail_v0 = sim->Now();
    int64_t tail_h0 = HostNowNs();
    for (int w = 0; w < kTailWrites; ++w) {
      trace.set_op(static_cast<uint64_t>(c) * kTailWrites + w);
      std::string key = splitft::YcsbWorkload::KeyFor(rng.Uniform(records));
      uint64_t len = rng.UniformRange(64, max_value);
      std::string value = text.substr(rng.Uniform(text.size() - len), len);
      SimTime v0 = sim->Now();
      splitft::Status st;
      {
        HostSpan span(&trace, put_span);
        st = stack.redis->Put(key, value);
      }
      put_ns.push_back(sim->Now() - v0);
      report->attempted++;
      if (!st.ok()) {
        report->Fail("SET " + key + ": " + st.ToString());
        continue;
      }
      oracle[key] = std::move(value);
    }
    tail_host_ns += HostNowNs() - tail_h0;
    tail_virt += sim->Now() - tail_v0;

    // ---- crash and recover -----------------------------------------------
    {
      HostSpan span(&trace, crash_span);
      testbed.CrashServer(stack.server.get());
    }
    stack.redis = nullptr;
    stack.server.reset();
    sim->RunUntilIdle();
    auto before = testbed.tracer()->Snapshot();
    SimTime v0 = sim->Now();
    int64_t h0 = HostNowNs();
    trace.set_op(0);
    if (!start(&stack)) {
      return;
    }
    int64_t host_ns = HostNowNs() - h0;
    recover_host_ns += host_ns;
    recover_virt += sim->Now() - v0;
    recoveries.Add(sim->Now() - v0, host_ns,
                   SpanDiff(before, testbed.tracer()->Snapshot()));
    replayed += static_cast<double>(stack.redis->replayed_commands());

    // ---- verify every acked tail key and the preloaded sample -----------
    auto check = [&](const std::string& key, const std::string& want,
                     const char* kind) {
      splitft::Result<std::string> got = splitft::NotFoundError("unread");
      {
        HostSpan span(&trace, get_span);
        got = stack.redis->Get(key);
      }
      if (!got.ok() || *got != want) {
        report->Fail("oracle after recovery " + std::to_string(c) + ": " +
                     kind + " key " + key +
                     (got.ok() ? " has a stale value"
                               : " unreadable: " + got.status().ToString()));
      }
    };
    for (const auto& [key, value] : oracle) {
      check(key, value, "tail");
    }
    for (const auto& [key, value] : preloaded) {
      auto it = oracle.find(key);
      check(key, it == oracle.end() ? value : it->second, "preloaded");
    }
    rss_mb.push_back(CurrentRssMb());
    speeds.push_back(MachineSpeed());
  }

  if (recoveries.count() == 0) {
    return;
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double n_rec = static_cast<double>(recoveries.count());
  const double speed = ReportHostTimes(
      speeds, setup_s, static_cast<double>(put_ns.size()),
      static_cast<double>(tail_host_ns + recover_host_ns) / 1e9,
      static_cast<double>(tail_virt + recover_virt) / 1e9, report);
  // Ops are the tail SETs alone; recoveries are timed on their own.
  report->host["host_ops_per_s"] =
      static_cast<double>(put_ns.size()) /
      (static_cast<double>(tail_host_ns) / 1e9 * speed);
  report->host["process.rss_growth_mb_per_cycle"] =
      (rss_mb.back() - rss_mb.front()) / std::max(1.0, n_rec - 1);
  report->virt["virt_ops_per_s"] = ratio(static_cast<double>(put_ns.size()),
                                         static_cast<double>(tail_virt) / 1e9);
  report->virt["op_samples"] = static_cast<double>(put_ns.size());
  report->virt["op_p50_us"] = Quantile(&put_ns, 0.50) / 1e3;
  report->virt["op_p99_us"] = Quantile(&put_ns, 0.99) / 1e3;
  report->virt["op_p999_us"] = Quantile(&put_ns, 0.999) / 1e3;
  recoveries.Report(config.trace, speed, report);
  report->virt["apps.redis.replayed_commands"] = replayed / n_rec;
  report->virt["rdma.read_bytes_per_recovery"] =
      counters.Delta("fabric.wr.read_bytes") / n_rec;
  report->virt["controller.rpcs_per_recovery"] =
      counters.Delta("controller.rpc.count") / n_rec;
  report->virt["controller.rpc_virt_us.p50"] =
      HistogramPercentile(registry, "controller.rpc.latency_ns", 0.5) / 1e3;
  const double ra_hits = counters.Delta("dfs.client.readahead_hits");
  report->virt["dfs.readahead_hit_ratio"] =
      ratio(ra_hits, ra_hits + counters.Delta("dfs.client.readahead_misses"));
  report->virt["ncl.record_virt_us.p50"] =
      HistogramPercentile(registry, "ncl.record.latency_ns", 0.5) / 1e3;
  report->virt["ncl.record_virt_us.p99"] =
      HistogramPercentile(registry, "ncl.record.latency_ns", 0.99) / 1e3;
  report->virt["ncl.records_per_op"] = ratio(
      counters.Delta("ncl.record.count"), static_cast<double>(put_ns.size()));
  ReportScheduler(sched0, sim->scheduler_stats(), report);
  ReportRunCounters(registry, report);
  if (config.trace) {
    AddHostSpanMean(trace, "splitft.make_server",
                    "splitft.make_server_host_ms", 1e-6, report);
    AddHostSpanMean(trace, "apps.get", "apps.get_host_ns", 1, report);
    AddHostSpanMean(trace, "apps.put", "apps.commit_host_ns", 1, report);
    ProbeYcsb(records, config.seed, report);
    ProbeCrc32c("common.crc32c_host_GBps.frame", 160, report);
    ProbeCrc32c("common.crc32c_host_GBps.rdb", options.aof_rewrite_bytes,
                report);
    WriteSpans(trace, config, report);
  }
}

}  // namespace perfbench
