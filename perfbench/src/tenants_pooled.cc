// tenants_pooled: 256 NclClient tenants on 8 log peers sharing the
// testbed's pooled connection fabric. Even tenants are 3-way replicated
// (f=1), odd tenants erasure-coded 2+2 (f=2), so a change to one
// redundancy path cannot hide a loss on the other. One caller walks the
// tenants round-robin: a burst of AppendAsync calls, then Drain. 64 KiB
// logs are truncated when full, so memory stays flat for any run length.
// No app, dfs or checksum work is on this path: pool polling, the commit
// watermark, WR posting and the scheduler do nearly all of it.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/common/rng.h"
#include "src/harness/testbed.h"
#include "src/ncl/ncl_client.h"

namespace perfbench {
namespace {

using splitft::SimTime;

// Committed appends per requested second (reference machine).
constexpr double kAppendsPerSecond = 140000;
// The measured phase runs as equal chunks of bursts; a few tenants crash
// and recover after each chunk, so recoveries are sampled across the run.
constexpr int kChunks = 20;
constexpr int kRecoveriesPerChunk = 8;
constexpr int kPeers = 8;
constexpr int kBurst = 4;
constexpr uint64_t kLogBytes = 64 << 10;
// Record sizes are uniform in [kMinRecord, kMaxRecord + 0..15]: about
// 115 B, with a seed-dependent spread so latency percentiles, which follow
// the record sizes, differ between seeds, while the bytes per append (and
// with them the host work) stay within a few percent.
constexpr uint64_t kMinRecord = 96;
constexpr uint64_t kMaxRecord = 128;

struct Tenant {
  splitft::NclConfig config;
  std::unique_ptr<splitft::NclClient> client;
  std::unique_ptr<splitft::NclFile> file;
  std::string oracle;  // log contents since the last Truncate
  bool ec = false;
};

splitft::NclConfig TenantConfig(splitft::Testbed* testbed, int i) {
  splitft::NclConfig config;
  config.app_id = "tenant-" + std::to_string(i);
  config.default_capacity = kLogBytes;
  config.pool = testbed->shared_pool();
  if (i % 2 == 1) {
    config.ec_enabled = true;
    config.ec = splitft::EcGeometry{2, 2, 64};
    config.fault_budget = 2;
  }
  return config;
}

int64_t SlabUsed(const splitft::MetricsRegistry* registry) {
  int64_t used = 0;
  for (const auto& [name, gauge] : registry->gauges()) {
    if (name.rfind("ncl.peer.", 0) == 0 &&
        name.size() > 16 &&
        name.compare(name.size() - 16, 16, ".slab_used_bytes") == 0) {
      used += gauge->value();
    }
  }
  return used;
}

// A record payload: a window of the seeded random text.
std::string_view Record(const std::string& text, splitft::Rng* rng,
                        uint64_t size) {
  return std::string_view(text.data() + rng->Uniform(text.size() - size),
                          size);
}

// Builds every tenant: replicated ones first, then erasure-coded ones, so
// the peer slab growth of each kind can be read off separately. Each log is
// preloaded to a seeded fill level, so truncations are spread over the run
// instead of all tenants wrapping in step.
bool MakeTenants(splitft::Testbed* testbed, int n, uint64_t seed,
                 uint64_t max_record, const std::string& text,
                 HostTrace* trace,
                 std::vector<Tenant>* tenants, double slab_delta[2],
                 Report* report) {
  splitft::Rng rng(seed);
  const uint32_t create_span = trace->Intern("ncl.create");
  splitft::ObsContext obs{testbed->metrics(), testbed->tracer()};
  tenants->clear();
  tenants->resize(static_cast<size_t>(n));
  for (int kind = 0; kind < 2; ++kind) {
    int64_t slab0 = SlabUsed(testbed->metrics());
    for (int i = kind; i < n; i += 2) {
      Tenant& t = (*tenants)[static_cast<size_t>(i)];
      t.config = TenantConfig(testbed, i);
      t.ec = t.config.ec_enabled;
      t.client = std::make_unique<splitft::NclClient>(
          t.config, testbed->fabric(), testbed->controller(),
          testbed->directory(), testbed->app_node(), obs);
      splitft::Result<std::unique_ptr<splitft::NclFile>> file =
          splitft::UnavailableError("not created");
      {
        HostSpan span(trace, create_span);
        file = t.client->Create("wal");
      }
      if (!file.ok()) {
        report->Fail("tenant " + std::to_string(i) +
                     " Create: " + file.status().ToString());
        return false;
      }
      t.file = std::move(*file);
      const uint64_t fill = rng.Uniform(kLogBytes * 3 / 4);
      while (t.oracle.size() < fill) {
        std::string_view rec =
            Record(text, &rng, rng.UniformRange(kMinRecord, max_record));
        splitft::Status st = t.file->Append(rec);
        if (!st.ok()) {
          report->Fail("tenant " + std::to_string(i) +
                       " preload: " + st.ToString());
          return false;
        }
        t.oracle.append(rec);
      }
    }
    slab_delta[kind] =
        static_cast<double>(SlabUsed(testbed->metrics()) - slab0);
  }
  return true;
}

bool CheckTenant(Tenant& t, int i, const char* when, Report* report) {
  auto got = t.file->Read(0, t.file->size());
  if (!got.ok() || *got != t.oracle) {
    report->Fail("oracle " + std::string(when) + ": tenant " +
                 std::to_string(i) +
                 (got.ok() ? " log differs from its oracle"
                           : " unreadable: " + got.status().ToString()));
    return false;
  }
  return true;
}

// Counters the measured phase reports; recoveries between chunks are
// subtracted out.
constexpr const char* kAppendCounters[] = {
    "ncl.record.count", "fabric.wr.writes_posted", "fabric.wr.doorbells",
    "fabric.wr.write_bytes"};

// The tenant's process crashes; a fresh client recovers its log, which
// must then match the tenant's oracle.
bool RecoverTenant(splitft::Testbed* testbed, Tenant& t, int i,
                   HostTrace* trace, Report* report, RecoveryLog* log) {
  t.file.reset();
  t.client.reset();
  splitft::Simulation* sim = testbed->sim();
  auto before = testbed->tracer()->Snapshot();
  SimTime v0 = sim->Now();
  int64_t h0 = HostNowNs();
  splitft::Result<std::unique_ptr<splitft::NclFile>> file =
      splitft::UnavailableError("not recovered");
  {
    HostSpan span(trace, trace->Intern("ncl.recover"));
    t.client = std::make_unique<splitft::NclClient>(
        t.config, testbed->fabric(), testbed->controller(),
        testbed->directory(), testbed->app_node(),
        splitft::ObsContext{testbed->metrics(), testbed->tracer()});
    file = t.client->Recover("wal");
  }
  int64_t host_ns = HostNowNs() - h0;
  if (!file.ok()) {
    report->Fail("tenant " + std::to_string(i) +
                 " Recover: " + file.status().ToString());
    return false;
  }
  t.file = std::move(*file);
  log->Add(sim->Now() - v0, host_ns,
           SpanDiff(before, testbed->tracer()->Snapshot()));
  CheckTenant(t, i, "after recovery", report);
  return true;
}

}  // namespace

void RunTenantsPooled(const RunConfig& config, Report* report) {
  const int n = config.small ? 32 : 256;
  const int setups = config.small ? 1 : 3;
  const uint64_t max_record = kMaxRecord + config.seed * 37 % 16;
  const uint64_t total_bursts = std::max<uint64_t>(
      kChunks * 10,
      static_cast<uint64_t>(config.seconds * kAppendsPerSecond *
                            (config.small ? 0.05 : 1.0) / kBurst));

  HostTrace trace(config.trace, 1 << 16);
  const uint32_t append_span[2] = {trace.Intern("ncl.append_async.rep"),
                                   trace.Intern("ncl.append_async.ec")};
  const uint32_t drain_span[2] = {trace.Intern("ncl.drain.rep"),
                                  trace.Intern("ncl.drain.ec")};
  const uint32_t truncate_span = trace.Intern("ncl.truncate");

  // Record payloads are windows of one seeded random text.
  splitft::Rng rng(config.seed);
  std::string text(1 << 16, '\0');
  for (char& c : text) {
    c = static_cast<char>('a' + rng.Uniform(26));
  }

  // Tenants are declared after the testbed they run on, so they are
  // destroyed first.
  std::unique_ptr<splitft::Testbed> testbed;
  std::vector<Tenant> tenants;
  std::vector<double> setup_s, speeds;
  double slab_delta[2] = {0, 0};
  double rpcs_per_tenant = 0;
  for (int s = 0; s < setups; ++s) {
    tenants.clear();
    testbed.reset();
    int64_t t0 = HostNowNs();
    splitft::TestbedOptions options;
    options.num_peers = kPeers;
    options.tracing = config.trace;
    testbed = std::make_unique<splitft::Testbed>(options);
    uint64_t rpcs0 = testbed->controller()->rpc_count();
    if (!MakeTenants(testbed.get(), n, config.seed + 1, max_record, text,
                     &trace, &tenants, slab_delta, report)) {
      return;
    }
    setup_s.push_back(static_cast<double>(HostNowNs() - t0) / 1e9);
    speeds.push_back(MachineSpeed());
    rpcs_per_tenant =
        static_cast<double>(testbed->controller()->rpc_count() - rpcs0) / n;
  }

  splitft::Simulation* sim = testbed->sim();
  splitft::MetricsRegistry* registry = testbed->metrics();
  registry->histogram("ncl.record.latency_ns")->Reset();
  registry->histogram("controller.rpc.latency_ns")->Reset();
  CounterWindow counters(registry);
  auto sched0 = sim->scheduler_stats();
  auto spans0 = testbed->tracer()->Snapshot();

  // ---- measured phase ----------------------------------------------------
  std::vector<int64_t> burst_ns;
  burst_ns.reserve(total_bursts);
  uint64_t appends = 0;
  double user_bytes = 0;
  const SimTime virt0 = sim->Now();
  SimTime recovery_virt = 0;  // excluded from the append throughput
  int64_t host_elapsed = 0;
  RecoveryLog recoveries;
  std::map<std::string, double> recovery_counts;
  uint64_t burst = 0;
  for (int c = 0; c < kChunks; ++c) {
    const uint64_t chunk_end = total_bursts * (c + 1) / kChunks;
    int64_t h0 = HostNowNs();
    for (; burst < chunk_end; ++burst) {
      const int i = static_cast<int>(burst % static_cast<uint64_t>(n));
      Tenant& t = tenants[static_cast<size_t>(i)];
      trace.set_op(burst);
      uint64_t sizes[kBurst];
      uint64_t burst_bytes = 0;
      for (uint64_t& size : sizes) {
        size = rng.UniformRange(kMinRecord, max_record);
        burst_bytes += size;
      }
      if (t.file->size() + burst_bytes > t.file->capacity()) {
        HostSpan span(&trace, truncate_span);
        splitft::Status st = t.file->Truncate();
        if (!st.ok()) {
          report->Fail("tenant " + std::to_string(i) +
                       " Truncate: " + st.ToString());
        }
        t.oracle.clear();
      }
      SimTime v0 = sim->Now();
      for (uint64_t size : sizes) {
        std::string_view rec = Record(text, &rng, size);
        splitft::Status st;
        {
          HostSpan span(&trace, append_span[t.ec]);
          st = t.file->AppendAsync(rec);
        }
        appends++;
        if (!st.ok()) {
          report->Fail("tenant " + std::to_string(i) +
                       " AppendAsync: " + st.ToString());
          continue;
        }
        t.oracle.append(rec);
        user_bytes += static_cast<double>(size);
      }
      splitft::Status drained;
      {
        HostSpan span(&trace, drain_span[t.ec]);
        drained = t.file->Drain();
      }
      if (!drained.ok()) {
        report->Fail("tenant " + std::to_string(i) +
                     " Drain: " + drained.ToString());
      }
      burst_ns.push_back(sim->Now() - v0);
    }
    int64_t host_ns = HostNowNs() - h0;
    host_elapsed += host_ns;
    speeds.push_back(MachineSpeed());

    CounterWindow during(registry);
    SimTime r0 = sim->Now();
    for (int r = 0; r < kRecoveriesPerChunk; ++r) {
      // Alternate replicated and erasure-coded tenants.
      const int i =
          static_cast<int>(rng.Uniform(static_cast<uint64_t>(n / 2))) * 2 +
          r % 2;
      if (!RecoverTenant(testbed.get(), tenants[static_cast<size_t>(i)], i,
                         &trace, report, &recoveries)) {
        return;
      }
    }
    recovery_virt += sim->Now() - r0;
    for (const char* name : kAppendCounters) {
      recovery_counts[name] += during.Delta(name);
    }
  }
  report->attempted += appends;
  const SimTime virt_elapsed = sim->Now() - virt0 - recovery_virt;
  auto appended = [&](const char* name) {
    return counters.Delta(name) - recovery_counts[name];
  };
  auto spans_measured = SpanDiff(spans0, testbed->tracer()->Snapshot());

  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double speed = ReportHostTimes(
      speeds, setup_s, static_cast<double>(appends),
      static_cast<double>(host_elapsed) / 1e9,
      static_cast<double>(virt_elapsed) / 1e9, report);
  report->virt["virt_ops_per_s"] = ratio(
      static_cast<double>(appends), static_cast<double>(virt_elapsed) / 1e9);
  report->virt["op_samples"] = static_cast<double>(burst_ns.size());
  report->virt["op_p50_us"] = Quantile(&burst_ns, 0.50) / 1e3;
  report->virt["op_p99_us"] = Quantile(&burst_ns, 0.99) / 1e3;
  report->virt["op_p999_us"] = Quantile(&burst_ns, 0.999) / 1e3;
  recoveries.Report(config.trace, speed, report);

  const double records_posted = appended("ncl.record.count");
  report->virt["ncl.records_per_op"] =
      ratio(records_posted, static_cast<double>(appends));
  report->virt["ncl.record_virt_us.p50"] =
      HistogramPercentile(registry, "ncl.record.latency_ns", 0.5) / 1e3;
  report->virt["ncl.record_virt_us.p99"] =
      HistogramPercentile(registry, "ncl.record.latency_ns", 0.99) / 1e3;
  report->virt["rdma.wrs_per_append"] = ratio(
      appended("fabric.wr.writes_posted"), static_cast<double>(appends));
  report->virt["rdma.wrs_per_doorbell"] =
      ratio(appended("fabric.wr.writes_posted"),
            appended("fabric.wr.doorbells"));
  report->virt["rdma.write_bytes_per_user_byte"] =
      ratio(appended("fabric.wr.write_bytes"), user_bytes);
  const double reps = n / 2, ecs = n - n / 2;
  report->virt["ncl.peer.slab_bytes_per_log_byte.rep"] =
      ratio(slab_delta[0], reps * kLogBytes);
  report->virt["ncl.peer.slab_bytes_per_log_byte.ec"] =
      ratio(slab_delta[1], ecs * kLogBytes);
  report->virt["controller.rpcs_per_tenant"] = rpcs_per_tenant;
  const splitft::Gauge* qps = registry->FindGauge("ncl.pool.qps_open");
  report->virt["ncl.pool.qps_open"] =
      qps == nullptr ? 0 : static_cast<double>(qps->value());
  ReportScheduler(sched0, sim->scheduler_stats(), report);
  if (config.trace) {
    AddHostSpanMean(trace, "ncl.append_async.rep", "ncl.append_host_ns.rep", 1,
                    report);
    AddHostSpanMean(trace, "ncl.append_async.ec", "ncl.append_host_ns.ec", 1,
                    report);
    AddHostSpanMean(trace, "ncl.drain.rep", "ncl.drain_host_ns.rep", 1, report);
    AddHostSpanMean(trace, "ncl.drain.ec", "ncl.drain_host_ns.ec", 1, report);
    AddHostSpanMean(trace, "ncl.create", "ncl.create_host_us", 1e-3, report);
    report->traced["rdma.wr_write_virt_us"] =
        MeanAsyncSpanUs(spans_measured, "fabric.wr.write");
  }

  // Appends do no reads and no controller RPCs: those are the recoveries'.
  const double n_rec = static_cast<double>(recoveries.count());
  report->virt["rdma.read_bytes_per_recovery"] =
      counters.Delta("fabric.wr.read_bytes") / n_rec;
  report->virt["controller.rpcs_per_recovery"] =
      counters.Delta("controller.rpc.count") / n_rec;
  report->virt["controller.rpc_virt_us.p50"] =
      HistogramPercentile(registry, "controller.rpc.latency_ns", 0.5) / 1e3;

  // ---- oracle: every tenant's log ----------------------------------------
  if (config.inject_mismatch) {
    tenants[0].oracle += "#";
  }
  for (int i = 0; i < n; ++i) {
    CheckTenant(tenants[static_cast<size_t>(i)], i, "after run", report);
  }

  ReportRunCounters(registry, report);
  if (config.trace) {
    WriteSpans(trace, config, report);
  }
}

}  // namespace perfbench
