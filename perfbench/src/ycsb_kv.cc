// ycsb_a_kv: YCSB-A (50/50 read/update, zipfian) on rocksdb-mini in
// SplitFT mode over the default three-server dfs, driven by the
// ClosedLoopHarness (12 closed-loop clients, 10 us RTT, group commit). The
// data set is about 3.3x the block cache, so reads miss to the sstables
// while group-committed NCL appends, memtable flushes and compactions run
// beside them.
//
// Recovery is measured on a separate probe store of fixed size, crashed
// and recovered between chunks, so every recovery replays the same state
// and the measured store's steady state is left alone. The measured store
// itself is crashed and recovered once at the end, untimed, to check that
// every acked write survives.
#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/common/rng.h"
#include "src/harness/closed_loop.h"
#include "src/harness/testbed.h"
#include "src/workload/ycsb.h"

namespace perfbench {
namespace {

using splitft::SimTime;

// Measured client ops per requested second: about one host second of
// measurement per requested second on the reference machine (4-core VM,
// RelWithDebInfo).
constexpr double kOpsPerSecond = 300000;
// The measured phase runs as equal chunks of client ops; one recovery of
// the probe store follows each chunk, so recoveries are sampled across the
// whole run rather than in one burst at its end. A chunk is long enough
// (about two memtable flushes) that every chunk carries a similar share of
// flush and compaction work.
constexpr int kChunks = 10;
// Records of the recovery probe: one memtable flush plus about 1 MB of WAL.
constexpr uint64_t kProbeRecords = 24000;

// Forwarding StorageApp that times every call the harness makes and keeps
// the oracle: the last acknowledged value of every updated key.
class TimedApp : public splitft::StorageApp {
 public:
  TimedApp(splitft::StorageApp* inner, splitft::Simulation* sim,
           HostTrace* trace, Report* report)
      : inner_(inner),
        sim_(sim),
        trace_(trace),
        report_(report),
        get_span_(trace->Intern("apps.get")),
        commit_span_(trace->Intern("apps.commit")) {}

  splitft::Status Put(std::string_view key, std::string_view value) override {
    return ApplyWriteBatch({splitft::KvWrite{std::string(key),
                                             std::string(value)}});
  }

  splitft::Result<std::string> Get(std::string_view key) override {
    HostSpan span(trace_, get_span_);
    SimTime t0 = sim_->Now();
    auto result = inner_->Get(key);
    get_virt_.Add(sim_->Now() - t0);
    gets_++;
    // Every YCSB-A key was preloaded, so even kNotFound is a failure.
    if (!result.ok()) {
      report_->Fail("get " + std::string(key) + ": " +
                    result.status().ToString());
    }
    return result;
  }

  splitft::Status ApplyWriteBatch(
      const std::vector<splitft::KvWrite>& batch) override {
    auto done = ApplyWriteBatchDeferred(batch);
    return done.ok() ? splitft::OkStatus() : done.status();
  }

  splitft::Result<SimTime> ApplyWriteBatchDeferred(
      const std::vector<splitft::KvWrite>& batch) override {
    HostSpan span(trace_, commit_span_);
    SimTime t0 = sim_->Now();
    auto done = inner_->ApplyWriteBatchDeferred(batch);
    commits_++;
    writes_ += batch.size();
    if (!done.ok()) {
      for (size_t i = 0; i < batch.size(); ++i) {
        report_->Fail("commit: " + done.status().ToString());
      }
      return done;
    }
    SimTime durable = std::max(*done, sim_->Now());
    commit_virt_.Add(durable - t0);
    durable_at_ = std::max(durable_at_, durable);
    for (const splitft::KvWrite& w : batch) {
      oracle_[w.key] = w.value;
      user_bytes_ += w.key.size() + w.value.size();
    }
    return done;
  }

  bool supports_batching() const override {
    return inner_->supports_batching();
  }
  bool parallel_reads() const override { return inner_->parallel_reads(); }
  std::string name() const override { return inner_->name(); }

  std::unordered_map<std::string, std::string>* oracle() { return &oracle_; }
  SimTime durable_at() const { return durable_at_; }
  uint64_t gets() const { return gets_; }
  uint64_t commits() const { return commits_; }
  uint64_t writes() const { return writes_; }
  uint64_t user_bytes() const { return user_bytes_; }
  const splitft::Histogram& get_virt() const { return get_virt_; }
  const splitft::Histogram& commit_virt() const { return commit_virt_; }

 private:
  splitft::StorageApp* inner_;
  splitft::Simulation* sim_;
  HostTrace* trace_;
  Report* report_;
  uint32_t get_span_;
  uint32_t commit_span_;
  std::unordered_map<std::string, std::string> oracle_;
  SimTime durable_at_ = 0;
  uint64_t gets_ = 0;
  uint64_t commits_ = 0;
  uint64_t writes_ = 0;
  uint64_t user_bytes_ = 0;
  splitft::Histogram get_virt_;
  splitft::Histogram commit_virt_;
};

// Reads every oracle key straight from the store (not through the
// wrapper) and counts mismatches as failures.
void CheckOracle(splitft::KvStore* store,
                 const std::unordered_map<std::string, std::string>& oracle,
                 const char* when, Report* report) {
  for (const auto& [key, value] : oracle) {
    auto got = store->Get(key);
    if (!got.ok() || *got != value) {
      report->Fail(std::string("oracle ") + when + ": key " + key +
                   (got.ok() ? " has a stale value"
                             : " unreadable: " + got.status().ToString()));
    }
  }
}

struct Stack {
  std::unique_ptr<splitft::Testbed> testbed;
  std::unique_ptr<splitft::AppServer> server;
  splitft::KvStore* store = nullptr;  // owned by server->app

  void Reset() {
    store = nullptr;
    server.reset();  // before the testbed it runs on
    testbed.reset();
  }
};

constexpr char kAppId[] = "ycsb-kv";

bool StartStore(Stack* stack, const splitft::KvStoreOptions& options,
                HostTrace* trace, Report* report) {
  {
    HostSpan span(trace, trace->Intern("splitft.make_server"));
    stack->server = stack->testbed->MakeServer(kAppId);
  }
  HostSpan span(trace, trace->Intern("apps.start_kvstore"));
  auto store = stack->testbed->StartKvStore(stack->server.get(), options);
  if (!store.ok()) {
    report->Fail("StartKvStore: " + store.status().ToString());
    return false;
  }
  stack->store = store->get();
  stack->server->app = std::move(*store);
  return true;
}

// Crashes the stack's server and restarts the store on a fresh one.
bool CrashAndRecover(Stack* stack, const splitft::KvStoreOptions& options,
                     HostTrace* trace, Report* report, RecoveryLog* log) {
  splitft::Testbed* testbed = stack->testbed.get();
  {
    HostSpan span(trace, trace->Intern("testbed.crash_server"));
    testbed->CrashServer(stack->server.get());
  }
  stack->store = nullptr;
  stack->server.reset();
  testbed->sim()->RunUntilIdle();
  auto before = testbed->tracer()->Snapshot();
  splitft::SimTime v0 = testbed->sim()->Now();
  int64_t h0 = HostNowNs();
  if (!StartStore(stack, options, trace, report)) {
    return false;
  }
  if (log != nullptr) {
    log->Add(testbed->sim()->Now() - v0, HostNowNs() - h0,
             SpanDiff(before, testbed->tracer()->Snapshot()));
  }
  return true;
}

splitft::KvStoreOptions StoreOptions(uint64_t records) {
  splitft::KvStoreOptions options;
  options.block_cache_bytes = static_cast<uint64_t>(
      0.3 * static_cast<double>(records) *
      (splitft::YcsbWorkload::kKeyBytes + splitft::YcsbWorkload::kValueBytes));
  return options;
}

// Builds a testbed with a preloaded store.
bool BuildStack(Stack* stack, uint64_t records, uint64_t seed, bool tracing,
                HostTrace* trace, Report* report) {
  splitft::TestbedOptions options;
  options.tracing = tracing;
  stack->testbed = std::make_unique<splitft::Testbed>(options);
  if (!StartStore(stack, StoreOptions(records), trace, report)) {
    return false;
  }
  splitft::Status loaded =
      splitft::Testbed::LoadRecords(stack->store, records, seed);
  if (!loaded.ok()) {
    report->Fail("preload: " + loaded.ToString());
    return false;
  }
  return true;
}

}  // namespace

void RunYcsbKv(const RunConfig& config, Report* report) {
  // The measured store's size is fixed: the record count decides which
  // keys the scrambled zipfian makes hot. The probe's size moves a little
  // with the seed so its recovery time differs between seeds.
  const uint64_t records = config.small ? 20000 : 200000;
  const uint64_t probe_records =
      (config.small ? kProbeRecords / 4 : kProbeRecords) + config.seed % 97;
  const uint64_t total_ops = std::max<uint64_t>(
      kChunks * 100,
      static_cast<uint64_t>(config.seconds * kOpsPerSecond *
                            (config.small ? 0.05 : 1.0)));
  const int setups = config.small ? 1 : 3;

  HostTrace trace(config.trace, 1 << 16);
  const uint32_t run_span = trace.Intern("harness.run");

  // Set up several times and keep the last stacks: setup_s is the median.
  // Testbeds must end in the reverse order of their construction: each
  // routes the process-wide DiscardStatus accounting to itself and hands
  // it back to its predecessor when destroyed.
  Stack stack, probe;
  std::vector<double> setup_s, speeds;
  for (int s = 0; s < setups; ++s) {
    probe.Reset();
    stack.Reset();
    int64_t t0 = HostNowNs();
    if (!BuildStack(&stack, records, config.seed, config.trace, &trace,
                    report) ||
        !BuildStack(&probe, probe_records, config.seed + 1, config.trace,
                    &trace, report)) {
      return;
    }
    setup_s.push_back(static_cast<double>(HostNowNs() - t0) / 1e9);
    speeds.push_back(MachineSpeed());
  }

  splitft::Testbed& testbed = *stack.testbed;
  splitft::Simulation* sim = testbed.sim();
  splitft::MetricsRegistry* registry = testbed.metrics();
  for (const char* h : {"ncl.record.latency_ns", "dfs.client.fsync_wait_ns"}) {
    registry->histogram(h)->Reset();
  }
  CounterWindow counters(registry);
  splitft::MetricsRegistry* probe_registry = probe.testbed->metrics();
  probe_registry->histogram("controller.rpc.latency_ns")->Reset();
  CounterWindow probe_counters(probe_registry);
  auto sched0 = sim->scheduler_stats();
  auto spans0 = testbed.tracer()->Snapshot();
  const uint64_t cache_hits0 = stack.store->block_cache().hits();
  const uint64_t cache_misses0 = stack.store->block_cache().misses();
  const uint64_t evictions0 = stack.store->block_cache().evictions();

  // ---- measured phase ----------------------------------------------------
  splitft::YcsbWorkload workload(splitft::YcsbWorkloadKind::kA, records,
                                 config.seed * 0x9e3779b97f4a7c15ull + 1);
  TimedApp app(stack.store, sim, &trace, report);
  RecoveryLog recoveries;
  splitft::Histogram latency;
  uint64_t ops = 0;
  SimTime virt_elapsed = 0;
  int64_t host_elapsed = 0;
  for (int c = 0; c < kChunks; ++c) {
    splitft::HarnessOptions harness_options;
    harness_options.target_ops = total_ops / kChunks;
    harness_options.max_duration = splitft::Seconds(3600);
    splitft::ClosedLoopHarness harness(sim, &app, &workload, harness_options);
    trace.set_op(static_cast<uint64_t>(c));
    int64_t h0 = HostNowNs();
    splitft::HarnessResult result;
    {
      HostSpan span(&trace, run_span);
      result = harness.Run();
    }
    int64_t host_ns = HostNowNs() - h0;
    host_elapsed += host_ns;
    ops += result.ops;
    virt_elapsed += result.duration;
    latency.Merge(result.latency);
    speeds.push_back(MachineSpeed());
    if (!CrashAndRecover(&probe, StoreOptions(probe_records), &trace, report,
                         &recoveries)) {
      return;
    }
  }
  report->attempted += ops;
  // Acked writes are durable once the last deferred commit lands.
  sim->RunUntil(std::max(app.durable_at(), sim->Now()));
  auto spans_measured = SpanDiff(spans0, testbed.tracer()->Snapshot());

  const double speed = ReportHostTimes(
      speeds, setup_s, static_cast<double>(ops),
      static_cast<double>(host_elapsed) / 1e9,
      static_cast<double>(virt_elapsed) / 1e9, report);
  report->virt["virt_ops_per_s"] =
      static_cast<double>(ops) / (static_cast<double>(virt_elapsed) / 1e9);
  report->virt["op_p50_us"] = latency.Percentile(0.50) / 1e3;
  report->virt["op_p99_us"] = latency.Percentile(0.99) / 1e3;
  report->virt["op_p999_us"] = latency.Percentile(0.999) / 1e3;
  report->virt["op_samples"] = static_cast<double>(latency.count());
  recoveries.Report(config.trace, speed, report);

  // ---- per-layer counts of the measured phase ----------------------------
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double records_posted = counters.Delta("ncl.record.count");
  const double user_bytes = static_cast<double>(app.user_bytes());
  report->virt["apps.get_virt_us.p50"] = app.get_virt().Percentile(0.5) / 1e3;
  report->virt["apps.get_virt_us.p99"] = app.get_virt().Percentile(0.99) / 1e3;
  report->virt["apps.commit_virt_us.p50"] =
      app.commit_virt().Percentile(0.5) / 1e3;
  report->virt["apps.commit_virt_us.p99"] =
      app.commit_virt().Percentile(0.99) / 1e3;
  report->virt["apps.writes_per_commit"] = ratio(
      static_cast<double>(app.writes()), static_cast<double>(app.commits()));
  const double hits =
      static_cast<double>(stack.store->block_cache().hits() - cache_hits0);
  const double misses =
      static_cast<double>(stack.store->block_cache().misses() - cache_misses0);
  report->virt["apps.kvstore.block_cache_hit_ratio"] =
      ratio(hits, hits + misses);
  report->virt["apps.kvstore.evictions"] = static_cast<double>(
      stack.store->block_cache().evictions() - evictions0);
  report->virt["ncl.records_per_op"] =
      ratio(records_posted, static_cast<double>(ops));
  report->virt["ncl.record_virt_us.p50"] =
      HistogramPercentile(registry, "ncl.record.latency_ns", 0.5) / 1e3;
  report->virt["ncl.record_virt_us.p99"] =
      HistogramPercentile(registry, "ncl.record.latency_ns", 0.99) / 1e3;
  report->virt["rdma.wrs_per_append"] =
      ratio(counters.Delta("fabric.wr.writes_posted"), records_posted);
  report->virt["rdma.wrs_per_doorbell"] =
      ratio(counters.Delta("fabric.wr.writes_posted"),
            counters.Delta("fabric.wr.doorbells"));
  report->virt["rdma.write_bytes_per_user_byte"] =
      ratio(counters.Delta("fabric.wr.write_bytes"), user_bytes);
  report->virt["dfs.write_amp"] =
      ratio(counters.Delta("dfs.cluster.bytes_written"), user_bytes);
  report->virt["dfs.background_syncs"] =
      counters.Delta("dfs.client.background_syncs");
  report->virt["dfs.fsync_wait_us.p99"] =
      HistogramPercentile(registry, "dfs.client.fsync_wait_ns", 0.99) / 1e3;
  report->virt["dfs.reads_per_get"] = ratio(
      counters.Delta("dfs.client.reads"), static_cast<double>(app.gets()));
  ReportScheduler(sched0, sim->scheduler_stats(), report);
  ReportRunCounters(registry, report);
  // The probe's testbed is the innermost one, so discards land there.
  report->virt["common.status.discards_nonok"] +=
      static_cast<double>(
          probe_registry->CounterValue("common.status.discards_nonok"));

  // Recovery-side counters come from the probe's registry.
  const double n_rec = static_cast<double>(recoveries.count());
  report->virt["rdma.read_bytes_per_recovery"] =
      probe_counters.Delta("fabric.wr.read_bytes") / n_rec;
  report->virt["controller.rpcs_per_recovery"] =
      probe_counters.Delta("controller.rpc.count") / n_rec;
  report->virt["controller.rpc_virt_us.p50"] =
      HistogramPercentile(probe_registry, "controller.rpc.latency_ns", 0.5) /
      1e3;
  const double ra_hits = probe_counters.Delta("dfs.client.readahead_hits");
  report->virt["dfs.readahead_hit_ratio"] = ratio(
      ra_hits, ra_hits + probe_counters.Delta("dfs.client.readahead_misses"));

  if (config.trace) {
    AddHostSpanMean(trace, "apps.get", "apps.get_host_ns", 1, report);
    AddHostSpanMean(trace, "apps.commit", "apps.commit_host_ns", 1, report);
    HostSpanStats run = trace.Stats("harness.run");
    report->traced["harness.self_host_frac"] = ratio(
        static_cast<double>(run.self_ns), static_cast<double>(run.total_ns));
    report->traced["rdma.wr_write_virt_us"] =
        MeanAsyncSpanUs(spans_measured, "fabric.wr.write");
    AddHostSpanMean(trace, "splitft.make_server",
                    "splitft.make_server_host_ms", 1e-6, report);
    ProbeYcsb(records, config.seed, report);
    ProbeCrc32c("common.crc32c_host_GBps.frame", 160, report);
  }

  // ---- oracle: every acked write, live and after a crash -----------------
  if (config.inject_mismatch && !app.oracle()->empty()) {
    app.oracle()->begin()->second += "#";
  }
  CheckOracle(stack.store, *app.oracle(), "after run", report);
  if (!CrashAndRecover(&stack, StoreOptions(records), &trace, report,
                       nullptr)) {
    return;
  }
  CheckOracle(stack.store, *app.oracle(), "after recovery", report);

  if (config.trace) {
    WriteSpans(trace, config, report);
  }
}

}  // namespace perfbench
