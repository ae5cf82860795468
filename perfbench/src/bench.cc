#include "perfbench/src/bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "src/common/crc32c.h"
#include "src/workload/ycsb.h"

namespace perfbench {

void Report::Fail(const std::string& what) {
  failed++;
  if (errors.size() < 8) {
    errors.push_back(what);
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Quantile(std::vector<int64_t>* samples, double q) {
  if (samples->empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples->size()));
  rank = std::min(rank, samples->size() - 1);
  std::nth_element(samples->begin(), samples->begin() + rank, samples->end());
  return static_cast<double>((*samples)[rank]);
}

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long pages = 0, resident = 0;
  int got = std::fscanf(f, "%llu %llu", &pages, &resident);
  std::fclose(f);
  if (got != 2) {
    return 0;
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

CounterWindow::CounterWindow(const splitft::MetricsRegistry* registry)
    : registry_(registry) {
  Restart();
}

void CounterWindow::Restart() {
  base_.clear();
  for (const auto& [name, counter] : registry_->counters()) {
    base_[name] = counter->value();
  }
}

double CounterWindow::Delta(const std::string& name) const {
  uint64_t now = registry_->CounterValue(name);
  auto it = base_.find(name);
  uint64_t base = it == base_.end() ? 0 : it->second;
  return static_cast<double>(now - base);
}

double HistogramPercentile(const splitft::MetricsRegistry* registry,
                           const std::string& name, double q) {
  const splitft::Histogram* h = registry->FindHistogram(name);
  return h == nullptr || h->count() == 0 ? 0 : h->Percentile(q);
}

namespace {

double AttributedFraction(const std::map<std::string, splitft::SpanStats>& w,
                          splitft::SimTime elapsed) {
  if (elapsed <= 0) {
    return 0;
  }
  splitft::SimTime self = 0;
  for (const auto& entry : w) {
    if (!entry.second.async) {
      self += entry.second.self;
    }
  }
  return static_cast<double>(self) / static_cast<double>(elapsed);
}

splitft::SimTime SpanTotal(const std::map<std::string, splitft::SpanStats>& w,
                           const std::string& name) {
  auto it = w.find(name);
  return it == w.end() ? 0 : it->second.total;
}

splitft::SimTime SpanSelf(const std::map<std::string, splitft::SpanStats>& w,
                          const std::string& name) {
  auto it = w.find(name);
  return it == w.end() ? 0 : it->second.self;
}

void AddSpans(std::map<std::string, splitft::SpanStats>* into,
              const std::map<std::string, splitft::SpanStats>& window) {
  for (const auto& [name, stats] : window) {
    splitft::SpanStats& acc = (*into)[name];
    acc.count += stats.count;
    acc.total += stats.total;
    acc.self += stats.self;
    acc.async = stats.async;
  }
}

}  // namespace

double MachineSpeed() {
  // A random cycle through 32 MiB: every step is a dependent load that
  // misses the caches, so the kernel runs at the memory latency the
  // simulator's own pointer-heavy work sees. Built once per process from
  // a bijective bit mix of the index, which no prefetcher can follow.
  constexpr uint32_t kBits = 23;
  constexpr uint32_t kMask = (1u << kBits) - 1;
  static const std::vector<uint32_t> next = [] {
    auto mix = [](uint32_t x) {
      x = (x * 0x9e3779b1u) & kMask;
      x ^= x >> 11;
      x = (x * 0x85ebca6bu) & kMask;
      x ^= x >> 13;
      return x;
    };
    std::vector<uint32_t> cycle(size_t{1} << kBits);
    for (uint32_t k = 0; k <= kMask; ++k) {
      cycle[mix(k)] = mix((k + 1) & kMask);
    }
    return cycle;
  }();
  // Kernel time on the reference machine (4-core VM, 2.1 GHz Xeon, quiet).
  constexpr double kReferenceNs = 8.0e6;
  constexpr int kSteps = 100000;
  int64_t best = 0;
  uint32_t p = 0;
  for (int round = 0; round < 3; ++round) {
    int64_t t0 = HostNowNs();
    for (int i = 0; i < kSteps; ++i) {
      p = next[p];
    }
    int64_t elapsed = HostNowNs() - t0;
    if (round == 0 || elapsed < best) {
      best = elapsed;
    }
  }
  if (p == kMask + 1) {
    std::fprintf(stderr, "machine-speed kernel left the cycle\n");
  }
  return kReferenceNs / static_cast<double>(std::max<int64_t>(best, 1));
}

double ReportHostTimes(const std::vector<double>& speeds,
                       const std::vector<double>& setup_s, double ops,
                       double host_s, double virt_s, Report* report) {
  const double speed = Median(speeds);
  report->host["process.machine_speed"] = speed;
  report->host["setup_s"] = Median(setup_s) * speed;
  report->host["measured_s"] = host_s * speed;
  report->host["host_ops_per_s"] = ops / (host_s * speed);
  report->host["sim.virt_s_per_host_s"] = virt_s / (host_s * speed);
  return speed;
}

void ProbeCrc32c(const std::string& key, size_t bytes, Report* report) {
  // At least ~64 MiB hashed per probe so the timing is well above clock
  // resolution; the buffer content is irrelevant to the table loop.
  std::string buf(bytes, '\0');
  for (size_t i = 0; i < bytes; ++i) {
    buf[i] = static_cast<char>('a' + i % 26);
  }
  size_t rounds = std::max<size_t>(1, (64u << 20) / bytes);
  uint32_t sink = 0;
  int64_t t0 = HostNowNs();
  for (size_t r = 0; r < rounds; ++r) {
    sink ^= splitft::Crc32c(sink, buf.data(), buf.size());
  }
  int64_t elapsed = HostNowNs() - t0;
  if (sink == 0x12345678u) {
    std::fprintf(stderr, "crc probe sink %u\n", sink);  // keeps the loop live
  }
  report->traced[key] = static_cast<double>(rounds * bytes) /
                        static_cast<double>(std::max<int64_t>(elapsed, 1));
}

void ProbeYcsb(uint64_t record_count, uint64_t seed, Report* report) {
  // A twin generator with the workload's seed: the same key space and
  // distribution as the measured clients, without touching the simulation.
  splitft::YcsbWorkload twin(splitft::YcsbWorkloadKind::kA, record_count,
                             seed);
  const uint64_t kCalls = 200000;
  size_t sink = 0;
  int64_t t0 = HostNowNs();
  for (uint64_t i = 0; i < kCalls; ++i) {
    sink += twin.Next().key.size();
  }
  int64_t t1 = HostNowNs();
  for (uint64_t i = 0; i < kCalls; ++i) {
    sink += twin.ValueFor(i).size();
  }
  int64_t t2 = HostNowNs();
  if (sink == 0) {
    std::fprintf(stderr, "ycsb probe produced nothing\n");
  }
  report->traced["workload.next_host_ns"] =
      static_cast<double>(t1 - t0) / static_cast<double>(kCalls);
  report->traced["workload.value_for_host_ns"] =
      static_cast<double>(t2 - t1) / static_cast<double>(kCalls);
}

void WriteSpans(const HostTrace& trace, const RunConfig& config,
                Report* report) {
  std::string path = config.out_dir + "/spans-" + config.workload + "-seed" +
                     std::to_string(config.seed) + ".json";
  if (!trace.WriteChromeTrace(path)) {
    report->Fail("cannot write the span dump " + path);
  }
}

void AddHostSpanMean(const HostTrace& trace, const std::string& span,
                     const std::string& key, double scale, Report* report) {
  HostSpanStats stats = trace.Stats(span);
  report->traced[key] =
      stats.count == 0 ? 0
                       : static_cast<double>(stats.total_ns) /
                             static_cast<double>(stats.count) * scale;
}

void RecoveryLog::Add(splitft::SimTime virt, int64_t host_ns,
                      const std::map<std::string, splitft::SpanStats>& window) {
  if (virt_ms_.empty()) {
    cold_sync_ms_ =
        static_cast<double>(SpanTotal(window, "ncl.recover.sync_peers")) / 1e6;
  }
  virt_ms_.push_back(static_cast<double>(virt) / 1e6);
  host_ms_.push_back(static_cast<double>(host_ns) / 1e6);
  virt_total_ += virt;
  AddSpans(&spans_, window);
}

void RecoveryLog::Report(bool traced, double speed,
                         perfbench::Report* report) const {
  if (virt_ms_.empty()) {
    return;
  }
  report->virt["recover_virt_ms"] = Median(virt_ms_);
  report->virt["recover_virt_max_ms"] =
      *std::max_element(virt_ms_.begin(), virt_ms_.end());
  report->virt["recover.cold_virt_ms"] = virt_ms_.front();
  report->virt["recover.warm_virt_ms"] =
      Median(std::vector<double>(virt_ms_.begin() + 1, virt_ms_.end()));
  report->host["recover_host_ms"] = Median(host_ms_) * speed;
  if (!traced) {
    return;
  }
  const double per_ms = 1e6 * static_cast<double>(virt_ms_.size());
  for (const char* phase : {"get_peers", "connect", "rdma_read", "sync_peers"}) {
    std::string span = std::string("ncl.recover.") + phase;
    report->traced[span + "_ms"] =
        static_cast<double>(SpanTotal(spans_, span)) / per_ms;
  }
  report->traced["ncl.recover.sync_peers_cold_ms"] = cold_sync_ms_;
  report->traced["apps.replay_self_virt_ms"] =
      static_cast<double>(SpanSelf(spans_, "app.recover.replay")) / per_ms;
  report->traced["dfs.read_self_virt_ms"] =
      static_cast<double>(SpanSelf(spans_, "dfs.read")) / per_ms;
  report->traced["obs.attributed_fraction"] =
      AttributedFraction(spans_, virt_total_);
}

void ReportRunCounters(const splitft::MetricsRegistry* registry,
                       Report* report) {
  static const std::pair<const char*, const char*> kCounters[] = {
      {"splitft.route.ncl_opens", "splitfs.route.ncl_opens"},
      {"splitft.route.dfs_opens", "splitfs.route.dfs_opens"},
      {"ncl.client.suffix_reposts", "ncl.client.suffix_reposts"},
      {"ncl.client.peers_replaced", "ncl.client.peers_replaced"},
      {"ncl.pool.cold_connects", "ncl.pool.cold_connects"},
      {"rdma.failed_wrs", "fabric.wr.failed_wrs"},
      {"rdma.wr_retries", "fabric.wr.wr_retries"},
      {"common.status.discards_nonok", "common.status.discards_nonok"},
  };
  for (const auto& [key, counter] : kCounters) {
    report->virt[key] = static_cast<double>(registry->CounterValue(counter));
  }
}

void ReportScheduler(const splitft::Simulation::SchedulerStats& before,
                     const splitft::Simulation::SchedulerStats& after,
                     Report* report) {
  report->virt["sim.arena_slab_growth"] =
      static_cast<double>(after.arena_slabs - before.arena_slabs);
  report->virt["sim.heap_callables_growth"] =
      static_cast<double>(after.heap_callables - before.heap_callables);
  report->virt["sim.pending_events_end"] = static_cast<double>(after.pending);
}

double MeanAsyncSpanUs(const std::map<std::string, splitft::SpanStats>& w,
                       const std::string& name) {
  auto it = w.find(name);
  return it == w.end() || it->second.count == 0
             ? 0
             : static_cast<double>(it->second.total) /
                   static_cast<double>(it->second.count) / 1e3;
}

}  // namespace perfbench
