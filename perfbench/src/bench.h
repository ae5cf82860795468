// Shared pieces of the SplitFT benchmark binary: run configuration, the
// report every workload fills, and small measurement helpers.
//
// A report keeps three maps apart:
//   virt   — values derived only from the virtual clock and the program's
//            own counters; identical for a given (workload, seed, size)
//            whether or not tracing is on (the determinism guard);
//   host   — this machine's host-time and memory readings;
//   traced — per-layer values that exist only in a traced run (sim-time
//            span breakdowns and the benchmark's own host-time spans).
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/host_trace.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulation.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  // Measured work is `seconds` times the workload's reference rate, so a
  // run measures about that long on the reference machine while its
  // virtual results stay a pure function of (seed, seconds, small).
  double seconds = 1;
  bool trace = false;
  // Small-size mode for the benchmark's own tests: shrinks the data set
  // and the measured work.
  bool small = false;
  // Test hook: corrupt one oracle entry so the output check must fail.
  bool inject_mismatch = false;
  // Directory for the span dump (traced runs only).
  std::string out_dir = ".bench_out";
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> virt;
  std::map<std::string, double> host;
  std::map<std::string, double> traced;

  // Counts one failed op or oracle mismatch, keeping the first messages.
  void Fail(const std::string& what);
};

void RunYcsbKv(const RunConfig& config, Report* report);
void RunTenantsPooled(const RunConfig& config, Report* report);
void RunRecoverRedis(const RunConfig& config, Report* report);

// ---- helpers ------------------------------------------------------------

double Median(std::vector<double> values);
// Exact quantile of raw samples (nearest rank on the sorted samples).
double Quantile(std::vector<int64_t>* samples, double q);
// Peak and current resident set size of this process, in MB.
double PeakRssMb();
double CurrentRssMb();

// Counter/histogram deltas read from outside the layers.
class CounterWindow {
 public:
  explicit CounterWindow(const splitft::MetricsRegistry* registry);
  // Value accumulated since construction (or the last Restart).
  double Delta(const std::string& name) const;
  void Restart();

 private:
  const splitft::MetricsRegistry* registry_;
  std::map<std::string, uint64_t> base_;
};

double HistogramPercentile(const splitft::MetricsRegistry* registry,
                           const std::string& name, double q);

// This machine's current speed relative to the reference machine (1.0 =
// reference; 0.7 = memory-bound work runs at 70% of the reference speed),
// from a fixed benchmark-owned pointer chase through 32 MiB, timed three
// times, fastest taken. Other tenants of the host slow the simulator
// mostly through the shared caches and memory, and the chase slows with
// them. The kernel uses no code under src/, so a change to the program
// cannot move it; it adds 32 MiB to every workload's resident set.
double MachineSpeed();

// Host-time results in reference-machine time. The host shares its cores
// with other tenants, and that contention comes and goes over seconds to
// minutes, so each workload samples MachineSpeed() after every set-up and
// every measured chunk, and host times are scaled by the run's median
// speed: a machine that is uniformly busier does not move them. Reports
// setup_s (median set-up), host_ops_per_s, measured_s,
// sim.virt_s_per_host_s and process.machine_speed; returns the speed.
double ReportHostTimes(const std::vector<double>& speeds,
                       const std::vector<double>& setup_s, double ops,
                       double host_s, double virt_s, Report* report);

// Layer probes at the workloads' exact input shapes (traced runs).
void ProbeCrc32c(const std::string& key, size_t bytes, Report* report);
void ProbeYcsb(uint64_t record_count, uint64_t seed, Report* report);

// Writes the run's host spans to <out_dir>/spans-<workload>-seed<n>.json.
void WriteSpans(const HostTrace& trace, const RunConfig& config,
                Report* report);

// Per-host-span mean duration in `scale` units (1 = ns, 1e-3 = us, ...).
void AddHostSpanMean(const HostTrace& trace, const std::string& span,
                     const std::string& key, double scale, Report* report);

// Per-recovery virtual and host times plus the summed sim-time span
// windows of every recovery in a run. The first recovery is the cold one.
class RecoveryLog {
 public:
  void Add(splitft::SimTime virt, int64_t host_ns,
           const std::map<std::string, splitft::SpanStats>& window);
  size_t count() const { return virt_ms_.size(); }
  // recover_virt_ms and recover_host_ms (medians; host time scaled by
  // `speed`, see ReportHostTimes), recover_virt_max_ms, the cold/warm split
  // and, with `traced`, the recovery phase breakdown and the attributed
  // fraction.
  void Report(bool traced, double speed, perfbench::Report* report) const;

 private:
  std::vector<double> virt_ms_;
  std::vector<double> host_ms_;
  std::map<std::string, splitft::SpanStats> spans_;
  splitft::SimTime virt_total_ = 0;
  double cold_sync_ms_ = 0;
};
// Whole-run counters (wasted work, failures, routing) read from outside.
void ReportRunCounters(const splitft::MetricsRegistry* registry,
                       Report* report);
void ReportScheduler(const splitft::Simulation::SchedulerStats& before,
                     const splitft::Simulation::SchedulerStats& after,
                     Report* report);
// Mean virtual duration, in us, of the async fabric write spans in `w`.
double MeanAsyncSpanUs(const std::map<std::string, splitft::SpanStats>& w,
                       const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
