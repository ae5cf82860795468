// Ablation — application-level batching (group commit) × NCL pipelining.
//
// The paper notes RocksDB and Redis batch concurrent updates into a single
// log write (§2.2, §5). This ablation disables the harness's group commit
// so every update pays its own log write, quantifying how much batching
// contributes in each durability mode. For splitft it additionally sweeps
// the NCL in-flight append window (1 = synchronous quorum round per append,
// the seed behaviour; 8 = pipelined), because the two mechanisms overlap
// commit latency at different layers and must be ablated independently.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/harness/closed_loop.h"
#include "src/harness/testbed.h"

namespace splitft {
namespace {

HarnessResult Run(bench::Reporter* reporter, DurabilityMode mode,
                  bool batching, int ncl_window, uint64_t target_ops) {
  Testbed testbed;
  std::string id = "ab-batch-" + std::string(DurabilityModeName(mode)) +
                   (batching ? "-b" : "-nb") + "-w" +
                   std::to_string(ncl_window);
  ServerOptions server_options{.mode = mode, .ncl_capacity = 32ull << 20};
  if (ncl_window > 0) {  // 0: a dfs mode, which never appends to NCL
    server_options.ncl.inflight_window = ncl_window;
  }
  auto server = testbed.MakeServer(id, server_options);
  KvStoreOptions options;
  options.mode = mode;
  auto store = testbed.StartKvStore(server.get(), options);
  if (!store.ok()) {
    return {};
  }
  uint64_t records = reporter->Iters(20000, 1000);
  CHECK_OK(Testbed::LoadRecords(store->get(), records));
  YcsbWorkload workload(YcsbWorkloadKind::kWriteOnly, records, 42);
  HarnessOptions harness_options;
  harness_options.num_clients = 12;
  harness_options.batching = batching;
  harness_options.target_ops = target_ops;
  ClosedLoopHarness harness(testbed.sim(), store->get(), &workload,
                            harness_options);
  return harness.Run();
}

void Report(bench::Reporter* reporter, DurabilityMode mode, bool batching,
            int ncl_window, const HarnessResult& r) {
  std::printf("  %-9s %10s %6d %14.1f %14.1f\n",
              std::string(DurabilityModeName(mode)).c_str(),
              batching ? "on" : "off", ncl_window, r.throughput_kops,
              r.latency.Mean() / 1e3);
  std::string name = std::string(DurabilityModeName(mode)) + "/" +
                     (batching ? "batch" : "nobatch");
  if (mode == DurabilityMode::kSplitFt) {
    name += "/w" + std::to_string(ncl_window);
  }
  reporter->AddSeries(name, "us")
      .FromHistogram(r.latency, 1e-3)
      .Scalar("throughput_kops", r.throughput_kops)
      .Scalar("ncl_window", ncl_window);
}

}  // namespace
}  // namespace splitft

int main() {
  using namespace splitft;
  bench::Reporter reporter("ablation_batching");
  bench::Title("Ablation: group commit (app batching) x NCL window");
  bench::Note("RocksDB-mini, write-only, 12 clients");
  std::printf("  %-9s %10s %6s %14s %14s\n", "config", "batching", "window",
              "tput KOps/s", "mean lat us");
  bench::Rule();
  for (DurabilityMode mode :
       {DurabilityMode::kStrong, DurabilityMode::kWeak}) {
    for (bool batching : {true, false}) {
      uint64_t ops = mode == DurabilityMode::kStrong
                         ? reporter.Iters(3000, 300)
                         : reporter.Iters(30000, 1500);
      // The dfs modes never touch NCL: the window dimension is recorded as
      // 0 (not applicable) and swept only for splitft below.
      HarnessResult r = Run(&reporter, mode, batching, 0, ops);
      Report(&reporter, mode, batching, 0, r);
    }
  }
  for (bool batching : {true, false}) {
    for (int ncl_window : {1, 8}) {
      uint64_t ops = reporter.Iters(30000, 1500);
      HarnessResult r =
          Run(&reporter, DurabilityMode::kSplitFt, batching, ncl_window, ops);
      Report(&reporter, DurabilityMode::kSplitFt, batching, ncl_window, r);
    }
  }
  bench::Rule();
  bench::Note("expected: batching is what keeps strong mode usable at all "
              "(n clients amortize one flush); splitft barely needs it "
              "because its log writes are microseconds, and the in-flight "
              "window overlaps what little quorum latency remains");
  return reporter.WriteJson() ? 0 : 1;
}
