// Ablation — failure budget f (quorum size n = 2f+1).
//
// The paper evaluates with f=1 (three log peers). This ablation sweeps f
// and reports the NCL write latency, the write-only application
// throughput, and how many simultaneous peer crashes the file survives.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/harness/closed_loop.h"
#include "src/harness/testbed.h"

namespace splitft {
namespace {

void RunBudget(bench::Reporter* reporter, int f) {
  TestbedOptions testbed_options;
  testbed_options.num_peers = 2 * f + 3;
  Testbed testbed(testbed_options);

  auto server = testbed.MakeServer(
      "ab-quorum-" + std::to_string(f),
      {.ncl_capacity = 32ull << 20, .ncl = {.fault_budget = f}});
  KvStoreOptions options;
  options.mode = DurabilityMode::kSplitFt;
  auto store = testbed.StartKvStore(server.get(), options);
  if (!store.ok()) {
    std::printf("  f=%d: open failed (%s)\n", f,
                store.status().ToString().c_str());
    return;
  }

  // Microbench: single 128 B append latency.
  SplitOpenOptions opts;
  opts.oncl = true;
  opts.ncl_capacity = 1 << 20;
  auto file = server->fs->Open("/lat-probe", opts);
  SimTime append_lat = 0;
  if (file.ok()) {
    CHECK_OK((*file)->Append("warmup"));
    CHECK_OK((*file)->Sync());
    SimTime t0 = testbed.sim()->Now();
    // Append rides the in-flight window; the committed latency of a single
    // write is append + drain.
    CHECK_OK((*file)->Append(std::string(128, 'x')));
    CHECK_OK((*file)->Sync());
    append_lat = testbed.sim()->Now() - t0;
  }

  // Application throughput.
  uint64_t records = reporter->Iters(20000, 1000);
  CHECK_OK(Testbed::LoadRecords(store->get(), records));
  YcsbWorkload workload(YcsbWorkloadKind::kWriteOnly, records, 42);
  HarnessOptions harness_options;
  harness_options.num_clients = 12;
  harness_options.target_ops = reporter->Iters(20000, 1000);
  ClosedLoopHarness harness(testbed.sim(), store->get(), &workload,
                            harness_options);
  HarnessResult r = harness.Run();

  // Crash exactly f peers: writes must continue.
  for (int i = 0; i < f; ++i) {
    testbed.peer(i)->Crash();
  }
  bool survives = store->get()->Put("survivor-probe", "x").ok();

  std::printf("  %2d %6d %16.2f %14.1f %18s\n", f, 2 * f + 1,
              static_cast<double>(append_lat) / 1e3, r.throughput_kops,
              survives ? "yes" : "NO");
  reporter->AddSeries("f" + std::to_string(f), "us")
      .FromValue(static_cast<double>(append_lat) / 1e3)
      .Scalar("throughput_kops", r.throughput_kops)
      .Scalar("peers", 2 * f + 1)
      .Scalar("survives_f_crashes", survives ? 1 : 0);
}

}  // namespace
}  // namespace splitft

int main() {
  using namespace splitft;
  bench::Reporter reporter("ablation_quorum");
  bench::Title("Ablation: failure budget f (n = 2f+1 log peers)");
  std::printf("  %2s %6s %16s %14s %18s\n", "f", "peers", "128B append us",
              "tput KOps/s", "survives f crashes");
  bench::Rule();
  for (int f = 1; f <= 3; ++f) {
    RunBudget(&reporter, f);
  }
  bench::Rule();
  bench::Note("expected: latency grows mildly with n (more WRs per write, "
              "majority still small); throughput barely moves — the quorum "
              "write is microseconds either way");
  return reporter.WriteJson() ? 0 : 1;
}
