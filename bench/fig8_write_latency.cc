// Figure 8 — Write Latency, Embedded Mode.
//
// A single-threaded benchmark sequentially writes a 100 MB file with write
// sizes from 128 B to 8 KB, embedded (no client/server network):
//   * strong-bench DFS: fdatasync after every write;
//   * weak-bench DFS:   buffered writes, no flush;
//   * NCL:              every write synchronously replicated to 3 peers.
// The paper measures NCL at ~4.6 us and weak at ~1.2 us for 128 B writes,
// with strong two-plus orders of magnitude slower.
//
// Runs with tracing enabled: each series reports its per-layer span
// breakdown and the fraction of end-to-end latency attributed to named
// spans (acceptance: >= 95%).
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/common/bytes.h"
#include "src/harness/testbed.h"

namespace splitft {
namespace {

constexpr uint64_t kFileBytes = 100ull << 20;

struct SeriesResult {
  double us = 0;          // mean latency per write
  double attributed = 0;  // fraction of elapsed covered by span self time
  std::map<std::string, SpanStats> window;
  uint64_t ops = 0;
};

template <typename WriteFn, typename FinishFn>
SeriesResult TimedLoop(Testbed* testbed, uint64_t ops, WriteFn write,
                       FinishFn finish) {
  SeriesResult r;
  r.ops = ops;
  auto before = testbed->tracer()->Snapshot();
  SimTime t0 = testbed->sim()->Now();
  for (uint64_t i = 0; i < ops; ++i) {
    write();
  }
  // The durability barrier is part of the measured work: pipelined series
  // drain their in-flight window here, so a deep window cannot cheat by
  // leaving appends uncommitted.
  finish();
  SimTime elapsed = testbed->sim()->Now() - t0;
  r.window = SpanDiff(before, testbed->tracer()->Snapshot());
  r.us = static_cast<double>(elapsed) / static_cast<double>(ops) / 1e3;
  r.attributed = bench::AttributedFraction(r.window, elapsed);
  return r;
}

template <typename WriteFn>
SeriesResult TimedLoop(Testbed* testbed, uint64_t ops, WriteFn write) {
  return TimedLoop(testbed, ops, write, [] {});
}

SeriesResult DfsSeries(Testbed* testbed, uint64_t size, uint64_t max_ops,
                       bool sync_each) {
  DfsClient client(testbed->dfs_cluster(),
                   std::string("fig8-") + (sync_each ? "strong" : "weak") +
                       std::to_string(size));
  auto file = client.Open("/fig8-" + std::to_string(size) +
                          (sync_each ? "s" : "w"));
  if (!file.ok()) {
    return {};
  }
  uint64_t ops = std::min(max_ops, kFileBytes / size);
  std::string payload(size, 'x');
  return TimedLoop(testbed, ops, [&] {
    CHECK_OK((*file)->Append(payload));
    if (sync_each) {
      CHECK_OK((*file)->Sync());
    }
  });
}

SeriesResult NclSeries(Testbed* testbed, uint64_t size, uint64_t max_ops,
                       int ncl_window) {
  uint64_t ops = std::min(max_ops, kFileBytes / size);
  std::string tag =
      std::to_string(size) + "-w" + std::to_string(ncl_window);
  auto server = testbed->MakeServer(
      "fig8-ncl-" + tag,
      {.ncl_capacity = 64ull << 20, .ncl = {.inflight_window = ncl_window}});
  SplitOpenOptions opts;
  opts.oncl = true;
  opts.ncl_capacity = ops * size + (1 << 20);
  auto file = server->fs->Open("/fig8-ncl-" + tag, opts);
  if (!file.ok()) {
    std::fprintf(stderr, "ncl open failed: %s\n",
                 file.status().ToString().c_str());
    return {};
  }
  std::string payload(size, 'x');
  return TimedLoop(
      testbed, ops, [&] { CHECK_OK((*file)->Append(payload)); },
      [&] { CHECK_OK((*file)->Sync()); });
}

void AddSeries(bench::Reporter* reporter, const std::string& name,
               const SeriesResult& r) {
  reporter->AddSeries(name, "us")
      .FromValue(r.us, r.ops)
      .Scalar("attributed_fraction", r.attributed)
      .LayersFromSpans(r.window);
}

}  // namespace
}  // namespace splitft

int main() {
  using namespace splitft;
  bench::Reporter reporter("fig8_write_latency");
  // Cap the op count per series so the bench stays fast; latency is an
  // average per write either way.
  uint64_t max_ops = reporter.Iters(20000, 200);

  bench::Title("Figure 8: write latency vs size, embedded mode");
  std::printf("  %-10s %18s %18s %14s %14s %12s\n", "size",
              "strong-bench DFS (us)", "weak-bench DFS (us)", "NCL w=8 (us)",
              "NCL w=1 (us)", "attributed");
  bench::Rule();
  TestbedOptions options;
  options.tracing = true;
  Testbed testbed(options);
  for (uint64_t size : {128ull, 256ull, 512ull, 1024ull, 2048ull, 4096ull,
                        8192ull}) {
    SeriesResult strong = DfsSeries(&testbed, size, max_ops, true);
    SeriesResult weak = DfsSeries(&testbed, size, max_ops, false);
    SeriesResult ncl = NclSeries(&testbed, size, max_ops, 8);
    SeriesResult ncl_w1 = NclSeries(&testbed, size, max_ops, 1);
    std::printf("  %-10s %18.1f %18.2f %14.2f %14.2f %11.0f%%\n",
                HumanBytes(size).c_str(), strong.us, weak.us, ncl.us,
                ncl_w1.us, ncl.attributed * 100.0);
    std::string suffix = "/" + std::to_string(size) + "B";
    AddSeries(&reporter, "strong-dfs" + suffix, strong);
    AddSeries(&reporter, "weak-dfs" + suffix, weak);
    AddSeries(&reporter, "ncl" + suffix, ncl);
    AddSeries(&reporter, "ncl-w1" + suffix, ncl_w1);
  }
  bench::Rule();
  bench::Note("paper @128B: strong ~2200us, weak ~1.2us, NCL ~4.6us; "
              "the w=8 in-flight window overlaps quorum rounds (w=1 is the "
              "synchronous baseline)");
  reporter.SetMetricsJson(testbed.metrics()->ToJson());
  return reporter.WriteJson() ? 0 : 1;
}
