// Ablation — catch-up transfer: full-region copy vs bytewise diff
// (§4.5.1's optimization). Recovery catches every reachable peer up via
// the atomic staged-region switch; this ablation varies how far behind
// the peers are and reports the bytes shipped and the sync time.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/common/bytes.h"
#include "src/harness/testbed.h"

namespace splitft {
namespace {

struct CatchupCost {
  double sync_ms = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
};

// Builds a log, makes `lagging` of the three peers miss the last
// `stale_fraction` of writes (via a partition), crashes the app, recovers
// with the given catch-up mode, and reports the transfer cost.
CatchupCost Run(bool diff_mode, double stale_fraction) {
  TestbedOptions testbed_options;
  testbed_options.tracing = true;  // sync time comes from the recovery span
  Testbed testbed(testbed_options);
  std::string app = std::string("ab-catchup-") + (diff_mode ? "d" : "f") +
                    std::to_string(static_cast<int>(stale_fraction * 100));
  const uint64_t kLog = bench::SmokeFromEnv() ? 4ull << 20 : 16ull << 20;
  std::string lagging_peer;
  {
    // Not replacing failed peers eagerly keeps the lagging peer.
    auto server =
        testbed.MakeServer(app, {.ncl = {.eager_peer_replacement = false}});
    SplitOpenOptions opts;
    opts.oncl = true;
    opts.ncl_capacity = kLog + (1 << 20);
    auto file = server->fs->Open("/log", opts);
    if (!file.ok()) {
      return {};
    }
    std::string chunk(64 << 10, 'x');
    uint64_t chunks = kLog / chunk.size();
    uint64_t fresh_point =
        static_cast<uint64_t>(static_cast<double>(chunks) *
                              (1.0 - stale_fraction));
    for (uint64_t i = 0; i < chunks; ++i) {
      if (i == fresh_point && stale_fraction > 0) {
        // Partition one of the assigned peers: it misses the tail.
        // (peer names come from the ncl layer's ap-map)
        auto apmap = testbed.controller()->GetApMap(app, "/log");
        if (apmap.ok()) {
          lagging_peer = apmap->peers.back();
          LogPeer* peer = testbed.directory()->Lookup(lagging_peer);
          testbed.fabric()->SetPartitioned(0 /*app node*/, peer->node(),
                                           true);
        }
      }
      CHECK_OK((*file)->Append(chunk));
    }
    CHECK_OK((*file)->Sync());  // commit the window before the crash
    testbed.CrashServer(server.get());
  }
  testbed.sim()->RunUntilIdle();
  if (!lagging_peer.empty()) {
    LogPeer* peer = testbed.directory()->Lookup(lagging_peer);
    testbed.fabric()->SetPartitioned(0, peer->node(), false);
  }

  uint64_t w0 = testbed.metrics()->CounterValue("fabric.wr.write_bytes");
  uint64_t r0 = testbed.metrics()->CounterValue("fabric.wr.read_bytes");
  auto server = testbed.MakeServer(app, {.ncl = {.diff_catchup = diff_mode}});
  SplitOpenOptions opts;
  opts.oncl = true;
  auto before = testbed.tracer()->Snapshot();
  auto file = server->fs->Open("/log", opts);
  CatchupCost cost;
  if (!file.ok()) {
    return cost;
  }
  auto window = SpanDiff(before, testbed.tracer()->Snapshot());
  auto it = window.find("ncl.recover.sync_peers");
  cost.sync_ms = it == window.end()
                     ? 0.0
                     : static_cast<double>(it->second.total) / 1e6;
  // Subtract the recovery prefetch read; what remains is catch-up traffic.
  cost.bytes_written =
      testbed.metrics()->CounterValue("fabric.wr.write_bytes") - w0;
  cost.bytes_read =
      testbed.metrics()->CounterValue("fabric.wr.read_bytes") - r0;
  return cost;
}

}  // namespace
}  // namespace splitft

int main() {
  using namespace splitft;
  bench::Reporter reporter("ablation_catchup");
  bench::Title("Ablation: catch-up transfer — full copy vs bytewise diff");
  std::printf("  %-12s %-6s %12s %14s %14s\n", "staleness", "mode",
              "sync (ms)", "bytes written", "bytes read");
  bench::Rule();
  for (double stale : {0.0, 0.05, 0.5}) {
    for (bool diff : {false, true}) {
      CatchupCost cost = Run(diff, stale);
      std::printf("  %10.0f%% %-6s %12.1f %14s %14s\n", stale * 100,
                  diff ? "diff" : "full", cost.sync_ms,
                  HumanBytes(cost.bytes_written).c_str(),
                  HumanBytes(cost.bytes_read).c_str());
      reporter
          .AddSeries(std::string(diff ? "diff" : "full") + "/stale" +
                         std::to_string(static_cast<int>(stale * 100)),
                     "ms")
          .FromValue(cost.sync_ms)
          .Scalar("bytes_written", static_cast<double>(cost.bytes_written))
          .Scalar("bytes_read", static_cast<double>(cost.bytes_read));
    }
  }
  bench::Rule();
  bench::Note("diff ships (almost) nothing when peers are current but pays "
              "a full-region read to compute the difference; full copy is "
              "read-free but always ships everything (§4.5.1)");
  return reporter.WriteJson() ? 0 : 1;
}
