// Ablation — recovery prefetching (Fig 11a's NCL no-prefetch variant,
// isolated): total time for an application to sequentially consume a
// recovered log of varying size, with and without the region prefetch.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/common/bytes.h"
#include "src/harness/testbed.h"

namespace splitft {
namespace {

double ConsumeLog(uint64_t log_bytes, uint64_t read_size, bool prefetch) {
  Testbed testbed;
  std::string app = "ab-prefetch-" + std::to_string(log_bytes) +
                    (prefetch ? "-p" : "-n") + std::to_string(read_size);
  {
    auto server = testbed.MakeServer(app);
    SplitOpenOptions opts;
    opts.oncl = true;
    opts.ncl_capacity = log_bytes + (1 << 20);
    auto file = server->fs->Open("/log", opts);
    if (!file.ok()) {
      return 0;
    }
    std::string chunk(1 << 20, 'x');
    for (uint64_t i = 0; i < log_bytes / chunk.size(); ++i) {
      CHECK_OK((*file)->Append(chunk));
    }
    CHECK_OK((*file)->Sync());  // commit the window before the crash
    testbed.CrashServer(server.get());
  }
  testbed.sim()->RunUntilIdle();
  auto server =
      testbed.MakeServer(app, {.ncl = {.prefetch_on_recovery = prefetch}});
  SimTime t0 = testbed.sim()->Now();
  SplitOpenOptions opts;
  opts.oncl = true;
  auto file = server->fs->Open("/log", opts);
  if (!file.ok()) {
    return 0;
  }
  // The application replays the log sequentially in read_size chunks.
  for (uint64_t off = 0; off < log_bytes; off += read_size) {
    CHECK_OK((*file)->Read(off, read_size));
  }
  return static_cast<double>(testbed.sim()->Now() - t0) / 1e6;  // ms
}

}  // namespace
}  // namespace splitft

int main() {
  using namespace splitft;
  bench::Reporter reporter("ablation_prefetch");
  bench::Title("Ablation: recovery prefetch (total log-consumption time)");
  std::printf("  %-10s %-10s %16s %16s %8s\n", "log size", "read size",
              "prefetch (ms)", "no prefetch (ms)", "speedup");
  bench::Rule();
  std::vector<uint64_t> log_sizes =
      reporter.smoke() ? std::vector<uint64_t>{2ull << 20}
                       : std::vector<uint64_t>{8ull << 20, 32ull << 20};
  for (uint64_t log_bytes : log_sizes) {
    for (uint64_t read_size : {512ull, 4096ull}) {
      double with = ConsumeLog(log_bytes, read_size, true);
      double without = ConsumeLog(log_bytes, read_size, false);
      std::printf("  %-10s %-10s %16.1f %16.1f %7.1fx\n",
                  HumanBytes(log_bytes).c_str(),
                  HumanBytes(read_size).c_str(), with, without,
                  without / with);
      std::string suffix = "/" + std::to_string(log_bytes >> 20) + "MB/" +
                           std::to_string(read_size) + "B";
      reporter.AddSeries("prefetch" + suffix, "ms").FromValue(with);
      reporter.AddSeries("noprefetch" + suffix, "ms")
          .FromValue(without)
          .Scalar("speedup", with > 0 ? without / with : 0);
    }
  }
  bench::Rule();
  bench::Note("paper: prefetching is essential — without it every replay "
              "read pays a fabric round trip");
  return reporter.WriteJson() ? 0 : 1;
}
