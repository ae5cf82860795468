// Ablation — dfs striping: server count × stripe size.
//
// The striped backend fans each fsync's dirty extents out across
// per-server pipes (completion = max leg), so large-write latency should
// fall roughly as 1/num_servers until the per-operation fixed cost
// (stripe_client_base + stripe_server_base) dominates, and stripe size
// should matter only at the margins (share imbalance across servers).
// This ablation sweeps both axes over a fixed fsync-per-block workload,
// plus a bulk-recovery read per server count, to verify those shapes and
// to locate the point where more servers stop paying.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/bytes.h"
#include "src/common/histogram.h"
#include "src/dfs/dfs.h"
#include "src/harness/testbed.h"

namespace splitft {
namespace {

struct Point {
  Histogram fsync_ns;
  double write_mb_s = 0;
};

// Appends + fsyncs `blocks` blocks of `block` bytes through one dfs file.
Point RunWrites(int servers, uint64_t stripe, uint64_t block, int blocks) {
  TestbedOptions options;
  options.params.dfs.num_servers = servers;
  options.params.dfs.stripe_size = stripe;
  Testbed testbed(options);
  DfsClient client(testbed.dfs_cluster(), "ab-striping");
  Point p;
  auto file = client.Open("/sweep");
  if (!file.ok()) {
    return p;
  }
  std::string payload(block, 'x');
  SimTime t0 = testbed.sim()->Now();
  for (int i = 0; i < blocks; ++i) {
    CHECK_OK((*file)->Append(payload));
    SimTime s0 = testbed.sim()->Now();
    CHECK_OK((*file)->Sync());
    p.fsync_ns.Add(testbed.sim()->Now() - s0);
  }
  SimTime elapsed = testbed.sim()->Now() - t0;
  if (elapsed > 0) {
    p.write_mb_s = static_cast<double>(block) * blocks /
                   (static_cast<double>(elapsed) / 1e9) / 1e6;
  }
  return p;
}

// One cold sequential read of the whole file (the recovery shape).
SimTime RunRecoveryRead(int servers, uint64_t stripe, uint64_t bytes) {
  TestbedOptions options;
  options.params.dfs.num_servers = servers;
  options.params.dfs.stripe_size = stripe;
  Testbed testbed(options);
  DfsClient client(testbed.dfs_cluster(), "ab-striping-read");
  {
    auto file = client.Open("/log");
    if (!file.ok()) {
      return 0;
    }
    std::string chunk(1 << 20, 'x');
    for (uint64_t i = 0; i < bytes / chunk.size(); ++i) {
      CHECK_OK((*file)->Append(chunk));
    }
    CHECK_OK((*file)->Sync(false));
  }
  testbed.sim()->RunUntil(testbed.sim()->Now() + Seconds(2));
  client.SimulateCrash();
  DfsOpenOptions opts;
  opts.create = false;
  auto file = client.Open("/log", opts);
  if (!file.ok()) {
    return 0;
  }
  SimTime t0 = testbed.sim()->Now();
  CHECK_OK((*file)->Read(0, bytes));
  return testbed.sim()->Now() - t0;
}

}  // namespace
}  // namespace splitft

int main() {
  using namespace splitft;
  bench::Reporter reporter("ablation_striping");

  const uint64_t kBlock = 4ull << 20;  // the Fig 1d acceptance point
  const int kBlocks = reporter.smoke() ? 4 : 16;
  const std::vector<int> kServers = {1, 2, 3, 6};
  const std::vector<uint64_t> kStripes =
      reporter.smoke()
          ? std::vector<uint64_t>{64ull << 10, 1ull << 20}
          : std::vector<uint64_t>{64ull << 10, 256ull << 10, 1ull << 20,
                                  4ull << 20};

  bench::Title("Ablation: dfs striping, 4 MiB fsync latency");
  std::printf("  %-8s %-10s %14s %14s\n", "servers", "stripe", "p50 fsync",
              "write MB/s");
  bench::Rule();
  for (int servers : kServers) {
    for (uint64_t stripe : kStripes) {
      Point p = RunWrites(servers, stripe, kBlock, kBlocks);
      std::printf("  %-8d %-10s %14s %14.1f\n", servers,
                  HumanBytes(stripe).c_str(),
                  HumanDuration(static_cast<SimTime>(p.fsync_ns.P50()))
                      .c_str(),
                  p.write_mb_s);
      reporter
          .AddSeries("fsync/s" + std::to_string(servers) + "/stripe" +
                         std::to_string(stripe),
                     "ns")
          .FromHistogram(p.fsync_ns)
          .Scalar("dfs_servers", servers)
          .Scalar("stripe_bytes", static_cast<double>(stripe))
          .Scalar("write_mb_s", p.write_mb_s);
    }
  }
  bench::Rule();

  bench::Title("Ablation: dfs striping, bulk recovery read");
  const uint64_t kReadBytes = reporter.smoke() ? 8ull << 20 : 64ull << 20;
  std::printf("  %-8s %14s\n", "servers", "read time");
  bench::Rule();
  SimTime base = 0;
  for (int servers : kServers) {
    SimTime t = RunRecoveryRead(servers, 64ull << 10, kReadBytes);
    if (servers == 1) {
      base = t;
    }
    double speedup =
        t > 0 ? static_cast<double>(base) / static_cast<double>(t) : 0.0;
    std::printf("  %-8d %14s   %.2fx\n", servers, HumanDuration(t).c_str(),
                speedup);
    reporter.AddSeries("recovery_read/s" + std::to_string(servers), "s")
        .FromValue(static_cast<double>(t) / 1e9)
        .Scalar("dfs_servers", servers)
        .Scalar("speedup_vs_s1", speedup);
  }
  bench::Note("fsync latency falls ~1/servers until the fixed "
              "client+server base dominates; stripe size only shifts the "
              "share imbalance across servers");
  return reporter.WriteJson() ? 0 : 1;
}
