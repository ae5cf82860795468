// Figure 9 — Latency vs Throughput, write-only workload.
//
// For RocksDB-mini and Redis-mini the client count is swept and each
// configuration (strong-app DFT, weak-app DFT, SplitFT) reports a
// latency/throughput curve; SQLite-mini reports its single-threaded point
// per configuration (Fig 9c).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/harness/closed_loop.h"
#include "src/harness/testbed.h"

namespace splitft {
namespace {

enum class App { kKv, kRedis, kSqlite };

HarnessResult RunPoint(App app, DurabilityMode mode, int clients,
                       uint64_t target_ops, uint64_t records,
                       int dfs_servers = 1) {
  // The paper-figure sweep runs the seed-calibrated single-pipe dfs so its
  // curves stay comparable across PRs; the striping subsection passes 3.
  TestbedOptions testbed_options;
  testbed_options.params.dfs.num_servers = dfs_servers;
  Testbed testbed(testbed_options);
  std::string id = std::string("fig9-") + std::to_string(static_cast<int>(app)) +
                   "-" + std::string(DurabilityModeName(mode));
  auto server = testbed.MakeServer(
      id, {.mode = mode, .ncl_capacity = 64ull << 20});
  std::unique_ptr<StorageApp> storage;
  switch (app) {
    case App::kKv: {
      KvStoreOptions options;
      options.mode = mode;
      auto store = testbed.StartKvStore(server.get(), options);
      if (!store.ok()) {
        return {};
      }
      storage = std::move(*store);
      break;
    }
    case App::kRedis: {
      RedisOptions options;
      options.mode = mode;
      options.aof_rewrite_bytes = 16 << 20;
      options.aof_capacity = 48ull << 20;
      auto redis = testbed.StartRedis(server.get(), options);
      if (!redis.ok()) {
        return {};
      }
      storage = std::move(*redis);
      break;
    }
    case App::kSqlite: {
      SqliteLiteOptions options;
      options.mode = mode;
      auto db = testbed.StartSqlite(server.get(), options);
      if (!db.ok()) {
        return {};
      }
      storage = std::move(*db);
      break;
    }
  }
  CHECK_OK(Testbed::LoadRecords(storage.get(), records));

  YcsbWorkload workload(YcsbWorkloadKind::kWriteOnly, records, 42);
  HarnessOptions harness_options;
  harness_options.num_clients = clients;
  harness_options.target_ops = target_ops;
  harness_options.max_duration = Seconds(120);
  ClosedLoopHarness harness(testbed.sim(), storage.get(), &workload,
                            harness_options);
  return harness.Run();
}

void Sweep(bench::Reporter* reporter, const char* name, const char* tag,
           App app, const std::vector<int>& clients) {
  std::printf("  (%s)\n", name);
  std::printf("  %-9s %8s %14s %14s %14s\n", "config", "clients",
              "tput KOps/s", "mean lat us", "p99 lat us");
  bench::Rule();
  for (DurabilityMode mode :
       {DurabilityMode::kStrong, DurabilityMode::kWeak,
        DurabilityMode::kSplitFt}) {
    for (int c : clients) {
      uint64_t ops = mode == DurabilityMode::kStrong
                         ? reporter->Iters(4000, 300)
                         : reporter->Iters(40000, 1500);
      HarnessResult r = RunPoint(app, mode, c, ops,
                                 reporter->Iters(20000, 1000));
      std::printf("  %-9s %8d %14.1f %14.1f %14.1f\n",
                  std::string(DurabilityModeName(mode)).c_str(), c,
                  r.throughput_kops, r.latency.Mean() / 1e3,
                  r.latency.P99() / 1e3);
      reporter
          ->AddSeries(std::string(tag) + "/" +
                          std::string(DurabilityModeName(mode)) + "/c" +
                          std::to_string(c),
                      "us")
          .FromHistogram(r.latency, 1e-3)
          .Scalar("throughput_kops", r.throughput_kops)
          .Scalar("clients", c);
    }
  }
  bench::Rule();
}

}  // namespace
}  // namespace splitft

int main() {
  using namespace splitft;
  // This bench doubles as the tracing-disabled overhead check: every
  // testbed here runs with the default (disabled) tracer, so its
  // throughput is the zero-overhead baseline. No "layers" are emitted.
  bench::Reporter reporter("fig9_write_only");
  bench::Title("Figure 9: latency vs throughput, write-only workload");
  std::vector<int> clients =
      reporter.smoke() ? std::vector<int>{1, 4}
                       : std::vector<int>{1, 4, 8, 12, 16, 24};
  Sweep(&reporter, "a: RocksDB-mini, client sweep", "kv", App::kKv, clients);
  Sweep(&reporter, "b: Redis-mini, client sweep", "redis", App::kRedis,
        clients);
  Sweep(&reporter, "c: SQLite-mini, single threaded", "sqlite", App::kSqlite,
        {1});
  bench::Note(
      "expected shape: strong ~2 orders of magnitude lower tput / higher "
      "latency; SplitFT tracks (or slightly beats) weak");

  // Striping subsection: the strong-mode kv point is the one bounded by dfs
  // fsyncs (every commit pays the backend), so it is where the striped
  // fan-out shows up end to end.
  bench::Title("Figure 9 extension: kv strong, dfs servers=1 vs servers=3");
  std::printf("  %-9s %14s %14s\n", "servers", "tput KOps/s", "p99 lat us");
  bench::Rule();
  for (int servers : {1, 3}) {
    HarnessResult r =
        RunPoint(App::kKv, DurabilityMode::kStrong, 4,
                 reporter.Iters(4000, 300), reporter.Iters(20000, 1000),
                 servers);
    std::printf("  %-9d %14.1f %14.1f\n", servers, r.throughput_kops,
                r.latency.P99() / 1e3);
    reporter
        .AddSeries("kv/strong_striped/s" + std::to_string(servers), "us")
        .FromHistogram(r.latency, 1e-3)
        .Scalar("throughput_kops", r.throughput_kops)
        .Scalar("dfs_servers", servers);
  }
  return reporter.WriteJson() ? 0 : 1;
}
