// Figure 1 — IO Sizes and Effect on Throughput.
//
// (a)-(c): CDFs of write sizes submitted to the dfs by each application
// under a strong-mode write-only workload, split into log writes vs
// compaction/checkpoint writes. The paper's observation: log writes are
// orders of magnitude smaller than background bulk writes.
// (d): sequential dfs write throughput vs block size (512 B ... 64 MB).
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/bytes.h"
#include "src/common/histogram.h"
#include "src/common/io_trace.h"
#include "src/dfs/dfs.h"
#include "src/harness/testbed.h"

namespace splitft {
namespace {

struct SizeSplit {
  Histogram log_sizes;
  Histogram bulk_sizes;
};

SizeSplit Split(const IoTraceSink& trace,
                const std::vector<std::string>& log_markers) {
  SizeSplit split;
  for (const IoTraceEvent& ev : trace.events()) {
    if (ev.is_delete || ev.bytes == 0) {
      continue;
    }
    bool is_log = false;
    for (const std::string& marker : log_markers) {
      if (ev.path.find(marker) != std::string::npos) {
        is_log = true;
        break;
      }
    }
    (is_log ? split.log_sizes : split.bulk_sizes).Add(ev.bytes);
  }
  return split;
}

void SizeRow(const char* label, const Histogram& sizes) {
  if (sizes.count() == 0) {
    std::printf("    %-8s (no writes)\n", label);
    return;
  }
  std::printf("    %-8s n=%-6" PRIu64 " p50=%-10s p95=%-10s p99=%-10s max=%s\n",
              label, sizes.count(),
              HumanBytes(static_cast<uint64_t>(sizes.P50())).c_str(),
              HumanBytes(static_cast<uint64_t>(sizes.P95())).c_str(),
              HumanBytes(static_cast<uint64_t>(sizes.P99())).c_str(),
              HumanBytes(sizes.max()).c_str());
}

void AppSection(bench::Reporter* reporter, const char* name, const char* tag,
                const IoTraceSink& trace,
                const std::vector<std::string>& log_markers) {
  std::printf("  (%s)\n", name);
  SizeSplit split = Split(trace, log_markers);
  SizeRow("log", split.log_sizes);
  SizeRow("bulk", split.bulk_sizes);
  reporter->AddSeries(std::string(tag) + "/log_write_size", "B")
      .FromHistogram(split.log_sizes);
  reporter->AddSeries(std::string(tag) + "/bulk_write_size", "B")
      .FromHistogram(split.bulk_sizes);
  if (split.log_sizes.count() > 0 && split.bulk_sizes.count() > 0) {
    double ratio = split.bulk_sizes.P50() / split.log_sizes.P50();
    std::printf("    median bulk/log size ratio: %.0fx\n", ratio);
  }
}

// The paper-figure sections run against the seed-calibrated single-pipe
// model so their numbers stay comparable across PRs; the striping
// subsection below contrasts it with the default three-server backend.
TestbedOptions LegacyDfs() {
  TestbedOptions options;
  options.params.dfs.num_servers = 1;
  return options;
}

}  // namespace
}  // namespace splitft

int main() {
  using namespace splitft;
  bench::Reporter reporter("fig1_io_sizes");
  bench::Title("Figure 1(a-c): log vs bulk write sizes (strong mode)");

  {
    Testbed testbed(LegacyDfs());
    IoTraceSink trace;
    testbed.dfs_cluster()->set_trace(&trace);
    auto server =
        testbed.MakeServer(
            "kv-fig1",
            {.mode = DurabilityMode::kStrong,
             .ncl_capacity = 32ull << 20});
    KvStoreOptions options;
    options.mode = DurabilityMode::kStrong;
    options.memtable_bytes = 1 << 20;
    auto store = testbed.StartKvStore(server.get(), options);
    if (store.ok()) {
      CHECK_OK(Testbed::LoadRecords(store->get(), reporter.Iters(40000, 2000)));
    }
    AppSection(&reporter, "a: RocksDB-mini", "kv", trace, {"/wal-"});
    testbed.dfs_cluster()->set_trace(nullptr);
  }
  {
    Testbed testbed(LegacyDfs());
    IoTraceSink trace;
    testbed.dfs_cluster()->set_trace(&trace);
    auto server =
        testbed.MakeServer(
            "redis-fig1",
            {.mode = DurabilityMode::kStrong,
             .ncl_capacity = 32ull << 20});
    RedisOptions options;
    options.mode = DurabilityMode::kStrong;
    options.aof_rewrite_bytes = 1 << 20;
    auto redis = testbed.StartRedis(server.get(), options);
    if (redis.ok()) {
      CHECK_OK(Testbed::LoadRecords(redis->get(), reporter.Iters(30000, 1500)));
    }
    AppSection(&reporter, "b: Redis-mini", "redis", trace, {"/aof-"});
    testbed.dfs_cluster()->set_trace(nullptr);
  }
  {
    Testbed testbed(LegacyDfs());
    IoTraceSink trace;
    testbed.dfs_cluster()->set_trace(&trace);
    auto server =
        testbed.MakeServer(
            "sql-fig1",
            {.mode = DurabilityMode::kStrong,
             .ncl_capacity = 32ull << 20});
    SqliteLiteOptions options;
    options.mode = DurabilityMode::kStrong;
    options.wal_capacity = 512 << 10;
    auto db = testbed.StartSqlite(server.get(), options);
    if (db.ok()) {
      CHECK_OK(Testbed::LoadRecords(db->get(), reporter.Iters(5000, 500)));
    }
    AppSection(&reporter, "c: SQLite-mini", "sqlite", trace, {"/db-wal"});
    testbed.dfs_cluster()->set_trace(nullptr);
  }

  bench::Title("Figure 1(d): dfs sequential write throughput vs block size");
  std::printf("  %-12s %-16s %s\n", "block", "throughput", "(latency/op)");
  bench::Rule();
  {
    Testbed testbed(LegacyDfs());
    DfsClient client(testbed.dfs_cluster(), "fig1d");
    for (uint64_t block : {512ull, 4096ull, 8192ull, 65536ull,
                           1048576ull, 67108864ull}) {
      auto file = client.Open("/seq-" + std::to_string(block));
      if (!file.ok()) {
        continue;
      }
      // Write a fixed volume, syncing per block.
      int blocks = block >= (8u << 20) ? 4 : 32;
      SimTime t0 = testbed.sim()->Now();
      std::string payload(block, 'x');
      for (int i = 0; i < blocks; ++i) {
        CHECK_OK((*file)->Append(payload));
        CHECK_OK((*file)->Sync());
      }
      SimTime elapsed = testbed.sim()->Now() - t0;
      double bytes = static_cast<double>(block) * blocks;
      double kb_per_s = bytes / (static_cast<double>(elapsed) / 1e9) / 1000.0;
      std::printf("  %-12s %10.0f KB/s   (%s)\n", HumanBytes(block).c_str(),
                  kb_per_s,
                  HumanDuration(elapsed / blocks).c_str());
      reporter
          .AddSeries("seq_write_tput/" + std::to_string(block) + "B", "KB/s")
          .FromValue(kb_per_s, blocks)
          .Scalar("block_bytes", static_cast<double>(block));
    }
  }
  bench::Note("paper: 512B ~249 KB/s, 8KB ~3841 KB/s, ~3 orders of magnitude "
              "to 64MB");

  bench::Title("Figure 1(d) extension: striped backend, large-fsync latency");
  std::printf("  %-12s %-14s %-14s %s\n", "block", "servers=1", "servers=3",
              "speedup");
  bench::Rule();
  for (uint64_t block : {1048576ull, 4194304ull, 67108864ull}) {
    SimTime lat[2] = {0, 0};
    int idx = 0;
    for (int servers : {1, 3}) {
      TestbedOptions options;
      options.params.dfs.num_servers = servers;
      Testbed testbed(options);
      DfsClient client(testbed.dfs_cluster(), "fig1d-striped");
      auto file = client.Open("/striped-" + std::to_string(block));
      if (!file.ok()) {
        continue;
      }
      Histogram fsync_ns;
      int blocks = block >= (8u << 20) ? 4 : 16;
      std::string payload(block, 'x');
      for (int i = 0; i < blocks; ++i) {
        CHECK_OK((*file)->Append(payload));
        SimTime t0 = testbed.sim()->Now();
        CHECK_OK((*file)->Sync());
        fsync_ns.Add(testbed.sim()->Now() - t0);
      }
      lat[idx++] = static_cast<SimTime>(fsync_ns.P50());
      reporter
          .AddSeries("striped_fsync/" + std::to_string(block) + "B/s" +
                         std::to_string(servers),
                     "ns")
          .FromHistogram(fsync_ns)
          .Scalar("block_bytes", static_cast<double>(block))
          .Scalar("dfs_servers", servers);
    }
    double speedup = lat[1] > 0 ? static_cast<double>(lat[0]) /
                                      static_cast<double>(lat[1])
                                : 0.0;
    std::printf("  %-12s %-14s %-14s %.2fx\n", HumanBytes(block).c_str(),
                HumanDuration(lat[0]).c_str(), HumanDuration(lat[1]).c_str(),
                speedup);
    reporter.AddSeries("striped_fsync_speedup/" + std::to_string(block) + "B",
                       "x")
        .FromValue(speedup, 1)
        .Scalar("block_bytes", static_cast<double>(block));
  }
  bench::Note("striping fans dirty extents over per-server pipes: completion "
              "is the max leg, so large fsyncs gain ~num_servers once past "
              "the fixed base");
  return reporter.WriteJson() ? 0 : 1;
}
