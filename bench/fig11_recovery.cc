// Figure 11 — Recovery Performance.
//
// (a) Read latency vs size over a 100 MB recovered log: NCL (prefetch),
//     NCL without prefetch, DFS (page cache + readahead), DFS direct IO.
// (b) Application recovery time for a 60 MB log: SplitFT (NCL) vs DFT
//     (CephFS) vs local ext4, with the NCL breakdown (get peer / connect /
//     rdma read / sync peer / parse).
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/bytes.h"
#include "src/harness/closed_loop.h"
#include "src/harness/testbed.h"

namespace splitft {
namespace {

// Smoke mode shrinks the file/log so CI finishes in seconds.
uint64_t ReadFileBytes() {
  return bench::SmokeFromEnv() ? 4ull << 20 : 100ull << 20;
}
uint64_t LogBytes() {
  return bench::SmokeFromEnv() ? 2ull << 20 : 60ull << 20;
}
uint64_t MaxReads() { return bench::SmokeFromEnv() ? 1000 : 20000; }

// The paper-figure sections run the seed-calibrated single-pipe dfs so
// their numbers stay comparable across PRs; the striping subsections
// contrast it with the default three-server backend.
TestbedOptions LegacyDfs(int dfs_servers = 1) {
  TestbedOptions options;
  options.params.dfs.num_servers = dfs_servers;
  return options;
}

// Fills a DFS read file with `bytes` of 1 MiB appends. The first one hands
// over a string reserved to the whole file, so the dirty range grows in
// place and the sync adopts it instead of copying; each call is still
// charged and counted as one 1 MiB write.
void FillReadFile(DfsFile* file, uint64_t bytes) {
  const std::string chunk(1 << 20, 'x');
  std::string first;
  first.reserve(bytes);
  first.append(chunk);
  CHECK_OK(file->Append(std::move(first)));
  for (uint64_t i = 1; i < bytes / chunk.size(); ++i) {
    CHECK_OK(file->Append(chunk));
  }
}

// Sequentially reads the file with the given op size; returns avg us.
template <typename ReadFn>
double SeqReadLatency(Testbed* testbed, uint64_t total, uint64_t size,
                      ReadFn read) {
  uint64_t ops = std::min(MaxReads(), total / size);
  SimTime t0 = testbed->sim()->Now();
  for (uint64_t i = 0; i < ops; ++i) {
    read((i * size) % (total - size), size);
  }
  return static_cast<double>(testbed->sim()->Now() - t0) /
         static_cast<double>(ops) / 1e3;
}

void SectionA(bench::Reporter* reporter) {
  const uint64_t kReadFileBytes = ReadFileBytes();
  bench::Title("Figure 11(a): recovery read latency vs size");
  std::printf("  %-8s %14s %18s %12s %16s\n", "size", "NCL (us)",
              "NCL no-prefetch", "DFS (us)", "DFS direct-IO");
  bench::Rule();

  for (uint64_t size : {128ull, 512ull, 2048ull, 8192ull}) {
    // --- NCL with and without prefetch: write a 100MB ncl file, crash,
    // recover, then read sequentially.
    double ncl_us = 0, ncl_nop_us = 0;
    for (bool prefetch : {true, false}) {
      Testbed testbed(LegacyDfs());
      std::string app = std::string("fig11a-") + (prefetch ? "p" : "n") +
                        std::to_string(size);
      {
        auto server =
            testbed.MakeServer(
                app, {.ncl_capacity = kReadFileBytes + (1 << 20)});
        SplitOpenOptions opts;
        opts.oncl = true;
        opts.ncl_capacity = kReadFileBytes + (1 << 20);
        auto file = server->fs->Open("/log", opts);
        if (!file.ok()) {
          continue;
        }
        // Populate with 1 MiB appends (content, not timing, matters here).
        std::string chunk(1 << 20, 'x');
        for (uint64_t i = 0; i < kReadFileBytes / chunk.size(); ++i) {
          CHECK_OK((*file)->Append(chunk));
        }
        CHECK_OK((*file)->Sync());  // commit the window before the crash
        testbed.CrashServer(server.get());
      }
      testbed.sim()->RunUntilIdle();
      auto server =
          testbed.MakeServer(app, {.ncl = {.prefetch_on_recovery = prefetch}});
      SplitOpenOptions opts;
      opts.oncl = true;
      auto file = server->fs->Open("/log", opts);
      if (!file.ok()) {
        continue;
      }
      double us = SeqReadLatency(
          &testbed, kReadFileBytes, size,
          [&](uint64_t off, uint64_t len) { CHECK_OK((*file)->Read(off, len)); });
      (prefetch ? ncl_us : ncl_nop_us) = us;
    }

    // --- DFS with page cache / direct IO.
    double dfs_us = 0, dfs_direct_us = 0;
    for (bool direct : {false, true}) {
      Testbed testbed(LegacyDfs());
      DfsClient client(testbed.dfs_cluster(), "fig11a-dfs");
      {
        auto file = client.Open("/log");
        FillReadFile(file->get(), kReadFileBytes);
        CHECK_OK((*file)->Sync(false));
      }
      // Let the background flush drain before the recovery reads begin.
      testbed.sim()->RunUntil(testbed.sim()->Now() + Seconds(2));
      client.SimulateCrash();  // cold page cache, like a fresh server
      DfsOpenOptions opts;
      opts.create = false;
      opts.direct_io = direct;
      auto file = client.Open("/log", opts);
      if (!file.ok()) {
        continue;
      }
      double us = SeqReadLatency(
          &testbed, kReadFileBytes, size,
          [&](uint64_t off, uint64_t len) { CHECK_OK((*file)->Read(off, len)); });
      (direct ? dfs_direct_us : dfs_us) = us;
    }

    std::printf("  %-8s %14.2f %18.2f %12.2f %16.1f\n",
                HumanBytes(size).c_str(), ncl_us, ncl_nop_us, dfs_us,
                dfs_direct_us);
    std::string suffix = "/" + std::to_string(size) + "B";
    reporter->AddSeries("read.ncl" + suffix, "us").FromValue(ncl_us);
    reporter->AddSeries("read.ncl-noprefetch" + suffix, "us")
        .FromValue(ncl_nop_us);
    reporter->AddSeries("read.dfs" + suffix, "us").FromValue(dfs_us);
    reporter->AddSeries("read.dfs-direct" + suffix, "us")
        .FromValue(dfs_direct_us);
  }
  bench::Rule();
  bench::Note("paper @128B: NCL ~4x faster than DFS; no-prefetch ~4.5x "
              "slower than DFS; direct-IO worst by far");

  // Striping extension: the bulk-recovery shape — one sequential pass over
  // the whole recovered file — is where per-stripe reads fan out across
  // the object servers in parallel.
  bench::Title("Figure 11(a) extension: bulk recovery read, servers=1 vs 3");
  std::printf("  %-12s %14s %14s %s\n", "mode", "servers=1", "servers=3",
              "speedup");
  bench::Rule();
  for (bool direct : {false, true}) {
    SimTime lat[2] = {0, 0};
    int idx = 0;
    for (int servers : {1, 3}) {
      Testbed testbed(LegacyDfs(servers));
      DfsClient client(testbed.dfs_cluster(), "fig11a-striped");
      {
        auto file = client.Open("/log");
        FillReadFile(file->get(), kReadFileBytes);
        CHECK_OK((*file)->Sync(false));
      }
      testbed.sim()->RunUntil(testbed.sim()->Now() + Seconds(2));
      client.SimulateCrash();  // cold page cache, like a fresh server
      DfsOpenOptions opts;
      opts.create = false;
      opts.direct_io = direct;
      auto file = client.Open("/log", opts);
      if (!file.ok()) {
        continue;
      }
      SimTime t0 = testbed.sim()->Now();
      CHECK_OK((*file)->Read(0, kReadFileBytes));
      lat[idx++] = testbed.sim()->Now() - t0;
    }
    double speedup = lat[1] > 0 ? static_cast<double>(lat[0]) /
                                      static_cast<double>(lat[1])
                                : 0.0;
    const char* mode = direct ? "direct-io" : "page-cache";
    std::printf("  %-12s %14s %14s %.2fx\n", mode,
                HumanDuration(lat[0]).c_str(), HumanDuration(lat[1]).c_str(),
                speedup);
    reporter->AddSeries(std::string("read.bulk-striped/") + mode + "/s1", "s")
        .FromValue(static_cast<double>(lat[0]) / 1e9);
    reporter->AddSeries(std::string("read.bulk-striped/") + mode + "/s3", "s")
        .FromValue(static_cast<double>(lat[1]) / 1e9)
        .Scalar("speedup", speedup);
  }
}

void SectionB(bench::Reporter* reporter) {
  const uint64_t kLogBytes = LogBytes();
  bench::Title("Figure 11(b): application recovery time, 60 MB log");
  std::printf("  %-10s %12s %12s %12s %12s\n", "app", "SplitFT", "DFT",
              "DFT-s3", "local-ext4");
  bench::Rule();

  // Local ext4 comparison point: pure read+parse at local-SSD speed.
  double ext4_s;
  {
    Testbed testbed(LegacyDfs());
    const SimParams& params = testbed.params();
    SimTime read = params.local_fs.read_base +
                   static_cast<SimTime>(static_cast<double>(kLogBytes) /
                                        params.local_fs.read_bytes_per_ns);
    SimTime parse_time =
        static_cast<SimTime>(kLogBytes) * params.cpu.parse_log_per_byte_ns;
    ext4_s = static_cast<double>(read + parse_time) / 1e9;
  }

  // Per-measurement result: end-to-end seconds plus the span window
  // scoped to the recovery (only populated for the tracing run).
  struct Measured {
    double seconds = 0;
    SimTime elapsed = 0;
    double attributed = 0;
    std::map<std::string, SpanStats> window;
  };

  // Generic crash/recover driver: `open_app` opens (or recovers) the app
  // on a fresh server. Recovery phases come from the tracer: the
  // ncl.recover.* spans cover the NCL side and app.recover.replay covers
  // log parsing, so the window both breaks down and (acceptance) accounts
  // for >= 95% of the end-to-end recovery time.
  auto measure = [&](const char* app_tag, DurabilityMode mode, bool traced,
                     auto&& open_app, auto&& load, int dfs_servers = 1) {
    Measured m;
    TestbedOptions options;
    options.tracing = traced;
    options.params.dfs.num_servers = dfs_servers;
    Testbed testbed(options);
    std::string app = std::string("fig11b-") + app_tag + "-" +
                      std::string(DurabilityModeName(mode));
    {
      auto server = testbed.MakeServer(
          app, {.mode = mode, .ncl_capacity = kLogBytes + (8 << 20)});
      if (!open_app(&testbed, server.get(), mode, /*recovering=*/false)) {
        return m;
      }
      load(server.get());
      if (mode != DurabilityMode::kStrong) {
        server->dfs->BackgroundFlushAll();  // weak: make the log durable
      }
      testbed.CrashServer(server.get());
    }
    testbed.sim()->RunUntilIdle();
    auto server = testbed.MakeServer(
        app, {.mode = mode, .ncl_capacity = kLogBytes + (8 << 20)});
    auto before = testbed.tracer()->Snapshot();
    SimTime t0 = testbed.sim()->Now();
    if (!open_app(&testbed, server.get(), mode, /*recovering=*/true)) {
      return m;
    }
    m.elapsed = testbed.sim()->Now() - t0;
    m.seconds = static_cast<double>(m.elapsed) / 1e9;
    if (traced) {
      m.window = SpanDiff(before, testbed.tracer()->Snapshot());
      m.attributed = bench::AttributedFraction(m.window, m.elapsed);
    }
    return m;
  };

  // Pulls one phase total (ns) out of a recovery span window.
  auto phase = [](const Measured& m, const char* span) -> SimTime {
    auto it = m.window.find(span);
    return it == m.window.end() ? 0 : it->second.total;
  };

  struct AppRow {
    const char* name;
    std::function<bool(Testbed*, AppServer*, DurabilityMode, bool)> open_app;
    std::function<void(AppServer*)> load;
  };

  // Each app holds its opened instance on the server so `load` can use it.
  std::unique_ptr<StorageApp> current;
  std::vector<AppRow> apps;
  apps.push_back(AppRow{
      "rocksdb",
      [&](Testbed* testbed, AppServer* server, DurabilityMode mode, bool) {
        KvStoreOptions options;
        options.mode = mode;
        options.memtable_bytes = 256ull << 20;  // keep all data in the log
        options.wal_capacity = kLogBytes + (8 << 20);
        auto store = testbed->StartKvStore(server, options);
        if (!store.ok()) {
          return false;
        }
        current = std::move(*store);
        return true;
      },
      [&](AppServer*) {
        CHECK_OK(Testbed::LoadRecords(current.get(), kLogBytes / 140));
      }});
  apps.push_back(AppRow{
      "redis",
      [&](Testbed* testbed, AppServer* server, DurabilityMode mode, bool) {
        RedisOptions options;
        options.mode = mode;
        options.aof_rewrite_bytes = 256ull << 20;  // keep all data in the AOF
        options.aof_capacity = kLogBytes + (8 << 20);
        auto redis = testbed->StartRedis(server, options);
        if (!redis.ok()) {
          return false;
        }
        current = std::move(*redis);
        return true;
      },
      [&](AppServer*) {
        CHECK_OK(Testbed::LoadRecords(current.get(), kLogBytes / 145));
      }});
  apps.push_back(AppRow{
      "sqlite",
      [&](Testbed* testbed, AppServer* server, DurabilityMode mode, bool) {
        SqliteLiteOptions options;
        options.mode = mode;
        options.wal_capacity = kLogBytes + (8 << 20);  // no checkpoint
        auto db = testbed->StartSqlite(server, options);
        if (!db.ok()) {
          return false;
        }
        current = std::move(*db);
        return true;
      },
      [&](AppServer*) {
        CHECK_OK(Testbed::LoadRecords(current.get(), kLogBytes / 160));
      }});

  for (const AppRow& row : apps) {
    Measured splitft = measure(row.name, DurabilityMode::kSplitFt,
                               /*traced=*/true, row.open_app, row.load);
    current.reset();
    Measured dft = measure(row.name, DurabilityMode::kStrong,
                           /*traced=*/false, row.open_app, row.load);
    current.reset();
    // DFT recovery reads its whole log back from the dfs, so the striped
    // backend's parallel recovery reads show up here directly.
    Measured dft_s3 = measure(row.name, DurabilityMode::kStrong,
                              /*traced=*/false, row.open_app, row.load,
                              /*dfs_servers=*/3);
    current.reset();
    // Parse is replay's self time: its total also covers the NCL recovery
    // phases nested inside it (sync-peer), which print on their own.
    auto replay = splitft.window.find("app.recover.replay");
    SimTime parse = replay == splitft.window.end() ? 0 : replay->second.self;
    std::printf("  %-10s %10.2fs %10.2fs %10.2fs %10.2fs   get-peer=%s "
                "connect=%s rdma-read=%s sync-peer=%s parse=%s "
                "attributed=%.0f%%\n",
                row.name, splitft.seconds, dft.seconds, dft_s3.seconds,
                ext4_s,
                HumanDuration(phase(splitft, "ncl.recover.get_peers")).c_str(),
                HumanDuration(phase(splitft, "ncl.recover.connect")).c_str(),
                HumanDuration(phase(splitft, "ncl.recover.rdma_read")).c_str(),
                HumanDuration(phase(splitft, "ncl.recover.sync_peers")).c_str(),
                HumanDuration(parse).c_str(), splitft.attributed * 100.0);
    reporter->AddSeries(std::string("recover.splitft/") + row.name, "s")
        .FromValue(splitft.seconds)
        .Scalar("attributed_fraction", splitft.attributed)
        .LayersFromSpans(splitft.window);
    reporter->AddSeries(std::string("recover.dft/") + row.name, "s")
        .FromValue(dft.seconds);
    reporter->AddSeries(std::string("recover.dft-s3/") + row.name, "s")
        .FromValue(dft_s3.seconds)
        .Scalar("dfs_servers", 3);
    reporter->AddSeries(std::string("recover.ext4/") + row.name, "s")
        .FromValue(ext4_s);
  }
  bench::Rule();
  bench::Note("paper: NCL recovery within ~4%-2x of CephFS, hundreds of ms, "
              "dominated by application-level parse");
}

}  // namespace
}  // namespace splitft

int main() {
  splitft::bench::Reporter reporter("fig11_recovery");
  splitft::SectionA(&reporter);
  splitft::SectionB(&reporter);
  return reporter.WriteJson() ? 0 : 1;
}
