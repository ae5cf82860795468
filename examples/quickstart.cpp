// Quickstart: the NCL abstraction end to end in ~80 lines.
//
// Builds a simulated cluster (controller + three log peers + a dfs), opens
// a file with the O_NCL flag through SplitFs, writes a few records, crashes
// the application server, and recovers the data from the peers' memory —
// demonstrating strong durability at microsecond write latency.
//
//   ./examples/quickstart
#include <cstdio>

#include "src/common/bytes.h"
#include "src/common/logging.h"
#include "src/harness/testbed.h"

using namespace splitft;

int main() {
  SetLogLevel(LogLevel::kWarning);
  std::printf("== SplitFT quickstart ==\n\n");

  // A simulated datacenter: 4 compute nodes lending spare memory as log
  // peers, a ZooKeeper-like controller, and a CephFS-like dfs.
  TestbedOptions testbed_options;
  testbed_options.tracing = true;  // for the recovery phase breakdown below
  Testbed testbed(testbed_options);
  std::printf("cluster: %d log peers, each lending %s of spare memory\n",
              testbed.num_peers(), HumanBytes(4ull << 30).c_str());

  // --- Incarnation 1: an application server writes a durable log. -------
  {
    auto server = testbed.MakeServer("quickstart-app");
    SplitOpenOptions opts;
    opts.oncl = true;             // the paper's O_NCL open flag
    opts.ncl_capacity = 1 << 20;  // reserve 1 MiB per peer for this log
    auto wal = server->fs->Open("/app/wal", opts);
    if (!wal.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   wal.status().ToString().c_str());
      return 1;
    }

    SimTime t0 = testbed.sim()->Now();
    (void)(*wal)->Append("txn-1: credit alice 100;");
    (void)(*wal)->Append("txn-2: debit bob 40;");
    (void)(*wal)->Append("txn-3: credit carol 7;");
    (void)(*wal)->Sync();  // drain the pipeline: all three now committed
    SimTime per_write = (testbed.sim()->Now() - t0) / 3;
    std::printf("wrote 3 log records, replicated to a majority of 3 peers\n");
    std::printf("  -> %s per committed write (pipelined, crash-safe!)\n",
                HumanDuration(per_write).c_str());

    // For comparison: the same write synced to the dfs.
    auto dfs_file = server->fs->Open("/app/dfs-log", SplitOpenOptions{});
    (void)(*dfs_file)->Append("txn-1: credit alice 100;");
    t0 = testbed.sim()->Now();
    (void)(*dfs_file)->Sync();
    std::printf("  -> the same durability via dfs fsync: %s (~500x slower)\n",
                HumanDuration(testbed.sim()->Now() - t0).c_str());

    // The server crashes without any clean shutdown.
    testbed.CrashServer(server.get());
    std::printf("\n*** application server crashed ***\n\n");
  }
  testbed.sim()->RunUntilIdle();

  // --- Incarnation 2: restart (possibly on different hardware) and
  // recover everything from the log peers' memory. -----------------------
  auto server = testbed.MakeServer("quickstart-app");
  std::printf("restarted; ncl files recorded on the controller:\n");
  for (const std::string& file : server->fs->ncl()->ListFiles()) {
    std::printf("  %s\n", file.c_str());
  }
  SplitOpenOptions opts;
  opts.oncl = true;
  auto wal = server->fs->Open("/app/wal", opts);  // triggers recovery
  if (!wal.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 wal.status().ToString().c_str());
    return 1;
  }
  auto contents = (*wal)->Read(0, (*wal)->Size());
  std::printf("recovered %s of log:\n  %s\n",
              HumanBytes((*wal)->Size()).c_str(),
              std::string(*contents).c_str());

  // The tracer's "ncl.recover.*" phase spans are the recovery breakdown.
  const auto& spans = testbed.tracer()->aggregates();
  auto phase_time = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? SimTime{0} : it->second.total;
  };
  std::printf("recovery breakdown: get-peers=%s connect=%s rdma-read=%s "
              "sync-peers=%s\n",
              HumanDuration(phase_time("ncl.recover.get_peers")).c_str(),
              HumanDuration(phase_time("ncl.recover.connect")).c_str(),
              HumanDuration(phase_time("ncl.recover.rdma_read")).c_str(),
              HumanDuration(phase_time("ncl.recover.sync_peers")).c_str());
  std::printf("\nall acknowledged writes survived the crash. done.\n");
  return 0;
}
