// Closed-loop benchmark harness over the virtual clock.
//
// N clients each keep one request outstanding against an application
// server. Writes are group-committed: all write requests queued while a
// commit is in flight form the next batch (application-level batching, §5).
// Applications that serve reads in parallel with an in-flight flush
// (RocksDB) use the deferred-commit path; single-threaded applications
// (Redis, SQLite) execute everything in arrival order, which produces the
// head-of-line blocking the paper observes for strong-mode Redis (§5.3).
//
// All times are virtual: a "120 second" run finishes in milliseconds of
// real time and is fully deterministic for a given seed.
#ifndef SRC_HARNESS_CLOSED_LOOP_H_
#define SRC_HARNESS_CLOSED_LOOP_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "src/apps/storage_app.h"
#include "src/common/histogram.h"
#include "src/sim/simulation.h"
#include "src/workload/ycsb.h"

namespace splitft {

struct HarnessOptions {
  int num_clients = 12;
  // Group commit across queued writes (disable for the no-batching
  // ablation; SQLite never batches regardless).
  bool batching = true;
  // Stop conditions: whichever comes first.
  uint64_t target_ops = 200000;
  SimTime max_duration = Seconds(300);
  // When > 0, sample completed ops per interval (Fig 12's timeline).
  SimTime sample_interval = 0;
};

struct TimelineSample {
  SimTime start;
  double kops;
};

struct HarnessResult {
  uint64_t ops = 0;
  SimTime duration = 0;
  double throughput_kops = 0;
  Histogram latency;
  std::vector<TimelineSample> timeline;
};

class ClosedLoopHarness {
 public:
  ClosedLoopHarness(Simulation* sim, StorageApp* app, YcsbWorkload* workload,
                    HarnessOptions options);

  // Runs the benchmark and returns aggregate metrics. May be called once.
  HarnessResult Run();

 private:
  struct Arrival {
    SimTime when;
    int client;  // -1: commit-pipeline-free token
    bool operator>(const Arrival& other) const { return when > other.when; }
  };

  struct PendingWrite {
    SimTime arrival;
    int client;
    KvWrite write;
  };

  void Complete(SimTime arrival, SimTime done, int client);
  void CommitPendingWrites();

  Simulation* sim_;
  StorageApp* app_;
  YcsbWorkload* workload_;
  HarnessOptions options_;

  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<Arrival>>
      arrivals_;
  std::vector<YcsbOp> client_op_;
  std::vector<PendingWrite> pending_writes_;
  SimTime commit_free_at_ = 0;
  bool commit_token_queued_ = false;

  HarnessResult result_;
  SimTime start_time_ = 0;
  std::vector<uint64_t> buckets_;
};

}  // namespace splitft

#endif  // SRC_HARNESS_CLOSED_LOOP_H_
