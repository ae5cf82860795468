// Real-CPU microbenchmarks (google-benchmark) for the hot components of
// the library: checksums, PRNG/workload generation, the simulated fabric's
// post/poll path, histogram recording, and the storage formats. These
// measure actual wall-clock cost (not virtual time) and guard against
// performance regressions in the simulator itself.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

#include "src/apps/kvstore/sstable.h"
#include "src/apps/kvstore/wal.h"
#include "src/common/crc32c.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/controller/znode_store.h"
#include "src/modelcheck/model.h"
#include "src/ncl/connection_pool.h"
#include "src/ncl/ec.h"
#include "src/rdma/fabric.h"
#include "src/sim/simulation.h"
#include "src/workload/ycsb.h"

namespace splitft {
namespace {

void BM_Crc32c(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(128)->Arg(4096)->Arg(65536);

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

void BM_ZipfianNext(benchmark::State& state) {
  ZipfianGenerator gen(static_cast<uint64_t>(state.range(0)));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next(&rng));
  }
}
BENCHMARK(BM_ZipfianNext)->Arg(10000)->Arg(1000000);

void BM_YcsbOp(benchmark::State& state) {
  YcsbWorkload workload(YcsbWorkloadKind::kA, 100000, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.Next());
  }
}
BENCHMARK(BM_YcsbOp);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (auto _ : state) {
    h.Add(static_cast<int64_t>(rng.Uniform(1000000)));
  }
}
BENCHMARK(BM_HistogramAdd);

void BM_SimulationEvent(benchmark::State& state) {
  Simulation sim;
  for (auto _ : state) {
    sim.Schedule(1, [] {});
    sim.RunOne();
  }
}
BENCHMARK(BM_SimulationEvent);

void BM_FabricWritePostPoll(benchmark::State& state) {
  Simulation sim;
  SimParams params;
  Fabric fabric(&sim, &params);
  NodeId a = fabric.AddNode("a");
  NodeId b = fabric.AddNode("b");
  auto rkey = fabric.RegisterRegion(b, 1 << 20);
  QueuePair qp(&fabric, a, b);
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  Completion c;
  for (auto _ : state) {
    qp.PostWrite(*rkey, 0, payload);
    while (!qp.PollCq(&c)) {
      sim.RunOne();
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FabricWritePostPoll)->Arg(128)->Arg(4096);

// The per-WR host path through the pooled fabric (DESIGN.md §14): two
// handles take turns on one shared lane, so every completion is routed
// through the lane drain to its owner's ready queue before the poll.
void BM_PooledWritePostPoll(benchmark::State& state) {
  Simulation sim;
  SimParams params;
  Fabric fabric(&sim, &params);
  NodeId a = fabric.AddNode("a");
  NodeId b = fabric.AddNode("b");
  auto rkey = fabric.RegisterRegion(b, 1 << 20);
  NclPoolOptions one_lane;
  one_lane.qps_per_peer = 1;
  NclConnectionPool pool(&fabric, a, one_lane);
  std::unique_ptr<PooledQp> handles[2] = {pool.Connect(b), pool.Connect(b)};
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  Completion c;
  size_t turn = 0;
  for (auto _ : state) {
    PooledQp* h = handles[turn++ % 2].get();
    h->PostWrite(*rkey, 0, payload);
    while (!h->PollCq(&c)) {
      sim.RunOne();
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PooledWritePostPoll)->Arg(128);

void BM_WalEncodeReplay(benchmark::State& state) {
  std::vector<KvWrite> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back({YcsbWorkload::KeyFor(static_cast<uint64_t>(i)),
                     std::string(100, 'v')});
  }
  for (auto _ : state) {
    std::string record = WriteAheadLog::EncodeRecord(batch);
    int n = WriteAheadLog::Replay(record, [](auto, auto) {});
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_WalEncodeReplay);

void BM_ZnodeStoreOps(benchmark::State& state) {
  ZnodeStore store;
  uint64_t i = 0;
  for (auto _ : state) {
    std::string path = "/peers/p" + std::to_string(i % 64);
    CHECK_OK(store.Create(path, "x"));
    benchmark::DoNotOptimize(store.Get(path));
    CHECK_OK(store.Delete(path));
    i++;
  }
}
BENCHMARK(BM_ZnodeStoreOps);

// EC shard kernels (DESIGN.md §16): the real-CPU cost of encoding one
// append's parity and of reconstructing logical bytes from k shard
// streams, across the supported geometries. Arg encoding: k*10 + m over a
// fixed 64 KiB logical image.
void BM_EcEncodeParity(benchmark::State& state) {
  EcGeometry geo;
  geo.k = static_cast<uint32_t>(state.range(0) / 10);
  geo.m = static_cast<uint32_t>(state.range(0) % 10);
  constexpr uint64_t kLogicalBytes = 64 << 10;
  std::string logical(kLogicalBytes, 'x');
  EcShardRange full{0, geo.ShardCapacity(kLogicalBytes)};
  std::string shard;
  for (auto _ : state) {
    for (uint32_t p = 0; p < geo.m; ++p) {
      EncodeParityShard(geo, p, logical, full, &shard);
      benchmark::DoNotOptimize(shard.data());
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kLogicalBytes));
}
BENCHMARK(BM_EcEncodeParity)->Arg(21)->Arg(22)->Arg(41)->Arg(42);

void BM_EcReconstruct(benchmark::State& state) {
  EcGeometry geo;
  geo.k = static_cast<uint32_t>(state.range(0) / 10);
  geo.m = static_cast<uint32_t>(state.range(0) % 10);
  constexpr uint64_t kLogicalBytes = 64 << 10;
  std::string logical(kLogicalBytes, 'x');
  EcShardRange full{0, geo.ShardCapacity(kLogicalBytes)};
  std::vector<std::string> shards(geo.shards());
  for (uint32_t j = 0; j < geo.k; ++j) {
    ExtractDataShard(geo, j, logical, full, &shards[j]);
  }
  for (uint32_t p = 0; p < geo.m; ++p) {
    EncodeParityShard(geo, p, logical, full, &shards[geo.k + p]);
  }
  // Worst case: data shard 0 lost, decode goes through the parity matrix.
  std::vector<EcShardView> views;
  for (uint32_t s = 1; s < geo.k + 1; ++s) {
    views.push_back(EcShardView{s, shards[s]});
  }
  std::string out;
  for (auto _ : state) {
    CHECK_OK(EcReconstruct(geo, views, kLogicalBytes, &out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kLogicalBytes));
}
BENCHMARK(BM_EcReconstruct)->Arg(21)->Arg(22)->Arg(41)->Arg(42);

void BM_ModelCheckTiny(benchmark::State& state) {
  for (auto _ : state) {
    McConfig config;
    config.max_writes = 1;
    config.max_peer_crashes = 1;
    config.max_app_crashes = 1;
    McResult r = CheckNcl(config);
    benchmark::DoNotOptimize(r.states_explored);
  }
}
BENCHMARK(BM_ModelCheckTiny);

// Console reporter that also funnels every run into the shared JSON
// reporter: one series per benchmark (real time in ns, plus the
// items/bytes-per-second counters google-benchmark computed).
class JsonForwardingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonForwardingReporter(bench::Reporter* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      bench::BenchSeries& series =
          out_->AddSeries(run.benchmark_name(), "ns")
              .FromValue(run.GetAdjustedRealTime(),
                         static_cast<uint64_t>(run.iterations));
      if (run.counters.find("bytes_per_second") != run.counters.end()) {
        series.Scalar("bytes_per_second",
                      run.counters.at("bytes_per_second"));
      }
    }
  }

 private:
  bench::Reporter* out_;
};

}  // namespace
}  // namespace splitft

int main(int argc, char** argv) {
  using namespace splitft;
  bench::Reporter reporter("micro_components");
  // Smoke mode shortens every benchmark's measurement window; pass the flag
  // before user args so an explicit --benchmark_min_time still wins.
  std::vector<char*> args;
  args.push_back(argv[0]);
  std::string min_time = "--benchmark_min_time=0.01";
  if (reporter.smoke()) {
    args.push_back(min_time.data());
  }
  for (int i = 1; i < argc; ++i) {
    args.push_back(argv[i]);
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  JsonForwardingReporter console(&reporter);
  benchmark::RunSpecifiedBenchmarks(&console);
  benchmark::Shutdown();
  return reporter.WriteJson() ? 0 : 1;
}
