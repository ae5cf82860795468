// Ablation — the two-WR (data, then sequence-number header) scheme (§4.4).
//
// Every application write costs two ordered RDMA WRs per peer. This
// ablation (a) measures that overhead against a hypothetical single-WR
// scheme, and (b) uses the model checker to show why the ordering is not
// optional: posting the header before the data is the paper's §4.6 bug
// and loses acknowledged data.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/harness/testbed.h"
#include "src/modelcheck/model.h"

int main() {
  using namespace splitft;
  bench::Reporter reporter("ablation_seqnum");
  bench::Title("Ablation: data+seq two-WR scheme");

  // (a) Measured overhead of the second (header) WR.
  {
    Testbed testbed;
    // Window 1 forces the synchronous quorum round per append, so the
    // measured number is the committed per-write cost the §4.4 scheme pays
    // (the pipelined overlap is ablated separately in ablation_batching).
    auto server = testbed.MakeServer(
        "ab-seq",
        {.ncl_capacity = 64ull << 20, .ncl = {.inflight_window = 1}});
    SplitOpenOptions opts;
    opts.oncl = true;
    opts.ncl_capacity = 16 << 20;
    auto file = server->fs->Open("/wal", opts);
    if (!file.ok()) {
      return 1;
    }
    CHECK_OK((*file)->Append("warmup"));
    const int kOps = static_cast<int>(reporter.Iters(5000, 500));
    SimTime t0 = testbed.sim()->Now();
    for (int i = 0; i < kOps; ++i) {
      CHECK_OK((*file)->Append(std::string(128, 'x')));
    }
    double two_wr_us = static_cast<double>(testbed.sim()->Now() - t0) /
                       kOps / 1e3;
    // The NIC pipelines the data->header chain, so dropping the header WR
    // saves only its marginal cost on the slowest majority peer: the data
    // WR's send-queue occupancy shift, the header's serialization, and one
    // WQE's worth of posting — not a full fabric round trip.
    const SimParams& params = testbed.params();
    double header_wr_us =
        static_cast<double>(params.RdmaWrOccupancy(kNclRegionHeaderBytes) +
                            params.rdma.batched_wr_overhead) /
        1e3;
    std::printf("  two-WR write latency (128B):        %.2f us\n", two_wr_us);
    std::printf("  est. single-WR (unsafe) latency:    %.2f us\n",
                two_wr_us - header_wr_us);
    std::printf("  overhead of the sequence-number WR: %.2f us (%.0f%%)\n",
                header_wr_us, header_wr_us / two_wr_us * 100.0);
    reporter.AddSeries("two_wr_latency", "us")
        .FromValue(two_wr_us, kOps)
        .Scalar("header_wr_us", header_wr_us)
        .Scalar("overhead_fraction", header_wr_us / two_wr_us);
  }

  // (b) Why it must be ordered data-then-header: model check both orders.
  bench::Rule();
  McConfig config;
  config.max_writes = 2;
  config.max_states = reporter.Iters(2'000'000, 200'000);
  McResult safe = CheckNcl(config);
  config.bug_seq_before_data = true;
  McResult buggy = CheckNcl(config);
  std::printf("  model check, safe order (data->seq):   %llu states, %s\n",
              static_cast<unsigned long long>(safe.states_explored),
              safe.violation_found ? "VIOLATION" : "no violations");
  std::printf("  model check, bug order (seq->data):    %llu states, %s\n",
              static_cast<unsigned long long>(buggy.states_explored),
              buggy.violation_found ? "violation found (expected)"
                                    : "NO VIOLATION (unexpected!)");
  if (buggy.violation_found) {
    std::printf("    -> %s\n", buggy.violation.c_str());
  }
  bench::Note("the latency cost of the header WR (small, since the NIC "
              "pipelines the chain) buys the max-seq recovery rule its "
              "correctness (§4.4, §4.6)");
  reporter.AddSeries("modelcheck_safe", "states")
      .FromValue(static_cast<double>(safe.states_explored))
      .Scalar("violation_found", safe.violation_found ? 1 : 0);
  reporter.AddSeries("modelcheck_seq_before_data", "states")
      .FromValue(static_cast<double>(buggy.states_explored))
      .Scalar("violation_found", buggy.violation_found ? 1 : 0);
  return reporter.WriteJson() ? 0 : 1;
}
