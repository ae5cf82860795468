// Simulator-core microbench — the hardware-fast scheduler contract.
//
// Measures raw discrete-event throughput of the indexed-heap scheduler
// (src/sim/event_queue.h) against the seed binary-heap scheduler kept
// verbatim in src/sim/reference_scheduler.h, across the event shapes the
// paper-figure benches and the chaos campaign actually generate:
//
//   1. empty-event churn        — back-to-back zero-capture reschedules,
//                                 pure scheduler overhead;
//   2. mixed-horizon timer load — fabric-WR-sized (120 B) captures fanned
//                                 across near/medium/far delays, so the
//                                 heap holds a wide spread of due times;
//   3. cancel-heavy chaos mix   — every event arms a cancelable timer and
//                                 half are cancelled before firing (the
//                                 heal-before-expiry pattern the 2000-seed
//                                 campaign hammers). This is the headline
//                                 `sim.events_per_sec` series;
//   4. end-to-end appends       — 128 B pipelined appends through a live
//                                 Testbed (fabric + NCL + quorum), i.e. the
//                                 de-virtualized append hot path.
//
// Scenarios 2 and 3 keep 4096 and up to 65536 chains in flight, far deeper
// than the at most 50 events the figure benches, the chaos campaign and
// perfbench keep pending (DESIGN.md §15): they stress the heap well past
// its real load.
//
// Wall-clock series here are *machine-dependent*: CI gates them only at a
// generous threshold (see tools/bench_compare.py --series in ci.yml). The
// deterministic twins (`det.*` series: virtual ns per append, arena slab
// counts, heap-callable spills) are byte-stable across runs and gate at
// the tight default.
//
// deeplint: allow-file(wall-clock) this bench measures *host* execution
// speed of the simulator itself; virtual time cannot observe that. All
// wall-clock reads stay inside this file and never feed simulation state.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/harness/testbed.h"
#include "src/sim/reference_scheduler.h"
#include "src/sim/simulation.h"

namespace splitft {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --------------------------------------------------------------- shapes --

// Scenario 1: zero-capture reschedule chains. Nothing but the scheduler.
template <typename S>
double EmptyChurn(S& s, long total_events, int width) {
  auto t0 = std::chrono::steady_clock::now();
  long fired = 0;
  struct Self {
    S* s;
    long* fired;
    long left;
    void operator()() {
      ++*fired;
      if (--left > 0) {
        s->Schedule(1000 + (*fired % 4001), Self{s, fired, left});
      }
    }
  };
  for (int i = 0; i < width; ++i) {
    s.Schedule(100 + i * 37, Self{&s, &fired, total_events / width});
  }
  s.RunUntilIdle();
  return static_cast<double>(fired) / SecondsSince(t0);
}

// Scenario 2: campaign-shaped load. 120 B captures (the fabric WR delivery
// closure size), three delay horizons (about 1-5 us, 0.1-0.2 ms, and past
// 5 ms), plus a 25% sprinkle of cancelable timers with half cancelled.
struct Payload {
  char bytes[120];
};

template <typename S>
double MixedHorizons(S& s, long total_events, int width) {
  auto t0 = std::chrono::steady_clock::now();
  long fired = 0;
  struct Timer {
    long* fired;
    void operator()() { ++*fired; }
  };
  struct Self {
    S* s;
    long* fired;
    long left;
    Payload p;
    void operator()() {
      ++*fired;
      long f = *fired;
      if ((f & 3) == 3) {
        uint64_t tok =
            s->ScheduleCancelableAt(s->Now() + 50000 + (f % 777) * 64,
                                    Timer{fired});
        if (f & 4) {
          s->Cancel(tok);
        }
      }
      if (--left > 0) {
        SimTime d;
        switch (f & 7) {
          case 0:
            d = 5000000 + (f % 131) * 1000;  // far
            break;
          case 1:
            d = 100000 + (f % 997) * 100;  // medium
            break;
          default:
            d = 1000 + (f % 4001);  // near, the common case
            break;
        }
        s->Schedule(d, Self{s, fired, left, p});
      }
    }
  };
  Payload p{};
  for (int i = 0; i < width; ++i) {
    s.Schedule(100 + i * 37, Self{&s, &fired, total_events / width, p});
  }
  s.RunUntilIdle();
  return static_cast<double>(fired) / SecondsSince(t0);
}

// Scenario 3 (headline): every event arms a cancelable far-ish timer and
// half get cancelled before expiry — the chaos/reconfig engine pattern at
// campaign width. The seed scheduler pays an unordered_set insert+erase,
// a dead wrapper event, and log2(width * chain) comparisons per timer; the
// core removes the entry from its heap and reclaims the node immediately.
template <typename S>
double CancelHeavy(S& s, long total_events, int width) {
  auto t0 = std::chrono::steady_clock::now();
  long fired = 0;
  struct Self {
    S* s;
    long* fired;
    long left;
    void operator()() {
      ++*fired;
      long f = *fired;
      if (--left > 0) {
        SimTime when = s->Now() + 5000 + (f % 4001);
        uint64_t tok = s->ScheduleCancelableAt(when, Self{s, fired, left});
        if (f & 1) {
          s->Cancel(tok);
          s->Schedule(5000 + (f % 2003), Self{s, fired, left});
        }
      }
    }
  };
  for (int i = 0; i < width; ++i) {
    s.Schedule(100 + i * 37, Self{&s, &fired, total_events / width});
  }
  s.RunUntilIdle();
  return static_cast<double>(fired) / SecondsSince(t0);
}

// Interleaved best-of-N: the two schedulers alternate within each rep so
// host noise (this box is shared) hits both sides, and best-of damps the
// remaining jitter. Returns {core_eps, heap_eps}.
template <typename Fn>
std::pair<double, double> Interleaved(int reps, long total_events, int width,
                                      Fn scenario) {
  double core_best = 0, heap_best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    Simulation core;
    ReferenceScheduler heap;
    double w = scenario(core, total_events, width);
    double h = scenario(heap, total_events, width);
    if (w > core_best) {
      core_best = w;
    }
    if (h > heap_best) {
      heap_best = h;
    }
  }
  return {core_best, heap_best};
}

struct ScenarioResult {
  double core_eps = 0;
  double heap_eps = 0;
  double speedup() const {
    return heap_eps > 0 ? core_eps / heap_eps : 0;
  }
};

void PrintRow(const char* name, int width, const ScenarioResult& r) {
  std::printf("  %-16s %8d %14.2f %14.2f %9.2fx\n", name, width,
              r.core_eps / 1e6, r.heap_eps / 1e6, r.speedup());
}

// Scenario 4: end-to-end 128 B pipelined appends through a live testbed.
// This is the path the tentpole flattened: stack-encoded region header,
// PostWriteChain into pooled WR payload buffers, flat WR->owner routing,
// arena-inlined completion closures. Wall appends/sec is the noisy host
// figure; virtual ns/append and the scheduler arena stats are deterministic
// and double as the zero-alloc regression gate.
struct AppendResult {
  double wall_appends_per_sec = 0;
  double sim_ns_per_append = 0;  // deterministic
  double arena_slabs = 0;        // deterministic
  double heap_callables = 0;     // deterministic
};

AppendResult EndToEndAppends(uint64_t appends) {
  Testbed testbed;
  auto server = testbed.MakeServer("micro-sim");
  CHECK_OK(server->start_status);
  SplitOpenOptions opts;
  opts.oncl = true;
  opts.ncl_capacity = 256ull << 20;
  auto file = server->fs->Open("/micro-sim-wal", opts);
  CHECK_OK(file.status());
  std::string payload(128, 'x');

  // Warm up: first appends grow the arena, the WR payload pool, and the
  // route map to steady-state capacity.
  for (int i = 0; i < 512; ++i) {
    CHECK_OK((*file)->Append(payload));
  }
  CHECK_OK((*file)->Sync());

  Simulation::SchedulerStats warm = testbed.sim()->scheduler_stats();
  SimTime sim_start = testbed.sim()->Now();
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < appends; ++i) {
    CHECK_OK((*file)->Append(payload));
  }
  CHECK_OK((*file)->Sync());
  double wall = SecondsSince(t0);
  SimTime sim_elapsed = testbed.sim()->Now() - sim_start;
  Simulation::SchedulerStats end = testbed.sim()->scheduler_stats();

  AppendResult r;
  r.wall_appends_per_sec = static_cast<double>(appends) / wall;
  r.sim_ns_per_append =
      static_cast<double>(sim_elapsed) / static_cast<double>(appends);
  // Reported as the *growth* past warm-up: zero means the measured window
  // allocated no new slabs and spilled no closures to the heap.
  r.arena_slabs = static_cast<double>(end.arena_slabs - warm.arena_slabs);
  r.heap_callables =
      static_cast<double>(end.heap_callables - warm.heap_callables);
  return r;
}

}  // namespace
}  // namespace splitft

int main() {
  using namespace splitft;
  bench::Reporter reporter("micro_sim");
  bench::Title("Simulator core: events/sec, indexed heap vs seed heap");

  const int reps = reporter.smoke() ? 1 : 3;
  const long empty_n = static_cast<long>(reporter.Iters(8000000, 120000));
  const long mixed_n = static_cast<long>(reporter.Iters(6000000, 120000));
  const long cancel_n = static_cast<long>(reporter.Iters(8000000, 120000));
  const int campaign_width = reporter.smoke() ? 4096 : 65536;

  std::printf("  %-16s %8s %14s %14s %10s\n", "scenario", "width",
              "core Mev/s", "seed Mev/s", "speedup");
  bench::Rule();

  ScenarioResult empty;
  {
    auto [w, h] = Interleaved(reps, empty_n, 64,
                              [](auto& s, long n, int width) {
                                return EmptyChurn(s, n, width);
                              });
    empty = {w, h};
    PrintRow("empty_churn", 64, empty);
  }

  ScenarioResult mixed;
  {
    auto [w, h] = Interleaved(reps, mixed_n, 4096,
                              [](auto& s, long n, int width) {
                                return MixedHorizons(s, n, width);
                              });
    mixed = {w, h};
    PrintRow("mixed_horizons", 4096, mixed);
  }

  ScenarioResult cancel;
  {
    auto [w, h] = Interleaved(reps, cancel_n, campaign_width,
                              [](auto& s, long n, int width) {
                                return CancelHeavy(s, n, width);
                              });
    cancel = {w, h};
    PrintRow("cancel_heavy", campaign_width, cancel);
  }
  bench::Rule();

  // Headline: the cancel-heavy chaos mix at campaign width is where the
  // seed scheduler's per-cancel costs compound; the acceptance bar is a
  // >=5x events/sec improvement here (EXPERIMENTS.md has the table).
  reporter.AddSeries("sim.events_per_sec", "ops/s")
      .FromValue(cancel.core_eps)
      .Scalar("heap_events_per_sec", cancel.heap_eps)
      .Scalar("width", campaign_width)
      .Scalar("events", static_cast<double>(cancel_n));
  reporter.AddSeries("sim.speedup", "x").FromValue(cancel.speedup());
  reporter.AddSeries("sim.empty_churn_eps", "ops/s")
      .FromValue(empty.core_eps)
      .Scalar("heap_events_per_sec", empty.heap_eps)
      .Scalar("speedup", empty.speedup());
  reporter.AddSeries("sim.mixed_horizons_eps", "ops/s")
      .FromValue(mixed.core_eps)
      .Scalar("heap_events_per_sec", mixed.heap_eps)
      .Scalar("speedup", mixed.speedup());

  bench::Title("End-to-end: 128B pipelined appends through a live testbed");
  AppendResult ap = EndToEndAppends(reporter.Iters(40000, 1500));
  std::printf("  wall appends/s %12.0f\n", ap.wall_appends_per_sec);
  std::printf("  virtual ns/append %9.1f  (deterministic)\n",
              ap.sim_ns_per_append);
  std::printf("  new arena slabs %11.0f  heap-spilled closures %.0f\n",
              ap.arena_slabs, ap.heap_callables);
  reporter.AddSeries("append.wall_appends_per_sec", "ops/s")
      .FromValue(ap.wall_appends_per_sec);
  // Deterministic twins: byte-stable across hosts and runs, gated tight.
  reporter.AddSeries("det.append_sim_ns", "ns").FromValue(ap.sim_ns_per_append);
  reporter.AddSeries("det.append_arena_slab_growth", "slabs")
      .FromValue(ap.arena_slabs);
  reporter.AddSeries("det.append_heap_callables", "events")
      .FromValue(ap.heap_callables);

  double headline = cancel.speedup();
  std::printf("\n  headline: %.2fx events/sec vs seed heap scheduler%s\n",
              headline,
              reporter.smoke() ? " (smoke sizes; not the acceptance run)"
                               : "");
  if (!reporter.WriteJson()) {
    return 1;
  }
  return 0;
}
