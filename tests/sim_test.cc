#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/params.h"
#include "src/sim/reference_scheduler.h"
#include "src/sim/simulation.h"

namespace splitft {
namespace {

TEST(SimulationTest, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.Now(), 0);
}

TEST(SimulationTest, RunOneAdvancesClock) {
  Simulation sim;
  bool ran = false;
  sim.Schedule(Micros(5), [&] { ran = true; });
  EXPECT_TRUE(sim.RunOne());
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.Now(), Micros(5));
  EXPECT_FALSE(sim.RunOne());
}

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(Micros(30), [&] { order.push_back(3); });
  sim.Schedule(Micros(10), [&] { order.push_back(1); });
  sim.Schedule(Micros(20), [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, SameTimeEventsRunFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(Micros(10), [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, NestedScheduling) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(Micros(1), [&] {
    fired++;
    sim.Schedule(Micros(1), [&] { fired++; });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), Micros(2));
}

TEST(SimulationTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(Micros(10), [&] { fired++; });
  sim.Schedule(Micros(50), [&] { fired++; });
  sim.RunUntil(Micros(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Micros(20));
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, RunUntilPredicate) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(Micros(i), [&] { count++; });
  }
  EXPECT_TRUE(sim.RunUntilPredicate([&] { return count == 3; }));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.Now(), Micros(3));
  EXPECT_FALSE(sim.RunUntilPredicate([&] { return count == 100; }));
  EXPECT_EQ(count, 10);
}

TEST(SimulationTest, AdvanceIsMonotonic) {
  Simulation sim;
  sim.Advance(Micros(100));
  EXPECT_EQ(sim.Now(), Micros(100));
  sim.AdvanceTo(Micros(50));  // no-op: never move backwards
  EXPECT_EQ(sim.Now(), Micros(100));
}

TEST(SimulationTest, EventBeforeAdvancedClockRunsAtCurrentTime) {
  Simulation sim;
  SimTime observed = -1;
  sim.Schedule(Micros(10), [&] { observed = sim.Now(); });
  sim.Advance(Micros(100));  // actor did synchronous CPU work past the event
  sim.RunUntilIdle();
  EXPECT_EQ(observed, Micros(100));
}

TEST(SimulationTest, OverlapBranchesShareAStartAndJoinAtTheLatestEnd) {
  Simulation sim;
  sim.Advance(Micros(100));
  const SimTime kWork[] = {Millis(3), Millis(65), 0, Millis(7)};
  std::vector<SimTime> starts;
  sim.Overlap(std::size(kWork), [&](size_t i) {
    starts.push_back(sim.Now());
    sim.Advance(kWork[i]);
  });
  EXPECT_EQ(starts, std::vector<SimTime>(std::size(kWork), Micros(100)));
  EXPECT_EQ(sim.Now(), Micros(100) + Millis(65));
  // No branches, or only idle ones, leave the clock where it was.
  sim.Overlap(0, [&](size_t) { sim.Advance(Millis(1)); });
  sim.Overlap(2, [](size_t) {});
  EXPECT_EQ(sim.Now(), Micros(100) + Millis(65));
}

TEST(SimulationTest, EventScheduledInABranchFiresOnItsBranchClock) {
  Simulation sim;
  std::vector<std::pair<char, SimTime>> fired;
  auto record = [&](char name) {
    return [&fired, &sim, name] { fired.emplace_back(name, sim.Now()); };
  };
  // Already queued: one due before the join, one after it.
  sim.Schedule(Micros(5), record('q'));
  sim.Schedule(Millis(40), record('r'));
  sim.Overlap(3, [&](size_t i) {
    switch (i) {
      case 0:  // the long branch: the join lands at 30 ms
        sim.Advance(Millis(30));
        sim.Schedule(Micros(1), record('a'));  // due at 30 ms + 1 us
        break;
      case 1:  // rewound to 0: due before 'q' and the join
        sim.Schedule(Micros(2), record('b'));
        sim.Schedule(Millis(35), record('c'));  // due after the join
        break;
      default:  // rewound again, then a short advance
        sim.Advance(Micros(3));
        sim.Schedule(Millis(45), record('d'));
        break;
    }
  });
  EXPECT_EQ(sim.Now(), Millis(30));
  sim.RunUntilIdle();
  // Events due before the join fire at the join, in (when, seq) order;
  // later ones fire at exactly their branch-relative time.
  const std::vector<std::pair<char, SimTime>> kWant = {
      {'b', Millis(30)},
      {'q', Millis(30)},
      {'a', Millis(30) + Micros(1)},
      {'c', Millis(35)},
      {'r', Millis(40)},
      {'d', Micros(3) + Millis(45)},
  };
  EXPECT_EQ(fired, kWant);
}

TEST(SimulationDeathTest, RunningEventsInsideABranchIsRejected) {
  Simulation sim;
  sim.Schedule(Micros(1), [] {});
  EXPECT_DEATH(sim.Overlap(1, [&](size_t) { sim.RunOne(); }),
               "inside an Overlap branch");
  EXPECT_DEATH(sim.Overlap(1, [&](size_t) { sim.RunUntilIdle(); }),
               "inside an Overlap branch");
  EXPECT_DEATH(sim.Overlap(1, [&](size_t) { sim.RunUntil(Micros(2)); }),
               "inside an Overlap branch");
  // Outside a branch the same simulation runs normally.
  EXPECT_TRUE(sim.RunOne());
}

TEST(SimParamsTest, DfsSmallWriteMatchesPaperFig1d) {
  SimParams params;
  // 512 B synchronous write ~ 2.1 ms  =>  ~249 KB/s as in Fig 1(d).
  SimTime lat = params.DfsSyncWriteLatency(512);
  double kb_per_s = 512.0 / (static_cast<double>(lat) / 1e9) / 1000.0;
  EXPECT_GT(kb_per_s, 150.0);
  EXPECT_LT(kb_per_s, 350.0);
}

TEST(SimParamsTest, LatencyHierarchyHolds) {
  SimParams params;
  // buffered write < RDMA write < dfs sync write, each by a wide margin.
  SimTime buffered = params.DfsBufferedWriteLatency(128);
  SimTime rdma = params.RdmaWriteLatency(128);
  SimTime sync = params.DfsSyncWriteLatency(128);
  EXPECT_LT(buffered, rdma);
  EXPECT_LT(rdma * 50, sync);
}

TEST(SimParamsTest, LargeWritesAreBandwidthBound) {
  SimParams params;
  SimTime small = params.DfsSyncWriteLatency(512);
  SimTime large = params.DfsSyncWriteLatency(64ull * 1024 * 1024);
  double tput_small = 512.0 / static_cast<double>(small);
  double tput_large =
      static_cast<double>(64ull * 1024 * 1024) / static_cast<double>(large);
  // Roughly three orders of magnitude difference (paper: Fig 1d).
  EXPECT_GT(tput_large / tput_small, 500.0);
}

TEST(SimParamsTest, MrRegistrationCostMatchesTable3Scale) {
  SimParams params;
  // Table 3: connecting + registering a 60 MB region ~ 50-65 ms.
  SimTime t = params.MrRegisterLatency(60ull * 1024 * 1024) +
              params.rdma.connect_latency;
  EXPECT_GT(t, Millis(20));
  EXPECT_LT(t, Millis(120));
}

// ---------------------------------------------------------------------------
// Scheduler-equivalence suite: the indexed-heap core must fire the same
// events at the same timestamps in the same order as the seed binary-heap
// scheduler (src/sim/reference_scheduler.h), for any interleaving of
// Schedule / ScheduleAt / ScheduleCancelableAt / Cancel / AdvanceTo /
// RunOne / RunUntil. Each fired event logs (id, fire time); the two logs
// must match exactly.
// ---------------------------------------------------------------------------

// Delay scales the randomized workload draws from: 1024 ns and 4096 x
// 1024 ns, the bucket width and ring horizon of an earlier calendar-queue
// core. Their values are kept so every seed replays the same stream.
constexpr SimTime kBucketWidth = 1024;
constexpr SimTime kHorizon = 4096 * kBucketWidth;

// One recorded firing: (event id, virtual time it ran at).
using FireLog = std::vector<std::pair<uint64_t, SimTime>>;

// Replays an identical randomized workload against a scheduler `S` (the
// Simulation core or the reference heap). Determinism of the workload
// itself comes from the seeded Rng.
template <typename S>
FireLog ReplayWorkload(uint64_t seed, int ops) {
  S sched;
  FireLog log;
  Rng rng(seed);
  uint64_t next_id = 1;
  std::vector<uint64_t> cancel_tokens;

  // Delay menu: same-tick FIFO runs, delays either side of the bucket
  // width, and far delays around the horizon.
  const SimTime kDelays[] = {
      0,
      1,
      kBucketWidth - 1,
      kBucketWidth,
      kBucketWidth + 1,
      7777,
      kHorizon - kBucketWidth,
      kHorizon - 1,
      kHorizon,
      kHorizon + 12345,
  };
  constexpr size_t kNumDelays = sizeof(kDelays) / sizeof(kDelays[0]);

  for (int i = 0; i < ops; ++i) {
    uint64_t pick = rng.Uniform(100);
    SimTime delay = kDelays[rng.Uniform(kNumDelays)] + rng.Uniform(3);
    uint64_t id = next_id++;
    auto fire = [&log, &sched, id] { log.emplace_back(id, sched.Now()); };
    if (pick < 40) {
      sched.Schedule(delay, fire);
    } else if (pick < 55) {
      // Absolute schedules, including times already in the past (they must
      // clamp to Now() in both implementations).
      SimTime when = static_cast<SimTime>(
          rng.Uniform(static_cast<uint64_t>(sched.Now() + delay + 1)));
      sched.ScheduleAt(when, fire);
    } else if (pick < 75) {
      cancel_tokens.push_back(sched.ScheduleCancelableAt(
          sched.Now() + delay, fire));
    } else if (pick < 85 && !cancel_tokens.empty()) {
      // Cancel a random outstanding token; sometimes twice (idempotent),
      // sometimes one that already fired (no-op).
      size_t at = rng.Uniform(cancel_tokens.size());
      sched.Cancel(cancel_tokens[at]);
      if (rng.Uniform(4) == 0) {
        sched.Cancel(cancel_tokens[at]);
      }
      cancel_tokens.erase(cancel_tokens.begin() + static_cast<long>(at));
    } else if (pick < 90) {
      // Synchronous CPU time: jump the clock, sometimes a few bucket
      // widths, sometimes past the whole horizon.
      SimTime jump = rng.Uniform(4) == 0
                         ? kHorizon + 5000
                         : static_cast<SimTime>(rng.Uniform(4 * kBucketWidth));
      sched.Advance(jump);
    } else if (pick < 96) {
      // Run until k live events fired (or idle). Counting RunOne calls
      // directly would not be comparable: the reference scheduler burns
      // RunOne calls on cancelled events' dead wrappers, the core never
      // pops cancelled events at all.
      size_t target = log.size() + rng.Uniform(8);
      while (log.size() < target && sched.RunOne()) {
      }
    } else {
      sched.RunUntil(sched.Now() +
                     static_cast<SimTime>(rng.Uniform(2 * kBucketWidth)));
    }
  }
  sched.RunUntilIdle();
  return log;
}

TEST(SchedulerEquivalenceTest, RandomizedWorkloadMatchesReferenceHeap) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 0xdecafbadull, 0x5174f7ull}) {
    FireLog core = ReplayWorkload<Simulation>(seed, 4000);
    FireLog heap = ReplayWorkload<ReferenceScheduler>(seed, 4000);
    ASSERT_EQ(core.size(), heap.size()) << "seed " << seed;
    for (size_t i = 0; i < core.size(); ++i) {
      ASSERT_EQ(core[i].first, heap[i].first)
          << "fire order diverged at event " << i << " (seed " << seed << ")";
      ASSERT_EQ(core[i].second, heap[i].second)
          << "fire time diverged at event " << i << " (seed " << seed << ")";
    }
  }
}

TEST(SchedulerEquivalenceTest, SameTimestampFifoAcrossAllTiers) {
  // Events landing on one timestamp, scheduled far ahead, just before it
  // and while the clock stands next to it, must still run in scheduling
  // order.
  Simulation sim;
  std::vector<int> order;
  SimTime t = kHorizon + 3 * kBucketWidth + 17;
  sim.ScheduleAt(t, [&] { order.push_back(0); });  // far ahead at insert
  sim.ScheduleAt(t - 1, [&] { order.push_back(1); });
  sim.ScheduleAt(t, [&] { order.push_back(2); });
  sim.ScheduleAt(t + 1, [&] { order.push_back(3); });
  // Drain into the tick itself, then add same-tick events while firing.
  sim.RunUntil(t - 1);
  sim.ScheduleAt(t, [&] { order.push_back(4); });  // one tick ahead
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 4, 3}));
}

// Regression for the seed's token-table leak (ISSUE 8): tokens cancelled
// after their event already fired — or left dangling when the queue drains
// — must not accumulate anywhere. The generation-stamped arena has no
// token table at all; this asserts the arena itself also stays bounded
// across a long churn (no unbounded growth in any scheduler structure).
TEST(SchedulerEquivalenceTest, CancelledTokensDoNotAccumulate) {
  Simulation sim;
  std::vector<uint64_t> fired_tokens;
  Simulation::SchedulerStats warm{};
  for (int round = 0; round < 20000; ++round) {
    uint64_t tok = sim.ScheduleCancelableAt(sim.Now() + 100, [] {});
    if (round % 2 == 0) {
      sim.Cancel(tok);
    } else {
      fired_tokens.push_back(tok);
    }
    sim.RunUntilIdle();
    // Cancel-after-drain: the seed leaked one live_tokens_ entry per loop
    // here (the wrapper already ran or was erased, the token never).
    sim.Cancel(tok);
    if (round == 100) {
      warm = sim.scheduler_stats();
    }
  }
  Simulation::SchedulerStats end = sim.scheduler_stats();
  EXPECT_EQ(end.pending, 0u);
  // Steady state reached by round 100 must not grow afterwards: same slab
  // count, same capacity, everything back on the freelist.
  EXPECT_EQ(end.arena_slabs, warm.arena_slabs);
  EXPECT_EQ(end.arena_capacity, warm.arena_capacity);
  EXPECT_EQ(end.arena_free, end.arena_capacity);
  // Stale tokens from long ago must stay dead even as slots recycle.
  for (uint64_t tok : fired_tokens) {
    sim.Cancel(tok);  // must be a no-op, not touch a recycled slot's event
  }
  sim.Schedule(5, [] {});
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Demonstrates the growth this design fixed. In the seed scheduler, Cancel
// only erases the token — the dead wrapper event stays queued until its
// timestamp, so a campaign cancelling far-future timers (heal-before-expiry)
// drags an ever-growing tail of dead events. The core reclaims the slot at
// Cancel time: pending count drops immediately and the arena stays bounded.
TEST(SchedulerEquivalenceTest, CancelReclaimsImmediatelyUnlikeReference) {
  ReferenceScheduler heap;
  Simulation core;
  for (int i = 0; i < 1000; ++i) {
    heap.Cancel(heap.ScheduleCancelableAt(Seconds(10), [] {}));
    core.Cancel(core.ScheduleCancelableAt(Seconds(10), [] {}));
  }
  EXPECT_EQ(heap.pending_events(), 1000u);  // dead wrappers linger for 10s
  EXPECT_EQ(core.pending_events(), 0u);     // reclaimed at Cancel time
  Simulation::SchedulerStats stats = core.scheduler_stats();
  EXPECT_EQ(stats.arena_free, stats.arena_capacity);
}

// Zero-allocation contract: steady-state Schedule→fire→recycle must not
// grow the arena once warm, and small captures must stay inline.
TEST(SchedulerEquivalenceTest, SteadyStateChurnAllocatesNoNewSlabs) {
  Simulation sim;
  struct Capture {
    uint64_t a, b, c;  // 24 bytes — over std::function's 16B SBO, inline here
  };
  Capture cap{1, 2, 3};
  long fired = 0;
  for (int i = 0; i < 64; ++i) {
    sim.Schedule(i, [cap, &fired] { fired += static_cast<long>(cap.a); });
  }
  sim.RunUntilIdle();
  Simulation::SchedulerStats warm = sim.scheduler_stats();
  for (int round = 0; round < 50000; ++round) {
    for (int i = 0; i < 64; ++i) {
      sim.Schedule(i % 7, [cap, &fired] { fired += static_cast<long>(cap.a); });
    }
    sim.RunUntilIdle();
  }
  Simulation::SchedulerStats end = sim.scheduler_stats();
  EXPECT_EQ(end.arena_slabs, warm.arena_slabs);
  EXPECT_EQ(end.arena_capacity, warm.arena_capacity);
  EXPECT_EQ(end.heap_callables, 0u);
  EXPECT_GT(fired, 0);
}

}  // namespace
}  // namespace splitft
