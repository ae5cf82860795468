// FaultPlan: a schedule of cluster events to run against the simulated
// cluster: injected faults and planned operations on one timeline. Plans
// are either authored deterministically (tests pin exact timings) or
// generated from a seed (campaigns sweep hundreds of random schedules).
// Times are relative to the moment the plan is scheduled, so the same plan
// can run against clusters built at different virtual times.
#ifndef SRC_CHAOS_FAULT_PLAN_H_
#define SRC_CHAOS_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/rng.h"
#include "src/sim/simulation.h"

namespace splitft {

// The failure model, beyond the seed repo's two kinds (crash, permanent
// partition): transient faults that heal, delay faults that slow without
// breaking, and control-plane faults. Then the planned operations
// (DESIGN.md §13): peers drain and re-join, the single-instance lease
// moves cooperatively, and striped dfs servers restart one at a time.
enum class FaultKind {
  kPeerCrash,          // volatile memory lost; rkeys invalidated
  kPeerRestart,        // crashed peer rejoins with empty memory
  kTransientPartition, // app<->peer link cut, heals after `duration`
  kLinkDelaySpike,     // +`magnitude` ns latency on the link for `duration`
  kCompletionDelay,    // CQ entries surface `magnitude` ns late for `duration`
  kControllerOutage,   // controller RPCs fail kTimedOut for `duration`
  kPeerUnreachable,    // setup-process lookups fail for `duration`
  kPeerDrain,      // mark DRAINING, migrate live regions off (epoch-fenced)
  kPeerActivate,   // end an earlier drain; peer accepts allocations again
  kLeaseHandover,  // cooperative single-instance lease transfer (§4.7)
  kDfsRestart,     // one striped dfs server offline for `duration`
};

std::string_view FaultKindName(FaultKind kind);

struct FaultEvent {
  SimTime at = 0;        // injection time, relative to scheduling
  FaultKind kind = FaultKind::kPeerCrash;
  int peer = -1;         // target peer index (ignored for controller outage)
  SimTime duration = 0;  // heal/outage/dfs offline window (where applicable)
  SimTime magnitude = 0; // extra latency for delay faults
  int server = -1;       // target dfs object-server index (dfs restart)
};

struct RandomPlanOptions {
  int num_events = 6;
  int num_peers = 5;
  // Events are injected uniformly over [0, horizon).
  SimTime horizon = Millis(200);
  SimTime min_duration = Micros(100);
  SimTime max_duration = Millis(10);
  SimTime max_delay_spike = Micros(500);
  // Relative weight of crash (and restart) events against the transient
  // kinds. Campaigns raise it for a fraction of runs so quorum loss,
  // replacement exhaustion, and unavailable recoveries get exercised too.
  int crash_weight = 1;
};

// Shape of a seeded schedule of planned operations.
struct ReconfigPlanOptions {
  int num_events = 4;
  int num_peers = 5;
  // Striped dfs width for random restarts; 0 leaves dfs restarts out of
  // random plans (single-pipe clusters have no server to spare).
  int num_dfs_servers = 0;
  // Include cooperative lease handovers in random plans.
  bool lease_handover = true;
  // Events start uniformly over [0, horizon).
  SimTime horizon = Millis(200);
  // Dfs offline window bounds.
  SimTime min_duration = Micros(500);
  SimTime max_duration = Millis(10);
};

class FaultPlan {
 public:
  FaultPlan& Add(FaultEvent event) {
    events_.push_back(event);
    return *this;
  }

  // Seeded random schedules, of faults and of planned operations; the same
  // (seed, options) pair always yields the same plan, which is what makes
  // campaign failures reproducible.
  static FaultPlan Random(uint64_t seed, const RandomPlanOptions& options);
  static FaultPlan RandomReconfig(uint64_t seed,
                                  const ReconfigPlanOptions& options);

  const std::vector<FaultEvent>& events() const SPLITFT_LIFETIMEBOUND {
    return events_;
  }
  bool empty() const { return events_.empty(); }

  // Human-readable schedule, printed when an invariant fails.
  std::string Describe() const;

 private:
  void SortByTime();

  std::vector<FaultEvent> events_;
};

}  // namespace splitft

#endif  // SRC_CHAOS_FAULT_PLAN_H_
