#include "src/chaos/fault_plan.h"

#include <algorithm>
#include <sstream>

namespace splitft {

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPeerCrash:
      return "peer-crash";
    case FaultKind::kPeerRestart:
      return "peer-restart";
    case FaultKind::kTransientPartition:
      return "transient-partition";
    case FaultKind::kLinkDelaySpike:
      return "link-delay-spike";
    case FaultKind::kCompletionDelay:
      return "completion-delay";
    case FaultKind::kControllerOutage:
      return "controller-outage";
    case FaultKind::kPeerUnreachable:
      return "peer-unreachable";
    case FaultKind::kPeerDrain:
      return "peer-drain";
    case FaultKind::kPeerActivate:
      return "peer-activate";
    case FaultKind::kLeaseHandover:
      return "lease-handover";
    case FaultKind::kDfsRestart:
      return "dfs-restart";
  }
  return "unknown";
}

void FaultPlan::SortByTime() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

FaultPlan FaultPlan::Random(uint64_t seed, const RandomPlanOptions& options) {
  Rng rng(seed);
  FaultPlan plan;
  for (int i = 0; i < options.num_events; ++i) {
    FaultEvent ev;
    ev.at = static_cast<SimTime>(
        rng.Uniform(static_cast<uint64_t>(options.horizon)));
    ev.peer = static_cast<int>(rng.Uniform(options.num_peers));
    ev.duration = static_cast<SimTime>(rng.UniformRange(
        static_cast<uint64_t>(options.min_duration),
        static_cast<uint64_t>(options.max_duration)));
    ev.magnitude = static_cast<SimTime>(
        rng.UniformRange(1, static_cast<uint64_t>(options.max_delay_spike)));
    // Weighted pick, by default biased toward the transient faults the
    // retry machinery has to absorb. A restart is paired with the crash
    // weight; restarting a never-crashed peer is a no-op at injection time.
    uint64_t cw = static_cast<uint64_t>(std::max(1, options.crash_weight));
    uint64_t pick = rng.Uniform(2 * cw + 8);
    if (pick < cw) {
      ev.kind = FaultKind::kPeerCrash;
    } else if (pick < 2 * cw) {
      ev.kind = FaultKind::kPeerRestart;
    } else if (pick < 2 * cw + 3) {
      ev.kind = FaultKind::kTransientPartition;
    } else if (pick < 2 * cw + 5) {
      ev.kind = FaultKind::kLinkDelaySpike;
    } else if (pick < 2 * cw + 6) {
      ev.kind = FaultKind::kCompletionDelay;
    } else if (pick < 2 * cw + 7) {
      ev.kind = FaultKind::kControllerOutage;
    } else {
      ev.kind = FaultKind::kPeerUnreachable;
    }
    plan.Add(ev);
  }
  plan.SortByTime();
  return plan;
}

FaultPlan FaultPlan::RandomReconfig(uint64_t seed,
                                    const ReconfigPlanOptions& options) {
  Rng rng(seed);
  FaultPlan plan;
  for (int i = 0; i < options.num_events; ++i) {
    FaultEvent ev;
    ev.at = static_cast<SimTime>(
        rng.Uniform(static_cast<uint64_t>(options.horizon)));
    ev.peer = static_cast<int>(rng.Uniform(options.num_peers));
    if (options.num_dfs_servers > 1) {
      ev.server = static_cast<int>(rng.Uniform(options.num_dfs_servers));
    }
    ev.duration = static_cast<SimTime>(rng.UniformRange(
        static_cast<uint64_t>(options.min_duration),
        static_cast<uint64_t>(options.max_duration)));
    // Weighted pick: drains dominate (they exercise the epoch-fenced
    // migration path), activates pair with them, handovers and dfs restarts
    // only when the cluster has the machinery for them. The draw is taken
    // unconditionally so disabling a kind does not shift later events.
    uint64_t pick = rng.Uniform(8);
    bool want_dfs = options.num_dfs_servers > 1 && ev.server >= 0;
    if (pick < 3) {
      ev.kind = FaultKind::kPeerDrain;
    } else if (pick < 5) {
      ev.kind = FaultKind::kPeerActivate;
    } else if (pick < 6 && options.lease_handover) {
      ev.kind = FaultKind::kLeaseHandover;
    } else if (want_dfs) {
      ev.kind = FaultKind::kDfsRestart;
    } else {
      ev.kind = FaultKind::kPeerActivate;
    }
    plan.Add(ev);
  }
  plan.SortByTime();
  return plan;
}

std::string FaultPlan::Describe() const {
  std::ostringstream out;
  for (const FaultEvent& ev : events_) {
    out << "  +" << (static_cast<double>(ev.at) / 1e6) << "ms "
        << FaultKindName(ev.kind);
    switch (ev.kind) {
      case FaultKind::kLeaseHandover:
        break;
      case FaultKind::kDfsRestart:
        out << " server=" << ev.server
            << " dur=" << (static_cast<double>(ev.duration) / 1e6) << "ms";
        break;
      case FaultKind::kPeerDrain:
      case FaultKind::kPeerActivate:
        out << " peer=" << ev.peer;
        break;
      default:
        if (ev.kind != FaultKind::kControllerOutage) {
          out << " peer=" << ev.peer;
        }
        if (ev.duration > 0) {
          out << " dur=" << (static_cast<double>(ev.duration) / 1e6) << "ms";
        }
        if (ev.kind == FaultKind::kLinkDelaySpike ||
            ev.kind == FaultKind::kCompletionDelay) {
          out << " extra=" << (static_cast<double>(ev.magnitude) / 1e3)
              << "us";
        }
        break;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace splitft
