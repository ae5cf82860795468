// ReconfigEngine: executes ReconfigPlan events against a live simulated
// cluster — the planned-operations counterpart of chaos::ChaosEngine, and
// deliberately the same shape (Schedule with cancelable tokens, immediate
// Execute for tests, an event log, Quiesce as the planned analogue of
// HealAll) so campaigns can drive both engines off one virtual-time line
// and compose planned reconfiguration with injected faults.
#ifndef SRC_RECONFIG_RECONFIG_ENGINE_H_
#define SRC_RECONFIG_RECONFIG_ENGINE_H_

#include <string>
#include <vector>

#include "src/common/annotations.h"
#include "src/controller/controller.h"
#include "src/dfs/dfs.h"
#include "src/ncl/peer.h"
#include "src/obs/obs.h"
#include "src/reconfig/reconfig_plan.h"
#include "src/sim/simulation.h"
#include "src/splitft/split_fs.h"

namespace splitft {

// Handles the engine drives. `fs` is the application server whose regions
// are migrated and whose lease is handed over; `dfs` may be null (or
// single-pipe) to disable dfs restarts; `ncl` lets raw-client setups (the
// chaos campaign) run drains without a SplitFs — lease handovers are then
// skipped. The engine does not own anything.
struct ReconfigTargets {
  Simulation* sim = nullptr;
  Controller* controller = nullptr;
  std::vector<LogPeer*> peers;
  DfsCluster* dfs = nullptr;
  SplitFs* fs = nullptr;
  NclClient* ncl = nullptr;  // defaults to fs->ncl() when fs is set
  // Additional co-tenant clients on the same node (pooled multi-tenant
  // fabric, DESIGN.md §14): a drain must migrate every tenant's regions
  // off the target peer, not just the primary client's.
  std::vector<NclClient*> extra_ncl;
};

class ReconfigEngine {
 public:
  // `obs` records "reconfig.ops.*" counters and "reconfig.*" spans.
  explicit ReconfigEngine(ReconfigTargets targets, ObsContext obs = {});

  // Schedules every event of `plan` relative to now. The dfs bring-online
  // halves of restarts are scheduled automatically.
  void Schedule(const ReconfigPlan& plan);

  // Executes one event immediately (tests drive exact interleavings).
  // Inapplicable events — dead/already-draining peers, no lease to hand
  // over, a second concurrent drain, a dfs restart while another server is
  // down — are skipped with a log entry, never errors: random plans compose
  // with random fault plans, so events racing cluster state are expected.
  void Execute(const ReconfigEvent& event);

  // Retires every outstanding planned operation: cancels pending scheduled
  // events, brings an offline dfs server back online (replaying its
  // backlog), and re-activates every draining peer. The planned analogue
  // of ChaosEngine::HealAll — campaigns call it before final recovery so
  // invariants run against a whole cluster.
  void Quiesce();

  int ops_started() const { return ops_started_; }
  int ops_completed() const { return ops_completed_; }
  int ops_skipped() const { return ops_skipped_; }
  int ops_failed() const { return ops_failed_; }
  const std::vector<std::string>& log() const SPLITFT_LIFETIMEBOUND {
    return log_;
  }

 private:
  void Note(const ReconfigEvent& event, const std::string& detail);
  // The client whose regions drains migrate (explicit ncl, else fs->ncl()).
  NclClient* Ncl() const;
  // True when enough alive, non-draining peers remain (excluding `target`)
  // to keep full-width replication plus one migration destination.
  bool SafeToDrain(const LogPeer* target) const;

  void ExecuteDrain(const ReconfigEvent& event, LogPeer* peer);
  void ExecuteActivate(const ReconfigEvent& event, LogPeer* peer);
  void ExecuteHandover(const ReconfigEvent& event);
  void ExecuteDfsRestart(const ReconfigEvent& event);
  void FinishDfsRestart(const ReconfigEvent& event, int server);

  ReconfigTargets t_;
  int ops_started_ = 0;
  int ops_completed_ = 0;
  int ops_skipped_ = 0;
  int ops_failed_ = 0;
  // A drain's migration pumps the simulation (catch-up rounds), so another
  // scheduled drain can fire re-entrantly mid-copy; it is skipped rather
  // than left to supersede the running migration.
  bool drain_in_progress_ = false;
  std::vector<std::string> log_;
  std::vector<uint64_t> tokens_;

  ObsContext obs_;
  Counter* c_started_;
  Counter* c_completed_;
  Counter* c_skipped_;
  Counter* c_failed_;
};

}  // namespace splitft

#endif  // SRC_RECONFIG_RECONFIG_ENGINE_H_
