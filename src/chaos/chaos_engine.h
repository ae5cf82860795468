// ChaosEngine: runs FaultPlan events against a live simulated cluster. It
// owns the mapping from abstract event kinds to concrete mutations of the
// fabric / controller / directory / peers / dfs / application server,
// schedules the heals for transient faults and the second halves of
// planned operations, and keeps an event log plus fault bookkeeping the
// campaign invariants consult (e.g. which peers were ever faulted).
#ifndef SRC_CHAOS_CHAOS_ENGINE_H_
#define SRC_CHAOS_CHAOS_ENGINE_H_

#include <set>
#include <string>
#include <vector>

#include "src/chaos/fault_plan.h"
#include "src/common/annotations.h"
#include "src/controller/controller.h"
#include "src/dfs/dfs.h"
#include "src/ncl/ncl_client.h"
#include "src/ncl/peer.h"
#include "src/ncl/peer_directory.h"
#include "src/obs/obs.h"
#include "src/rdma/fabric.h"
#include "src/sim/simulation.h"
#include "src/splitft/split_fs.h"

namespace splitft {

// Everything the engine needs a handle on. The harness Testbed
// (Testbed::chaos_targets) or a hand-built cluster fills this in. The
// engine owns nothing.
struct ChaosTargets {
  Simulation* sim = nullptr;
  Fabric* fabric = nullptr;
  Controller* controller = nullptr;
  PeerDirectory* directory = nullptr;
  std::vector<LogPeer*> peers;
  // The application server's fabric node; link faults cut/degrade the
  // app<->peer links (the replication path).
  NodeId app_node = kInvalidNode;
  // Planned operations. `dfs` may be null (or single-pipe): dfs restarts
  // are then skipped. `fs` is the application server whose regions drains
  // migrate and whose lease is handed over; without it handovers are
  // skipped. `ncl` lets raw-client setups (the chaos campaign) run drains
  // without a SplitFs; it defaults to fs->ncl().
  DfsCluster* dfs = nullptr;
  SplitFs* fs = nullptr;
  NclClient* ncl = nullptr;
  // Additional co-tenant clients on the same node (pooled multi-tenant
  // fabric, DESIGN.md §14): a drain must migrate every tenant's regions
  // off the target peer, not just the primary client's.
  std::vector<NclClient*> extra_ncl;
};

class ChaosEngine {
 public:
  // `obs` records "reconfig.ops.*" counters and "reconfig.*" spans for the
  // planned operations.
  explicit ChaosEngine(ChaosTargets targets, ObsContext obs = {});

  // Schedules every event of `plan` relative to now. Heals for transient
  // faults and the bring-online halves of dfs restarts are scheduled
  // automatically.
  void Schedule(const FaultPlan& plan);

  // Runs one event immediately (tests drive exact interleavings). Events
  // that do not apply — a dead or already-draining peer, no lease to hand
  // over, a second concurrent drain, a dfs restart while another server is
  // down, a second fault on the same link — are skipped, never errors:
  // random plans race cluster state by design.
  void Inject(const FaultEvent& event);

  // Retires everything outstanding, in two steps. Planned operations
  // first: cancel every pending scheduled event, bring an offline dfs
  // server back online (replaying its backlog) and re-activate every
  // draining peer. Then transient faults: heal partitions, clear delay
  // spikes and completion delays, end the controller outage and make
  // setup processes reachable. Crashed peers stay crashed (their memory
  // is gone either way). Campaigns call it before final recovery so
  // invariants run against a whole cluster.
  void Quiesce();

  int faults_injected() const { return faults_injected_; }
  int ops_started() const { return ops_started_; }
  int ops_completed() const { return ops_completed_; }
  int ops_skipped() const { return ops_skipped_; }
  int ops_failed() const { return ops_failed_; }
  const std::vector<std::string>& log() const SPLITFT_LIFETIMEBOUND {
    return log_;
  }
  // Peers that were the target of any fault so far (campaign invariants
  // use this to decide whether an unavailability was justified).
  const std::set<std::string>& faulted_peers() const { return faulted_peers_; }

 private:
  void Note(const FaultEvent& event, const std::string& detail);
  // Planned-operation outcomes: count, then log with `detail`.
  void Skipped(const FaultEvent& event, const std::string& detail);
  void Failed(const FaultEvent& event, const std::string& detail,
              const Status& st);
  void Completed(const FaultEvent& event, const std::string& detail);
  // The client whose regions drains migrate (explicit ncl, else fs->ncl()).
  NclClient* Ncl() const;
  // True when enough alive, non-draining peers remain (excluding `target`)
  // to keep full-width replication plus one migration destination.
  bool SafeToDrain(const LogPeer* target) const;

  void Drain(const FaultEvent& event, LogPeer* peer);
  void Activate(const FaultEvent& event, LogPeer* peer);
  void HandOver(const FaultEvent& event);
  void StartDfsRestart(const FaultEvent& event);
  void FinishDfsRestart(const FaultEvent& event, int server);

  ChaosTargets t_;
  int faults_injected_ = 0;
  int ops_started_ = 0;
  int ops_completed_ = 0;
  int ops_skipped_ = 0;
  int ops_failed_ = 0;
  // A drain's migration pumps the simulation (catch-up rounds), so another
  // scheduled drain can fire re-entrantly mid-copy; it is skipped rather
  // than left to supersede the running migration.
  bool drain_in_progress_ = false;
  std::vector<std::string> log_;
  std::set<std::string> faulted_peers_;
  std::vector<uint64_t> tokens_;

  ObsContext obs_;
  Counter* c_started_;
  Counter* c_completed_;
  Counter* c_skipped_;
  Counter* c_failed_;
};

}  // namespace splitft

#endif  // SRC_CHAOS_CHAOS_ENGINE_H_
