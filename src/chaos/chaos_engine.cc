#include "src/chaos/chaos_engine.h"

#include <algorithm>
#include <sstream>

#include "src/common/logging.h"

namespace splitft {

ChaosEngine::ChaosEngine(ChaosTargets targets, ObsContext obs)
    : t_(std::move(targets)),
      obs_(obs),
      c_started_(obs.counter("reconfig.ops.started")),
      c_completed_(obs.counter("reconfig.ops.completed")),
      c_skipped_(obs.counter("reconfig.ops.skipped")),
      c_failed_(obs.counter("reconfig.ops.failed")) {}

void ChaosEngine::Schedule(const FaultPlan& plan) {
  SimTime base = t_.sim->Now();
  for (const FaultEvent& ev : plan.events()) {
    tokens_.push_back(t_.sim->ScheduleCancelableAt(
        base + ev.at, [this, ev] { Inject(ev); }));
  }
}

void ChaosEngine::Note(const FaultEvent& event, const std::string& detail) {
  std::ostringstream out;
  out << "t=" << (static_cast<double>(t_.sim->Now()) / 1e6) << "ms "
      << FaultKindName(event.kind);
  if (!detail.empty()) {
    out << " " << detail;
  }
  log_.push_back(out.str());
  LOG_DEBUG << "chaos: " << log_.back();
}

void ChaosEngine::Skipped(const FaultEvent& event, const std::string& detail) {
  ops_skipped_++;
  ObsAdd(c_skipped_);
  Note(event, detail);
}

void ChaosEngine::Failed(const FaultEvent& event, const std::string& detail,
                         const Status& st) {
  ops_failed_++;
  ObsAdd(c_failed_);
  Note(event, detail + (detail.empty() ? "" : " ") + "(failed: " +
                  std::string(st.message()) + ")");
}

void ChaosEngine::Completed(const FaultEvent& event,
                            const std::string& detail) {
  ops_completed_++;
  ObsAdd(c_completed_);
  Note(event, detail);
}

void ChaosEngine::Inject(const FaultEvent& event) {
  LogPeer* peer = nullptr;
  if (event.kind != FaultKind::kControllerOutage &&
      event.kind != FaultKind::kLeaseHandover &&
      event.kind != FaultKind::kDfsRestart) {
    if (event.peer < 0 || event.peer >= static_cast<int>(t_.peers.size())) {
      return;
    }
    peer = t_.peers[event.peer];
  }
  switch (event.kind) {
    case FaultKind::kPeerCrash:
      if (!peer->alive()) {
        return;  // already down
      }
      peer->Crash();
      faulted_peers_.insert(peer->name());
      Note(event, peer->name());
      break;
    case FaultKind::kPeerRestart: {
      if (peer->alive()) {
        return;  // nothing to restart
      }
      Status st = peer->Restart();
      Note(event, peer->name() + (st.ok() ? "" : " (failed: " +
                                                     std::string(st.message()) +
                                                     ")"));
      break;
    }
    case FaultKind::kTransientPartition:
      if (t_.fabric->IsPartitioned(t_.app_node, peer->node())) {
        return;  // don't stack heals on the same link
      }
      tokens_.push_back(t_.fabric->PartitionFor(t_.app_node, peer->node(),
                                                event.duration));
      faulted_peers_.insert(peer->name());
      Note(event, peer->name());
      break;
    case FaultKind::kLinkDelaySpike: {
      NodeId a = t_.app_node;
      NodeId b = peer->node();
      if (t_.fabric->LinkDelay(a, b) > 0) {
        return;
      }
      t_.fabric->SetLinkDelay(a, b, event.magnitude);
      tokens_.push_back(t_.sim->ScheduleCancelableAt(
          t_.sim->Now() + event.duration,
          [this, a, b] { t_.fabric->SetLinkDelay(a, b, 0); }));
      Note(event, peer->name());
      break;
    }
    case FaultKind::kCompletionDelay: {
      NodeId a = t_.app_node;
      NodeId b = peer->node();
      if (t_.fabric->CompletionDelay(a, b) > 0) {
        return;
      }
      t_.fabric->SetCompletionDelay(a, b, event.magnitude);
      tokens_.push_back(t_.sim->ScheduleCancelableAt(
          t_.sim->Now() + event.duration,
          [this, a, b] { t_.fabric->SetCompletionDelay(a, b, 0); }));
      Note(event, peer->name());
      break;
    }
    case FaultKind::kControllerOutage:
      if (t_.controller->unavailable()) {
        return;  // don't shorten an in-progress outage with an early heal
      }
      tokens_.push_back(t_.controller->OutageFor(event.duration));
      Note(event, "");
      break;
    case FaultKind::kPeerUnreachable: {
      if (t_.directory->IsUnreachable(peer->name())) {
        return;
      }
      std::string name = peer->name();
      t_.directory->SetUnreachable(name, true);
      tokens_.push_back(t_.sim->ScheduleCancelableAt(
          t_.sim->Now() + event.duration,
          [this, name] { t_.directory->SetUnreachable(name, false); }));
      faulted_peers_.insert(name);
      Note(event, name);
      break;
    }
    // Planned operations keep their own accounting (ops_*), not
    // faults_injected.
    case FaultKind::kPeerDrain:
      Drain(event, peer);
      return;
    case FaultKind::kPeerActivate:
      Activate(event, peer);
      return;
    case FaultKind::kLeaseHandover:
      HandOver(event);
      return;
    case FaultKind::kDfsRestart:
      StartDfsRestart(event);
      return;
  }
  faults_injected_++;
}

NclClient* ChaosEngine::Ncl() const {
  if (t_.ncl != nullptr) {
    return t_.ncl;
  }
  return t_.fs != nullptr ? t_.fs->ncl() : nullptr;
}

bool ChaosEngine::SafeToDrain(const LogPeer* target) const {
  // After the drain, a file still needs its full width (2f+1 replicas, or
  // k+m shards) among non-draining peers, and the migration needs one
  // destination outside the file's current membership — so at least
  // `width` active peers must remain once the target stops counting.
  const int width = Ncl() != nullptr ? Ncl()->config().geometry().n() : 3;
  int active = 0;
  for (const LogPeer* p : t_.peers) {
    if (p != target && p->alive() && !p->draining()) {
      active++;
    }
  }
  return active >= width;
}

void ChaosEngine::Drain(const FaultEvent& event, LogPeer* peer) {
  if (!peer->alive() || peer->draining()) {
    return Skipped(event, peer->name() + " (skipped: not an active peer)");
  }
  if (drain_in_progress_) {
    // The migration below pumps the simulation, so a later scheduled drain
    // can fire while this one is mid-copy. One planned membership change
    // at a time: a nested migration would supersede this one's.
    return Skipped(event,
                   peer->name() + " (skipped: another drain in flight)");
  }
  if (!SafeToDrain(peer)) {
    return Skipped(event, peer->name() + " (skipped: too few active peers)");
  }
  ops_started_++;
  ObsAdd(c_started_);
  drain_in_progress_ = true;
  struct DrainGuard {
    bool* flag;
    ~DrainGuard() { *flag = false; }
  } guard{&drain_in_progress_};
  ObsSpan span(obs_.tracer, "reconfig.drain");
  Status st = peer->StartDrain();
  if (st.ok() && Ncl() != nullptr) {
    st = Ncl()->MigrateOffPeer(peer->name());
  }
  // Pooled co-tenants drain too: the peer is only empty once every
  // resident client has migrated its regions elsewhere.
  for (NclClient* extra : t_.extra_ncl) {
    if (!st.ok()) {
      break;
    }
    if (extra != nullptr && extra != Ncl()) {
      st = extra->MigrateOffPeer(peer->name());
    }
  }
  if (!st.ok()) {
    return Failed(event, peer->name(), st);
  }
  Completed(event, peer->name());
}

void ChaosEngine::Activate(const FaultEvent& event, LogPeer* peer) {
  if (!peer->alive() || !peer->draining()) {
    return Skipped(event, peer->name() + " (skipped: not draining)");
  }
  ops_started_++;
  ObsAdd(c_started_);
  ObsSpan span(obs_.tracer, "reconfig.activate");
  Status st = peer->EndDrain();
  if (!st.ok()) {
    return Failed(event, peer->name(), st);
  }
  Completed(event, peer->name());
}

void ChaosEngine::HandOver(const FaultEvent& event) {
  if (t_.fs == nullptr) {
    return Skipped(event, "(skipped: no application server)");
  }
  ops_started_++;
  ObsAdd(c_started_);
  ObsSpan span(obs_.tracer, "reconfig.handover");
  Status st = t_.fs->HandOverLease();
  if (st.code() == StatusCode::kFailedPrecondition) {
    // No lease held (the server crashed, or Start lost the race) — with
    // chaos in the mix that is an expected state, not a failure.
    ops_started_--;
    return Skipped(event, "(skipped: no lease held)");
  }
  if (!st.ok()) {
    return Failed(event, "", st);
  }
  Completed(event, "");
}

void ChaosEngine::StartDfsRestart(const FaultEvent& event) {
  if (t_.dfs == nullptr || t_.dfs->num_servers() <= 1 || event.server < 0) {
    return Skipped(event, "(skipped: no striped dfs)");
  }
  int server = event.server % t_.dfs->num_servers();
  const std::string name = "server=" + std::to_string(server);
  if (t_.dfs->offline_server() >= 0) {
    return Skipped(event, name + " (skipped: another server offline)");
  }
  Status st = t_.dfs->TakeServerOffline(server);
  if (!st.ok()) {
    return Failed(event, name, st);
  }
  ops_started_++;
  ObsAdd(c_started_);
  Note(event, name + " offline");
  SimTime window = std::max<SimTime>(event.duration, Micros(1));
  SimTime offline_since = t_.sim->Now();
  tokens_.push_back(t_.sim->ScheduleCancelableAt(
      t_.sim->Now() + window, [this, event, server, offline_since] {
        if (obs_.tracer != nullptr) {
          obs_.tracer->AddAsyncSpan("reconfig.dfs_restart", offline_since,
                                    t_.sim->Now());
        }
        FinishDfsRestart(event, server);
      }));
}

void ChaosEngine::FinishDfsRestart(const FaultEvent& event, int server) {
  if (t_.dfs->offline_server() != server) {
    return;  // Quiesce already brought it back
  }
  const std::string name = "server=" + std::to_string(server);
  Status st = t_.dfs->BringServerOnline(server);
  if (!st.ok()) {
    return Failed(event, name, st);
  }
  Completed(event, name + " online");
}

void ChaosEngine::Quiesce() {
  for (uint64_t token : tokens_) {
    t_.sim->Cancel(token);
  }
  tokens_.clear();
  if (t_.dfs != nullptr && t_.dfs->offline_server() >= 0) {
    int server = t_.dfs->offline_server();
    Status st = t_.dfs->BringServerOnline(server);
    if (!st.ok()) {
      log_.push_back("quiesce: bring-online server=" + std::to_string(server) +
                     " failed: " + std::string(st.message()));
    }
  }
  for (LogPeer* peer : t_.peers) {
    if (peer->alive() && peer->draining()) {
      Status st = peer->EndDrain();
      if (!st.ok()) {
        log_.push_back("quiesce: end-drain " + peer->name() +
                       " failed: " + std::string(st.message()));
      }
    }
  }
  t_.fabric->ClearLinkFaults();
  t_.controller->SetUnavailable(false);
  t_.directory->ClearUnreachable();
}

}  // namespace splitft
