#include "src/reconfig/reconfig_engine.h"

#include <algorithm>
#include <sstream>

#include "src/common/logging.h"

namespace splitft {

ReconfigEngine::ReconfigEngine(ReconfigTargets targets, ObsContext obs)
    : t_(std::move(targets)),
      obs_(obs),
      c_started_(obs.counter("reconfig.ops.started")),
      c_completed_(obs.counter("reconfig.ops.completed")),
      c_skipped_(obs.counter("reconfig.ops.skipped")),
      c_failed_(obs.counter("reconfig.ops.failed")) {}

void ReconfigEngine::Schedule(const ReconfigPlan& plan) {
  SimTime base = t_.sim->Now();
  for (const ReconfigEvent& ev : plan.events()) {
    tokens_.push_back(t_.sim->ScheduleCancelableAt(
        base + ev.at, [this, ev] { Execute(ev); }));
  }
}

void ReconfigEngine::Note(const ReconfigEvent& event,
                          const std::string& detail) {
  std::ostringstream out;
  out << "t=" << (static_cast<double>(t_.sim->Now()) / 1e6) << "ms "
      << ReconfigKindName(event.kind);
  if (!detail.empty()) {
    out << " " << detail;
  }
  log_.push_back(out.str());
  LOG_DEBUG << "reconfig: " << log_.back();
}

NclClient* ReconfigEngine::Ncl() const {
  if (t_.ncl != nullptr) {
    return t_.ncl;
  }
  return t_.fs != nullptr ? t_.fs->ncl() : nullptr;
}

bool ReconfigEngine::SafeToDrain(const LogPeer* target) const {
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

void ReconfigEngine::Execute(const ReconfigEvent& event) {
  LogPeer* peer = nullptr;
  if (event.kind == ReconfigKind::kPeerDrain ||
      event.kind == ReconfigKind::kPeerActivate) {
    if (event.peer < 0 || event.peer >= static_cast<int>(t_.peers.size())) {
      return;
    }
    peer = t_.peers[event.peer];
  }
  switch (event.kind) {
    case ReconfigKind::kPeerDrain:
      ExecuteDrain(event, peer);
      break;
    case ReconfigKind::kPeerActivate:
      ExecuteActivate(event, peer);
      break;
    case ReconfigKind::kLeaseHandover:
      ExecuteHandover(event);
      break;
    case ReconfigKind::kDfsRestart:
      ExecuteDfsRestart(event);
      break;
  }
}

void ReconfigEngine::ExecuteDrain(const ReconfigEvent& event, LogPeer* peer) {
  if (!peer->alive() || peer->draining()) {
    ops_skipped_++;
    ObsAdd(c_skipped_);
    Note(event, peer->name() + " (skipped: not an active peer)");
    return;
  }
  if (drain_in_progress_) {
    // The migration below pumps the simulation, so a later scheduled drain
    // can fire while this one is mid-copy. One planned membership change
    // at a time: a nested migration would supersede this one's.
    ops_skipped_++;
    ObsAdd(c_skipped_);
    Note(event, peer->name() + " (skipped: another drain in flight)");
    return;
  }
  if (!SafeToDrain(peer)) {
    ops_skipped_++;
    ObsAdd(c_skipped_);
    Note(event, peer->name() + " (skipped: too few active peers)");
    return;
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
    ops_failed_++;
    ObsAdd(c_failed_);
    Note(event, peer->name() + " (failed: " + std::string(st.message()) + ")");
    return;
  }
  ops_completed_++;
  ObsAdd(c_completed_);
  Note(event, peer->name());
}

void ReconfigEngine::ExecuteActivate(const ReconfigEvent& event,
                                     LogPeer* peer) {
  if (!peer->alive() || !peer->draining()) {
    ops_skipped_++;
    ObsAdd(c_skipped_);
    Note(event, peer->name() + " (skipped: not draining)");
    return;
  }
  ops_started_++;
  ObsAdd(c_started_);
  ObsSpan span(obs_.tracer, "reconfig.activate");
  Status st = peer->EndDrain();
  if (!st.ok()) {
    ops_failed_++;
    ObsAdd(c_failed_);
    Note(event, peer->name() + " (failed: " + std::string(st.message()) + ")");
    return;
  }
  ops_completed_++;
  ObsAdd(c_completed_);
  Note(event, peer->name());
}

void ReconfigEngine::ExecuteHandover(const ReconfigEvent& event) {
  if (t_.fs == nullptr) {
    ops_skipped_++;
    ObsAdd(c_skipped_);
    Note(event, "(skipped: no application server)");
    return;
  }
  ops_started_++;
  ObsAdd(c_started_);
  ObsSpan span(obs_.tracer, "reconfig.handover");
  Status st = t_.fs->HandOverLease();
  if (st.code() == StatusCode::kFailedPrecondition) {
    // No lease held (the server crashed, or Start lost the race) — with
    // chaos in the mix that is an expected state, not a failure.
    ops_started_--;
    ops_skipped_++;
    ObsAdd(c_skipped_);
    Note(event, "(skipped: no lease held)");
    return;
  }
  if (!st.ok()) {
    ops_failed_++;
    ObsAdd(c_failed_);
    Note(event, "(failed: " + std::string(st.message()) + ")");
    return;
  }
  ops_completed_++;
  ObsAdd(c_completed_);
  Note(event, "");
}

void ReconfigEngine::ExecuteDfsRestart(const ReconfigEvent& event) {
  if (t_.dfs == nullptr || t_.dfs->num_servers() <= 1 || event.server < 0) {
    ops_skipped_++;
    ObsAdd(c_skipped_);
    Note(event, "(skipped: no striped dfs)");
    return;
  }
  int server = event.server % t_.dfs->num_servers();
  if (t_.dfs->offline_server() >= 0) {
    ops_skipped_++;
    ObsAdd(c_skipped_);
    Note(event, "server=" + std::to_string(server) +
                    " (skipped: another server offline)");
    return;
  }
  Status st = t_.dfs->TakeServerOffline(server);
  if (!st.ok()) {
    ops_failed_++;
    ObsAdd(c_failed_);
    Note(event, "server=" + std::to_string(server) +
                    " (failed: " + std::string(st.message()) + ")");
    return;
  }
  ops_started_++;
  ObsAdd(c_started_);
  Note(event, "server=" + std::to_string(server) + " offline");
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

void ReconfigEngine::FinishDfsRestart(const ReconfigEvent& event, int server) {
  if (t_.dfs->offline_server() != server) {
    return;  // Quiesce already brought it back
  }
  Status st = t_.dfs->BringServerOnline(server);
  if (!st.ok()) {
    ops_failed_++;
    ObsAdd(c_failed_);
    Note(event, "server=" + std::to_string(server) +
                    " (failed: " + std::string(st.message()) + ")");
    return;
  }
  ops_completed_++;
  ObsAdd(c_completed_);
  Note(event, "server=" + std::to_string(server) + " online");
}

void ReconfigEngine::Quiesce() {
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
}

}  // namespace splitft
