#include "src/ncl/connection_pool.h"

#include <utility>

namespace splitft {

NclConnectionPool::NclConnectionPool(Fabric* fabric, NodeId local,
                                     NclPoolOptions options, ObsContext obs)
    : fabric_(fabric),
      local_(local),
      options_(options),
      obs_(obs),
      c_cold_connects_(obs.counter("ncl.pool.cold_connects")),
      c_warm_connects_(obs.counter("ncl.pool.warm_connects")),
      c_lane_repairs_(obs.counter("ncl.pool.lane_repairs")),
      c_flush_rewrites_(obs.counter("ncl.pool.flush_rewrites")),
      g_qps_open_(obs.gauge("ncl.pool.qps_open")),
      g_clients_(obs.gauge("ncl.pool.clients")) {
  if (options_.qps_per_peer < 1) {
    options_.qps_per_peer = 1;
  }
}

NclConnectionPool::~NclConnectionPool() = default;

void NclConnectionPool::RegisterClient() {
  clients_++;
  ObsSet(g_clients_, clients_);
}

void NclConnectionPool::UnregisterClient() {
  if (clients_ > 0) {
    clients_--;
  }
  ObsSet(g_clients_, clients_);
}

int NclConnectionPool::per_client_window() const {
  int clients = clients_ < 1 ? 1 : clients_;
  int window = kSharedInflightBudget / clients;
  return window < 1 ? 1 : window;
}

size_t NclConnectionPool::open_qps() const {
  size_t open = 0;
  for (const auto& [node, remote] : remotes_) {
    for (const auto& lane : remote.lanes) {
      if (lane->live.qp != nullptr) {
        open++;
      }
      open += lane->retired.size();
    }
  }
  return open;
}

void NclConnectionPool::OpenLiveQp(Lane* lane, bool warm) {
  lane->live.qp =
      std::make_unique<QueuePair>(fabric_, local_, lane->remote, warm);
  lane->live.qp->SetCompletionFlag(&lane->pushed);
}

std::unique_ptr<PooledQp> NclConnectionPool::Connect(NodeId remote_id) {
  Remote& remote = remotes_[remote_id];
  int lane_idx = remote.next_lane % options_.qps_per_peer;
  remote.next_lane = (remote.next_lane + 1) % options_.qps_per_peer;
  while (static_cast<int>(remote.lanes.size()) <= lane_idx) {
    remote.lanes.push_back(std::make_unique<Lane>(remote_id));
  }
  Lane& lane = *remote.lanes[lane_idx];

  if (lane.live.qp == nullptr) {
    // First QP on this lane. The first connection to the remote pays the
    // cold handshake; further lanes multiplex it.
    bool warm = remote.ever_connected;
    OpenLiveQp(&lane, warm);
    remote.ever_connected = true;
    ObsAdd(warm ? c_warm_connects_ : c_cold_connects_);
  } else if (lane.live.qp->in_error_state()) {
    // Repair: retire the errored QP (its undrained completions are still
    // owed to their owners) and put a fresh warm QP in its place.
    DrainLaneQp(&lane.live);
    if (!lane.live.route.empty()) {
      lane.retired.push_back(std::move(lane.live));
    }
    lane.live = LaneQp{};
    OpenLiveQp(&lane, /*warm=*/true);
    ObsAdd(c_lane_repairs_);
    ObsAdd(c_warm_connects_);
  } else {
    ObsAdd(c_warm_connects_);
  }

  UpdateGauges();
  return std::unique_ptr<PooledQp>(new PooledQp(this, &lane, next_owner_++));
}

void NclConnectionPool::DrainLaneQp(LaneQp* lq) {
  if (lq->qp == nullptr) {
    return;
  }
  Completion c;
  while (lq->qp->PollCq(&c)) {
    completions_routed_++;
    PooledQp* owner = lq->route.Take(c.wr_id);
    // Error accounting: the first real (non-flush) error belongs to the
    // tenant that hit it; collateral flushes of *other* tenants queued
    // behind it are rewritten to the transient classification so they
    // resurrect the shared peer instead of demoting it (DESIGN.md §14).
    // Recorded even when the hit tenant's handle is already gone (id 0
    // never matches a live handle, so every survivor gets the rewrite).
    if (c.status != WcStatus::kSuccess && c.status != WcStatus::kFlushError &&
        !lq->has_real_error) {
      lq->has_real_error = true;
      lq->error_owner = owner == nullptr ? 0 : owner->id_;
    }
    if (owner == nullptr) {
      continue;  // owner handle was destroyed; completion dies here
    }
    if (c.status == WcStatus::kFlushError && lq->has_real_error &&
        owner->id_ != lq->error_owner) {
      c.status = WcStatus::kRetryExceeded;
      flush_rewrites_++;
      ObsAdd(c_flush_rewrites_);
    }
    owner->ready_.push_back(std::move(c));
  }
}

void NclConnectionPool::DrainLane(Lane* lane) {
  lane->pushed = false;
  lane_drains_++;
  // Retired QPs first: their WRs were posted before anything on the live
  // QP, so their completions surface to owners in post order.
  for (LaneQp& lq : lane->retired) {
    DrainLaneQp(&lq);
  }
  DrainLaneQp(&lane->live);
  bool gced = false;
  for (size_t i = lane->retired.size(); i > 0; --i) {
    LaneQp& lq = lane->retired[i - 1];
    if (lq.route.empty()) {
      lane->retired.erase(lane->retired.begin() + (i - 1));
      gced = true;
    }
  }
  if (gced) {
    UpdateGauges();
  }
}

void NclConnectionPool::ReleaseOwner(PooledQp* owner) {
  Lane* lane = owner->lane_;
  lane->live.route.DropOwner(owner);
  for (LaneQp& lq : lane->retired) {
    lq.route.DropOwner(owner);
  }
  for (size_t i = lane->retired.size(); i > 0; --i) {
    if (lane->retired[i - 1].route.empty()) {
      lane->retired.erase(lane->retired.begin() + (i - 1));
    }
  }
  UpdateGauges();
}

void NclConnectionPool::UpdateGauges() {
  ObsSet(g_qps_open_, static_cast<int64_t>(open_qps()));
}

// ------------------------------------------------------------- PooledQp --

PooledQp::~PooledQp() { pool_->ReleaseOwner(this); }

uint64_t PooledQp::PostWrite(RKey rkey, uint64_t remote_offset,
                             std::string_view data) {
  return PostWrite(QueuePair::WriteOp{rkey, remote_offset, data});
}

uint64_t PooledQp::PostWrite(const QueuePair::WriteOp& op) {
  uint64_t wr = lane_->live.qp->PostWrite(op);
  lane_->live.route.Add(wr, this);
  return wr;
}

void PooledQp::PostWriteChain(const QueuePair::WriteOp* ops, size_t count,
                              uint64_t* ids_out) {
  lane_->live.qp->PostWriteChain(ops, count, ids_out);
  for (size_t i = 0; i < count; ++i) {
    lane_->live.route.Add(ids_out[i], this);
  }
}

std::vector<uint64_t> PooledQp::PostWriteBatch(
    std::vector<QueuePair::WriteOp> ops) {
  std::vector<uint64_t> ids(ops.size(), 0);
  PostWriteChain(ops.data(), ops.size(), ids.data());
  return ids;
}

uint64_t PooledQp::PostRead(RKey rkey, uint64_t remote_offset, uint64_t len,
                            std::string landing) {
  uint64_t wr =
      lane_->live.qp->PostRead(rkey, remote_offset, len, std::move(landing));
  lane_->live.route.Add(wr, this);
  return wr;
}

size_t PooledQp::Outstanding() const {
  size_t outstanding = ready_.size() + lane_->live.route.CountOwner(this);
  for (const NclConnectionPool::LaneQp& lq : lane_->retired) {
    outstanding += lq.route.CountOwner(this);
  }
  return outstanding;
}

bool PooledQp::in_error_state() const {
  return lane_->live.qp->in_error_state();
}

}  // namespace splitft
