// NclConnectionPool: the client-side half of the pooled multi-tenant NCL
// fabric (DESIGN.md §14). Many SplitFs / NclClient instances co-located on
// one application node share a bounded set of queue pairs per remote peer
// instead of opening one QP per (tenant, peer slot): a node hosting
// thousands of tenants on a handful of pooled peers keeps O(peers x
// qps_per_peer) QPs open, not O(tenants x peers).
//
// A tenant obtains a PooledQp handle via Connect(remote). The handle mirrors
// the QueuePair posting/polling interface and is pinned to one *lane* (one
// underlying QueuePair) for its whole life, so the per-slot send-queue
// ordering the replication protocol relies on (§4.4) is preserved: a
// tenant's WRs complete on the peer in the tenant's post order. Completions
// from a shared lane are demultiplexed by wr_id back to the owning handle.
// Draining is completion-driven: a completion landing on a lane's QP sets
// the lane's flag, and a poll drains the lane only while that flag is set,
// so idle polls cost O(1) however many tenants share the lane.
//
// Failure semantics on a shared lane: an ibverbs QP that takes a WR error
// flushes every queued WR, including innocent co-tenants'. The pool routes
// the first real error to the tenant that hit it unchanged, and rewrites the
// collateral kFlushError completions of *other* tenants to kRetryExceeded —
// the transient "target unreachable" classification — so innocents take the
// suspect/resurrection path instead of permanently demoting a healthy peer.
// A lane whose QP is in the error state is repaired (fresh warm QP) the next
// time any tenant Connects through it; undrained completions of the retired
// QP are still delivered to their owners.
//
// The pool also carves the node's shared in-flight budget into per-tenant
// append windows: per_client_window() shrinks as more clients register, so
// tenants cannot monopolize the shared send queues.
#ifndef SRC_NCL_CONNECTION_POOL_H_
#define SRC_NCL_CONNECTION_POOL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/ncl/wr_route_map.h"
#include "src/obs/obs.h"
#include "src/rdma/fabric.h"

namespace splitft {

class PooledQp;

struct NclPoolOptions {
  // Lanes (underlying QueuePairs) kept per remote peer node. Connect
  // assigns handles round-robin across them; lanes are created lazily, so
  // a remote only ever contacted by one tenant holds one QP.
  int qps_per_peer = 4;
};

class NclConnectionPool {
 public:
  // Shared in-flight append budget across every registered client on this
  // node. Each client's effective pipelining window is
  // kSharedInflightBudget / clients (floored at 1) — the fairness carve.
  static constexpr int kSharedInflightBudget = 64;

  // `local` is the application node every pooled QP originates from. `obs`
  // (optional) wires the "ncl.pool.*" instruments into a shared registry.
  NclConnectionPool(Fabric* fabric, NodeId local, NclPoolOptions options = {},
                    ObsContext obs = {});
  ~NclConnectionPool();

  NclConnectionPool(const NclConnectionPool&) = delete;
  NclConnectionPool& operator=(const NclConnectionPool&) = delete;

  // Hands out a handle pinned to one lane of `remote`, creating the lane if
  // the round-robin lands on one that does not exist yet. The first QP to a
  // remote pays the cold connection handshake; subsequent lanes (and lane
  // repairs) multiplex the established connection state and are warm. Every
  // handle must be destroyed before the pool.
  std::unique_ptr<PooledQp> Connect(NodeId remote);

  // Fairness bookkeeping: NclClient registers on construction so the shared
  // in-flight budget can be carved evenly across co-located tenants.
  void RegisterClient();
  void UnregisterClient();
  int clients() const { return clients_; }
  // max(1, kSharedInflightBudget / clients): the per-tenant append window
  // carve. Clients cap their own inflight_window with this.
  int per_client_window() const;

  NodeId local() const { return local_; }
  const NclPoolOptions& options() const { return options_; }

  // Live (non-retired) QPs currently open across all remotes; also the
  // "ncl.pool.qps_open" gauge.
  size_t open_qps() const;
  // Collateral kFlushError completions rewritten to kRetryExceeded for
  // innocent co-tenants of an errored lane.
  uint64_t flush_rewrites() const { return flush_rewrites_; }
  // Lane drains performed, and completions they (and lane repairs) routed
  // to owners. A lane is drained only after a completion landed on one of
  // its QPs, so lane_drains() <= completions_routed(): at most one poll of
  // the fabric per completion, however many handles share the lane.
  uint64_t lane_drains() const { return lane_drains_; }
  uint64_t completions_routed() const { return completions_routed_; }

 private:
  friend class PooledQp;

  // One underlying QueuePair plus the demux table for its undrained WRs
  // (wr_id -> owner handle). Kept after retirement until drained. The
  // error fields live here, not on the lane: a retired QP still owes its
  // collateral flushes the rewrite even after the lane was repaired.
  struct LaneQp {
    std::unique_ptr<QueuePair> qp;
    WrRouteMap<PooledQp> route;
    // First *real* (non-flush) WR error observed on this QP and the id of
    // the handle that owns it: that tenant sees the true status, every
    // other tenant's flushes are rewritten to kRetryExceeded.
    bool has_real_error = false;
    uint64_t error_owner = 0;
  };

  // One send-queue lane of a remote. Handles pin to a lane; posts go to
  // `live`. An errored live QP moves to `retired` (completions still owed)
  // when the lane is repaired on the next Connect. Heap-allocated and never
  // moved: handles hold a Lane* and every QP of the lane holds &pushed.
  struct Lane {
    explicit Lane(NodeId r) : remote(r) {}
    NodeId remote;
    LaneQp live;
    std::vector<LaneQp> retired;
    // A completion landed on the live or a retired QP since the last
    // DrainLane. Set by the fabric (QueuePair::SetCompletionFlag); while it
    // is clear every CQ of the lane is empty and polls skip the drain.
    bool pushed = false;
  };

  struct Remote {
    std::vector<std::unique_ptr<Lane>> lanes;
    int next_lane = 0;
    // Any QP to this remote was ever established: later lanes multiplex the
    // connection state and skip the cold handshake.
    bool ever_connected = false;
  };

  // Opens `lane`'s live QP and wires its completions to lane->pushed.
  void OpenLiveQp(Lane* lane, bool warm);
  // Polls every QP of the lane (retired first: their completions are
  // older), routing each completion straight to its owner's ready queue and
  // applying the flush-rewrite rule. Fully drained retired QPs are
  // destroyed. Clears lane->pushed.
  void DrainLane(Lane* lane);
  void DrainLaneQp(LaneQp* lq);
  // Unroutes a dying handle's undrained WRs.
  void ReleaseOwner(PooledQp* owner);
  void UpdateGauges();

  Fabric* fabric_;
  NodeId local_;
  NclPoolOptions options_;
  std::map<NodeId, Remote> remotes_;
  // Handle ids are never reused, so a flush-rewrite decision recorded for
  // a dead handle can never match its successor.
  uint64_t next_owner_ = 1;
  int clients_ = 0;
  uint64_t flush_rewrites_ = 0;
  uint64_t lane_drains_ = 0;
  uint64_t completions_routed_ = 0;

  ObsContext obs_;
  Counter* c_cold_connects_;
  Counter* c_warm_connects_;
  Counter* c_lane_repairs_;
  Counter* c_flush_rewrites_;
  Gauge* g_qps_open_;
  Gauge* g_clients_;
};

// A tenant's pinned handle onto one pooled lane. Mirrors the QueuePair
// posting/polling surface so NclFile's peer slots are agnostic to pooling.
// The handle is its own completion owner: drains append to its ready queue
// directly. Destroying the handle unregisters its completion routes:
// in-flight WRs still execute on the peer (one-sided RDMA semantics are
// unchanged) but their completions are dropped, exactly like destroying a
// private QP.
class PooledQp {
 public:
  ~PooledQp();

  PooledQp(const PooledQp&) = delete;
  PooledQp& operator=(const PooledQp&) = delete;

  NodeId remote() const { return lane_->remote; }

  uint64_t PostWrite(RKey rkey, uint64_t remote_offset, std::string_view data);
  uint64_t PostWrite(const QueuePair::WriteOp& op);
  // Allocation-free chain post (the NCL append hot path); `ids_out` must
  // hold `count` slots. See QueuePair::PostWriteChain.
  void PostWriteChain(const QueuePair::WriteOp* ops, size_t count,
                      uint64_t* ids_out);
  std::vector<uint64_t> PostWriteBatch(std::vector<QueuePair::WriteOp> ops);
  // See QueuePair::PostRead: the completion carries `landing`, refilled.
  uint64_t PostRead(RKey rkey, uint64_t remote_offset, uint64_t len,
                    std::string landing = {});
  // The one completion poll. O(1) when nothing is ready: the lane is
  // drained only if a completion landed on it since its last drain.
  bool PollCq(Completion* out) {
    if (lane_->pushed) {
      pool_->DrainLane(lane_);
    }
    if (ready_.empty()) {
      return false;
    }
    *out = std::move(ready_.front());
    ready_.pop_front();
    return true;
  }

  // WRs this handle posted whose completions have not been polled yet.
  size_t Outstanding() const;
  // The pinned lane's live QP took an error (possibly another tenant's).
  bool in_error_state() const;

 private:
  friend class NclConnectionPool;
  PooledQp(NclConnectionPool* pool, NclConnectionPool::Lane* lane,
           uint64_t id)
      : pool_(pool), lane_(lane), id_(id) {}

  NclConnectionPool* pool_;
  NclConnectionPool::Lane* lane_;
  uint64_t id_;
  // Routed completions not yet polled, in lane drain order.
  std::deque<Completion> ready_;
};

}  // namespace splitft

#endif  // SRC_NCL_CONNECTION_POOL_H_
