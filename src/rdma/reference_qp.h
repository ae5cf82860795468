// Reference model of reliable-connected (RC) queue pairs, with no timing at
// all: what an RC QP guarantees, and so what the simulated fabric
// (src/rdma/fabric.h) must produce under any latency, delay or retry.
//
//   * the responder executes a QP's WRs in post order;
//   * the CQ reports a QP's completions in post order;
//   * after a QP's first failed WR every later WR on it is flushed
//     (kFlushError), as is every WR on a QP opened toward a node that was
//     down or cut off;
//   * a WR toward a crashed or partitioned node fails with kRetryExceeded;
//   * a WR naming an rkey that is not live on its target (invalidated,
//     deregistered, recycled away, wiped by a crash, never issued there) or
//     a range past the region's end fails with kRemoteAccessError.
//
// The model executes each WR the moment it is posted. That is exact for
// every schedule in which no two QPs touch the same region, and crashes,
// restarts, partitions and region changes happen only while no WR is in
// flight. Link delays and completion delays may come and go at any time:
// they move when things happen, never what happens or in which order
// (Besta & Hoefler, "Fault Tolerance for RMA Programming Models", state
// the same ordering and invalidation rules for RMA).
//
// Kept for one consumer: tests/rdma_reference_test.cc replays seeded random
// schedules on the fabric and on this model and compares per-QP completion
// order, statuses and READ bytes. Do NOT use it in production code.
#ifndef SRC_RDMA_REFERENCE_QP_H_
#define SRC_RDMA_REFERENCE_QP_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/rdma/fabric.h"

namespace splitft {

class ReferenceRcModel {
 public:
  struct Expected {
    uint64_t wr_id = 0;
    WcStatus status = WcStatus::kSuccess;
    std::optional<std::string> read_data;  // a successful READ's bytes
  };

  // Node ids match the fabric's when nodes are added in the same order.
  NodeId AddNode() {
    alive_.push_back(true);
    return static_cast<NodeId>(alive_.size() - 1);
  }

  // A crash kills every rkey the node hosts; a restart brings it back
  // with none.
  void Crash(NodeId node) {
    alive_.at(node) = false;
    std::erase_if(regions_, [node](const auto& entry) {
      return entry.second.node == node;
    });
  }
  void Restart(NodeId node) { alive_.at(node) = true; }

  void SetPartitioned(NodeId a, NodeId b, bool partitioned) {
    std::pair<NodeId, NodeId> link = std::minmax(a, b);
    if (partitioned) {
      partitions_.insert(link);
    } else {
      partitions_.erase(link);
    }
  }

  // A region the fabric registered: `size` zero bytes on `node`. Returns
  // false if `rkey` was ever issued before — an rkey names one region for
  // the fabric's whole life.
  bool AddRegion(NodeId node, RKey rkey, uint64_t size) {
    if (!issued_.insert(rkey).second) {
      return false;
    }
    regions_[rkey] = Region{node, std::string(size, '\0')};
    return true;
  }
  // The rkey dies: invalidated, deregistered or recycled away.
  void KillRegion(RKey rkey) { regions_.erase(rkey); }

  // Local (CPU) access, mirroring Fabric::WriteRegion and CopyRegion on
  // live regions, and a live region's bytes (null for a dead rkey).
  void WriteRegion(RKey rkey, uint64_t offset, std::string_view data) {
    regions_.at(rkey).bytes.replace(offset, data.size(), data);
  }
  void CopyRegion(RKey src, RKey dst) {
    regions_.at(dst).bytes = regions_.at(src).bytes;
  }
  const std::string* bytes(RKey rkey) const {
    auto it = regions_.find(rkey);
    return it == regions_.end() ? nullptr : &it->second.bytes;
  }

  int OpenQp(NodeId local, NodeId remote) {
    qps_.push_back(Qp{local, remote, !Reachable(local, remote), 1, {}});
    return static_cast<int>(qps_.size() - 1);
  }

  uint64_t PostWrite(int qp, RKey rkey, uint64_t offset,
                     std::string_view data) {
    return Execute(qp, rkey, offset, data.size(), [&](std::string* bytes) {
      bytes->replace(offset, data.size(), data);
      return std::optional<std::string>();
    });
  }

  uint64_t PostRead(int qp, RKey rkey, uint64_t offset, uint64_t len) {
    return Execute(qp, rkey, offset, len, [&](std::string* bytes) {
      return std::optional<std::string>(bytes->substr(offset, len));
    });
  }

  // The completions the QP's CQ must yield next, oldest first.
  std::deque<Expected>& cq(int qp) { return qps_.at(qp).cq; }
  bool in_error(int qp) const { return qps_.at(qp).error; }

 private:
  struct Region {
    NodeId node;
    std::string bytes;
  };

  struct Qp {
    NodeId local;
    NodeId remote;
    bool error;
    uint64_t next_wr_id;
    std::deque<Expected> cq;
  };

  bool Reachable(NodeId local, NodeId remote) const {
    return alive_.at(remote) &&
           partitions_.count(std::minmax(local, remote)) == 0;
  }

  template <typename Access>
  uint64_t Execute(int qp_index, RKey rkey, uint64_t offset, uint64_t len,
                   const Access& access) {
    Qp& qp = qps_.at(qp_index);
    Expected e;
    e.wr_id = qp.next_wr_id++;
    auto it = regions_.find(rkey);
    if (qp.error) {
      e.status = WcStatus::kFlushError;
    } else if (!Reachable(qp.local, qp.remote)) {
      e.status = WcStatus::kRetryExceeded;
    } else if (it == regions_.end() || it->second.node != qp.remote ||
               offset > it->second.bytes.size() ||
               len > it->second.bytes.size() - offset) {
      e.status = WcStatus::kRemoteAccessError;
    } else {
      e.read_data = access(&it->second.bytes);
    }
    qp.error = qp.error || e.status != WcStatus::kSuccess;
    qp.cq.push_back(std::move(e));
    return qp.cq.back().wr_id;
  }

  std::vector<bool> alive_;
  std::set<std::pair<NodeId, NodeId>> partitions_;
  std::map<RKey, Region> regions_;
  std::set<RKey> issued_;
  std::vector<Qp> qps_;
};

}  // namespace splitft

#endif  // SRC_RDMA_REFERENCE_QP_H_
