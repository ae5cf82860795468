// Flat WR→owner demux table for pooled QP lanes.
//
// WR ids on a lane are strictly increasing, so the table is an append-only
// ring ordered by wr id: O(log n) completion lookup by binary search, O(1)
// amortized append, and tombstoned middle erases (DropOwner when a tenant
// handle dies). Entries hold the owner itself, not an id to look up, so a
// drained completion goes straight to its owner. The seed used a std::map
// here — one node allocation per posted WR on the append hot path; this
// structure performs zero steady-state allocations once its vector reaches
// its high-water capacity (the prefix compaction erases in place and a
// full drain clear() keeps capacity).
#ifndef SRC_NCL_WR_ROUTE_MAP_H_
#define SRC_NCL_WR_ROUTE_MAP_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace splitft {

template <typename Owner>
class WrRouteMap {
 public:
  // Registers `wr` (strictly greater than every id added before) as owned
  // by `owner` (non-null).
  void Add(uint64_t wr, Owner* owner) {
    slots_.emplace_back(wr, owner);
    live_++;
  }

  // Looks up and removes `wr`, returning its owner — nullptr if the id was
  // never added or its owner was dropped.
  Owner* Take(uint64_t wr) {
    auto begin = slots_.begin() + static_cast<ptrdiff_t>(head_);
    auto it = std::lower_bound(begin, slots_.end(), wr,
                               [](const Slot& e, uint64_t id) {
                                 return e.first < id;
                               });
    if (it == slots_.end() || it->first != wr || it->second == nullptr) {
      return nullptr;
    }
    Owner* owner = it->second;
    it->second = nullptr;
    live_--;
    Trim();
    return owner;
  }

  // Tombstones every WR routed to `owner` (its handle was destroyed; the
  // in-flight WRs still execute remotely but their completions die here).
  void DropOwner(const Owner* owner) {
    for (size_t i = head_; i < slots_.size(); ++i) {
      if (slots_[i].second == owner) {
        slots_[i].second = nullptr;
        live_--;
      }
    }
    Trim();
  }

  size_t CountOwner(const Owner* owner) const {
    size_t n = 0;
    for (size_t i = head_; i < slots_.size(); ++i) {
      if (slots_[i].second == owner) {
        n++;
      }
    }
    return n;
  }

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

 private:
  using Slot = std::pair<uint64_t, Owner*>;  // (wr id, owner)

  void Trim() {
    while (head_ < slots_.size() && slots_[head_].second == nullptr) {
      head_++;
    }
    if (head_ == slots_.size()) {
      slots_.clear();  // keeps capacity: the next Add cycle is alloc-free
      head_ = 0;
    } else if (head_ > 64 && head_ > slots_.size() - head_) {
      // Amortized O(1): the erased prefix is at least half the vector.
      slots_.erase(slots_.begin(), slots_.begin() + static_cast<ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  std::vector<Slot> slots_;
  size_t head_ = 0;  // first non-tombstoned slot
  size_t live_ = 0;  // non-tombstoned entries
};

}  // namespace splitft

#endif  // SRC_NCL_WR_ROUTE_MAP_H_
