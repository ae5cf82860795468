// Event storage and ordering for the discrete-event core (DESIGN.md §15).
//
// Two pieces, shared by Simulation:
//
//   * EventArena — a slab/freelist allocator of fixed-size EventNode slots.
//     Each node embeds the scheduled callable in inline storage (small-
//     buffer optimization; oversized callables spill to one heap block and
//     are counted). Steady-state Schedule→fire→recycle touches no heap.
//     Every slot carries a generation stamp: cancellation tokens are
//     (slot, generation) pairs, so a stale token is rejected by a single
//     compare and there is no token table to leak.
//
//   * EventQueue — one 4-ary min-heap of (when, seq, node) entries. seq is
//     unique, so (when, seq) is a total order and the heap pops in exactly
//     the seed scheduler's fire order: timestamp order with FIFO sequence
//     tiebreak. Each queued node records its heap index, so a cancel
//     removes its entry at once and nothing stale is ever queued. The
//     simulator's benches keep a few dozen events pending at most, so a
//     heap is all the structure the traffic needs.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace splitft {

// Virtual time in nanoseconds (canonical definition; simulation.h re-exports
// the helpers built on it).
using SimTime = int64_t;

namespace sim_internal {

// Inline callable storage. Sized so the largest hot-path lambda (a fabric
// WR delivery: Fabric*, shared_ptr<QpState>, ~96-byte WorkRequest) fits
// without spilling; the whole node is exactly 256 bytes, four cache lines.
inline constexpr size_t kEventInlineBytes = 192;

enum class EventState : uint8_t {
  kFree = 0,    // on the arena freelist
  kQueued = 1,  // in the queue's heap
  kFiring = 2,  // popped, callable running (Cancel is a no-op)
};

struct EventNode {
  SimTime when = 0;
  uint64_t seq = 0;  // FIFO tiebreak among equal timestamps
  EventNode* next = nullptr;  // freelist link while kFree
  // Runs the callable in place, then destroys it. Null while free.
  void (*invoke)(EventNode*) = nullptr;
  // Destroys the callable without running it (cancel, Simulation teardown).
  void (*destroy)(EventNode*) = nullptr;
  uint32_t slot = 0;        // arena index, fixed for the slab's lifetime
  uint32_t generation = 0;  // bumped on every recycle; half of the token
  uint32_t heap_index = 0;  // position in the queue's heap while kQueued
  EventState state = EventState::kFree;
  bool heap_callable = false;  // callable spilled to a heap block
  alignas(alignof(std::max_align_t)) unsigned char storage[kEventInlineBytes];
};
static_assert(sizeof(EventNode) == 256, "EventNode must stay 4 cache lines");

template <typename F>
void ConstructCallable(EventNode* n, F&& fn) {
  using Fn = std::decay_t<F>;
  if constexpr (sizeof(Fn) <= kEventInlineBytes &&
                alignof(Fn) <= alignof(std::max_align_t)) {
    ::new (static_cast<void*>(n->storage)) Fn(std::forward<F>(fn));
    n->heap_callable = false;
    n->invoke = [](EventNode* node) {
      Fn* f = std::launder(reinterpret_cast<Fn*>(node->storage));
      (*f)();
      f->~Fn();
    };
    n->destroy = [](EventNode* node) {
      std::launder(reinterpret_cast<Fn*>(node->storage))->~Fn();
    };
  } else {
    // Oversized capture: one heap block, owned by the node. Counted by the
    // arena so benches/tests can assert the hot path never takes this arm.
    Fn* heap = new Fn(std::forward<F>(fn));
    ::new (static_cast<void*>(n->storage)) Fn*(heap);
    n->heap_callable = true;
    n->invoke = [](EventNode* node) {
      Fn* f = *std::launder(reinterpret_cast<Fn**>(node->storage));
      (*f)();
      delete f;
    };
    n->destroy = [](EventNode* node) {
      delete *std::launder(reinterpret_cast<Fn**>(node->storage));
    };
  }
}

// Slab allocator of EventNodes. Nodes are never returned to the OS while
// the arena lives; a recycled node's generation is bumped so stale
// cancellation tokens can never alias a new event in the same slot.
class EventArena {
 public:
  static constexpr size_t kSlabNodes = 256;

  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  EventNode* Acquire() {
    if (free_head_ == nullptr) {
      AddSlab();
    }
    EventNode* n = free_head_;
    free_head_ = n->next;
    free_count_--;
    n->next = nullptr;
    n->state = EventState::kQueued;
    return n;
  }

  void Recycle(EventNode* n) {
    n->generation++;
    n->state = EventState::kFree;
    n->invoke = nullptr;
    n->destroy = nullptr;
    n->next = free_head_;
    free_head_ = n;
    free_count_++;
  }

  EventNode* NodeForSlot(uint64_t slot) {
    size_t slab = static_cast<size_t>(slot / kSlabNodes);
    if (slab >= slabs_.size()) {
      return nullptr;
    }
    return &slabs_[slab][slot % kSlabNodes];
  }

  size_t capacity() const { return slabs_.size() * kSlabNodes; }
  size_t free_nodes() const { return free_count_; }
  size_t slabs() const { return slabs_.size(); }

  // Destroys the callable of every node still queued (Simulation teardown).
  void DestroyLiveCallables() {
    for (auto& slab : slabs_) {
      for (size_t i = 0; i < kSlabNodes; ++i) {
        EventNode* n = &slab[i];
        if (n->state == EventState::kQueued && n->destroy != nullptr) {
          n->destroy(n);
          n->state = EventState::kFree;
        }
      }
    }
  }

 private:
  void AddSlab() {
    auto slab = std::make_unique<EventNode[]>(kSlabNodes);
    uint32_t base = static_cast<uint32_t>(slabs_.size() * kSlabNodes);
    for (size_t i = 0; i < kSlabNodes; ++i) {
      slab[i].slot = base + static_cast<uint32_t>(i);
      slab[i].next = (i + 1 < kSlabNodes) ? &slab[i + 1] : free_head_;
    }
    free_head_ = &slab[0];
    free_count_ += kSlabNodes;
    slabs_.push_back(std::move(slab));
  }

  std::vector<std::unique_ptr<EventNode[]>> slabs_;
  EventNode* free_head_ = nullptr;
  size_t free_count_ = 0;
};

// A 4-ary min-heap ordered by (when, seq). Entries carry a copy of the key
// so sift compares read only the contiguous heap vector; the scattered
// 256-byte nodes are touched only to record their new index.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  size_t size() const { return heap_.size(); }

  void Insert(EventNode* n) {
    heap_.push_back(Entry{n->when, n->seq, n});
    SiftUp(heap_.size() - 1, heap_.back());
  }

  // Earliest queued event, or nullptr. The node stays queued.
  EventNode* Peek() const { return heap_.empty() ? nullptr : heap_[0].n; }

  // Removes and returns the earliest queued event, or nullptr when empty.
  EventNode* PopEarliest() {
    if (heap_.empty()) {
      return nullptr;
    }
    EventNode* n = heap_[0].n;
    RemoveAt(0);
    n->state = EventState::kFiring;
    return n;
  }

  // Removes a queued node's entry, destroys its callable without running
  // it and recycles the node (the recycle bumps its generation, so the
  // cancellation token goes stale). Returns false, doing nothing, unless
  // the node is queued.
  bool CancelNode(EventNode* n, EventArena* arena) {
    if (n->state != EventState::kQueued) {
      return false;
    }
    RemoveAt(n->heap_index);
    n->destroy(n);
    arena->Recycle(n);
    return true;
  }

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;
    EventNode* n;
  };
  static_assert(sizeof(Entry) == 24);
  static constexpr size_t kArity = 4;

  // The scheduler's one and only fire order. seq is unique, so this is a
  // total order and the heap pops in exactly sorted order, whatever its
  // layout.
  static bool Before(const Entry& a, const Entry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  void Place(size_t i, const Entry& e) {
    heap_[i] = e;
    e.n->heap_index = static_cast<uint32_t>(i);
  }

  // Fills slot i with the last entry and restores the heap order, which
  // the moved entry can break in either direction.
  void RemoveAt(size_t i) {
    Entry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) {
      return;
    }
    if (i > 0 && Before(last, heap_[(i - 1) / kArity])) {
      SiftUp(i, last);
    } else {
      SiftDown(i, last);
    }
  }

  void SiftUp(size_t i, Entry e) {
    while (i > 0) {
      size_t parent = (i - 1) / kArity;
      if (!Before(e, heap_[parent])) {
        break;
      }
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, e);
  }

  void SiftDown(size_t i, Entry e) {
    const size_t count = heap_.size();
    for (;;) {
      size_t first = kArity * i + 1;
      if (first >= count) {
        break;
      }
      size_t last = std::min(first + kArity, count);
      size_t best = first;
      for (size_t c = first + 1; c < last; ++c) {
        if (Before(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!Before(heap_[best], e)) {
        break;
      }
      Place(i, heap_[best]);
      i = best;
    }
    Place(i, e);
  }

  std::vector<Entry> heap_;
};

}  // namespace sim_internal
}  // namespace splitft

#endif  // SRC_SIM_EVENT_QUEUE_H_
