// Event storage and ordering for the discrete-event core (DESIGN.md §15).
//
// Two pieces, shared by Simulation:
//
//   * EventArena — a slab/freelist allocator of fixed-size EventNode slots.
//     Each node embeds the scheduled callable in inline storage (small-
//     buffer optimization; oversized callables spill to one heap block and
//     are counted). Steady-state Schedule→fire→recycle touches no heap.
//     Every slot carries a generation stamp: cancellation tokens are
//     (slot, generation) pairs, so Cancel is O(1), stale tokens are
//     rejected by a single compare, and there is no token table to leak.
//
//   * EventQueue — a calendar queue with three tiers:
//       - the drain: the current (cursor) bucket, sorted once by
//         (when, seq) when the cursor reaches it and then consumed by
//         index — a pop is one bounds check and an increment. seq is
//         unique, so the sorted order is a total order: the fire order is
//         *exactly* the seed scheduler's, timestamp order with FIFO
//         sequence tiebreak. Events scheduled *into* the current bucket
//         while it drains land in a small side min-heap (incur_) that is
//         merged on the fly by comparing tops.
//       - the ring: kNumBuckets buckets of kBucketWidth ns covering the
//         near future past the cursor. Each bucket is an *unsorted*
//         vector of (when, seq, node) entries — insertion is an O(1)
//         append that touches no other node — and a whole bucket becomes
//         the drain by one vector swap + one contiguous sort when the
//         cursor reaches it. Keeping buckets unsorted is what makes the
//         queue robust: a workload that piles thousands of events into
//         one bucket costs O(log k) per event, not O(k).
//       - overflow_: a binary min-heap for events beyond the ring's
//         horizon (lease expiries, heals). These fire straight from the
//         heap via a top comparison with the drain/incur front, which is
//         valid because every current-bucket event is strictly earlier
//         than every ring event (bucket boundaries are exclusive), so the
//         global minimum is always one of the three structure fronts.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
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
  kQueued = 1,  // live in a bucket, the drain, incur_, or overflow_
  kFiring = 2,  // popped, callable running (Cancel is a no-op)
};

struct EventNode {
  SimTime when = 0;
  uint64_t seq = 0;  // FIFO tiebreak among equal timestamps
  EventNode* prev = nullptr;
  EventNode* next = nullptr;
  // Runs the callable in place, then destroys it. Null while free.
  void (*invoke)(EventNode*) = nullptr;
  // Destroys the callable without running it (cancel, Simulation teardown).
  void (*destroy)(EventNode*) = nullptr;
  uint32_t slot = 0;        // arena index, fixed for the slab's lifetime
  uint32_t generation = 0;  // bumped on every recycle; half of the token
  uint32_t bucket = 0;      // physical ring index while ring-resident
  EventState state = EventState::kFree;
  bool in_overflow = false;
  bool in_ready = false;
  bool heap_callable = false;  // callable spilled to a heap block
  alignas(alignof(std::max_align_t)) unsigned char storage[kEventInlineBytes];
};
static_assert(sizeof(EventNode) == 256, "EventNode must stay 4 cache lines");

// (when, seq) strict ordering: the scheduler's one and only fire order.
// seq is unique, so this is a total order — any min-heap over it pops in
// exactly sorted order, independent of internal layout.
inline bool EventAfter(const EventNode* a, const EventNode* b) {
  if (a->when != b->when) {
    return a->when > b->when;
  }
  return a->seq > b->seq;
}

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
    n->prev = nullptr;
    n->next = nullptr;
    n->state = EventState::kQueued;
    n->in_overflow = false;
    n->in_ready = false;
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

// Calendar queue: sorted drain + incursion heap (current bucket) +
// near-future ring + far-future overflow heap.
//
// Placement invariant, maintained by Insert/Refill/SyncCursor:
//   * drain_ and incur_ hold events with when >> kBucketWidthBits
//     <= cursor_, i.e. when < (cursor_ + 1) * kBucketWidth;
//   * the ring  holds events with bucket index in (cursor_, cursor_ + N);
//   * overflow_ holds events inserted with bucket index >= cursor_ + N.
// Every drain_/incur_ event is therefore strictly earlier than every ring
// event, so the global minimum is min(drain front, incur_ top, overflow_
// top) once the drain has been refilled from the first non-empty bucket.
class EventQueue {
 public:
  // 4096 buckets of 1.024 µs ≈ a 4.19 ms near window — sized so the fabric
  // and retry events that dominate campaigns (ns–µs deltas) stay O(1) and
  // only control-plane horizons (heals, leases) touch the overflow heap.
  static constexpr int kBucketWidthBits = 10;
  static constexpr int kWheelBits = 12;
  static constexpr size_t kNumBuckets = size_t{1} << kWheelBits;
  static constexpr size_t kBucketMask = kNumBuckets - 1;
  static constexpr SimTime kBucketWidth = SimTime{1} << kBucketWidthBits;
  static constexpr SimTime kHorizon =
      static_cast<SimTime>(kNumBuckets) * kBucketWidth;

  EventQueue() : buckets_(kNumBuckets), bitmap_(kNumBuckets / 64, 0) {
    drain_.reserve(256);
  }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  size_t size() const { return size_; }

  void Insert(EventNode* n) {
    int64_t abs = n->when >> kBucketWidthBits;
    if (abs <= cursor_) {
      // Current bucket, or an event firing late (the clock was advanced
      // past it): into the incursion heap, which orders by the actual
      // (when, seq), so late events still fire in exact order.
      IncurPush(n);
    } else if (abs < cursor_ + static_cast<int64_t>(kNumBuckets)) {
      size_t p = static_cast<size_t>(abs & kBucketMask);
      std::vector<HeapEntry>& b = buckets_[p];
      if (b.empty()) {
        SetBit(p);
      }
      b.push_back(HeapEntry{n->when, n->seq, n, n->generation});
      wheel_count_++;
    } else {
      n->in_overflow = true;
      overflow_.push_back(HeapEntry{n->when, n->seq, n, n->generation});
      HeapUp(overflow_, overflow_.size() - 1);
    }
    size_++;
  }

  // Earliest live event, or nullptr. Refills the drain from the ring and
  // reaps cancelled tombstones as a side effect; the returned node stays
  // queued until PopNode.
  EventNode* Peek(EventArena* arena) {
    if (size_ == 0) {
      return nullptr;
    }
    EventNode* front = CurrentFront(arena);
    EventNode* over_min = OverflowTop();
    if (front == nullptr) {
      return over_min;
    }
    if (over_min == nullptr || !EventAfter(front, over_min)) {
      return front;
    }
    return over_min;
  }

  // Fused Peek + PopNode for the RunOne hot path: one reap/refill pass,
  // one front comparison, one O(1) drain advance (or heap pop). Returns
  // nullptr when empty.
  EventNode* PopEarliest(EventArena* arena) {
    if (size_ == 0) {
      return nullptr;
    }
    EventNode* front = CurrentFront(arena);
    if (!overflow_.empty()) {
      EventNode* over_min = OverflowTop();
      if (over_min != nullptr &&
          (front == nullptr || EventAfter(front, over_min))) {
        HeapPopTop(overflow_);
        size_--;
        over_min->state = EventState::kFiring;
        return over_min;
      }
    }
    PopFront(front);
    size_--;
    front->state = EventState::kFiring;
    return front;
  }

  // Removes `n`, which must be the node Peek just returned (so it is the
  // front of the drain, the incursion heap, or the overflow heap).
  void PopNode(EventNode* n) {
    if (n->in_overflow) {
      assert(!overflow_.empty() && overflow_[0].n == n);
      HeapPopTop(overflow_);
    } else {
      PopFront(n);
    }
    size_--;
    n->state = EventState::kFiring;
  }

  // O(1) cancellation: destroy the callable and recycle the node NOW
  // (the recycle bumps the node's generation, so the freelist stays warm
  // and stale cancellation tokens are rejected by one compare). The
  // node's entry is left in place wherever it sits; it is recognized by
  // its stale generation and skipped when the front passes it. Overflow
  // compaction keeps that heap at most half stale. Returns true if the
  // node was removed from the live set.
  bool CancelNode(EventNode* n, EventArena* arena) {
    if (n->state != EventState::kQueued) {
      return false;
    }
    if (n->destroy != nullptr) {
      n->destroy(n);
      n->destroy = nullptr;
      n->invoke = nullptr;
    }
    size_--;
    bool was_overflow = n->in_overflow;
    arena->Recycle(n);
    if (was_overflow) {
      overflow_cancelled_++;
      if (overflow_cancelled_ > 64 &&
          overflow_cancelled_ * 2 > overflow_.size()) {
        CompactOverflow();
      }
    } else {
      ring_stale_++;
    }
    return true;
  }

  // With the ring and the current bucket empty there is nothing the cursor
  // could skip, so it may follow the clock: forward, which keeps fresh
  // short-delay inserts in the ring after big AdvanceTo jumps, and back,
  // which keeps a Simulation::Overlap rewind from leaving the cursor ahead
  // of the clock (every insert behind the cursor lands in incur_, exact
  // but a heap push each). Overflow entries stay valid either way: they
  // are compared by (when, seq), never by bucket.
  void SyncCursor(SimTime now) {
    if (wheel_count_ == 0 && drain_pos_ >= drain_.size() && incur_.empty()) {
      cursor_ = now >> kBucketWidthBits;
    }
  }

  // Calls fn(node) for every queued node (teardown bookkeeping only).
  template <typename Fn>
  void ForEachQueued(Fn&& fn) {
    for (size_t p = 0; p < kNumBuckets; ++p) {
      for (const HeapEntry& e : buckets_[p]) {
        if (EntryLive(e)) {
          fn(e.n);
        }
      }
    }
    for (size_t i = drain_pos_; i < drain_.size(); ++i) {
      if (EntryLive(drain_[i])) {
        fn(drain_[i].n);
      }
    }
    for (const HeapEntry& e : incur_) {
      if (EntryLive(e)) {
        fn(e.n);
      }
    }
    for (const HeapEntry& e : overflow_) {
      if (EntryLive(e)) {
        fn(e.n);
      }
    }
  }

  size_t overflow_size() const { return overflow_.size(); }
  size_t ready_size() const {
    return (drain_.size() - drain_pos_) + incur_.size();
  }

 private:
  // Heap entries carry a copy of the (when, seq) key so sift compares read
  // only the contiguous heap vector — the scattered 256-byte nodes are
  // dereferenced once, at fire time. They also carry the node's generation
  // at insert: cancellation recycles the node immediately (keeping the
  // arena working set tight), and the orphaned entry is recognized later
  // by its stale generation and skipped.
  struct HeapEntry {
    SimTime when;
    uint64_t seq;
    EventNode* n;
    uint32_t gen;
  };
  static bool EntryAfter(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.seq > b.seq;
  }

  // An entry is live iff its node has not been recycled since insert
  // (cancellation recycles immediately, firing consumes the entry first).
  static bool EntryLive(const HeapEntry& e) {
    return e.n->generation == e.gen;
  }

  void SetBit(size_t p) { bitmap_[p >> 6] |= uint64_t{1} << (p & 63); }
  void ClearBit(size_t p) { bitmap_[p >> 6] &= ~(uint64_t{1} << (p & 63)); }

  // First non-empty physical bucket in circular order strictly after the
  // cursor. Requires wheel_count_ > 0. The ring invariant (every
  // resident's bucket index lies in (cursor_, cursor_ + kNumBuckets))
  // makes circular order equal to absolute time order.
  size_t FindFirstBucket() const {
    size_t start = static_cast<size_t>((cursor_ + 1) & kBucketMask);
    size_t word = start >> 6;
    uint64_t w = bitmap_[word] & (~uint64_t{0} << (start & 63));
    for (size_t i = 0; i <= bitmap_.size(); ++i) {
      if (w != 0) {
        return (word << 6) + static_cast<size_t>(__builtin_ctzll(w));
      }
      word = (word + 1) % bitmap_.size();
      w = bitmap_[word];
    }
    assert(false && "wheel_count_ > 0 but no bucket bit set");
    return 0;
  }

  // Advances the cursor to the first non-empty bucket and splices that
  // whole bucket into the (exhausted) drain, sorting it once by
  // (when, seq) — seq is unique, so the sorted order is the unique total
  // order and pops are exact regardless of the bucket's insertion order.
  // Requires an exhausted current bucket and wheel_count_ > 0. Bucket
  // lists contain only live nodes (cancel unlinks ring residents
  // immediately), so the drain is non-empty afterwards.
  void RefillDrain() {
    assert(drain_pos_ >= drain_.size() && incur_.empty() &&
           wheel_count_ > 0);
    size_t p = FindFirstBucket();
    size_t start = static_cast<size_t>((cursor_ + 1) & kBucketMask);
    cursor_ += 1 + static_cast<int64_t>((p - start) & kBucketMask);
    drain_.clear();
    drain_pos_ = 0;
    // One swap moves the whole bucket; the emptied vector (the old drain)
    // keeps its capacity, so steady-state refills allocate nothing. The
    // sort touches only the contiguous entry array — no node is
    // dereferenced until it fires.
    drain_.swap(buckets_[p]);
    wheel_count_ -= drain_.size();
    ClearBit(p);
    if (ring_stale_ > 0) {
      // Drop entries whose node was cancelled (stale generation) before
      // paying to sort them. Skipped entirely on cancel-free workloads.
      size_t out = 0;
      for (size_t i = 0; i < drain_.size(); ++i) {
        if (EntryLive(drain_[i])) {
          drain_[out++] = drain_[i];
        } else {
          ring_stale_--;
        }
      }
      drain_.resize(out);
    }
    // Bucket entries were appended in increasing seq order, and all whens
    // in one bucket share their high bits — so a STABLE sort on the
    // kBucketWidthBits low bits of `when` yields exactly (when, seq)
    // order. Large buckets use an O(k + kBucketWidth) stable counting
    // sort; small ones, a comparison sort.
    if (drain_.size() >= 128) {
      CountingSortDrain();
    } else {
      std::sort(drain_.begin(), drain_.end(),
                [](const HeapEntry& a, const HeapEntry& b) {
                  return EntryAfter(b, a);
                });
    }
  }

  void CountingSortDrain() {
    uint32_t counts[kBucketWidth] = {};
    constexpr uint64_t kLowMask = static_cast<uint64_t>(kBucketWidth) - 1;
    for (const HeapEntry& e : drain_) {
      counts[static_cast<uint64_t>(e.when) & kLowMask]++;
    }
    uint32_t sum = 0;
    for (size_t i = 0; i < static_cast<size_t>(kBucketWidth); ++i) {
      uint32_t c = counts[i];
      counts[i] = sum;
      sum += c;
    }
    scratch_.resize(drain_.size());
    for (const HeapEntry& e : drain_) {
      scratch_[counts[static_cast<uint64_t>(e.when) & kLowMask]++] = e;
    }
    drain_.swap(scratch_);
  }

  void IncurPush(EventNode* n) {
    n->in_overflow = false;
    n->in_ready = true;
    incur_.push_back(HeapEntry{n->when, n->seq, n, n->generation});
    HeapUp(incur_, incur_.size() - 1);
  }

  // Live minimum of the current bucket (drain front vs incursion top),
  // refilling the drain from the ring when the bucket is exhausted and
  // skipping stale (cancelled) entries along the way. Returns nullptr
  // when the ring and current bucket hold no live event.
  EventNode* CurrentFront(EventArena* arena) {
    (void)arena;
    for (;;) {
      EventNode* d = nullptr;
      if (ring_stale_ == 0) {
        // No cancelled entries anywhere in the ring tiers: the front entry
        // is live by construction, so skip the generation deref.
        if (drain_pos_ < drain_.size()) {
          d = drain_[drain_pos_].n;
          if (drain_pos_ + 1 < drain_.size()) {
            __builtin_prefetch(drain_[drain_pos_ + 1].n);
          }
        }
      } else {
        while (drain_pos_ < drain_.size()) {
          if (EntryLive(drain_[drain_pos_])) {
            d = drain_[drain_pos_].n;
            break;
          }
          drain_pos_++;
          ring_stale_--;
        }
      }
      EventNode* i = IncurTop();
      if (d == nullptr && i == nullptr) {
        if (wheel_count_ == 0) {
          return nullptr;
        }
        RefillDrain();
        continue;
      }
      if (i == nullptr) {
        return d;
      }
      if (d == nullptr ||
          EntryAfter(drain_[drain_pos_], incur_[0])) {
        return i;
      }
      return d;
    }
  }

  // Advances past `n`, the node CurrentFront just returned.
  void PopFront(EventNode* n) {
    if (drain_pos_ < drain_.size() && drain_[drain_pos_].n == n) {
      drain_pos_++;
      return;
    }
    assert(!incur_.empty() && incur_[0].n == n);
    HeapPopTop(incur_);
  }

  // Live incursion minimum, dropping stale entries off the top.
  EventNode* IncurTop() {
    while (!incur_.empty() && !EntryLive(incur_[0])) {
      HeapPopTop(incur_);
      ring_stale_--;
    }
    return incur_.empty() ? nullptr : incur_[0].n;
  }

  // Live overflow minimum, dropping stale entries off the top.
  EventNode* OverflowTop() {
    while (!overflow_.empty() && !EntryLive(overflow_[0])) {
      HeapPopTop(overflow_);
      if (overflow_cancelled_ > 0) {
        overflow_cancelled_--;
      }
    }
    return overflow_.empty() ? nullptr : overflow_[0].n;
  }

  void CompactOverflow() {
    size_t out = 0;
    for (size_t i = 0; i < overflow_.size(); ++i) {
      if (EntryLive(overflow_[i])) {
        overflow_[out++] = overflow_[i];
      }
    }
    overflow_.resize(out);
    overflow_cancelled_ = 0;
    // Deterministic heapify: depends only on the element order above.
    for (size_t i = out / 2; i-- > 0;) {
      HeapDown(overflow_, i);
    }
  }

  static void HeapUp(std::vector<HeapEntry>& h, size_t i) {
    HeapEntry e = h[i];
    while (i > 0) {
      size_t parent = (i - 1) / 2;
      if (!EntryAfter(h[parent], e)) {
        break;
      }
      h[i] = h[parent];
      i = parent;
    }
    h[i] = e;
  }

  static void HeapDown(std::vector<HeapEntry>& h, size_t i) {
    HeapEntry e = h[i];
    size_t count = h.size();
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= count) {
        break;
      }
      if (child + 1 < count && EntryAfter(h[child], h[child + 1])) {
        child++;
      }
      if (!EntryAfter(e, h[child])) {
        break;
      }
      h[i] = h[child];
      i = child;
    }
    h[i] = e;
  }

  static void HeapPopTop(std::vector<HeapEntry>& h) {
    HeapEntry last = h.back();
    h.pop_back();
    if (!h.empty()) {
      h[0] = last;
      HeapDown(h, 0);
    }
  }

  std::vector<std::vector<HeapEntry>> buckets_;
  std::vector<uint64_t> bitmap_;
  // Absolute bucket index of the current (ready) bucket: every ring
  // resident's bucket index is strictly greater. Moves back only while
  // the ring and the current bucket are empty (SyncCursor).
  int64_t cursor_ = 0;
  size_t wheel_count_ = 0;  // live ring residents (excludes ready_)
  size_t size_ = 0;         // live events across all three tiers
  std::vector<HeapEntry> drain_;  // current bucket, sorted by (when, seq)
  size_t drain_pos_ = 0;          // next drain entry to fire
  std::vector<HeapEntry> scratch_;  // counting-sort scatter target
  size_t ring_stale_ = 0;  // cancelled entries still in buckets_/drain_/incur_
  std::vector<HeapEntry> incur_;     // min-heap by (when, seq)
  std::vector<HeapEntry> overflow_;  // min-heap by (when, seq)
  size_t overflow_cancelled_ = 0;
};

}  // namespace sim_internal
}  // namespace splitft

#endif  // SRC_SIM_EVENT_QUEUE_H_
