// Discrete-event simulation core. All SplitFT components run against a
// virtual clock owned by a Simulation instance; latencies are modeled, so
// every benchmark figure is deterministic and runs in milliseconds of real
// time regardless of the virtual duration simulated.
//
// The scheduler is an indexed 4-ary min-heap over a slab event arena
// (DESIGN.md §15, bench/micro_sim.cc): steady-state Schedule→fire→recycle
// performs no heap allocation, a cancel removes its event at once via
// generation-stamped slots, and the fire order — timestamp order with FIFO
// sequence tiebreak — is byte-for-byte the order the original binary-heap
// scheduler produced (tests/sim_test.cc replays randomized workloads
// against the reference heap in src/sim/reference_scheduler.h to prove it).
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include "src/sim/event_queue.h"

namespace splitft {

// SimTime (virtual nanoseconds) is defined in event_queue.h.

constexpr SimTime kNanosPerMicro = 1000;
constexpr SimTime kNanosPerMilli = 1000 * 1000;
constexpr SimTime kNanosPerSecond = 1000 * 1000 * 1000;

inline constexpr SimTime Micros(double us) {
  return static_cast<SimTime>(us * 1e3);
}
inline constexpr SimTime Millis(double ms) {
  return static_cast<SimTime>(ms * 1e6);
}
inline constexpr SimTime Seconds(double s) {
  return static_cast<SimTime>(s * 1e9);
}

namespace sim {

// Compile-time proof that a scheduled callable fits the event arena's
// inline slab (sim_internal::kEventInlineBytes). Passes the callable
// through unchanged, so hot-path call sites wrap their lambda:
//
//   sim_->Schedule(delay, sim::assert_inline([this, qp, wr] { ... }));
//
// A capture list that grows past the slab stops compiling at the site
// that grew it, instead of silently heap-spilling every event (the
// heap_callables counter in scheduler_stats() is the runtime view of the
// same budget; tools/deeplint's inline-budget rule is the static one).
template <typename F>
constexpr F&& assert_inline(F&& fn) noexcept {
  static_assert(
      sizeof(std::remove_reference_t<F>) <= sim_internal::kEventInlineBytes,
      "scheduled callable exceeds the inline event slab "
      "(sim_internal::kEventInlineBytes): it would heap-allocate on every "
      "Schedule. Shrink the captures (capture pointers, not values) or, "
      "off the hot path, call Schedule without assert_inline.");
  return std::forward<F>(fn);
}

}  // namespace sim

class Simulation {
 public:
  Simulation() = default;
  ~Simulation() { arena_.DestroyLiveCallables(); }
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` ns from now. Events with equal timestamps
  // run in scheduling order (FIFO), which keeps runs deterministic. The
  // callable is stored inline in an arena slot (no heap allocation) unless
  // its captures exceed sim_internal::kEventInlineBytes.
  template <typename F>
  void Schedule(SimTime delay, F&& fn) {
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }
  template <typename F>
  void ScheduleAt(SimTime when, F&& fn) {
    ScheduleNode(when, std::forward<F>(fn));
  }

  // Cancellable variant, used by fault injectors whose pending heal/expiry
  // events may be retired early (e.g. ChaosEngine::Quiesce). The returned
  // token cancels the event if it has not fired yet; cancelling a fired or
  // unknown token is a no-op. Tokens are (arena slot, generation) pairs:
  // once the event fires or is cancelled the slot's generation is bumped,
  // so a stale token can never alias a later event — and no token table
  // exists to leak (the seed scheduler's live_tokens_ set retained an
  // entry for every cancelled-after-drain token forever).
  template <typename F>
  uint64_t ScheduleCancelableAt(SimTime when, F&& fn) {
    sim_internal::EventNode* n = ScheduleNode(when, std::forward<F>(fn));
    return (static_cast<uint64_t>(n->slot) + 1) << 32 | n->generation;
  }
  void Cancel(uint64_t token);

  // Runs the earliest pending event, advancing the clock to its timestamp.
  // Returns false if no events are pending. Defined here (not in the .cc)
  // so benches and run loops inline the whole pop→fire→recycle path.
  bool RunOne() {
    if (in_branch_) [[unlikely]] {
      RejectRunInBranch();
    }
    sim_internal::EventNode* n = queue_.PopEarliest();
    if (n == nullptr) {
      return false;
    }
    FireNode(n);
    return true;
  }

  // Runs events until the queue is empty.
  void RunUntilIdle() {
    if (in_branch_) {
      RejectRunInBranch();
    }
    while (sim_internal::EventNode* n = queue_.PopEarliest()) {
      FireNode(n);
    }
  }

  // Runs all events with timestamp <= `when`, then advances the clock to
  // `when` (even if idle earlier).
  void RunUntil(SimTime when) {
    if (in_branch_) {
      RejectRunInBranch();
    }
    for (;;) {
      sim_internal::EventNode* n = queue_.Peek();
      if (n == nullptr || n->when > when) {
        break;
      }
      FireNode(queue_.PopEarliest());
    }
    if (now_ < when) {
      now_ = when;
    }
  }

  // Runs events until `pred()` returns true (checked after each event).
  // Returns false if the queue drained without the predicate holding.
  bool RunUntilPredicate(const std::function<bool()>& pred) {
    if (pred()) {
      return true;
    }
    while (RunOne()) {
      if (pred()) {
        return true;
      }
    }
    return false;
  }

  // Advances the clock without running events; models synchronous CPU work
  // performed by the currently-executing actor. Never moves backwards.
  void AdvanceTo(SimTime when) { now_ = std::max(now_, when); }
  void Advance(SimTime delta) { AdvanceTo(now_ + delta); }

  // Fork-join over `branches` pieces of synchronous work done at the same
  // time by independent actors (say, one setup RPC on each of several
  // peers). Each branch(i) starts at the instant Overlap is called and may
  // only Advance the clock; afterwards the clock stands at the latest
  // branch end, so the caller pays the slowest branch, not the sum. No
  // event runs inside a branch: a Run* call there aborts. An event a
  // branch schedules is stamped on that branch's clock and fires in
  // (when, seq) order with everything else queued. A tracer span opened
  // inside a branch would overlap its siblings', so callers bracket the
  // whole Overlap in one span instead.
  template <typename F>
  void Overlap(size_t branches, F&& branch) {
    const SimTime start = now_;
    SimTime end = start;
    const bool outer = in_branch_;
    in_branch_ = true;
    for (size_t i = 0; i < branches; ++i) {
      now_ = start;
      branch(i);
      end = std::max(end, now_);
    }
    in_branch_ = outer;
    now_ = end;
  }

  size_t pending_events() const { return queue_.size(); }

  // Arena/scheduler introspection for benches and regression tests (the
  // no-unbounded-growth and zero-alloc-steady-state contracts).
  struct SchedulerStats {
    size_t pending = 0;         // live scheduled events
    size_t arena_slabs = 0;     // slabs ever allocated (monotone)
    size_t arena_capacity = 0;  // nodes across all slabs
    size_t arena_free = 0;      // nodes on the freelist
    uint64_t heap_callables = 0;  // events whose captures spilled to heap
  };
  SchedulerStats scheduler_stats() const {
    SchedulerStats s;
    s.pending = queue_.size();
    s.arena_slabs = arena_.slabs();
    s.arena_capacity = arena_.capacity();
    s.arena_free = arena_.free_nodes();
    s.heap_callables = heap_callables_;
    return s;
  }

 private:
  // Advances the clock to a popped node's timestamp, runs its callable in
  // place, then recycles the node. A synchronous Advance() may have moved
  // the clock past the event's timestamp; never move the clock backwards.
  // Nested scheduling from inside the callable allocates fresh nodes; this
  // one is not on the freelist until after invoke returns, so its storage
  // stays stable.
  void FireNode(sim_internal::EventNode* n) {
    if (n->when > now_) {
      now_ = n->when;
    }
    n->invoke(n);
    arena_.Recycle(n);
  }

  [[noreturn]] static void RejectRunInBranch();

  template <typename F>
  sim_internal::EventNode* ScheduleNode(SimTime when, F&& fn) {
    if (when < now_) {
      when = now_;
    }
    sim_internal::EventNode* n = arena_.Acquire();
    n->when = when;
    n->seq = next_seq_++;
    sim_internal::ConstructCallable(n, std::forward<F>(fn));
    if (n->heap_callable) {
      heap_callables_++;
    }
    queue_.Insert(n);
    return n;
  }

  SimTime now_ = 0;
  bool in_branch_ = false;  // inside an Overlap branch: running is refused
  uint64_t next_seq_ = 0;
  uint64_t heap_callables_ = 0;
  sim_internal::EventArena arena_;
  sim_internal::EventQueue queue_;
};

}  // namespace splitft

#endif  // SRC_SIM_SIMULATION_H_
