// The seed event scheduler, verbatim: a binary heap of heap-allocated
// std::function events with an unordered_set token table. Kept for two
// consumers only:
//
//   * tests/sim_test.cc — the scheduler-equivalence suite replays
//     randomized Schedule/ScheduleAt/Cancel/AdvanceTo workloads against
//     this reference and asserts the indexed-heap core fires the same
//     events at the same timestamps in the same order;
//   * bench/micro_sim.cc — the core's events/sec speedup is measured
//     against this implementation on the same machine in the same process.
//
// Do NOT use this in production code; Simulation (src/sim/simulation.h) is
// the scheduler. This class intentionally preserves the seed's quirks,
// including the token-table leak fixed by the generation-stamped arena: a
// token cancelled before its event fires is erased, but the dead wrapper
// event still occupies the queue, and tokens for events that never run
// (queue torn down, RunUntil stopping short) stay in live_tokens_ forever.
#ifndef SRC_SIM_REFERENCE_SCHEDULER_H_
#define SRC_SIM_REFERENCE_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"  // SimTime

namespace splitft {

class ReferenceScheduler {
 public:
  ReferenceScheduler() = default;
  ReferenceScheduler(const ReferenceScheduler&) = delete;
  ReferenceScheduler& operator=(const ReferenceScheduler&) = delete;

  SimTime Now() const { return now_; }

  void Schedule(SimTime delay, std::function<void()> fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  void ScheduleAt(SimTime when, std::function<void()> fn) {
    if (when < now_) {
      when = now_;
    }
    events_.push(Event{when, next_seq_++, std::move(fn)});
  }

  uint64_t ScheduleCancelableAt(SimTime when, std::function<void()> fn) {
    uint64_t token = next_token_++;
    live_tokens_.insert(token);
    ScheduleAt(when, [this, token, f = std::move(fn)] {
      if (live_tokens_.erase(token) > 0) {
        f();
      }
    });
    return token;
  }

  void Cancel(uint64_t token) { live_tokens_.erase(token); }

  bool RunOne() {
    if (events_.empty()) {
      return false;
    }
    Event ev = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    if (ev.when > now_) {
      now_ = ev.when;
    }
    ev.fn();
    return true;
  }

  void RunUntilIdle() {
    while (RunOne()) {
    }
  }

  void RunUntil(SimTime when) {
    while (!events_.empty() && events_.top().when <= when) {
      RunOne();
    }
    if (now_ < when) {
      now_ = when;
    }
  }

  void AdvanceTo(SimTime when) {
    if (when > now_) {
      now_ = when;
    }
  }
  void Advance(SimTime delta) { AdvanceTo(now_ + delta); }

  size_t pending_events() const { return events_.size(); }
  size_t live_token_count() const { return live_tokens_.size(); }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_token_ = 1;
  std::unordered_set<uint64_t> live_tokens_;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
};

}  // namespace splitft

#endif  // SRC_SIM_REFERENCE_SCHEDULER_H_
