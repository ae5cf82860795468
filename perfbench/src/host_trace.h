// Host-time span recorder for the benchmark. Spans are recorded from the
// benchmark's own code around each call it makes into a layer's public
// functions; nothing inside the program under test is instrumented.
//
// The simulator is single-threaded and every call is synchronous, so spans
// nest strictly: a span's parent is the span open when it began, and its
// self time is its duration minus the durations of its direct children.
// Aggregates (count, total, self) cover every span; the event ring keeps
// only the newest `ring_capacity` spans for the exported trace file.
#ifndef PERFBENCH_SRC_HOST_TRACE_H_
#define PERFBENCH_SRC_HOST_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct HostSpanStats {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

struct HostSpanEvent {
  uint32_t name = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: root
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class HostTrace {
 public:
  HostTrace(bool enabled, size_t ring_capacity)
      : enabled_(enabled), ring_capacity_(ring_capacity) {}

  HostTrace(const HostTrace&) = delete;
  HostTrace& operator=(const HostTrace&) = delete;

  bool enabled() const { return enabled_; }

  // Span names are interned once; the hot path carries a small integer.
  uint32_t Intern(std::string_view name);

  // The operation id stamped on spans begun from now on.
  void set_op(uint64_t op) { op_ = op; }

  void Begin(uint32_t name);
  void End();

  // Aggregate for `name`, zeros when it never ran.
  HostSpanStats Stats(std::string_view name) const;

  // Writes the ring as Chrome trace-event JSON (ts/dur in microseconds,
  // parent and op ids under "args"). Returns false on an IO failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    uint32_t name;
    uint64_t id;
    uint64_t parent;
    uint64_t op;
    int64_t start_ns;
    int64_t child_ns;
  };

  bool enabled_;
  size_t ring_capacity_;
  uint64_t op_ = 0;
  uint64_t next_id_ = 1;
  std::vector<std::string> names_;
  std::vector<HostSpanStats> stats_;
  std::vector<Open> stack_;
  std::vector<HostSpanEvent> ring_;  // circular once full
  size_t ring_next_ = 0;
};

// RAII span; a disabled or null trace costs one branch.
class HostSpan {
 public:
  HostSpan(HostTrace* trace, uint32_t name)
      : trace_(trace != nullptr && trace->enabled() ? trace : nullptr) {
    if (trace_ != nullptr) {
      trace_->Begin(name);
    }
  }
  ~HostSpan() {
    if (trace_ != nullptr) {
      trace_->End();
    }
  }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  HostTrace* trace_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_TRACE_H_
