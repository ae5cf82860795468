#include "perfbench/src/host_trace.h"

#include <cstdio>

namespace perfbench {

uint32_t HostTrace::Intern(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<uint32_t>(i);
    }
  }
  names_.emplace_back(name);
  stats_.emplace_back();
  return static_cast<uint32_t>(names_.size() - 1);
}

void HostTrace::Begin(uint32_t name) {
  uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back(Open{name, next_id_++, parent, op_, HostNowNs(), 0});
}

void HostTrace::End() {
  if (stack_.empty()) {
    return;
  }
  int64_t end = HostNowNs();
  Open span = stack_.back();
  stack_.pop_back();
  int64_t duration = end - span.start_ns;
  HostSpanStats& stats = stats_[span.name];
  stats.count++;
  stats.total_ns += duration;
  stats.self_ns += duration - span.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  HostSpanEvent event{span.name,   span.id,       span.parent,
                      span.op,     span.start_ns, end};
  if (ring_.size() < ring_capacity_) {
    ring_.push_back(event);
  } else if (ring_capacity_ > 0) {
    ring_[ring_next_] = event;
    ring_next_ = (ring_next_ + 1) % ring_capacity_;
  }
}

HostSpanStats HostTrace::Stats(std::string_view name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return stats_[i];
    }
  }
  return HostSpanStats{};
}

bool HostTrace::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  int64_t origin = 0;
  for (const HostSpanEvent& e : ring_) {
    if (origin == 0 || e.start_ns < origin) {
      origin = e.start_ns;
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
  // Oldest first: the ring wraps at ring_next_ once full.
  for (size_t i = 0; i < ring_.size(); ++i) {
    const HostSpanEvent& e = ring_[(ring_next_ + i) % ring_.size()];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"op\": %llu}}",
                 i == 0 ? "" : ",", names_[e.name].c_str(),
                 static_cast<double>(e.start_ns - origin) / 1e3,
                 static_cast<double>(e.end_ns - e.start_ns) / 1e3,
                 static_cast<unsigned long long>(e.id),
                 static_cast<unsigned long long>(e.parent),
                 static_cast<unsigned long long>(e.op));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
