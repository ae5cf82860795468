// deeplint fixture: every determinism text rule violated once, every
// violation suppressed. This file must lint clean — any finding here means
// suppression handling regressed. status-discard is suppressed file-wide
// to mirror the real-world case (src/common/logging.h, where the cast
// lives inside a multi-line macro and a same-line comment is impossible).
//
// deeplint: allow-file(status-discard) fixture for allow-file handling
#include <chrono>
#include <random>
#include <unordered_map>

namespace fixture {

void WallClock() {
  // Same-line suppression.
  auto t0 = std::chrono::steady_clock::now();  // deeplint: allow(wall-clock) fixture: bounds a real-time watchdog, never feeds sim state
}

void RawRandom() {
  // Preceding-line suppression.
  // deeplint: allow(raw-random) fixture: seeding material only
  std::random_device rd;
}

struct Exporter {
  std::unordered_map<int, int> table_;
  long Total() {
    long sum = 0;
    // deeplint: allow(unordered-iter) fixture: order-insensitive reduction
    for (const auto& kv : table_) {
      sum += kv.second;
    }
    return sum;
  }
};

void MetricNames(Registry* reg) {
  reg->counter("x");  // deeplint: allow(metric-name) fixture: API unit test
}

void StatusDiscards(File* f) {
  (void)f->Sync();  // covered by the allow-file(status-discard) above
}

// The one sanctioned use of allow(stale-allow): parking a suppression
// across a refactor that lands in the same PR stack.
void ParkedAcrossRefactor() {
  // deeplint: allow(stale-allow) fixture: parked across a refactor
  int y = 0;  // deeplint: allow(raw-random) parked
  (void)y;
}

}  // namespace fixture
