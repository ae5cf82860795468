// deeplint fixture: one (or more) positive case per determinism text rule.
// Every line marked `// deeplint-expect: <rule>` must produce exactly that
// finding; any other finding fails the self-test. This file is never
// compiled — it only has to look enough like C++ for the line scanner.
#include <chrono>
#include <random>
#include <unordered_map>

namespace fixture {

void WallClock() {
  auto t0 = std::chrono::steady_clock::now();  // deeplint-expect: wall-clock
  auto t1 = std::chrono::system_clock::now();  // deeplint-expect: wall-clock
  struct timeval tv;
  gettimeofday(&tv, nullptr);  // deeplint-expect: wall-clock
  long stamp = time(nullptr);  // deeplint-expect: wall-clock
}

void RawRandom() {
  std::random_device rd;  // deeplint-expect: raw-random
  std::mt19937 gen(42);   // deeplint-expect: raw-random
  srand(7);               // deeplint-expect: raw-random
  int x = std::rand;      // deeplint-expect: raw-random
  // A digit separator is not a char literal: the rest of the line is code.
  constexpr int kN = 1'000; std::mt19937 gen2(kN);  // deeplint-expect: raw-random
}

struct Exporter {
  std::unordered_map<int, int> table_;
  void Dump() {
    for (const auto& kv : table_) {  // deeplint-expect: unordered-iter
      Emit(kv);
    }
  }
};

void MetricNames(Registry* reg, Tracer* tracer) {
  reg->counter("appends");          // deeplint-expect: metric-name
  reg->gauge("ncl.inflight");       // deeplint-expect: metric-name
  reg->histogram("Ncl.Append.Ns");  // deeplint-expect: metric-name
  tracer->Begin("recover");         // deeplint-expect: metric-name
  tracer->AddAsyncSpan("w", 0, 1);  // deeplint-expect: metric-name
  ObsSpan span(tracer, "x");        // deeplint-expect: metric-name
}

void StatusDiscards(File* f) {
  (void)f->Sync();               // deeplint-expect: status-discard
  static_cast<void>(f->Close()); // deeplint-expect: status-discard
  // A void cast of a plain variable is fine: nothing discardable.
  int unused = 0;
  (void)unused;
}

void NotViolations(Registry* reg, Tracer* tracer) {
  // Mentions in comments and strings must not fire: steady_clock,
  // std::mt19937, (void)f->Sync().
  const char* doc = "uses system_clock and std::rand internally";
  // A raw string ends only at )", so its inner quote opens nothing.
  const char* raw = R"(one " steady_clock)";
  reg->counter("ncl.append.count");
  tracer->Begin("ncl.recover");
}

// An unknown rule name in a suppression is itself a finding.
// deeplint: allow(no-such-rule) typo  // deeplint-expect: suppression

// A suppression whose rule no longer fires on the covered line is dead
// weight and a finding of its own.
void NothingToSuppress() {
  int x = 0;  // deeplint: allow(wall-clock) dead  // deeplint-expect: stale-allow
  (void)x;
}

}  // namespace fixture
