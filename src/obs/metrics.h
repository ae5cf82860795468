// MetricsRegistry: the unified observability surface for every SplitFT
// layer (the api_redesign companion to the sim-time Tracer).
//
// Components register named counters / gauges / histograms under
// hierarchical "layer.component.metric" keys ("fabric.wr.writes_posted",
// "ncl.client.release_failures", "dfs.client.fsyncs", ...). A component
// looks its instruments up once at construction and holds the returned
// pointer — pointers are stable for the registry's lifetime, so the hot
// path is a single add on a cached pointer.
//
// The registry replaces the previous scatter of per-component stats
// structs as the only measurement surface: the old NclStats,
// RecoveryBreakdown and FabricStats shims are deleted outright (the fabric
// counts into "fabric.wr.*" keys).
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/common/histogram.h"

namespace splitft {

// Monotonic event count. Cheap enough for WR-grain hot paths.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

// Last-write-wins instantaneous value (queue depths, alive-peer counts).
class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Null-safe increment helpers: instrument pointers are nullptr on layers
// constructed without an ObsContext, and call sites stay branch-light.
inline void ObsAdd(Counter* c, uint64_t n = 1) {
  if (c != nullptr) {
    c->Add(n);
  }
}
inline void ObsSet(Gauge* g, int64_t v) {
  if (g != nullptr) {
    g->Set(v);
  }
}
inline void ObsRecord(Histogram* h, int64_t value_ns) {
  if (h != nullptr) {
    h->Add(value_ns);
  }
}

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Create-on-first-use; returned pointers are stable for the registry's
  // lifetime. Counters, gauges, and histograms live in separate namespaces
  // but sharing one name across kinds is a bug worth avoiding.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  // Read-only lookup: nullptr when the instrument was never registered.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }

  // Machine-readable export (the bench reporter embeds this under its
  // "metrics" key): {"name": value, ...} for counters and gauges plus
  // {"name": {count, mean, p50, p95, p99, max}} for histograms.
  std::string ToJson() const;

  // Counter value or 0 when absent; convenient for assertions.
  uint64_t CounterValue(const std::string& name) const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace splitft

#endif  // SRC_OBS_METRICS_H_
