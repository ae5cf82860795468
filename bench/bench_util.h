// Shared reporting helpers for the paper-reproduction benches. Each bench
// binary regenerates one table or figure from the paper and prints the
// same rows/series the paper reports (§5), in virtual time — and emits the
// same data machine-readably as BENCH_<name>.json via bench::Reporter, so
// plots and regression checks don't scrape stdout.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/obs/trace.h"

namespace splitft {
namespace bench {

inline void Title(const std::string& what) {
  std::printf("\n==== %s ====\n", what.c_str());
}

inline void Note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
}

inline void Rule() {
  std::printf(
      "  ------------------------------------------------------------------"
      "\n");
}

// CI smoke mode: SPLITFT_BENCH_SMOKE=1 shrinks every bench to seconds so
// the bench-smoke ctest label can build, run, and schema-validate the JSON
// of all binaries on each change.
inline bool SmokeFromEnv() {
  const char* env = std::getenv("SPLITFT_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// One reported measurement series: a distribution (count/mean/percentiles)
// plus free-form scalars and a per-layer sim-time breakdown derived from
// tracer spans. Everything lands under one entry of the "series" array in
// BENCH_<name>.json.
struct BenchSeries {
  std::string name;
  std::string unit;  // of mean/p50/p95/p99/max ("us", "s", "KOps/s", ...)
  uint64_t count = 0;
  double mean = 0, p50 = 0, p95 = 0, p99 = 0, max = 0;
  std::vector<std::pair<std::string, double>> scalars;
  std::vector<std::pair<std::string, double>> layers;  // span name -> ns

  // Distribution from a latency histogram; `scale` converts the recorded
  // virtual ns into `unit` (1e-3 for us, 1e-9 for s).
  BenchSeries& FromHistogram(const Histogram& h, double scale = 1.0) {
    count = h.count();
    mean = h.Mean() * scale;
    p50 = h.P50() * scale;
    p95 = h.P95() * scale;
    p99 = h.P99() * scale;
    max = static_cast<double>(h.max()) * scale;
    return *this;
  }

  // Degenerate distribution for single-valued measurements (a recovery
  // time, a throughput point): every percentile is the value.
  BenchSeries& FromValue(double v, uint64_t n = 1) {
    count = n;
    mean = p50 = p95 = p99 = max = v;
    return *this;
  }

  BenchSeries& Scalar(const std::string& key, double value) {
    scalars.emplace_back(key, value);
    return *this;
  }

  // Per-layer breakdown from a span window (SpanDiff of two tracer
  // snapshots). Scoped spans contribute their *self* time — summed, they
  // partition the traced interval with nothing double counted. Async spans
  // (fabric WRs) overlap scoped spans and are skipped.
  BenchSeries& LayersFromSpans(const std::map<std::string, SpanStats>& window) {
    for (const auto& [span_name, stats] : window) {
      if (!stats.async && stats.self > 0) {
        layers.emplace_back(span_name, static_cast<double>(stats.self));
      }
    }
    return *this;
  }
};

// Fraction of `elapsed` attributed to named scoped spans in a window —
// the ≥95%-coverage acceptance check for fig8/fig11.
inline double AttributedFraction(const std::map<std::string, SpanStats>& window,
                                 SimTime elapsed) {
  if (elapsed <= 0) {
    return 0.0;
  }
  SimTime self = 0;
  for (const auto& [name, stats] : window) {
    static_cast<void>(name);  // structured binding: only stats is used
    if (!stats.async) {
      self += stats.self;
    }
  }
  return static_cast<double>(self) / static_cast<double>(elapsed);
}

// Collects series and writes BENCH_<name>.json (schema_version 1) into the
// working directory. The benches keep printing their human-readable tables;
// this is the machine-readable twin.
class Reporter {
 public:
  explicit Reporter(std::string bench_name)
      : bench_(std::move(bench_name)), smoke_(SmokeFromEnv()) {}

  bool smoke() const { return smoke_; }
  // Iteration scaling: the full count normally, the tiny count in smoke.
  uint64_t Iters(uint64_t full, uint64_t tiny) const {
    return smoke_ ? tiny : full;
  }

  BenchSeries& AddSeries(const std::string& name, const std::string& unit) {
    series_.emplace_back();
    series_.back().name = name;
    series_.back().unit = unit;
    return series_.back();
  }

  // Embeds a MetricsRegistry::ToJson() dump under the "metrics" key.
  void SetMetricsJson(std::string json) { metrics_json_ = std::move(json); }

  // Writes BENCH_<bench>.json; returns false (with a stderr note) on IO
  // failure so benches can exit nonzero under CI.
  bool WriteJson() const {
    std::string path = "BENCH_" + bench_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"schema_version\": 1,\n  \"bench\": \"%s\",\n",
                 Escape(bench_).c_str());
    std::fprintf(f, "  \"smoke\": %s,\n  \"series\": [",
                 smoke_ ? "true" : "false");
    for (size_t i = 0; i < series_.size(); ++i) {
      const BenchSeries& s = series_[i];
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"unit\": \"%s\", ",
                   i == 0 ? "" : ",", Escape(s.name).c_str(),
                   Escape(s.unit).c_str());
      std::fprintf(f, "\"count\": %llu, ",
                   static_cast<unsigned long long>(s.count));
      std::fprintf(f,
                   "\"mean\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s, "
                   "\"max\": %s,\n",
                   Num(s.mean).c_str(), Num(s.p50).c_str(), Num(s.p95).c_str(),
                   Num(s.p99).c_str(), Num(s.max).c_str());
      WriteMap(f, "scalars", s.scalars);
      std::fprintf(f, ",\n");
      WriteMap(f, "layers", s.layers);
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ],\n  \"metrics\": %s\n}\n",
                 metrics_json_.empty() ? "{}" : metrics_json_.c_str());
    std::fclose(f);
    std::printf("  wrote %s (%zu series)\n", path.c_str(), series_.size());
    return true;
  }

 private:
  static std::string Escape(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
      }
      out.push_back(c);
    }
    return out;
  }

  // JSON has no NaN/Inf; clamp to 0 (benches produce them only from empty
  // histograms).
  static std::string Num(double v) {
    if (!(v == v) || v > 1e300 || v < -1e300) {
      v = 0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  static void WriteMap(
      std::FILE* f, const char* key,
      const std::vector<std::pair<std::string, double>>& entries) {
    std::fprintf(f, "     \"%s\": {", key);
    for (size_t i = 0; i < entries.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                   Escape(entries[i].first).c_str(),
                   Num(entries[i].second).c_str());
    }
    std::fprintf(f, "}");
  }

  std::string bench_;
  bool smoke_;
  std::vector<BenchSeries> series_;
  std::string metrics_json_;
};

}  // namespace bench
}  // namespace splitft

#endif  // BENCH_BENCH_UTIL_H_
