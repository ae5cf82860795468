#include "src/obs/metrics.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace splitft {
namespace {

// Appends printf-formatted text of any length to *out.
__attribute__((format(printf, 2, 3))) void AppendFormat(std::string* out,
                                                        const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list measure;
  va_copy(measure, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  const size_t at = out->size();
  out->resize(at + static_cast<size_t>(n) + 1);
  std::vsnprintf(out->data() + at, static_cast<size_t>(n) + 1, fmt, args);
  out->resize(at + static_cast<size_t>(n));
  va_end(args);
}

}  // namespace

Counter* MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  const Counter* c = FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{";
  const char* sep = "";
  for (const auto& [name, c] : counters_) {
    AppendFormat(&out, "%s\"%s\": %" PRIu64, sep, name.c_str(), c->value());
    sep = ", ";
  }
  for (const auto& [name, g] : gauges_) {
    AppendFormat(&out, "%s\"%s\": %" PRId64, sep, name.c_str(), g->value());
    sep = ", ";
  }
  for (const auto& [name, h] : histograms_) {
    AppendFormat(&out,
                 "%s\"%s\": {\"count\": %" PRIu64
                 ", \"mean\": %.1f, \"p50\": %.1f, \"p95\": %.1f, "
                 "\"p99\": %.1f, \"max\": %" PRId64 "}",
                 sep, name.c_str(), h->count(), h->Mean(), h->P50(),
                 h->Percentile(0.95), h->P99(), h->max());
    sep = ", ";
  }
  out += "}";
  return out;
}

}  // namespace splitft
