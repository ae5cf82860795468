// ObsContext: the one observability handle injected at construction time.
// The testbed / harness owns a MetricsRegistry and a Tracer and passes this
// (by value — it is two pointers) down through every layer. Components must
// tolerate both pointers being null: instruments resolve to nullptr and the
// Obs* helpers / ObsSpan no-op.
#ifndef SRC_OBS_OBS_H_
#define SRC_OBS_OBS_H_

#include <string_view>

#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace splitft {

struct ObsContext {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;

  // Instrument lookups that tolerate a null registry, so components can
  // unconditionally resolve their cached pointers at construction.
  Counter* counter(const std::string& name) const {
    return metrics == nullptr ? nullptr : metrics->counter(name);
  }
  Gauge* gauge(const std::string& name) const {
    return metrics == nullptr ? nullptr : metrics->gauge(name);
  }
  Histogram* histogram(const std::string& name) const {
    return metrics == nullptr ? nullptr : metrics->histogram(name);
  }
};

// The only sanctioned way to drop a Status on the floor (status.h). Every
// call adds to obs.metrics' "common.status.discards", and one that drops a
// real error to "common.status.discards_nonok" too. A non-OK discard is
// logged at WARNING while that registry has counted at most 16 of them.
// With no registry nothing is counted and every non-OK discard is logged.
void DiscardStatus(const ObsContext& obs, const Status& status,
                   std::string_view where);
template <typename T>
void DiscardStatus(const ObsContext& obs, const Result<T>& result,
                   std::string_view where) {
  DiscardStatus(obs, status_internal::AsStatus(result), where);
}

}  // namespace splitft

#endif  // SRC_OBS_OBS_H_
