#include "src/obs/obs.h"

#include <cstdint>
#include <string>

#include "src/common/logging.h"

namespace splitft {
namespace {
constexpr uint64_t kDiscardLogLimit = 16;
}  // namespace

void DiscardStatus(const ObsContext& obs, const Status& status,
                   std::string_view where) {
  static const std::string kDiscards = "common.status.discards";
  static const std::string kDiscardsNonOk = "common.status.discards_nonok";
  ObsAdd(obs.counter(kDiscards));
  if (status.ok()) {
    return;
  }
  Counter* nonok = obs.counter(kDiscardsNonOk);
  ObsAdd(nonok);
  if (nonok == nullptr || nonok->value() <= kDiscardLogLimit) {
    LOG_WARNING << "discarded status at " << where << ": "
                << status.ToString()
                << (nonok != nullptr && nonok->value() == kDiscardLogLimit
                        ? " (further discard logs suppressed)"
                        : "");
  }
}

}  // namespace splitft
