#include "src/sim/simulation.h"

#include <cstdlib>

#include "src/common/logging.h"

namespace splitft {

using sim_internal::EventNode;

void Simulation::Cancel(uint64_t token) {
  uint64_t slot_plus_one = token >> 32;
  if (slot_plus_one == 0) {
    return;
  }
  EventNode* n = arena_.NodeForSlot(slot_plus_one - 1);
  if (n == nullptr || n->generation != static_cast<uint32_t>(token)) {
    return;  // already fired/cancelled (generation bumped) or never existed
  }
  queue_.CancelNode(n, &arena_);
}

void Simulation::RejectRunInBranch() {
  // A branch models one actor's synchronous work; running events there
  // would fire them on a clock its sibling branches have already left.
  LOG_ERROR << "Simulation: events cannot run inside an Overlap branch";
  std::abort();
}

}  // namespace splitft
