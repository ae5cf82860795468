// Explicit-state model checker for the NCL replication and recovery
// protocols (§4.6). The model abstracts an append-only ncl file as a
// sequence of numbered writes; each write becomes two per-peer WR
// deliveries (data then sequence-number header — or the reverse under the
// injected bug). The checker enumerates every interleaving of:
//   * WR deliveries on each peer,
//   * application-issued writes (up to a bound),
//   * peer crashes and replacements,
//   * application crashes and recoveries (with every f+1-subset of
//     responding peers as the recovery quorum),
// and asserts the §4.6 correctness condition after every recovery:
// everything acknowledged (or previously recovered and externalized) is
// recovered again, in order and without holes.
//
// Re-introducible bugs from the paper, each of which the checker must
// catch:
//   * bug_seq_before_data    — header WR posted before the data WR;
//   * bug_apmap_before_catchup — replacement peer recorded in the ap-map
//                                before being caught up;
//   * bug_skip_recovery_catchup — lagging peers not caught up before the
//                                 recovered data is externalized;
//   * bug_migrate_stale_cutover — a planned migration cuts the ap-map over
//                                 to the target with only the snapshot-copy
//                                 prefix, skipping the suffix catch-up
//                                 (DESIGN.md §13's fencing argument);
//   * bug_replace_stale_cutover — a replacement marks its target caught up
//                                 to every issued write while it holds
//                                 only the snapshot prefix (an append
//                                 racing the copy never reaches it).
#ifndef SRC_MODELCHECK_MODEL_H_
#define SRC_MODELCHECK_MODEL_H_

#include <cstdint>
#include <string>

namespace splitft {

struct McConfig {
  int fault_budget = 1;      // f; n = 2f+1 member peers
  int spare_peers = 1;       // replacement pool
  int max_writes = 3;        // writes the application issues
  int max_peer_crashes = 1;
  int max_app_crashes = 2;
  // Erasure coding (DESIGN.md §16): ec_k > 0 switches the model to k+m
  // striped logging — n = ec_k + ec_m member peers, each holding one shard
  // stream, and a write is acknowledged once ec_k member holders carry its
  // header (late binding; fault_budget is ignored for the member count).
  // Recovery reconstructs from the top-k claimed sequence numbers of all
  // responding holders and recovers exactly the k-th largest claim.
  int ec_k = 0;
  int ec_m = 0;
  // One-sided RDMA outlives its initiator: WRs posted before an app crash
  // still deliver to alive peers, which is what makes the late-binding
  // window (acked at k, parity still in flight) peer-crash tolerant. true
  // models that laggard delivery by draining queued WRs to alive members
  // at app-crash time; false drops them with the app — under which even
  // the correct ack rule shows the window is not m-fault tolerant, so
  // crash configs must keep it true. The q = k-1 mutant below is caught
  // with drain off and no peer crashes (the pure pigeonhole theorem).
  bool ec_drain_on_crash = true;
  // Planned reconfigurations: live-region migrations (drain) the app may
  // run concurrently with writes and crashes. 0 keeps the pre-migration
  // state space.
  int max_migrations = 0;
  bool bug_seq_before_data = false;
  bool bug_apmap_before_catchup = false;
  bool bug_skip_recovery_catchup = false;
  bool bug_migrate_stale_cutover = false;
  bool bug_replace_stale_cutover = false;
  // EC mutant: acknowledge a write at k-1 shard headers instead of k. One
  // short of reconstructable — the checker must report externalized-write
  // loss (the bug_ec_ack_below_k theorem test).
  bool bug_ec_ack_below_k = false;
  uint64_t max_states = 10'000'000;  // exploration cap
};

struct McResult {
  uint64_t states_explored = 0;
  uint64_t transitions = 0;
  bool violation_found = false;
  std::string violation;       // first violation's description
  bool exhausted = false;      // full bounded state space explored
};

// Runs a breadth-first exploration and returns the outcome.
McResult CheckNcl(const McConfig& config);

}  // namespace splitft

#endif  // SRC_MODELCHECK_MODEL_H_
