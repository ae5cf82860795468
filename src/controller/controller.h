// The NCL controller (§4.3, §4.7): a metadata service built on the znode
// store. It tracks registered log peers under /peers, application peer
// assignments (the ap-map) under /apps, per-application epochs for the
// space-leak GC protocol (§4.5.1), and the single-instance server lease
// under /servers (ephemeral znodes, first-creation-wins).
//
// Every public call charges one controller round trip on the virtual clock,
// modeling the quorum-committed ZooKeeper operation.
#ifndef SRC_CONTROLLER_CONTROLLER_H_
#define SRC_CONTROLLER_CONTROLLER_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/controller/znode_store.h"
#include "src/obs/obs.h"
#include "src/rdma/fabric.h"
#include "src/sim/params.h"
#include "src/sim/simulation.h"

namespace splitft {

// Administrative peer lifecycle state recorded in the registry. DRAINING
// peers stay readable (resident regions keep serving until migrated off)
// but are skipped by GetPeers so no new region lands on them.
enum class PeerState : uint8_t {
  kActive = 0,
  kDraining = 1,
};

const char* PeerStateName(PeerState state);

struct PeerRecord {
  std::string name;
  NodeId node = kInvalidNode;  // fabric address for QP setup
  uint64_t available_bytes = 0;
  PeerState state = PeerState::kActive;
};

// One ap-map entry: the peers assigned to an (application, ncl-file) pair,
// stamped with the application epoch in force when it was written.
//
// Erasure-coded files additionally record their stripe geometry: ec_k data
// + ec_m parity shards of ec_stripe_unit-byte chunks, with `peers[i]`
// holding shard i (slot order IS shard-role order). ec_k == 0 means plain
// replication. Geometry rides under the same epoch fence as the peer set:
// changing it without a bump is rejected like any membership mutation.
struct ApMapEntry {
  uint64_t epoch = 0;
  std::vector<std::string> peers;
  uint32_t ec_k = 0;
  uint32_t ec_m = 0;
  uint32_t ec_stripe_unit = 0;

  bool SameMembership(const ApMapEntry& o) const {
    return peers == o.peers && ec_k == o.ec_k && ec_m == o.ec_m &&
           ec_stripe_unit == o.ec_stripe_unit;
  }
};

class Controller {
 public:
  // Application state (/apps epochs + ap-maps, /servers leases) is
  // hash-partitioned by app_id across kNumShards znode trees so thousands
  // of tenants do not serialize on one tree; the peer registry (/peers)
  // stays global. Every app maps to exactly one shard and the epoch fence
  // is per (app, file), so the fencing argument is unaffected by the shard
  // count (DESIGN.md §14).
  static constexpr int kNumShards = 8;

  // Registry keys: "controller.rpc.count" / "controller.rpc.timeouts"
  // counters, per-shard "controller.shard.<i>.rpcs" counters, a
  // "controller.rpc.latency_ns" histogram, and a "controller.rpc" trace
  // span per round trip.
  Controller(Simulation* sim, const SimParams* params, ObsContext obs = {});

  // ---- Peer registry -----------------------------------------------------

  // A compute node registers itself as a log peer, advertising how much
  // spare memory it lends.
  Status RegisterPeer(const std::string& name, NodeId node, uint64_t bytes);
  Status UnregisterPeer(const std::string& name);
  // Peers update their advertised availability after (de)allocations.
  Status UpdatePeerMemory(const std::string& name, uint64_t bytes);
  // Asynchronous variant: the peer fires the update without anyone
  // waiting on it (§4.3 — controller availability is a stale hint).
  void UpdatePeerMemoryAsync(const std::string& name, uint64_t bytes);
  // Planned reconfiguration: flips the registry state of a peer. Draining
  // peers are excluded from GetPeers, so allocations avoid them while
  // resident regions migrate off.
  Status SetPeerState(const std::string& name, PeerState state);
  Result<PeerRecord> GetPeer(const std::string& name);

  // Returns up to `n` peers whose advertised available memory is at least
  // `min_bytes`, excluding `exclude` and any peer marked DRAINING. The
  // result is a *hint*: availability may be stale and a peer may reject
  // the allocation (§4.3).
  Result<std::vector<PeerRecord>> GetPeers(size_t n, uint64_t min_bytes,
                                           const std::set<std::string>& exclude);
  // The peer registry's zxid: it moves with every registration,
  // unregistration, availability update and state flip. Read without an
  // RPC, as a client holding a ZooKeeper watch on /peers learns of a
  // change; a GetPeers answer can only differ once it moved.
  uint64_t PeerRegistryZxid() const { return registry_.zxid(); }

  // ---- Application epochs (space-leak GC, §4.5.1) ------------------------

  // Increments (creating if needed) the application's epoch; called whenever
  // the application intends to update its ap-map. Returns the new epoch.
  Result<uint64_t> BumpAppEpoch(const std::string& app);
  Result<uint64_t> GetAppEpoch(const std::string& app);

  // ---- ap-map -------------------------------------------------------------

  // Writes the ap-map entry for (app, file). Mutations are epoch-fenced:
  // a write whose epoch is below the stored entry's is a stale writer and
  // is rejected (kFailedPrecondition), and a write that changes the peer
  // set without bumping the epoch — a bump-then-write protocol violation —
  // is rejected too. Identical same-epoch rewrites stay idempotent so
  // client retries are safe.
  Status SetApMap(const std::string& app, const std::string& file,
                  const ApMapEntry& entry);
  Result<ApMapEntry> GetApMap(const std::string& app, const std::string& file);
  Status DeleteApMap(const std::string& app, const std::string& file);
  // ncl files recorded for the application (used during app recovery).
  std::vector<std::string> ListAppFiles(const std::string& app);

  // ---- Single-instance server lease (§4.7) --------------------------------

  // Creates the ephemeral /servers/<app> znode. Only the first concurrent
  // caller succeeds; others get kAborted. Returns the session whose expiry
  // releases the lease.
  Result<SessionId> AcquireServerLease(const std::string& app);
  // Cooperative lease handover: atomically re-creates /servers/<app> under
  // a fresh session without waiting for the current one to expire. Fails
  // kFailedPrecondition unless `current` actually owns the lease, so a
  // stale predecessor cannot steal it back.
  Result<SessionId> TransferServerLease(const std::string& app,
                                        SessionId current);
  // Models the application process dying: its ephemeral znodes vanish.
  void ExpireSession(SessionId session);

  // ---- Fault injection (chaos harness) ------------------------------------

  // Outage window: while unavailable, every RPC still charges its round
  // trip on the virtual clock (the client waits out the timeout) but fails
  // kTimedOut. Models a controller quorum loss / leader election window.
  void SetUnavailable(bool unavailable) { unavailable_ = unavailable; }
  bool unavailable() const { return unavailable_; }
  // Convenience: outage that heals itself after `duration`. Returns the
  // Simulation cancellation token for the pending heal.
  uint64_t OutageFor(SimTime duration);

  // Test/diagnostic access.
  uint64_t rpc_count() const { return rpc_count_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  // The shard index `app` hashes to (stable FNV-1a, not std::hash — the
  // placement must be identical across processes and standard libraries).
  int ShardIndexFor(const std::string& app) const;
  Simulation* sim() const { return sim_; }

 private:
  void ChargeRpc();
  // The shard holding `app`'s /apps and /servers state; bumps the shard's
  // RPC counter (one count per addressed operation).
  ZnodeStore& ShardFor(const std::string& app);
  // Charges the round trip and reports kTimedOut during an outage window.
  // Every public RPC starts with RETURN_IF_ERROR(Rpc()) (or the Result
  // equivalent) so outages hit all control-plane paths uniformly.
  Status Rpc();
  static std::string EscapeFile(const std::string& file);
  static std::string UnescapeFile(const std::string& escaped);
  static std::string SerializePeer(NodeId node, uint64_t bytes,
                                   PeerState state);
  static bool ParsePeer(const std::string& data, NodeId* node,
                        uint64_t* bytes, PeerState* state);
  static std::string SerializeApMap(const ApMapEntry& entry);
  static bool ParseApMap(const std::string& data, ApMapEntry* entry);

  Simulation* sim_;
  const SimParams* params_;
  // Global peer registry (/peers).
  ZnodeStore registry_;
  // Hash-partitioned application trees (/apps, /servers), one per shard.
  // Session ids are namespaced per shard (shard i hands out i+1, i+1+n,
  // ...) so ExpireSession routes by (session - 1) % n.
  std::vector<ZnodeStore> shards_;
  uint64_t rpc_count_ = 0;
  bool unavailable_ = false;

  ObsContext obs_;
  Counter* c_rpcs_;
  Counter* c_rpc_timeouts_;
  Counter* c_apmap_fenced_;
  std::vector<Counter*> c_shard_rpcs_;
  Histogram* h_rpc_ns_;
};

}  // namespace splitft

#endif  // SRC_CONTROLLER_CONTROLLER_H_
