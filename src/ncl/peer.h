// A log peer (§4.3): any compute node lending spare memory to the NCL pool.
// The peer runs a lightweight control-plane process handling region setup,
// recovery lookups, release, and the atomic catch-up switch; the data path
// is one-sided RDMA and involves no peer CPU.
#ifndef SRC_NCL_PEER_H_
#define SRC_NCL_PEER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/status.h"
#include "src/controller/controller.h"
#include "src/obs/obs.h"
#include "src/rdma/fabric.h"

namespace splitft {

// What an application gets back from a successful allocation or recovery
// lookup: everything needed to address the region with one-sided RDMA.
struct AllocationGrant {
  RKey rkey = 0;
  uint64_t region_bytes = 0;
};

// Lifecycle state reported through the "ncl.peer.<name>.state" gauge so
// operators can watch a drain progress. Values are the gauge encoding.
enum class LogPeerState : int {
  kActive = 0,
  kDraining = 1,
  kDead = 2,
};

class LogPeer {
 public:
  // `lend_bytes` is how much spare memory this node contributes to the pool.
  // `obs` wires the per-peer state / regions_resident / slab gauges into a
  // shared registry; defaulted so infrastructure-only tests need no
  // registry.
  LogPeer(std::string name, Fabric* fabric, Controller* controller,
          uint64_t lend_bytes, ObsContext obs = {});

  // Registers the peer on the controller. Must be called before the peer
  // can be handed to applications.
  Status Start();

  const std::string& name() const SPLITFT_LIFETIMEBOUND { return name_; }
  NodeId node() const { return node_; }
  bool alive() const { return alive_; }
  bool draining() const { return draining_; }
  uint64_t available_bytes() const { return available_bytes_; }
  size_t active_regions() const { return mr_map_.size(); }
  // Slab-pool occupancy: total bytes pinned + NIC-registered as slabs, and
  // the bytes of those slabs currently carved out as tenant regions. Also
  // exported as the "ncl.peer.<name>.slab_bytes" / ".slab_used_bytes"
  // gauges — the flat-occupancy assertion of bench/fig14_tenants.
  uint64_t slab_bytes() const { return slab_bytes_total_; }
  uint64_t slab_used_bytes() const;

  // ---- Planned drain (reconfiguration) -----------------------------------

  // Marks the peer DRAINING here and on the controller: new region
  // allocations are rejected locally (belt and braces — GetPeers already
  // filters draining peers) while resident regions keep serving until the
  // application migrates them off. Staged catch-up allocations for regions
  // the peer already holds remain allowed.
  Status StartDrain();
  // Returns the peer to ACTIVE (a cancelled or completed drain).
  Status EndDrain();

  // ---- Control-plane RPCs from ncl-lib (charge setup RPC latency) --------

  // Sets up a memory region for (app, file). `epoch` is the application
  // epoch in force (space-leak GC, §4.5.1). The controller's availability
  // numbers are hints, so this can reject with kResourceExhausted.
  // Re-allocation for an existing (app, file) frees the old region first
  // (fresh creation after an incomplete delete).
  Result<AllocationGrant> Allocate(const std::string& app,
                                   const std::string& file,
                                   uint64_t region_bytes, uint64_t epoch);

  // Recovery lookup (§4.5.1): returns the grant if this peer still holds
  // the region; rejects if the peer crashed and lost its mr-map.
  Result<AllocationGrant> LookupForRecovery(const std::string& app,
                                            const std::string& file);

  // Frees the region when the application deletes the ncl file.
  Status Release(const std::string& app, const std::string& file);

  // ---- Atomic catch-up (§4.5.1) ------------------------------------------

  // Allocates a staging region the application will fill with the recovered
  // contents. Not visible to recovery until SwitchRegion commits it.
  Result<AllocationGrant> AllocateCatchupRegion(const std::string& app,
                                                const std::string& file,
                                                uint64_t region_bytes,
                                                uint64_t epoch);
  // Like AllocateCatchupRegion but seeds the staging region with a local
  // copy of the current region's contents, so the application only ships a
  // bytewise diff (§4.5.1 optimization).
  Result<AllocationGrant> CloneRegionForCatchup(const std::string& app,
                                                const std::string& file,
                                                uint64_t epoch);
  // Atomically repoints the mr-map entry at the staging region and frees
  // the old one. After this, recovery sees only the new region.
  Status SwitchRegion(const std::string& app, const std::string& file,
                      RKey staged_rkey);

  // ---- Failure & reclamation ----------------------------------------------

  // Memory revocation at the peer's will (§4.5.2): local and instantaneous;
  // subsequent RDMA on the region fails and the app treats it as a peer
  // failure.
  Status Revoke(const std::string& app, const std::string& file);

  // Crash: loses all regions and the in-memory mr-map.
  void Crash();
  // Restart with empty memory; re-registers on the controller.
  Status Restart();

  // ---- Space-leak GC (§4.5.1) ----------------------------------------------

  // Scans the mr-map and frees allocations whose application has moved on:
  // a region of a peer the file's ap-map does not name, once the ap-map's
  // epoch reached the region's (members keep theirs), or, with no ap-map,
  // once the app's epoch passed it. `min_age` guards in-progress allocations (an allocation made at the
  // app's current epoch whose ap-map write has not landed yet looks
  // identical to a leaked one; the paper's protocol assumes the probe does
  // not race the initialization, which we make explicit with a grace
  // period). Returns the number of regions freed.
  int RunLeakGc(SimTime min_age = Millis(50));

 private:
  // One carve out of the slab pool: which slab, at what offset. The carve
  // is its own fabric region (own rkey over zero-filled memory) so every
  // invalidation/crash/switch semantic is identical to a standalone MR;
  // the slab only provides the cheap-registration accounting.
  struct Carve {
    RKey rkey = 0;
    int slab = -1;
    uint64_t offset = 0;
  };

  struct MrEntry {
    Carve region;
    // Staged catch-up region; staged.rkey != 0 while a switch is pending.
    Carve staged;
    uint64_t region_bytes = 0;
    uint64_t epoch = 0;
    SimTime allocated_at = 0;
  };

  // One pinned + NIC-registered slab with a first-fit extent allocator
  // (offset -> length, coalesced on free) tracking the carved tenant
  // regions. The slab pays MrRegisterLatency once; carves pay only the
  // memory-window bind.
  struct Slab {
    uint64_t bytes = 0;
    uint64_t used = 0;
    std::map<uint64_t, uint64_t> free;  // offset -> extent length
  };

  using MrKey = std::pair<std::string, std::string>;  // (app, file)

  Status CheckAlive() const;
  void ChargeRpc();
  // Carves `region_bytes` out of the slab pool, registering a new slab when
  // no existing extent fits (kResourceExhausted when the lend budget cannot
  // cover a new slab either).
  Result<Carve> CarveRegion(uint64_t region_bytes);
  // Returns a carve's extent of `len` region bytes to its slab's free list
  // (coalescing with neighbours) and drops the fabric region backing it.
  void FreeCarve(const Carve& carve, uint64_t len);
  // Frees an entry's region and any staged one, crediting availability.
  void FreeEntry(const MrEntry& entry);
  Result<AllocationGrant> AllocateInternal(const std::string& app,
                                           const std::string& file,
                                           uint64_t region_bytes,
                                           uint64_t epoch, bool staging,
                                           bool clone_existing);
  void UpdateAvailabilityOnController();
  // Refreshes the state / regions_resident / slab gauges after any
  // lifecycle or mr-map mutation.
  void UpdateGauges();

  std::string name_;
  Fabric* fabric_;
  Controller* controller_;
  NodeId node_;
  uint64_t lend_bytes_;
  uint64_t available_bytes_;
  bool alive_ = false;
  bool draining_ = false;
  std::map<MrKey, MrEntry> mr_map_;
  // The slab pool. Slabs are only appended (indices stay stable) and are
  // all dropped together on Crash.
  std::vector<Slab> slabs_;
  uint64_t slab_bytes_total_ = 0;

  ObsContext obs_;
  Gauge* g_state_ = nullptr;
  Gauge* g_regions_ = nullptr;
  Gauge* g_slab_bytes_ = nullptr;
  Gauge* g_slab_used_ = nullptr;
};

}  // namespace splitft

#endif  // SRC_NCL_PEER_H_
