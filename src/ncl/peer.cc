#include "src/ncl/peer.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/ncl/region_format.h"

namespace splitft {

namespace {
// Slab granularity (capped at lend_bytes; a slab still grows to the region
// being carved): big enough that the paper's common 64 MiB region costs the
// same one-time registration as the seed's per-region MR setup, while
// thousands of small tenant regions amortize onto it.
constexpr uint64_t kSlabBytes = 64ull << 20;
}  // namespace

LogPeer::LogPeer(std::string name, Fabric* fabric, Controller* controller,
                 uint64_t lend_bytes, ObsContext obs)
    : name_(std::move(name)),
      fabric_(fabric),
      controller_(controller),
      lend_bytes_(lend_bytes),
      available_bytes_(lend_bytes),
      obs_(obs) {
  // Per-peer instruments, "ncl.peer.<name>.*" (same per-instance naming as
  // the dfs per-server counters).
  std::string prefix = "ncl.peer." + name_;
  g_state_ = obs_.gauge(prefix + ".state");
  g_regions_ = obs_.gauge(prefix + ".regions_resident");
  g_slab_bytes_ = obs_.gauge(prefix + ".slab_bytes");
  g_slab_used_ = obs_.gauge(prefix + ".slab_used_bytes");
  node_ = fabric_->AddNode(name_);
  UpdateGauges();
}

uint64_t LogPeer::slab_used_bytes() const {
  uint64_t used = 0;
  for (const Slab& slab : slabs_) {
    used += slab.used;
  }
  return used;
}

Status LogPeer::Start() {
  alive_ = true;
  UpdateGauges();
  return controller_->RegisterPeer(name_, node_, available_bytes_);
}

Status LogPeer::CheckAlive() const {
  if (!alive_) {
    return UnavailableError("log peer " + name_ + " is down");
  }
  return OkStatus();
}

void LogPeer::UpdateGauges() {
  LogPeerState state = LogPeerState::kDead;
  if (alive_) {
    state = draining_ ? LogPeerState::kDraining : LogPeerState::kActive;
  }
  ObsSet(g_state_, static_cast<int64_t>(state));
  ObsSet(g_regions_, static_cast<int64_t>(mr_map_.size()));
  ObsSet(g_slab_bytes_, static_cast<int64_t>(slab_bytes_total_));
  ObsSet(g_slab_used_, static_cast<int64_t>(slab_used_bytes()));
}

Status LogPeer::StartDrain() {
  RETURN_IF_ERROR(CheckAlive());
  draining_ = true;
  UpdateGauges();
  return controller_->SetPeerState(name_, PeerState::kDraining);
}

Status LogPeer::EndDrain() {
  RETURN_IF_ERROR(CheckAlive());
  draining_ = false;
  UpdateGauges();
  return controller_->SetPeerState(name_, PeerState::kActive);
}

void LogPeer::ChargeRpc() {
  fabric_->sim()->Advance(fabric_->params().rdma.setup_rpc_latency);
}

Result<LogPeer::Carve> LogPeer::CarveRegion(uint64_t region_bytes) {
  // First fit across existing slabs, index order (determinism): the pinned
  // memory is already NIC-registered, so a hit here skips MR setup entirely
  // (§4.3's "recycle the memory region", generalized to arbitrary sizes).
  int slab_idx = -1;
  uint64_t offset = 0;
  for (int i = 0; i < static_cast<int>(slabs_.size()) && slab_idx < 0; ++i) {
    for (const auto& [off, len] : slabs_[i].free) {
      if (len >= region_bytes) {
        slab_idx = i;
        offset = off;
        break;
      }
    }
  }
  if (slab_idx < 0) {
    // No extent fits: pin + register a fresh slab, paying the expensive MR
    // setup once for every carve that will land in it.
    uint64_t slab_bytes =
        std::max(std::min(lend_bytes_, kSlabBytes), region_bytes);
    uint64_t lendable = lend_bytes_ - std::min(lend_bytes_, slab_bytes_total_);
    slab_bytes = std::min(slab_bytes, lendable);
    if (slab_bytes < region_bytes) {
      return ResourceExhaustedError("peer " + name_ +
                                    " slab pool cannot grow by " +
                                    std::to_string(region_bytes) + " bytes");
    }
    fabric_->sim()->Advance(
        fabric_->params().MrRegisterLatency(slab_bytes));
    Slab slab;
    slab.bytes = slab_bytes;
    slab.free[0] = slab_bytes;
    slabs_.push_back(std::move(slab));
    slab_bytes_total_ += slab_bytes;
    slab_idx = static_cast<int>(slabs_.size()) - 1;
    offset = 0;
  }
  auto rkey = fabric_->BindWindowRegion(node_, region_bytes);
  if (!rkey.ok()) {
    return rkey.status();
  }
  Slab& slab = slabs_[slab_idx];
  auto it = slab.free.find(offset);
  uint64_t extent = it->second;
  slab.free.erase(it);
  if (extent > region_bytes) {
    slab.free[offset + region_bytes] = extent - region_bytes;
  }
  slab.used += region_bytes;
  return Carve{*rkey, slab_idx, offset};
}

void LogPeer::FreeCarve(const Carve& carve, uint64_t len) {
  // Deregistration of an already-dead region may legitimately fail.
  DiscardStatus(obs_, fabric_->DeregisterRegion(node_, carve.rkey),
                "LogPeer::FreeCarve deregister");
  if (carve.slab < 0 || carve.slab >= static_cast<int>(slabs_.size())) {
    return;
  }
  Slab& slab = slabs_[carve.slab];
  slab.used -= std::min(slab.used, len);
  auto [it, inserted] = slab.free.emplace(carve.offset, len);
  if (!inserted) {
    return;  // double free; the extent is already on the list
  }
  // Coalesce with the successor, then the predecessor, so steady-state
  // churn of same-size tenants never fragments the slab.
  auto next = std::next(it);
  if (next != slab.free.end() && it->first + it->second == next->first) {
    it->second += next->second;
    slab.free.erase(next);
  }
  if (it != slab.free.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      slab.free.erase(it);
    }
  }
}

void LogPeer::FreeEntry(const MrEntry& entry) {
  FreeCarve(entry.region, entry.region_bytes);
  available_bytes_ += entry.region_bytes;
  if (entry.staged.rkey != 0) {
    FreeCarve(entry.staged, entry.region_bytes);
    available_bytes_ += entry.region_bytes;
  }
}

void LogPeer::UpdateAvailabilityOnController() {
  // Step 4a in Fig 4: fired asynchronously — nobody blocks on it, which is
  // exactly why the controller's availability numbers are stale hints.
  controller_->UpdatePeerMemoryAsync(name_, available_bytes_);
}

Result<AllocationGrant> LogPeer::AllocateInternal(
    const std::string& app, const std::string& file, uint64_t region_bytes,
    uint64_t epoch, bool staging, bool clone_existing) {
  RETURN_IF_ERROR(CheckAlive());
  ChargeRpc();
  MrKey key{app, file};
  auto it = mr_map_.find(key);

  if (staging || clone_existing) {
    if (it == mr_map_.end()) {
      return NotFoundError("no region to stage catch-up for " + file);
    }
    if (clone_existing) {
      region_bytes = it->second.region_bytes;
    }
  } else if (draining_) {
    // A draining peer declines fresh regions (the controller filter should
    // already have steered the allocator away; this catches stale hints).
    // Staged catch-up for regions the peer still holds is fine.
    return ResourceExhaustedError("peer " + name_ +
                                  " is draining; no new regions");
  } else if (it != mr_map_.end()) {
    // Fresh creation over a stale entry: free the old region first.
    FreeEntry(it->second);
    mr_map_.erase(it);
    it = mr_map_.end();
  }

  if (region_bytes > available_bytes_) {
    // The controller's availability figure was stale (§4.3): reject; the
    // application will retry with a different peer.
    return ResourceExhaustedError("peer " + name_ + " lacks " +
                                  std::to_string(region_bytes) + " bytes");
  }
  // Carve the region out of the slab pool: the common case binds a memory
  // window over already-pinned slab memory (§5.4.3's recycled-region fast
  // path, generalized to many tenants per slab); only a pool-growth carve
  // pays the full MR registration, once per slab.
  Result<Carve> carve = CarveRegion(region_bytes);
  if (!carve.ok()) {
    return carve.status();
  }
  available_bytes_ -= region_bytes;
  UpdateAvailabilityOnController();

  if (staging || clone_existing) {
    MrEntry& entry = mr_map_[key];
    if (entry.staged.rkey != 0) {
      // Abandoned previous staging attempt; best-effort cleanup.
      FreeCarve(entry.staged, entry.region_bytes);
      available_bytes_ += entry.region_bytes;
    }
    entry.staged = *carve;
    if (clone_existing) {
      // Local memcpy of the current contents into the staging region; the
      // application then ships only the bytewise diff.
      RETURN_IF_ERROR(
          fabric_->CopyRegion(node_, entry.region.rkey, carve->rkey));
    }
    UpdateGauges();
    return AllocationGrant{carve->rkey, region_bytes};
  }

  MrEntry entry;
  entry.region = *carve;
  entry.region_bytes = region_bytes;
  entry.epoch = epoch;
  entry.allocated_at = fabric_->sim()->Now();
  mr_map_[key] = entry;
  UpdateGauges();
  return AllocationGrant{carve->rkey, region_bytes};
}

Result<AllocationGrant> LogPeer::Allocate(const std::string& app,
                                          const std::string& file,
                                          uint64_t region_bytes,
                                          uint64_t epoch) {
  return AllocateInternal(app, file, region_bytes, epoch, /*staging=*/false,
                          /*clone_existing=*/false);
}

Result<AllocationGrant> LogPeer::AllocateCatchupRegion(
    const std::string& app, const std::string& file, uint64_t region_bytes,
    uint64_t epoch) {
  return AllocateInternal(app, file, region_bytes, epoch, /*staging=*/true,
                          /*clone_existing=*/false);
}

Result<AllocationGrant> LogPeer::CloneRegionForCatchup(const std::string& app,
                                                       const std::string& file,
                                                       uint64_t epoch) {
  return AllocateInternal(app, file, /*region_bytes=*/0, epoch,
                          /*staging=*/false, /*clone_existing=*/true);
}

Result<AllocationGrant> LogPeer::LookupForRecovery(const std::string& app,
                                                   const std::string& file) {
  RETURN_IF_ERROR(CheckAlive());
  ChargeRpc();
  auto it = mr_map_.find(MrKey{app, file});
  if (it == mr_map_.end()) {
    // The peer crashed and recovered (or never held the region): reject so
    // the recovering application does not count us toward its quorum.
    return NotFoundError("peer " + name_ + " does not hold " + file);
  }
  return AllocationGrant{it->second.region.rkey, it->second.region_bytes};
}

Status LogPeer::Release(const std::string& app, const std::string& file) {
  RETURN_IF_ERROR(CheckAlive());
  ChargeRpc();
  auto it = mr_map_.find(MrKey{app, file});
  if (it == mr_map_.end()) {
    return NotFoundError("peer " + name_ + " does not hold " + file);
  }
  FreeEntry(it->second);
  mr_map_.erase(it);
  UpdateGauges();
  UpdateAvailabilityOnController();
  return OkStatus();
}

Status LogPeer::SwitchRegion(const std::string& app, const std::string& file,
                             RKey staged_rkey) {
  RETURN_IF_ERROR(CheckAlive());
  ChargeRpc();
  auto it = mr_map_.find(MrKey{app, file});
  if (it == mr_map_.end() || it->second.staged.rkey != staged_rkey) {
    return FailedPreconditionError("no matching staged region for " + file);
  }
  // The switch is the atomic commit point: recovery lookups now return the
  // caught-up region; the old region's extent goes back to the slab pool.
  FreeCarve(it->second.region, it->second.region_bytes);
  available_bytes_ += it->second.region_bytes;
  it->second.region = std::exchange(it->second.staged, Carve{});
  it->second.allocated_at = fabric_->sim()->Now();
  UpdateGauges();
  return OkStatus();
}

Status LogPeer::Revoke(const std::string& app, const std::string& file) {
  RETURN_IF_ERROR(CheckAlive());
  // Local and instantaneous: no RPC, no distributed coordination (§4.5.2).
  auto it = mr_map_.find(MrKey{app, file});
  if (it == mr_map_.end()) {
    return NotFoundError("peer " + name_ + " does not hold " + file);
  }
  // The reclaimed memory goes back to the host machine (for its VMs or
  // other processes), not to the lending pool: availability is *not*
  // credited, so the allocator deprioritizes this peer.
  // Invalidation of a region on a crashed node is a no-op failure; the
  // revoke must still complete so the memory is reclaimed locally.
  DiscardStatus(obs_,
                fabric_->InvalidateRegion(node_, it->second.region.rkey),
                "LogPeer::Revoke invalidate");
  if (it->second.staged.rkey != 0) {
    DiscardStatus(obs_,
                  fabric_->InvalidateRegion(node_, it->second.staged.rkey),
                  "LogPeer::Revoke invalidate staged");
  }
  // The carve's slab extent is NOT returned to the free list either: the
  // host took the physical pages, so the slab permanently loses that range
  // (it stays "used" in the occupancy gauges).
  lend_bytes_ -= std::min(lend_bytes_, it->second.region_bytes);
  mr_map_.erase(it);
  UpdateGauges();
  UpdateAvailabilityOnController();
  return OkStatus();
}

void LogPeer::Crash() {
  alive_ = false;
  draining_ = false;
  mr_map_.clear();  // the mr-map lives in (volatile) peer memory
  // Slabs are volatile DRAM too: the pool is gone (a restarted peer
  // re-pins and re-registers from scratch).
  slabs_.clear();
  slab_bytes_total_ = 0;
  available_bytes_ = lend_bytes_;
  fabric_->CrashNode(node_);
  UpdateGauges();
  // A crashed peer cannot update the controller; its stale registration
  // remains until it restarts or an operator removes it.
}

Status LogPeer::Restart() {
  fabric_->RestartNode(node_);
  alive_ = true;
  draining_ = false;  // RegisterPeer re-lands the registry record ACTIVE
  UpdateGauges();
  return controller_->RegisterPeer(name_, node_, available_bytes_);
}

int LogPeer::RunLeakGc(SimTime min_age) {
  if (!alive_) {
    return 0;
  }
  SimTime now = fabric_->sim()->Now();
  int freed = 0;
  for (auto it = mr_map_.begin(); it != mr_map_.end();) {
    const auto& [app, file] = it->first;
    MrEntry& entry = it->second;
    if (now - entry.allocated_at < min_age) {
      ++it;
      continue;
    }
    bool free_it = false;
    auto apmap = controller_->GetApMap(app, file);
    if (apmap.ok()) {
      // A peer the ap-map names keeps its region, whatever the region's
      // epoch: a replacement bumps the ap-map's past the survivors', and a
      // recovery's region switch keeps the old one. A non-member's region
      // was abandoned once the ap-map reached its epoch; one newer than
      // the ap-map belongs to an update still in progress.
      const bool member = std::find(apmap->peers.begin(), apmap->peers.end(),
                                    name_) != apmap->peers.end();
      free_it = !member && apmap->epoch >= entry.epoch;
    } else {
      // No ap-map entry for the file. Compare against the app-wide epoch:
      // if the app has moved past our allocation epoch it will never record
      // us, so the space leaked (§4.5.1).
      auto app_epoch = controller_->GetAppEpoch(app);
      if (app_epoch.ok() && *app_epoch > entry.epoch) {
        free_it = true;
      }
    }
    if (free_it) {
      FreeEntry(entry);
      it = mr_map_.erase(it);
      freed++;
    } else {
      ++it;
    }
  }
  if (freed > 0) {
    UpdateGauges();
    UpdateAvailabilityOnController();
  }
  return freed;
}

}  // namespace splitft
