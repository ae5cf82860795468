#include "src/ncl/ncl_client.h"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "src/common/logging.h"

namespace splitft {
namespace {

// How many allocation candidates to try before giving up (§4.3: the
// controller's availability is a hint; peers may reject).
constexpr int kAllocationAttempts = 8;

// The fabric's spare buffer key of `app_id`'s log `file`.
std::string SpareKey(const std::string& app_id, const std::string& file) {
  return app_id + '\0' + file;
}

// Contiguous ranges where `a` and `b` differ (b is the target content).
// Nearby ranges are merged so each becomes one WR.
struct DiffRange {
  uint64_t offset;
  uint64_t len;
};

std::vector<DiffRange> ComputeDiffRanges(std::string_view a,
                                         std::string_view b) {
  constexpr uint64_t kMergeGap = 64;
  std::vector<DiffRange> out;
  uint64_t n = b.size();
  uint64_t i = 0;
  while (i < n) {
    bool differs = i >= a.size() || a[i] != b[i];
    if (!differs) {
      ++i;
      continue;
    }
    uint64_t start = i;
    uint64_t last_diff = i;
    ++i;
    while (i < n) {
      bool d = i >= a.size() || a[i] != b[i];
      if (d) {
        last_diff = i;
        ++i;
      } else if (i - last_diff <= kMergeGap) {
        ++i;
      } else {
        break;
      }
    }
    out.push_back(DiffRange{start, last_diff - start + 1});
  }
  return out;
}

}  // namespace

// ----------------------------------------------------------------- Client --

NclClient::NclClient(NclConfig config, Fabric* fabric, Controller* controller,
                     PeerDirectory* directory, NodeId node, ObsContext obs)
    : config_(std::move(config)),
      geometry_(config_.geometry()),
      fabric_(fabric),
      controller_(controller),
      directory_(directory),
      node_(node),
      rng_(config_.rng_seed),
      obs_(obs),
      c_release_failures_(obs.counter("ncl.client.release_failures")),
      c_suspect_retries_(obs.counter("ncl.client.suspect_retries")),
      c_transient_recoveries_(obs.counter("ncl.client.transient_recoveries")),
      c_permanent_demotions_(obs.counter("ncl.client.permanent_demotions")),
      c_controller_rpc_retries_(
          obs.counter("ncl.client.controller_rpc_retries")),
      c_directory_lookup_retries_(
          obs.counter("ncl.client.directory_lookup_retries")),
      c_records_(obs.counter("ncl.record.count")),
      c_record_bytes_(obs.counter("ncl.record.bytes")),
      c_peers_replaced_(obs.counter("ncl.client.peers_replaced")),
      c_suffix_reposts_(obs.counter("ncl.client.suffix_reposts")),
      c_regions_migrated_(obs.counter("ncl.client.regions_migrated")),
      c_ec_repairs_(obs.counter("ncl.ec.repairs")),
      g_ec_degraded_(obs.gauge("ncl.ec.degraded_stripes")),
      g_inflight_(obs.gauge("ncl.append.inflight")),
      h_record_ns_(obs.histogram("ncl.record.latency_ns")),
      h_recover_ns_(obs.histogram("ncl.recover.latency_ns")) {
  if (config_.pool != nullptr) {
    pool_ = config_.pool;
  } else {
    owned_pool_ = std::make_unique<NclConnectionPool>(fabric_, node_,
                                                      NclPoolOptions{}, obs_);
    pool_ = owned_pool_.get();
  }
  pool_->RegisterClient();
  init_status_ = ValidateConfig();
}

Status NclClient::ValidateConfig() {
  if (!config_.ec_enabled) {
    return OkStatus();
  }
  RETURN_IF_ERROR(ValidateEcGeometry(config_.ec));
  if (static_cast<int>(config_.ec.m) < config_.fault_budget) {
    return InvalidArgumentError(
        "ec: m=" + std::to_string(config_.ec.m) +
        " parity shards cannot cover fault_budget f=" +
        std::to_string(config_.fault_budget) + "; need m >= f");
  }
  // Geometry vs registry: k+m distinct peers must exist or every Create
  // would only fail later, at allocation time, with a misleading
  // kUnavailable. The registry query is best effort — if the controller is
  // in an outage window the check is skipped rather than guessed.
  auto peers = RetryControllerRpc([&] {
    return controller_->GetPeers(config_.ec.shards(), 0, {});
  });
  if (!peers.ok() && peers.status().code() == StatusCode::kUnavailable) {
    return InvalidArgumentError(
        "ec: geometry k+m=" + std::to_string(config_.ec.shards()) +
        " exceeds the reachable log peers (" + peers.status().message() +
        ")");
  }
  return OkStatus();
}

NclClient::~NclClient() {
  // Sever any NclFile handles that outlive the client (an app object torn
  // down after its crashed server was replaced): drop their pooled QPs
  // while the pool still exists and orphan them so their destructor does
  // not reach back into this client. An orphaned file rejects every
  // subsequent operation with kFailedPrecondition.
  for (NclFile* file : open_files_) {
    file->slots_.clear();
    file->deleted_ = true;
    file->client_ = nullptr;
  }
  pool_->UnregisterClient();
}

LogPeer* NclClient::LookupPeerWithRetry(const std::string& name) {
  return RetryUnderPolicy(
      fabric_->sim(), config_.retry, &rng_,
      [&] { return directory_->Lookup(name); },
      [](const LogPeer* peer) { return peer == nullptr; },
      c_directory_lookup_retries_);
}

Result<std::pair<LogPeer*, AllocationGrant>> NclClient::AllocateOnFreshPeer(
    const std::string& file, uint64_t region_bytes, uint64_t epoch,
    const std::set<std::string>& exclude, bool* spare_missing) {
  std::set<std::string> tried = exclude;
  // Whether every candidate skipped so far was crashed: an unreachable
  // setup process or a rejecting peer may serve a later try unannounced.
  bool only_crashed = true;
  for (int attempt = 0; attempt < kAllocationAttempts; ++attempt) {
    auto peers = RetryControllerRpc(
        [&] { return controller_->GetPeers(1, region_bytes, tried); });
    if (!peers.ok()) {
      if (spare_missing != nullptr) {
        // A controller outage times out instead.
        *spare_missing = only_crashed &&
                         peers.status().code() == StatusCode::kUnavailable;
      }
      return peers.status();
    }
    const PeerRecord& rec = (*peers)[0];
    tried.insert(rec.name);
    LogPeer* peer = directory_->Lookup(rec.name);
    if (peer == nullptr || !peer->alive()) {
      // Stale controller registration (peer crashed without unregistering),
      // or a setup process unreachable for now.
      only_crashed = only_crashed && peer != nullptr;
      continue;
    }
    auto grant = peer->Allocate(config_.app_id, file, region_bytes, epoch);
    if (grant.ok()) {
      return std::make_pair(peer, *grant);
    }
    // The controller's availability was a hint; the peer rejected (§4.3).
    only_crashed = false;
  }
  return UnavailableError("no log peer could grant " +
                          std::to_string(region_bytes) + " bytes for " + file);
}

Result<std::unique_ptr<NclFile>> NclClient::Create(const std::string& file,
                                                   uint64_t capacity) {
  if (!init_status_.ok()) {
    return init_status_;
  }
  if (capacity == 0) {
    capacity = config_.default_capacity;
  }
  if (Exists(file)) {
    return AlreadyExistsError("ncl file exists: " + file);
  }
  // Epoch bump: we intend to update the ap-map (§4.5.1).
  auto epoch =
      RetryControllerRpc([&] { return controller_->BumpAppEpoch(config_.app_id); });
  if (!epoch.ok()) {
    return epoch.status();
  }
  std::unique_ptr<NclFile> out(new NclFile(this, file, capacity));
  out->epoch_ = *epoch;

  uint64_t region_bytes = geometry_.SlotRegionBytes(capacity);
  std::set<std::string> used;  // n distinct peers
  for (int i = 0; i < geometry_.n(); ++i) {
    auto got = AllocateOnFreshPeer(file, region_bytes, *epoch, used);
    if (!got.ok()) {
      // Partial allocations leak until the peers' GC notices the epoch has
      // no recorded ap-map entry (tested in ncl_gc tests).
      return got.status();
    }
    auto [peer, grant] = *got;
    out->slots_.push_back(out->MakeSlot(peer->name(), static_cast<uint32_t>(i),
                                        peer, grant.rkey));
    used.insert(peer->name());
  }
  out->RefreshPeerNames();
  RETURN_IF_ERROR(out->WriteApMap());
  return out;
}

Result<DeleteReport> NclClient::DeleteWithReport(const std::string& file) {
  auto apmap = RetryControllerRpc(
      [&] { return controller_->GetApMap(config_.app_id, file); });
  if (!apmap.ok()) {
    return apmap.status();
  }
  std::vector<LogPeer*> holders;
  for (const std::string& name : apmap->peers) {
    LogPeer* peer = LookupPeerWithRetry(name);
    if (peer != nullptr && peer->alive()) {
      holders.push_back(peer);
    }
  }
  return DeleteOn(file, holders);
}

Result<DeleteReport> NclClient::DeleteOn(const std::string& file,
                                         const std::vector<LogPeer*>& holders) {
  DeleteReport report;
  for (LogPeer* peer : holders) {
    report.peers_attempted++;
    Status released = peer->Release(config_.app_id, file);
    if (released.ok()) {
      report.peers_released++;
      continue;
    }
    // The region leaks until the peer's epoch GC reclaims it; that is
    // tolerable, silently losing the signal is not.
    report.release_failures++;
    ObsAdd(c_release_failures_);
    LOG_WARNING << "release of " << file << " on " << peer->name()
                << " failed: " << released.message();
  }
  Status removed = RetryControllerRpc(
      [&] { return controller_->DeleteApMap(config_.app_id, file); });
  fabric_->DropSpareBuffer(SpareKey(config_.app_id, file));
  RETURN_IF_ERROR(removed);
  return report;
}

std::vector<std::string> NclClient::ListFiles() {
  return controller_->ListAppFiles(config_.app_id);
}

bool NclClient::Exists(const std::string& file) {
  return RetryControllerRpc(
             [&] { return controller_->GetApMap(config_.app_id, file); })
      .ok();
}

Result<std::unique_ptr<NclFile>> NclClient::Recover(const std::string& file) {
  if (!init_status_.ok()) {
    return init_status_;
  }
  Simulation* sim = fabric_->sim();
  SimTime recover_start = sim->Now();

  // The four phases are contiguous sim-time windows: each span begins
  // where the previous ended, so their durations sum exactly to the
  // end-to-end recovery latency (asserted in obs_test) — the Tracer's
  // "ncl.recover.*" spans are the canonical recovery breakdown.
  ObsSpan recover_span(obs_.tracer, "ncl.recover");

  // Phase 1: peer list from the controller.
  auto apmap = [&] {
    ObsSpan phase(obs_.tracer, "ncl.recover.get_peers");
    return RetryControllerRpc(
        [&] { return controller_->GetApMap(config_.app_id, file); });
  }();
  if (!apmap.ok()) {
    return apmap.status();
  }
  // Mode fence: the ap-map records the geometry the file was written with;
  // recovering it under a different one would misinterpret every region.
  RETURN_IF_ERROR(geometry_.CheckApMap(*apmap, file));

  // Phase 2: contact the peers; each either grants the region or rejects
  // (it crashed and lost its mr-map, §4.5.1).
  std::unique_ptr<NclFile> out(new NclFile(this, file, 0));
  {
    ObsSpan phase(obs_.tracer, "ncl.recover.connect");
    for (const std::string& name : apmap->peers) {
      const auto role = static_cast<uint32_t>(out->slots_.size());
      LogPeer* peer = LookupPeerWithRetry(name);
      Result<AllocationGrant> grant =
          peer != nullptr && peer->alive()
              ? peer->LookupForRecovery(config_.app_id, file)
              : Result<AllocationGrant>(UnavailableError(name + " is down"));
      if (!grant.ok()) {
        out->slots_.push_back(out->MakeSlot(name, role));  // dead
        continue;
      }
      out->slots_.push_back(out->MakeSlot(name, role, peer, grant->rkey));
      out->capacity_ =
          std::max(out->capacity_, geometry_.CapacityOf(grant->region_bytes));
    }
    if (out->alive_peers() < geometry_.ack_quorum()) {
      // Too many peers lost the region (more than f replicas / more than m
      // shards): correctly make the file unavailable rather than lose
      // acknowledged writes (§4.2).
      return UnavailableError("only " + std::to_string(out->alive_peers()) +
                              " of " + std::to_string(geometry_.n()) +
                              " peers hold " + file);
    }
  }

  // Phase 3: read the header of every reachable peer, claim the freshest
  // state an ack quorum guarantees, and rebuild it from the claim's sources.
  {
    ObsSpan phase(obs_.tracer, "ncl.recover.rdma_read");
    std::vector<NclFile::PeerSlot*> reading;
    for (NclFile::PeerSlot& slot : out->slots_) {
      if (slot.alive) {
        out->PostRead(&slot, slot.rkey, 0, geometry_.header_bytes());
        reading.push_back(&slot);
      }
    }
    // A slot whose read fails is dead; keep waiting for the others. A
    // stalled simulation leaves the stragglers unanswered.
    NclFile::PeerSlot* failed = nullptr;
    while (!out->AwaitInflight(reading, &failed).ok() && failed != nullptr) {
      failed->alive = false;
      std::erase(reading, failed);
      failed = nullptr;
    }
    std::vector<NclGeometry::Responder> responders;
    for (NclFile::PeerSlot* slot : reading) {
      if (!slot->landed) {
        continue;
      }
      NclGeometry::Responder r{slot->role, 0, 0};
      if (!geometry_.DecodeHeader(*slot->landed, r.role, &r.seq, &r.length)) {
        slot->alive = false;  // stale or foreign region
        continue;
      }
      responders.push_back(r);
    }
    if (static_cast<int>(responders.size()) < geometry_.ack_quorum()) {
      return UnavailableError(
          "fewer than " + std::to_string(geometry_.ack_quorum()) +
          " peers answered recovery reads");
    }
    NclGeometry::Claim claim = geometry_.ClaimFrom(std::move(responders));
    out->seq_ = claim.seq;
    out->length_ = claim.length;
    out->recovery_slot_ = static_cast<int>(claim.sources[0]);
    // The buffer this file's last handle left on the app node, already
    // paged in and with the room it had for appends: a replica's image
    // READ lands in it, a stripe's rebuild writes into it.
    std::string spare =
        fabric_->TakeSpareBuffer(SpareKey(config_.app_id, file), out->length_);
    if (out->length_ > 0) {
      const uint64_t image_bytes = geometry_.FullRange(out->length_).size();
      std::vector<NclFile::PeerSlot*> sources;
      for (uint32_t role : claim.sources) {
        NclFile::PeerSlot& slot = out->slots_[role];
        std::string landing =
            geometry_.striped() ? std::string() : std::exchange(spare, {});
        out->PostRead(&slot, slot.rkey, geometry_.header_bytes(), image_bytes,
                      std::move(landing));
        sources.push_back(&slot);
      }
      if (!out->AwaitInflight(sources).ok()) {
        return UnavailableError("recovery read of " + file + " failed");
      }
      std::vector<NclGeometry::SlotImage> images;
      for (NclFile::PeerSlot* slot : sources) {
        images.push_back({slot->role, std::move(*slot->landed)});
      }
      std::string rebuilt = std::move(spare);
      RETURN_IF_ERROR(
          geometry_.Rebuild(std::move(images), out->length_, &rebuilt));
      out->buffer_.Assign(std::move(rebuilt));
    }
    // Prefetch mode serves application reads from the rebuilt buffer (Fig
    // 11a); a slot that cannot serve logical reads forces it.
    out->serve_reads_locally_ =
        config_.prefetch_on_recovery || !geometry_.slot_serves_reads();
  }

  // Phase 4: catch every reachable peer up with the recovered state via
  // the atomic staged-region switch (all peers stage at once, the images
  // go out one slot after another, all peers switch at once), then replace
  // unreachable peers, then record the new ap-map. Only after this is it
  // safe to let the application act on the recovered data (§4.5.1).
  {
    ObsSpan phase(obs_.tracer, "ncl.recover.sync_peers");
    auto epoch = RetryControllerRpc(
        [&] { return controller_->BumpAppEpoch(config_.app_id); });
    if (!epoch.ok()) {
      return epoch.status();
    }
    out->epoch_ = *epoch;
    out->CatchUpViaStagedRegions();
    if (out->alive_peers() < geometry_.ack_quorum()) {
      return UnavailableError("peers failed during recovery catch-up");
    }
    // The recovered tail is quorum-durable by construction (catch-up
    // completed on an ack quorum), so the commit watermark starts there.
    out->committed_seq_ = out->seq_;
    for (NclFile::PeerSlot& slot : out->slots_) {
      if (!slot.alive) {
        // Best effort: maintain the fault-tolerance level. Failure here is
        // tolerable as long as an ack quorum is alive.
        DiscardStatus(obs_, out->ReplaceSlot(&slot),
                      "NclClient recovery slot replacement");
      }
    }
    out->RefreshPeerNames();
    RETURN_IF_ERROR(out->WriteApMap());
  }
  ObsRecord(h_recover_ns_, sim->Now() - recover_start);
  return out;
}

Status NclClient::MigrateOffPeer(const std::string& peer_name) {
  // Snapshot the registry: a migration never opens or closes files, but
  // iterating a copy keeps the loop robust against future re-entrancy.
  std::vector<NclFile*> files = open_files_;
  Status first_error = OkStatus();
  for (NclFile* file : files) {
    if (file->deleted_) {
      continue;
    }
    for (NclFile::PeerSlot& slot : file->slots_) {
      if (!slot.alive || slot.peer_name != peer_name) {
        continue;
      }
      Status st = file->MigrateSlot(&slot);
      if (st.code() == StatusCode::kAborted) {
        continue;  // superseded by a crash-driven replacement: nothing to do
      }
      if (!st.ok() && first_error.ok()) {
        first_error = st;
      }
    }
  }
  return first_error;
}

// ------------------------------------------------------------------- File --

NclFile::NclFile(NclClient* client, std::string name, uint64_t capacity)
    : client_(client),
      name_(std::move(name)),
      capacity_(capacity),
      acked_scratch_(static_cast<size_t>(client->geometry_.n())) {
  client_->open_files_.push_back(this);
}

NclFile::~NclFile() {
  if (client_ == nullptr) {
    return;  // orphaned: the owning client was destroyed first
  }
  auto& files = client_->open_files_;
  files.erase(std::remove(files.begin(), files.end(), this), files.end());
  if (!deleted_) {
    // Closed, not deleted: the log may be recovered, and its recovery
    // lands in this buffer (unless a slice still holds it).
    client_->fabric_->KeepSpareBuffer(
        SpareKey(client_->config_.app_id, name_), buffer_.Release());
  }
}

int NclFile::alive_peers() const {
  int alive = 0;
  for (const PeerSlot& slot : slots_) {
    if (slot.alive) {
      alive++;
    }
  }
  return alive;
}

void NclFile::RefreshPeerNames() {
  peer_names_.clear();
  for (const PeerSlot& slot : slots_) {
    peer_names_.push_back(slot.peer_name);
  }
}

Status NclFile::WriteApMap() {
  ApMapEntry entry;
  entry.epoch = epoch_;
  entry.peers = peer_names_;  // slot order is role order
  geo().Stamp(&entry);
  return client_->RetryControllerRpc([&] {
    return client_->controller_->SetApMap(client_->config_.app_id, name_,
                                          entry);
  });
}

NclFile::PeerSlot NclFile::MakeSlot(const std::string& name, uint32_t role,
                                    LogPeer* peer, RKey rkey) const {
  PeerSlot slot;
  slot.peer_name = name;
  slot.role = role;
  slot.alive = peer != nullptr;
  if (peer != nullptr) {
    slot.peer = peer;
    slot.node = peer->node();
    slot.rkey = rkey;
    slot.qp = client_->pool_->Connect(peer->node());
  }
  return slot;
}

bool NclFile::ResolveCompletions(PeerSlot* slot) {
  bool progressed = false;
  Completion c;
  while (!slot->wr_error && slot->qp->PollCq(&c)) {
    progressed = true;
    if (c.status != WcStatus::kSuccess) {
      slot->wr_error = c.status;
      break;
    }
    // The QP completes in post order, so this answers the front entry.
    if (slot->inflight.empty() || slot->inflight.front().first != c.wr_id) {
      continue;
    }
    const uint64_t commits = slot->inflight.front().second;
    slot->inflight.pop_front();
    if (commits > 0) {
      slot->acked_seq = commits;
      watermark_dirty_ = true;
    }
    if (c.read_data != nullptr) {
      // A READ: its landing buffer's storage, not a copy.
      slot->landed = std::move(*c.read_data);
    }
  }
  return progressed;
}

Status NclFile::AwaitInflight(const std::vector<PeerSlot*>& slots,
                              PeerSlot** failed) {
  // The last WR each slot had posted at the call: wr_ids grow with post
  // order, so a slot is done once its front entry (if any) is younger.
  std::vector<uint64_t> last(slots.size(), 0);
  for (size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i]->inflight.empty()) {
      last[i] = slots[i]->inflight.back().first;
    }
  }
  PeerSlot* failed_slot = nullptr;
  bool finished = client_->fabric_->sim()->RunUntilPredicate([&] {
    bool pending = false;
    for (size_t i = 0; i < slots.size(); ++i) {
      PeerSlot* slot = slots[i];
      if (slot->qp != nullptr) {
        ResolveCompletions(slot);
      }
      if (slot->wr_error || slot->qp == nullptr) {
        failed_slot = slot;
        return true;
      }
      pending = pending || (!slot->inflight.empty() &&
                            slot->inflight.front().first <= last[i]);
    }
    return !pending;
  });
  if (failed_slot != nullptr) {
    if (failed != nullptr) {
      *failed = failed_slot;
    }
    return UnavailableError("WR to " + failed_slot->peer_name + " failed");
  }
  if (!finished) {
    return UnavailableError("fabric stalled with WRs to " + name_ +
                            "'s peers pending");
  }
  return OkStatus();
}

void NclFile::PostRead(PeerSlot* slot, RKey rkey, uint64_t offset,
                       uint64_t len, std::string landing) {
  slot->landed.reset();
  slot->inflight.emplace_back(
      slot->qp->PostRead(rkey, offset, len, std::move(landing)), 0);
}

void NclFile::UpdateDegradedLag() {
  if (!geo().striped()) {
    return;
  }
  // How far the most-degraded slot trails the commit watermark. A dead
  // slot's acked_seq freezes where it died, so the lag grows while the
  // stripe set is degraded and snaps back once repair (ReplaceSlot)
  // re-encodes the shard onto a fresh peer.
  uint64_t min_acked = committed_seq_;
  for (const PeerSlot& slot : slots_) {
    min_acked = std::min(min_acked, std::min(slot.acked_seq, committed_seq_));
  }
  degraded_lag_ = committed_seq_ - min_acked;
}

Status NclFile::Append(std::string_view data) {
  return Record(length_, data);
}

Status NclFile::AppendAsync(std::string_view data) {
  return RecordAsync(length_, data);
}

Status NclFile::Drain() { return WaitFor(seq_); }

Status NclFile::Write(uint64_t offset, std::string_view data) {
  return Record(offset, data);
}

Status NclFile::Truncate() {
  // Reset the logical contents; the sequence number keeps increasing so
  // recovery still identifies the newest state.
  return Record(0, std::string_view());
}

Status NclFile::Record(uint64_t offset, std::string_view data) {
  RETURN_IF_ERROR(RecordAsync(offset, data));
  return WaitFor(seq_);
}

Status NclFile::RecordAsync(uint64_t offset, std::string_view data) {
  if (deleted_) {
    return FailedPreconditionError("ncl file was deleted: " + name_);
  }
  if (offset + data.size() > capacity_) {
    return ResourceExhaustedError("write past ncl capacity of " + name_);
  }
  const NclConfig& config = client_->config_;
  bool truncate = data.empty() && offset == 0;
  if (!geo().overwrite_allowed() && !truncate && offset < length_) {
    // Degraded striped recovery reconstructs the prefix from shard streams
    // at mixed sequence numbers; that is only column-consistent when writes
    // never go back over committed bytes (DESIGN.md §16). Truncate stays
    // legal — it is header-only.
    return InvalidArgumentError(
        "ec ncl files are append-only: positional overwrite at offset " +
        std::to_string(offset) + " < length " + std::to_string(length_) +
        " of " + name_);
  }
  ObsSpan record_span(client_->obs_.tracer, "ncl.record");
  ObsAdd(client_->c_records_);
  ObsAdd(client_->c_record_bytes_, data.size());
  SimTime record_start = client_->fabric_->sim()->Now();

  // Apply locally first (§4.4): the local buffer is also the catch-up
  // source for replacement peers.
  if (truncate) {
    buffer_.Clear();
    length_ = 0;
  } else {
    buffer_.Write(offset, data);
    length_ = std::max<uint64_t>(length_, offset + data.size());
  }
  seq_++;
  window_.push_back(WindowEntry{seq_, offset, data.size(), truncate,
                                record_start});
  watermark_dirty_ = true;
  const uint64_t header_bytes = geo().header_bytes();
  char header[kNclMaxHeaderBytes];

  for (PeerSlot& slot : slots_) {
    if (!slot.alive || slot.suspect) {
      // Suspect slots get the missing suffix on resurrection instead of
      // individual appends (their QP is down between attempts).
      continue;
    }
    // One WR chain per peer, one doorbell: the slot's bytes for the write,
    // then its header, in SQ order, so the header's arrival implies the
    // data's (§4.4). The last WR of the chain carries the seq the ack
    // commits. A replicated append stays on the stack — the chain post
    // copies payloads into the fabric's WR payload arena, so a steady-state
    // append performs no heap allocation. A short append can miss a data
    // lane entirely; that slot still gets the header WR so its watermark
    // advances.
    EncodeHeader(slot.role, header);
    std::string_view header_view(header, header_bytes);
    SlotRange range = truncate ? SlotRange{}
                               : geo().RangeFor(slot.role, offset, data.size());
    std::string_view payload;
    if (!range.empty()) {
      // A shard's bytes go to shard_scratch_: the chain post copies them
      // into the WR payload arena, so one scratch serves every slot of
      // every append. A replica's bytes are a view of buffer_.
      payload =
          geo().SlotBytes(slot.role, buffer_.view(), range, &shard_scratch_);
    }
    const uint64_t remote_offset = header_bytes + range.begin;
    // Data before header: a peer holding a header always holds its data.
    QueuePair::WriteOp ops[2];
    size_t nops = 0;
    if (!range.empty()) {
      ops[nops++] = QueuePair::WriteOp{slot.rkey, remote_offset, payload};
    }
    ops[nops++] = QueuePair::WriteOp{slot.rkey, 0, header_view};
    uint64_t ids[2];
    slot.qp->PostWriteChain(ops, nops, ids);
    for (size_t k = 0; k < nops; ++k) {
      slot.inflight.emplace_back(ids[k], k + 1 == nops ? seq_ : 0);
    }
  }

  // Bounded window: block until the oldest outstanding append commits once
  // `inflight_window` quorum rounds overlap. window = 1 degenerates to the
  // fully synchronous seed behaviour (WaitFor(seq_)). The configured window
  // is further capped by the pool's per-tenant carve of the node's shared
  // in-flight budget, so co-located tenants share the pooled send queues
  // fairly (DESIGN.md §14); with a single registered client the carve
  // (budget/1) is above any reasonable configured window and is a no-op.
  uint64_t window = static_cast<uint64_t>(std::max(
      1,
      std::min(config.inflight_window, client_->pool_->per_client_window())));
  if (seq_ - committed_seq_ >= window) {
    return WaitFor(seq_ - window + 1);
  }
  ObsSet(client_->g_inflight_,
         static_cast<int64_t>(seq_ - committed_seq_));
  return OkStatus();
}

Status NclFile::WaitFor(uint64_t seq) {
  if (deleted_) {
    return FailedPreconditionError("ncl file was deleted: " + name_);
  }
  uint64_t target = std::min(seq, seq_);
  if (committed_seq_ >= target) {
    return OkStatus();
  }
  const NclConfig& config = client_->config_;
  ObsSpan wait_span(client_->obs_.tracer, "ncl.record");

  // Wait until an ack quorum completed `target` and all before it.
  Simulation* sim = client_->fabric_->sim();
  while (committed_seq_ < target) {
    bool progressed = PumpCompletions();
    if (MaybeRetrySuspects()) {
      progressed = true;
    }
    AdvanceCommitWatermark();
    if (committed_seq_ >= target) {
      break;
    }
    if (alive_peers() < geo().ack_quorum()) {
      // Too many peers failed (more than f replicas, or more than m shard
      // holders): writes block until replacements are caught up
      // (§4.5.2). Replace just enough to regain an ack quorum; the rest
      // are replaced off the critical path below.
      ReplaceDeadSlots(geo().ack_quorum());
      if (alive_peers() < geo().ack_quorum()) {
        return UnavailableError("fewer than " +
                                std::to_string(geo().ack_quorum()) + " of " +
                                std::to_string(geo().n()) +
                                " log peers are available");
      }
      AdvanceCommitWatermark();  // replacements ack the full tail
      continue;
    }
    if (!progressed) {
      // If suspect slots are waiting out their backoff, run the fabric
      // only up to the earliest resurrection attempt — a far-future event
      // (say, a partition heal) must not leapfrog the retry schedule and
      // blow the deadline. Otherwise take the next event; if there is
      // none, the protocol is genuinely stuck.
      SimTime due = NextSuspectRetryAt();
      if (due >= 0) {
        sim->RunUntil(std::max(due, sim->Now()));
      } else if (!sim->RunOne()) {
        return InternalError("replication stalled with no pending events");
      }
    }
  }

  // Off the ack path: restore the fault-tolerance level eagerly. Expired
  // suspects are demoted first so they become eligible for replacement.
  if (config.eager_peer_replacement) {
    // Whether any suspect resurrected is irrelevant here; the loop below
    // replaces whatever is still down.
    MaybeRetrySuspects();
    ReplaceDeadSlots(geo().n());
    AdvanceCommitWatermark();
  }
  return OkStatus();
}

uint64_t NclFile::ComputeCommittedSeq() {
  // The quorum-th largest acked_seq among alive slots: that prefix has
  // landed, in order, on at least f+1 replicas — or, for a stripe, on the
  // first k of the k+m shard peers (late binding: the m slowest shards are
  // off the critical path). Monotonic — once durable on a quorum, a prefix
  // stays committed even if those slots die later (replacements only join
  // fully caught up).
  // acked_scratch_ holds one entry per slot (sized from geo().n() at
  // construction), so this never allocates.
  if (acked_scratch_.size() < slots_.size()) {
    acked_scratch_.resize(slots_.size());
  }
  auto end = acked_scratch_.begin();
  for (const PeerSlot& slot : slots_) {
    if (slot.alive) {
      *end++ = slot.acked_seq;
    }
  }
  const int maj = geo().ack_quorum();
  if (end - acked_scratch_.begin() < maj) {
    return committed_seq_;
  }
  std::nth_element(acked_scratch_.begin(), acked_scratch_.begin() + (maj - 1),
                   end, std::greater<uint64_t>());
  return std::max(committed_seq_, acked_scratch_[maj - 1]);
}

void NclFile::AdvanceCommitWatermark() {
  if (watermark_dirty_) {
    watermark_dirty_ = false;
    RaiseCommittedSeq();
    UpdateDegradedLag();
    PruneWindow();
  }
  // Re-asserted on every call, changed or not: the gauges are shared by
  // every tenant of the registry, so another file may have set them since.
  ObsSet(client_->g_inflight_, static_cast<int64_t>(seq_ - committed_seq_));
  if (geo().striped()) {
    ObsSet(client_->g_ec_degraded_, static_cast<int64_t>(degraded_lag_));
  }
}

void NclFile::RaiseCommittedSeq() {
  uint64_t committed = ComputeCommittedSeq();
  if (committed > committed_seq_) {
    committed_seq_ = committed;
    Simulation* sim = client_->fabric_->sim();
    for (WindowEntry& entry : window_) {
      if (entry.seq > committed_seq_) {
        break;
      }
      if (entry.reported) {
        continue;
      }
      entry.reported = true;
      // Post→commit, off the caller's stack: the window these rounds
      // overlapped in. Excluded from span self-time attribution.
      if (client_->obs_.tracer != nullptr) {
        client_->obs_.tracer->AddAsyncSpan("ncl.append.pipelined",
                                           entry.posted_at, sim->Now());
      }
      ObsRecord(client_->h_record_ns_, sim->Now() - entry.posted_at);
    }
  }
}

void NclFile::PruneWindow() {
  // Keep what a straggling alive slot might still need for a suffix
  // repost: everything past the minimum acked_seq. A slot that falls
  // further behind than the cap falls back to the slot image.
  uint64_t min_acked = seq_;
  for (const PeerSlot& slot : slots_) {
    if (slot.alive) {
      min_acked = std::min(min_acked, slot.acked_seq);
    }
  }
  for (const PeerSlot* successor : joining_) {
    // A joining successor (not yet a member, so not in slots_) is being
    // caught up by suffix rounds; keep its gap coverable too.
    min_acked = std::min(min_acked, successor->acked_seq);
  }
  size_t cap = std::max<size_t>(
      32, 4 * static_cast<size_t>(
                  std::max(1, client_->config_.inflight_window)));
  while (!window_.empty() && window_.front().reported &&
         (window_.front().seq <= min_acked || window_.size() > cap)) {
    window_.pop_front();
  }
}

bool NclFile::PostSuffix(PeerSlot* slot) {
  if (slot->acked_seq >= seq_) {
    return true;  // nothing missing
  }
  if (window_.empty() || window_.front().seq > slot->acked_seq + 1) {
    return false;  // history pruned past the gap
  }
  const uint64_t header_bytes = geo().header_bytes();
  std::vector<QueuePair::WriteOp> ops;
  // Each replayed range's shard encoding must outlive the PostWriteBatch
  // call (which copies it out), so they accumulate here rather than in one
  // reused scratch; replica bytes are views of buffer_. The reserve is
  // load-bearing: ops holds string_views into these strings, and a
  // reallocation would move the small (SSO) ones out from under them.
  std::vector<std::string> scratch;
  scratch.reserve(window_.size());
  for (const WindowEntry& entry : window_) {
    if (entry.seq <= slot->acked_seq || entry.truncate || entry.len == 0) {
      continue;
    }
    // Replay from the *current* buffer: later overwrites of the same range
    // only make the replayed bytes newer, and the final header commits the
    // current (seq_, length_) snapshot.
    uint64_t end = std::min<uint64_t>(entry.offset + entry.len,
                                      buffer_.size());
    if (entry.offset >= end) {
      continue;
    }
    SlotRange range =
        geo().RangeFor(slot->role, entry.offset, end - entry.offset);
    if (range.empty()) {
      continue;  // this append missed the slot's lane entirely
    }
    scratch.emplace_back();
    ops.push_back(QueuePair::WriteOp{
        slot->rkey, header_bytes + range.begin,
        geo().SlotBytes(slot->role, buffer_.view(), range, &scratch.back())});
  }
  char header[kNclMaxHeaderBytes];
  EncodeHeader(slot->role, header);
  ops.push_back(QueuePair::WriteOp{
      slot->rkey, 0, std::string_view(header, header_bytes)});
  // One doorbell for the chain; the header WR's completion acks seq_.
  std::vector<uint64_t> ids = slot->qp->PostWriteBatch(ops);
  for (size_t k = 0; k < ids.size(); ++k) {
    slot->inflight.emplace_back(ids[k], k + 1 == ids.size() ? seq_ : 0);
  }
  ObsAdd(client_->c_suffix_reposts_);
  return true;
}

SharedBytes NclFile::ReplicaImage() const {
  return geo().striped()
             ? SharedBytes()
             : geo().SlotSlice(0, buffer_.view(), geo().FullRange(length_));
}

void NclFile::PostImage(PeerSlot* slot, RKey rkey,
                        const SharedBytes& replica_image,
                        std::optional<std::string_view> base) {
  const uint64_t header_bytes = geo().header_bytes();
  const SlotRange range = geo().FullRange(length_);
  auto post = [&](const QueuePair::WriteOp& op, uint64_t commits) {
    slot->inflight.emplace_back(slot->qp->PostWrite(op), commits);
  };
  if (!range.empty()) {
    // The image WRs reference their bytes instead of copying them, and the
    // region adopts the chunks they cover whole. The bytes are detached
    // from buffer_, so appends racing the WRs, and every append after
    // them, still write buffer_ in place.
    SharedBytes image =
        geo().striped()
            ? geo().SlotSlice(slot->role, buffer_.view(), range)
            : replica_image;
    if (!base) {
      post({rkey, header_bytes + range.begin, std::move(image)}, 0);
    } else {
      for (const DiffRange& r : ComputeDiffRanges(*base, image.view())) {
        post({rkey, header_bytes + r.offset, image.Slice(r.offset, r.len)},
             0);
      }
    }
  }
  // Header last (§4.4: its arrival implies the image's).
  char header[kNclMaxHeaderBytes];
  EncodeHeader(slot->role, header);
  post({rkey, 0, std::string_view(header, header_bytes)}, seq_);
}

void NclFile::PostCatchUp(PeerSlot* slot) {
  if (!PostSuffix(slot)) {
    PostImage(slot, slot->rkey, ReplicaImage());
  }
}

bool NclFile::PumpCompletions() {
  bool progressed = false;
  for (PeerSlot& slot : slots_) {
    if (!slot.alive || slot.qp == nullptr) {
      continue;
    }
    progressed = ResolveCompletions(&slot) || progressed;
    if (slot.wr_error) {
      // Peer failure detected via the WR error (§4.5.2). Transient
      // failures make the slot suspect; permanent ones demote it.
      progressed = true;
      OnSlotError(&slot, *slot.wr_error);
    }
    if (slot.suspect && slot.qp != nullptr && slot.inflight.empty()) {
      // The resurrection repost fully drained: the QP is healthy again and
      // the region holds a consistent snapshot at acked_seq. Clear suspect
      // right away; if appends raced the repost the snapshot is stale, so
      // ship the missing tail on the same QP — SQ ordering keeps later
      // appends behind it, and the slot only counts toward a majority once
      // it acks the current sequence.
      slot.suspect = false;
      slot.retry.reset();
      ObsAdd(client_->c_transient_recoveries_);
      PostCatchUp(&slot);
    }
  }
  return progressed;
}

void NclFile::OnSlotError(PeerSlot* slot, WcStatus status) {
  const RetryPolicy& policy = client_->config_.retry;
  Simulation* sim = client_->fabric_->sim();
  // kRetryExceeded means the target was unreachable — possibly a transient
  // partition. Anything else (revoked rkey, flushed WR on an already-failed
  // QP surfacing late) is treated as permanent.
  if (status == WcStatus::kRetryExceeded && policy.max_attempts > 1) {
    if (!slot->suspect) {
      MarkSuspect(slot);
    }
    if (slot->retry->ShouldRetry(sim->Now())) {
      slot->next_retry_at = sim->Now() + slot->retry->NextBackoff(&client_->rng_);
      // Drop the errored QP; stale flush completions die with it and the
      // next resurrection attempt starts on a fresh QP.
      slot->inflight.clear();
      slot->wr_error.reset();
      slot->qp.reset();
      return;
    }
  }
  DemoteSlot(slot);
}

void NclFile::MarkSuspect(PeerSlot* slot) {
  Simulation* sim = client_->fabric_->sim();
  slot->suspect = true;
  maybe_suspect_ = true;
  slot->retry.emplace(&client_->config_.retry, sim->Now());
}

void NclFile::DemoteSlot(PeerSlot* slot) {
  slot->alive = false;
  watermark_dirty_ = true;
  slot->suspect = false;
  slot->retry.reset();
  slot->inflight.clear();
  slot->wr_error.reset();
  slot->qp.reset();
  ObsAdd(client_->c_permanent_demotions_);
}

void NclFile::RepostSuspect(PeerSlot* slot) {
  NclClient* client = client_;
  ObsAdd(client->c_suspect_retries_);
  slot->qp = client->pool_->Connect(slot->node);
  // A mid-window straggler usually only misses the unacked suffix of the
  // in-flight window; ship just that. The image is the fallback once the
  // window history no longer covers the gap.
  PostCatchUp(slot);
}

bool NclFile::MaybeRetrySuspects() {
  if (!maybe_suspect_) {
    return false;
  }
  Simulation* sim = client_->fabric_->sim();
  const RetryPolicy& policy = client_->config_.retry;
  bool posted = false;
  maybe_suspect_ = false;
  for (PeerSlot& slot : slots_) {
    maybe_suspect_ = maybe_suspect_ || slot.suspect;
    if (!slot.alive || !slot.suspect || slot.qp != nullptr) {
      continue;  // qp != nullptr: a resurrection attempt is in flight
    }
    if (sim->Now() < slot.next_retry_at) {
      continue;
    }
    if (sim->Now() - slot.retry->start() >= policy.deadline) {
      DemoteSlot(&slot);
      continue;
    }
    if (!client_->fabric_->IsAlive(slot.node) ||
        client_->fabric_->IsPartitioned(client_->node_, slot.node)) {
      // Still unreachable: a resurrection QP would start in error state and
      // flush, which reads as permanent. Burn a retry attempt and back off
      // again instead; the deadline bounds how long this can go on.
      if (!slot.retry->ShouldRetry(sim->Now())) {
        DemoteSlot(&slot);
        continue;
      }
      ObsAdd(client_->c_suspect_retries_);
      slot.next_retry_at = sim->Now() + slot.retry->NextBackoff(&client_->rng_);
      continue;
    }
    RepostSuspect(&slot);
    posted = true;
  }
  return posted;
}

SimTime NclFile::NextSuspectRetryAt() const {
  SimTime earliest = -1;
  if (!maybe_suspect_) {
    return earliest;
  }
  for (const PeerSlot& slot : slots_) {
    if (!slot.alive || !slot.suspect || slot.qp != nullptr) {
      continue;
    }
    if (earliest < 0 || slot.next_retry_at < earliest) {
      earliest = slot.next_retry_at;
    }
  }
  return earliest;
}

void NclFile::CatchUpViaStagedRegions() {
  const ObsContext& obs = client_->obs_;
  Simulation* sim = client_->fabric_->sim();
  const std::string& app = client_->config_.app_id;
  const bool diff = client_->config_.diff_catchup;
  std::vector<PeerSlot*> live;
  for (PeerSlot& slot : slots_) {
    if (slot.alive) {
      live.push_back(&slot);
    }
  }
  // live[i]'s staged region; reset when one of its steps fails.
  std::vector<std::optional<RKey>> staged(live.size());
  {
    // The peers stage side by side, so a cold peer's slab registration
    // overlaps the others' instead of queueing behind them.
    ObsSpan span(obs.tracer, "ncl.catchup.stage");
    sim->Overlap(live.size(), [&](size_t i) {
      LogPeer* peer = live[i]->peer;
      if (peer == nullptr) {
        return;  // peer process unreachable
      }
      Result<AllocationGrant> grant =
          diff ? peer->CloneRegionForCatchup(app, name_, epoch_)
               : peer->AllocateCatchupRegion(
                     app, name_, geo().SlotRegionBytes(capacity_), epoch_);
      if (grant.ok()) {
        staged[i] = grant->rkey;
      }
    });
  }
  // The images go one slot after another: every WRITE leaves through the
  // client's one link. The replicas all post one copy of the log, so the
  // staged regions that adopt it hold it once.
  const uint64_t image_bytes = geo().FullRange(length_).size();
  const SharedBytes replica_image = ReplicaImage();
  auto write_image = [&](PeerSlot* slot, RKey rkey) -> Status {
    ObsSpan span(obs.tracer, "ncl.catchup.bulk");
    std::optional<std::string> base;
    if (diff && image_bytes > 0) {
      // §4.5.1 optimization: the staged region is a peer-local clone of
      // the slot's current one, so read it back and ship only the bytes
      // of the image that differ.
      PostRead(slot, rkey, geo().header_bytes(), image_bytes);
      RETURN_IF_ERROR(AwaitInflight({slot}));
      base = *std::exchange(slot->landed, std::nullopt);
    }
    PostImage(slot, rkey, replica_image, base);
    return AwaitInflight({slot});
  };
  for (size_t i = 0; i < live.size(); ++i) {
    if (staged[i] && !write_image(live[i], *staged[i]).ok()) {
      staged[i].reset();
    }
  }
  {
    ObsSpan span(obs.tracer, "ncl.catchup.switch");
    sim->Overlap(live.size(), [&](size_t i) {
      if (staged[i] &&
          !live[i]->peer->SwitchRegion(app, name_, *staged[i]).ok()) {
        staged[i].reset();
      }
    });
  }
  for (size_t i = 0; i < live.size(); ++i) {
    PeerSlot* slot = live[i];
    if (staged[i]) {
      slot->rkey = *staged[i];  // its header already acked seq_
      continue;
    }
    // Dead, and still on the region it held before recovery: a staged
    // image it acked before its switch failed does not count.
    slot->alive = false;
    slot->acked_seq = 0;
  }
  watermark_dirty_ = true;
}

Result<NclFile::PeerSlot> NclFile::AllocateSuccessor(
    const PeerSlot& slot, const std::set<std::string>& exclude) {
  NclClient* client = client_;
  // New epoch: we intend to update the ap-map (§4.5.1).
  auto epoch = client->RetryControllerRpc([&] {
    return client->controller_->BumpAppEpoch(client->config_.app_id);
  });
  if (!epoch.ok()) {
    return epoch.status();
  }
  const uint64_t zxid = client->controller_->PeerRegistryZxid();
  bool spare_missing = false;
  auto got = client->AllocateOnFreshPeer(name_,
                                         geo().SlotRegionBytes(capacity_),
                                         *epoch, exclude, &spare_missing);
  if (!got.ok()) {
    if (spare_missing) {
      no_spare_zxid_ = zxid;
      no_spare_exclude_ = exclude;
    }
    // Nothing was allocated under the new epoch, so the file keeps its
    // own: a join this one nested in is not superseded by a failed try.
    return got.status();
  }
  epoch_ = *epoch;
  auto [peer, grant] = *got;
  // The successor takes over the slot's role: slot order is role order (the
  // ap-map contract), and its catch-up writes exactly that role's bytes.
  return MakeSlot(peer->name(), slot.role, peer, grant.rkey);
}

Status NclFile::JoinSuccessor(PeerSlot* slot, std::set<std::string> exclude) {
  const std::string source_name = slot->peer_name;
  const bool source_alive = slot->alive;
  // A join nested in another one (from a re-entrant WaitFor) must not take
  // the spare holding the outer join's successor: Allocate would replace
  // that region under the outer copy, which then dies on a WR error.
  for (const PeerSlot* successor : joining_) {
    exclude.insert(successor->peer_name);
  }
  // Bump-then-write (§4.5.1): the new epoch fences the outgoing membership
  // — a straggling ap-map write carrying the old peer set is rejected by
  // the controller once the cutover lands.
  ASSIGN_OR_RETURN(PeerSlot fresh, AllocateSuccessor(*slot, exclude));
  const uint64_t my_epoch = epoch_;
  if (!source_alive && geo().striped()) {
    // Background repair of a lost shard: it is re-encoded from the local
    // buffer onto the successor.
    ObsAdd(client_->c_ec_repairs_);
  }
  joining_.push_back(&fresh);
  struct JoinGuard {
    NclFile* file;
    const PeerSlot* successor;
    ~JoinGuard() {
      std::erase(file->joining_, successor);
      file->watermark_dirty_ = true;
    }
  } guard{this, &fresh};

  // Snapshot copy from the local buffer: a fresh region always gets the
  // whole image first. Appends re-entering through simulation events while
  // the copy is in flight land on the current members only, so nothing is
  // lost; the successor falls behind the tail, holding exactly the
  // snapshot its header acks.
  {
    ObsSpan span(client_->obs_.tracer, "ncl.catchup.bulk");
    PostImage(&fresh, fresh.rkey, ReplicaImage());
    RETURN_IF_ERROR(AwaitInflight({&fresh}));
  }
  // Catch-up rounds. Each ships only (acked, seq_] from the window history
  // (joining_ keeps it coverable), so the gap shrinks toward the per-round
  // append arrival rate — this bounds the cutover window under sustained
  // traffic. A gap pruned past the history gets the image again. With no
  // append racing the copy this runs zero rounds.
  for (int round = 0; fresh.acked_seq < seq_; ++round) {
    if (round >= 64) {
      return UnavailableError("catch-up of " + name_ + "'s successor on " +
                              fresh.peer_name + " did not converge");
    }
    PostCatchUp(&fresh);
    RETURN_IF_ERROR(AwaitInflight({&fresh}));
  }

  // A join may have nested in ours (it runs from a re-entrant WaitFor, or
  // from a scheduled drain): it bumped the epoch and rewrote the
  // membership. Our cutover would then be an unbumped write — exactly what
  // the controller fences — so stand down. A source that died mid-copy
  // supersedes a migration the same way.
  if (epoch_ != my_epoch || slot->peer_name != source_name ||
      slot->alive != source_alive) {
    return AbortedError("successor of " + source_name + " for " + name_ +
                        " superseded by a concurrent membership change");
  }
  // The cutover: from here on the slot and the ap-map name the successor.
  *slot = std::move(fresh);
  watermark_dirty_ = true;
  RefreshPeerNames();
  return WriteApMap();
}

Status NclFile::ReplaceSlot(PeerSlot* slot) {
  NclClient* client = client_;
  ObsSpan span(client->obs_.tracer, "ncl.replace_slot");
  // Exclude only the file's *other* current members (JoinSuccessor adds
  // the peers of successors still joining). Any other peer —
  // including one used in the past, or this failed slot's own peer after a
  // restart/revocation — is safe to reuse: Allocate replaces any stale
  // region with a fresh empty one, and the catch-up precedes the ap-map
  // update, so the §4.6 quorum argument holds.
  std::set<std::string> exclude;
  for (const PeerSlot& s : slots_) {
    if (&s != slot) {
      exclude.insert(s.peer_name);
    }
  }
  RETURN_IF_ERROR(JoinSuccessor(slot, std::move(exclude)));
  client->peers_replaced_++;
  ObsAdd(client->c_peers_replaced_);
  return OkStatus();
}

bool NclFile::SpareKnownMissing(const PeerSlot& slot) const {
  if (no_spare_zxid_ != client_->controller_->PeerRegistryZxid()) {
    return false;
  }
  // A try for `slot` excludes the other members and the joining
  // successors (ReplaceSlot, JoinSuccessor). Only a peer the failed try
  // excluded and this one would not could be offered now, and a crashed
  // one cannot rejoin without re-registering.
  for (const std::string& name : no_spare_exclude_) {
    const bool still_excluded =
        std::any_of(slots_.begin(), slots_.end(),
                    [&](const PeerSlot& s) {
                      return &s != &slot && s.peer_name == name;
                    }) ||
        std::any_of(joining_.begin(), joining_.end(),
                    [&](const PeerSlot* s) { return s->peer_name == name; });
    if (still_excluded) {
      continue;
    }
    const LogPeer* peer = client_->directory_->Lookup(name);
    if (peer == nullptr || peer->alive()) {
      return false;
    }
  }
  return true;
}

void NclFile::ReplaceDeadSlots(int want) {
  for (PeerSlot& slot : slots_) {
    if (slot.alive) {
      continue;
    }
    if (alive_peers() >= want) {
      break;
    }
    if (SpareKnownMissing(slot)) {
      continue;  // a try would find no spare peer again
    }
    if (!ReplaceSlot(&slot).ok()) {
      continue;  // failed or superseded: the slot stays dead for now
    }
  }
}

Status NclFile::MigrateSlot(PeerSlot* slot) {
  NclClient* client = client_;
  ObsSpan span(client->obs_.tracer, "ncl.migrate_slot");
  if (deleted_) {
    return FailedPreconditionError("ncl file was deleted: " + name_);
  }
  if (!slot->alive) {
    return FailedPreconditionError(
        "cannot migrate a dead slot; ReplaceSlot handles failures");
  }
  // The target must be outside the current membership entirely, including
  // the source: the point is to move the region elsewhere.
  std::set<std::string> exclude;
  for (const PeerSlot& s : slots_) {
    exclude.insert(s.peer_name);
  }
  LogPeer* source = slot->peer;
  RETURN_IF_ERROR(JoinSuccessor(slot, std::move(exclude)));
  // The ap-map names the target now. Releasing the source region kills its
  // rkey, so any stale write to the old peer fails at the fabric.
  if (source != nullptr && source->alive()) {
    DiscardStatus(client->obs_,
                  source->Release(client->config_.app_id, name_),
                  "NclFile::MigrateSlot release of source region");
  }
  client->regions_migrated_++;
  ObsAdd(client->c_regions_migrated_);
  return OkStatus();
}

Result<SharedBytes> NclFile::Read(uint64_t offset, uint64_t len) {
  if (deleted_) {
    return FailedPreconditionError("ncl file was deleted: " + name_);
  }
  if (offset >= length_) {
    return SharedBytes();
  }
  len = std::min<uint64_t>(len, length_ - offset);
  if (!serve_reads_locally_ && recovery_slot_ >= 0) {
    // No-prefetch variant (Fig 11a): one RDMA read per application read,
    // while the recovery peer stays reachable.
    PeerSlot& slot = slots_[recovery_slot_];
    if (slot.alive && !slot.suspect && slot.qp != nullptr) {
      PostRead(&slot, slot.rkey, geo().header_bytes() + offset, len);
      Status read = AwaitInflight({&slot});
      if (read.ok() && slot.landed) {
        return SharedBytes(*std::exchange(slot.landed, std::nullopt));
      }
      if (!read.ok() && slot.qp != nullptr) {
        // The READ failed or the fabric stalled. A slot whose QP is gone
        // was already handled by the append path's error policy.
        DemoteSlot(&slot);
      }
    }
  }
  // Served from the prefetched local buffer (or, without prefetch, the
  // local copy held for catch-up purposes).
  const Fabric* fabric = client_->fabric_;
  fabric->sim()->Advance(fabric->params().MemReadLatency(len));
  return buffer_.Slice(offset, len);
}

Status NclFile::Delete() {
  if (deleted_) {
    return FailedPreconditionError("ncl file already deleted: " + name_);
  }
  std::vector<LogPeer*> holders;
  for (const PeerSlot& slot : slots_) {
    if (slot.alive && slot.peer != nullptr) {
      holders.push_back(slot.peer);
    }
  }
  Result<DeleteReport> report = client_->DeleteOn(name_, holders);
  deleted_ = true;
  return report.status();
}

}  // namespace splitft
