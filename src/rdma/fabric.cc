#include "src/rdma/fabric.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "src/common/logging.h"

namespace splitft {

std::string_view WcStatusName(WcStatus status) {
  switch (status) {
    case WcStatus::kSuccess:
      return "SUCCESS";
    case WcStatus::kRemoteAccessError:
      return "REMOTE_ACCESS_ERROR";
    case WcStatus::kRetryExceeded:
      return "RETRY_EXCEEDED";
    case WcStatus::kFlushError:
      return "FLUSH_ERROR";
  }
  return "UNKNOWN";
}

// Shared QP state. Fabric delivery events hold a shared_ptr so that a WR in
// flight when the initiating application "crashes" (drops its QueuePair)
// still executes against the remote region — exactly the behaviour that
// produces the divergent peer states of Fig 7(i).
struct Fabric::QpState {
  NodeId local;
  NodeId remote;
  bool error = false;        // QP moved to error state after a failed WR
  bool closed = false;       // local endpoint destroyed
  SimTime busy_until = 0;    // the send queue issues the next WR from here
  // RC order: no WR lands before `delivery_floor`, the last WR's delivery
  // time, and while `held` completions wait out a completion delay, none
  // surfaces before `cq_floor`, when the last of them is due.
  SimTime delivery_floor = 0;
  SimTime cq_floor = 0;
  size_t held = 0;
  uint64_t next_wr_id = 1;
  std::deque<Completion> cq;
  size_t outstanding = 0;
  // NIC retransmission state: while the head-of-line WR is retrying toward
  // an unreachable target, later WRs queue here instead of executing —
  // otherwise a heal between two retry ticks could land a header before
  // its data and break the SQ-ordering guarantee NCL depends on.
  bool retrying = false;
  std::deque<WorkRequest> stalled;
  // Set whenever a completion lands in `cq` (QueuePair::SetCompletionFlag);
  // the owner clears it once it drained the CQ.
  bool* completion_flag = nullptr;
};

Fabric::Region::Region(uint64_t bytes)
    : size(bytes),
      chunks((bytes + kRegionChunkBytes - 1) / kRegionChunkBytes) {}

uint64_t Fabric::Region::ChunkLen(size_t index) const {
  return std::min(kRegionChunkBytes, size - index * kRegionChunkBytes);
}

void Fabric::Region::Read(uint64_t offset, uint64_t len,
                          std::string* out) const {
  out->clear();
  out->reserve(len);
  while (len > 0) {
    size_t index = offset / kRegionChunkBytes;
    uint64_t within = offset % kRegionChunkBytes;
    uint64_t n = std::min(len, ChunkLen(index) - within);
    if (const char* bytes = chunks[index].data(); bytes != nullptr) {
      out->append(bytes + within, n);
    } else {
      out->append(n, '\0');
    }
    offset += n;
    len -= n;
  }
}

void Fabric::Region::Write(uint64_t offset, std::string_view data,
                           const SharedBytes* owner) {
  while (!data.empty()) {
    size_t index = offset / kRegionChunkBytes;
    uint64_t within = offset % kRegionChunkBytes;
    const uint64_t chunk_len = ChunkLen(index);
    uint64_t n = std::min<uint64_t>(data.size(), chunk_len - within);
    Chunk& chunk = chunks[index];
    if (owner != nullptr && n == chunk_len) {
      // The write covers the whole chunk: hold the payload's bytes.
      chunk.own.reset();
      chunk.adopted =
          owner->Slice(static_cast<size_t>(data.data() - owner->data()), n);
    } else {
      if (chunk.own == nullptr) {
        // Fill only what this write leaves: the adopted bytes, or the
        // zeros fresh memory reads as.
        const char* old = chunk.adopted.data();
        chunk.own = std::make_unique_for_overwrite<char[]>(chunk_len);
        char* bytes = chunk.own.get();
        const uint64_t end = within + n;
        if (old != nullptr) {
          std::memcpy(bytes, old, within);
          std::memcpy(bytes + end, old + end, chunk_len - end);
        } else {
          std::memset(bytes, 0, within);
          std::memset(bytes + end, 0, chunk_len - end);
        }
        chunk.adopted = SharedBytes();
      }
      std::memcpy(chunk.own.get() + within, data.data(), n);
    }
    offset += n;
    data.remove_prefix(n);
  }
}

void Fabric::Region::Zero() {
  for (Chunk& chunk : chunks) {
    chunk = Chunk();
  }
}

uint64_t Fabric::Region::ResidentBytes() const {
  uint64_t bytes = 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    if (chunks[i].data() != nullptr) {
      bytes += ChunkLen(i);
    }
  }
  return bytes;
}

namespace {

// True iff [offset, offset + len) lies within a region of `size` bytes.
bool InBounds(uint64_t offset, uint64_t len, uint64_t size) {
  return offset <= size && len <= size - offset;
}

RKey MakeRKey(size_t slot_index, uint32_t generation) {
  return (static_cast<uint64_t>(slot_index) + 1) << 32 | generation;
}

// The one region lookup, in the region table `slots` (const or not): the
// slot `rkey` names if its generation still matches and its region lives
// on `node` (valid or not), else null. An rkey's high half holds the slot
// index + 1, so rkey 0 wraps to an index past the end.
template <typename Table>
auto* FindSlot(Table& slots, NodeId node, RKey rkey) {
  const uint64_t index = (rkey >> 32) - 1;
  auto* slot = index < slots.size() ? &slots[index] : nullptr;
  const bool match = slot != nullptr && slot->node == node &&
                     slot->generation == static_cast<uint32_t>(rkey);
  return match ? slot : nullptr;
}

// Either direction of a link maps to one key.
uint64_t LinkKey(NodeId a, NodeId b) {
  return static_cast<uint64_t>(std::min(a, b)) << 32 | std::max(a, b);
}

}  // namespace

Fabric::Fabric(Simulation* sim, const SimParams* params, ObsContext obs)
    : sim_(sim),
      params_(params),
      obs_(obs),
      c_writes_posted_(obs.counter("fabric.wr.writes_posted")),
      c_reads_posted_(obs.counter("fabric.wr.reads_posted")),
      c_write_bytes_(obs.counter("fabric.wr.write_bytes")),
      c_read_bytes_(obs.counter("fabric.wr.read_bytes")),
      c_failed_wrs_(obs.counter("fabric.wr.failed_wrs")),
      c_doorbells_(obs.counter("fabric.wr.doorbells")),
      c_wr_retries_(obs.counter("fabric.wr.wr_retries")),
      c_wr_retry_recoveries_(obs.counter("fabric.wr.wr_retry_recoveries")) {}

NodeId Fabric::AddNode(std::string name) {
  nodes_.push_back(Node{std::move(name)});
  return static_cast<NodeId>(nodes_.size() - 1);
}

const std::string& Fabric::NodeName(NodeId id) const {
  return nodes_.at(id).name;
}

bool Fabric::IsAlive(NodeId id) const { return nodes_.at(id).alive; }

Status Fabric::CheckAlive(NodeId id) const {
  const Node& node = nodes_.at(id);
  return node.alive ? OkStatus()
                    : UnavailableError("node " + node.name + " is down");
}

void Fabric::CrashNode(NodeId id) {
  nodes_.at(id).alive = false;
  // Volatile memory: contents are gone and rkeys invalid.
  for (RegionSlot& slot : region_slots_) {
    if (slot.node == id) {
      FreeSlot(&slot);
    }
  }
}

void Fabric::RestartNode(NodeId id) { nodes_.at(id).alive = true; }

// The fault lookups sit on every WR's path; with no fault injected they
// answer without hashing.
Fabric::LinkFaults Fabric::Faults(NodeId a, NodeId b) const {
  if (link_faults_.empty()) {
    return {};
  }
  auto it = link_faults_.find(LinkKey(a, b));
  return it == link_faults_.end() ? LinkFaults{} : it->second;
}

template <typename T>
void Fabric::SetLinkFault(NodeId a, NodeId b, T LinkFaults::*fault, T value) {
  auto it = link_faults_.try_emplace(LinkKey(a, b)).first;
  it->second.*fault = value;
  if (it->second == LinkFaults{}) {
    link_faults_.erase(it);
  }
}

void Fabric::SetPartitioned(NodeId a, NodeId b, bool partitioned) {
  SetLinkFault(a, b, &LinkFaults::partitioned, partitioned);
}

bool Fabric::IsPartitioned(NodeId a, NodeId b) const {
  return Faults(a, b).partitioned;
}

uint64_t Fabric::PartitionFor(NodeId a, NodeId b, SimTime heal_after) {
  SetPartitioned(a, b, true);
  return sim_->ScheduleCancelableAt(sim_->Now() + heal_after,
                                    [this, a, b] { SetPartitioned(a, b, false); });
}

void Fabric::SetLinkDelay(NodeId a, NodeId b, SimTime extra) {
  SetLinkFault(a, b, &LinkFaults::delay, std::max<SimTime>(extra, 0));
}

SimTime Fabric::LinkDelay(NodeId a, NodeId b) const {
  return Faults(a, b).delay;
}

void Fabric::SetCompletionDelay(NodeId a, NodeId b, SimTime delay) {
  SetLinkFault(a, b, &LinkFaults::completion_delay,
               std::max<SimTime>(delay, 0));
}

SimTime Fabric::CompletionDelay(NodeId a, NodeId b) const {
  return Faults(a, b).completion_delay;
}

void Fabric::ClearLinkFaults() { link_faults_.clear(); }

Result<RKey> Fabric::CreateRegion(NodeId node_id, uint64_t size,
                                  SimTime cost) {
  RETURN_IF_ERROR(CheckAlive(node_id));
  sim_->Advance(cost);
  size_t index = region_slots_.size();
  if (free_slots_.empty()) {
    region_slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  RegionSlot& slot = region_slots_[index];
  slot.region = Region(size);
  slot.node = node_id;
  return MakeRKey(index, slot.generation);
}

void Fabric::FreeSlot(RegionSlot* slot) {
  slot->region = Region(0);
  slot->node = kInvalidNode;
  slot->generation++;
  free_slots_.push_back(static_cast<uint32_t>(slot - region_slots_.data()));
}

Result<RKey> Fabric::RegisterRegion(NodeId node_id, uint64_t size) {
  // Page pinning + NIC registration cost, charged to the caller's timeline
  // (the peer's lightweight setup process performs it synchronously).
  return CreateRegion(node_id, size, params_->MrRegisterLatency(size));
}

Result<RKey> Fabric::BindWindowRegion(NodeId node_id, uint64_t size) {
  // The slab already paid pinning + NIC registration; a window bind is a
  // send-queue operation granting a fresh rkey over a sub-range.
  return CreateRegion(node_id, size, params_->rdma.mw_bind_latency);
}

Status Fabric::InvalidateRegion(NodeId node_id, RKey rkey) {
  RegionSlot* slot = FindSlot(region_slots_, node_id, rkey);
  if (slot == nullptr) {
    return NotFoundError("no such region");
  }
  slot->region.valid = false;
  return OkStatus();
}

Result<RKey> Fabric::RecycleRegion(NodeId node_id, RKey rkey) {
  RETURN_IF_ERROR(CheckAlive(node_id));
  RegionSlot* slot = FindSlot(region_slots_, node_id, rkey);
  if (slot == nullptr) {
    return NotFoundError("no such region");
  }
  // Zero the reused memory (local peer-side memset), priced by the full
  // registered size however little of it was materialized.
  slot->region.Zero();
  sim_->Advance(static_cast<SimTime>(
      static_cast<double>(slot->region.size) / 12.0));  // ~12 GB/s memset
  slot->region.valid = true;
  // The same slot under a fresh rkey: the old one dies in place.
  slot->generation++;
  return MakeRKey(slot - region_slots_.data(), slot->generation);
}

Status Fabric::DeregisterRegion(NodeId node_id, RKey rkey) {
  RegionSlot* slot = FindSlot(region_slots_, node_id, rkey);
  if (slot == nullptr) {
    return NotFoundError("no such region");
  }
  FreeSlot(slot);
  return OkStatus();
}

Result<const Fabric::Region*> Fabric::LocalRegion(NodeId node_id,
                                                 RKey rkey) const {
  RETURN_IF_ERROR(CheckAlive(node_id));
  const RegionSlot* slot = FindSlot(region_slots_, node_id, rkey);
  if (slot == nullptr || !slot->region.valid) {
    return PermissionDeniedError("invalid rkey");
  }
  return &slot->region;
}

Result<Fabric::Region*> Fabric::LocalRegion(NodeId node_id, RKey rkey) {
  ASSIGN_OR_RETURN(const Region* region,
                   std::as_const(*this).LocalRegion(node_id, rkey));
  return const_cast<Region*>(region);
}

Result<std::string> Fabric::ReadRegion(NodeId node_id, RKey rkey,
                                       uint64_t offset, uint64_t len) const {
  ASSIGN_OR_RETURN(const Region* region, LocalRegion(node_id, rkey));
  if (!InBounds(offset, len, region->size)) {
    return InvalidArgumentError("read past the end of the region");
  }
  std::string out;
  region->Read(offset, len, &out);
  return out;
}

Status Fabric::WriteRegion(NodeId node_id, RKey rkey, uint64_t offset,
                           std::string_view data) {
  ASSIGN_OR_RETURN(Region* region, LocalRegion(node_id, rkey));
  if (!InBounds(offset, data.size(), region->size)) {
    return InvalidArgumentError("write past the end of the region");
  }
  region->Write(offset, data);
  return OkStatus();
}

Status Fabric::CopyRegion(NodeId node_id, RKey src, RKey dst) {
  ASSIGN_OR_RETURN(const Region* from,
                   std::as_const(*this).LocalRegion(node_id, src));
  ASSIGN_OR_RETURN(Region* to, LocalRegion(node_id, dst));
  if (from->size != to->size) {
    return InvalidArgumentError("region sizes differ");
  }
  // Only materialized chunks carry bytes; the rest stay zero on both sides.
  // An adopted chunk is immutable, so the copy shares it.
  for (size_t i = 0; i < from->chunks.size(); ++i) {
    const Chunk& chunk = from->chunks[i];
    if (chunk.own == nullptr) {
      to->chunks[i] = Chunk{nullptr, chunk.adopted};
      continue;
    }
    to->chunks[i].adopted = SharedBytes();
    if (to->chunks[i].own == nullptr) {
      to->chunks[i].own =
          std::make_unique_for_overwrite<char[]>(to->ChunkLen(i));
    }
    std::memcpy(to->chunks[i].own.get(), chunk.own.get(), from->ChunkLen(i));
  }
  return OkStatus();
}

Result<uint64_t> Fabric::RegionSize(NodeId node_id, RKey rkey) const {
  ASSIGN_OR_RETURN(const Region* region, LocalRegion(node_id, rkey));
  return region->size;
}

uint64_t Fabric::ResidentRegionBytes(NodeId node_id) const {
  uint64_t bytes = 0;
  for (const RegionSlot& slot : region_slots_) {
    if (slot.node == node_id) {
      bytes += slot.region.ResidentBytes();
    }
  }
  return bytes;
}

uint64_t Fabric::HostRegionBytes() const {
  uint64_t bytes = 0;
  std::unordered_set<const std::string*> owners;
  for (const RegionSlot& slot : region_slots_) {
    const Region& region = slot.region;
    for (size_t i = 0; i < region.chunks.size(); ++i) {
      const Chunk& chunk = region.chunks[i];
      const std::string* owner = chunk.adopted.owner();
      if (chunk.own != nullptr) {
        bytes += region.ChunkLen(i);
      } else if (owner != nullptr && owners.insert(owner).second) {
        bytes += owner->size();
      }
    }
  }
  return bytes;
}

uint64_t Fabric::PooledPayloadBytes() const {
  uint64_t bytes = 0;
  for (const PayloadArena& arena : payload_arenas_) {
    bytes += arena.blocks.size() * arena.block_bytes;
  }
  return bytes;
}

namespace {

// Frees a string's heap block. Assigning an empty string would keep it:
// libstdc++ copies a short source into the existing allocation.
void FreeString(std::string* bytes) { std::string().swap(*bytes); }

}  // namespace

void Fabric::KeepSpareBuffer(std::string key, std::string bytes) {
  FreeString(&spare_.bytes);
  if (!bytes.empty()) {
    spare_.key = std::move(key);
    spare_.bytes = std::move(bytes);
  }
}

std::string Fabric::TakeSpareBuffer(std::string_view key,
                                    uint64_t min_capacity) {
  std::string out;
  if (spare_.key == key) {
    if (spare_.bytes.capacity() >= min_capacity) {
      out.swap(spare_.bytes);
    }
    FreeString(&spare_.bytes);
  }
  return out;
}

void Fabric::DropSpareBuffer(std::string_view key) {
  if (spare_.key == key) {
    FreeString(&spare_.bytes);
  }
}

Fabric::PayloadBlock* Fabric::FreshPayloadBlock(PayloadArena* arena) {
  for (const std::unique_ptr<PayloadBlock>& block : arena->blocks) {
    if (block->live == 0 && block.get() != arena->current) {
      return block.get();
    }
  }
  arena->blocks.push_back(std::make_unique<PayloadBlock>(arena));
  return arena->blocks.back().get();
}

void Fabric::AcquirePayload(std::string_view data, WorkRequest* wr) {
  wr->len = data.size();
  if (data.size() > kArenaPayloadMax) {
    wr->pinned = SharedBytes(std::string(data));
    wr->bytes = wr->pinned.data();
    return;
  }
  PayloadArena& arena =
      payload_arenas_[data.size() > kPayloadBlockBytes[0] / 4 ? 1 : 0];
  // 8-byte steps keep every payload word-aligned.
  const uint32_t step = static_cast<uint32_t>((data.size() + 7) & ~size_t{7});
  if (arena.current == nullptr ||
      arena.current->used + step > arena.block_bytes) {
    arena.current = FreshPayloadBlock(&arena);
  }
  PayloadBlock* block = arena.current;
  char* dst = block->bytes.get() + block->used;
  block->used += step;
  block->live++;
  if (!data.empty()) {
    std::memcpy(dst, data.data(), data.size());
  }
  wr->bytes = dst;
  wr->block = block;
}

void Fabric::ReleasePayload(WorkRequest* wr) {
  PayloadBlock* block = std::exchange(wr->block, nullptr);
  if (block == nullptr || --block->live > 0) {
    return;
  }
  block->used = 0;  // empty: the next payloads reuse its bytes in place
  PayloadArena* arena = block->arena;
  if (block == arena->current) {
    return;
  }
  // A retired block went idle. Keep a few for the next rollovers.
  size_t idle = 0;
  for (const std::unique_ptr<PayloadBlock>& b : arena->blocks) {
    if (b->live == 0 && b.get() != arena->current) {
      idle++;
    }
  }
  if (idle > kSparePayloadBlocks) {
    std::erase_if(arena->blocks, [block](const auto& b) {
      return b.get() == block;
    });
  }
}

void Fabric::PushCompletion(const std::shared_ptr<QpState>& qp, uint64_t wr_id,
                            WcStatus status,
                            std::unique_ptr<std::string> read_data) {
  qp->outstanding--;
  if (qp->closed) {
    return;  // the initiator is gone; nobody will poll this CQ
  }
  qp->cq.push_back(Completion{wr_id, status, std::move(read_data)});
  if (qp->completion_flag != nullptr) {
    *qp->completion_flag = true;
  }
}

void Fabric::CompleteWr(const std::shared_ptr<QpState>& qp,
                        const WorkRequest& wr, WcStatus status,
                        std::unique_ptr<std::string> read_data) {
  if (status != WcStatus::kSuccess) {
    // The QP enters the error state immediately (the NIC knows), even if
    // the completion itself surfaces late.
    qp->error = true;
    ObsAdd(c_failed_wrs_);
  }
  if (obs_.tracer != nullptr) {
    // Async span: the WR's life off the caller's stack, post→completion.
    obs_.tracer->AddAsyncSpan(wr.is_read ? "fabric.wr.read" : "fabric.wr.write",
                              wr.posted_at, sim_->Now());
  }
  // CQ order: a completion never overtakes one still held by a completion
  // delay, even once that delay is cleared, and even once the clock has
  // passed the held one's due time (a synchronous Advance runs no events).
  SimTime now = sim_->Now();
  SimTime at = now + CompletionDelay(qp->local, qp->remote);
  if (at > now || qp->held > 0) {
    at = std::max(at, qp->cq_floor);
    qp->cq_floor = at;
    qp->held++;
    sim_->ScheduleAt(at, sim::assert_inline([this, qp, wr_id = wr.wr_id, status,
                             data = std::move(read_data)]() mutable {
      qp->held--;
      PushCompletion(qp, wr_id, status, std::move(data));
    }));
    return;
  }
  PushCompletion(qp, wr.wr_id, status, std::move(read_data));
}

bool Fabric::TryDeliverOnce(WorkRequest* wr,
                            const std::shared_ptr<QpState>& qp) {
  if (qp->error) {
    CompleteWr(qp, *wr, WcStatus::kFlushError);
    return true;
  }
  SimTime now = sim_->Now();
  if (wr->first_attempt < 0) {
    wr->first_attempt = now;
  }
  if (!nodes_[qp->remote].alive || IsPartitioned(qp->local, qp->remote)) {
    // Unreachable target. Within the NIC retransmission window, keep the WR
    // head-of-line and try again later; past it, report retry-exceeded.
    SimTime interval = params_->rdma.unreachable_retry_interval;
    SimTime budget = params_->rdma.unreachable_retry_timeout;
    if (now - wr->first_attempt + interval <= budget) {
      ObsAdd(c_wr_retries_);
      qp->retrying = true;
      // The WR's one move on this path: into the closure that retries it.
      sim_->Schedule(interval, sim::assert_inline(
                                   [this, state = qp,
                                    w = std::move(*wr)]() mutable {
                                     state->retrying = false;
                                     DeliverWr(&w, state);
                                   }));
      return false;
    }
    CompleteWr(qp, *wr, WcStatus::kRetryExceeded);
    return true;
  }
  if (wr->first_attempt < now) {
    // At least one retry tick happened and the target is reachable again.
    ObsAdd(c_wr_retry_recoveries_);
  }
  RegionSlot* slot = FindSlot(region_slots_, qp->remote, wr->rkey);
  if (slot == nullptr || !slot->region.valid ||
      !InBounds(wr->remote_offset, wr->len, slot->region.size)) {
    CompleteWr(qp, *wr, WcStatus::kRemoteAccessError);
    return true;
  }
  if (wr->is_read) {
    // The landing buffer itself travels to the poller, out of line.
    slot->region.Read(wr->remote_offset, wr->len, wr->landing.get());
    CompleteWr(qp, *wr, WcStatus::kSuccess, std::move(wr->landing));
  } else {
    // One-sided write: lands in remote memory with no remote CPU.
    slot->region.Write(wr->remote_offset, wr->payload(),
                       wr->pinned.empty() ? nullptr : &wr->pinned);
    CompleteWr(qp, *wr, WcStatus::kSuccess);
  }
  return true;
}

void Fabric::DeliverWr(WorkRequest* wr, const std::shared_ptr<QpState>& qp) {
  if (qp->retrying) {
    // An earlier WR on this QP is still inside the NIC retransmission
    // window: queue behind it.
    qp->stalled.push_back(std::move(*wr));
    return;
  }
  bool stalled = false;  // `wr` is the stall queue's front
  for (;;) {
    // false: a retry was scheduled; the WR moved into it and stays
    // head-of-line, qp->retrying set.
    const bool delivered = TryDeliverOnce(wr, qp);
    if (delivered) {
      // The WR produced its completion; its payload bytes go back to the
      // arena for the next post.
      ReleasePayload(wr);
    }
    if (stalled) {
      qp->stalled.pop_front();  // delivered, or an emptied husk
    }
    if (!delivered || qp->stalled.empty()) {
      return;
    }
    wr = &qp->stalled.front();
    stalled = true;
  }
}

QueuePair::QueuePair(Fabric* fabric, NodeId local, NodeId remote, bool warm)
    : fabric_(fabric),
      remote_(remote),
      // A QP toward an unreachable node starts in the error state.
      state_(std::make_shared<Fabric::QpState>(
          local, remote,
          !fabric->IsAlive(remote) || fabric->IsPartitioned(local, remote))) {
  // QP handshake cost; skipped when piggybacking on a warm connection.
  if (!warm) {
    fabric_->sim_->Advance(fabric_->params_->rdma.connect_latency);
  }
}

QueuePair::~QueuePair() {
  if (state_ != nullptr) {
    state_->closed = true;
  }
}

uint64_t QueuePair::PostWrite(RKey rkey, uint64_t remote_offset,
                              std::string_view data) {
  return PostWrite(WriteOp{rkey, remote_offset, data});
}

uint64_t QueuePair::PostWrite(const WriteOp& op) {
  ObsAdd(fabric_->c_doorbells_);
  fabric_->sim_->Advance(fabric_->params_->rdma.post_overhead);
  return EnqueueWrite(op);
}

void QueuePair::PostWriteChain(const WriteOp* ops, size_t count,
                               uint64_t* ids_out) {
  if (count == 0) {
    return;
  }
  const RdmaParams& rdma = fabric_->params_->rdma;
  // One doorbell for the whole chain: full post cost for the first WQE,
  // marginal cost for each one appended behind it.
  ObsAdd(fabric_->c_doorbells_);
  fabric_->sim_->Advance(rdma.post_overhead +
                         rdma.batched_wr_overhead *
                             static_cast<SimTime>(count - 1));
  for (size_t i = 0; i < count; ++i) {
    ids_out[i] = EnqueueWrite(ops[i]);
  }
}

std::vector<uint64_t> QueuePair::PostWriteBatch(
    const std::vector<WriteOp>& ops) {
  std::vector<uint64_t> ids(ops.size(), 0);
  PostWriteChain(ops.data(), ops.size(), ids.data());
  return ids;
}

uint64_t QueuePair::EnqueueWrite(const WriteOp& op) {
  Fabric::WorkRequest wr;
  wr.is_read = false;
  wr.rkey = op.rkey;
  wr.remote_offset = op.remote_offset;
  if (op.owner.empty()) {
    fabric_->AcquirePayload(op.data, &wr);
  } else {
    assert(op.data.data() == op.owner.data() &&
           op.data.size() == op.owner.size());
    wr.pinned = op.owner;
    wr.bytes = op.data.data();
    wr.len = op.data.size();
  }
  return Submit(std::move(wr));
}

uint64_t QueuePair::PostRead(RKey rkey, uint64_t remote_offset, uint64_t len,
                             std::string landing) {
  ObsAdd(fabric_->c_doorbells_);
  fabric_->sim_->Advance(fabric_->params_->rdma.post_overhead);
  Fabric::WorkRequest wr;
  wr.is_read = true;
  wr.rkey = rkey;
  wr.remote_offset = remote_offset;
  wr.landing = std::make_unique<std::string>(std::move(landing));
  wr.len = len;
  return Submit(std::move(wr));
}

uint64_t QueuePair::Submit(Fabric::WorkRequest&& wr) {
  const SimParams& params = *fabric_->params_;
  const uint64_t id = wr.wr_id = state_->next_wr_id++;
  ObsAdd(wr.is_read ? fabric_->c_reads_posted_ : fabric_->c_writes_posted_);
  ObsAdd(wr.is_read ? fabric_->c_read_bytes_ : fabric_->c_write_bytes_,
         wr.len);
  const SimTime now = fabric_->sim_->Now();
  wr.posted_at = now;

  // Latency/bandwidth separation: the WR holds the send queue only while
  // it is issued and serialized onto the wire; the propagation (a WRITE's
  // one way, a READ's round trip) overlaps with later WRs.
  const SimTime start = std::max(now, state_->busy_until);
  state_->busy_until = start + params.RdmaWrOccupancy(wr.len);
  const SimTime modeled =
      start + (wr.is_read ? params.RdmaReadLatency(wr.len)
                          : params.RdmaWriteLatency(wr.len));
  // RC order, the one rule: a WR never lands before the WR posted ahead
  // of it, even a cheaper one (a WRITE behind a READ) or one posted after
  // a link delay was cleared. Ties land in post order (FIFO sim events).
  const SimTime done =
      std::max(modeled + fabric_->LinkDelay(state_->local, remote_),
               state_->delivery_floor);
  state_->delivery_floor = done;
  state_->outstanding++;
  fabric_->sim_->ScheduleAt(
      done, sim::assert_inline([fabric = fabric_, state = state_,
                                w = std::move(wr)]() mutable {
        fabric->DeliverWr(&w, state);
      }));
  return id;
}

bool QueuePair::PollCq(Completion* out) {
  if (state_->cq.empty()) {
    return false;
  }
  *out = std::move(state_->cq.front());
  state_->cq.pop_front();
  return true;
}

void QueuePair::SetCompletionFlag(bool* flag) {
  state_->completion_flag = flag;
}

size_t QueuePair::Outstanding() const { return state_->outstanding; }

bool QueuePair::in_error_state() const { return state_->error; }

}  // namespace splitft
