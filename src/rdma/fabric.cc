#include "src/rdma/fabric.h"

#include <algorithm>
#include <cassert>
#include <cstring>
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
  SimTime busy_until = 0;    // SQ ordering: next WR completes after this
  // Delay-fault order floors. `delivery_floor` is the latest delivery time
  // of a WR posted under a link delay, `cq_floor` the latest time a
  // delayed completion was scheduled to surface: no later WR lands, and no
  // later completion surfaces, before them — even after the delay that set
  // them is cleared or shortened. Both stay below every sim time while no
  // delay is injected.
  SimTime delivery_floor = 0;
  SimTime cq_floor = -1;
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
    if (chunks[index] != nullptr) {
      out->append(chunks[index].get() + within, n);
    } else {
      out->append(n, '\0');
    }
    offset += n;
    len -= n;
  }
}

void Fabric::Region::Write(uint64_t offset, std::string_view data) {
  while (!data.empty()) {
    size_t index = offset / kRegionChunkBytes;
    uint64_t within = offset % kRegionChunkBytes;
    uint64_t n = std::min<uint64_t>(data.size(), ChunkLen(index) - within);
    std::unique_ptr<char[]>& chunk = chunks[index];
    if (chunk == nullptr) {
      // Fresh memory reads as zeros; zero only what this write leaves.
      const uint64_t chunk_len = ChunkLen(index);
      chunk = std::make_unique_for_overwrite<char[]>(chunk_len);
      std::memset(chunk.get(), 0, within);
      std::memset(chunk.get() + within + n, 0, chunk_len - within - n);
    }
    std::memcpy(chunk.get() + within, data.data(), n);
    offset += n;
    data.remove_prefix(n);
  }
}

void Fabric::Region::Zero() {
  for (std::unique_ptr<char[]>& chunk : chunks) {
    chunk.reset();
  }
}

uint64_t Fabric::Region::ResidentBytes() const {
  uint64_t bytes = 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    if (chunks[i] != nullptr) {
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

Fabric::~Fabric() = default;

NodeId Fabric::AddNode(std::string name) {
  nodes_.push_back(Node{std::move(name), /*alive=*/true, {}});
  return static_cast<NodeId>(nodes_.size() - 1);
}

const std::string& Fabric::NodeName(NodeId id) const {
  return nodes_.at(id).name;
}

bool Fabric::IsAlive(NodeId id) const { return nodes_.at(id).alive; }

void Fabric::CrashNode(NodeId id) {
  Node& node = nodes_.at(id);
  node.alive = false;
  // Volatile memory: contents are gone and rkeys invalid.
  node.regions.clear();
}

void Fabric::RestartNode(NodeId id) { nodes_.at(id).alive = true; }

uint64_t Fabric::PartitionKey(NodeId a, NodeId b) const {
  NodeId lo = std::min(a, b);
  NodeId hi = std::max(a, b);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

void Fabric::SetPartitioned(NodeId a, NodeId b, bool partitioned) {
  if (partitioned) {
    partitions_.insert(PartitionKey(a, b));
  } else {
    partitions_.erase(PartitionKey(a, b));
  }
}

// The three fault lookups sit on every WR's path; with no fault of the
// kind injected they answer without hashing.
bool Fabric::IsPartitioned(NodeId a, NodeId b) const {
  return !partitions_.empty() && partitions_.count(PartitionKey(a, b)) > 0;
}

uint64_t Fabric::PartitionFor(NodeId a, NodeId b, SimTime heal_after) {
  SetPartitioned(a, b, true);
  return sim_->ScheduleCancelableAt(sim_->Now() + heal_after,
                                    [this, a, b] { SetPartitioned(a, b, false); });
}

void Fabric::SetLinkDelay(NodeId a, NodeId b, SimTime extra) {
  if (extra > 0) {
    link_delays_[PartitionKey(a, b)] = extra;
  } else {
    link_delays_.erase(PartitionKey(a, b));
  }
}

SimTime Fabric::LinkDelay(NodeId a, NodeId b) const {
  if (link_delays_.empty()) {
    return 0;
  }
  auto it = link_delays_.find(PartitionKey(a, b));
  return it == link_delays_.end() ? 0 : it->second;
}

void Fabric::SetCompletionDelay(NodeId a, NodeId b, SimTime delay) {
  if (delay > 0) {
    completion_delays_[PartitionKey(a, b)] = delay;
  } else {
    completion_delays_.erase(PartitionKey(a, b));
  }
}

SimTime Fabric::CompletionDelay(NodeId a, NodeId b) const {
  if (completion_delays_.empty()) {
    return 0;
  }
  auto it = completion_delays_.find(PartitionKey(a, b));
  return it == completion_delays_.end() ? 0 : it->second;
}

void Fabric::ClearLinkFaults() {
  partitions_.clear();
  link_delays_.clear();
  completion_delays_.clear();
}

Result<RKey> Fabric::RegisterRegion(NodeId node_id, uint64_t size) {
  Node& node = nodes_.at(node_id);
  if (!node.alive) {
    return UnavailableError("node " + node.name + " is down");
  }
  // Page pinning + NIC registration cost, charged to the caller's timeline
  // (the peer's lightweight setup process performs it synchronously).
  sim_->Advance(params_->MrRegisterLatency(size));
  RKey rkey = next_rkey_++;
  node.regions.emplace(rkey, Region(size));
  return rkey;
}

Result<RKey> Fabric::BindWindowRegion(NodeId node_id, uint64_t size) {
  Node& node = nodes_.at(node_id);
  if (!node.alive) {
    return UnavailableError("node " + node.name + " is down");
  }
  // The slab already paid pinning + NIC registration; a window bind is a
  // send-queue operation granting a fresh rkey over a sub-range.
  sim_->Advance(params_->rdma.mw_bind_latency);
  RKey rkey = next_rkey_++;
  node.regions.emplace(rkey, Region(size));
  return rkey;
}

Status Fabric::InvalidateRegion(NodeId node_id, RKey rkey) {
  Node& node = nodes_.at(node_id);
  auto it = node.regions.find(rkey);
  if (it == node.regions.end()) {
    return NotFoundError("no such region");
  }
  it->second.valid = false;
  return OkStatus();
}

Result<RKey> Fabric::RecycleRegion(NodeId node_id, RKey rkey) {
  Node& node = nodes_.at(node_id);
  if (!node.alive) {
    return UnavailableError("node " + node.name + " is down");
  }
  auto it = node.regions.find(rkey);
  if (it == node.regions.end()) {
    return NotFoundError("no such region");
  }
  Region region = std::move(it->second);
  node.regions.erase(it);
  // Zero the reused memory (local peer-side memset), priced by the full
  // registered size however little of it was materialized.
  region.Zero();
  sim_->Advance(static_cast<SimTime>(
      static_cast<double>(region.size) / 12.0));  // ~12 GB/s memset
  region.valid = true;
  RKey fresh = next_rkey_++;
  node.regions.emplace(fresh, std::move(region));
  return fresh;
}

Status Fabric::DeregisterRegion(NodeId node_id, RKey rkey) {
  Node& node = nodes_.at(node_id);
  if (node.regions.erase(rkey) == 0) {
    return NotFoundError("no such region");
  }
  return OkStatus();
}

Result<const Fabric::Region*> Fabric::LocalRegion(NodeId node_id,
                                                 RKey rkey) const {
  const Node& node = nodes_.at(node_id);
  if (!node.alive) {
    return UnavailableError("node " + node.name + " is down");
  }
  auto it = node.regions.find(rkey);
  if (it == node.regions.end() || !it->second.valid) {
    return PermissionDeniedError("invalid rkey");
  }
  return &it->second;
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
  for (size_t i = 0; i < from->chunks.size(); ++i) {
    if (from->chunks[i] == nullptr) {
      to->chunks[i].reset();
      continue;
    }
    if (to->chunks[i] == nullptr) {
      to->chunks[i] = std::make_unique_for_overwrite<char[]>(to->ChunkLen(i));
    }
    std::memcpy(to->chunks[i].get(), from->chunks[i].get(), from->ChunkLen(i));
  }
  return OkStatus();
}

Result<uint64_t> Fabric::RegionSize(NodeId node_id, RKey rkey) const {
  ASSIGN_OR_RETURN(const Region* region, LocalRegion(node_id, rkey));
  return region->size;
}

uint64_t Fabric::ResidentRegionBytes(NodeId node_id) const {
  uint64_t bytes = 0;
  for (const auto& [rkey, region] : nodes_.at(node_id).regions) {
    bytes += region.ResidentBytes();
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
  if (qp->closed) {
    // Initiator is gone; nobody will poll this CQ.
    qp->outstanding--;
    return;
  }
  qp->cq.push_back(Completion{wr_id, status, std::move(read_data)});
  qp->outstanding--;
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
  uint64_t wr_id = wr.wr_id;
  // CQ order: a completion never overtakes one still held by a completion
  // delay, even once that delay is cleared. One due this very instant may
  // not have fired yet, so a tie queues behind it too (FIFO at equal times).
  SimTime now = sim_->Now();
  SimTime at = now + CompletionDelay(qp->local, qp->remote);
  if (at > now || qp->cq_floor >= now) {
    at = std::max(at, qp->cq_floor);
    qp->cq_floor = at;
    sim_->ScheduleAt(at, sim::assert_inline([this, qp, wr_id, status,
                             data = std::move(read_data)]() mutable {
      PushCompletion(qp, wr_id, status, std::move(data));
    }));
    return;
  }
  PushCompletion(qp, wr_id, status, std::move(read_data));
}

bool Fabric::TryDeliverOnce(WorkRequest* wr,
                            const std::shared_ptr<QpState>& qp) {
  Node& target = nodes_.at(qp->remote);
  if (qp->error) {
    CompleteWr(qp, *wr, WcStatus::kFlushError);
    return true;
  }
  SimTime now = sim_->Now();
  if (wr->first_attempt < 0) {
    wr->first_attempt = now;
  }
  if (!target.alive || IsPartitioned(qp->local, qp->remote)) {
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
                                     DeliverInOrder(&w, state);
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
  auto region_it = target.regions.find(wr->rkey);
  if (region_it == target.regions.end() || !region_it->second.valid) {
    CompleteWr(qp, *wr, WcStatus::kRemoteAccessError);
    return true;
  }
  Region& region = region_it->second;
  uint64_t len = wr->len;
  if (!InBounds(wr->remote_offset, len, region.size)) {
    CompleteWr(qp, *wr, WcStatus::kRemoteAccessError);
    return true;
  }
  if (wr->is_read) {
    // The landing buffer itself travels to the poller, out of line.
    region.Read(wr->remote_offset, len, wr->landing.get());
    CompleteWr(qp, *wr, WcStatus::kSuccess, std::move(wr->landing));
  } else {
    // One-sided write: lands in remote memory with no remote CPU.
    region.Write(wr->remote_offset, wr->payload());
    CompleteWr(qp, *wr, WcStatus::kSuccess);
  }
  return true;
}

void Fabric::DeliverInOrder(WorkRequest* wr,
                            const std::shared_ptr<QpState>& qp) {
  qp->retrying = false;
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

void Fabric::DeliverWr(WorkRequest* wr, const std::shared_ptr<QpState>& qp) {
  // Executed at the WR's scheduled completion time. If an earlier WR on
  // this QP is still inside the NIC retransmission window, queue behind it
  // to preserve send-queue order.
  if (qp->retrying) {
    qp->stalled.push_back(std::move(*wr));
    return;
  }
  DeliverInOrder(wr, qp);
}

QueuePair::QueuePair(Fabric* fabric, NodeId local, NodeId remote, bool warm)
    : fabric_(fabric), local_(local), remote_(remote) {
  state_ = std::make_shared<Fabric::QpState>();
  state_->local = local;
  state_->remote = remote;
  // QP handshake cost; skipped when piggybacking on a warm connection.
  if (!warm) {
    fabric_->sim_->Advance(fabric_->params_->rdma.connect_latency);
  }
  if (!fabric_->IsAlive(remote) || fabric_->IsPartitioned(local, remote)) {
    state_->error = true;
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
  wr.wr_id = state_->next_wr_id++;
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
  const uint64_t bytes = op.data.size();

  ObsAdd(fabric_->c_writes_posted_);
  ObsAdd(fabric_->c_write_bytes_, bytes);
  wr.posted_at = fabric_->sim_->Now();

  // Latency/bandwidth separation: the WR holds the send queue only while
  // it is issued and serialized onto the wire; fabric propagation overlaps
  // with later WRs. Completion times stay monotone per QP because the
  // occupancy of WR i plus the serialization of WR i+1 is always positive,
  // so SQ completion ordering is preserved.
  SimTime now = fabric_->sim_->Now();
  SimTime start = std::max(now, state_->busy_until);
  state_->busy_until = start + fabric_->params_->RdmaWrOccupancy(bytes);
  SimTime done =
      DeliveryTime(start + fabric_->params_->RdmaWriteLatency(bytes));
  state_->outstanding++;
  auto state = state_;
  Fabric* fabric = fabric_;
  uint64_t id = wr.wr_id;
  fabric_->sim_->ScheduleAt(
      done, sim::assert_inline([fabric, state, w = std::move(wr)]() mutable {
        fabric->DeliverWr(&w, state);
      }));
  return id;
}

SimTime QueuePair::DeliveryTime(SimTime modeled) {
  // SQ order under delay faults: a WR posted after a link delay was
  // cleared or shortened still lands after every WR posted under it.
  SimTime extra = fabric_->LinkDelay(local_, remote_);
  SimTime done = std::max(modeled + extra, state_->delivery_floor);
  if (extra > 0) {
    state_->delivery_floor = done;
  }
  return done;
}

uint64_t QueuePair::PostRead(RKey rkey, uint64_t remote_offset, uint64_t len,
                             std::string landing) {
  Fabric::WorkRequest wr;
  wr.wr_id = state_->next_wr_id++;
  wr.is_read = true;
  wr.rkey = rkey;
  wr.remote_offset = remote_offset;
  wr.landing = std::make_unique<std::string>(std::move(landing));
  wr.len = len;

  ObsAdd(fabric_->c_reads_posted_);
  ObsAdd(fabric_->c_read_bytes_, len);
  ObsAdd(fabric_->c_doorbells_);
  fabric_->sim_->Advance(fabric_->params_->rdma.post_overhead);
  wr.posted_at = fabric_->sim_->Now();

  // Same pipelined model as EnqueueWrite: the read request occupies the SQ
  // for issue + response serialization; the round-trip base overlaps.
  SimTime now = fabric_->sim_->Now();
  SimTime start = std::max(now, state_->busy_until);
  state_->busy_until = start + fabric_->params_->RdmaWrOccupancy(len);
  SimTime done = DeliveryTime(start + fabric_->params_->RdmaReadLatency(len));
  state_->outstanding++;
  auto state = state_;
  Fabric* fabric = fabric_;
  uint64_t id = wr.wr_id;
  fabric_->sim_->ScheduleAt(
      done, sim::assert_inline([fabric, state, w = std::move(wr)]() mutable {
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
