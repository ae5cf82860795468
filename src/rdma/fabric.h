// Simulated one-sided RDMA fabric (ibverbs-like semantics).
//
// This replaces the RoCE/InfiniBand hardware + the `infinity` ibverbs
// library used by the paper. It models exactly the semantics NCL's
// correctness depends on:
//   * memory regions with rkeys; access fails once an rkey is invalidated
//     (peer crash, revocation, deregistration);
//   * RC queue-pair order, one rule for READs and WRITEs alike: a WR never
//     executes on the remote memory before the WR posted ahead of it on the
//     same QP, whatever their kinds, sizes or the link delays in force when
//     each was posted, and a completion never surfaces before the one ahead
//     of it (§4.4 relies on this);
//   * one-sided WRITE/READ that need no CPU at the target node;
//   * a queue pair enters an error state after a failed WR and flushes all
//     subsequent WRs with errors (standard ibverbs behaviour);
//   * node crashes wipe memory-region contents (volatile DRAM) and
//     invalidate rkeys; partitions make WRs fail with retry-exceeded after
//     a timeout;
//   * in-flight WRs posted before an *initiator* crash still land on the
//     target (this produces the divergent-peer states of Fig 7).
//
// Latencies come from SimParams and accrue on the owning Simulation's
// virtual clock.
#ifndef SRC_RDMA_FABRIC_H_
#define SRC_RDMA_FABRIC_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/shared_bytes.h"
#include "src/common/status.h"
#include "src/obs/obs.h"
#include "src/sim/params.h"
#include "src/sim/simulation.h"

namespace splitft {

using NodeId = uint32_t;
using RKey = uint64_t;

constexpr NodeId kInvalidNode = 0xffffffffu;

// Work-completion status, mirroring the ibverbs codes NCL cares about.
enum class WcStatus {
  kSuccess,
  kRemoteAccessError,  // invalid/revoked rkey or out-of-bounds access
  kRetryExceeded,      // target unreachable (crash or partition)
  kFlushError,         // QP was in error state; WR flushed without executing
};

std::string_view WcStatusName(WcStatus status);

// A work completion. Small by design: the fabric's CQ, the pool's
// per-handle ready queues and every PollCq move it by value, so a READ's
// bytes ride out of line (DESIGN.md §15, "The work-request lifecycle").
struct Completion {
  uint64_t wr_id = 0;
  WcStatus status = WcStatus::kSuccess;
  // For a successful RDMA READ: the READ's landing buffer, holding the
  // bytes read from the remote region. Null for every WRITE and for a
  // failed READ.
  std::unique_ptr<std::string> read_data;
};

class QueuePair;

class Fabric {
 public:
  // `obs` is optional: with a null registry/tracer the fabric runs
  // uninstrumented at no cost. Registry keys: "fabric.wr.*" counters plus
  // async spans "fabric.wr.write" / "fabric.wr.read" spanning post to
  // completion in sim time.
  Fabric(Simulation* sim, const SimParams* params, ObsContext obs = {});

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // ---- Topology & failure injection -------------------------------------

  NodeId AddNode(std::string name);
  const std::string& NodeName(NodeId id) const;
  bool IsAlive(NodeId id) const;

  // Crashing a node wipes every memory region it hosts (DRAM is volatile)
  // and invalidates all rkeys. In-flight WRs targeting it will fail.
  void CrashNode(NodeId id);
  // Brings the node back with empty memory; old rkeys stay invalid.
  void RestartNode(NodeId id);

  // Symmetric link partition between two nodes.
  void SetPartitioned(NodeId a, NodeId b, bool partitioned);
  bool IsPartitioned(NodeId a, NodeId b) const;

  // Transient partition: partitions the link now and schedules the heal
  // `heal_after` ns in the future. Returns a Simulation token that cancels
  // the pending heal (healing the link is then the caller's job).
  uint64_t PartitionFor(NodeId a, NodeId b, SimTime heal_after);

  // Per-link delay spike: every WR posted on the link pays `extra` ns on
  // top of the modeled latency (jitter, congestion, a misbehaving switch).
  // 0 clears the spike.
  void SetLinkDelay(NodeId a, NodeId b, SimTime extra);
  SimTime LinkDelay(NodeId a, NodeId b) const;

  // Delayed WR completions: the WR executes on the remote memory at its
  // normal time but the completion surfaces in the local CQ `delay` ns
  // late — the data is durable before the initiator learns it, the race
  // window that makes replacement-vs-slow-completion interesting. 0 clears.
  void SetCompletionDelay(NodeId a, NodeId b, SimTime delay);
  SimTime CompletionDelay(NodeId a, NodeId b) const;

  // Clears every injected link fault (partitions, delay spikes, completion
  // delays). Crashed nodes stay crashed.
  void ClearLinkFaults();

  // ---- Memory regions (peer-side, CPU-involving setup path) -------------

  // Allocates and registers a region of `size` bytes on `node`, charging the
  // virtual clock for page pinning + NIC registration. Returns the rkey.
  Result<RKey> RegisterRegion(NodeId node, uint64_t size);

  // Region carved out of an already-registered slab (ibverbs type-2 memory
  // window): same semantics as RegisterRegion — own rkey, invalidated on
  // crash/revoke like any region — but charges only the cheap window-bind
  // latency (RdmaParams::mw_bind_latency). The caller (LogPeer's slab pool)
  // is responsible for having paid the slab's pinning + registration cost.
  Result<RKey> BindWindowRegion(NodeId node, uint64_t size);

  // Revokes remote access (memory reclamation, §4.5.2): instantaneous and
  // local; subsequent one-sided ops on the rkey fail.
  Status InvalidateRegion(NodeId node, RKey rkey);

  // Frees the region entirely.
  Status DeregisterRegion(NodeId node, RKey rkey);

  // Recycles a region (§4.3): invalidates the old rkey but keeps the
  // memory pinned and NIC-registered, returning a fresh rkey over the
  // zeroed buffer. Vastly cheaper than DeregisterRegion + RegisterRegion.
  Result<RKey> RecycleRegion(NodeId node, RKey rkey);

  // Local (same-node, CPU) access to a region's bytes, for peer-side logic
  // (catch-up cloning) and tests. Each fails if the node is down, the rkey
  // is invalid, or the range falls outside the region.
  Result<std::string> ReadRegion(NodeId node, RKey rkey, uint64_t offset,
                                 uint64_t len) const;
  Status WriteRegion(NodeId node, RKey rkey, uint64_t offset,
                     std::string_view data);
  // Copies the contents of region `src` onto the same-sized region `dst`.
  Status CopyRegion(NodeId node, RKey src, RKey dst);
  Result<uint64_t> RegionSize(NodeId node, RKey rkey) const;

  // Host-side diagnostics (no simulated meaning): bytes of region memory
  // materialized on `node`; host bytes behind every region of the fabric,
  // a WRITE payload that chunks adopted slices of counted once, in full,
  // however many chunks and regions share it; and bytes held by the WR
  // payload arenas.
  uint64_t ResidentRegionBytes(NodeId node) const;
  uint64_t HostRegionBytes() const;
  uint64_t PooledPayloadBytes() const;

  // ---- Spare host buffer (host-side, no simulated meaning) ---------------

  // The app node's memory outlives a crashed process: a closed NCL file
  // leaves its log buffer here, and that file's recovery READ lands in it
  // instead of in freshly faulted pages (DESIGN.md §15). The fabric holds
  // at most one spare; keeping one drops the previous spare, whatever
  // its key. An empty `bytes` only drops it.
  void KeepSpareBuffer(std::string key, std::string bytes);
  // The spare kept under `key` if its capacity is at least `min_capacity`,
  // else an empty string. A spare under `key` is dropped either way.
  std::string TakeSpareBuffer(std::string_view key, uint64_t min_capacity);
  // Drops the spare kept under `key`, if any.
  void DropSpareBuffer(std::string_view key);
  // Capacity of the spare held, in bytes (0 when none is held).
  uint64_t SpareBufferBytes() const {
    return spare_.bytes.empty() ? 0 : spare_.bytes.capacity();
  }

  // Region memory materializes in chunks of at most this many bytes.
  static constexpr uint64_t kRegionChunkBytes = 1 << 20;
  // WR payload arenas: copied write payloads are bump-allocated from
  // blocks, a payload up to a quarter of a small block in the small arena
  // and one up to kArenaPayloadMax in the large one, so the bytes of the
  // common small appends cycle through a cache-sized block. A payload
  // above kArenaPayloadMax (a bulk catch-up post) gets a buffer of its
  // own, freed when the WR lands, so it is never retained. Each arena
  // keeps up to kSparePayloadBlocks idle blocks besides its current one
  // and frees the rest.
  static constexpr size_t kPayloadBlockBytes[2] = {64 << 10, 1 << 20};
  static constexpr size_t kArenaPayloadMax = kPayloadBlockBytes[1] / 4;
  static constexpr size_t kSparePayloadBlocks = 2;

  Simulation* sim() const { return sim_; }
  const SimParams& params() const { return *params_; }

 private:
  friend class QueuePair;

  // One chunk of a region: a buffer of its own, or an adopted immutable
  // slice of a WRITE payload (DESIGN.md §15, "Region memory"); neither
  // while it was never written.
  struct Chunk {
    const char* data() const {
      return own != nullptr ? own.get() : adopted.data();
    }

    std::unique_ptr<char[]> own;
    SharedBytes adopted;
  };

  // A registered region's bytes, materialized on demand. `size` is the
  // registered length, which every cost is priced by. The bytes live in
  // chunks of kRegionChunkBytes (the last one holds only the remainder),
  // each materialized by the first write that touches it; a missing chunk
  // reads as zeros.
  struct Region {
    explicit Region(uint64_t bytes);

    uint64_t ChunkLen(size_t index) const;
    // Both require [offset, offset + len) to lie within `size`. Read
    // replaces `*out` with the bytes, reusing its capacity. Write copies
    // `data` into the chunks it touches, except that with `owner` (which
    // holds the bytes `data` views) a chunk it covers whole adopts a slice
    // of `owner` instead; a partial write into an adopted chunk copies the
    // chunk first.
    void Read(uint64_t offset, uint64_t len, std::string* out) const;
    void Write(uint64_t offset, std::string_view data,
               const SharedBytes* owner = nullptr);
    // Drops every chunk: the region reads as zeros again.
    void Zero();
    uint64_t ResidentBytes() const;

    uint64_t size;
    std::vector<Chunk> chunks;
    bool valid = true;
  };

  struct Node {
    std::string name;
    bool alive = true;
  };

  // One entry of the region table. An rkey is (index + 1) << 32 | the
  // slot's generation, so none is 0; the generation moves on whenever the
  // rkey dies (deregistration, crash, recycle), so a stale one never matches.
  struct RegionSlot {
    Region region{0};
    NodeId node = kInvalidNode;  // owner; kInvalidNode while the slot is free
    uint32_t generation = 0;
  };

  // Injected faults on one link, either direction.
  struct LinkFaults {
    bool partitioned = false;
    SimTime delay = 0;             // SetLinkDelay
    SimTime completion_delay = 0;  // SetCompletionDelay
    bool operator==(const LinkFaults&) const = default;
  };

  struct QpState;

  struct PayloadArena;

  // A block of a WR payload arena. `live` counts the WRs whose payload
  // sits in it; once it drops to zero the block is empty again. The bytes
  // are allocated uninitialized, so a block costs resident memory only as
  // far as its bump pointer has gone.
  struct PayloadBlock {
    explicit PayloadBlock(PayloadArena* owner)
        : arena(owner),
          bytes(std::make_unique_for_overwrite<char[]>(owner->block_bytes)) {}

    PayloadArena* arena;
    uint32_t used = 0;
    uint32_t live = 0;
    std::unique_ptr<char[]> bytes;
  };

  struct PayloadArena {
    size_t block_bytes;
    std::vector<std::unique_ptr<PayloadBlock>> blocks;
    PayloadBlock* current = nullptr;
  };

  struct WorkRequest {
    uint64_t wr_id;
    RKey rkey;
    uint64_t remote_offset;
    // Payload bytes for a write, bytes to read for a read.
    uint64_t len;
    // A write's payload: `len` bytes at `bytes`, held either in the arena
    // (`block` set) or by `pinned` — the owner of a bulk write posted with
    // one, or the WR's own copy of an oversized payload. The region a
    // pinned payload lands in adopts the chunks it covers whole.
    const char* bytes = nullptr;
    PayloadBlock* block = nullptr;
    SharedBytes pinned;
    // A read's landing buffer; the region's bytes replace its contents and
    // it travels on, out of line, as the completion's read_data.
    std::unique_ptr<std::string> landing;
    // First delivery attempt (for the NIC retransmission window); -1 until
    // the WR reaches the head of the delivery pipeline.
    SimTime first_attempt = -1;
    // Post timestamp, for the post→completion async trace span.
    SimTime posted_at = 0;
    bool is_read;

    std::string_view payload() const { return {bytes, len}; }
  };

  Status CheckAlive(NodeId id) const;
  // The link's faults (none: all clear).
  LinkFaults Faults(NodeId a, NodeId b) const;
  // Sets one fault of the link; a link left with none loses its entry.
  template <typename T>
  void SetLinkFault(NodeId a, NodeId b, T LinkFaults::*fault, T value);

  // A `size`-byte region in a free slot on a live `node`, charging `cost`.
  Result<RKey> CreateRegion(NodeId node, uint64_t size, SimTime cost);
  // Frees the slot: its region's memory is dropped and its rkey dies.
  void FreeSlot(RegionSlot* slot);
  // The valid region `rkey` on a live `node`, or the error local access
  // reports.
  Result<Region*> LocalRegion(NodeId node, RKey rkey);
  Result<const Region*> LocalRegion(NodeId node, RKey rkey) const;
  // Delivers `wr` at its scheduled time and then the WRs stalled behind it
  // while it retried; behind a WR still retrying, stalls it instead. `wr`
  // is worked on in place: owned by the closure that calls in (or by the
  // stalled queue), it moves only to outlive that owner — into the stalled
  // queue, or into its own retry closure.
  void DeliverWr(WorkRequest* wr, const std::shared_ptr<QpState>& qp);
  // One delivery attempt. Returns false if a NIC retry was scheduled (the
  // WR, moved into the retry closure, stays head-of-line), true once a
  // completion was produced.
  bool TryDeliverOnce(WorkRequest* wr, const std::shared_ptr<QpState>& qp);
  void CompleteWr(const std::shared_ptr<QpState>& qp, const WorkRequest& wr,
                  WcStatus status,
                  std::unique_ptr<std::string> read_data = nullptr);
  void PushCompletion(const std::shared_ptr<QpState>& qp, uint64_t wr_id,
                      WcStatus status, std::unique_ptr<std::string> read_data);

  // WR payload arena. A write payload posted without an owner is copied
  // out of the caller's buffer into the current arena block (bump
  // allocation, no per-WR bookkeeping beyond the block's live count), so
  // the steady-state post→deliver cycle allocates nothing and the bytes
  // of WRs in flight sit together. The block is reused in place once its
  // last WR lands. A WR holds its block by raw pointer and never touches
  // it outside delivery, so a WR destroyed undelivered at teardown is
  // harmless; the fabric owns and frees every block.
  void AcquirePayload(std::string_view data, WorkRequest* wr);
  void ReleasePayload(WorkRequest* wr);
  static PayloadBlock* FreshPayloadBlock(PayloadArena* arena);

  Simulation* sim_;
  const SimParams* params_;
  std::vector<Node> nodes_;
  std::unordered_map<uint64_t, LinkFaults> link_faults_;  // faulty links
  std::vector<RegionSlot> region_slots_;
  std::vector<uint32_t> free_slots_;  // indexes into region_slots_

  PayloadArena payload_arenas_[2] = {{kPayloadBlockBytes[0], {}, nullptr},
                                     {kPayloadBlockBytes[1], {}, nullptr}};

  struct Spare {
    std::string key;
    std::string bytes;
  };
  Spare spare_;

  ObsContext obs_;
  Counter* c_writes_posted_;
  Counter* c_reads_posted_;
  Counter* c_write_bytes_;
  Counter* c_read_bytes_;
  Counter* c_failed_wrs_;
  Counter* c_doorbells_;
  Counter* c_wr_retries_;
  Counter* c_wr_retry_recoveries_;
};

// A queue pair connecting a local node to one remote node. One-sided
// operations execute against remote memory regions with no remote CPU,
// in post order, and complete in post order.
class QueuePair {
 public:
  // Establishing the QP charges the connection-handshake latency unless
  // `warm` (an existing connection to this node is being multiplexed —
  // ncl-lib keeps connections to known peers alive across log rotations).
  QueuePair(Fabric* fabric, NodeId local, NodeId remote, bool warm = false);
  ~QueuePair();

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  NodeId remote() const { return remote_; }

  // Posts a one-sided RDMA WRITE; returns the wr_id that will appear in the
  // completion queue. Never blocks.
  uint64_t PostWrite(RKey rkey, uint64_t remote_offset, std::string_view data);

  // One WRITE (PostWrite, or within a PostWriteChain / PostWriteBatch
  // chain). Built from a view, the bytes are copied into the fabric's WR
  // payload arena before the post call returns, so the backing storage only
  // needs to outlive the call itself. Built from a slice (catch-up image
  // posts), `owner` holds exactly the bytes `data` views, and the WR keeps
  // that reference until it lands instead of copying; the bytes stay
  // alive even if the poster dies with the WR in flight. The target region
  // then keeps a reference to every chunk the bytes cover whole, so an
  // owner that aliases a growing buffer (a CowBuffer slice) would make its
  // next mutation copy the buffer.
  struct WriteOp {
    WriteOp() = default;
    WriteOp(RKey key, uint64_t offset, std::string_view bytes)
        : rkey(key), remote_offset(offset), data(bytes) {}
    WriteOp(RKey key, uint64_t offset, SharedBytes bytes)
        : rkey(key),
          remote_offset(offset),
          data(bytes.view()),
          owner(std::move(bytes)) {}

    RKey rkey = 0;
    uint64_t remote_offset = 0;
    std::string_view data;
    SharedBytes owner;
  };

  // Posts one WRITE, referencing `op.owner` when set.
  uint64_t PostWrite(const WriteOp& op);

  // Posts a chain of WRITEs with a single doorbell ring: the batch pays
  // post_overhead once plus batched_wr_overhead per additional WR instead
  // of post_overhead per WR.
  // Send-queue ordering is preserved — the chain completes in post order,
  // after every WR posted earlier on this QP. Writes the wr_ids to
  // `ids_out` (which must hold `count` slots) in chain order. Never
  // blocks, never allocates: payloads land in the fabric's WR payload
  // arena. This is the NCL append hot path.
  void PostWriteChain(const WriteOp* ops, size_t count, uint64_t* ids_out);

  // Convenience wrapper over PostWriteChain for callers that already hold
  // a vector (setup/recovery paths, tests).
  std::vector<uint64_t> PostWriteBatch(const std::vector<WriteOp>& ops);

  // Posts a one-sided RDMA READ of `len` bytes. The completion's
  // read_data is `landing`, its old bytes replaced by the region's (a
  // READ into a local scatter entry): a landing buffer with the capacity
  // allocates nothing.
  uint64_t PostRead(RKey rkey, uint64_t remote_offset, uint64_t len,
                    std::string landing = {});

  // Non-blocking completion poll; returns true and fills `out` if a
  // completion was available.
  bool PollCq(Completion* out);

  // Completion notification: every completion that lands in this QP's CQ
  // sets `*flag` (nullptr: none). Only the flag is touched inside the
  // fabric's delivery event; the owner polls and clears it on its own
  // schedule. `*flag` must outlive this QueuePair — a destroyed QP's late
  // completions are dropped without touching it.
  void SetCompletionFlag(bool* flag);

  // Number of WRs posted but not yet surfaced in the CQ.
  size_t Outstanding() const;

  // True once any WR failed; subsequent posts complete with kFlushError.
  bool in_error_state() const;

 private:
  friend class Fabric;

  // Submits one WRITE. Charges no posting overhead: the caller paid the
  // doorbell (once per chain under doorbell coalescing). The payload is
  // referenced through `op.owner` when set, else copied into the arena.
  uint64_t EnqueueWrite(const WriteOp& op);
  // The one submit path for READs and WRITEs: assigns the wr_id, occupies
  // the send queue, and schedules delivery under RC order — never before
  // the WR posted ahead of it on this QP.
  uint64_t Submit(Fabric::WorkRequest&& wr);

  Fabric* fabric_;
  NodeId remote_;
  std::shared_ptr<Fabric::QpState> state_;
};

}  // namespace splitft

#endif  // SRC_RDMA_FABRIC_H_
