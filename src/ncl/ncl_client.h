// ncl-lib: the application-side NCL library (§4.2–§4.5).
//
// NclClient manages one application instance's ncl files. NclFile implements
// the NCL protocol over the client's NclGeometry (src/ncl/geometry.h):
// 2f+1 replication is the k = 1 geometry, k+m erasure coding the striped
// one, and both run the same code:
//   * every application write becomes two ordered RDMA WRITE WRs per peer
//     (the slot's bytes for the write, then the sequence-number header);
//   * a write is acknowledged once an ack quorum (f+1 replicas, or the
//     first k shards) has completed it *and every preceding write*;
//   * peer failures are detected via WR errors; the failed peer is replaced
//     with a fresh one, which is caught up from the local buffer *before*
//     the ap-map is updated (§4.5.2, Fig 7iii);
//   * recovery reads the header from every reachable peer, claims the
//     freshest state a quorum guarantees, rebuilds it locally, and
//     atomically catches every reachable peer up before returning data to
//     the application (§4.5.1, Fig 7i–ii).
#ifndef SRC_NCL_NCL_CLIENT_H_
#define SRC_NCL_NCL_CLIENT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/controller/controller.h"
#include "src/obs/obs.h"
#include "src/ncl/connection_pool.h"
#include "src/ncl/ec.h"
#include "src/ncl/geometry.h"
#include "src/ncl/peer.h"
#include "src/ncl/peer_directory.h"
#include "src/ncl/region_format.h"
#include "src/rdma/fabric.h"
#include "src/sim/retry.h"

namespace splitft {

struct NclConfig {
  std::string app_id = "app";
  // Failure budget f: each ncl file is replicated on n = 2f+1 log peers.
  int fault_budget = 1;
  // Content capacity reserved per ncl file (applications size their logs
  // via configuration; the paper's experiments use 60-100 MB logs).
  uint64_t default_capacity = 64ull << 20;
  // Prefetch the whole region from the recovery peer on recovery (Fig 11a).
  bool prefetch_on_recovery = true;
  // Ship a bytewise diff instead of the full contents during catch-up
  // (§4.5.1 optimization; ablation_catchup).
  bool diff_catchup = false;
  // Replace failed peers as soon as the failure is detected.
  bool eager_peer_replacement = true;
  // Bounded append pipelining: how many appends may be in flight (posted
  // but not yet quorum-committed) before AppendAsync blocks. 1 keeps the
  // seed's fully synchronous behaviour — every append waits out its quorum
  // round before the next one posts. Larger windows overlap quorum rounds;
  // SQ ordering keeps the region log prefix-ordered regardless, so
  // recovery never observes a sequence gap (tested in ncl_test).
  int inflight_window = 8;

  // Erasure-coded regions (DESIGN.md §16). When enabled, every ncl file is
  // striped as ec.k data + ec.m parity shards over k+m peers instead of
  // fully replicated on 2f+1, and an append is acknowledged on the *first
  // k* shard-header completions for it and every preceding append (late
  // binding — the slowest peers drop off the critical path). Durability is
  // f = m at (k+m)/k× memory instead of (f+1)×: k=2,m=2 gives f=2 at 2×
  // where replication needs 3×. EC files are append-only (positional
  // overwrite of committed bytes cannot be reconstructed column-
  // consistently from mixed-seq shards; Truncate is fine — it is
  // header-only). The geometry is validated against fault_budget and the
  // registered-peer count at client construction; see NclClient::status().
  bool ec_enabled = false;
  EcGeometry ec = {};
  // The redundancy geometry these settings select.
  NclGeometry geometry() const {
    return ec_enabled ? NclGeometry::Striped(ec)
                      : NclGeometry::Replicated(fault_budget);
  }

  // Shared connection pool (DESIGN.md §14). When set, this client draws its
  // peer QPs from the pool (shared with every co-located tenant on the same
  // node) and caps its effective inflight_window at the pool's per-client
  // carve of the shared in-flight budget. When null, the client constructs
  // a private pool — single-tenant behaviour is then identical to the
  // historical one-QP-per-slot layout. The pool must outlive the client and
  // be rooted at the same fabric node passed to the constructor.
  NclConnectionPool* pool = nullptr;

  // Unified transient-fault policy. The default (max_attempts = 1) keeps
  // the seed behaviour: every WR error, failed directory lookup, or
  // controller RPC failure is final. Raising max_attempts turns
  // kRetryExceeded WR errors into *suspect* slots that are resurrected
  // with exponential backoff until the policy is exhausted, retries
  // kTimedOut controller RPCs (outage windows), and retries unreachable
  // setup-process lookups — only after exhaustion is a peer demoted to
  // dead and replaced.
  RetryPolicy retry = {};
  // Seed for the client's deterministic RNG (backoff jitter). Campaigns
  // derive it from the schedule seed so failures reproduce exactly.
  uint64_t rng_seed = 0xC1A05EEDull;

  // The "subtle bugs" of §4.6 (header before data, ap-map before
  // catch-up, recovery without catch-up) are demonstrated by the model
  // checker in src/modelcheck/ (McConfig::bug_*), not by settings here.
};

// Fault-handling observability lives in the ObsContext registry/tracer,
// not in per-client structs: "ncl.client.*" counters (release_failures,
// suspect_retries, transient_recoveries, suffix_reposts,
// permanent_demotions, controller_rpc_retries, directory_lookup_retries)
// and the "ncl.recover.*" phase spans (get_peers / connect / rdma_read /
// sync_peers — four contiguous windows summing to the end-to-end recovery
// latency). The old NclStats / RecoveryBreakdown compat shims are gone.

// Outcome of deleting an ncl file: peer-side Release is best effort (leaked
// regions are reclaimed by the epoch GC), so callers get the tally instead
// of a silently-swallowed failure.
struct DeleteReport {
  int peers_attempted = 0;  // reachable peers we issued Release to
  int peers_released = 0;
  int release_failures = 0;
  bool AllReleasesFailed() const {
    return peers_attempted > 0 && peers_released == 0;
  }
};

class NclFile;

class NclClient {
 public:
  // `node` is the application server's fabric address. `obs` (optional)
  // wires the client into the shared registry/tracer: "ncl.client.*"
  // counters plus "ncl.record" / "ncl.replace_slot" / "ncl.recover[.*]"
  // trace spans.
  NclClient(NclConfig config, Fabric* fabric, Controller* controller,
            PeerDirectory* directory, NodeId node, ObsContext obs = {});
  ~NclClient();

  NclClient(const NclClient&) = delete;
  NclClient& operator=(const NclClient&) = delete;

  // initialize() (§4.2): allocates regions on n fresh peers and records the
  // ap-map. Fails if fewer than n peers can grant the allocation.
  Result<std::unique_ptr<NclFile>> Create(const std::string& file,
                                          uint64_t capacity = 0);

  // recover() (§4.2): rebuilds the most up-to-date contents from the peers.
  // Fails kUnavailable when fewer than an ack quorum of peers still hold
  // the region — NCL "correctly makes the file unavailable" (§4.2).
  Result<std::unique_ptr<NclFile>> Recover(const std::string& file);

  // Deletes an ncl file without recovering it first: releases the regions
  // on every reachable peer (best effort; the leak GC reclaims the rest)
  // and removes the ap-map entry. Returns the per-peer release tally;
  // errors only for control-plane failures (missing ap-map, controller
  // outage past the retry budget).
  Result<DeleteReport> DeleteWithReport(const std::string& file);

  // ncl files this application had before a crash (from the controller).
  std::vector<std::string> ListFiles();

  // True if an ap-map entry exists for the file.
  bool Exists(const std::string& file);

  // Planned reconfiguration: migrates every live region this client has on
  // `peer_name` (across all open ncl files) onto fresh peers, using the
  // epoch-fenced snapshot-copy + suffix catch-up + ap-map cutover protocol
  // (DESIGN.md §13). Appends may keep flowing while a migration runs; the
  // cutover only commits once the target acked the full tail. A migration
  // superseded by a concurrent membership change (e.g. the source peer
  // crashed mid-copy and was replaced) is skipped, not an error. Returns
  // the first hard failure, OkStatus otherwise.
  Status MigrateOffPeer(const std::string& peer_name);

  // Regions moved by completed slot migrations (planned drains).
  int regions_migrated() const { return regions_migrated_; }

  const NclConfig& config() const SPLITFT_LIFETIMEBOUND { return config_; }
  const ObsContext& obs() const SPLITFT_LIFETIMEBOUND { return obs_; }
  int peers_replaced() const { return peers_replaced_; }
  // The connection pool in use (shared or private; never null).
  NclConnectionPool* pool() const { return pool_; }

  // Construction-time validation outcome. Non-OK (kInvalidArgument) when
  // the EC geometry is malformed, cannot cover the fault budget (m < f),
  // or exceeds the number of registered log peers; Create/Recover return
  // this status instead of failing later at allocation time.
  const Status& status() const SPLITFT_LIFETIMEBOUND {
    return init_status_;
  }

 private:
  friend class NclFile;

  // Finds a peer (excluding `exclude`) that grants `region_bytes`, trying
  // several candidates because controller info is a hint. On failure,
  // `*spare_missing` (when given) tells whether the peer registry alone
  // decided it: GetPeers ran out of candidates after skipping only crashed
  // peers, none of which returns without re-registering.
  Result<std::pair<LogPeer*, AllocationGrant>> AllocateOnFreshPeer(
      const std::string& file, uint64_t region_bytes, uint64_t epoch,
      const std::set<std::string>& exclude, bool* spare_missing = nullptr);

  // Releases `file`'s region on each of `holders` (best effort: a failed
  // release is counted and warned about, and the region leaks until the
  // peer's epoch GC), then removes the ap-map entry and the spare buffer.
  Result<DeleteReport> DeleteOn(const std::string& file,
                                const std::vector<LogPeer*>& holders);

  // Directory lookup that retries (under config.retry) while the peer's
  // setup process is momentarily unreachable, instead of treating the
  // first nullptr as a crash.
  LogPeer* LookupPeerWithRetry(const std::string& name);

  // Runs a controller RPC, retrying kTimedOut failures (outage windows)
  // under config.retry. Permanent failures (kUnavailable "not enough
  // peers", kNotFound, ...) are returned immediately.
  template <typename Fn>
  auto RetryControllerRpc(Fn&& fn) -> decltype(fn()) {
    return RetryUnderPolicy(fabric_->sim(), config_.retry, &rng_, fn,
                            RpcTimedOut{}, c_controller_rpc_retries_);
  }

  // EC geometry / fault-budget / peer-count validation (run once from the
  // constructor; result cached in init_status_).
  Status ValidateConfig();

  NclConfig config_;
  // Built once from config_: every file of this client uses it.
  const NclGeometry geometry_;
  Status init_status_;
  Fabric* fabric_;
  Controller* controller_;
  PeerDirectory* directory_;
  NodeId node_;
  Rng rng_;
  // The connection pool QPs are drawn from: config_.pool when shared,
  // otherwise the private owned_pool_. Connection warmth (cold handshake
  // only for the first QP to a node) is tracked by the pool.
  std::unique_ptr<NclConnectionPool> owned_pool_;
  NclConnectionPool* pool_ = nullptr;
  int peers_replaced_ = 0;
  int regions_migrated_ = 0;
  // Open files, registration order (a vector, not a pointer-keyed set:
  // iteration order must not depend on heap addresses — determinism).
  // Maintained by NclFile's ctor/dtor; MigrateOffPeer walks it.
  std::vector<NclFile*> open_files_;

  ObsContext obs_;
  Counter* c_release_failures_;
  Counter* c_suspect_retries_;
  Counter* c_transient_recoveries_;
  Counter* c_permanent_demotions_;
  Counter* c_controller_rpc_retries_;
  Counter* c_directory_lookup_retries_;
  Counter* c_records_;
  Counter* c_record_bytes_;
  Counter* c_peers_replaced_;
  Counter* c_suffix_reposts_;
  Counter* c_regions_migrated_;
  // EC background repair: shards re-encoded onto replacement peers, and
  // the current commit-watermark lag of the most-degraded shard slot.
  Counter* c_ec_repairs_;
  Gauge* g_ec_degraded_;
  Gauge* g_inflight_;
  Histogram* h_record_ns_;
  Histogram* h_recover_ns_;
};

class NclFile {
 public:
  ~NclFile();

  NclFile(const NclFile&) = delete;
  NclFile& operator=(const NclFile&) = delete;

  const std::string& name() const SPLITFT_LIFETIMEBOUND { return name_; }
  uint64_t size() const { return length_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t seq() const { return seq_; }

  // record() (§4.2): appends at the current end of the log and blocks until
  // an ack quorum of peers committed it (AppendAsync + WaitFor).
  Status Append(std::string_view data);

  // Pipelined append: applies locally, posts the WRs to every alive peer,
  // and returns without waiting for the quorum round — unless the bounded
  // in-flight window (NclConfig::inflight_window) is full, in which case it
  // blocks until the oldest outstanding append commits. Errors discovered
  // while waiting out backpressure (quorum loss, test-hook aborts)
  // surface here; otherwise they surface in WaitFor/Drain.
  Status AppendAsync(std::string_view data);

  // Blocks until every append with sequence number <= `seq` is committed on
  // an ack quorum of peers (clamped to the current tail). The committed
  // prefix is exactly what recovery is guaranteed to return.
  Status WaitFor(uint64_t seq);

  // Drains the whole in-flight window: WaitFor(seq()).
  Status Drain();

  // Highest sequence number known committed on a quorum (monotonic).
  uint64_t committed_seq() const { return committed_seq_; }
  // Appends posted but not yet known committed.
  uint64_t inflight() const { return seq_ - committed_seq_; }

  // Positional write for circular logs (SQLite-style reuse, Fig 7ii).
  Status Write(uint64_t offset, std::string_view data);

  // Reads from the local buffer (after recovery, from the recovered
  // contents — prefetched or fetched on demand per config). A read served
  // from the local buffer aliases it: the slice keeps its bytes across
  // later appends, which copy the buffer first while a slice is held.
  Result<SharedBytes> Read(uint64_t offset, uint64_t len);

  // release() (§4.2): frees the regions on all peers and removes the
  // ap-map entry. The file ceases to exist in NCL.
  Status Delete();

  // Resets the logical content to empty without releasing regions — used
  // by circular-log applications on checkpoint (the file is reused).
  Status Truncate();

  // Number of peers currently considered alive for this file.
  int alive_peers() const;
  const std::vector<std::string>& peer_names() const SPLITFT_LIFETIMEBOUND {
    return peer_names_;
  }

 private:
  friend class NclClient;

  struct PeerSlot {
    std::string peer_name;
    LogPeer* peer = nullptr;  // may be null if unreachable by name
    NodeId node = kInvalidNode;
    RKey rkey = 0;
    std::unique_ptr<PooledQp> qp;
    bool alive = true;
    // Transient-fault handling: a slot whose WR failed with kRetryExceeded
    // under an active RetryPolicy is *suspect*, not dead. It is resurrected
    // (fresh QP + catch-up repost) with exponential backoff until either
    // its header lands again (recovered) or the policy is exhausted
    // (demoted to dead and replaced). While suspect, qp == nullptr between
    // resurrection attempts and no new appends are posted to it.
    bool suspect = false;
    SimTime next_retry_at = 0;
    std::optional<RetryState> retry;
    // The slot's role in the geometry (its position in slots_: a replica
    // number, or a shard index). Stable across replacement and migration —
    // the successor peer takes over the same role.
    uint32_t role = 0;
    // Sequence number of the last write fully completed (header landed).
    uint64_t acked_seq = 0;
    // Every WR posted on qp (appends, reposts, catch-up writes, READs) in
    // post order, the order its completions arrive in (§4.4): (wr_id, seq
    // its completion commits, nonzero only for a chain's header WR).
    std::deque<std::pair<uint64_t, uint64_t>> inflight;
    // The bytes of the READ resolved last, until its waiter takes them.
    std::optional<std::string> landed;
    // The first failed completion on qp; dropped with the QP once the
    // waiter's error policy ran.
    std::optional<WcStatus> wr_error;
  };

  // One entry of the in-flight window: enough history to replay the
  // unacked suffix of a mid-window straggler from the local buffer, plus
  // the post timestamp for commit-latency accounting.
  struct WindowEntry {
    uint64_t seq;
    uint64_t offset;
    uint64_t len;
    bool truncate;
    SimTime posted_at;
    bool reported = false;  // commit already surfaced (span + histogram)
  };

  NclFile(NclClient* client, std::string name, uint64_t capacity);

  const NclGeometry& geo() const { return client_->geometry_; }

  // A slot playing `role` on `name`. Live, on a fresh pooled QP, when
  // `peer` granted it region `rkey`; dead when `peer` is null.
  PeerSlot MakeSlot(const std::string& name, uint32_t role,
                    LogPeer* peer = nullptr, RKey rkey = 0) const;

  // ---- The one completion path -------------------------------------------
  // The only reader of `slot`'s CQ: resolves its inflight record front
  // first. A header WR advances acked_seq, a READ leaves its bytes in
  // `landed`, and the first failed completion stops the pass in wr_error.
  // Returns true if any completion was read.
  bool ResolveCompletions(PeerSlot* slot);
  // Runs the simulation until each of `slots` resolved the WRs it had in
  // flight at the call. Returns kUnavailable once one recorded a WR error
  // or lost its QP (named in `*failed` when given), or when the simulation
  // runs out of events first; the error policy is the caller's.
  Status AwaitInflight(const std::vector<PeerSlot*>& slots,
                       PeerSlot** failed = nullptr);
  // Posts a READ on `slot`'s QP, recorded in flight; its bytes land in
  // slot->landed (in `landing`'s storage).
  void PostRead(PeerSlot* slot, RKey rkey, uint64_t offset, uint64_t len,
                std::string landing = {});

  // The critical path, blocking: RecordAsync + WaitFor(seq_).
  Status Record(uint64_t offset, std::string_view data);

  // Applies the write locally, posts one WR chain (data + header, single
  // doorbell) per alive peer, then blocks only if the in-flight window is
  // full.
  Status RecordAsync(uint64_t offset, std::string_view data);

  // Resolves every live slot's completions; returns true if anything
  // progressed. A handle with nothing ready answers in O(1), without
  // draining its lane. Classifies WR failures: transient ones mark the slot
  // suspect, permanent ones demote it to dead.
  bool PumpCompletions();

  // ---- Commit watermark & window history ---------------------------------
  // The committed watermark is the quorum-th largest acked_seq among
  // alive slots, cached monotonically: once a prefix was quorum-durable
  // it stays committed even if the acking slots die later (their
  // replacements are caught up to the full tail before joining).
  uint64_t ComputeCommittedSeq();
  // Refreshes the inflight and degraded gauges and, only when an input
  // changed since the last call (watermark_dirty_), raises committed_seq_,
  // recomputes the degraded lag and prunes reported window history. A
  // WaitFor turn without progress therefore does O(1) work here.
  void AdvanceCommitWatermark();
  // Raises committed_seq_ and emits the per-append pipelined
  // spans/histogram for the appends it newly commits.
  void RaiseCommittedSeq();
  void PruneWindow();
  // ---- The one catch-up builder (§4.5.1–§4.5.2) --------------------------
  // A replicated file's slot image over FullRange(length_), copied once
  // out of buffer_ for one catch-up round: every replica of the round
  // posts it, and the regions that adopt its chunks share one host copy
  // without pinning buffer_. Empty for a striped file.
  SharedBytes ReplicaImage() const;
  // A region is caught up once it holds the current image and header.
  // PostImage posts the WRs that bring `slot`'s region `rkey` there: the
  // slot image (`replica_image` for a replica, the slot's own encoding for
  // a shard; each image WR holds its bytes by reference), or with `base`,
  // a read-back of that region's image, only the ranges that differ from
  // it; then the header, whose completion acks seq_. One doorbell per WR.
  void PostImage(PeerSlot* slot, RKey rkey, const SharedBytes& replica_image,
                 std::optional<std::string_view> base = std::nullopt);
  // Reposts only the unacked suffix (slot->acked_seq, seq_] from the window
  // history as one WR chain (one doorbell; the header acks seq_). Returns
  // false when the history no longer covers the gap.
  bool PostSuffix(PeerSlot* slot);
  // The one "suffix, else image" step: PostSuffix, falling back to
  // PostImage on the slot's own region.
  void PostCatchUp(PeerSlot* slot);

  // ---- Suspect-slot machinery (transient faults) -------------------------
  void OnSlotError(PeerSlot* slot, WcStatus status);
  void MarkSuspect(PeerSlot* slot);
  void DemoteSlot(PeerSlot* slot);
  // PostCatchUp on a fresh QP; completions flow through the regular
  // inflight pump.
  void RepostSuspect(PeerSlot* slot);
  // Fires due resurrection attempts; demotes slots whose deadline expired.
  // Returns true if any WRs were posted.
  bool MaybeRetrySuspects();
  // Earliest pending resurrection time across suspect slots, or -1.
  SimTime NextSuspectRetryAt() const;

  // Bumps the epoch and allocates a successor for `slot` (same role) on a
  // fresh peer outside `exclude`; JoinSuccessor catches it up.
  Result<PeerSlot> AllocateSuccessor(const PeerSlot& slot,
                                     const std::set<std::string>& exclude);
  // The one successor catch-up (§4.5.2, DESIGN.md §6 and §13), for
  // replacement and migration alike: allocates a successor for `slot` on a
  // fresh peer outside `exclude` and the joining successors' peers, posts
  // it the image (PostImage), then runs PostCatchUp rounds on the
  // not-yet-member successor until it acked the tail, then cuts the slot
  // and the ap-map over to it. Appends may keep arriving from simulation
  // events throughout. Returns kAborted when a concurrent
  // membership change superseded the join (the epoch moved, or the slot
  // changed under it); the abandoned region is left to the epoch GC.
  Status JoinSuccessor(PeerSlot* slot, std::set<std::string> exclude);
  // Replaces a dead slot through JoinSuccessor (§4.5.2). On success the
  // slot is alive and fully caught up.
  Status ReplaceSlot(PeerSlot* slot);
  // Replaces dead slots until `want` slots are alive, skipping the slots
  // SpareKnownMissing rules out. A replacement that fails or is superseded
  // leaves its slot dead for a later turn.
  void ReplaceDeadSlots(int want);
  // True when a try to replace `slot` would find no spare peer again: the
  // peer registry is unchanged since a try found none, and every peer that
  // try excluded and this one would not is crashed.
  bool SpareKnownMissing(const PeerSlot& slot) const;
  // Planned migration of a *live* slot's region to a fresh peer through
  // JoinSuccessor, then the release of the source region. Returns kAborted
  // when a concurrent membership change superseded it.
  Status MigrateSlot(PeerSlot* slot);
  // Recovery catch-up (§4.5.1) of every live slot: stages a fresh (or
  // cloned, in diff mode) region on all their peers at once, fills each
  // with its slot image one slot after another (PostImage; in diff mode
  // against a read-back of the clone), then commits them all at once with
  // the atomic mr-map switch. A slot whose step fails is dead.
  void CatchUpViaStagedRegions();
  Status WriteApMap();
  void RefreshPeerNames();

  // The current (seq_, length_) header for slot `role`, at `out`.
  void EncodeHeader(uint32_t role, char* out) const {
    geo().EncodeHeader(seq_, length_, role, out);
  }
  // Recomputes degraded_lag_ of a striped file: how far the most-degraded
  // shard slot trails the commit watermark (0 when all slots are caught
  // up; grows while a dead slot awaits repair).
  void UpdateDegradedLag();

  NclClient* client_;
  std::string name_;
  uint64_t capacity_;
  uint64_t epoch_ = 0;
  uint64_t seq_ = 0;
  uint64_t length_ = 0;
  // Highest seq known committed on a quorum; never regresses.
  uint64_t committed_seq_ = 0;
  // Recent appends, oldest first, covering at least (min alive acked, seq_].
  std::deque<WindowEntry> window_;
  // Local copy of the file contents; reads take slices of it, catch-up
  // rounds a detached copy (ReplicaImage).
  CowBuffer buffer_;
  std::vector<PeerSlot> slots_;
  std::vector<std::string> peer_names_;
  bool deleted_ = false;
  // After a no-prefetch recovery, reads are served by per-call RDMA reads
  // from the recovery peer instead of the local buffer (Fig 11a variant).
  bool serve_reads_locally_ = true;
  int recovery_slot_ = -1;
  // Successors JoinSuccessor is catching up (not yet in slots_), innermost
  // last: PruneWindow keeps history down to each one's acked_seq so its
  // catch-up rounds can ship suffixes instead of images while appends
  // race.
  std::vector<const PeerSlot*> joining_;
  // The peer registry's zxid (Controller::PeerRegistryZxid) and the peers
  // excluded when a successor allocation last found no spare peer. A try
  // SpareKnownMissing rules out is skipped, by blocked and eager
  // replacement alike: it would find none again, only to bump the epoch
  // and pay its controller RPCs.
  std::optional<uint64_t> no_spare_zxid_;
  std::set<std::string> no_spare_exclude_;

  // Set by every change to an input of the commit watermark, the degraded
  // lag or PruneWindow: a slot's acked_seq or alive flag, the membership,
  // seq_/window_, or a joining successor's acked_seq. Starts set; cleared by
  // AdvanceCommitWatermark once it recomputed them.
  bool watermark_dirty_ = true;
  // Scratch for ComputeCommittedSeq, one entry per slot.
  std::vector<uint64_t> acked_scratch_;
  // Scratch for one slot's shard bytes in RecordAsync (striped files),
  // kept so a steady-state EC append reuses its capacity.
  std::string shard_scratch_;
  // Last computed ncl.ec.degraded_stripes value (striped files).
  uint64_t degraded_lag_ = 0;
  // Some slot may be suspect: cleared only by a MaybeRetrySuspects pass
  // that found none, so the suspect machinery is skipped while all slots
  // are healthy.
  bool maybe_suspect_ = false;
};

}  // namespace splitft

#endif  // SRC_NCL_NCL_CLIENT_H_
