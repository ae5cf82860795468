// Calibration constants for the simulated cluster. The defaults reproduce
// the latency hierarchy of the paper's CloudLab testbed (25 Gb ConnectX-4
// RoCE fabric, CephFS on three SATA-SSD OSD nodes); see DESIGN.md §4 for the
// derivations from the paper's own numbers.
#ifndef SRC_SIM_PARAMS_H_
#define SRC_SIM_PARAMS_H_

#include <cstdint>

#include "src/sim/simulation.h"

namespace splitft {

// One-sided RDMA fabric (src/rdma).
struct RdmaParams {
  // Fabric latency for one work request to complete on the remote NIC and
  // for the completion to surface in the local CQ.
  SimTime write_latency = Micros(1.3);
  SimTime read_base_latency = Micros(4.0);
  // Payload cost on the 25 Gb/s link (~3.1 GB/s): ns per byte.
  double bytes_per_ns = 3.1;  // bytes transferred per nanosecond
  // Registering a memory region with the NIC is expensive: dominated by
  // pinning pages. Table 3 implies ~50 ms for a 60 MB region.
  SimTime mr_register_base = Millis(2.0);
  double mr_register_ns_per_byte = 0.95;
  // Binding a memory window (ibverbs type-2 MW) over an already-registered
  // slab: the pages are pinned and NIC-mapped, so granting a fresh rkey
  // scoped to a sub-range is a post-to-the-send-queue operation, orders of
  // magnitude cheaper than MR registration. This is what lets pooled peers
  // carve per-tenant regions out of pre-registered slabs (DESIGN.md §14).
  SimTime mw_bind_latency = Micros(3.0);
  // Connection (QP handshake) cost.
  SimTime connect_latency = Millis(5.0);
  // Per-WR local CPU cost of posting to the send queue.
  SimTime post_overhead = Micros(0.25);
  // Doorbell coalescing: QueuePair::PostWriteBatch posts its WR chain with
  // a single doorbell ring, paying post_overhead once plus
  // batched_wr_overhead for every WR after the first (the marginal cost of
  // appending one more WQE to an already-open chain).
  SimTime batched_wr_overhead = Micros(0.05);
  // The NIC pipelines back-to-back WRs on a QP: the send queue is held
  // only for WQE issue plus payload serialization onto the wire
  // (SimParams::RdmaWrOccupancy); the fabric propagation half of
  // write_latency overlaps across consecutive WRs. A lone WR still pays
  // the full RdmaWriteLatency end to end.
  SimTime wr_occupancy = Micros(0.1);
  // TCP RPC to a peer's lightweight setup process (allocate/release/switch).
  SimTime setup_rpc_latency = Micros(200.0);
  // NIC-level retransmission window for unreachable targets (ibverbs
  // retry_cnt x local-ack-timeout). While the window is open the NIC keeps
  // retrying at `unreachable_retry_interval`; a partition that heals inside
  // it never surfaces a WR error at all. 0 keeps the legacy behaviour of
  // failing at delivery time (the seed repo's default, which most tests
  // rely on for fast failure detection).
  SimTime unreachable_retry_timeout = 0;
  SimTime unreachable_retry_interval = Micros(50.0);
};

// Disaggregated file system (src/dfs), CephFS-like.
struct DfsParams {
  // Fixed cost of a synchronous flush (client->MDS/OSD round trips, software
  // overheads, replication to the OSD buffer caches). Back-derived from
  // Fig 1(d): 512 B / 2.1 ms ~= 249 KB/s; 8 KB / 2.1 ms ~= 3.8 MB/s.
  SimTime sync_base_latency = Millis(2.1);
  // Streaming bandwidth for large IOs (~700 MB/s aggregate across OSDs).
  double write_bytes_per_ns = 0.7;
  // Buffered (in page cache) write cost per call + per byte memcpy.
  SimTime buffered_write_base = Micros(1.0);
  double buffered_bytes_per_ns = 12.0;  // ~12 GB/s memcpy
  // Cached read (client page cache hit after readahead).
  SimTime cached_read_base = Micros(1.0);
  double cached_read_bytes_per_ns = 12.0;
  // Uncached read: one round trip to an OSD plus payload.
  SimTime remote_read_base = Millis(1.9);
  double read_bytes_per_ns = 0.9;
  // Readahead window fetched on a miss when prefetching is on.
  uint64_t readahead_bytes = 4 * 1024 * 1024;
  // Background flusher interval for weak (buffered) mode durability.
  SimTime flush_interval = Seconds(1.0);

  // ---- striped multi-server backend ----
  // Object servers (OSDs) the dfs stripes file bytes across, each with its
  // own bandwidth pipe (the paper's CephFS deployment runs three OSD
  // nodes, §5.1). num_servers == 1 is the seed's single aggregated pipe: a
  // one-leg fan-out with no client base whose leg base is the calibrated
  // sync_base_latency / remote_read_base, and whose missing readahead
  // windows stay one request each (DESIGN.md §10).
  int num_servers = 3;
  // Stripe unit: byte b of a file lives on server (b / stripe_size) %
  // num_servers. Smaller than Ceph's 4 MiB object default so MiB-scale
  // bulk writes actually spread across the servers.
  uint64_t stripe_size = 64 * 1024;
  // Striped fan-out cost split (num_servers > 1; a one-server cluster
  // charges the calibrated bases above instead). The client pays
  // stripe_client_base once per operation (VFS + striping map + dispatch);
  // each touched server's leg then costs stripe_server_base plus the
  // payload term on that server's own pipe, and the operation completes at
  // the max leg completion. stripe_client_base + stripe_server_base is
  // deliberately below sync_base_latency: the single-pipe base folds in
  // the cross-OSD commit serialization that per-server pipes remove
  // (DESIGN.md §10).
  SimTime stripe_client_base = Micros(600.0);
  SimTime stripe_server_base = Micros(1100.0);
  // Read-side equivalents of the split (vs remote_read_base); one
  // per-server base covers all stripes fetched from that server in one
  // operation, which is what parallelizes bulk recovery reads (Fig 11).
  SimTime stripe_client_read_base = Micros(600.0);
  SimTime stripe_server_read_base = Millis(1.0);
};

// Local ext4 on a SATA SSD; only used as the recovery comparison point in
// Fig 11(b).
struct LocalFsParams {
  SimTime read_base = Micros(90.0);
  double read_bytes_per_ns = 0.5;  // ~500 MB/s SATA SSD
};

// Controller (ZooKeeper-like) RPCs.
struct ControllerParams {
  SimTime rpc_latency = Millis(1.8);  // one round trip incl. quorum commit
};

// Per-application server CPU costs (back-derived from the paper's peak
// throughputs; see DESIGN.md §4).
struct CpuParams {
  SimTime kv_op = Micros(4.3);       // mini-RocksDB request processing
  SimTime redis_op = Micros(10.0);   // single-threaded Redis command
  SimTime sqlite_txn = Micros(65.0); // per-transaction SQL work
  SimTime parse_log_per_byte_ns = 6; // WAL replay parse cost (~170 MB/s)
  // Local-memory read served from ncl-lib's buffer after a prefetch.
  SimTime mem_read_base = Micros(0.3);
  double mem_bytes_per_ns = 12.0;
};

struct SimParams {
  RdmaParams rdma;
  DfsParams dfs;
  LocalFsParams local_fs;
  ControllerParams controller;
  CpuParams cpu;

  // Cost of moving `bytes` through the RDMA fabric.
  SimTime RdmaWriteLatency(uint64_t bytes) const {
    return rdma.write_latency +
           static_cast<SimTime>(static_cast<double>(bytes) /
                                rdma.bytes_per_ns);
  }
  // How long a WR occupies its QP's send queue before the next WR can go
  // out on the wire. Strictly less than RdmaWriteLatency for any size, so
  // per-QP completion times stay monotone (SQ ordering).
  SimTime RdmaWrOccupancy(uint64_t bytes) const {
    return rdma.wr_occupancy +
           static_cast<SimTime>(static_cast<double>(bytes) /
                                rdma.bytes_per_ns);
  }
  SimTime RdmaReadLatency(uint64_t bytes) const {
    return rdma.read_base_latency +
           static_cast<SimTime>(static_cast<double>(bytes) /
                                rdma.bytes_per_ns);
  }
  SimTime MrRegisterLatency(uint64_t bytes) const {
    return rdma.mr_register_base +
           static_cast<SimTime>(static_cast<double>(bytes) *
                                rdma.mr_register_ns_per_byte);
  }
  SimTime DfsSyncWriteLatency(uint64_t bytes) const {
    return dfs.sync_base_latency +
           static_cast<SimTime>(static_cast<double>(bytes) /
                                dfs.write_bytes_per_ns);
  }
  // One striped fsync leg: what a single server's pipe is occupied for
  // when `bytes` of the sync land on it (num_servers > 1 only).
  SimTime DfsStripeWriteLeg(uint64_t bytes) const {
    return dfs.stripe_server_base +
           static_cast<SimTime>(static_cast<double>(bytes) /
                                dfs.write_bytes_per_ns);
  }
  SimTime MemReadLatency(uint64_t bytes) const {
    return cpu.mem_read_base +
           static_cast<SimTime>(static_cast<double>(bytes) /
                                cpu.mem_bytes_per_ns);
  }
  SimTime DfsBufferedWriteLatency(uint64_t bytes) const {
    return dfs.buffered_write_base +
           static_cast<SimTime>(static_cast<double>(bytes) /
                                dfs.buffered_bytes_per_ns);
  }
};

}  // namespace splitft

#endif  // SRC_SIM_PARAMS_H_
