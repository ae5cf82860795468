// Chaos campaign: runs N seeded random fault schedules against a fresh
// mini-cluster each, driving an append workload with a shadow oracle and
// checking safety/liveness invariants after every run:
//
//   1. No acknowledged write is lost across recovery.
//   2. Recovered bytes are a prefix of the shadow oracle (applied writes)
//      and cover at least everything acknowledged.
//   3. The file only becomes unavailable when more than f of its current
//      peers are faulty (quorum accounting never exceeds the fault budget).
//   4. Every stall eventually unblocks (bounded virtual time per append).
//
// A violating seed is reported with its full fault schedule; re-running
// with SPLITFT_SEED=<seed> reproduces exactly that schedule.
#ifndef SRC_CHAOS_CAMPAIGN_H_
#define SRC_CHAOS_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/fault_plan.h"
#include "src/ncl/ec.h"
#include "src/sim/retry.h"

namespace splitft {

struct CampaignOptions {
  int runs = 200;
  uint64_t base_seed = 0xC4A0521ull;  // run k uses base_seed + k
  int num_peers = 5;                  // 2f+1 assigned + spares
  int fault_budget = 1;
  uint64_t capacity = 64ull << 10;
  uint64_t peer_memory = 4ull << 20;
  int appends_per_run = 40;
  uint64_t max_append_bytes = 512;
  // Random-schedule shape (faults per run, horizon, durations).
  RandomPlanOptions plan;
  // Mix a seeded planned-reconfiguration schedule (peer drains with live
  // region migration, re-activations) into every run, composing planned
  // membership changes with the injected faults on one virtual-time line.
  // The safety invariants are unchanged: planned operations must never
  // lose acknowledged appends either.
  bool with_reconfig = false;
  ReconfigPlanOptions reconfig_plan;
  // Erasure-coded runs (DESIGN.md §16): the workload and recovery clients
  // stripe each append across ec.k data + ec.m parity shard peers instead
  // of replicating on 2f+1. The fault-budget invariant then uses m — EC
  // tolerates exactly m shard losses — and recovery unavailability is
  // justified only when fewer than k members still hold their shard.
  // num_peers must cover ec.k + ec.m members plus replacement spares.
  bool with_ec = false;
  EcGeometry ec = {};
  // Client-side transient-fault policy for the runs.
  RetryPolicy retry = RetryPolicy::Transient(6, Millis(8));
  // NIC-level retransmission window (RdmaParams::unreachable_retry_timeout).
  SimTime nic_retry_window = Millis(1);
  // Liveness bound: one append taking longer than this (virtual time) is a
  // stall that never unblocked.
  SimTime max_stall = Seconds(2);
  // Honour the SPLITFT_SEED environment variable: when set, run only that
  // seed (the reproduction path for a reported violation).
  bool seed_from_env = true;
};

struct CampaignViolation {
  uint64_t seed = 0;
  std::string invariant;
  std::string detail;
  std::string schedule;  // the violating run's plans, Describe()d
};

struct CampaignStats {
  int runs = 0;
  int faults_injected = 0;
  int appends_acked = 0;
  int append_failures = 0;
  int recoveries_ok = 0;
  int recoveries_unavailable = 0;
  int peers_replaced = 0;
  // Planned-reconfiguration accounting (with_reconfig runs).
  int reconfig_ops_completed = 0;
  int reconfig_ops_skipped = 0;
  int regions_migrated = 0;
  // "ncl.client.*" fault counters aggregated across all runs (read from
  // each run's MetricsRegistry).
  uint64_t suspect_retries = 0;
  uint64_t transient_recoveries = 0;
  uint64_t suffix_reposts = 0;
  uint64_t permanent_demotions = 0;
  uint64_t controller_rpc_retries = 0;
  uint64_t directory_lookup_retries = 0;
  uint64_t release_failures = 0;
  // "ncl.ec.repairs" total (with_ec runs): shard rebuilds on fresh peers.
  uint64_t ec_repairs = 0;
};

struct CampaignResult {
  CampaignStats stats;
  std::vector<CampaignViolation> violations;
  bool ok() const { return violations.empty(); }
};

// Runs one seeded schedule; violations (if any) are appended to `result`.
void RunChaosSchedule(uint64_t seed, const CampaignOptions& options,
                      CampaignResult* result);

// Runs the full campaign (or the single SPLITFT_SEED run). Violations are
// also logged with their seed and schedule so they can be reproduced.
CampaignResult RunChaosCampaign(const CampaignOptions& options = {});

}  // namespace splitft

#endif  // SRC_CHAOS_CAMPAIGN_H_
