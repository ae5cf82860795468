// Chaos campaign driver: sweeps N seeded random fault schedules against the
// replication protocol and reports the fault/retry/recovery accounting plus
// any invariant violations. SPLITFT_SEED=<n> replays one schedule;
// SPLITFT_CHAOS_RUNS=<n> overrides the run count (anything but a whole
// number in [1, INT_MAX] exits 2 before running);
// SPLITFT_CHAOS_RECONFIG=1 mixes a seeded planned-reconfiguration schedule
// (peer drains, live region migration, re-activations) into every run;
// SPLITFT_CHAOS_EC=1 runs erasure-coded (k=2,m=2) regions instead of
// replication — the nightly campaign runs all three flavours. Either
// switch set to anything but unset, empty, 0 or 1 exits 2 before running.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "bench/bench_util.h"
#include "src/chaos/campaign.h"
#include "src/common/rng.h"

int main() {
  using namespace splitft;
  bench::Reporter reporter("chaos_campaign");
  bench::Title("Chaos campaign: seeded fault schedules vs. the protocol");

  CampaignOptions options;
  // Full mode is nightly scale: 10x the 200-seed tier-1 sweep.
  options.runs = reporter.smoke() ? 3 : 2000;
  Result<std::optional<uint64_t>> runs = UnsignedFromEnv("SPLITFT_CHAOS_RUNS");
  if (!runs.ok() || (*runs && (**runs == 0 || **runs > INT_MAX))) {
    // A sweep of no (or of a wrapped number of) schedules passes vacuously.
    std::fprintf(stderr,
                 "SPLITFT_CHAOS_RUNS must be a whole number in [1, %d]\n",
                 INT_MAX);
    return 2;
  }
  if (*runs) {
    options.runs = static_cast<int>(**runs);
  }
  Result<bool> with_reconfig = FlagFromEnv("SPLITFT_CHAOS_RECONFIG");
  Result<bool> with_ec = FlagFromEnv("SPLITFT_CHAOS_EC");
  for (const Result<bool>* flag : {&with_reconfig, &with_ec}) {
    if (!flag->ok()) {
      std::fprintf(stderr, "%s\n", flag->status().message().c_str());
      return 2;
    }
  }
  if (*with_reconfig) {
    options.with_reconfig = true;
    std::printf("  (mixed mode: planned reconfiguration composed with "
                "faults)\n");
  }
  if (*with_ec) {
    options.with_ec = true;
    // k+m members plus spares so replacements stay possible under crashes.
    options.num_peers = 7;
    std::printf("  (ec mode: k=%u+m=%u striped regions)\n", options.ec.k,
                options.ec.m);
  }
  CampaignResult result = RunChaosCampaign(options);

  const CampaignStats& s = result.stats;
  std::printf("  runs:                     %d\n", s.runs);
  std::printf("  faults injected:          %d\n", s.faults_injected);
  std::printf("  appends acked:            %d\n", s.appends_acked);
  std::printf("  append failures:          %d\n", s.append_failures);
  std::printf("  recoveries ok:            %d\n", s.recoveries_ok);
  std::printf("  recoveries unavailable:   %d\n", s.recoveries_unavailable);
  std::printf("  peers replaced:           %d\n", s.peers_replaced);
  bench::Rule();
  std::printf("  suspect retries:          %llu\n",
              static_cast<unsigned long long>(s.suspect_retries));
  std::printf("  transient recoveries:     %llu\n",
              static_cast<unsigned long long>(s.transient_recoveries));
  std::printf("  suffix reposts:           %llu\n",
              static_cast<unsigned long long>(s.suffix_reposts));
  std::printf("  permanent demotions:      %llu\n",
              static_cast<unsigned long long>(s.permanent_demotions));
  std::printf("  controller RPC retries:   %llu\n",
              static_cast<unsigned long long>(s.controller_rpc_retries));
  std::printf("  directory lookup retries: %llu\n",
              static_cast<unsigned long long>(s.directory_lookup_retries));
  std::printf("  release failures logged:  %llu\n",
              static_cast<unsigned long long>(s.release_failures));
  bench::Rule();
  reporter.AddSeries("campaign", "runs")
      .FromValue(s.runs, static_cast<uint64_t>(s.runs))
      .Scalar("faults_injected", s.faults_injected)
      .Scalar("appends_acked", s.appends_acked)
      .Scalar("append_failures", s.append_failures)
      .Scalar("recoveries_ok", s.recoveries_ok)
      .Scalar("recoveries_unavailable", s.recoveries_unavailable)
      .Scalar("peers_replaced", s.peers_replaced)
      .Scalar("suspect_retries", static_cast<double>(s.suspect_retries))
      .Scalar("transient_recoveries",
              static_cast<double>(s.transient_recoveries))
      .Scalar("suffix_reposts", static_cast<double>(s.suffix_reposts))
      .Scalar("permanent_demotions",
              static_cast<double>(s.permanent_demotions))
      .Scalar("release_failures", static_cast<double>(s.release_failures))
      .Scalar("violations", static_cast<double>(result.violations.size()));
  if (options.with_reconfig) {
    std::printf("  reconfig ops completed:   %d\n", s.reconfig_ops_completed);
    std::printf("  reconfig ops skipped:     %d\n", s.reconfig_ops_skipped);
    reporter.AddSeries("campaign.reconfig", "runs")
        .FromValue(s.runs, static_cast<uint64_t>(s.runs))
        .Scalar("reconfig_ops_completed", s.reconfig_ops_completed)
        .Scalar("reconfig_ops_skipped", s.reconfig_ops_skipped)
        .Scalar("regions_migrated", static_cast<double>(s.regions_migrated));
  }
  if (options.with_ec) {
    std::printf("  ec shard repairs:         %llu\n",
                static_cast<unsigned long long>(s.ec_repairs));
    reporter.AddSeries("campaign.ec", "runs")
        .FromValue(s.runs, static_cast<uint64_t>(s.runs))
        .Scalar("ec_repairs", static_cast<double>(s.ec_repairs));
  }
  if (!reporter.WriteJson()) {
    return 1;
  }
  if (result.ok()) {
    std::printf("  invariants: all held (%d schedules)\n", s.runs);
    return 0;
  }
  std::printf("  INVARIANT VIOLATIONS: %zu\n", result.violations.size());
  for (const CampaignViolation& v : result.violations) {
    std::printf("  [%s] seed=%llu: %s\n", v.invariant.c_str(),
                static_cast<unsigned long long>(v.seed), v.detail.c_str());
    std::printf("    reproduce with SPLITFT_SEED=%llu\n",
                static_cast<unsigned long long>(v.seed));
    std::printf("%s", v.schedule.c_str());
  }
  return 1;
}
