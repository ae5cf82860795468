// The model checker must (a) certify the safe protocol over the bounded
// state space and (b) catch each injected bug: the three from §4.6 and
// the stale migration and replacement cutovers.
#include <gtest/gtest.h>

#include "src/modelcheck/model.h"

namespace splitft {
namespace {

McConfig SmallConfig() {
  McConfig config;
  config.fault_budget = 1;
  config.spare_peers = 1;
  config.max_writes = 2;
  config.max_peer_crashes = 1;
  config.max_app_crashes = 2;
  config.max_states = 2'000'000;
  return config;
}

TEST(ModelCheckTest, SafeProtocolHasNoViolations) {
  McResult result = CheckNcl(SmallConfig());
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted) << "state space not fully explored";
  EXPECT_GT(result.states_explored, 1000u);
}

TEST(ModelCheckTest, SafeProtocolWithDeeperBoundsStillHolds) {
  McConfig config = SmallConfig();
  config.max_writes = 3;
  config.max_peer_crashes = 2;
  config.spare_peers = 2;
  McResult result = CheckNcl(config);
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted);
  EXPECT_GT(result.states_explored, 10000u);
}

TEST(ModelCheckTest, SeqBeforeDataBugIsCaught) {
  McConfig config = SmallConfig();
  config.bug_seq_before_data = true;
  McResult result = CheckNcl(config);
  EXPECT_TRUE(result.violation_found)
      << "checker missed the seq-before-data bug";
  EXPECT_NE(result.violation.find("holes"), std::string::npos)
      << result.violation;
}

TEST(ModelCheckTest, ApMapBeforeCatchupBugIsCaught) {
  McConfig config = SmallConfig();
  config.bug_apmap_before_catchup = true;
  McResult result = CheckNcl(config);
  EXPECT_TRUE(result.violation_found)
      << "checker missed the ap-map-before-catch-up bug";
}

TEST(ModelCheckTest, SkipRecoveryCatchupBugIsCaught) {
  McConfig config = SmallConfig();
  config.bug_skip_recovery_catchup = true;
  config.max_app_crashes = 3;  // needs a crash-recover-crash-recover chain
  config.max_peer_crashes = 2;
  config.spare_peers = 2;
  McResult result = CheckNcl(config);
  EXPECT_TRUE(result.violation_found)
      << "checker missed the skipped-catch-up bug";
}

TEST(ModelCheckTest, LargerFaultBudgetAlsoSafe) {
  McConfig config;
  config.fault_budget = 2;  // n = 5 peers
  config.spare_peers = 0;
  config.max_writes = 2;
  config.max_peer_crashes = 2;
  config.max_app_crashes = 1;
  config.max_states = 4'000'000;
  McResult result = CheckNcl(config);
  EXPECT_FALSE(result.violation_found) << result.violation;
}

TEST(ModelCheckTest, PlannedMigrationIsSafe) {
  // The epoch-fenced drain protocol: snapshot copy, catch-up to the full
  // tail, then cutover. Composed with writes and crashes it must preserve
  // every externalized write.
  McConfig config = SmallConfig();
  config.max_migrations = 1;
  McResult result = CheckNcl(config);
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted) << "state space not fully explored";
  // Migrations enlarge the space beyond the no-migration run.
  McResult base = CheckNcl(SmallConfig());
  EXPECT_GT(result.states_explored, base.states_explored);
}

TEST(ModelCheckTest, StaleCutoverBugIsCaught) {
  // Cutting over to the snapshot without catching the target up to the
  // tail written during the copy loses acknowledged writes once enough of
  // the old membership dies.
  McConfig config = SmallConfig();
  config.max_migrations = 1;
  config.bug_migrate_stale_cutover = true;
  McResult result = CheckNcl(config);
  EXPECT_TRUE(result.violation_found)
      << "checker missed the stale-snapshot cutover bug";
}

TEST(ModelCheckTest, ReplaceStaleCutoverBugIsCaught) {
  // A replacement snapshot-copies the spare, a write issued during the
  // copy lands on the old members only, and the cutover marks the spare
  // caught up to it anyway: the spare claims a write it never received.
  McConfig config = SmallConfig();
  config.bug_replace_stale_cutover = true;
  McResult result = CheckNcl(config);
  EXPECT_TRUE(result.violation_found)
      << "checker missed the stale replacement cutover bug";
  EXPECT_NE(result.violation.find("holes"), std::string::npos)
      << result.violation;
}

TEST(ModelCheckTest, StateCapRespected) {
  McConfig config = SmallConfig();
  config.max_states = 100;
  McResult result = CheckNcl(config);
  EXPECT_LE(result.states_explored, 100u);
  EXPECT_FALSE(result.exhausted);
}

}  // namespace
}  // namespace splitft
