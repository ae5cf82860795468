// Randomized crash-recovery equivalence for the three applications: a
// seeded stream of writes/deletes with crash+recover cycles injected at
// random points must always leave the store equal to an in-memory
// reference (strong and splitft modes promise exactly this; weak mode is
// checked after an explicit flush).
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/common/rng.h"
#include "src/harness/testbed.h"

namespace splitft {
namespace {

using Reference = std::map<std::string, std::string>;

std::string FuzzKey(Rng* rng) {
  return "key-" + std::to_string(rng->Uniform(64));
}

std::string FuzzValue(Rng* rng) {
  return std::string(1 + rng->Uniform(120),
                     static_cast<char>('a' + rng->Uniform(26)));
}

void CheckAgainstReference(StorageApp* app, const Reference& reference,
                           int max_checks = 64) {
  int checked = 0;
  for (const auto& [k, v] : reference) {
    auto got = app->Get(k);
    ASSERT_TRUE(got.ok()) << "missing key " << k;
    ASSERT_EQ(*got, v) << "wrong value for " << k;
    if (++checked >= max_checks) {
      break;
    }
  }
  // Spot-check absence too.
  EXPECT_FALSE(app->Get("never-written-key").ok());
}

// ------------------------------------------------------------- KvStore --

void KvEpisode(uint64_t seed, DurabilityMode mode) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " mode=" +
               std::string(DurabilityModeName(mode)));
  Rng rng(seed);
  Testbed testbed;
  std::string app_id = "kvfuzz-" + std::to_string(seed) + "-" +
                       std::string(DurabilityModeName(mode));
  KvStoreOptions options;
  options.mode = mode;
  options.memtable_bytes = 8 << 10;  // frequent flushes + compactions
  options.l0_compaction_trigger = 3;
  options.wal_capacity = 64 << 10;   // frequent WAL rotations in NCL

  auto server = testbed.MakeServer(
      app_id, {.mode = mode, .ncl_capacity = 1 << 20});
  auto store = testbed.StartKvStore(server.get(), options);
  ASSERT_TRUE(store.ok());
  Reference reference;

  for (int i = 0; i < 250; ++i) {
    int action = static_cast<int>(rng.Uniform(100));
    if (action < 70) {
      std::string k = FuzzKey(&rng);
      std::string v = FuzzValue(&rng);
      ASSERT_TRUE((*store)->Put(k, v).ok());
      reference[k] = v;
    } else if (action < 85) {
      std::string k = FuzzKey(&rng);
      ASSERT_TRUE((*store)->Delete(k).ok());
      reference.erase(k);
    } else if (action < 92) {
      std::string k = FuzzKey(&rng);
      auto got = (*store)->Get(k);
      auto it = reference.find(k);
      if (it == reference.end()) {
        ASSERT_FALSE(got.ok()) << k;
      } else {
        ASSERT_TRUE(got.ok()) << k;
        ASSERT_EQ(*got, it->second);
      }
    } else {
      // Crash + recover.
      if (mode == DurabilityMode::kWeak) {
        server->dfs->BackgroundFlushAll();  // weak promises only this
      }
      testbed.CrashServer(server.get());
      testbed.sim()->RunUntilIdle();
      server = testbed.MakeServer(
          app_id, {.mode = mode, .ncl_capacity = 1 << 20});
      store = testbed.StartKvStore(server.get(), options);
      ASSERT_TRUE(store.ok()) << "recovery failed at op " << i;
      CheckAgainstReference(store->get(), reference);
    }
  }
  CheckAgainstReference(store->get(), reference, 1000);
}

class KvFuzz
    : public ::testing::TestWithParam<std::tuple<uint64_t, DurabilityMode>> {};

TEST_P(KvFuzz, CrashRecoveryMatchesReference) {
  KvEpisode(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Episodes, KvFuzz,
    ::testing::Combine(::testing::Values(101, 202, 303, 404),
                       ::testing::Values(DurabilityMode::kStrong,
                                         DurabilityMode::kSplitFt,
                                         DurabilityMode::kWeak)),
    [](const auto& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) + "_" +
             std::string(DurabilityModeName(std::get<1>(param_info.param)));
    });

// --------------------------------------------------------------- Redis --

// Every key type: strings (SET/DEL/GET), hashes (HSET), lists (LPUSH) and
// counters (INCR), so crash recovery rebuilds each type's keyspace.
void RedisEpisode(uint64_t seed, DurabilityMode mode) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Rng rng(seed);
  Testbed testbed;
  std::string app_id = "redisfuzz-" + std::to_string(seed) + "-" +
                       std::string(DurabilityModeName(mode));
  RedisOptions options;
  options.mode = mode;
  options.aof_rewrite_bytes = 4 << 10;  // a rewrite every ~40 commands
  options.aof_capacity = 256 << 10;

  auto server = testbed.MakeServer(
      app_id, {.mode = mode, .ncl_capacity = 1 << 20});
  auto redis = testbed.StartRedis(server.get(), options);
  ASSERT_TRUE(redis.ok());
  Reference strings;  // counters included: INCR stores decimal text
  std::map<std::string, std::map<std::string, std::string>> hashes;
  std::map<std::string, std::deque<std::string>> lists;

  auto check_hashes_and_lists = [&] {
    for (const auto& [k, fields] : hashes) {
      for (const auto& [f, v] : fields) {
        auto got = (*redis)->HGet(k, f);
        ASSERT_TRUE(got.ok()) << k << "." << f;
        ASSERT_EQ(*got, v);
      }
    }
    for (const auto& [k, items] : lists) {
      for (size_t i = 0; i < items.size(); ++i) {
        auto got = (*redis)->LIndex(k, static_cast<int64_t>(i));
        ASSERT_TRUE(got.ok()) << k << "[" << i << "]";
        ASSERT_EQ(*got, items[i]) << k << "[" << i << "]";
      }
      EXPECT_FALSE(
          (*redis)->LIndex(k, static_cast<int64_t>(items.size())).ok());
    }
  };

  for (int i = 0; i < 250; ++i) {
    int action = static_cast<int>(rng.Uniform(100));
    if (action < 40) {
      std::string k = FuzzKey(&rng);
      std::string v = FuzzValue(&rng);
      ASSERT_TRUE((*redis)->Put(k, v).ok());
      strings[k] = v;
    } else if (action < 52) {
      std::string k = "hash-" + std::to_string(rng.Uniform(8));
      std::string f = "field-" + std::to_string(rng.Uniform(8));
      std::string v = FuzzValue(&rng);
      ASSERT_TRUE((*redis)->HSet(k, f, v).ok());
      hashes[k][f] = v;
    } else if (action < 62) {
      std::string k = "list-" + std::to_string(rng.Uniform(8));
      std::string v = FuzzValue(&rng);
      ASSERT_TRUE((*redis)->LPush(k, v).ok());
      lists[k].push_front(v);
    } else if (action < 70) {
      std::string k = "ctr-" + std::to_string(rng.Uniform(8));
      auto got = (*redis)->Incr(k);
      ASSERT_TRUE(got.ok());
      auto it = strings.find(k);
      int64_t want = (it == strings.end() ? 0 : std::stoll(it->second)) + 1;
      ASSERT_EQ(*got, want) << k;
      strings[k] = std::to_string(want);
    } else if (action < 80) {
      // DEL removes every type stored under the name.
      static constexpr const char* kPrefixes[] = {"key-", "hash-", "list-",
                                                  "ctr-"};
      std::string k =
          kPrefixes[rng.Uniform(4)] + std::to_string(rng.Uniform(8));
      ASSERT_TRUE((*redis)->Del(k).ok());
      strings.erase(k);
      hashes.erase(k);
      lists.erase(k);
    } else if (action < 90) {
      std::string k = FuzzKey(&rng);
      auto got = (*redis)->Get(k);
      auto it = strings.find(k);
      if (it == strings.end()) {
        ASSERT_FALSE(got.ok());
      } else {
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(*got, it->second);
      }
    } else {
      if (mode == DurabilityMode::kWeak) {
        server->dfs->BackgroundFlushAll();
      }
      testbed.CrashServer(server.get());
      testbed.sim()->RunUntilIdle();
      server = testbed.MakeServer(
          app_id, {.mode = mode, .ncl_capacity = 1 << 20});
      redis = testbed.StartRedis(server.get(), options);
      ASSERT_TRUE(redis.ok()) << "recovery failed at op " << i;
      CheckAgainstReference(redis->get(), strings);
      check_hashes_and_lists();
    }
  }
  CheckAgainstReference(redis->get(), strings, 1000);
  check_hashes_and_lists();
}

class RedisFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RedisFuzz, SplitFtCrashRecoveryMatchesReference) {
  RedisEpisode(GetParam(), DurabilityMode::kSplitFt);
}

TEST_P(RedisFuzz, StrongCrashRecoveryMatchesReference) {
  RedisEpisode(GetParam(), DurabilityMode::kStrong);
}

INSTANTIATE_TEST_SUITE_P(Episodes, RedisFuzz,
                         ::testing::Values(111, 222, 333));

// -------------------------------------------------------------- SQLite --

void SqliteEpisode(uint64_t seed, DurabilityMode mode) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Rng rng(seed);
  Testbed testbed;
  std::string app_id = "sqlfuzz-" + std::to_string(seed) + "-" +
                       std::string(DurabilityModeName(mode));
  SqliteLiteOptions options;
  options.mode = mode;
  options.wal_capacity = 16 << 10;  // wraps often: exercises the circular log

  auto server = testbed.MakeServer(
      app_id, {.mode = mode, .ncl_capacity = 1 << 20});
  auto db = testbed.StartSqlite(server.get(), options);
  ASSERT_TRUE(db.ok());
  Reference reference;

  for (int i = 0; i < 250; ++i) {
    int action = static_cast<int>(rng.Uniform(100));
    if (action < 60) {
      std::string k = FuzzKey(&rng);
      std::string v = FuzzValue(&rng);
      ASSERT_TRUE((*db)->Put(k, v).ok());
      reference[k] = v;
    } else if (action < 80) {
      // Multi-row transaction.
      std::vector<KvWrite> txn;
      for (uint64_t j = 0; j < 1 + rng.Uniform(4); ++j) {
        txn.push_back(KvWrite{FuzzKey(&rng), FuzzValue(&rng)});
      }
      ASSERT_TRUE((*db)->ExecTransaction(txn).ok());
      for (const KvWrite& w : txn) {
        reference[w.key] = w.value;
      }
    } else if (action < 90) {
      std::string k = FuzzKey(&rng);
      auto got = (*db)->Get(k);
      auto it = reference.find(k);
      if (it == reference.end()) {
        ASSERT_FALSE(got.ok());
      } else {
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(*got, it->second);
      }
    } else {
      if (mode == DurabilityMode::kWeak) {
        server->dfs->BackgroundFlushAll();
      }
      testbed.CrashServer(server.get());
      testbed.sim()->RunUntilIdle();
      server = testbed.MakeServer(
          app_id, {.mode = mode, .ncl_capacity = 1 << 20});
      db = testbed.StartSqlite(server.get(), options);
      ASSERT_TRUE(db.ok()) << "recovery failed at op " << i;
      CheckAgainstReference(db->get(), reference);
    }
  }
  CheckAgainstReference(db->get(), reference, 1000);
}

class SqliteFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqliteFuzz, SplitFtCrashRecoveryMatchesReference) {
  SqliteEpisode(GetParam(), DurabilityMode::kSplitFt);
}

TEST_P(SqliteFuzz, StrongCrashRecoveryMatchesReference) {
  SqliteEpisode(GetParam(), DurabilityMode::kStrong);
}

INSTANTIATE_TEST_SUITE_P(Episodes, SqliteFuzz,
                         ::testing::Values(121, 242, 363));

}  // namespace
}  // namespace splitft
