// Tests for the three mini-applications in all three durability modes,
// including the crash-durability semantics each mode promises.
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/apps/kvstore/kv_store.h"
#include "src/apps/kvstore/wal.h"
#include "src/apps/lru_cache.h"
#include "src/apps/redis/redis.h"
#include "src/apps/sqlitelite/sqlite_lite.h"
#include "src/common/bytes.h"
#include "src/common/record.h"
#include "src/controller/controller.h"
#include "src/dfs/dfs.h"
#include "src/ncl/peer.h"
#include "src/rdma/fabric.h"
#include "src/splitft/split_fs.h"

namespace splitft {
namespace {

class AppsTest : public ::testing::Test {
 protected:
  AppsTest()
      : fabric_(&sim_, &params_),
        controller_(&sim_, &params_),
        cluster_(&sim_, &params_),
        dfs_(&cluster_, "app-server") {
    app_node_ = fabric_.AddNode("app-server");
    for (int i = 0; i < 4; ++i) {
      auto peer = std::make_unique<LogPeer>("p" + std::to_string(i), &fabric_,
                                            &controller_, 512ull << 20);
      EXPECT_TRUE(peer->Start().ok());
      directory_.Register(peer.get());
      peers_.push_back(std::move(peer));
    }
  }

  std::unique_ptr<SplitFs> MakeFs(const std::string& app) {
    NclConfig config;
    config.app_id = app;
    config.default_capacity = 8 << 20;
    return std::make_unique<SplitFs>(config, &dfs_, &fabric_, &controller_,
                                     &directory_, app_node_);
  }

  Simulation sim_;
  SimParams params_;
  Fabric fabric_;
  Controller controller_;
  DfsCluster cluster_;
  DfsClient dfs_;
  PeerDirectory directory_;
  std::vector<std::unique_ptr<LogPeer>> peers_;
  NodeId app_node_;
};

// --------------------------------------------------------------- LruCache --

LruCache::Value Shared(std::string value) {
  return std::make_shared<const std::string>(std::move(value));
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(30);
  cache.Put("a", Shared("0123456789"));  // 11 bytes
  cache.Put("b", Shared("0123456789"));
  ASSERT_NE(cache.Get("a"), nullptr);     // refresh a
  cache.Put("c", Shared("0123456789"));  // evicts b
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(LruCacheTest, OversizedEntryRejected) {
  LruCache cache(8);
  cache.Put("key", Shared(std::string(100, 'x')));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, UpdateReplacesValueAndAccounting) {
  LruCache cache(100);
  cache.Put("k", Shared("aaaa"));
  cache.Put("k", Shared("bb"));
  EXPECT_EQ(cache.used_bytes(), 3u);
  EXPECT_EQ(*cache.Get("k"), "bb");
}

TEST(LruCacheTest, HandedOutValueSurvivesItsEviction) {
  LruCache cache(24);
  cache.Put("a", Shared("first-value"));  // 12 bytes
  LruCache::Value held = cache.Get("a");
  ASSERT_NE(held, nullptr);
  // A hit shares the cached string rather than copying it.
  EXPECT_EQ(cache.Get("a").get(), held.get());
  cache.Put("b", Shared("second-value"));  // 13 bytes: evicts a
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.used_bytes(), 13u);
  EXPECT_EQ(*held, "first-value");
  // Replacing and erasing entries leave earlier holders intact too.
  LruCache::Value second = cache.Get("b");
  cache.Put("b", Shared("x"));
  cache.Erase("b");
  EXPECT_EQ(*second, "second-value");
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

// -------------------------------------------------------------------- WAL --

TEST(WalFormatTest, RoundTrip) {
  std::vector<KvWrite> batch = {{"k1", "v1"}, {"k2", "v2"}};
  std::string raw = WriteAheadLog::EncodeRecord(batch);
  std::vector<std::pair<std::string, std::string>> got;
  int batches = WriteAheadLog::Replay(raw, [&](auto k, auto v) {
    got.emplace_back(std::string(k), std::string(v));
  });
  EXPECT_EQ(batches, 1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, "k1");
  EXPECT_EQ(got[1].second, "v2");
}

TEST(WalFormatTest, TornTailIsDropped) {
  std::string raw = WriteAheadLog::EncodeRecord({{"k1", "v1"}});
  raw += WriteAheadLog::EncodeRecord({{"k2", "v2"}});
  raw.resize(raw.size() - 3);  // tear the second record
  int applied = 0;
  int batches = WriteAheadLog::Replay(raw, [&](auto, auto) { applied++; });
  EXPECT_EQ(batches, 1);
  EXPECT_EQ(applied, 1);
}

TEST(WalFormatTest, CorruptRecordStopsReplay) {
  std::string raw = WriteAheadLog::EncodeRecord({{"k1", "v1"}});
  raw[10] ^= 0x40;  // flip a payload bit
  int batches = WriteAheadLog::Replay(raw, [&](auto, auto) {});
  EXPECT_EQ(batches, 0);
}

// ---------------------------------------------------------------- KvStore --

class KvStoreModeTest : public AppsTest,
                        public ::testing::WithParamInterface<DurabilityMode> {
 protected:
  KvStoreOptions SmallOptions() {
    KvStoreOptions options;
    options.mode = GetParam();
    options.memtable_bytes = 16 << 10;
    options.block_cache_bytes = 64 << 10;
    options.wal_capacity = 256 << 10;
    return options;
  }
};

TEST_P(KvStoreModeTest, PutGetRoundTrip) {
  auto fs = MakeFs("kv-app");
  auto store = KvStore::Open(fs.get(), &sim_, &params_, SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("key1", "value1").ok());
  auto v = (*store)->Get("key1");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "value1");
  EXPECT_EQ((*store)->Get("missing").status().code(), StatusCode::kNotFound);
}

TEST_P(KvStoreModeTest, OverwriteReturnsLatest) {
  auto fs = MakeFs("kv-app");
  auto store = KvStore::Open(fs.get(), &sim_, &params_, SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", "v1").ok());
  ASSERT_TRUE((*store)->Put("k", "v2").ok());
  EXPECT_EQ(*(*store)->Get("k"), "v2");
}

TEST_P(KvStoreModeTest, MemtableFlushCreatesSstableAndRotatesWal) {
  auto fs = MakeFs("kv-app");
  auto store = KvStore::Open(fs.get(), &sim_, &params_, SmallOptions());
  ASSERT_TRUE(store.ok());
  // ~64 KiB of writes: several flushes at a 16 KiB memtable.
  for (int i = 0; i < 512; ++i) {
    ASSERT_TRUE((*store)
                    ->Put("key-" + std::to_string(i), std::string(100, 'v'))
                    .ok());
  }
  EXPECT_GT((*store)->l0_tables() + (*store)->l1_tables(), 0u);
  // All values remain readable across memtable/sstable boundaries.
  for (int i = 0; i < 512; i += 37) {
    auto v = (*store)->Get("key-" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(v->size(), 100u);
  }
}

TEST_P(KvStoreModeTest, CompactionPreservesNewestValues) {
  auto fs = MakeFs("kv-app");
  KvStoreOptions options = SmallOptions();
  options.l0_compaction_trigger = 2;
  auto store = KvStore::Open(fs.get(), &sim_, &params_, options);
  ASSERT_TRUE(store.ok());
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*store)
                      ->Put("key-" + std::to_string(i),
                            "round-" + std::to_string(round))
                      .ok());
    }
  }
  EXPECT_LE((*store)->l0_tables(), 2u);
  for (int i = 0; i < 200; i += 13) {
    auto v = (*store)->Get("key-" + std::to_string(i));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "round-5");
  }
}

TEST_P(KvStoreModeTest, RecoversAfterCleanFlush) {
  DurabilityMode mode = GetParam();
  auto fs = MakeFs("kv-app");
  {
    auto store = KvStore::Open(fs.get(), &sim_, &params_, SmallOptions());
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(
          (*store)->Put("key-" + std::to_string(i), std::string(100, 'x')).ok());
    }
    ASSERT_TRUE((*store)->FlushMemtable().ok());  // all data in sstables
    fs->SimulateCrash();
  }
  sim_.RunUntilIdle();
  auto fs2 = MakeFs("kv-app");
  auto store = KvStore::Open(fs2.get(), &sim_, &params_, SmallOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 300; i += 29) {
    EXPECT_TRUE((*store)->Get("key-" + std::to_string(i)).ok())
        << "mode=" << DurabilityModeName(mode) << " key " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, KvStoreModeTest,
                         ::testing::Values(DurabilityMode::kWeak,
                                           DurabilityMode::kStrong,
                                           DurabilityMode::kSplitFt),
                         [](const auto& param_info) {
                           return std::string(DurabilityModeName(param_info.param));
                         });

TEST_F(AppsTest, KvStoreWeakModeLosesUnflushedWrites) {
  KvStoreOptions options;
  options.mode = DurabilityMode::kWeak;
  auto fs = MakeFs("kv-weak");
  {
    auto store = KvStore::Open(fs.get(), &sim_, &params_, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("acked", "but-volatile").ok());
    fs->SimulateCrash();  // before any flush
  }
  sim_.RunUntilIdle();
  auto fs2 = MakeFs("kv-weak");
  auto store = KvStore::Open(fs2.get(), &sim_, &params_, options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->Get("acked").status().code(), StatusCode::kNotFound)
      << "weak mode unexpectedly kept unflushed data";
}

TEST_F(AppsTest, KvStoreStrongModeKeepsEveryAckedWrite) {
  KvStoreOptions options;
  options.mode = DurabilityMode::kStrong;
  auto fs = MakeFs("kv-strong");
  {
    auto store = KvStore::Open(fs.get(), &sim_, &params_, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("acked", "durable").ok());
    fs->SimulateCrash();
  }
  sim_.RunUntilIdle();
  auto fs2 = MakeFs("kv-strong");
  auto store = KvStore::Open(fs2.get(), &sim_, &params_, options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->Get("acked"), "durable");
}

TEST_F(AppsTest, KvStoreSplitFtKeepsEveryAckedWriteCheaply) {
  KvStoreOptions options;
  options.mode = DurabilityMode::kSplitFt;
  auto fs = MakeFs("kv-sft");
  SimTime put_latency;
  {
    auto store = KvStore::Open(fs.get(), &sim_, &params_, options);
    ASSERT_TRUE(store.ok());
    SimTime t0 = sim_.Now();
    ASSERT_TRUE((*store)->Put("acked", "durable").ok());
    put_latency = sim_.Now() - t0;
    fs->SimulateCrash();
  }
  sim_.RunUntilIdle();
  auto fs2 = MakeFs("kv-sft");
  auto store = KvStore::Open(fs2.get(), &sim_, &params_, options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->Get("acked"), "durable");
  EXPECT_GT((*store)->recovered_batches(), 0u);
  // Strong durability at near-weak latency: microseconds, not milliseconds.
  EXPECT_LT(put_latency, Micros(50));
}

TEST_F(AppsTest, KvStoreBatchIsOneLogWrite) {
  KvStoreOptions options;
  options.mode = DurabilityMode::kStrong;
  auto fs = MakeFs("kv-batch");
  auto store = KvStore::Open(fs.get(), &sim_, &params_, options);
  ASSERT_TRUE(store.ok());
  uint64_t syncs_before = cluster_.sync_ops();
  std::vector<KvWrite> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back({"bk-" + std::to_string(i), "v"});
  }
  ASSERT_TRUE((*store)->ApplyWriteBatch(batch).ok());
  EXPECT_EQ(cluster_.sync_ops() - syncs_before, 1u)
      << "group commit should issue exactly one synchronous log write";
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE((*store)->Get("bk-" + std::to_string(i)).ok());
  }
}

// ------------------------------------------------------------------ Redis --

class RedisModeTest : public AppsTest,
                      public ::testing::WithParamInterface<DurabilityMode> {
 protected:
  RedisOptions SmallOptions() {
    RedisOptions options;
    options.mode = GetParam();
    options.aof_rewrite_bytes = 64 << 10;
    options.aof_capacity = 256 << 10;
    return options;
  }
};

TEST_P(RedisModeTest, StringsHashesListsCounters) {
  auto fs = MakeFs("redis-app");
  auto redis = Redis::Open(fs.get(), &sim_, &params_, SmallOptions());
  ASSERT_TRUE(redis.ok());

  ASSERT_TRUE((*redis)->Put("greeting", "hello").ok());
  EXPECT_EQ(*(*redis)->Get("greeting"), "hello");

  ASSERT_TRUE((*redis)->HSet("user:1", "name", "ada").ok());
  ASSERT_TRUE((*redis)->HSet("user:1", "lang", "c++").ok());
  EXPECT_EQ(*(*redis)->HGet("user:1", "name"), "ada");
  EXPECT_FALSE((*redis)->HGet("user:1", "ghost").ok());

  ASSERT_TRUE((*redis)->LPush("queue", "job1").ok());
  ASSERT_TRUE((*redis)->LPush("queue", "job2").ok());
  EXPECT_EQ(*(*redis)->LIndex("queue", 0), "job2");
  EXPECT_EQ(*(*redis)->LIndex("queue", -1), "job1");

  auto counter = (*redis)->Incr("hits");
  ASSERT_TRUE(counter.ok());
  EXPECT_EQ(*counter, 1);
  counter = (*redis)->Incr("hits");
  EXPECT_EQ(*counter, 2);

  ASSERT_TRUE((*redis)->Del("greeting").ok());
  EXPECT_FALSE((*redis)->Get("greeting").ok());
}

TEST_P(RedisModeTest, AofRewriteReclaimsLog) {
  auto fs = MakeFs("redis-app");
  auto redis = Redis::Open(fs.get(), &sim_, &params_, SmallOptions());
  ASSERT_TRUE(redis.ok());
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(
        (*redis)->Put("key-" + std::to_string(i % 50), std::string(100, 'v')).ok());
  }
  EXPECT_GT((*redis)->rdb_snapshots(), 0);
  // The AOF was truncated by the rewrite: it is far smaller than the total
  // bytes written.
  EXPECT_LT((*redis)->aof_bytes(), 128u << 10);
  EXPECT_EQ(*(*redis)->Get("key-1"), std::string(100, 'v'));
}

TEST_P(RedisModeTest, RecoversFromRdbPlusAof) {
  DurabilityMode mode = GetParam();
  auto fs = MakeFs("redis-app");
  {
    auto redis = Redis::Open(fs.get(), &sim_, &params_, SmallOptions());
    ASSERT_TRUE(redis.ok());
    for (int i = 0; i < 600; ++i) {
      ASSERT_TRUE((*redis)
                      ->Put("key-" + std::to_string(i), std::string(100, 'v'))
                      .ok());
    }
    ASSERT_TRUE((*redis)->HSet("h", "f", "v").ok());
    if (mode == DurabilityMode::kWeak) {
      // Give the lazy flusher a chance; weak mode only promises eventual
      // durability.
      fs->dfs()->BackgroundFlushAll();
    }
    fs->SimulateCrash();
  }
  sim_.RunUntilIdle();
  auto fs2 = MakeFs("redis-app");
  auto redis = Redis::Open(fs2.get(), &sim_, &params_, SmallOptions());
  ASSERT_TRUE(redis.ok());
  // Every acked SET survives, including batches acked just before an AOF
  // rewrite: the RDB snapshot must hold them once their AOF is unlinked.
  for (int i = 0; i < 600; ++i) {
    auto value = (*redis)->Get("key-" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << "key-" << i << ": " << value.status().ToString();
    EXPECT_EQ(*value, std::string(100, 'v'));
  }
  EXPECT_EQ(*(*redis)->HGet("h", "f"), "v");
}

INSTANTIATE_TEST_SUITE_P(Modes, RedisModeTest,
                         ::testing::Values(DurabilityMode::kWeak,
                                           DurabilityMode::kStrong,
                                           DurabilityMode::kSplitFt),
                         [](const auto& param_info) {
                           return std::string(DurabilityModeName(param_info.param));
                         });

TEST_F(AppsTest, RedisWeakLosesRecentSplitFtDoesNot) {
  for (DurabilityMode mode :
       {DurabilityMode::kWeak, DurabilityMode::kSplitFt}) {
    std::string app =
        std::string("redis-") + std::string(DurabilityModeName(mode));
    RedisOptions options;
    options.mode = mode;
    auto fs = MakeFs(app);
    {
      auto redis = Redis::Open(fs.get(), &sim_, &params_, options);
      ASSERT_TRUE(redis.ok());
      ASSERT_TRUE((*redis)->Put("acked", "data").ok());
      fs->SimulateCrash();
    }
    sim_.RunUntilIdle();
    auto fs2 = MakeFs(app);
    auto redis = Redis::Open(fs2.get(), &sim_, &params_, options);
    ASSERT_TRUE(redis.ok());
    if (mode == DurabilityMode::kWeak) {
      EXPECT_FALSE((*redis)->Get("acked").ok());
    } else {
      EXPECT_EQ(*(*redis)->Get("acked"), "data");
    }
  }
}

// Recovery in SplitFT mode: load the RDB, replay the AOF, serialize again.
class RedisRecoveryTest : public AppsTest {
 protected:
  static RedisOptions Options() {
    RedisOptions options;
    options.aof_rewrite_bytes = 64 << 10;
    options.aof_capacity = 256 << 10;
    return options;
  }

  std::unique_ptr<Redis> Open(SplitFs* fs) {
    auto redis = Redis::Open(fs, &sim_, &params_, Options());
    EXPECT_TRUE(redis.ok()) << redis.status().ToString();
    return redis.ok() ? std::move(*redis) : nullptr;
  }

  // Crashes the server running `live` on `fs`, then recovers redis on a
  // fresh SplitFs.
  std::unique_ptr<Redis> CrashAndRecover(std::unique_ptr<SplitFs>* fs,
                                         std::unique_ptr<Redis> live) {
    (*fs)->SimulateCrash();
    live.reset();
    sim_.RunUntilIdle();
    *fs = MakeFs("redis-app");
    return Open(fs->get());
  }

  // Path and bytes of the newest RDB snapshot on the dfs.
  std::pair<std::string, std::string> NewestRdb(SplitFs* fs) {
    std::vector<std::string> rdbs = fs->dfs()->List("/redis/rdb-");
    if (rdbs.empty()) {
      ADD_FAILURE() << "no rdb snapshot";
      return {};
    }
    SplitOpenOptions opts;
    opts.create = false;
    auto file = fs->Open(rdbs.back(), opts);
    EXPECT_TRUE(file.ok());
    auto raw = (*file)->Read(0, (*file)->Size());
    EXPECT_TRUE(raw.ok());
    return {rdbs.back(), std::string(raw->data(), raw->size())};
  }

  using HashModel = std::map<std::string, std::map<std::string, std::string>>;
  using ListModel = std::map<std::string, std::deque<std::string>>;

  // The RDB a redis holding exactly `strings`, `hashes` and `lists` writes:
  // each section in key order.
  static std::string ModelRdb(const std::map<std::string, std::string>& strings,
                              const HashModel& hashes = {},
                              const ListModel& lists = {}) {
    std::string out;
    PutKvList(&out, strings);
    PutFixed32(&out, static_cast<uint32_t>(hashes.size()));
    for (const auto& [key, fields] : hashes) {
      PutLengthPrefixed(&out, key);
      PutKvList(&out, fields);
    }
    PutFixed32(&out, static_cast<uint32_t>(lists.size()));
    for (const auto& [key, items] : lists) {
      PutLengthPrefixed(&out, key);
      PutFixed32(&out, static_cast<uint32_t>(items.size()));
      for (const std::string& item : items) {
        PutLengthPrefixed(&out, item);
      }
    }
    return out;
  }
};

TEST_F(RedisRecoveryTest, RdbRewrittenAfterRecoveryIsByteIdentical) {
  auto fs = MakeFs("redis-app");
  std::unique_ptr<Redis> redis = Open(fs.get());
  ASSERT_NE(redis, nullptr);
  ASSERT_TRUE(redis->HSet("h:b", "f2", "v2").ok());
  ASSERT_TRUE(redis->HSet("h:a", "f1", "v1").ok());
  ASSERT_TRUE(redis->LPush("l", "x").ok());
  ASSERT_TRUE(redis->LPush("l", "y").ok());
  // Keys inserted out of order; stop right after the put whose AOF rewrite
  // wrote the snapshot, so the dataset equals the RDB.
  for (int i = 0; redis->rdb_snapshots() == 0; ++i) {
    ASSERT_LT(i, 10000);
    ASSERT_TRUE(redis
                    ->Put("key-" + std::to_string((i * 7919) % 1000),
                          std::string(64 + i % 37, static_cast<char>('a' + i % 26)))
                    .ok());
  }
  auto [before_path, before] = NewestRdb(fs.get());

  redis = CrashAndRecover(&fs, std::move(redis));
  ASSERT_NE(redis, nullptr);
  // Rewrite again without changing the dataset: re-SET one key to the
  // value it already holds until the AOF crosses the threshold.
  auto same = redis->Get("key-0");
  ASSERT_TRUE(same.ok());
  while (redis->rdb_snapshots() == 0) {
    ASSERT_TRUE(redis->Put("key-0", *same).ok());
  }
  auto [after_path, after] = NewestRdb(fs.get());
  EXPECT_NE(after_path, before_path);
  EXPECT_EQ(after.size(), before.size());
  EXPECT_TRUE(after == before) << "RDB bytes changed across recovery";
}

TEST_F(RedisRecoveryTest, ReplayedSetOverwritesShorterThenLonger) {
  auto fs = MakeFs("redis-app");
  std::unique_ptr<Redis> redis = Open(fs.get());
  ASSERT_NE(redis, nullptr);
  ASSERT_TRUE(redis->Put("k", std::string(50, 'm')).ok());
  ASSERT_TRUE(redis->Put("k", "short").ok());
  redis = CrashAndRecover(&fs, std::move(redis));
  ASSERT_NE(redis, nullptr);
  EXPECT_EQ(redis->replayed_commands(), 2u);
  EXPECT_EQ(*redis->Get("k"), "short");
  ASSERT_TRUE(redis->Put("k", std::string(200, 'L')).ok());
  redis = CrashAndRecover(&fs, std::move(redis));
  ASSERT_NE(redis, nullptr);
  EXPECT_EQ(redis->replayed_commands(), 3u);
  EXPECT_EQ(*redis->Get("k"), std::string(200, 'L'));
}

TEST_F(RedisRecoveryTest, ReplayedDelOfAbsentKeySucceeds) {
  auto fs = MakeFs("redis-app");
  std::unique_ptr<Redis> redis = Open(fs.get());
  ASSERT_NE(redis, nullptr);
  ASSERT_TRUE(redis->Del("ghost").ok());
  ASSERT_TRUE(redis->Put("x", "1").ok());
  ASSERT_TRUE(redis->Del("x").ok());
  ASSERT_TRUE(redis->Del("x").ok());
  ASSERT_TRUE(redis->Put("y", "2").ok());
  redis = CrashAndRecover(&fs, std::move(redis));
  ASSERT_NE(redis, nullptr);
  EXPECT_EQ(redis->replayed_commands(), 5u);
  EXPECT_FALSE(redis->Get("ghost").ok());
  EXPECT_FALSE(redis->Get("x").ok());
  EXPECT_EQ(*redis->Get("y"), "2");
}

TEST_F(RedisRecoveryTest, LooksUpThroughNonOwningView) {
  auto fs = MakeFs("redis-app");
  std::unique_ptr<Redis> redis = Open(fs.get());
  ASSERT_NE(redis, nullptr);
  ASSERT_TRUE(redis->Put("key-1", "one").ok());
  ASSERT_TRUE(redis->HSet("key-1h", "field", "v").ok());
  // Views into a larger buffer: not NUL-terminated where the key ends.
  const std::string buffer = "key-1hits-and-more";
  const std::string_view view = buffer;
  EXPECT_EQ(*redis->Get(view.substr(0, 5)), "one");
  EXPECT_EQ(*redis->HGet(view.substr(0, 6), "field"), "v");
  EXPECT_EQ(*redis->Incr(view.substr(5, 4)), 1);
  EXPECT_EQ(*redis->Incr(view.substr(5, 4)), 2);
  EXPECT_EQ(*redis->Get("hits"), "2");
  EXPECT_FALSE(redis->Get(view.substr(0, 4)).ok());
}

// Mutations of keys the recovered RDB holds (SET, DEL, DEL-then-SET,
// INCR) survive two more crash-recoveries, and the next RDB equals the
// one a std::map reference model serializes.
TEST_F(RedisRecoveryTest, SnapshotKeyMutationsMatchReferenceModel) {
  auto fs = MakeFs("redis-app");
  std::unique_ptr<Redis> redis = Open(fs.get());
  ASSERT_NE(redis, nullptr);
  std::map<std::string, std::string> model;
  auto put = [&](const std::string& key, const std::string& value) {
    ASSERT_TRUE(redis->Put(key, value).ok()) << key;
    model[key] = value;
  };
  auto del = [&](const std::string& key) {
    ASSERT_TRUE(redis->Del(key).ok()) << key;
    model.erase(key);
  };
  auto incr = [&](const std::string& key) {
    auto it = model.find(key);
    int64_t want = (it == model.end() ? 0 : std::stoll(it->second)) + 1;
    auto got = redis->Incr(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, want) << key;
    model[key] = std::to_string(want);
  };
  // Every model key reads back its value, every dropped key reads absent.
  auto check = [&](const char* when) {
    for (const auto& [key, value] : model) {
      auto got = redis->Get(key);
      ASSERT_TRUE(got.ok()) << when << ": " << key;
      EXPECT_EQ(*got, value) << when << ": " << key;
    }
    for (const char* gone : {"key-0007", "key-0011", "key-0003", "new-2",
                             "ghost"}) {
      if (model.count(gone) == 0) {
        EXPECT_FALSE(redis->Get(gone).ok()) << when << ": " << gone;
      }
    }
    EXPECT_EQ(redis->keys(), model.size()) << when;
  };

  // Counters and the keys the rounds below touch first, then keys in
  // scrambled order until the AOF rewrite snapshots them all into the RDB.
  for (int i = 0; i < 4; ++i) {
    put("ctr-" + std::to_string(i), std::to_string(10 * i));
  }
  for (int i = 0; i < 1000 && redis->rdb_snapshots() == 0; ++i) {
    int n = i < 20 ? 19 - i : (i * 7919) % 1000;
    char key[16];
    std::snprintf(key, sizeof(key), "key-%04d", n);
    put(key, std::string(40 + i % 53, static_cast<char>('a' + i % 26)));
  }
  ASSERT_EQ(redis->rdb_snapshots(), 1);
  redis = CrashAndRecover(&fs, std::move(redis));
  ASSERT_NE(redis, nullptr);
  check("after the snapshot recovery");

  // Round 1 on RDB-resident keys, plus keys the RDB never held.
  put("key-0003", "short");
  put("key-0005", std::string(300, 'L'));
  del("key-0007");
  del("key-0011");
  del("key-0013");
  put("key-0013", "reborn");
  incr("ctr-1");
  incr("ctr-2");
  incr("ctr-2");
  incr("ctr-new");
  put("new-1", "fresh");
  put("new-2", "doomed");
  del("new-2");
  del("ghost");
  check("round 1, live");
  redis = CrashAndRecover(&fs, std::move(redis));
  ASSERT_NE(redis, nullptr);
  check("round 1, recovered");

  // Round 2 revisits the keys round 1 touched.
  put("key-0007", "back again");
  del("key-0013");
  del("key-0003");
  del("key-0017");
  put("key-0017", "replaced");
  incr("ctr-1");
  incr("ctr-3");
  put("key-0005", "");
  check("round 2, live");
  redis = CrashAndRecover(&fs, std::move(redis));
  ASSERT_NE(redis, nullptr);
  check("round 2, recovered");

  // The next snapshot: re-SET one key until the AOF rewrites.
  for (int i = 0; redis->rdb_snapshots() == 0; ++i) {
    ASSERT_LT(i, 10000);
    put("filler", "fill-" + std::to_string(i));
  }
  check("after the next snapshot");
  auto [path, rdb] = NewestRdb(fs.get());
  EXPECT_TRUE(rdb == ModelRdb(model)) << "RDB " << path
                                      << " differs from the reference model";
}

// One AOF generation replayed by two crash-recoveries, with no rewrite in
// between: SETs of one key with shrinking and growing values, SET-then-DEL
// of an AOF-only key, DEL-then-SET of a snapshot key, a hash and a list
// under one key deleted and re-created, INCR of a replayed key, and live
// SETs and DELs after each recovery on keys the replay set or deleted.
// Every read and the next RDB match a reference model.
TEST_F(RedisRecoveryTest, ReplayedAofMatchesReferenceModelAcrossRecoveries) {
  auto fs = MakeFs("redis-app");
  std::unique_ptr<Redis> redis = Open(fs.get());
  ASSERT_NE(redis, nullptr);
  std::map<std::string, std::string> strings;
  HashModel hashes;
  ListModel lists;
  std::set<std::string> touched;  // every key a command named
  uint64_t logged = 0;            // commands in the current AOF generation
  auto put = [&](const std::string& key, const std::string& value) {
    ASSERT_TRUE(redis->Put(key, value).ok()) << key;
    strings[key] = value;
    touched.insert(key);
    logged++;
  };
  auto del = [&](const std::string& key) {
    ASSERT_TRUE(redis->Del(key).ok()) << key;
    strings.erase(key);
    hashes.erase(key);
    lists.erase(key);
    touched.insert(key);
    logged++;
  };
  auto hset = [&](const std::string& key, const std::string& field,
                  const std::string& value) {
    ASSERT_TRUE(redis->HSet(key, field, value).ok()) << key;
    hashes[key][field] = value;
    touched.insert(key);
    logged++;
  };
  auto lpush = [&](const std::string& key, const std::string& value) {
    ASSERT_TRUE(redis->LPush(key, value).ok()) << key;
    lists[key].push_front(value);
    touched.insert(key);
    logged++;
  };
  auto incr = [&](const std::string& key) {
    auto it = strings.find(key);
    int64_t want = (it == strings.end() ? 0 : std::stoll(it->second)) + 1;
    auto got = redis->Incr(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, want) << key;
    strings[key] = std::to_string(want);
    touched.insert(key);
    logged++;
  };
  auto check = [&](const char* when) {
    for (const auto& [key, value] : strings) {
      auto got = redis->Get(key);
      ASSERT_TRUE(got.ok()) << when << ": " << key;
      EXPECT_EQ(*got, value) << when << ": " << key;
    }
    for (const std::string& key : touched) {
      if (strings.count(key) == 0) {
        EXPECT_FALSE(redis->Get(key).ok()) << when << ": " << key;
      }
      auto hash = hashes.find(key);
      if (hash == hashes.end()) {
        EXPECT_FALSE(redis->HGet(key, "f1").ok()) << when << ": " << key;
      } else {
        for (const auto& [field, value] : hash->second) {
          auto got = redis->HGet(key, field);
          ASSERT_TRUE(got.ok()) << when << ": " << key << "." << field;
          EXPECT_EQ(*got, value) << when << ": " << key << "." << field;
        }
      }
      auto list = lists.find(key);
      size_t items = list == lists.end() ? 0 : list->second.size();
      for (size_t i = 0; i < items; ++i) {
        auto got = redis->LIndex(key, static_cast<int64_t>(i));
        ASSERT_TRUE(got.ok()) << when << ": " << key << "[" << i << "]";
        EXPECT_EQ(*got, list->second[i]) << when << ": " << key;
      }
      EXPECT_FALSE(redis->LIndex(key, static_cast<int64_t>(items)).ok())
          << when << ": " << key;
    }
    EXPECT_EQ(redis->keys(), strings.size() + hashes.size() + lists.size())
        << when;
  };

  // The snapshot: counters, a hash and a list, then numbered keys until
  // the AOF rewrite writes the RDB.
  put("ctr-2", "20");
  hset("h-snap", "f1", "snapshot");
  lpush("l-snap", "snapshot");
  for (int i = 0; redis->rdb_snapshots() == 0; ++i) {
    ASSERT_LT(i, 10000);
    char key[16];
    std::snprintf(key, sizeof(key), "snap-%03d", i);
    put(key, std::string(48 + i % 31, static_cast<char>('a' + i % 26)));
  }
  ASSERT_GT(strings.count("snap-019"), 0u);
  redis = CrashAndRecover(&fs, std::move(redis));
  ASSERT_NE(redis, nullptr);
  const std::string rdb_path = NewestRdb(fs.get()).first;
  logged = 0;
  check("after the snapshot recovery");

  // The AOF generation, first part.
  put("churn", std::string(40, 'a'));
  put("churn", "s");
  put("churn", std::string(300, 'g'));
  put("churn", "mid-size");
  put("aof-only", "brief");
  del("aof-only");
  del("snap-003");
  put("snap-003", "reborn");
  del("snap-005");
  put("snap-007", "overwritten");
  hset("mix", "f1", "a");
  lpush("mix", "x");
  lpush("mix", "y");
  del("mix");
  hset("mix", "f2", "b");
  hset("h-snap", "f2", "aof");
  lpush("l-snap", "aof");
  put("num", "41");
  incr("ctr-2");
  put("aof-new", "kept");
  del("ghost");
  check("part 1, live");
  ASSERT_EQ(redis->rdb_snapshots(), 0);
  redis = CrashAndRecover(&fs, std::move(redis));
  ASSERT_NE(redis, nullptr);
  EXPECT_EQ(redis->replayed_commands(), logged);
  check("part 1, recovered");

  // Live commands on replayed keys, appended to the same generation.
  incr("num");
  put("snap-005", "after the tombstone");
  del("snap-007");
  del("aof-new");
  put("churn", "live");
  del("aof-only");
  del("snap-009");
  put("fresh", "live only");
  hset("mix", "f1", "again");
  check("part 2, live");
  ASSERT_EQ(redis->rdb_snapshots(), 0);
  redis = CrashAndRecover(&fs, std::move(redis));
  ASSERT_NE(redis, nullptr);
  EXPECT_EQ(redis->replayed_commands(), logged);
  EXPECT_EQ(NewestRdb(fs.get()).first, rdb_path);
  check("part 2, recovered");

  // Live commands after the second recovery, then the next snapshot.
  put("snap-007", "back");
  del("snap-003");
  incr("num");
  put("aof-new", "again");
  del("churn");
  del("snap-005");
  check("part 3, live");
  for (int i = 0; redis->rdb_snapshots() == 0; ++i) {
    ASSERT_LT(i, 10000);
    put("filler", "fill-" + std::to_string(i));
  }
  check("after the next snapshot");
  auto [path, rdb] = NewestRdb(fs.get());
  EXPECT_NE(path, rdb_path);
  EXPECT_TRUE(rdb == ModelRdb(strings, hashes, lists))
      << "RDB " << path << " differs from the reference model";
}

// Replayed keys that share a long prefix, differ only past their first 8
// bytes after it, are prefixes of one another or hold NUL and 0xff bytes
// come back in key order: lookups find them and the next RDB is the
// model's. Thirty families of such keys put some of each in every shard.
TEST_F(RedisRecoveryTest, ReplayedKeysSharingLongPrefixesKeepKeyOrder) {
  auto fs = MakeFs("redis-app");
  std::unique_ptr<Redis> redis = Open(fs.get());
  ASSERT_NE(redis, nullptr);
  const std::vector<std::string> suffixes = {
      "abcdefghZ", "abcdefghA", "", std::string(1, '\0'),
      std::string(2, '\0'), "abcdefgh", "abcdefgh" + std::string(1, '\0'),
      "\xff", "a", "abcdefghAA", "b"};
  std::vector<std::string> keys;
  for (int family = 0; family < 30; ++family) {
    for (const std::string& suffix : suffixes) {
      keys.push_back("shared-prefix-" + std::to_string(family) + "-" + suffix);
    }
  }
  std::map<std::string, std::string> model;
  // Each key written twice, the second round in reverse, so the replay
  // keeps the later value.
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const std::string& key = round == 0 ? keys[i] : keys[keys.size() - 1 - i];
      std::string value = "v" + std::to_string(round) + "-" + std::to_string(i);
      ASSERT_TRUE(redis->Put(key, value).ok());
      model[key] = value;
    }
  }
  ASSERT_EQ(redis->rdb_snapshots(), 0);
  redis = CrashAndRecover(&fs, std::move(redis));
  ASSERT_NE(redis, nullptr);
  EXPECT_EQ(redis->replayed_commands(), 2 * keys.size());
  for (const auto& [key, value] : model) {
    auto got = redis->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value) << key;
  }
  EXPECT_FALSE(redis->Get("shared-prefix-7-abcdefghB").ok());
  EXPECT_EQ(redis->keys(), model.size());
  for (int i = 0; redis->rdb_snapshots() == 0; ++i) {
    ASSERT_LT(i, 10000);
    std::string value = "fill-" + std::to_string(i);
    ASSERT_TRUE(redis->Put("filler", value).ok());
    model["filler"] = value;
  }
  EXPECT_TRUE(NewestRdb(fs.get()).second == ModelRdb(model));
}

// Recovery binary-searches the RDB's strings section in place, so an RDB
// whose string keys do not strictly increase is data loss, not a keyspace.
TEST_F(RedisRecoveryTest, OutOfOrderRdbStringsFailOpen) {
  auto fs = MakeFs("redis-app");
  const std::vector<std::vector<std::string>> cases = {
      {"a", "c", "b"}, {"a", "b", "b"}, {"a", "b", "c"}};
  for (size_t c = 0; c < cases.size(); ++c) {
    std::string rdb;
    PutFixed32(&rdb, static_cast<uint32_t>(cases[c].size()));
    for (const std::string& key : cases[c]) {
      PutLengthPrefixed(&rdb, key);
      PutLengthPrefixed(&rdb, "v-" + key);
    }
    PutFixed32(&rdb, 0);
    PutFixed32(&rdb, 0);
    RedisOptions options = Options();
    options.dir = "/redis-" + std::to_string(c);
    auto file = fs->Open(options.dir + "/rdb-000001", SplitOpenOptions{});
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(rdb).ok());
    ASSERT_TRUE((*file)->Sync().ok());
    auto redis = Redis::Open(fs.get(), &sim_, &params_, options);
    if (c + 1 < cases.size()) {
      ASSERT_FALSE(redis.ok()) << c;
      EXPECT_EQ(redis.status().code(), StatusCode::kDataLoss) << c;
    } else {
      ASSERT_TRUE(redis.ok()) << redis.status().ToString();
      EXPECT_EQ(*(*redis)->Get("b"), "v-b");
      EXPECT_EQ((*redis)->keys(), 3u);
    }
  }
}

// AOF replay of hand-written records. Recovery validates every command in
// log order before any keyspace shard applies one, so the outcome is the
// serial replay's: the first malformed command fails recovery, and a torn
// final record ends the log silently.
class RedisReplayErrorTest : public AppsTest {
 protected:
  static RedisOptions Options(const std::string& dir) {
    RedisOptions options;
    options.mode = DurabilityMode::kStrong;  // the AOF is a plain dfs file
    options.dir = dir;
    return options;
  }

  // An AOF record holding `op` and its length-prefixed arguments.
  static std::string Record(char op,
                            std::initializer_list<std::string_view> args) {
    std::string payload(1, op);
    for (std::string_view a : args) {
      PutLengthPrefixed(&payload, a);
    }
    std::string record;
    AppendRecord(&record, payload);
    return record;
  }

  // Writes 200 keys of each type through a redis in `dir`, then appends
  // `tail` to its AOF behind its back.
  void WriteThenAppend(SplitFs* fs, const std::string& dir,
                       std::string_view tail) {
    {
      auto redis = Redis::Open(fs, &sim_, &params_, Options(dir));
      ASSERT_TRUE(redis.ok());
      for (int i = 0; i < 200; ++i) {
        std::string n = std::to_string(i);
        ASSERT_TRUE((*redis)->Put("key-" + n, "v" + n).ok());
        ASSERT_TRUE((*redis)->HSet("hash-" + n, "f", n).ok());
        ASSERT_TRUE((*redis)->LPush("list-" + n, n).ok());
      }
    }
    std::vector<std::string> aofs = fs->dfs()->List(dir + "/aof-");
    ASSERT_EQ(aofs.size(), 1u);
    SplitOpenOptions opts;
    opts.create = false;
    auto aof = fs->Open(aofs[0], opts);
    ASSERT_TRUE(aof.ok());
    ASSERT_TRUE((*aof)->Append(tail).ok());
    ASSERT_TRUE((*aof)->Sync().ok());
  }
};

TEST_F(RedisReplayErrorTest, MalformedCommandMidAofFailsRecovery) {
  auto fs = MakeFs("redis-app");
  // A checksum-valid HSET missing its value, then valid commands, then a
  // second malformed record of another kind.
  std::string tail = Record('H', {"hash-3", "f"}) +
                     Record('S', {"key-1", "after"}) +
                     Record('?', {"key-2"}) + Record('S', {"key-3", "x"});
  WriteThenAppend(fs.get(), "/redis", tail);
  auto redis = Redis::Open(fs.get(), &sim_, &params_, Options("/redis"));
  ASSERT_FALSE(redis.ok());
  EXPECT_EQ(redis.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(redis.status().message(), "bad HSET frame");

  // Every malformed kind is reported by the parse step's own text.
  const std::pair<std::string, std::string> bad[] = {
      {Record('S', {"key-1"}), "bad SET frame"},
      {Record('D', {}), "bad DEL frame"},
      {Record('L', {"list-1"}), "bad LPUSH frame"},
      {Record('Z', {"key-1"}), "unknown aof opcode"},
  };
  int case_id = 0;
  for (const auto& [record, message] : bad) {
    const std::string dir = "/redis-" + std::to_string(case_id++);
    WriteThenAppend(fs.get(), dir, record + Record('S', {"key-1", "after"}));
    auto reopened = Redis::Open(fs.get(), &sim_, &params_, Options(dir));
    ASSERT_FALSE(reopened.ok()) << message;
    EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(reopened.status().message(), message);
  }
}

TEST_F(RedisReplayErrorTest, TornFinalRecordIsDroppedSilently) {
  auto fs = MakeFs("redis-app");
  std::string last = Record('S', {"torn", "never acked"});
  std::string tail = Record('S', {"key-7", "replaced"}) +
                     Record('D', {"hash-8"}) +
                     last.substr(0, last.size() - 3);
  WriteThenAppend(fs.get(), "/redis", tail);
  auto redis = Redis::Open(fs.get(), &sim_, &params_, Options("/redis"));
  ASSERT_TRUE(redis.ok()) << redis.status().ToString();
  EXPECT_EQ((*redis)->replayed_commands(), 3u * 200 + 2);
  EXPECT_EQ(*(*redis)->Get("key-7"), "replaced");
  EXPECT_FALSE((*redis)->HGet("hash-8", "f").ok());
  EXPECT_EQ(*(*redis)->HGet("hash-9", "f"), "9");
  EXPECT_EQ(*(*redis)->LIndex("list-199", 0), "199");
  EXPECT_FALSE((*redis)->Get("torn").ok());
  EXPECT_EQ((*redis)->keys(), 3u * 200 - 1);
}

// ------------------------------------------------------------- SqliteLite --

class SqliteModeTest : public AppsTest,
                       public ::testing::WithParamInterface<DurabilityMode> {
 protected:
  SqliteLiteOptions SmallOptions() {
    SqliteLiteOptions options;
    options.mode = GetParam();
    options.wal_capacity = 32 << 10;
    options.page_cache_bytes = 16 << 10;
    return options;
  }
};

TEST_P(SqliteModeTest, TransactionsCommitAtomically) {
  auto fs = MakeFs("sql-app");
  auto db = SqliteLite::Open(fs.get(), &sim_, &params_, SmallOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)
                  ->ExecTransaction({{"alice", "100"}, {"bob", "200"}})
                  .ok());
  EXPECT_EQ(*(*db)->Get("alice"), "100");
  EXPECT_EQ(*(*db)->Get("bob"), "200");
}

TEST_P(SqliteModeTest, WalWrapsCircularly) {
  auto fs = MakeFs("sql-app");
  auto db = SqliteLite::Open(fs.get(), &sim_, &params_, SmallOptions());
  ASSERT_TRUE(db.ok());
  uint64_t gen0 = (*db)->wal_generation();
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(
        (*db)->Put("row-" + std::to_string(i % 40), std::string(100, 'x')).ok());
  }
  // The 32 KiB WAL cannot hold 400 x ~130 B frames: it must have
  // checkpointed and wrapped (same file, overwrite reclaim).
  EXPECT_GT((*db)->checkpoints(), 0);
  EXPECT_GT((*db)->wal_generation(), gen0);
  EXPECT_LT((*db)->wal_write_offset(), 32u << 10);
  EXPECT_EQ(*(*db)->Get("row-1"), std::string(100, 'x'));
}

TEST_P(SqliteModeTest, RecoversCommittedRows) {
  DurabilityMode mode = GetParam();
  auto fs = MakeFs("sql-app");
  {
    auto db = SqliteLite::Open(fs.get(), &sim_, &params_, SmallOptions());
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(
          (*db)->Put("row-" + std::to_string(i), "val-" + std::to_string(i)).ok());
    }
    if (mode == DurabilityMode::kWeak) {
      fs->dfs()->BackgroundFlushAll();
    }
    fs->SimulateCrash();
  }
  sim_.RunUntilIdle();
  auto fs2 = MakeFs("sql-app");
  auto db = SqliteLite::Open(fs2.get(), &sim_, &params_, SmallOptions());
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 300; i += 23) {
    auto v = (*db)->Get("row-" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << "row " << i;
    EXPECT_EQ(*v, "val-" + std::to_string(i));
  }
}

TEST_P(SqliteModeTest, RecoveryIgnoresStaleGenerationFrames) {
  // After a checkpoint wraps the WAL, old-generation frames beyond the
  // write pointer must not be replayed.
  auto fs = MakeFs("sql-app");
  SqliteLiteOptions options = SmallOptions();
  {
    auto db = SqliteLite::Open(fs.get(), &sim_, &params_, options);
    ASSERT_TRUE(db.ok());
    // Fill most of the WAL with generation-1 frames.
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*db)->Put("old-" + std::to_string(i), "gen1").ok());
    }
    // Force a checkpoint, then write a couple of gen-2 frames.
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->Put("new-1", "gen2").ok());
    ASSERT_TRUE((*db)->Put("new-2", "gen2").ok());
    if (options.mode == DurabilityMode::kWeak) {
      fs->dfs()->BackgroundFlushAll();
    }
    fs->SimulateCrash();
  }
  sim_.RunUntilIdle();
  auto fs2 = MakeFs("sql-app");
  auto db = SqliteLite::Open(fs2.get(), &sim_, &params_, options);
  ASSERT_TRUE(db.ok());
  // Only the two gen-2 frames replay; the checkpointed rows come from db.
  EXPECT_EQ((*db)->replayed_frames(), 2u);
  EXPECT_EQ(*(*db)->Get("new-2"), "gen2");
  EXPECT_EQ(*(*db)->Get("old-5"), "gen1");
}

INSTANTIATE_TEST_SUITE_P(Modes, SqliteModeTest,
                         ::testing::Values(DurabilityMode::kWeak,
                                           DurabilityMode::kStrong,
                                           DurabilityMode::kSplitFt),
                         [](const auto& param_info) {
                           return std::string(DurabilityModeName(param_info.param));
                         });

TEST_F(AppsTest, SqliteSplitFtCircularWalSurvivesPeerFailure) {
  // End-to-end: circular WAL on NCL, a peer crash mid-run, then an app
  // crash — committed rows survive both.
  SqliteLiteOptions options;
  options.mode = DurabilityMode::kSplitFt;
  options.wal_capacity = 32 << 10;
  auto fs = MakeFs("sql-e2e");
  {
    auto db = SqliteLite::Open(fs.get(), &sim_, &params_, options);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 150; ++i) {
      ASSERT_TRUE((*db)->Put("row-" + std::to_string(i), "before").ok());
    }
    peers_[1]->Crash();  // one peer dies; writes continue
    for (int i = 0; i < 150; ++i) {
      ASSERT_TRUE((*db)->Put("row-" + std::to_string(i), "after").ok());
    }
    fs->SimulateCrash();
  }
  sim_.RunUntilIdle();
  auto fs2 = MakeFs("sql-e2e");
  auto db = SqliteLite::Open(fs2.get(), &sim_, &params_, options);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 150; i += 17) {
    auto v = (*db)->Get("row-" + std::to_string(i));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "after");
  }
}

}  // namespace
}  // namespace splitft
