// The checksummed-record codec (src/common/record.h): unit and seeded fuzz
// tests of its decoders, and byte-level pins for every app log and
// snapshot format built on it — the kvstore WAL, the redis AOF and RDB,
// the sqlite db file (plus the sqlite WAL's size), and the local_fs
// metadata block. Each pin builds one file from a fixed input and checks
// its length and CRC32C, so a refactor of the encoders cannot change a
// byte on "disk" unnoticed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/apps/kvstore/wal.h"
#include "src/apps/redis/redis.h"
#include "src/apps/sqlitelite/sqlite_lite.h"
#include "src/blockstore/block_device.h"
#include "src/blockstore/local_fs.h"
#include "src/common/crc32c.h"
#include "src/common/record.h"
#include "src/common/rng.h"
#include "src/controller/controller.h"
#include "src/dfs/dfs.h"
#include "src/ncl/peer.h"
#include "src/rdma/fabric.h"
#include "src/splitft/split_fs.h"

namespace splitft {
namespace {

// ------------------------------------------------------------- Codec --

// Three records: "first", an empty payload, then 40 bytes.
std::string ThreeRecords() {
  std::string raw;
  AppendRecord(&raw, "first");
  AppendRecord(&raw, "");
  AppendRecord(&raw, std::string(40, 'z'));
  return raw;
}

std::vector<std::string> Replay(std::string_view raw, size_t* consumed) {
  std::vector<std::string> out;
  *consumed = ForEachRecord(raw, [&](std::string_view payload) {
    out.emplace_back(payload);
    return true;
  });
  return out;
}

TEST(RecordTest, ReplaysEveryIntactRecordAndCountsItsBytes) {
  std::string raw = ThreeRecords();
  ASSERT_EQ(raw.size(), 3 * kRecordHeaderBytes + 5 + 0 + 40);
  size_t consumed = 0;
  EXPECT_EQ(Replay(raw, &consumed),
            (std::vector<std::string>{"first", "", std::string(40, 'z')}));
  EXPECT_EQ(consumed, raw.size());
}

TEST(RecordTest, ZeroLengthPayloadIsAWholeRecord) {
  std::string raw;
  AppendRecord(&raw, "");
  ASSERT_EQ(raw.size(), kRecordHeaderBytes);
  std::string_view payload = "unset";
  EXPECT_EQ(DecodeRecord(raw, &payload), RecordCheck::kOk);
  EXPECT_TRUE(payload.empty());
  size_t consumed = 0;
  EXPECT_EQ(Replay(raw, &consumed).size(), 1u);
  EXPECT_EQ(consumed, kRecordHeaderBytes);
}

TEST(RecordTest, TornTailStopsBeforeTheTornRecord) {
  std::string raw = ThreeRecords();
  size_t first_two = 2 * kRecordHeaderBytes + 5;
  // Cut inside the third record's payload, then inside its header.
  for (size_t cut : {raw.size() - 1, first_two + 3}) {
    std::string_view torn = std::string_view(raw).substr(0, cut);
    std::string_view payload;
    EXPECT_EQ(DecodeRecord(torn.substr(first_two), &payload),
              RecordCheck::kTorn);
    size_t consumed = 0;
    EXPECT_EQ(Replay(torn, &consumed),
              (std::vector<std::string>{"first", ""}));
    EXPECT_EQ(consumed, first_two);
  }
}

TEST(RecordTest, FlippedCrcBitStopsAtTheCorruptRecord) {
  std::string raw = ThreeRecords();
  size_t second = kRecordHeaderBytes + 5;
  raw[second] ^= 0x10;  // the second record's stored checksum
  std::string_view payload;
  EXPECT_EQ(DecodeRecord(std::string_view(raw).substr(second), &payload),
            RecordCheck::kCorrupt);
  size_t consumed = 0;
  EXPECT_EQ(Replay(raw, &consumed), (std::vector<std::string>{"first"}));
  EXPECT_EQ(consumed, second);
}

TEST(RecordTest, CallbackReturningFalseStopsWithoutConsumingTheRecord) {
  std::string raw = ThreeRecords();
  int calls = 0;
  size_t consumed =
      ForEachRecord(raw, [&](std::string_view) { return ++calls < 2; });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(consumed, kRecordHeaderBytes + 5);
  EXPECT_EQ(ForEachRecord("", [](std::string_view) { return true; }), 0u);
}

TEST(RecordTest, KvListRoundTripsAndRejectsTruncation) {
  std::vector<std::pair<std::string, std::string>> kvs = {
      {"a", "1"}, {"", "empty key"}, {"empty value", ""}};
  std::string raw = "prefix";
  PutKvList(&raw, kvs);
  size_t pos = 6;
  std::vector<std::pair<std::string, std::string>> got;
  auto collect = [&](std::string_view k, std::string_view v) {
    got.emplace_back(k, v);
  };
  ASSERT_TRUE(ForEachKv(raw, &pos, collect));
  EXPECT_EQ(got, kvs);
  EXPECT_EQ(pos, raw.size());

  // Every proper prefix of the list is truncated; the entries that fit
  // before the cut are still delivered.
  for (size_t cut = 6; cut < raw.size(); ++cut) {
    got.clear();
    pos = 6;
    EXPECT_FALSE(ForEachKv(std::string_view(raw).substr(0, cut), &pos,
                           collect))
        << "cut at " << cut;
    EXPECT_LT(got.size(), kvs.size());
  }
}

TEST(RecordTest, SeededFuzzStopsAtTheFirstDamagedRecord) {
  Rng rng(0x5ec0d);
  for (int iter = 0; iter < 2000; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    // A multi-record buffer and the offset at which each record ends.
    std::string raw;
    std::vector<std::string> payloads;
    std::vector<size_t> ends;
    int records = static_cast<int>(rng.UniformRange(1, 8));
    for (int r = 0; r < records; ++r) {
      std::string payload(rng.Uniform(64), '\0');
      for (char& c : payload) {
        c = static_cast<char>(rng.Uniform(256));
      }
      AppendRecord(&raw, payload);
      payloads.push_back(std::move(payload));
      ends.push_back(raw.size());
    }
    // Truncate, then maybe flip one bit before the cut.
    size_t cut = rng.Uniform(raw.size() + 1);
    std::optional<size_t> flip;
    if (cut > 0 && rng.Bernoulli(0.7)) {
      flip = rng.Uniform(cut);
      raw[*flip] ^= static_cast<char>(1u << rng.Uniform(8));
    }
    // The first record that runs past the cut or holds the flipped bit.
    size_t intact = 0;
    while (intact < ends.size() && ends[intact] <= cut &&
           !(flip && *flip < ends[intact])) {
      intact++;
    }

    // An exact-size heap copy, so the sanitizer build traps any read past
    // the cut.
    auto buf = std::make_unique<char[]>(cut);
    std::memcpy(buf.get(), raw.data(), cut);
    std::string_view view(buf.get(), cut);
    size_t seen = 0;
    size_t consumed = ForEachRecord(view, [&](std::string_view payload) {
      EXPECT_GE(payload.data(), view.data());
      EXPECT_LE(payload.data() + payload.size(), view.data() + view.size());
      EXPECT_LT(seen, payloads.size());
      if (seen < payloads.size()) {
        EXPECT_EQ(payload, payloads[seen]);
      }
      seen++;
      return true;
    });
    EXPECT_EQ(seen, intact);
    EXPECT_EQ(consumed, intact == 0 ? 0 : ends[intact - 1]);
  }
}

// ------------------------------------------------------------- Pins --

class FormatPinTest : public ::testing::Test {
 protected:
  FormatPinTest()
      : fabric_(&sim_, &params_),
        controller_(&sim_, &params_),
        cluster_(&sim_, &params_),
        dfs_(&cluster_, "app-server") {
    app_node_ = fabric_.AddNode("app-server");
    for (int i = 0; i < 4; ++i) {
      auto peer = std::make_unique<LogPeer>("p" + std::to_string(i), &fabric_,
                                            &controller_, 64ull << 20);
      EXPECT_TRUE(peer->Start().ok());
      directory_.Register(peer.get());
      peers_.push_back(std::move(peer));
    }
  }

  std::unique_ptr<SplitFs> MakeFs(const std::string& app) {
    NclConfig config;
    config.app_id = app;
    config.default_capacity = 1 << 20;
    return std::make_unique<SplitFs>(config, &dfs_, &fabric_, &controller_,
                                     &directory_, app_node_);
  }

  // The durable bytes of `path`, read back through the dfs client.
  std::string ReadDfs(const std::string& path) {
    auto file = dfs_.Open(path, {.create = false});
    EXPECT_TRUE(file.ok()) << path;
    if (!file.ok()) {
      return "";
    }
    auto raw = (*file)->Read(0, (*file)->Size());
    EXPECT_TRUE(raw.ok()) << path;
    return raw.ok() ? std::string(*raw) : "";
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

std::string KvWalBytes() {
  std::string out;
  out += WriteAheadLog::EncodeRecord({{"alpha", "1"}, {"beta", ""}});
  out += WriteAheadLog::EncodeRecord({});
  out += WriteAheadLog::EncodeRecord({{"", "empty-key"},
                                      {"gamma", std::string(300, 'g')}});
  return out;
}

TEST_F(FormatPinTest, BytesMatchPinnedDigests) {
  // Redis: strings, hashes, lists and a DEL; the small rewrite threshold
  // snapshots an RDB mid-run, so both an RDB and a live AOF exist.
  std::string rdb, aof;
  {
    auto fs = MakeFs("redis-pin");
    RedisOptions options;
    options.mode = DurabilityMode::kStrong;
    options.aof_rewrite_bytes = 1 << 10;
    auto redis = Redis::Open(fs.get(), &sim_, &params_, options);
    ASSERT_TRUE(redis.ok());
    for (int i = 0; i < 24; ++i) {
      std::string n = std::to_string(i);
      ASSERT_TRUE((*redis)->Put("key-" + n, "value-" + n).ok());
      ASSERT_TRUE((*redis)->HSet("hash-" + std::to_string(i % 3), "f" + n, n)
                      .ok());
      ASSERT_TRUE((*redis)->LPush("list", n).ok());
      if (i % 5 == 4) {
        ASSERT_TRUE((*redis)->Del("key-" + std::to_string(i - 2)).ok());
      }
    }
    ASSERT_GT((*redis)->rdb_snapshots(), 0);
    // A few commands after the last rewrite, so the live AOF is not empty.
    ASSERT_TRUE((*redis)->Put("tail", "t").ok());
    ASSERT_TRUE((*redis)->HSet("hash-0", "tail", "h").ok());
    ASSERT_TRUE((*redis)->LPush("list", "tail").ok());
    ASSERT_TRUE((*redis)->Del("key-0").ok());
    std::vector<std::string> rdbs = dfs_.List("/redis/rdb-");
    std::vector<std::string> aofs = dfs_.List("/redis/aof-");
    ASSERT_EQ(rdbs.size(), 1u);
    ASSERT_EQ(aofs.size(), 1u);
    rdb = ReadDfs(rdbs[0]);
    aof = ReadDfs(aofs[0]);
  }

  // Redis in SplitFT mode across a crash: a dataset of a few thousand
  // strings plus hashes, lists and counters snapshotted to an RDB, then an
  // AOF tail of every command kind on both RDB-resident and new keys,
  // then crash, recovery (RDB load + AOF replay) and one more rewrite.
  // The pinned file is that last RDB, so it covers the rebuilt keyspace.
  std::string recovered_rdb;
  {
    RedisOptions options;
    options.dir = "/redis-recovered";
    options.aof_rewrite_bytes = 256 << 10;
    options.aof_capacity = 512 << 10;
    auto fs = MakeFs("redis-recovered-pin");
    auto redis = Redis::Open(fs.get(), &sim_, &params_, options);
    ASSERT_TRUE(redis.ok());
    std::vector<KvWrite> batch;
    for (int i = 0; i < 3000; ++i) {
      int k = (i * 7919) % 3000;  // keys arrive out of order
      batch.push_back({"key-" + std::to_string(k),
                       std::string(8 + k % 41, static_cast<char>('a' + k % 26))});
      if (batch.size() == 64) {
        ASSERT_TRUE((*redis)->ApplyWriteBatch(batch).ok());
        batch.clear();
      }
    }
    ASSERT_TRUE((*redis)->ApplyWriteBatch(batch).ok());
    for (int i = 0; i < 300; ++i) {
      std::string n = std::to_string(i);
      ASSERT_TRUE((*redis)
                      ->HSet("hash-" + std::to_string(i % 40),
                             "f" + std::to_string(i % 7), "hv-" + n)
                      .ok());
      ASSERT_TRUE((*redis)->LPush("list-" + std::to_string(i % 25), n).ok());
    }
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          (*redis)->Put("ctr-" + std::to_string(i), std::to_string(i * 11))
              .ok());
    }
    // Re-SET one key to its own value until a rewrite snapshots it all.
    const int snapshots = (*redis)->rdb_snapshots();
    auto same = (*redis)->Get("key-0");
    ASSERT_TRUE(same.ok());
    while ((*redis)->rdb_snapshots() == snapshots) {
      ASSERT_TRUE((*redis)->Put("key-0", *same).ok());
    }
    // The tail the recovery replays: every command kind, on keys the RDB
    // holds and on new ones.
    for (int i = 0; i < 60; ++i) {
      std::string n = std::to_string(i);
      std::string resident = "key-" + std::to_string(i * 37 % 3000);
      ASSERT_TRUE((*redis)->Put(resident, "tail-" + n).ok());
      ASSERT_TRUE((*redis)->Put("new-" + n, "fresh-" + n).ok());
      ASSERT_TRUE((*redis)->HSet("hash-" + std::to_string(i % 40),
                                 "f" + std::to_string(i % 9), "th-" + n)
                      .ok());
      ASSERT_TRUE((*redis)->HSet("new-hash-" + std::to_string(i % 6), "g" + n,
                                 n)
                      .ok());
      ASSERT_TRUE((*redis)->LPush("list-" + std::to_string(i % 25), "t" + n)
                      .ok());
      ASSERT_TRUE(
          (*redis)->LPush("new-list-" + std::to_string(i % 4), n).ok());
      ASSERT_TRUE((*redis)->Incr("ctr-" + std::to_string(i % 30)).ok());
      ASSERT_TRUE((*redis)->Incr("new-ctr-" + std::to_string(i % 5)).ok());
      if (i % 3 == 0) {
        ASSERT_TRUE(
            (*redis)->Del("key-" + std::to_string(i * 53 % 3000)).ok());
        ASSERT_TRUE((*redis)->Del("new-" + std::to_string(i / 2)).ok());
      }
    }
    ASSERT_TRUE((*redis)->Del("hash-7").ok());
    ASSERT_TRUE((*redis)->Del("list-3").ok());
    ASSERT_TRUE((*redis)->Del("never-written").ok());
    ASSERT_EQ((*redis)->rdb_snapshots(), snapshots + 1);

    fs->SimulateCrash();
    redis->reset();
    sim_.RunUntilIdle();
    fs = MakeFs("redis-recovered-pin");
    redis = Redis::Open(fs.get(), &sim_, &params_, options);
    ASSERT_TRUE(redis.ok()) << redis.status().ToString();
    ASSERT_GT((*redis)->replayed_commands(), 500u);
    same = (*redis)->Get("key-1");
    ASSERT_TRUE(same.ok());
    while ((*redis)->rdb_snapshots() == 0) {
      ASSERT_TRUE((*redis)->Put("key-1", *same).ok());
    }
    std::vector<std::string> rdbs = dfs_.List("/redis-recovered/rdb-");
    ASSERT_EQ(rdbs.size(), 1u);
    recovered_rdb = ReadDfs(rdbs[0]);
  }

  // Sqlite: a checkpoint writes the table image to `db`; the WAL keeps
  // the frames committed after it.
  std::string db;
  uint64_t wal_size = 0, wal_offset = 0;
  {
    auto fs = MakeFs("sqlite-pin");
    SqliteLiteOptions options;
    options.mode = DurabilityMode::kStrong;
    auto sql = SqliteLite::Open(fs.get(), &sim_, &params_, options);
    ASSERT_TRUE(sql.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          (*sql)->Put("row-" + std::to_string(i % 13), std::to_string(i)).ok());
    }
    ASSERT_TRUE((*sql)->ExecTransaction({{"a", "1"}, {"b", "22"}}).ok());
    ASSERT_TRUE((*sql)->Checkpoint().ok());
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE((*sql)->ExecTransaction(
                             {{"t" + std::to_string(i), std::string(i, 'x')},
                              {"u", std::to_string(i)}})
                      .ok());
    }
    db = ReadDfs("/sqlite/db");
    wal_size = ReadDfs("/sqlite/db-wal").size();
    wal_offset = (*sql)->wal_write_offset();
  }

  // local_fs: metadata block 0 after two files are created and synced.
  std::string meta;
  {
    RemoteBlockDevice device(&sim_, &params_, 1024);
    auto lfs = LocalFs::Mount(&device);
    ASSERT_TRUE(lfs.ok());
    ASSERT_TRUE((*lfs)->Create("journal").ok());
    ASSERT_TRUE((*lfs)->Append("journal", std::string(9000, 'j')).ok());
    ASSERT_TRUE((*lfs)->Create("sst-000001").ok());
    ASSERT_TRUE((*lfs)->Append("sst-000001", "table").ok());
    ASSERT_TRUE((*lfs)->Fsync("journal").ok());
    ASSERT_TRUE((*lfs)->Fsync("sst-000001").ok());
    auto block = device.ReadBlock(0);
    ASSERT_TRUE(block.ok());
    meta = *block;
  }

  const std::string kv_wal = KvWalBytes();
  struct Pin {
    const char* format;
    const std::string* bytes;
    size_t length;
    uint32_t crc;
  };
  const Pin pins[] = {
      {"kvstore wal records", &kv_wal, 392, 451079309u},
      {"redis rdb", &rdb, 916, 1347015705u},
      {"redis aof", &aof, 97, 1606475218u},
      {"redis rdb after splitft recovery", &recovered_rdb, 139033,
       504692051u},
      {"sqlite db", &db, 220, 1413759517u},
      {"local_fs metadata block 0", &meta, 4096, 1928237745u},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.format);
    EXPECT_EQ(pin.bytes->size(), pin.length);
    EXPECT_EQ(Crc32c(*pin.bytes), pin.crc);
  }
  // The sqlite WAL's frame bytes are free to change; its sizes are not.
  EXPECT_EQ(wal_size, 750u);
  EXPECT_EQ(wal_offset, 317u);
}

}  // namespace
}  // namespace splitft
