// Edge-case and property tests: KvStore tombstones, sstable format
// boundaries and corruption detection, dfs crash-consistency fuzzing, and
// fine-grained-file random interleavings against a reference model.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/kvstore/kv_store.h"
#include "src/apps/kvstore/sstable.h"
#include "src/common/rng.h"
#include "src/controller/controller.h"
#include "src/dfs/dfs.h"
#include "src/ncl/peer.h"
#include "src/rdma/fabric.h"
#include "src/splitft/split_fs.h"

namespace splitft {
namespace {

class EdgeTest : public ::testing::Test {
 protected:
  EdgeTest()
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

// ------------------------------------------------------- KvStore deletes --

TEST_F(EdgeTest, DeleteHidesKeyEverywhere) {
  auto fs = MakeFs("kv-del");
  KvStoreOptions options;
  options.mode = DurabilityMode::kSplitFt;
  options.memtable_bytes = 4 << 10;
  auto store = KvStore::Open(fs.get(), &sim_, &params_, options);
  ASSERT_TRUE(store.ok());

  // Delete from the memtable.
  ASSERT_TRUE((*store)->Put("fresh", "v").ok());
  ASSERT_TRUE((*store)->Delete("fresh").ok());
  EXPECT_EQ((*store)->Get("fresh").status().code(), StatusCode::kNotFound);

  // Delete a key that lives in an sstable: the tombstone must shadow it.
  ASSERT_TRUE((*store)->Put("cold", "v").ok());
  ASSERT_TRUE((*store)->FlushMemtable().ok());
  ASSERT_TRUE((*store)->Delete("cold").ok());
  EXPECT_EQ((*store)->Get("cold").status().code(), StatusCode::kNotFound);
  // Even after the tombstone itself is flushed.
  ASSERT_TRUE((*store)->FlushMemtable().ok());
  EXPECT_EQ((*store)->Get("cold").status().code(), StatusCode::kNotFound);
}

TEST_F(EdgeTest, DeleteSurvivesCrashRecovery) {
  KvStoreOptions options;
  options.mode = DurabilityMode::kSplitFt;
  {
    auto fs = MakeFs("kv-del-rec");
    auto store = KvStore::Open(fs.get(), &sim_, &params_, options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("gone", "v").ok());
    ASSERT_TRUE((*store)->Put("kept", "v").ok());
    ASSERT_TRUE((*store)->Delete("gone").ok());
    fs->SimulateCrash();
  }
  sim_.RunUntilIdle();
  auto fs = MakeFs("kv-del-rec");
  auto store = KvStore::Open(fs.get(), &sim_, &params_, options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->Get("gone").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*(*store)->Get("kept"), "v");
}

TEST_F(EdgeTest, CompactionDropsTombstones) {
  auto fs = MakeFs("kv-del-compact");
  KvStoreOptions options;
  options.mode = DurabilityMode::kSplitFt;
  options.memtable_bytes = 2 << 10;
  options.l0_compaction_trigger = 2;
  auto store = KvStore::Open(fs.get(), &sim_, &params_, options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*store)->Put("k" + std::to_string(i), "v").ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*store)->Delete("k" + std::to_string(i)).ok());
  }
  // Push everything through compaction to the bottom level.
  ASSERT_TRUE((*store)->FlushMemtable().ok());
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE((*store)->Put("filler" + std::to_string(round),
                              std::string(2048, 'f'))
                    .ok());
    ASSERT_TRUE((*store)->FlushMemtable().ok());
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ((*store)->Get("k" + std::to_string(i)).status().code(),
              StatusCode::kNotFound);
  }
}

TEST_F(EdgeTest, EmptyValueIsNotATombstone) {
  auto fs = MakeFs("kv-empty");
  KvStoreOptions options;
  options.mode = DurabilityMode::kSplitFt;
  auto store = KvStore::Open(fs.get(), &sim_, &params_, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", "").ok());
  auto v = (*store)->Get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "");
}

// ------------------------------------------------------- sstable format --

// The builder's input for `entries`, which a std::map keeps sorted.
std::vector<SstEntry> SortedEntries(
    const std::map<std::string, std::string>& entries) {
  std::vector<SstEntry> sorted;
  for (const auto& [key, value] : entries) {
    sorted.push_back(SstEntry{key, value});
  }
  return sorted;
}

class SstableFormatTest : public EdgeTest {
 protected:
  // Builds a table from `entries` and reopens it.
  Result<std::unique_ptr<SstableReader>> Build(
      const std::map<std::string, std::string>& entries) {
    auto file = dfs_.Open("/sst-test");
    if (!file.ok()) {
      return file.status();
    }
    auto split = std::make_unique<FileAdapter>(std::move(*file));
    RETURN_IF_ERROR(
        SstableBuilder::Write(split.get(), SortedEntries(entries)));
    auto rfile = dfs_.Open("/sst-test");
    if (!rfile.ok()) {
      return rfile.status();
    }
    return SstableReader::Open(
        std::make_unique<FileAdapter>(std::move(*rfile)), nullptr);
  }

  // Minimal SplitFile over a DfsFile for direct sstable tests.
  class FileAdapter : public SplitFile {
   public:
    explicit FileAdapter(std::unique_ptr<DfsFile> file)
        : file_(std::move(file)) {}
    Status Append(std::string_view data) override {
      return file_->Append(data);
    }
    Status WriteAt(uint64_t offset, std::string_view data) override {
      return file_->Write(offset, data);
    }
    using SplitFile::Sync;
    Result<SimTime> Sync(const SyncOptions& options) override {
      if (options.deferred) {
        return file_->SyncDeferred();
      }
      RETURN_IF_ERROR(file_->Sync(/*foreground=*/!options.background));
      return SimTime{0};
    }
    Result<SharedBytes> Read(uint64_t offset, uint64_t len) override {
      return file_->Read(offset, len);
    }
    uint64_t Size() const override { return file_->Size(); }
    const std::string& path() const override { return file_->path(); }
    bool ncl_backed() const override { return false; }

   private:
    std::unique_ptr<DfsFile> file_;
  };
};

TEST_F(SstableFormatTest, SingleEntryTable) {
  auto reader = Build({{"only", "entry"}});
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->smallest_key(), "only");
  EXPECT_EQ((*reader)->largest_key(), "only");
  EXPECT_EQ(*(*reader)->Get("only"), "entry");
  EXPECT_FALSE((*reader)->Get("other").ok());
}

TEST_F(SstableFormatTest, ExactBlockBoundary) {
  // Entries sized so a block closes exactly at the 4 KiB threshold.
  std::map<std::string, std::string> entries;
  std::string value(1016, 'v');  // 4+8(key)+4+1016 = 1032 per entry
  for (int i = 0; i < 40; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key-%04d", i);
    entries[key] = value;
  }
  auto reader = Build(entries);
  ASSERT_TRUE(reader.ok());
  EXPECT_GT((*reader)->block_count(), 1u);
  for (const auto& [k, v] : entries) {
    auto got = (*reader)->Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, v);
  }
}

TEST_F(SstableFormatTest, LookupHitsEveryBlockEdge) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 500; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key-%04d", i);
    entries[key] = std::string(100, 'v');
  }
  auto reader = Build(entries);
  ASSERT_TRUE(reader.ok());
  // First and last keys of the table and keys straddling block boundaries.
  EXPECT_TRUE((*reader)->Get("key-0000").ok());
  EXPECT_TRUE((*reader)->Get("key-0499").ok());
  EXPECT_FALSE((*reader)->Get("aaa").ok());       // below range
  EXPECT_FALSE((*reader)->Get("zzz").ok());       // above range
  EXPECT_FALSE((*reader)->Get("key-0250x").ok()); // between keys
}

TEST_F(SstableFormatTest, CorruptFooterDetected) {
  auto file = dfs_.Open("/sst-corrupt");
  ASSERT_TRUE(file.ok());
  FileAdapter adapter(std::move(*file));
  ASSERT_TRUE(SstableBuilder::Write(&adapter, {{"k", "v"}}).ok());
  // Flip the magic in place.
  auto size = adapter.Size();
  ASSERT_TRUE(adapter.WriteAt(size - 1, "X").ok());
  ASSERT_TRUE(adapter.Sync().ok());
  auto rfile = dfs_.Open("/sst-corrupt");
  ASSERT_TRUE(rfile.ok());
  auto reader = SstableReader::Open(
      std::make_unique<FileAdapter>(std::move(*rfile)), nullptr);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST_F(SstableFormatTest, CorruptIndexDetected) {
  auto file = dfs_.Open("/sst-corrupt2");
  ASSERT_TRUE(file.ok());
  FileAdapter adapter(std::move(*file));
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 20; ++i) {
    entries["key-" + std::to_string(i)] = "value";
  }
  ASSERT_TRUE(SstableBuilder::Write(&adapter, SortedEntries(entries)).ok());
  // Corrupt a byte inside the index area (just before the 20-byte footer).
  ASSERT_TRUE(adapter.WriteAt(adapter.Size() - 25, "X").ok());
  ASSERT_TRUE(adapter.Sync().ok());
  auto rfile = dfs_.Open("/sst-corrupt2");
  ASSERT_TRUE(rfile.ok());
  auto reader = SstableReader::Open(
      std::make_unique<FileAdapter>(std::move(*rfile)), nullptr);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST_F(SstableFormatTest, TruncatedFileDetected) {
  auto file = dfs_.Open("/sst-tiny");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("tooshort").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  auto rfile = dfs_.Open("/sst-tiny");
  ASSERT_TRUE(rfile.ok());
  auto reader = SstableReader::Open(
      std::make_unique<SstableFormatTest::FileAdapter>(std::move(*rfile)),
      nullptr);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

// Each DfsFile::Write is charged the buffered-write base and counted, so the
// builder's call count is part of every flush's and compaction's virtual
// time: a table is three appends (data, index, footer) and one background
// sync, however its bytes are handed to the dfs.
TEST_F(SstableFormatTest, WriteIsThreeAppendsAndOneBackgroundSync) {
  auto fs = MakeFs("sst-calls");
  auto file = fs->Open("/sst-calls", SplitOpenOptions{});
  ASSERT_TRUE(file.ok());
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 300; ++i) {
    entries["key-" + std::to_string(1000 + i)] = std::string(100 + i, 'v');
  }
  const MetricsRegistry& metrics = *cluster_.obs().metrics;
  const uint64_t writes = metrics.CounterValue("dfs.client.writes");
  const uint64_t fsyncs = metrics.CounterValue("dfs.client.fsyncs");
  const uint64_t background =
      metrics.CounterValue("dfs.client.background_syncs");
  ASSERT_TRUE(SstableBuilder::Write(file->get(), SortedEntries(entries)).ok());
  EXPECT_EQ(metrics.CounterValue("dfs.client.writes"), writes + 3);
  EXPECT_EQ(metrics.CounterValue("dfs.client.fsyncs"), fsyncs);
  EXPECT_EQ(metrics.CounterValue("dfs.client.background_syncs"),
            background + 1);

  auto reader = SstableReader::Open(std::move(*file), nullptr);
  ASSERT_TRUE(reader.ok());
  EXPECT_GT((*reader)->block_count(), 1u);
  for (const auto& [key, value] : entries) {
    auto got = (*reader)->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
}

// ------------------------------------------ compaction vs a reference --

// rocksdb-mini's internal value encoding (kv_store.h): a type byte, then
// the user bytes; a tombstone is the type byte alone.
std::string Tagged(std::string_view value) {
  return "\x01" + std::string(value);
}
const std::string kTombstone(1, '\0');

class CompactionDiffTest : public SstableFormatTest {
 protected:
  std::string FileBytes(const std::string& path) {
    auto file = dfs_.Open(path, {.create = false});
    EXPECT_TRUE(file.ok()) << path;
    if (!file.ok()) {
      return "";
    }
    auto bytes = (*file)->Read(0, (*file)->Size());
    EXPECT_TRUE(bytes.ok()) << path;
    return bytes.ok() ? std::string(*bytes) : "";
  }

  // The bytes of the one sstable under `prefix`.
  std::string OnlyTable(const std::string& prefix) {
    std::vector<std::string> paths = dfs_.List(prefix);
    EXPECT_EQ(paths.size(), 1u) << prefix;
    return paths.empty() ? "" : FileBytes(paths.front());
  }

  // What the builder writes for `entries`: the reference's bytes.
  std::string ReferenceTable(const std::map<std::string, std::string>& entries,
                             const std::string& path) {
    auto file = dfs_.Open(path);
    EXPECT_TRUE(file.ok());
    if (!file.ok()) {
      return "";
    }
    FileAdapter adapter(std::move(*file));
    EXPECT_TRUE(SstableBuilder::Write(&adapter, SortedEntries(entries)).ok());
    return FileBytes(path);
  }
};

TEST_F(CompactionDiffTest, CompactedL1EqualsReferenceMerge) {
  auto fs = MakeFs("kv-diff");
  KvStoreOptions options;
  options.mode = DurabilityMode::kSplitFt;
  options.memtable_bytes = 1 << 20;  // flushes only when asked
  options.l0_compaction_trigger = 4;
  auto store = KvStore::Open(fs.get(), &sim_, &params_, options);
  ASSERT_TRUE(store.ok());
  KvStore* kv = store->get();

  // Every flushed write in order, newest last: the reference merge.
  std::map<std::string, std::string> reference;
  std::map<std::string, std::string> memtable;
  auto put = [&](int i, const std::string& value) {
    char key[16];
    std::snprintf(key, sizeof(key), "key-%04d", i);
    ASSERT_TRUE(kv->Put(key, value).ok());
    memtable[key] = Tagged(value);
  };
  auto del = [&](int i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key-%04d", i);
    ASSERT_TRUE(kv->Delete(key).ok());
    memtable[key] = kTombstone;
  };
  auto flush = [&] {
    ASSERT_TRUE(kv->FlushMemtable().ok());
    for (auto& [key, value] : memtable) {
      reference[key] = value;
    }
    memtable.clear();
  };
  // Four overlapping L0 tables per compaction; the fifth write after them
  // (it stays in the memtable) triggers the compaction.
  auto round = [&](int r) {
    for (int i = r * 40; i < r * 40 + 120; ++i) {
      put(i, "r" + std::to_string(r) + "-" + std::string(40 + i % 50, 'v'));
    }
    for (int i = r * 40 + 10; i < r * 40 + 200; i += 17) {
      del(i);  // some deleted keys were never written
    }
    put(r * 40 + 3, "");            // empty value, not a tombstone
    put(r * 40 + 10, "resurrect");  // written again after a delete
    flush();
  };
  for (int r = 0; r < 4; ++r) {
    round(r);
  }
  ASSERT_EQ(kv->l0_tables(), 4u);
  put(9999, "trigger");
  ASSERT_EQ(kv->l0_tables(), 0u);
  ASSERT_EQ(kv->l1_tables(), 1u);
  auto live = [](std::map<std::string, std::string> entries) {
    std::erase_if(entries,
                  [](const auto& e) { return e.second == kTombstone; });
    return entries;
  };
  EXPECT_EQ(OnlyTable("/kv/sst-L1-"),
            ReferenceTable(live(reference), "/ref-first"));

  // Four more L0 tables over the L1 (deletes now reach keys in it), then
  // a compaction of all five.
  for (int r = 2; r < 6; ++r) {
    round(r);
  }
  ASSERT_EQ(kv->l0_tables(), 4u);
  put(9998, "trigger");
  ASSERT_EQ(kv->l0_tables(), 0u);
  EXPECT_EQ(OnlyTable("/kv/sst-L1-"),
            ReferenceTable(live(reference), "/ref-second"));
  EXPECT_EQ(*kv->Get("key-0083"), "");
  EXPECT_EQ(*kv->Get("key-0090"), "resurrect");
}

TEST_F(CompactionDiffTest, InsertOrderDoesNotChangeFlushedBytes) {
  std::vector<int> ids;
  for (int i = 0; i < 600; ++i) {
    ids.push_back(i);
  }
  std::vector<int> shuffled = ids;
  Rng rng(11);
  for (size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.Uniform(i + 1)]);
  }
  auto flushed = [&](const std::string& name, const std::vector<int>& order) {
    auto fs = MakeFs(name);
    KvStoreOptions options;
    options.mode = DurabilityMode::kSplitFt;
    options.dir = "/" + name;
    options.memtable_bytes = 1 << 20;
    auto store = KvStore::Open(fs.get(), &sim_, &params_, options);
    EXPECT_TRUE(store.ok());
    for (int id : order) {
      std::string key = "user" + std::to_string(id * 7919 % 1000);
      // Every key is overwritten once, and every 9th one is deleted.
      EXPECT_TRUE((*store)->Put(key, "stale").ok());
      std::string value(static_cast<size_t>(id % 130),
                        static_cast<char>('a' + id % 26));
      EXPECT_TRUE((*store)->Put(key, value).ok());
      if (id % 9 == 0) {
        EXPECT_TRUE((*store)->Delete(key).ok());
      }
    }
    EXPECT_TRUE((*store)->FlushMemtable().ok());
    return OnlyTable("/" + name + "/sst-L0-");
  };
  std::string sorted_bytes = flushed("kv-sorted", ids);
  EXPECT_GT(sorted_bytes.size(), 8 * kSstableBlockBytes);
  EXPECT_EQ(flushed("kv-shuffled", shuffled), sorted_bytes);
}

// --------------------------------------------- dfs crash-consistency fuzz --

TEST_F(EdgeTest, DfsCrashConsistencyFuzz) {
  // Random writes/syncs/crashes: after every crash, the durable content
  // must equal the reference at the last successful sync.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    DfsClient client(&cluster_, "fuzz-" + std::to_string(seed));
    std::string path = "/fuzz-" + std::to_string(seed);
    auto file = client.Open(path);
    ASSERT_TRUE(file.ok());
    std::string applied;  // all writes so far
    std::string durable;  // state at the last sync

    for (int i = 0; i < 120; ++i) {
      int action = static_cast<int>(rng.Uniform(10));
      if (action < 6) {
        size_t len = 1 + rng.Uniform(300);
        std::string data(len, static_cast<char>('a' + rng.Uniform(26)));
        if (rng.Bernoulli(0.3) && !applied.empty()) {
          uint64_t offset = rng.Uniform(applied.size());
          ASSERT_TRUE((*file)->Write(offset, data).ok());
          if (applied.size() < offset + data.size()) {
            applied.resize(offset + data.size(), '\0');
          }
          applied.replace(offset, data.size(), data);
        } else {
          ASSERT_TRUE((*file)->Append(data).ok());
          applied += data;
        }
      } else if (action < 8) {
        ASSERT_TRUE((*file)->Sync(rng.Bernoulli(0.5)).ok());
        durable = applied;
      } else {
        client.SimulateCrash();
        auto reopened = client.Open(path);
        ASSERT_TRUE(reopened.ok());
        auto content = (*reopened)->Read(0, (*reopened)->Size());
        ASSERT_TRUE(content.ok());
        ASSERT_EQ(*content, durable) << "crash consistency violated";
        applied = durable;
        file = std::move(reopened);
      }
    }
  }
}

// --------------------------------------- fine-grained file interleavings --

TEST_F(EdgeTest, FineGrainedRandomInterleavingFuzz) {
  for (uint64_t seed = 11; seed <= 16; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    std::string app = "fg-fuzz-" + std::to_string(seed);
    std::string reference;
    {
      auto fs = MakeFs(app);
      SplitOpenOptions opts;
      opts.fine_grained = true;
      opts.small_write_threshold = 512;
      opts.ncl_capacity = 256 << 10;
      auto file = fs->Open("/blob", opts);
      ASSERT_TRUE(file.ok());
      for (int i = 0; i < 40; ++i) {
        bool large = rng.Bernoulli(0.3);
        size_t len = large ? 512 + rng.Uniform(4096) : 1 + rng.Uniform(400);
        std::string data(len, static_cast<char>('a' + rng.Uniform(26)));
        uint64_t offset = rng.Uniform(16 << 10);
        ASSERT_TRUE((*file)->WriteAt(offset, data).ok());
        if (reference.size() < offset + len) {
          reference.resize(offset + len, '\0');
        }
        reference.replace(offset, len, data);
      }
      fs->SimulateCrash();
    }
    sim_.RunUntilIdle();
    auto fs = MakeFs(app);
    SplitOpenOptions opts;
    opts.fine_grained = true;
    opts.small_write_threshold = 512;
    opts.ncl_capacity = 256 << 10;
    auto file = fs->Open("/blob", opts);
    ASSERT_TRUE(file.ok());
    auto content = (*file)->Read(0, (*file)->Size());
    ASSERT_TRUE(content.ok());
    ASSERT_EQ(*content, reference);
    // Cleanup for the shared dfs namespace.
    ASSERT_TRUE(fs->Unlink("/blob").ok());
    // The journal only exists for fine-grained runs of this loop.
    DiscardStatus(fs->obs(), fs->Unlink("/blob.ncl-journal"),
                  "edge-test cleanup");
  }
}

}  // namespace
}  // namespace splitft
