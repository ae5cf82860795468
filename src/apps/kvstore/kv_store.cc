#include "src/apps/kvstore/kv_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/common/logging.h"

namespace splitft {
namespace {

// L0 table count past which writes stall on the dfs backend.
constexpr int kL0StallTrigger = 12;

// Parses the trailing integer id out of "/kv/wal-000042" style paths.
bool ParseTrailingId(const std::string& path, const std::string& prefix,
                     uint64_t* id) {
  if (path.rfind(prefix, 0) != 0) {
    return false;
  }
  const std::string digits = path.substr(prefix.size());
  if (digits.empty()) {
    return false;
  }
  uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = v;
  return true;
}

}  // namespace

std::string_view DurabilityModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kWeak:
      return "weak";
    case DurabilityMode::kStrong:
      return "strong";
    case DurabilityMode::kSplitFt:
      return "splitft";
  }
  return "?";
}

KvStore::KvStore(SplitFs* fs, Simulation* sim, const SimParams* params,
                 KvStoreOptions options)
    : fs_(fs),
      sim_(sim),
      params_(params),
      options_(std::move(options)),
      block_cache_(std::make_unique<LruCache>(options_.block_cache_bytes)) {
  // Buckets for a full memtable of YCSB-sized entries (24 B key + 100 B
  // value, ~128 B), reserved once: a flush clears the map but keeps them.
  memtable_.reserve(options_.memtable_bytes / 128);
}

KvStore::~KvStore() = default;

std::string KvStore::WalPath(uint64_t id) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/wal-%06" PRIu64, id);
  return options_.dir + buf;
}

std::string KvStore::SstPath(int level, uint64_t id) const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "/sst-L%d-%06" PRIu64, level, id);
  return options_.dir + buf;
}

Result<std::unique_ptr<SplitFile>> KvStore::OpenWalFile(
    const std::string& path, bool create) {
  SplitOpenOptions opts;
  opts.create = create;
  opts.oncl = options_.mode == DurabilityMode::kSplitFt;
  opts.ncl_capacity = options_.wal_capacity;
  return fs_->Open(path, opts);
}

Result<std::unique_ptr<KvStore>> KvStore::Open(SplitFs* fs, Simulation* sim,
                                               const SimParams* params,
                                               KvStoreOptions options) {
  std::unique_ptr<KvStore> store(
      new KvStore(fs, sim, params, std::move(options)));
  RETURN_IF_ERROR(store->RecoverExistingState());
  return store;
}

Status KvStore::RecoverExistingState() {
  // Application-level replay time, distinct from the NCL-layer
  // "ncl.recover.*" phases that happen inside OpenWalFile.
  ObsSpan replay_span(fs_->obs().tracer, "app.recover.replay");
  // 1. Load sstables (L1 then L0 naming) from the dfs namespace.
  std::vector<std::pair<uint64_t, std::string>> l0_paths, l1_paths;
  for (const std::string& path : fs_->dfs()->List(options_.dir + "/sst-")) {
    uint64_t id = 0;
    if (ParseTrailingId(path, options_.dir + "/sst-L0-", &id)) {
      l0_paths.emplace_back(id, path);
      next_file_id_ = std::max(next_file_id_, id + 1);
    } else if (ParseTrailingId(path, options_.dir + "/sst-L1-", &id)) {
      l1_paths.emplace_back(id, path);
      next_file_id_ = std::max(next_file_id_, id + 1);
    }
  }
  std::sort(l0_paths.begin(), l0_paths.end());
  std::sort(l1_paths.begin(), l1_paths.end());
  auto open_table = [&](const std::string& path)
      -> Result<std::unique_ptr<SstableReader>> {
    SplitOpenOptions opts;
    opts.create = false;
    auto file = fs_->Open(path, opts);
    if (!file.ok()) {
      return file.status();
    }
    return SstableReader::Open(std::move(*file), block_cache_.get());
  };
  // L0 is kept newest-first.
  for (auto it = l0_paths.rbegin(); it != l0_paths.rend(); ++it) {
    ASSIGN_OR_RETURN(auto table, open_table(it->second));
    level0_.push_back(std::move(table));
  }
  for (const auto& [id, path] : l1_paths) {
    ASSIGN_OR_RETURN(auto table, open_table(path));
    level1_.push_back(std::move(table));
  }

  // 2. Replay WALs. In SplitFT mode live logs are in NCL; otherwise they
  // are dfs files.
  std::vector<std::pair<uint64_t, std::string>> wals;
  std::vector<std::string> wal_paths =
      options_.mode == DurabilityMode::kSplitFt ? fs_->ncl()->ListFiles()
                                                : fs_->dfs()->List(
                                                      options_.dir + "/wal-");
  for (const std::string& path : wal_paths) {
    uint64_t id = 0;
    if (ParseTrailingId(path, options_.dir + "/wal-", &id)) {
      wals.emplace_back(id, path);
      next_file_id_ = std::max(next_file_id_, id + 1);
    }
  }
  std::sort(wals.begin(), wals.end());
  for (size_t i = 0; i < wals.size(); ++i) {
    const std::string& path = wals[i].second;
    ASSIGN_OR_RETURN(auto file, OpenWalFile(path, /*create=*/false));
    auto raw = file->Read(0, file->Size());
    if (!raw.ok()) {
      return raw.status();
    }
    // Application-level parse cost of the replay (Fig 11b's "parse").
    sim_->Advance(static_cast<SimTime>(raw->size()) *
                  params_->cpu.parse_log_per_byte_ns);
    recovered_batches_ += static_cast<uint64_t>(
        WriteAheadLog::Replay(*raw, [this](std::string_view k,
                                           std::string_view v) {
          auto it = memtable_.find(k);
          if (it == memtable_.end()) {
            it = memtable_.emplace(k, v).first;
          } else {
            memtable_bytes_ -= it->second.size() + it->first.size();
            it->second.assign(v);
          }
          memtable_bytes_ += k.size() + v.size();
        }));
    if (i + 1 == wals.size()) {
      // Continue appending to the most recent log.
      wal_ = std::make_unique<WriteAheadLog>(std::move(file));
    } else {
      // Older logs should have been deleted at flush time; clean strays.
      file.reset();
      DiscardStatus(fs_->obs(), fs_->Unlink(path),
                    "KvStore stray WAL cleanup");
    }
  }
  if (wal_ != nullptr) {
    return OkStatus();
  }
  return RotateWal();
}

Status KvStore::RotateWal() {
  std::string path = WalPath(next_file_id_++);
  ASSIGN_OR_RETURN(auto file, OpenWalFile(path, /*create=*/true));
  wal_ = std::make_unique<WriteAheadLog>(std::move(file));
  return OkStatus();
}

namespace {

std::vector<KvWrite> TagValues(const std::vector<KvWrite>& batch, char tag) {
  std::vector<KvWrite> tagged;
  tagged.reserve(batch.size());
  for (const KvWrite& w : batch) {
    tagged.push_back(KvWrite{w.key, std::string(1, tag) + w.value});
  }
  return tagged;
}

}  // namespace

Status KvStore::ApplyWriteBatch(const std::vector<KvWrite>& batch) {
  auto done = ApplyBatchInternal(TagValues(batch, kValueTag),
                                 /*deferred=*/false);
  return done.ok() ? OkStatus() : done.status();
}

Result<SimTime> KvStore::ApplyWriteBatchDeferred(
    const std::vector<KvWrite>& batch) {
  return ApplyBatchInternal(TagValues(batch, kValueTag), /*deferred=*/true);
}

Status KvStore::Delete(std::string_view key) {
  auto done = ApplyBatchInternal(
      {KvWrite{std::string(key), std::string(1, kTombstoneTag)}},
      /*deferred=*/false);
  return done.ok() ? OkStatus() : done.status();
}

Result<SimTime> KvStore::ApplyBatchInternal(std::vector<KvWrite> batch,
                                            bool deferred) {
  if (batch.empty()) {
    return SimTime{0};
  }
  // Per-request server CPU cost.
  sim_->Advance(params_->cpu.kv_op * static_cast<SimTime>(batch.size()));
  // One log write for the whole batch (application-level batching, §5).
  // With `deferred`, the flush overlaps subsequent work: the commit
  // pipeline is busy until the returned time but the server keeps serving.
  bool sync_now = sync_wal() && !deferred;
  Status appended = wal_->AppendBatch(batch, sync_now);
  if (appended.code() == StatusCode::kResourceExhausted) {
    // NCL log full before the memtable tripped: flush early and retry.
    RETURN_IF_ERROR(FlushMemtable());
    appended = wal_->AppendBatch(batch, sync_now);
  }
  RETURN_IF_ERROR(appended);
  SimTime durable_at = 0;
  if (sync_wal() && deferred) {
    SyncOptions sync_options;
    sync_options.deferred = true;
    auto done = wal_->file()->Sync(sync_options);
    if (!done.ok()) {
      return done.status();
    }
    durable_at = *done;
  }
  for (KvWrite& w : batch) {
    memtable_bytes_ += w.key.size() + w.value.size();
    auto [it, inserted] = memtable_.try_emplace(std::move(w.key));
    if (!inserted) {
      memtable_bytes_ -= it->first.size() + it->second.size();
    }
    it->second = std::move(w.value);
  }
  RETURN_IF_ERROR(MaybeFlushAndCompact());
  return durable_at;
}

Status KvStore::Put(std::string_view key, std::string_view value) {
  return ApplyWriteBatch({KvWrite{std::string(key), std::string(value)}});
}

namespace {

// Decodes a tagged value: tombstone -> kNotFound, value -> the user bytes.
Result<std::string> DecodeTagged(std::string encoded) {
  if (encoded.empty()) {
    return DataLossError("empty tagged value");
  }
  if (encoded[0] == 0) {
    return NotFoundError("key deleted");
  }
  encoded.erase(0, 1);
  return encoded;
}

}  // namespace

Status KvStore::MaybeFlushAndCompact() {
  if (memtable_bytes_ >= options_.memtable_bytes) {
    // Write stall: too many L0 files while the dfs backend is still busy
    // with earlier flushes — the writer must wait (§5.2).
    if (static_cast<int>(level0_.size()) >= kL0StallTrigger) {
      sim_->AdvanceTo(fs_->dfs()->cluster()->pipe_busy_until());
    }
    RETURN_IF_ERROR(FlushMemtable());
  }
  if (static_cast<int>(level0_.size()) >= options_.l0_compaction_trigger) {
    RETURN_IF_ERROR(Compact());
  }
  return OkStatus();
}

Result<std::unique_ptr<SstableReader>> KvStore::WriteTable(
    const std::string& path, const std::vector<SstEntry>& entries) {
  SplitOpenOptions opts;
  auto file = fs_->Open(path, opts);
  if (!file.ok()) {
    return file.status();
  }
  RETURN_IF_ERROR(SstableBuilder::Write(file->get(), entries));
  SplitOpenOptions ropts;
  ropts.create = false;
  auto rfile = fs_->Open(path, ropts);
  if (!rfile.ok()) {
    return rfile.status();
  }
  return SstableReader::Open(std::move(*rfile), block_cache_.get());
}

Status KvStore::FlushMemtable() {
  if (memtable_.empty()) {
    return OkStatus();
  }
  std::vector<SstEntry> sorted;
  sorted.reserve(memtable_.size());
  // deeplint: allow(unordered-iter) sorted into key order before any use
  for (const auto& [key, value] : memtable_) {
    sorted.push_back(SstEntry{key, value});
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const SstEntry& a, const SstEntry& b) { return a.key < b.key; });
  ASSIGN_OR_RETURN(auto reader,
                   WriteTable(SstPath(0, next_file_id_++), sorted));
  level0_.insert(level0_.begin(), std::move(reader));
  memtable_.clear();
  memtable_bytes_ = 0;
  // The log's contents are now captured by the sstable: garbage collect by
  // deleting the log and starting a fresh one (Table 2).
  std::string old_wal = wal_->path();
  wal_.reset();
  RETURN_IF_ERROR(fs_->Unlink(old_wal));
  return RotateWal();
}

Status KvStore::Compact() {
  // Read every input in full, newest table first, then merge the sorted
  // runs in one pass: newer values win.
  std::vector<std::vector<SharedBytes>> runs;
  for (const auto* level : {&level0_, &level1_}) {
    for (const auto& table : *level) {
      ASSIGN_OR_RETURN(auto blocks, table->ReadAllBlocks());
      runs.push_back(std::move(blocks));
    }
  }
  std::vector<SstEntry> merged = MergeRuns(runs);
  // The merge reaches the bottom of the tree: tombstones have shadowed
  // every older value and can be dropped.
  std::erase_if(merged, [](const SstEntry& e) {
    return !e.value.empty() && e.value[0] == kTombstoneTag;
  });
  ASSIGN_OR_RETURN(auto reader,
                   WriteTable(SstPath(1, next_file_id_++), merged));

  std::vector<std::string> obsolete;
  for (const auto* level : {&level0_, &level1_}) {
    for (const auto& table : *level) {
      obsolete.push_back(table->path());
    }
  }
  level0_.clear();
  level1_.clear();
  level1_.push_back(std::move(reader));
  for (const std::string& old : obsolete) {
    DiscardStatus(fs_->obs(), fs_->Unlink(old),
                  "KvStore obsolete sstable cleanup");
  }
  return OkStatus();
}

Result<std::string> KvStore::Get(std::string_view key) {
  sim_->Advance(params_->cpu.kv_op);
  auto it = memtable_.find(key);
  if (it != memtable_.end()) {
    return DecodeTagged(it->second);
  }
  for (auto& table : level0_) {
    auto v = table->Get(key);
    if (v.ok()) {
      return DecodeTagged(std::move(*v));
    }
    if (v.status().code() != StatusCode::kNotFound) {
      return v.status();
    }
  }
  for (auto& table : level1_) {
    auto v = table->Get(key);
    if (v.ok()) {
      return DecodeTagged(std::move(*v));
    }
    if (v.status().code() != StatusCode::kNotFound) {
      return v.status();
    }
  }
  return NotFoundError("key not found");
}

}  // namespace splitft
