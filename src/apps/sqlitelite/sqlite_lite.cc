#include "src/apps/sqlitelite/sqlite_lite.h"

#include "src/common/bytes.h"
#include "src/common/crc32c.h"
#include "src/common/logging.h"
#include "src/common/record.h"

namespace splitft {

SqliteLite::SqliteLite(SplitFs* fs, Simulation* sim, const SimParams* params,
                       SqliteLiteOptions options)
    : fs_(fs),
      sim_(sim),
      params_(params),
      options_(std::move(options)),
      page_cache_(std::make_unique<LruCache>(options_.page_cache_bytes)) {}

SqliteLite::~SqliteLite() = default;

Result<std::unique_ptr<SqliteLite>> SqliteLite::Open(
    SplitFs* fs, Simulation* sim, const SimParams* params,
    SqliteLiteOptions options) {
  std::unique_ptr<SqliteLite> db(
      new SqliteLite(fs, sim, params, std::move(options)));
  RETURN_IF_ERROR(db->Recover());
  return db;
}

std::string SqliteLite::SerializeTable() const {
  std::string out;
  PutKvList(&out, table_);
  return out;
}

Status SqliteLite::LoadTable(std::string_view raw) {
  if (raw.empty()) {
    return OkStatus();
  }
  size_t pos = 0;
  if (!ForEachKv(raw, &pos, [&](std::string_view k, std::string_view v) {
        table_[std::string(k)] = std::string(v);
      })) {
    return DataLossError("db file truncated");
  }
  return OkStatus();
}

Status SqliteLite::WriteWalHeader() {
  std::string header;
  PutFixed32(&header, kWalMagic);
  PutFixed64(&header, generation_);
  PutFixed32(&header, 0);
  RETURN_IF_ERROR(wal_->WriteAt(0, header));
  if (options_.mode == DurabilityMode::kStrong) {
    return wal_->Sync();
  }
  return OkStatus();
}

Status SqliteLite::Recover() {
  ObsSpan replay_span(fs_->obs().tracer, "app.recover.replay");
  // The database file always lives on the dfs; the WAL is routed by mode.
  SplitOpenOptions db_opts;
  auto db_file = fs_->Open(options_.dir + "/db", db_opts);
  if (!db_file.ok()) {
    return db_file.status();
  }
  db_ = std::move(*db_file);
  auto raw = db_->Read(0, db_->Size());
  if (!raw.ok()) {
    return raw.status();
  }
  sim_->Advance(static_cast<SimTime>(raw->size()) *
                params_->cpu.parse_log_per_byte_ns);
  RETURN_IF_ERROR(LoadTable(*raw));

  SplitOpenOptions wal_opts;
  wal_opts.oncl = options_.mode == DurabilityMode::kSplitFt;
  wal_opts.ncl_capacity = options_.wal_capacity;
  auto wal_file = fs_->Open(options_.dir + "/db-wal", wal_opts);
  if (!wal_file.ok()) {
    return wal_file.status();
  }
  wal_ = std::move(*wal_file);

  if (wal_->Size() >= kWalHeaderBytes) {
    auto header_raw = wal_->Read(0, kWalHeaderBytes);
    if (!header_raw.ok()) {
      return header_raw.status();
    }
    if (header_raw->size() == kWalHeaderBytes &&
        DecodeFixed32(header_raw->data()) == kWalMagic) {
      generation_ = DecodeFixed64(header_raw->data() + 4);
      // Replay current-generation frames.
      auto wal_raw = wal_->Read(0, wal_->Size());
      if (!wal_raw.ok()) {
        return wal_raw.status();
      }
      sim_->Advance(static_cast<SimTime>(wal_raw->size()) *
                    params_->cpu.parse_log_per_byte_ns);
      // A stale (pre-checkpoint), torn or corrupt frame ends the log.
      auto apply_row = [&](std::string_view k, std::string_view v) {
        table_[std::string(k)] = std::string(v);
      };
      size_t consumed = ForEachRecord(
          std::string_view(*wal_raw).substr(kWalHeaderBytes),
          [&](std::string_view payload) {
            size_t pos = 8;
            if (payload.size() < pos ||
                DecodeFixed64(payload.data()) != generation_ ||
                !ForEachKv(payload, &pos, apply_row)) {
              return false;
            }
            replayed_frames_++;
            return true;
          });
      write_ptr_ = kWalHeaderBytes + consumed;
      return OkStatus();
    }
  }
  // Fresh WAL.
  generation_ = 1;
  write_ptr_ = kWalHeaderBytes;
  return WriteWalHeader();
}

Status SqliteLite::CommitFrame(const std::vector<KvWrite>& writes) {
  std::string payload;
  PutFixed64(&payload, generation_);
  PutKvList(&payload, writes);
  std::string frame;
  AppendRecord(&frame, payload);

  if (write_ptr_ + frame.size() > options_.wal_capacity) {
    // WAL full: checkpoint, then wrap and overwrite from the start
    // (circular reuse — the overwrite-reclaim policy of Table 2).
    RETURN_IF_ERROR(Checkpoint());
    // The generation changed; rebuild the frame.
    return CommitFrame(writes);
  }
  RETURN_IF_ERROR(wal_->WriteAt(write_ptr_, frame));
  write_ptr_ += frame.size();
  if (options_.mode == DurabilityMode::kStrong) {
    return wal_->Sync();
  }
  return OkStatus();
}

Status SqliteLite::Checkpoint() {
  checkpoints_++;
  // SQLite checkpoints when the WAL fills block the writer: foreground.
  RETURN_IF_ERROR(db_->WriteAt(0, SerializeTable()));
  RETURN_IF_ERROR(db_->Sync());
  generation_++;
  write_ptr_ = kWalHeaderBytes;
  return WriteWalHeader();
}

Status SqliteLite::ExecTransaction(const std::vector<KvWrite>& writes) {
  sim_->Advance(params_->cpu.sqlite_txn);
  RETURN_IF_ERROR(CommitFrame(writes));
  for (const KvWrite& w : writes) {
    table_[w.key] = w.value;
    page_cache_->Put(w.key, std::make_shared<const std::string>(w.value));
  }
  return OkStatus();
}

Status SqliteLite::Put(std::string_view key, std::string_view value) {
  return ExecTransaction({KvWrite{std::string(key), std::string(value)}});
}

Result<std::string> SqliteLite::Get(std::string_view key) {
  sim_->Advance(params_->cpu.sqlite_txn);
  auto it = table_.find(std::string(key));
  if (it == table_.end()) {
    return NotFoundError("no such row");
  }
  // Page-cache model: a miss reads a 4 KiB page of the db file.
  if (page_cache_->Get(key) == nullptr) {
    uint64_t db_size = db_->Size();
    if (db_size > 4096) {
      uint64_t page = Crc32c(std::string_view(key)) %
                      ((db_size - 1) / 4096 + 1);
      // The read only charges page-cache-miss latency; its bytes are
      // unused and a failure just means no cache fill.
      DiscardStatus(fs_->obs(), db_->Read(page * 4096, 4096),
                    "SqliteLite page-cache fill");
    }
    page_cache_->Put(key, std::make_shared<const std::string>(it->second));
  }
  return it->second;
}

}  // namespace splitft
