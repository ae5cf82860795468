#include "src/splitft/split_fs.h"

#include <algorithm>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/sim/retry.h"

namespace splitft {
namespace {

// ---- dfs-backed file --------------------------------------------------------

class DfsBackedFile : public SplitFile {
 public:
  explicit DfsBackedFile(std::unique_ptr<DfsFile> file)
      : file_(std::move(file)) {}

  Status Append(std::string_view data) override { return file_->Append(data); }
  Status WriteAt(uint64_t offset, std::string_view data) override {
    return file_->Write(offset, data);
  }
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
  Result<SharedBytes> ReadBackground(uint64_t offset, uint64_t len) override {
    return file_->ReadBackground(offset, len);
  }
  uint64_t Size() const override { return file_->Size(); }
  const std::string& path() const override { return file_->path(); }
  bool ncl_backed() const override { return false; }

 private:
  Status AppendOwned(std::string&& data) override {
    return file_->Append(std::move(data));
  }

  std::unique_ptr<DfsFile> file_;
};

// ---- NCL-backed file --------------------------------------------------------

class NclBackedFile : public SplitFile {
 public:
  explicit NclBackedFile(std::unique_ptr<NclFile> file)
      : file_(std::move(file)) {}

  // Appends ride the NCL in-flight window: posted to every peer now,
  // majority-committed by the time Sync (or window backpressure) returns.
  // Callers that need append-implies-durable call Sync, which drains the
  // window — the app-level group-commit boundary maps onto it directly.
  Status Append(std::string_view data) override {
    return file_->AppendAsync(data);
  }
  // Positional writes stay synchronous: circular-log users (SQLite-style
  // header rewrites) overwrite live ranges and rely on durable-on-return.
  Status WriteAt(uint64_t offset, std::string_view data) override {
    return file_->Write(offset, data);
  }
  // Drains the in-flight window. Once everything posted is committed the
  // returned time-in-the-past makes deferred commits immediately complete.
  Result<SimTime> Sync(const SyncOptions&) override {
    RETURN_IF_ERROR(file_->Drain());
    return SimTime{0};
  }
  Result<SharedBytes> Read(uint64_t offset, uint64_t len) override {
    return file_->Read(offset, len);
  }
  uint64_t Size() const override { return file_->size(); }
  const std::string& path() const override { return file_->name(); }
  bool ncl_backed() const override { return true; }

  NclFile* ncl_file() { return file_.get(); }

 private:
  std::unique_ptr<NclFile> file_;
};

// ---- fine-grained split file (§6) ------------------------------------------
//
// The file's bulk image lives on the dfs; small writes are journaled in an
// NCL file as framed records. Large writes append a barrier record so that
// recovery replays small and large writes in their original order over the
// dfs image. The journal is truncated whenever the merged image is
// checkpointed to the dfs.
//
// Journal frame: [u8 kind][u64 offset][u32 len][data if kind==small]
constexpr char kFrameSmall = 1;
constexpr char kFrameLarge = 2;

class FineGrainedFile : public SplitFile {
 public:
  FineGrainedFile(std::unique_ptr<DfsFile> base, std::unique_ptr<NclFile> log,
                  uint64_t threshold, std::string path,
                  Counter* small_writes = nullptr,
                  Counter* large_writes = nullptr,
                  Tracer* tracer = nullptr)
      : base_(std::move(base)),
        log_(std::move(log)),
        threshold_(threshold),
        path_(std::move(path)),
        c_small_writes_(small_writes),
        c_large_writes_(large_writes),
        tracer_(tracer) {}

  Status Append(std::string_view data) override {
    return WriteAt(Size(), data);
  }

  Status WriteAt(uint64_t offset, std::string_view data) override {
    view_.Write(offset, data);
    if (data.size() < threshold_) {
      ObsAdd(c_small_writes_);
      std::string frame;
      frame.push_back(kFrameSmall);
      PutFixed64(&frame, offset);
      PutFixed32(&frame, static_cast<uint32_t>(data.size()));
      frame.append(data);
      Status st = log_->Append(frame);
      if (st.code() == StatusCode::kResourceExhausted) {
        // Journal full: checkpoint the merged image and retry.
        RETURN_IF_ERROR(Checkpoint());
        st = log_->Append(frame);
      }
      return st;
    }
    // Large write: straight to the dfs (synchronously — large writes are
    // cheap per byte there), plus an ordering barrier in the journal.
    ObsAdd(c_large_writes_);
    RETURN_IF_ERROR(base_->Write(offset, data));
    RETURN_IF_ERROR(base_->Sync(/*foreground=*/true));
    std::string frame;
    frame.push_back(kFrameLarge);
    PutFixed64(&frame, offset);
    PutFixed32(&frame, static_cast<uint32_t>(data.size()));
    return log_->Append(frame);
  }

  // Both write paths are synchronously durable; draining the journal is a
  // no-op unless a future change pipelines the frame appends too.
  Result<SimTime> Sync(const SyncOptions&) override {
    RETURN_IF_ERROR(log_->Drain());
    return SimTime{0};
  }

  Result<SharedBytes> Read(uint64_t offset, uint64_t len) override {
    return view_.Slice(offset, len);
  }

  uint64_t Size() const override { return view_.size(); }
  const std::string& path() const override { return path_; }
  bool ncl_backed() const override { return true; }

  // Writes the merged image to the dfs and resets the journal.
  Status Checkpoint() {
    RETURN_IF_ERROR(base_->Write(0, view_.view()));
    RETURN_IF_ERROR(base_->Sync(/*foreground=*/true));
    return log_->Truncate();
  }

  // Rebuilds the in-memory view: dfs image + journal replay, in order.
  // The bulk image read is one DfsFile::Read over the whole file, so with a
  // striped backend its per-stripe fetches fan out across the object
  // servers in parallel (the Fig 11 recovery speedup).
  Status RecoverView() {
    SharedBytes base_image;
    {
      ObsSpan read_span(tracer_, "splitfs.recover.read_base");
      auto base = base_->Read(0, base_->Size());
      if (!base.ok()) {
        return base.status();
      }
      base_image = std::move(*base);
    }
    ObsSpan replay_span(tracer_, "splitfs.recover.replay");
    // The view is mutated by the replay, so it starts as its own copy.
    view_.Assign(std::string(base_image));
    auto journal = log_->Read(0, log_->size());
    if (!journal.ok()) {
      return journal.status();
    }
    std::string_view j = *journal;
    size_t pos = 0;
    while (pos + 13 <= j.size()) {
      char kind = j[pos];
      uint64_t offset = DecodeFixed64(j.data() + pos + 1);
      uint32_t len = DecodeFixed32(j.data() + pos + 9);
      pos += 13;
      if (kind == kFrameSmall) {
        if (pos + len > j.size()) {
          break;  // torn tail record: unacknowledged, safe to drop
        }
        view_.Write(offset, j.substr(pos, len));
        pos += len;
      } else if (kind == kFrameLarge) {
        // Re-copy the (final) dfs bytes for the range, preserving order
        // relative to later small writes.
        auto chunk = base_->Read(offset, len);
        if (!chunk.ok()) {
          return chunk.status();
        }
        view_.Write(offset, *chunk);
      } else {
        break;  // corrupt frame: stop at the torn tail
      }
    }
    return OkStatus();
  }

 private:
  std::unique_ptr<DfsFile> base_;
  std::unique_ptr<NclFile> log_;
  uint64_t threshold_;
  std::string path_;
  CowBuffer view_;
  Counter* c_small_writes_;
  Counter* c_large_writes_;
  Tracer* tracer_;
};

}  // namespace

// ---- SplitFs ---------------------------------------------------------------

SplitFs::SplitFs(NclConfig ncl_config, DfsClient* dfs, Fabric* fabric,
                 Controller* controller, PeerDirectory* directory,
                 NodeId app_node, ObsContext obs)
    : ncl_(std::make_unique<NclClient>(std::move(ncl_config), fabric,
                                       controller, directory, app_node, obs)),
      dfs_(dfs),
      controller_(controller),
      obs_(obs),
      c_ncl_opens_(obs.counter("splitfs.route.ncl_opens")),
      c_dfs_opens_(obs.counter("splitfs.route.dfs_opens")),
      c_fine_grained_opens_(obs.counter("splitfs.route.fine_grained_opens")),
      c_small_writes_(obs.counter("splitfs.route.small_writes")),
      c_large_writes_(obs.counter("splitfs.route.large_writes")) {}

SplitFs::~SplitFs() {
  // Graceful shutdown releases the single-instance server lease. Before
  // the [[nodiscard]] sweep this was a silent leak: every MakeServer for
  // an app after the first failed Start with kAborted, the failure was
  // (void)-dropped, and the successor ran leaseless. Crashes do not take
  // this path — SimulateCrash expires the session and clears lease_ first.
  if (lease_ != kNoSession) {
    controller_->ExpireSession(lease_);
    lease_ = kNoSession;
  }
}

Status SplitFs::Start() {
  // The lease RPC is retried through controller outage windows (kTimedOut)
  // under the client retry policy. kAborted — another live instance holds
  // the lease — is permanent and surfaces immediately.
  Rng rng(ncl_->config().rng_seed ^ 0x1ea5eull);
  auto lease = RetryUnderPolicy(
      controller_->sim(), ncl_->config().retry, &rng,
      [&] { return controller_->AcquireServerLease(ncl_->config().app_id); },
      RpcTimedOut{});
  if (!lease.ok()) {
    return lease.status();
  }
  lease_ = *lease;
  return OkStatus();
}

Status SplitFs::HandOverLease() {
  if (lease_ == kNoSession) {
    return FailedPreconditionError("no server lease held for " +
                                   ncl_->config().app_id);
  }
  // Retried through outage windows like Start(): the transfer is a normal
  // controller RPC. A kFailedPrecondition (someone else owns the lease —
  // our session expired underneath us) is permanent.
  Rng rng(ncl_->config().rng_seed ^ 0x4a0d0ull);
  auto successor = RetryUnderPolicy(
      controller_->sim(), ncl_->config().retry, &rng,
      [&] {
        return controller_->TransferServerLease(ncl_->config().app_id, lease_);
      },
      RpcTimedOut{});
  if (!successor.ok()) {
    return successor.status();
  }
  lease_ = *successor;
  return OkStatus();
}

Result<std::unique_ptr<SplitFile>> SplitFs::Open(
    const std::string& path, const SplitOpenOptions& options) {
  if (options.fine_grained) {
    DfsOpenOptions dfs_opts;
    dfs_opts.create = options.create;
    dfs_opts.direct_io = options.direct_io;
    auto base = dfs_->Open(path, dfs_opts);
    if (!base.ok()) {
      return base.status();
    }
    std::string journal_path = path + ".ncl-journal";
    Result<std::unique_ptr<NclFile>> log =
        ncl_->Exists(journal_path)
            ? ncl_->Recover(journal_path)
            : ncl_->Create(journal_path, options.ncl_capacity);
    if (!log.ok()) {
      return log.status();
    }
    ObsAdd(c_fine_grained_opens_);
    auto file = std::make_unique<FineGrainedFile>(
        std::move(*base), std::move(*log), options.small_write_threshold,
        path, c_small_writes_, c_large_writes_, obs_.tracer);
    RETURN_IF_ERROR(file->RecoverView());
    return std::unique_ptr<SplitFile>(std::move(file));
  }

  if (options.oncl) {
    // An ncl file that already exists in the controller is being reopened
    // after a crash: run recovery. Otherwise create it fresh.
    Result<std::unique_ptr<NclFile>> file =
        ncl_->Exists(path) ? ncl_->Recover(path)
                           : ncl_->Create(path, options.ncl_capacity);
    if (!file.ok()) {
      return file.status();
    }
    ObsAdd(c_ncl_opens_);
    return std::unique_ptr<SplitFile>(
        std::make_unique<NclBackedFile>(std::move(*file)));
  }

  DfsOpenOptions dfs_opts;
  dfs_opts.create = options.create;
  dfs_opts.direct_io = options.direct_io;
  auto file = dfs_->Open(path, dfs_opts);
  if (!file.ok()) {
    return file.status();
  }
  ObsAdd(c_dfs_opens_);
  return std::unique_ptr<SplitFile>(
      std::make_unique<DfsBackedFile>(std::move(*file)));
}

Status SplitFs::Unlink(const std::string& path) {
  if (ncl_->Exists(path)) {
    ASSIGN_OR_RETURN(DeleteReport report, ncl_->DeleteWithReport(path));
    if (report.AllReleasesFailed()) {
      // The file is gone from the ap-map either way, but every region leaks
      // until the peers' epoch GC: a non-fatal warning for the caller.
      return UnavailableError("deleted " + path + " but all " +
                              std::to_string(report.peers_attempted) +
                              " peer releases failed; regions leak until GC");
    }
    return OkStatus();
  }
  return dfs_->Unlink(path);
}

bool SplitFs::Exists(const std::string& path) {
  return ncl_->Exists(path) || dfs_->Exists(path);
}

void SplitFs::SimulateCrash() {
  dfs_->SimulateCrash();
  if (lease_ != kNoSession) {
    controller_->ExpireSession(lease_);
    lease_ = kNoSession;
  }
}

}  // namespace splitft
