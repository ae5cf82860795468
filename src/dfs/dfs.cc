#include "src/dfs/dfs.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"

namespace splitft {

// --------------------------------------------------------------- Cluster --

DfsCluster::DfsCluster(Simulation* sim, const SimParams* params,
                       ObsContext obs)
    : sim_(sim),
      params_(params),
      num_servers_(std::max(1, params->dfs.num_servers)),
      stripe_size_(std::max<uint64_t>(1, params->dfs.stripe_size)),
      obs_(obs) {
  if (obs_.metrics == nullptr) {
    // Counters are the only bookkeeping (bytes_written() etc. read them),
    // so a cluster built without observability owns a private registry.
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    obs_.metrics = owned_metrics_.get();
  }
  c_bytes_written_ = obs_.counter("dfs.cluster.bytes_written");
  c_sync_ops_ = obs_.counter("dfs.cluster.sync_ops");
  c_writes_ = obs_.counter("dfs.client.writes");
  c_write_bytes_ = obs_.counter("dfs.client.write_bytes");
  c_fsyncs_ = obs_.counter("dfs.client.fsyncs");
  c_background_syncs_ = obs_.counter("dfs.client.background_syncs");
  c_reads_ = obs_.counter("dfs.client.reads");
  c_readahead_hits_ = obs_.counter("dfs.client.readahead_hits");
  c_readahead_misses_ = obs_.counter("dfs.client.readahead_misses");
  c_direct_reads_ = obs_.counter("dfs.client.direct_reads");
  c_background_flush_bytes_ =
      obs_.counter("dfs.client.background_flush_bytes");
  c_rerouted_bytes_ = obs_.counter("dfs.cluster.rerouted_bytes");
  c_replayed_bytes_ = obs_.counter("dfs.cluster.replayed_bytes");
  c_server_restarts_ = obs_.counter("dfs.cluster.server_restarts");
  h_fsync_ns_ = obs_.histogram("dfs.client.fsync_ns");
  h_fsync_wait_ns_ = obs_.histogram("dfs.client.fsync_wait_ns");
  h_fsync_xfer_ns_ = obs_.histogram("dfs.client.fsync_xfer_ns");
  pipe_busy_.assign(num_servers_, 0);
  replay_backlog_.assign(num_servers_, 0);
  const DfsParams& dfs = params_->dfs;
  if (num_servers_ == 1) {
    // A one-leg fan-out: the calibrated single-pipe bases already fold in
    // the client's share, so max(now, busy) + base + bytes/bw is the seed
    // arithmetic (DESIGN.md §10).
    write_cost_ = {0, dfs.sync_base_latency, dfs.write_bytes_per_ns};
    read_cost_ = {0, dfs.remote_read_base, dfs.read_bytes_per_ns};
  } else {
    write_cost_ = {dfs.stripe_client_base, dfs.stripe_server_base,
                   dfs.write_bytes_per_ns};
    read_cost_ = {dfs.stripe_client_read_base, dfs.stripe_server_read_base,
                  dfs.read_bytes_per_ns};
  }
  for (int s = 0; s < num_servers_; ++s) {
    std::string prefix = "dfs.server." + std::to_string(s);
    c_server_bytes_written_.push_back(obs_.counter(prefix + ".bytes_written"));
    c_server_bytes_read_.push_back(obs_.counter(prefix + ".bytes_read"));
    c_server_ops_.push_back(obs_.counter(prefix + ".ops"));
    server_write_span_.push_back(prefix + ".write");
    server_read_span_.push_back(prefix + ".read");
  }
}

SimTime DfsCluster::pipe_busy_until() const {
  SimTime busy = 0;
  for (SimTime t : pipe_busy_) {
    busy = std::max(busy, t);
  }
  return busy;
}

void DfsCluster::AddStripeShares(uint64_t offset, uint64_t len,
                                 std::vector<uint64_t>* shares) const {
  while (len > 0) {
    uint64_t stripe = offset / stripe_size_;
    uint64_t stripe_end = (stripe + 1) * stripe_size_;
    uint64_t chunk = std::min<uint64_t>(len, stripe_end - offset);
    (*shares)[stripe % static_cast<uint64_t>(num_servers_)] += chunk;
    offset += chunk;
    len -= chunk;
  }
}

Status DfsCluster::TakeServerOffline(int server) {
  if (num_servers_ == 1) {
    return FailedPreconditionError(
        "single-pipe dfs cannot take its only server offline");
  }
  if (server < 0 || server >= num_servers_) {
    return InvalidArgumentError("no such dfs server: " +
                                std::to_string(server));
  }
  if (offline_server_ == server) {
    return FailedPreconditionError("dfs server " + std::to_string(server) +
                                   " is already offline");
  }
  if (offline_server_ >= 0) {
    return FailedPreconditionError(
        "dfs server " + std::to_string(offline_server_) +
        " is still offline; restarts roll one server at a time");
  }
  offline_server_ = server;
  return OkStatus();
}

Status DfsCluster::BringServerOnline(int server) {
  if (server < 0 || server >= num_servers_) {
    return InvalidArgumentError("no such dfs server: " +
                                std::to_string(server));
  }
  if (offline_server_ != server) {
    return FailedPreconditionError("dfs server " + std::to_string(server) +
                                   " is not offline");
  }
  offline_server_ = -1;
  ObsAdd(c_server_restarts_);
  uint64_t backlog = replay_backlog_[server];
  replay_backlog_[server] = 0;
  if (backlog == 0) {
    return OkStatus();
  }
  // Replay the missed writes as one background leg on the returned
  // server's own pipe, with no client dispatch: it catches up without
  // stalling foreground traffic on the other servers.
  std::vector<uint64_t> shares(num_servers_, 0);
  shares[server] = backlog;
  FanOut(shares, {0, write_cost_.server_base, write_cost_.bytes_per_ns},
         /*foreground=*/false, /*is_write=*/true);
  ObsAdd(c_replayed_bytes_, backlog);
  return OkStatus();
}

SimTime DfsCluster::FanOut(const std::vector<uint64_t>& shares,
                           const TransferCost& cost, bool foreground,
                           bool is_write, SimTime* ideal_ns) {
  // Route around an offline server: its stripe shares go to the next
  // online server's pipe; missed write bytes accrue as replay backlog.
  const std::vector<uint64_t>* routed = &shares;
  std::vector<uint64_t> rerouted;
  if (offline_server_ >= 0 && shares[offline_server_] > 0) {
    rerouted = shares;
    uint64_t moved = rerouted[offline_server_];
    int fallback = (offline_server_ + 1) % num_servers_;
    rerouted[fallback] += moved;
    rerouted[offline_server_] = 0;
    ObsAdd(c_rerouted_bytes_, moved);
    if (is_write) {
      replay_backlog_[offline_server_] += moved;
    }
    routed = &rerouted;
  }
  SimTime now = sim_->Now();
  SimTime dispatch = now + cost.client_base;
  SimTime completion = dispatch;
  SimTime longest_leg = 0;
  for (int s = 0; s < num_servers_; ++s) {
    if ((*routed)[s] == 0) {
      continue;
    }
    SimTime leg = cost.server_base +
                  static_cast<SimTime>(static_cast<double>((*routed)[s]) /
                                       cost.bytes_per_ns);
    longest_leg = std::max(longest_leg, leg);
    SimTime start = std::max(dispatch, pipe_busy_[s]);
    SimTime done = start + leg;
    pipe_busy_[s] = done;
    completion = std::max(completion, done);
    ObsAdd(is_write ? c_server_bytes_written_[s] : c_server_bytes_read_[s],
           (*routed)[s]);
    ObsAdd(c_server_ops_[s]);
    if (obs_.tracer != nullptr && obs_.tracer->enabled()) {
      obs_.tracer->AddAsyncSpan(
          is_write ? server_write_span_[s] : server_read_span_[s], start,
          done);
    }
  }
  if (ideal_ns != nullptr) {
    *ideal_ns = cost.client_base + longest_leg;
  }
  if (foreground) {
    sim_->AdvanceTo(completion);
  }
  return completion;
}

// ---------------------------------------------------------------- Client --

DfsClient::DfsClient(DfsCluster* cluster, std::string name)
    : cluster_(cluster), name_(std::move(name)) {}

DfsClient::FileState& DfsClient::GetState(const std::string& path) {
  return states_[path];
}

Result<std::unique_ptr<DfsFile>> DfsClient::Open(
    const std::string& path, const DfsOpenOptions& options) {
  bool exists = cluster_->files_.count(path) > 0;
  if (!exists && !options.create) {
    return NotFoundError("dfs file not found: " + path);
  }
  if (!exists) {
    cluster_->files_[path] = DfsCluster::DurableFile{};
  }
  FileState& st = GetState(path);
  st.deleted = false;
  st.open_handles++;
  crashed_ = false;
  return std::unique_ptr<DfsFile>(
      new DfsFile(this, path, options.direct_io, epoch_));
}

bool DfsClient::Exists(const std::string& path) const {
  return cluster_->files_.count(path) > 0;
}

Status DfsClient::Unlink(const std::string& path) {
  if (cluster_->files_.erase(path) == 0) {
    return NotFoundError("dfs unlink: " + path);
  }
  auto it = states_.find(path);
  if (it != states_.end()) {
    it->second.dirty.clear();
    it->second.dirty_bytes = 0;
    it->second.cached_windows.clear();
    it->second.deleted = true;
  }
  if (cluster_->trace_ != nullptr) {
    IoTraceEvent ev;
    ev.path = path;
    ev.is_delete = true;
    cluster_->trace_->Record(std::move(ev));
  }
  return OkStatus();
}

Status DfsClient::Rename(const std::string& from, const std::string& to) {
  auto it = cluster_->files_.find(from);
  if (it == cluster_->files_.end()) {
    return NotFoundError("dfs rename source: " + from);
  }
  cluster_->files_[to] = std::move(it->second);
  cluster_->files_.erase(it);
  states_.erase(to);
  auto st = states_.find(from);
  if (st != states_.end()) {
    states_[to] = std::move(st->second);
    states_.erase(st);
  }
  return OkStatus();
}

std::vector<std::string> DfsClient::List(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, file] : cluster_->files_) {
    if (path.rfind(prefix, 0) == 0) {
      out.push_back(path);
    }
  }
  return out;
}

void DfsClient::SimulateCrash() {
  // Page cache and dirty buffers are in the (crashed) app server's memory.
  states_.clear();
  crashed_ = true;
  flusher_running_ = false;
  epoch_++;
}

uint64_t DfsClient::BackgroundFlushAll() {
  uint64_t flushed = 0;
  for (auto& [path, st] : states_) {
    if (st.dirty.empty() || st.deleted) {
      continue;
    }
    auto fit = cluster_->files_.find(path);
    if (fit == cluster_->files_.end()) {
      st.dirty.clear();
      st.dirty_bytes = 0;
      continue;
    }
    uint64_t bytes = st.dirty_bytes;
    FlushDirty(&st, &fit->second.content, /*foreground=*/false);
    ObsAdd(cluster_->c_background_flush_bytes_, bytes);
    flushed += bytes;
  }
  return flushed;
}

SimTime DfsClient::FlushDirty(FileState* st, CowBuffer* content,
                              bool foreground, SimTime* ideal,
                              bool* overwrote) {
  // Split the dirty extents by stripe while applying them; the fan-out
  // charges each touched server's pipe for exactly its share.
  std::vector<uint64_t> shares(cluster_->num_servers_, 0);
  for (auto& [offset, data] : st->dirty) {
    if (overwrote != nullptr && offset < content->size()) {
      *overwrote = true;
    }
    cluster_->AddStripeShares(offset, data.size(), &shares);
    // A file's first bytes (an sstable, a snapshot) keep the buffer their
    // writer handed over; one grown by appends copies out of its slack.
    if (offset == 0 && content->size() == 0 &&
        data.capacity() - data.size() <= data.size() / 8) {
      content->Assign(std::move(data));
    } else {
      content->Write(offset, data);
    }
  }
  ObsAdd(cluster_->c_bytes_written_, st->dirty_bytes);
  st->dirty.clear();
  st->dirty_bytes = 0;
  return cluster_->FanOut(shares, cluster_->write_cost_, foreground,
                          /*is_write=*/true, ideal);
}

void DfsClient::StartPeriodicFlusher() {
  if (flusher_running_) {
    return;
  }
  flusher_running_ = true;
  SimTime interval = cluster_->params_->dfs.flush_interval;
  cluster_->sim_->Schedule(interval, sim::assert_inline([this, interval] {
    if (!flusher_running_) {
      return;
    }
    BackgroundFlushAll();
    flusher_running_ = false;
    StartPeriodicFlusher();
  }));
}

// ------------------------------------------------------------------ File --

DfsFile::DfsFile(DfsClient* client, std::string path, bool direct_io,
                 uint64_t epoch)
    : client_(client),
      path_(std::move(path)),
      direct_io_(direct_io),
      epoch_(epoch) {}

Status DfsFile::CheckUsable() const {
  if (epoch_ != client_->epoch_) {
    return FailedPreconditionError("file handle from before a client crash");
  }
  auto it = client_->states_.find(path_);
  if (it != client_->states_.end() && it->second.deleted) {
    return FailedPreconditionError("file was unlinked: " + path_);
  }
  if (client_->cluster_->files_.count(path_) == 0) {
    return NotFoundError("file no longer exists: " + path_);
  }
  return OkStatus();
}

uint64_t DfsFile::Size() const {
  auto fit = client_->cluster_->files_.find(path_);
  uint64_t size = fit == client_->cluster_->files_.end()
                      ? 0
                      : fit->second.content.size();
  auto sit = client_->states_.find(path_);
  if (sit != client_->states_.end()) {
    for (const auto& [offset, data] : sit->second.dirty) {
      size = std::max<uint64_t>(size, offset + data.size());
    }
  }
  return size;
}

uint64_t DfsFile::DirtyBytes() const {
  auto sit = client_->states_.find(path_);
  return sit == client_->states_.end() ? 0 : sit->second.dirty_bytes;
}

Status DfsFile::Append(std::string_view data) {
  return WriteRange(Size(), data, nullptr);
}

Status DfsFile::Append(std::string&& data) {
  return WriteRange(Size(), data, &data);
}

Status DfsFile::Write(uint64_t offset, std::string_view data) {
  return WriteRange(offset, data, nullptr);
}

Status DfsFile::WriteRange(uint64_t offset, std::string_view data,
                           std::string* owned) {
  RETURN_IF_ERROR(CheckUsable());
  if (data.empty()) {
    return OkStatus();
  }
  ObsSpan span(client_->cluster_->obs_.tracer, "dfs.write");
  ObsAdd(client_->cluster_->c_writes_);
  ObsAdd(client_->cluster_->c_write_bytes_, data.size());
  DfsClient::FileState& st = client_->GetState(path_);
  // Page-cache copy cost.
  client_->cluster_->sim_->Advance(
      client_->cluster_->params_->DfsBufferedWriteLatency(data.size()));

  const uint64_t end = offset + data.size();

  // Fast paths against the directly-preceding dirty range.
  if (!st.dirty.empty()) {
    auto it = st.dirty.upper_bound(offset);
    if (it != st.dirty.begin()) {
      auto prev = std::prev(it);
      uint64_t prev_end = prev->first + prev->second.size();
      if (prev_end == offset &&
          (it == st.dirty.end() || it->first >= end)) {
        // The common append case.
        prev->second.append(data);
        st.dirty_bytes += data.size();
        return OkStatus();
      }
      if (offset >= prev->first && end <= prev_end) {
        // Overwrite entirely within an existing dirty range.
        prev->second.replace(offset - prev->first, data.size(), data);
        return OkStatus();
      }
    }
  }

  // General case: dirty ranges are kept non-overlapping. Trim or split any
  // range intersecting [offset, end), then insert the new one. Applying the
  // map in offset order at Sync() is then order-independent.
  auto it = st.dirty.lower_bound(offset);
  if (it != st.dirty.begin()) {
    auto prev = std::prev(it);
    uint64_t prev_end = prev->first + prev->second.size();
    if (prev_end > offset) {
      // prev spans into the new write: keep its head, and its tail if it
      // extends past the new write's end.
      std::string tail;
      if (prev_end > end) {
        tail = prev->second.substr(end - prev->first);
      }
      st.dirty_bytes -= prev->second.size();
      prev->second.resize(offset - prev->first);
      st.dirty_bytes += prev->second.size();
      if (!tail.empty()) {
        st.dirty_bytes += tail.size();
        st.dirty.emplace(end, std::move(tail));
        it = st.dirty.lower_bound(offset);
      }
    }
  }
  while (it != st.dirty.end() && it->first < end) {
    uint64_t entry_end = it->first + it->second.size();
    if (entry_end > end) {
      std::string tail = it->second.substr(end - it->first);
      st.dirty_bytes += tail.size();
      st.dirty.emplace(end, std::move(tail));
    }
    st.dirty_bytes -= it->second.size();
    it = st.dirty.erase(it);
  }
  st.dirty_bytes += data.size();
  st.dirty.emplace(offset,
                   owned != nullptr ? std::move(*owned) : std::string(data));
  return OkStatus();
}

Status DfsFile::Sync(bool foreground) {
  return SyncInternal(foreground, nullptr);
}

Result<SimTime> DfsFile::SyncDeferred() {
  SimTime done = client_->cluster_->sim_->Now();
  RETURN_IF_ERROR(SyncInternal(/*foreground=*/false, &done));
  return done;
}

Status DfsFile::SyncInternal(bool foreground, SimTime* done_at) {
  RETURN_IF_ERROR(CheckUsable());
  DfsClient::FileState& st = client_->GetState(path_);
  if (st.dirty.empty()) {
    return OkStatus();
  }
  DfsCluster* cluster = client_->cluster_;
  ObsSpan span(cluster->obs_.tracer, "dfs.fsync");
  ObsAdd(foreground ? cluster->c_fsyncs_ : cluster->c_background_syncs_);
  SimTime sync_start = cluster->sim_->Now();
  uint64_t bytes = st.dirty_bytes;
  bool overwrote = false;
  SimTime ideal;  // queue-free duration: the transfer part of the latency
  SimTime done = client_->FlushDirty(&st, &cluster->files_[path_].content,
                                     foreground, &ideal, &overwrote);
  if (done_at != nullptr) {
    *done_at = done;
  }
  ObsAdd(cluster->c_sync_ops_);
  // The sync's latency as the caller experiences it: pipe wait + transfer
  // for foreground calls, durable-at minus now for deferred group commits.
  // The wait/xfer split makes backend stall time attributable: xfer is the
  // queue-free duration, wait is whatever queueing added on top.
  ObsRecord(cluster->h_fsync_ns_, done - sync_start);
  ObsRecord(cluster->h_fsync_xfer_ns_, ideal);
  ObsRecord(cluster->h_fsync_wait_ns_,
            std::max<SimTime>(0, (done - sync_start) - ideal));
  if (cluster->trace_ != nullptr) {
    IoTraceEvent ev;
    ev.path = path_;
    ev.bytes = bytes;
    ev.sync = foreground || done_at != nullptr;
    ev.is_overwrite = overwrote;
    cluster->trace_->Record(std::move(ev));
  }
  return OkStatus();
}


Result<SharedBytes> DfsFile::Read(uint64_t offset, uint64_t len) {
  return ReadInternal(offset, len, /*foreground=*/true);
}

Result<SharedBytes> DfsFile::ReadBackground(uint64_t offset, uint64_t len) {
  return ReadInternal(offset, len, /*foreground=*/false);
}

Result<SharedBytes> DfsFile::ReadInternal(uint64_t offset, uint64_t len,
                                          bool foreground) {
  RETURN_IF_ERROR(CheckUsable());
  ObsSpan span(client_->cluster_->obs_.tracer, "dfs.read");
  ObsAdd(client_->cluster_->c_reads_);
  const SimParams& params = client_->cluster_->params();
  Simulation* sim = client_->cluster_->sim_;
  DfsClient::FileState& st = client_->GetState(path_);

  uint64_t size = Size();
  if (offset >= size) {
    return SharedBytes();
  }
  len = std::min<uint64_t>(len, size - offset);

  // The first dirty range that may intersect the read: dirty ranges
  // starting before offset+len may, so walk back one entry past the first
  // candidate to catch a range spanning `offset`.
  auto first_dirty = st.dirty.lower_bound(offset);
  if (first_dirty != st.dirty.begin() &&
      std::prev(first_dirty)->first + std::prev(first_dirty)->second.size() >
          offset) {
    --first_dirty;
  }
  const bool overlaps_dirty =
      first_dirty != st.dirty.end() && first_dirty->first < offset + len;
  auto fit = client_->cluster_->files_.find(path_);
  const CowBuffer* content = fit == client_->cluster_->files_.end()
                                 ? nullptr
                                 : &fit->second.content;
  SharedBytes out;
  if (!overlaps_dirty && content != nullptr &&
      offset + len <= content->size()) {
    out = content->Slice(offset, len);
  } else {
    // Materialize only the requested range: durable bytes overlaid with
    // the intersecting dirty ranges.
    std::string overlay;
    if (content != nullptr && offset < content->size()) {
      overlay = content->view().substr(offset, len);
    }
    overlay.resize(len, '\0');
    for (auto it = first_dirty;
         it != st.dirty.end() && it->first < offset + len; ++it) {
      uint64_t d_off = it->first;
      const std::string& data = it->second;
      uint64_t copy_begin = std::max(offset, d_off);
      uint64_t copy_end = std::min(offset + len, d_off + data.size());
      overlay.replace(copy_begin - offset, copy_end - copy_begin, data,
                      copy_begin - d_off, copy_end - copy_begin);
    }
    out = SharedBytes(std::move(overlay));
  }

  DfsCluster* cluster = client_->cluster_;
  std::vector<uint64_t> shares(cluster->num_servers_, 0);

  if (direct_io_) {
    // Every read goes to the backend; the per-stripe reads go to their
    // servers concurrently.
    ObsAdd(cluster->c_direct_reads_);
    cluster->AddStripeShares(offset, len, &shares);
    cluster->FanOut(shares, cluster->read_cost_, foreground,
                    /*is_write=*/false);
    return out;
  }

  // Page cache with readahead: a miss fetches the whole readahead window.
  // A striped cluster batches all missing windows of this read into one
  // fan-out (per-server base paid once, transfers in parallel) — this is
  // what parallelizes bulk recovery reads over the dfs (Fig 11). A
  // one-server cluster keeps each missing window its own request, as the
  // paper-calibrated single pipe does (DESIGN.md §10).
  const bool per_window = cluster->num_servers_ == 1;
  uint64_t window = params.dfs.readahead_bytes;
  uint64_t first = offset / window;
  uint64_t last = (offset + len - 1) / window;
  bool missed = false;
  auto fetch_missed = [&] {
    cluster->FanOut(shares, cluster->read_cost_, foreground,
                    /*is_write=*/false);
    std::fill(shares.begin(), shares.end(), 0);
    missed = false;
  };
  for (uint64_t w = first; w <= last; ++w) {
    if (st.cached_windows.count(w) > 0) {
      ObsAdd(cluster->c_readahead_hits_);
      if (foreground) {
        sim->Advance(params.dfs.cached_read_base +
                     static_cast<SimTime>(
                         static_cast<double>(len) /
                         params.dfs.cached_read_bytes_per_ns));
      }
    } else {
      ObsAdd(cluster->c_readahead_misses_);
      uint64_t fetch = std::min<uint64_t>(window, size - w * window);
      cluster->AddStripeShares(w * window, fetch, &shares);
      missed = true;
      if (per_window) {
        fetch_missed();
      }
      st.cached_windows.insert(w);
    }
  }
  if (missed) {
    fetch_missed();
  }
  return out;
}

}  // namespace splitft
