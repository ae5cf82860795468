#include "src/controller/controller.h"

#include <algorithm>

#include "src/common/bytes.h"

namespace splitft {

const char* PeerStateName(PeerState state) {
  switch (state) {
    case PeerState::kActive:
      return "ACTIVE";
    case PeerState::kDraining:
      return "DRAINING";
  }
  return "UNKNOWN";
}

Controller::Controller(Simulation* sim, const SimParams* params,
                       ObsContext obs)
    : sim_(sim),
      params_(params),
      obs_(obs),
      c_rpcs_(obs.counter("controller.rpc.count")),
      c_rpc_timeouts_(obs.counter("controller.rpc.timeouts")),
      c_apmap_fenced_(obs.counter("controller.apmap.fenced_writes")),
      h_rpc_ns_(obs.histogram("controller.rpc.latency_ns")) {
  const int n = kNumShards;
  shards_.resize(n);
  c_shard_rpcs_.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Shard i hands out sessions i+1, i+1+n, ...: globally unique and
    // routable back to the shard by (session - 1) % n.
    shards_[i].ConfigureSessionIds(static_cast<SessionId>(i) + 1,
                                   static_cast<SessionId>(n));
    std::string prefix = "controller.shard." + std::to_string(i);
    c_shard_rpcs_.push_back(obs.counter(prefix + ".rpcs"));
  }
}

int Controller::ShardIndexFor(const std::string& app) const {
  // FNV-1a: stable across builds, unlike std::hash.
  uint64_t h = 1469598103934665603ull;
  for (char c : app) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return static_cast<int>(h % shards_.size());
}

ZnodeStore& Controller::ShardFor(const std::string& app) {
  int idx = ShardIndexFor(app);
  ObsAdd(c_shard_rpcs_[idx]);
  return shards_[idx];
}

void Controller::ChargeRpc() {
  ObsSpan span(obs_.tracer, "controller.rpc");
  rpc_count_++;
  ObsAdd(c_rpcs_);
  SimTime start = sim_->Now();
  sim_->Advance(params_->controller.rpc_latency);
  ObsRecord(h_rpc_ns_, sim_->Now() - start);
}

Status Controller::Rpc() {
  ChargeRpc();
  if (unavailable_) {
    ObsAdd(c_rpc_timeouts_);
    return TimedOutError("controller outage: RPC timed out");
  }
  return OkStatus();
}

uint64_t Controller::OutageFor(SimTime duration) {
  unavailable_ = true;
  return sim_->ScheduleCancelableAt(sim_->Now() + duration,
                                    [this] { unavailable_ = false; });
}

std::string Controller::EscapeFile(const std::string& file) {
  std::string out;
  out.reserve(file.size());
  for (char c : file) {
    if (c == '/') {
      out += "%2F";
    } else if (c == '%') {
      out += "%25";
    } else {
      out += c;
    }
  }
  return out;
}

std::string Controller::UnescapeFile(const std::string& escaped) {
  std::string out;
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '%' && i + 2 < escaped.size()) {
      if (escaped.compare(i, 3, "%2F") == 0) {
        out += '/';
        i += 2;
        continue;
      }
      if (escaped.compare(i, 3, "%25") == 0) {
        out += '%';
        i += 2;
        continue;
      }
    }
    out += escaped[i];
  }
  return out;
}

std::string Controller::SerializePeer(NodeId node, uint64_t bytes,
                                      PeerState state) {
  std::string out;
  PutFixed32(&out, node);
  PutFixed64(&out, bytes);
  out.push_back(static_cast<char>(state));
  return out;
}

bool Controller::ParsePeer(const std::string& data, NodeId* node,
                           uint64_t* bytes, PeerState* state) {
  if (data.size() != 13) {
    return false;
  }
  *node = DecodeFixed32(data.data());
  *bytes = DecodeFixed64(data.data() + 4);
  uint8_t raw = static_cast<uint8_t>(data[12]);
  if (raw > static_cast<uint8_t>(PeerState::kDraining)) {
    return false;
  }
  *state = static_cast<PeerState>(raw);
  return true;
}

std::string Controller::SerializeApMap(const ApMapEntry& entry) {
  std::string out;
  PutFixed64(&out, entry.epoch);
  PutFixed32(&out, static_cast<uint32_t>(entry.peers.size()));
  for (const std::string& p : entry.peers) {
    PutLengthPrefixed(&out, p);
  }
  // EC stripe geometry rides as a trailing triple; entries written before
  // the EC mode existed simply end after the peer list and parse as
  // replication (ec_k == 0).
  PutFixed32(&out, entry.ec_k);
  PutFixed32(&out, entry.ec_m);
  PutFixed32(&out, entry.ec_stripe_unit);
  return out;
}

bool Controller::ParseApMap(const std::string& data, ApMapEntry* entry) {
  if (data.size() < 12) {
    return false;
  }
  entry->epoch = DecodeFixed64(data.data());
  uint32_t n = DecodeFixed32(data.data() + 8);
  entry->peers.clear();
  size_t off = 12;
  for (uint32_t i = 0; i < n; ++i) {
    std::string_view p;
    if (!GetLengthPrefixed(data, &off, &p)) {
      return false;
    }
    entry->peers.emplace_back(p);
  }
  entry->ec_k = 0;
  entry->ec_m = 0;
  entry->ec_stripe_unit = 0;
  if (data.size() >= off + 12) {
    entry->ec_k = DecodeFixed32(data.data() + off);
    entry->ec_m = DecodeFixed32(data.data() + off + 4);
    entry->ec_stripe_unit = DecodeFixed32(data.data() + off + 8);
  }
  return true;
}

// ---- Peer registry ---------------------------------------------------------

Status Controller::RegisterPeer(const std::string& name, NodeId node,
                                uint64_t bytes) {
  RETURN_IF_ERROR(Rpc());
  std::string path = "/peers/" + name;
  // (Re-)registration always lands the peer ACTIVE: a restarted peer has a
  // fresh memory pool and any previous drain is moot.
  std::string record = SerializePeer(node, bytes, PeerState::kActive);
  if (registry_.Exists(path)) {
    // Re-registration after a peer restart replaces the record.
    return registry_.Set(path, std::move(record));
  }
  return registry_.Create(path, std::move(record));
}

Status Controller::UnregisterPeer(const std::string& name) {
  RETURN_IF_ERROR(Rpc());
  return registry_.Delete("/peers/" + name);
}

Status Controller::UpdatePeerMemory(const std::string& name, uint64_t bytes) {
  RETURN_IF_ERROR(Rpc());
  std::string path = "/peers/" + name;
  auto node = registry_.Get(path);
  if (!node.ok()) {
    return node.status();
  }
  NodeId id;
  uint64_t old_bytes;
  PeerState state;
  if (!ParsePeer(node->data, &id, &old_bytes, &state)) {
    return InternalError("corrupt peer record");
  }
  return registry_.Set(path, SerializePeer(id, bytes, state));
}

void Controller::UpdatePeerMemoryAsync(const std::string& name,
                                       uint64_t bytes) {
  rpc_count_++;
  std::string path = "/peers/" + name;
  auto node = registry_.Get(path);
  if (!node.ok()) {
    return;
  }
  NodeId id;
  uint64_t old_bytes;
  PeerState state;
  if (!ParsePeer(node->data, &id, &old_bytes, &state)) {
    return;
  }
  // Async availability refreshes are fire-and-forget by design; a lost
  // update only skews the allocator's load balancing until the next one.
  DiscardStatus(obs_, registry_.Set(path, SerializePeer(id, bytes, state)),
                "Controller::UpdatePeerMemoryAsync");
}

Status Controller::SetPeerState(const std::string& name, PeerState state) {
  RETURN_IF_ERROR(Rpc());
  std::string path = "/peers/" + name;
  auto node = registry_.Get(path);
  if (!node.ok()) {
    return node.status();
  }
  NodeId id;
  uint64_t bytes;
  PeerState old_state;
  if (!ParsePeer(node->data, &id, &bytes, &old_state)) {
    return InternalError("corrupt peer record");
  }
  return registry_.Set(path, SerializePeer(id, bytes, state));
}

Result<PeerRecord> Controller::GetPeer(const std::string& name) {
  RETURN_IF_ERROR(Rpc());
  auto node = registry_.Get("/peers/" + name);
  if (!node.ok()) {
    return node.status();
  }
  PeerRecord rec;
  rec.name = name;
  if (!ParsePeer(node->data, &rec.node, &rec.available_bytes, &rec.state)) {
    return InternalError("corrupt peer record");
  }
  return rec;
}

Result<std::vector<PeerRecord>> Controller::GetPeers(
    size_t n, uint64_t min_bytes, const std::set<std::string>& exclude) {
  RETURN_IF_ERROR(Rpc());
  std::vector<PeerRecord> candidates;
  for (const std::string& name : registry_.Children("/peers")) {
    if (exclude.count(name) > 0) {
      continue;
    }
    auto node = registry_.Get("/peers/" + name);
    if (!node.ok()) {
      continue;
    }
    PeerRecord rec;
    rec.name = name;
    if (!ParsePeer(node->data, &rec.node, &rec.available_bytes, &rec.state)) {
      continue;
    }
    if (rec.state == PeerState::kDraining) {
      continue;  // drains steer new allocations elsewhere
    }
    if (rec.available_bytes >= min_bytes) {
      candidates.push_back(std::move(rec));
    }
  }
  if (candidates.size() < n) {
    return UnavailableError("not enough log peers with sufficient memory");
  }
  // Balance load: prefer peers with the most spare memory (stable order for
  // determinism).
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const PeerRecord& a, const PeerRecord& b) {
                     return a.available_bytes > b.available_bytes;
                   });
  candidates.resize(n);
  return candidates;
}

// ---- Application epochs ----------------------------------------------------

Result<uint64_t> Controller::BumpAppEpoch(const std::string& app) {
  RETURN_IF_ERROR(Rpc());
  ZnodeStore& shard = ShardFor(app);
  std::string path = "/apps/" + app + "/epoch";
  uint64_t epoch = 1;
  auto node = shard.Get(path);
  if (node.ok()) {
    epoch = DecodeFixed64(node->data.data()) + 1;
    std::string data;
    PutFixed64(&data, epoch);
    RETURN_IF_ERROR(shard.Set(path, std::move(data)));
  } else {
    std::string data;
    PutFixed64(&data, epoch);
    RETURN_IF_ERROR(shard.Create(path, std::move(data)));
  }
  return epoch;
}

Result<uint64_t> Controller::GetAppEpoch(const std::string& app) {
  RETURN_IF_ERROR(Rpc());
  auto node = ShardFor(app).Get("/apps/" + app + "/epoch");
  if (!node.ok()) {
    return node.status();
  }
  if (node->data.size() != 8) {
    return InternalError("corrupt epoch record");
  }
  return DecodeFixed64(node->data.data());
}

// ---- ap-map -----------------------------------------------------------------

Status Controller::SetApMap(const std::string& app, const std::string& file,
                            const ApMapEntry& entry) {
  RETURN_IF_ERROR(Rpc());
  ZnodeStore& shard = ShardFor(app);
  std::string path = "/apps/" + app + "/files/" + EscapeFile(file);
  auto existing = shard.Get(path);
  if (!existing.ok()) {
    return shard.Create(path, SerializeApMap(entry));
  }
  ApMapEntry stored;
  if (!ParseApMap(existing->data, &stored)) {
    return InternalError("corrupt ap-map entry");
  }
  // Epoch fence (§4.5.1): every membership mutation must bump-then-write.
  // A lower epoch is a stale writer racing a newer reconfiguration; an
  // unbumped epoch with a different peer set is a protocol bug — either
  // way the write is rejected so the old membership cannot resurface.
  if (entry.epoch < stored.epoch) {
    ObsAdd(c_apmap_fenced_);
    return FailedPreconditionError("stale ap-map write fenced (epoch " +
                                   std::to_string(entry.epoch) + " < " +
                                   std::to_string(stored.epoch) + ")");
  }
  if (entry.epoch == stored.epoch && !entry.SameMembership(stored)) {
    ObsAdd(c_apmap_fenced_);
    return FailedPreconditionError(
        "ap-map peer/geometry change without an epoch bump fenced");
  }
  return shard.Set(path, SerializeApMap(entry));
}

Result<ApMapEntry> Controller::GetApMap(const std::string& app,
                                        const std::string& file) {
  RETURN_IF_ERROR(Rpc());
  auto node = ShardFor(app).Get("/apps/" + app + "/files/" + EscapeFile(file));
  if (!node.ok()) {
    return node.status();
  }
  ApMapEntry entry;
  if (!ParseApMap(node->data, &entry)) {
    return InternalError("corrupt ap-map entry");
  }
  return entry;
}

Status Controller::DeleteApMap(const std::string& app,
                               const std::string& file) {
  RETURN_IF_ERROR(Rpc());
  return ShardFor(app).Delete("/apps/" + app + "/files/" + EscapeFile(file));
}

std::vector<std::string> Controller::ListAppFiles(const std::string& app) {
  if (!Rpc().ok()) {
    return {};  // outage: the listing RPC timed out
  }
  std::vector<std::string> out;
  for (const std::string& child :
       ShardFor(app).Children("/apps/" + app + "/files")) {
    out.push_back(UnescapeFile(child));
  }
  return out;
}

// ---- Server lease -----------------------------------------------------------

Result<SessionId> Controller::AcquireServerLease(const std::string& app) {
  RETURN_IF_ERROR(Rpc());
  ZnodeStore& shard = ShardFor(app);
  SessionId session = shard.OpenSession();
  Status created = shard.Create("/servers/" + app, "", session);
  if (!created.ok()) {
    return AbortedError("another instance of " + app + " holds the lease");
  }
  return session;
}

Result<SessionId> Controller::TransferServerLease(const std::string& app,
                                                 SessionId current) {
  RETURN_IF_ERROR(Rpc());
  ZnodeStore& shard = ShardFor(app);
  std::string path = "/servers/" + app;
  auto node = shard.Get(path);
  if (!node.ok()) {
    return FailedPreconditionError("no lease to transfer for " + app);
  }
  if (node->ephemeral_owner != current) {
    return FailedPreconditionError("lease for " + app +
                                   " is not held by the requesting session");
  }
  // Delete-then-create under one charged round trip models a ZooKeeper
  // multi-op: no window exists in which a third party could slip in.
  RETURN_IF_ERROR(shard.Delete(path));
  SessionId successor = shard.OpenSession();
  RETURN_IF_ERROR(shard.Create(path, "", successor));
  return successor;
}

void Controller::ExpireSession(SessionId session) {
  // No RPC charge: session expiry is detected by ZooKeeper asynchronously.
  // Session ids are shard-namespaced (shard i hands out i+1, i+1+n, ...),
  // so the owning shard is recovered arithmetically.
  if (session == kNoSession) {
    return;
  }
  shards_[(session - 1) % shards_.size()].ExpireSession(session);
}

}  // namespace splitft
