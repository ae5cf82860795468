#include "src/controller/znode_store.h"

#include <algorithm>

namespace splitft {

SessionId ZnodeStore::OpenSession() {
  SessionId session = next_session_;
  next_session_ += session_step_;
  return session;
}

void ZnodeStore::ExpireSession(SessionId session) {
  if (session == kNoSession) {
    return;
  }
  for (auto it = nodes_.begin(); it != nodes_.end();) {
    if (it->second.ephemeral_owner == session) {
      it = nodes_.erase(it);
      zxid_++;
    } else {
      ++it;
    }
  }
}

Status ZnodeStore::Create(const std::string& path, std::string data,
                          SessionId ephemeral_owner) {
  auto [it, inserted] = nodes_.try_emplace(path);
  if (!inserted) {
    return AlreadyExistsError("znode exists: " + path);
  }
  it->second.data = std::move(data);
  it->second.version = 0;
  it->second.ephemeral_owner = ephemeral_owner;
  zxid_++;
  return OkStatus();
}

Result<Znode> ZnodeStore::Get(const std::string& path) const {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) {
    return NotFoundError("znode missing: " + path);
  }
  return it->second;
}

bool ZnodeStore::Exists(const std::string& path) const {
  return nodes_.count(path) > 0;
}

Status ZnodeStore::Set(const std::string& path, std::string data,
                       int64_t expected_version) {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) {
    return NotFoundError("znode missing: " + path);
  }
  if (expected_version >= 0 && it->second.version != expected_version) {
    return AbortedError("version mismatch on " + path);
  }
  it->second.data = std::move(data);
  it->second.version++;
  zxid_++;
  return OkStatus();
}

Status ZnodeStore::Delete(const std::string& path) {
  if (nodes_.erase(path) == 0) {
    return NotFoundError("znode missing: " + path);
  }
  zxid_++;
  return OkStatus();
}

std::vector<std::string> ZnodeStore::Children(const std::string& dir) const {
  std::string prefix = dir;
  if (prefix.empty() || prefix.back() != '/') {
    prefix += '/';
  }
  std::vector<std::string> out;
  for (auto it = nodes_.lower_bound(prefix); it != nodes_.end(); ++it) {
    const std::string& path = it->first;
    if (path.rfind(prefix, 0) != 0) {
      break;
    }
    std::string rest = path.substr(prefix.size());
    // Only direct children.
    if (rest.find('/') == std::string::npos && !rest.empty()) {
      out.push_back(rest);
    }
  }
  return out;
}

}  // namespace splitft
