// A miniature ZooKeeper: hierarchical znodes with versions, ephemeral nodes
// bound to client sessions, and first-creation-wins semantics. This is the
// fault-tolerant metadata service the paper implements its controller on
// (§4.7); we model it as always available (it is replicated in the paper)
// and charge a quorum-commit RPC latency per operation at the Controller
// layer above.
#ifndef SRC_CONTROLLER_ZNODE_STORE_H_
#define SRC_CONTROLLER_ZNODE_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace splitft {

using SessionId = uint64_t;

constexpr SessionId kNoSession = 0;

struct Znode {
  std::string data;
  int64_t version = 0;
  // kNoSession for persistent znodes; otherwise removed when the owning
  // session expires (ZooKeeper ephemeral nodes).
  SessionId ephemeral_owner = kNoSession;
};

class ZnodeStore {
 public:
  // Session-id namespacing for sharded deployments: this store hands out
  // ids start, start + step, start + 2*step, ... With shard i of n
  // configured as (i + 1, n), every session id is globally unique and
  // (id - 1) % n recovers the owning shard — what Controller::ExpireSession
  // uses to route an expiry without a lookup. Must be called before the
  // first OpenSession.
  void ConfigureSessionIds(SessionId start, SessionId step) {
    next_session_ = start;
    session_step_ = step;
  }

  // Starts a client session; ephemeral znodes created under it die with it.
  SessionId OpenSession();
  // Expires the session, deleting its ephemeral znodes (models the client
  // process crashing or disconnecting).
  void ExpireSession(SessionId session);

  // Creates a znode. Parent directories are implicit (paths are flat keys
  // with '/' separators, like ZooKeeper chroots used by the paper).
  // Fails with kAlreadyExists if the path exists — this is the
  // first-creation-wins primitive the single-instance lease relies on.
  Status Create(const std::string& path, std::string data,
                SessionId ephemeral_owner = kNoSession);

  Result<Znode> Get(const std::string& path) const;
  bool Exists(const std::string& path) const;

  // Compare-and-set on the version when expected_version >= 0.
  Status Set(const std::string& path, std::string data,
             int64_t expected_version = -1);

  Status Delete(const std::string& path);

  // Direct children names of `dir` (e.g. Children("/peers") -> {"p1","p2"}).
  std::vector<std::string> Children(const std::string& dir) const;

  size_t size() const { return nodes_.size(); }
  // The number of changes committed so far (ZooKeeper's zxid): every
  // creation, update and deletion moves it, an ephemeral expiry included.
  uint64_t zxid() const { return zxid_; }

 private:
  std::map<std::string, Znode> nodes_;
  uint64_t zxid_ = 0;
  SessionId next_session_ = 1;
  SessionId session_step_ = 1;
};

}  // namespace splitft

#endif  // SRC_CONTROLLER_ZNODE_STORE_H_
