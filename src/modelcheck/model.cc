#include "src/modelcheck/model.h"

#include <algorithm>
#include <deque>
#include <unordered_set>
#include <vector>

namespace splitft {
namespace {

// Per-peer protocol state. Writes are numbered 1..W. A peer's region holds
// data for writes (base, data_upto] plus — when complete_prefix — the
// caught-up prefix [1, base]. Its header claims seq_upto writes.
struct Peer {
  bool alive = true;
  bool holds = false;           // has an mr-map entry for the file
  bool member = false;          // listed in the ap-map
  bool complete_prefix = true;  // content below `base` is present
  int8_t base = 0;              // value at last catch-up / creation
  int8_t data_upto = 0;         // highest write whose data landed
  int8_t seq_upto = 0;          // header value landed

  // The prefix this peer can actually serve during recovery.
  int ActualPrefix() const { return complete_prefix ? data_upto : 0; }
};

struct State {
  std::vector<Peer> peers;
  int8_t issued = 0;        // writes the app has issued
  int8_t acked = 0;         // highest write acknowledged to clients
  int8_t externalized = 0;  // max state ever exposed (acks + recoveries)
  bool app_alive = true;
  int8_t peer_crashes = 0;
  int8_t app_crashes = 0;
  // Set while a replacement was recorded in the ap-map but not caught up
  // (only reachable with bug_apmap_before_catchup): index+1 of that peer.
  int8_t pending_catchup = 0;
  // A successor join in progress (replacement of a dead member, or the
  // planned migration of a live one): source member and target spare
  // (index+1, 0 = none) plus the write count captured by the snapshot
  // copy. The target holds the snapshot prefix but is *not* a member
  // until cutover.
  int8_t join_src = 0;
  int8_t join_dst = 0;
  int8_t join_snapshot = 0;
  int8_t migrations = 0;

  std::string Encode() const {
    std::string out;
    out.reserve(peers.size() * 7 + 12);
    for (const Peer& p : peers) {
      out.push_back(static_cast<char>(p.alive));
      out.push_back(static_cast<char>(p.holds));
      out.push_back(static_cast<char>(p.member));
      out.push_back(static_cast<char>(p.complete_prefix));
      out.push_back(static_cast<char>(p.base));
      out.push_back(static_cast<char>(p.data_upto));
      out.push_back(static_cast<char>(p.seq_upto));
    }
    out.push_back(static_cast<char>(issued));
    out.push_back(static_cast<char>(acked));
    out.push_back(static_cast<char>(externalized));
    out.push_back(static_cast<char>(app_alive));
    out.push_back(static_cast<char>(peer_crashes));
    out.push_back(static_cast<char>(app_crashes));
    out.push_back(static_cast<char>(pending_catchup));
    out.push_back(static_cast<char>(join_src));
    out.push_back(static_cast<char>(join_dst));
    out.push_back(static_cast<char>(join_snapshot));
    out.push_back(static_cast<char>(migrations));
    return out;
  }
};

class Checker {
 public:
  explicit Checker(const McConfig& config) : config_(config) {}

  McResult Run() {
    State init;
    int n = ec() ? config_.ec_k + config_.ec_m
                 : 2 * config_.fault_budget + 1;
    init.peers.resize(static_cast<size_t>(n + config_.spare_peers));
    for (int i = 0; i < n; ++i) {
      init.peers[i].holds = true;
      init.peers[i].member = true;
    }
    Push(std::move(init));
    while (!queue_.empty() && !result_.violation_found &&
           result_.states_explored < config_.max_states) {
      State s = std::move(queue_.front());
      queue_.pop_front();
      result_.states_explored++;
      Expand(s);
    }
    result_.exhausted =
        queue_.empty() && result_.states_explored < config_.max_states;
    return result_;
  }

 private:
  bool ec() const { return config_.ec_k > 0; }
  int majority() const { return config_.fault_budget + 1; }
  // Headers required before a write is acknowledged: f+1 replicas, or the
  // first k shard streams under EC late binding (k-1 under the mutant).
  int ack_quorum() const {
    if (!ec()) {
      return majority();
    }
    return config_.bug_ec_ack_below_k ? config_.ec_k - 1 : config_.ec_k;
  }

  void Push(State s) {
    UpdateAcks(&s);
    std::string key = s.Encode();
    if (seen_.insert(std::move(key)).second) {
      queue_.push_back(std::move(s));
    }
  }

  // Abandons an in-flight join: the target's snapshot region is reclaimed
  // (epoch GC) and it returns to the spare pool.
  static void AbortJoin(State* t) {
    if (t->join_dst != 0) {
      Peer& dst = t->peers[t->join_dst - 1];
      if (dst.alive && !dst.member) {
        dst.holds = false;
        dst.complete_prefix = true;
        dst.base = dst.data_upto = dst.seq_upto = 0;
      }
    }
    t->join_src = t->join_dst = t->join_snapshot = 0;
  }

  // Starts a join of spare `j` as the successor of member `i`: the target
  // is snapshot-copied up to the writes issued so far.
  void StartJoin(const State& s, size_t i, size_t j) {
    State t = s;
    AbortJoin(&t);  // a newer join's epoch bump supersedes an older one
    Peer& np = t.peers[j];
    np.holds = true;
    np.complete_prefix = true;
    np.base = np.data_upto = np.seq_upto = s.issued;
    t.join_src = static_cast<int8_t>(i) + 1;
    t.join_dst = static_cast<int8_t>(j) + 1;
    t.join_snapshot = s.issued;
    result_.transitions++;
    Push(std::move(t));
  }

  void Violate(const std::string& what) {
    if (!result_.violation_found) {
      result_.violation_found = true;
      result_.violation = what;
    }
  }

  // A write k is acknowledged once ack_quorum() member peers have its
  // header.
  void UpdateAcks(State* s) {
    if (!s->app_alive) {
      return;
    }
    for (int k = s->acked + 1; k <= s->issued; ++k) {
      int have = 0;
      for (const Peer& p : s->peers) {
        if (p.member && p.alive && p.holds && p.seq_upto >= k) {
          have++;
        }
      }
      if (have >= ack_quorum()) {
        s->acked = static_cast<int8_t>(k);
        s->externalized = std::max(s->externalized, s->acked);
      } else {
        break;
      }
    }
  }

  void Expand(const State& s) {
    // --- 1. The app issues the next write to all alive member peers. ----
    if (s.app_alive && s.issued < config_.max_writes) {
      State t = s;
      t.issued++;
      result_.transitions++;
      Push(std::move(t));
    }

    // --- 2. Deliver one pending WR on some peer. -------------------------
    for (size_t i = 0; i < s.peers.size(); ++i) {
      const Peer& p = s.peers[i];
      if (!p.alive || !p.holds || !p.member) {
        continue;
      }
      // Writes issued after this peer's base are queued for it; deliveries
      // happen in order. In the safe protocol data_k precedes seq_k; the
      // injected bug reverses them.
      bool can_data, can_seq;
      if (!config_.bug_seq_before_data) {
        can_data = p.data_upto == p.seq_upto && p.data_upto < s.issued &&
                   p.data_upto >= p.base;
        can_seq = p.seq_upto < p.data_upto;
      } else {
        can_seq = p.seq_upto == p.data_upto && p.seq_upto < s.issued &&
                  p.seq_upto >= p.base;
        can_data = p.data_upto < p.seq_upto;
      }
      if (can_data) {
        State t = s;
        t.peers[i].data_upto++;
        result_.transitions++;
        Push(std::move(t));
      }
      if (can_seq) {
        State t = s;
        t.peers[i].seq_upto++;
        result_.transitions++;
        Push(std::move(t));
      }
    }

    // --- 3. Crash a peer. -------------------------------------------------
    if (s.peer_crashes < config_.max_peer_crashes) {
      for (size_t i = 0; i < s.peers.size(); ++i) {
        if (!s.peers[i].alive || !s.peers[i].holds) {
          continue;
        }
        State t = s;
        Peer& p = t.peers[i];
        p.alive = false;
        p.holds = false;
        p.complete_prefix = true;
        p.base = p.data_upto = p.seq_upto = 0;
        t.peer_crashes++;
        if (t.pending_catchup == static_cast<int8_t>(i) + 1) {
          t.pending_catchup = 0;
        }
        if (t.join_src == static_cast<int8_t>(i) + 1 ||
            t.join_dst == static_cast<int8_t>(i) + 1) {
          // Crash of either endpoint mid-copy supersedes the join (the
          // real client detects this at cutover and stands down).
          AbortJoin(&t);
        }
        result_.transitions++;
        Push(std::move(t));
      }
    }

    // --- 4. The app replaces a crashed member with a spare. Safe
    // protocol: a join with a dead source — the spare is snapshot-copied
    // now and cut over later (4d), after the suffix issued meanwhile. It
    // supersedes a join already in progress for another member.
    if (s.app_alive) {
      for (size_t i = 0; i < s.peers.size(); ++i) {
        if (!s.peers[i].member || s.peers[i].alive ||
            s.join_src == static_cast<int8_t>(i) + 1) {
          continue;  // replace only dead members not already joining
        }
        for (size_t j = 0; j < s.peers.size(); ++j) {
          if (s.peers[j].member || !s.peers[j].alive || s.peers[j].holds) {
            continue;  // spare: alive, not a member, no stale region
          }
          if (!config_.bug_apmap_before_catchup) {
            StartJoin(s, i, j);
          } else if (s.pending_catchup == 0) {
            // BUG: membership changes first; catch-up is a separate later
            // step the app may crash before.
            State t = s;
            t.peers[i].member = false;
            Peer& np = t.peers[j];
            np.member = true;
            np.holds = true;
            np.complete_prefix = s.issued == 0;  // empty region
            // Region content is empty: it *claims* nothing yet (seq 0 in
            // the real system); writes after this point do land.
            np.base = np.data_upto = np.seq_upto = s.issued;
            t.pending_catchup = static_cast<int8_t>(j) + 1;
            result_.transitions++;
            Push(std::move(t));
          }
          break;  // one spare choice suffices (spares are symmetric)
        }
      }
    }

    // --- 4b. Complete a pending (bug-path) catch-up. ----------------------
    if (s.app_alive && s.pending_catchup != 0) {
      State t = s;
      Peer& np = t.peers[t.pending_catchup - 1];
      np.complete_prefix = true;
      np.base = np.data_upto = np.seq_upto = s.issued;
      t.pending_catchup = 0;
      result_.transitions++;
      Push(std::move(t));
    }

    // --- 4c. Start a planned migration (drain): a join with a live
    // source. Writes issued from here on are the suffix the cutover must
    // catch up.
    if (s.app_alive && s.join_src == 0 && s.pending_catchup == 0 &&
        s.migrations < config_.max_migrations) {
      for (size_t i = 0; i < s.peers.size(); ++i) {
        if (!s.peers[i].member || !s.peers[i].alive) {
          continue;
        }
        for (size_t j = 0; j < s.peers.size(); ++j) {
          if (s.peers[j].member || !s.peers[j].alive || s.peers[j].holds) {
            continue;  // target: alive spare without a stale region
          }
          StartJoin(s, i, j);
          break;  // one spare choice suffices (spares are symmetric)
        }
      }
    }

    // --- 4d. Cut a join over: the target replaces the source in the
    // ap-map. Safe protocol: the suffix issued since the snapshot is caught
    // up (from the app's local buffer) *before* the membership change. The
    // injected bugs cut over with the stale snapshot prefix: a migration's
    // target keeps claiming the snapshot, and a replacement's target is
    // marked caught up to every issued write while it holds only the
    // snapshot prefix (a hole where the suffix belongs).
    if (s.app_alive && s.join_src != 0) {
      State t = s;
      Peer& np = t.peers[t.join_dst - 1];
      const bool migration = t.peers[t.join_src - 1].alive;
      if (!migration && config_.bug_replace_stale_cutover) {
        np.complete_prefix = s.join_snapshot == s.issued;
        np.base = np.data_upto = np.seq_upto = s.issued;
      } else if (!migration || !config_.bug_migrate_stale_cutover) {
        np.complete_prefix = true;
        np.base = np.data_upto = np.seq_upto = s.issued;
      }
      t.peers[t.join_src - 1].member = false;
      np.member = true;
      t.join_src = t.join_dst = t.join_snapshot = 0;
      if (migration) {
        t.migrations++;
      }
      result_.transitions++;
      Push(std::move(t));
    }

    // --- 5. The app crashes. ----------------------------------------------
    if (s.app_alive && s.app_crashes < config_.max_app_crashes) {
      State t = s;
      t.app_alive = false;
      t.app_crashes++;
      t.pending_catchup = 0;
      // An in-flight join dies with the app; the target region is not in
      // the ap-map, so recovery ignores it and the GC frees it.
      AbortJoin(&t);
      if (ec() && config_.ec_drain_on_crash) {
        // Laggard delivery: every issued write was posted to every member,
        // and one-sided WRs outlive the initiator, so queued deliveries to
        // alive members land before recovery can observe the regions.
        for (Peer& p : t.peers) {
          if (p.member && p.alive && p.holds) {
            p.data_upto = std::max(p.data_upto, t.issued);
            p.seq_upto = std::max(p.seq_upto, t.issued);
          }
        }
      }
      result_.transitions++;
      Push(std::move(t));
    }

    // --- 6. The app recovers. Replication: every f+1 subset of
    // responders. EC: the real recovery waits until every reachable holder
    // answered or failed, then reconstructs from the top-k claims, so the
    // responding set is all alive member holders (slow responders are
    // modeled by the crash transitions above).
    if (!s.app_alive) {
      std::vector<int> responders;
      for (size_t i = 0; i < s.peers.size(); ++i) {
        const Peer& p = s.peers[i];
        if (p.member && p.alive && p.holds) {
          responders.push_back(static_cast<int>(i));
        }
      }
      if (ec()) {
        if (static_cast<int>(responders.size()) >= config_.ec_k) {
          RecoverEc(s, responders);
        }
        // Fewer than k shard streams: correctly unavailable — a dead end.
      } else if (static_cast<int>(responders.size()) >= majority()) {
        std::vector<int> subset;
        EnumerateSubsets(s, responders, 0, &subset);
      }
      // Fewer than f+1 holders: the file is correctly unavailable — a dead
      // end, not a violation.
    }
  }

  void EnumerateSubsets(const State& s, const std::vector<int>& responders,
                        size_t start, std::vector<int>* subset) {
    if (static_cast<int>(subset->size()) == majority()) {
      Recover(s, *subset);
      return;
    }
    for (size_t i = start; i < responders.size(); ++i) {
      subset->push_back(responders[i]);
      EnumerateSubsets(s, responders, i + 1, subset);
      subset->pop_back();
    }
  }

  // EC recovery: sort responders by claimed sequence number, take the top
  // k, and reconstruct exactly the k-th largest claim — every stripe at or
  // below it has all k of those shard streams (DESIGN.md §16).
  void RecoverEc(const State& s, std::vector<int> responders) {
    result_.transitions++;
    std::stable_sort(responders.begin(), responders.end(),
                     [&s](int a, int b) {
                       return s.peers[a].seq_upto > s.peers[b].seq_upto;
                     });
    responders.resize(static_cast<size_t>(config_.ec_k));
    int claimed = s.peers[responders.back()].seq_upto;
    int actual = claimed;
    for (int idx : responders) {
      actual = std::min(actual, s.peers[idx].ActualPrefix());
    }

    // §4.6 correctness condition, stripe-reconstruction form.
    if (actual < claimed) {
      Violate("recovered file has holes: chosen shards claim seq " +
              std::to_string(claimed) + " but only hold a prefix of " +
              std::to_string(actual));
      return;
    }
    if (claimed < s.externalized) {
      Violate("externalized write " + std::to_string(s.externalized) +
              " lost: ec recovery reconstructed only " +
              std::to_string(claimed));
      return;
    }

    State t = s;
    t.app_alive = true;
    t.externalized = std::max<int8_t>(t.externalized,
                                      static_cast<int8_t>(claimed));
    t.acked = static_cast<int8_t>(claimed);
    t.issued = static_cast<int8_t>(claimed);
    t.pending_catchup = 0;
    if (!config_.bug_skip_recovery_catchup) {
      // Staged-region catch-up before externalizing, same as replication:
      // every alive member holder is rewritten to the recovered state.
      for (Peer& p : t.peers) {
        if (p.member && p.alive && p.holds) {
          p.complete_prefix = true;
          p.base = p.data_upto = p.seq_upto = static_cast<int8_t>(claimed);
        }
      }
    }
    Push(std::move(t));
  }

  void Recover(const State& s, const std::vector<int>& subset) {
    result_.transitions++;
    // Pick the recovery peer: maximum claimed sequence number.
    int recovery = subset[0];
    for (int idx : subset) {
      if (s.peers[idx].seq_upto > s.peers[recovery].seq_upto) {
        recovery = idx;
      }
    }
    const Peer& r = s.peers[recovery];
    int claimed = r.seq_upto;
    int actual = std::min<int>(r.ActualPrefix(), claimed);

    // §4.6 correctness condition.
    if (actual < claimed) {
      Violate("recovered file has holes: peer claims seq " +
              std::to_string(claimed) + " but only holds a prefix of " +
              std::to_string(actual));
      return;
    }
    if (claimed < s.externalized) {
      Violate("externalized write " + std::to_string(s.externalized) +
              " lost: recovery returned only " + std::to_string(claimed));
      return;
    }

    State t = s;
    t.app_alive = true;
    t.externalized = std::max<int8_t>(t.externalized,
                                      static_cast<int8_t>(claimed));
    t.acked = static_cast<int8_t>(claimed);
    t.issued = static_cast<int8_t>(claimed);
    t.pending_catchup = 0;
    if (!config_.bug_skip_recovery_catchup) {
      // Catch every reachable member peer up via the staged-region switch
      // before externalizing the data (§4.5.1).
      for (Peer& p : t.peers) {
        if (p.member && p.alive && p.holds) {
          p.complete_prefix = true;
          p.base = p.data_upto = p.seq_upto = static_cast<int8_t>(claimed);
        }
      }
    }
    Push(std::move(t));
  }

  McConfig config_;
  McResult result_;
  std::deque<State> queue_;
  std::unordered_set<std::string> seen_;
};

}  // namespace

McResult CheckNcl(const McConfig& config) { return Checker(config).Run(); }

}  // namespace splitft
