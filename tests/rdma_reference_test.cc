// Equivalence suite: the simulated fabric against the reference RC-QP
// model (src/rdma/reference_qp.h). Each seeded sequence posts random mixes
// of READs, WRITEs and WRITE chains on several QPs, sets and clears link
// delays and completion delays between posts, runs the clock forward by
// random steps, and — while nothing is in flight — crashes and restarts
// targets, partitions and heals links, and invalidates, deregisters,
// recycles and registers regions. Whatever the timing did, every QP's CQ
// must yield exactly the model's completions: same order, same statuses,
// same READ bytes.
//
// A second suite runs the same schedules on regions of a few chunks
// (Fabric::kRegionChunkBytes): WRITEs that cover whole chunks, half of them
// posted with an owner the region may adopt, partial WRITEs into adopted
// chunks, sqlite's circular WAL (an owned image of a whole region, then
// records overwritten in place in its other chunks), and local WriteRegion
// and CopyRegion between quiesced phases.
// After every phase each live region must also read back, locally, as the
// model's flat bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/shared_bytes.h"
#include "src/rdma/fabric.h"
#include "src/rdma/reference_qp.h"
#include "src/sim/params.h"
#include "src/sim/simulation.h"

namespace splitft {
namespace {

constexpr int kSequences = 10000;
constexpr int kChunkySequences = 60;
constexpr uint64_t kChunk = Fabric::kRegionChunkBytes;

// One sequence: two initiators, two targets, five QPs (two share a link),
// each QP the only one to touch the regions it owns.
class Sequence {
 public:
  // With `trace` set, every action is appended to it, one per line. A
  // `chunky` sequence runs on regions of a few chunks.
  Sequence(uint64_t seed, std::string* trace, bool chunky = false)
      : rng_(seed),
        fabric_(&sim_, &params_),
        trace_(trace),
        chunky_(chunky) {
    // Half the sequences keep a NIC retry window, so WRs toward a dead
    // target stall head-of-line before they fail.
    params_.rdma.unreachable_retry_timeout =
        rng_.Bernoulli(0.5) ? Micros(200) : 0;
    for (const char* name : {"a0", "a1", "t0", "t1"}) {
      NodeId id = fabric_.AddNode(name);
      EXPECT_EQ(model_.AddNode(), id);
    }
    const std::array<std::pair<NodeId, NodeId>, 5> links = {
        {{0, 2}, {0, 2}, {0, 3}, {1, 2}, {1, 3}}};
    for (const auto& [local, remote] : links) {
      qps_.push_back(Qp{});
      qps_.back().local = local;
      qps_.back().remote = remote;
      Open(&qps_.back());
      Register(&qps_.back());
      Register(&qps_.back());
    }
  }

  // Runs the sequence; returns the first divergence from the model, or ""
  // when the fabric matched it throughout.
  std::string Run() {
    const int phases = static_cast<int>(rng_.UniformRange(3, 8));
    for (int phase = 0; phase < phases && error_.empty(); ++phase) {
      const int steps = static_cast<int>(rng_.UniformRange(2, 14));
      for (int step = 0; step < steps; ++step) {
        Step();
      }
      Quiesce();
      if (error_.empty()) {
        Reconfigure();
      }
    }
    Quiesce();
    return error_;
  }

  uint64_t posts() const { return posts_; }
  const std::array<uint64_t, 4>& statuses() const { return statuses_; }
  // Quiesced phases after which two regions shared chunk storage.
  uint64_t shared_phases() const { return shared_phases_; }

 private:
  struct Qp {
    NodeId local = 0;
    NodeId remote = 0;
    std::unique_ptr<QueuePair> qp;
    int model = -1;
    std::vector<std::pair<RKey, uint64_t>> live;  // rkey, size
    std::vector<RKey> dead;  // rkeys this QP once owned
  };

  // Appends describe() to the trace, if one is kept.
  template <typename Describe>
  void Log(const Describe& describe) {
    if (trace_ != nullptr) {
      *trace_ += "  t=" + std::to_string(sim_.Now()) + " " + describe() + "\n";
    }
  }

  std::string Name(const Qp& q) const {
    return "qp" + std::to_string(&q - qps_.data());
  }

  void Open(Qp* q) {
    q->qp = std::make_unique<QueuePair>(&fabric_, q->local, q->remote);
    q->model = model_.OpenQp(q->local, q->remote);
    Log([&] { return "open " + Name(*q); });
  }

  void Register(Qp* q) {
    // A chunky region ends in a whole chunk or in a short one.
    const uint64_t size = chunky_ ? (rng_.Bernoulli(0.5) ? 3 * kChunk
                                                         : 2 * kChunk + 100)
                        : rng_.Bernoulli(0.5) ? 64
                                              : 256;
    auto rkey = fabric_.RegisterRegion(q->remote, size);
    if (!rkey.ok()) {
      return;  // the target is down
    }
    if (!model_.AddRegion(q->remote, *rkey, size)) {
      Fail("rkey " + std::to_string(*rkey) + " issued twice");
    }
    q->live.emplace_back(*rkey, size);
    Log([&] {
      return "register " + Name(*q) + " rkey " + std::to_string(*rkey);
    });
  }

  // An rkey for the next WR: mostly a live one of the QP's own, sometimes
  // a dead one, one from the other target, or one never issued.
  RKey PickRkey(const Qp& q, uint64_t* size) {
    *size = chunky_ ? 2 * kChunk : 64;
    const uint64_t roll = rng_.Uniform(100);
    if (roll < 80 && !q.live.empty()) {
      const auto& [rkey, bytes] = q.live[rng_.Uniform(q.live.size())];
      *size = bytes;
      return rkey;
    }
    if (roll < 94 && !q.dead.empty()) {
      return q.dead[rng_.Uniform(q.dead.size())];
    }
    for (const Qp& other : qps_) {
      if (other.remote != q.remote && !other.live.empty() &&
          rng_.Bernoulli(0.5)) {
        return other.live.front().first;
      }
    }
    return rng_.Bernoulli(0.5) ? 0 : rng_.Next();
  }

  // A range within a `size`-byte region, now and then one past its end.
  std::pair<uint64_t, uint64_t> PickRange(uint64_t size) {
    if (rng_.Bernoulli(0.03)) {
      return {size - 2, 8};
    }
    if (chunky_) {
      return PickChunkyRange(size);
    }
    // Small regions and short ranges: later WRs often overlap earlier ones.
    const uint64_t len = rng_.UniformRange(1, 16);
    return {rng_.Uniform(std::min<uint64_t>(size, 48) - len + 1), len};
  }

  // Whole chunks (the short last one included), a range straddling a
  // chunk boundary, or a few bytes anywhere.
  std::pair<uint64_t, uint64_t> PickChunkyRange(uint64_t size) {
    const uint64_t chunks = (size + kChunk - 1) / kChunk;
    const uint64_t roll = rng_.Uniform(3);
    if (roll == 0) {
      const uint64_t first = rng_.Uniform(chunks);
      const uint64_t end = std::min(
          size, (first + rng_.UniformRange(1, chunks - first)) * kChunk);
      return {first * kChunk, end - first * kChunk};
    }
    if (roll == 1) {
      const uint64_t boundary = rng_.UniformRange(1, chunks - 1) * kChunk;
      const uint64_t offset = boundary - rng_.UniformRange(1, 64);
      return {offset, std::min(size - offset,
                               rng_.UniformRange(65, kChunk + 128))};
    }
    const uint64_t len = rng_.UniformRange(1, 16);
    return {rng_.Uniform(size - len + 1), len};
  }

  std::string Payload(uint64_t len) {
    // A chunky payload repeats a random block of prime length: cheap to
    // build at chunk sizes, and misaligned with every chunk boundary.
    const uint64_t random = chunky_ ? std::min<uint64_t>(len, 251) : len;
    std::string bytes(len, '\0');
    for (uint64_t i = 0; i < random; ++i) {
      bytes[i] = static_cast<char>('a' + rng_.Uniform(26));
    }
    for (uint64_t filled = random; filled < len; filled *= 2) {
      std::memcpy(bytes.data() + filled, bytes.data(),
                  std::min(filled, len - filled));
    }
    return bytes;
  }

  // A chunky sequence posts half its WRITEs with an owner, which the
  // fabric holds instead of copying and whose whole chunks a region adopts.
  QueuePair::WriteOp MakeWrite(RKey rkey, uint64_t offset,
                               const std::string& data) {
    if (chunky_ && rng_.Bernoulli(0.5)) {
      return QueuePair::WriteOp(rkey, offset, SharedBytes(data));
    }
    return QueuePair::WriteOp(rkey, offset, std::string_view(data));
  }

  void Step() {
    Qp& q = qps_[rng_.Uniform(qps_.size())];
    const uint64_t roll = rng_.Uniform(100);
    uint64_t size = 0;
    if (roll < 30) {
      const RKey rkey = PickRkey(q, &size);
      const auto [offset, len] = PickRange(size);
      const std::string data = Payload(len);
      Log([&] { return "write " + Name(q) + Range(rkey, offset, len); });
      Expect(q, q.qp->PostWrite(MakeWrite(rkey, offset, data)),
             model_.PostWrite(q.model, rkey, offset, data));
    } else if (roll < 55) {
      const RKey rkey = PickRkey(q, &size);
      const auto [offset, len] = PickRange(size);
      std::string landing(rng_.Uniform(2) * 32, 'L');
      Log([&] { return "read " + Name(q) + Range(rkey, offset, len); });
      Expect(q, q.qp->PostRead(rkey, offset, len, std::move(landing)),
             model_.PostRead(q.model, rkey, offset, len));
    } else if (roll < 70) {
      const size_t count = rng_.UniformRange(2, 4);
      std::vector<std::string> payloads;
      std::vector<QueuePair::WriteOp> ops;
      std::vector<uint64_t> want;
      payloads.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        const RKey rkey = PickRkey(q, &size);
        const auto [offset, len] = PickRange(size);
        payloads.push_back(Payload(len));
        Log([&] { return "chain " + Name(q) + Range(rkey, offset, len); });
        ops.push_back(MakeWrite(rkey, offset, payloads.back()));
        want.push_back(model_.PostWrite(q.model, rkey, offset, payloads[i]));
      }
      std::vector<uint64_t> got(count);
      q.qp->PostWriteChain(ops.data(), count, got.data());
      for (size_t i = 0; i < count; ++i) {
        Expect(q, got[i], want[i]);
      }
    } else if (roll < 78) {
      const SimTime delay =
          rng_.Bernoulli(0.5) ? Micros(rng_.UniformRange(1, 30)) : 0;
      Log([&] {
        return "link delay " + Name(q) + " " + std::to_string(delay);
      });
      fabric_.SetLinkDelay(q.local, q.remote, delay);
    } else if (roll < 86) {
      const SimTime delay =
          rng_.Bernoulli(0.5) ? Micros(rng_.UniformRange(1, 40)) : 0;
      Log([&] {
        return "completion delay " + Name(q) + " " + std::to_string(delay);
      });
      fabric_.SetCompletionDelay(q.local, q.remote, delay);
    } else {
      const SimTime until = sim_.Now() + Micros(rng_.Uniform(9));
      Log([&] { return "run until " + std::to_string(until); });
      sim_.RunUntil(until);
    }
  }

  static std::string Range(RKey rkey, uint64_t offset, uint64_t len) {
    return " rkey " + std::to_string(rkey) + " [" + std::to_string(offset) +
           ", +" + std::to_string(len) + ")";
  }

  void Expect(const Qp& q, uint64_t got_id, uint64_t want_id) {
    posts_++;
    if (got_id != want_id) {
      Fail("QP " + std::to_string(&q - qps_.data()) + " assigned wr_id " +
           std::to_string(got_id) + ", model " + std::to_string(want_id));
    }
  }

  // "wr <id> <status> <READ bytes, or ->".
  static std::string Describe(uint64_t wr_id, WcStatus status,
                              const std::string* bytes) {
    return "wr " + std::to_string(wr_id) + " " +
           std::string(WcStatusName(status)) + " " +
           (bytes == nullptr ? std::string("-") : "\"" + *bytes + "\"");
  }

  // Runs until nothing is in flight and compares every CQ with the model.
  void Quiesce() {
    sim_.RunUntilIdle();
    Log([] { return std::string("quiesce"); });
    for (size_t i = 0; i < qps_.size(); ++i) {
      Qp& q = qps_[i];
      std::deque<ReferenceRcModel::Expected>& want = model_.cq(q.model);
      Completion c;
      while (q.qp->PollCq(&c)) {
        if (want.empty()) {
          return Fail("QP " + std::to_string(i) + " completed wr " +
                      std::to_string(c.wr_id) + " the model did not");
        }
        const ReferenceRcModel::Expected& e = want.front();
        const std::string* want_bytes = e.read_data ? &*e.read_data : nullptr;
        if (c.wr_id != e.wr_id || c.status != e.status ||
            (c.read_data == nullptr) != (want_bytes == nullptr) ||
            (want_bytes != nullptr && *c.read_data != *want_bytes)) {
          return Fail("QP " + std::to_string(i) + ": fabric completed " +
                      Describe(c.wr_id, c.status, c.read_data.get()) +
                      ", model " + Describe(e.wr_id, e.status, want_bytes));
        }
        statuses_[static_cast<size_t>(c.status)]++;
        want.pop_front();
      }
      if (!want.empty()) {
        return Fail("QP " + std::to_string(i) + " never completed wr " +
                    std::to_string(want.front().wr_id));
      }
      if (chunky_) {
        CompareRegions(q);
      }
      if (q.qp->Outstanding() != 0) {
        return Fail("QP " + std::to_string(i) + " idle with WRs outstanding");
      }
      if (q.qp->in_error_state() != model_.in_error(q.model)) {
        return Fail("QP " + std::to_string(i) + " error state differs");
      }
    }
  }

  // Reads every live region of `q` locally against the model's bytes, a
  // piece at a time.
  void CompareRegions(const Qp& q) {
    constexpr uint64_t kPiece = 64 << 10;
    for (const auto& [rkey, size] : q.live) {
      const std::string* want = model_.bytes(rkey);
      for (uint64_t offset = 0; offset < size; offset += kPiece) {
        const uint64_t len = std::min(kPiece, size - offset);
        auto got = fabric_.ReadRegion(q.remote, rkey, offset, len);
        if (!got.ok() || want == nullptr ||
            std::string_view(*want).substr(offset, len) != *got) {
          return Fail(Name(q) + " rkey " + std::to_string(rkey) +
                      " reads back other bytes than the model's at " +
                      std::to_string(offset));
        }
      }
    }
  }

  // Whether two regions share chunk storage now.
  bool SharesChunks() const {
    const uint64_t resident =
        fabric_.ResidentRegionBytes(2) + fabric_.ResidentRegionBytes(3);
    return fabric_.HostRegionBytes() < resident;
  }

  // A local write into one of the QP's live regions.
  void LocalWrite(Qp* q) {
    if (q->live.empty()) {
      return;
    }
    const auto [rkey, size] = q->live[rng_.Uniform(q->live.size())];
    auto [offset, len] = PickChunkyRange(size);
    const std::string data = Payload(len);
    Log([&] { return "local write " + Name(*q) + Range(rkey, offset, len); });
    if (!fabric_.WriteRegion(q->remote, rkey, offset, data).ok()) {
      return Fail("local write into a live region failed");
    }
    model_.WriteRegion(rkey, offset, data);
  }

  // A local copy between two same-sized live regions on the QP's target.
  void LocalCopy(Qp* q) {
    std::vector<std::pair<RKey, uint64_t>> live;
    for (const Qp& each : qps_) {
      if (each.remote == q->remote) {
        live.insert(live.end(), each.live.begin(), each.live.end());
      }
    }
    if (live.size() < 2) {
      return;
    }
    const auto [src, size] = live[rng_.Uniform(live.size())];
    std::erase_if(live, [src, size](const std::pair<RKey, uint64_t>& each) {
      return each.first == src || each.second != size;
    });
    if (live.empty()) {
      return;
    }
    const RKey dst = live[rng_.Uniform(live.size())].first;
    Log([&] {
      return "copy rkey " + std::to_string(src) + " to " + std::to_string(dst);
    });
    if (!fabric_.CopyRegion(q->remote, src, dst).ok()) {
      return Fail("copying between live regions failed");
    }
    model_.CopyRegion(src, dst);
  }

  // sqlite's circular WAL: an owned image of a whole live region, which
  // the region adopts chunk by chunk, then one record overwritten in place
  // in each chunk after the first. Each overwrite copies its chunk, so the
  // image stays alive behind chunk 0 alone.
  void CircularWal(Qp* q) {
    if (q->live.empty()) {
      return;
    }
    const auto [rkey, size] = q->live[rng_.Uniform(q->live.size())];
    const std::string image = Payload(size);
    Log([&] { return "image " + Name(*q) + Range(rkey, 0, size); });
    Expect(*q,
           q->qp->PostWrite(QueuePair::WriteOp(rkey, 0, SharedBytes(image))),
           model_.PostWrite(q->model, rkey, 0, image));
    for (uint64_t chunk = kChunk; chunk < size; chunk += kChunk) {
      const uint64_t len = rng_.UniformRange(1, 16);
      const uint64_t offset =
          chunk + rng_.Uniform(std::min(kChunk, size - chunk) - len + 1);
      const std::string record = Payload(len);
      Log([&] { return "overwrite " + Name(*q) + Range(rkey, offset, len); });
      Expect(*q, q->qp->PostWrite(MakeWrite(rkey, offset, record)),
             model_.PostWrite(q->model, rkey, offset, record));
    }
  }

  // One change while nothing is in flight.
  void Reconfigure() {
    Qp& q = qps_[rng_.Uniform(qps_.size())];
    const NodeId target = rng_.Bernoulli(0.5) ? 2 : 3;
    switch (rng_.Uniform(8)) {
      case 0:
        Log([&] { return "crash node " + std::to_string(target); });
        if (fabric_.IsAlive(target)) {
          fabric_.CrashNode(target);
          model_.Crash(target);
          for (Qp& each : qps_) {
            if (each.remote == target) {
              KillAll(&each);
            }
          }
        }
        break;
      case 1:
        Log([&] { return "restart node " + std::to_string(target); });
        fabric_.RestartNode(target);
        model_.Restart(target);
        break;
      case 2:
      case 3:
      case 4:
        ChangeRegion(&q);
        break;
      case 5:
        Register(&q);
        break;
      case 6: {
        const bool cut = !fabric_.IsPartitioned(q.local, q.remote);
        Log([&] { return (cut ? "partition " : "heal ") + Name(q); });
        fabric_.SetPartitioned(q.local, q.remote, cut);
        model_.SetPartitioned(q.local, q.remote, cut);
        break;
      }
      default:
        Open(&q);
        break;
    }
    if (chunky_) {
      // Then a local write or copy, or a circular-WAL round, on a live
      // region of the same QP.
      switch (rng_.Uniform(3)) {
        case 0:
          LocalWrite(&q);
          break;
        case 1:
          LocalCopy(&q);
          break;
        default:
          CircularWal(&q);
          break;
      }
      shared_phases_ += SharesChunks() ? 1 : 0;
    }
    // A QP in error flushes everything; most get a fresh QP.
    for (Qp& each : qps_) {
      if (each.qp->in_error_state() && rng_.Bernoulli(0.7)) {
        Open(&each);
      }
    }
  }

  void KillAll(Qp* q) {
    for (const auto& [rkey, size] : q->live) {
      q->dead.push_back(rkey);
    }
    q->live.clear();
  }

  // Invalidates, deregisters or recycles one of the QP's live regions.
  void ChangeRegion(Qp* q) {
    if (q->live.empty()) {
      return;
    }
    const size_t pick = rng_.Uniform(q->live.size());
    const auto [rkey, size] = q->live[pick];
    q->live.erase(q->live.begin() + static_cast<std::ptrdiff_t>(pick));
    q->dead.push_back(rkey);
    model_.KillRegion(rkey);
    const uint64_t how = rng_.Uniform(3);
    Log([&] {
      return std::string(how == 0 ? "invalidate " : how == 1 ? "deregister "
                                                              : "recycle ") +
             Name(*q) + " rkey " + std::to_string(rkey);
    });
    switch (how) {
      case 0:
        if (!fabric_.InvalidateRegion(q->remote, rkey).ok()) {
          Fail("invalidating a live region failed");
        }
        break;
      case 1:
        if (!fabric_.DeregisterRegion(q->remote, rkey).ok()) {
          Fail("deregistering a live region failed");
        }
        break;
      default: {
        auto fresh = fabric_.RecycleRegion(q->remote, rkey);
        if (!fresh.ok()) {
          Fail("recycling a live region failed");
        } else if (!model_.AddRegion(q->remote, *fresh, size)) {
          Fail("recycled rkey " + std::to_string(*fresh) + " issued twice");
        } else {
          q->live.emplace_back(*fresh, size);
        }
        break;
      }
    }
  }

  void Fail(std::string what) {
    if (error_.empty()) {
      error_ = std::move(what);
    }
  }

  Rng rng_;
  Simulation sim_;
  SimParams params_;
  Fabric fabric_;
  ReferenceRcModel model_;
  std::string* trace_;
  bool chunky_;
  std::vector<Qp> qps_;
  std::string error_;
  uint64_t posts_ = 0;
  std::array<uint64_t, 4> statuses_{};
  uint64_t shared_phases_ = 0;
};

TEST(RcReferenceTest, FabricMatchesReferenceModel) {
  uint64_t posts = 0;
  std::array<uint64_t, 4> statuses{};
  for (uint64_t seed = 1; seed <= kSequences; ++seed) {
    Sequence sequence(seed, nullptr);
    const std::string error = sequence.Run();
    if (!error.empty()) {
      std::string trace;
      Sequence(seed, &trace).Run();
      FAIL() << "sequence seed " << seed << ": " << error << "\n" << trace;
    }
    posts += sequence.posts();
    for (size_t i = 0; i < statuses.size(); ++i) {
      statuses[i] += sequence.statuses()[i];
    }
  }
  // The schedules reach every outcome the model knows.
  EXPECT_GT(posts, 100000u);
  for (size_t i = 0; i < statuses.size(); ++i) {
    EXPECT_GT(statuses[i], 1000u)
        << WcStatusName(static_cast<WcStatus>(i)) << " too rare";
  }
}

TEST(RcReferenceTest, ChunkedRegionsMatchReferenceModel) {
  uint64_t posts = 0;
  uint64_t shared_phases = 0;
  for (uint64_t seed = 1; seed <= kChunkySequences; ++seed) {
    Sequence sequence(seed, nullptr, /*chunky=*/true);
    const std::string error = sequence.Run();
    if (!error.empty()) {
      std::string trace;
      Sequence(seed, &trace, /*chunky=*/true).Run();
      FAIL() << "chunky sequence seed " << seed << ": " << error << "\n"
             << trace;
    }
    posts += sequence.posts();
    shared_phases += sequence.shared_phases();
  }
  EXPECT_GT(posts, 1500u);
  // Copies share adopted chunks often enough to be exercised.
  EXPECT_GT(shared_phases, 20u);

  // The circular WAL's host cost, on a fabric of its own: after the
  // overwrites only chunk 0 adopts the image, but the whole image stays
  // alive behind it, beside the two copied chunks.
  Simulation sim;
  SimParams params;
  Fabric fabric(&sim, &params);
  const NodeId app = fabric.AddNode("app");
  const NodeId peer = fabric.AddNode("peer");
  auto rkey = fabric.RegisterRegion(peer, 3 * kChunk);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric, app, peer);
  qp.PostWrite({*rkey, 0, SharedBytes(std::string(3 * kChunk, 'i'))});
  qp.PostWrite(*rkey, kChunk + 7, "record-1");
  qp.PostWrite(*rkey, 2 * kChunk + 7, "record-2");
  sim.RunUntilIdle();
  Completion c;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(qp.PollCq(&c));
    EXPECT_EQ(c.status, WcStatus::kSuccess);
  }
  EXPECT_EQ(*fabric.ReadRegion(peer, *rkey, kChunk + 7, 8), "record-1");
  EXPECT_EQ(fabric.ResidentRegionBytes(peer), 3 * kChunk);
  EXPECT_EQ(fabric.HostRegionBytes(), 5 * kChunk);
}

}  // namespace
}  // namespace splitft
