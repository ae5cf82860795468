#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/shared_bytes.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/rdma/fabric.h"
#include "src/sim/params.h"
#include "src/sim/simulation.h"

namespace splitft {
namespace {

class RdmaTest : public ::testing::Test {
 protected:
  RdmaTest() : fabric_(&sim_, &params_, ObsContext{&metrics_, nullptr}) {
    app_ = fabric_.AddNode("app");
    peer_ = fabric_.AddNode("peer1");
  }

  // Pumps the simulation until a completion is available on `qp`.
  Completion WaitCompletion(QueuePair* qp) {
    Completion c;
    EXPECT_TRUE(sim_.RunUntilPredicate([&] { return qp->PollCq(&c); }));
    return c;
  }

  // Current value of the "fabric.wr.<counter>" registry counter.
  uint64_t Wr(const std::string& counter) const {
    return metrics_.CounterValue("fabric.wr." + counter);
  }

  static constexpr int kChainWrs = 8;

  struct PostCost {
    SimTime post;
    uint64_t doorbells;
  };

  // Runs `post` on a fresh QP and returns the virtual time the posting took
  // and the doorbells it rang.
  template <typename Post>
  PostCost MeasurePost(Post&& post) {
    QueuePair qp(&fabric_, app_, peer_);
    uint64_t doorbells_before = Wr("doorbells");
    SimTime t0 = sim_.Now();
    post(qp);
    PostCost cost{sim_.Now() - t0, Wr("doorbells") - doorbells_before};
    sim_.RunUntilIdle();
    return cost;
  }

  // One kChainWrs-WR PostWriteBatch chain.
  PostCost MeasureChain(RKey rkey) {
    return MeasurePost([&](QueuePair& qp) {
      std::vector<QueuePair::WriteOp> ops(kChainWrs, {rkey, 0, "x"});
      qp.PostWriteBatch(ops);
    });
  }

  // kChainWrs single PostWrite calls.
  PostCost MeasureSingles(RKey rkey) {
    return MeasurePost([&](QueuePair& qp) {
      for (int i = 0; i < kChainWrs; ++i) {
        qp.PostWrite(rkey, 0, "x");
      }
    });
  }

  Simulation sim_;
  SimParams params_;
  MetricsRegistry metrics_;
  Fabric fabric_;
  NodeId app_;
  NodeId peer_;
};

TEST_F(RdmaTest, RegisterAndAccessRegion) {
  auto rkey = fabric_.RegisterRegion(peer_, 1024);
  ASSERT_TRUE(rkey.ok());
  auto size = fabric_.RegionSize(peer_, *rkey);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 1024u);
  auto bytes = fabric_.ReadRegion(peer_, *rkey, 0, 1024);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, std::string(1024, '\0'));
}

TEST_F(RdmaTest, RegistrationChargesVirtualTime) {
  SimTime before = sim_.Now();
  ASSERT_TRUE(fabric_.RegisterRegion(peer_, 60ull * 1024 * 1024).ok());
  EXPECT_GT(sim_.Now() - before, Millis(10));
}

TEST_F(RdmaTest, OneSidedWriteLandsInRemoteMemory) {
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  uint64_t id = qp.PostWrite(*rkey, 8, "hello");
  Completion c = WaitCompletion(&qp);
  EXPECT_EQ(c.wr_id, id);
  EXPECT_EQ(c.status, WcStatus::kSuccess);
  auto bytes = fabric_.ReadRegion(peer_, *rkey, 8, 5);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "hello");
}

TEST_F(RdmaTest, OneSidedReadReturnsData) {
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  ASSERT_TRUE(fabric_.WriteRegion(peer_, *rkey, 0, "data").ok());
  QueuePair qp(&fabric_, app_, peer_);
  qp.PostRead(*rkey, 0, 4);
  Completion c = WaitCompletion(&qp);
  EXPECT_EQ(c.status, WcStatus::kSuccess);
  ASSERT_NE(c.read_data, nullptr);
  EXPECT_EQ(*c.read_data, "data");
}

// A WRITE's completion carries no READ bytes at all: the record a CQ moves
// stays small.
TEST_F(RdmaTest, WriteCompletionCarriesNoReadBuffer) {
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  qp.PostWrite(*rkey, 0, "data");
  Completion c = WaitCompletion(&qp);
  EXPECT_EQ(c.status, WcStatus::kSuccess);
  EXPECT_EQ(c.read_data, nullptr);
}

TEST_F(RdmaTest, SendQueueOrderingPreserved) {
  auto rkey = fabric_.RegisterRegion(peer_, 16);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  // Post several writes to the same offset; SQ ordering means the last one
  // posted must be the final value, and completions surface in post order.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(qp.PostWrite(*rkey, 0, std::string(1, 'a' + i)));
  }
  for (int i = 0; i < 5; ++i) {
    Completion c = WaitCompletion(&qp);
    EXPECT_EQ(c.wr_id, ids[i]) << "completion out of post order";
    EXPECT_EQ(c.status, WcStatus::kSuccess);
  }
  EXPECT_EQ(*fabric_.ReadRegion(peer_, *rkey, 0, 1), "e");
}

// RC order holds across kinds: a READ costs a round trip and a WRITE one
// way, but a WRITE posted behind a READ still executes after it, so the
// READ returns the bytes from before the WRITE and completes first.
TEST_F(RdmaTest, ReadThenWriteOnOneQpExecutesInPostOrder) {
  auto rkey = fabric_.RegisterRegion(peer_, 16);
  ASSERT_TRUE(rkey.ok());
  ASSERT_TRUE(fabric_.WriteRegion(peer_, *rkey, 0, "old").ok());
  QueuePair qp(&fabric_, app_, peer_);
  uint64_t read = qp.PostRead(*rkey, 0, 3);
  uint64_t write = qp.PostWrite(*rkey, 0, "new");
  Completion first = WaitCompletion(&qp);
  EXPECT_EQ(first.wr_id, read) << "completion out of post order";
  EXPECT_EQ(first.status, WcStatus::kSuccess);
  ASSERT_NE(first.read_data, nullptr);
  EXPECT_EQ(*first.read_data, "old");
  Completion second = WaitCompletion(&qp);
  EXPECT_EQ(second.wr_id, write);
  EXPECT_EQ(second.status, WcStatus::kSuccess);
  EXPECT_EQ(*fabric_.ReadRegion(peer_, *rkey, 0, 3), "new");
}

TEST_F(RdmaTest, BatchedWritesCompleteInOrderWithOneDoorbell) {
  auto rkey = fabric_.RegisterRegion(peer_, 16);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  uint64_t doorbells_before = Wr("doorbells");
  std::vector<std::string> payloads;
  for (int i = 0; i < 4; ++i) {
    payloads.push_back(std::string(1, 'a' + i));
  }
  std::vector<QueuePair::WriteOp> ops;
  for (const std::string& p : payloads) {
    ops.push_back({*rkey, 0, p});
  }
  std::vector<uint64_t> ids = qp.PostWriteBatch(std::move(ops));
  ASSERT_EQ(ids.size(), 4u);
  // One doorbell rings for the whole chain.
  EXPECT_EQ(Wr("doorbells") - doorbells_before, 1u);
  for (int i = 0; i < 4; ++i) {
    Completion c = WaitCompletion(&qp);
    EXPECT_EQ(c.wr_id, ids[i]) << "completion out of post order";
    EXPECT_EQ(c.status, WcStatus::kSuccess);
  }
  // SQ ordering: the last WR in the chain wrote last.
  EXPECT_EQ(*fabric_.ReadRegion(peer_, *rkey, 0, 1), "d");
}

TEST_F(RdmaTest, DoorbellBatchingReducesPostCost) {
  // A chain pays post_overhead once plus the marginal chaining cost per
  // extra WR; single posts pay full post_overhead each.
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  PostCost batched = MeasureChain(*rkey);
  PostCost singles = MeasureSingles(*rkey);
  const RdmaParams& rdma = params_.rdma;
  EXPECT_EQ(batched.post,
            rdma.post_overhead + (kChainWrs - 1) * rdma.batched_wr_overhead);
  EXPECT_EQ(singles.post, kChainWrs * rdma.post_overhead);
  EXPECT_LT(batched.post * 2, singles.post);
}

TEST_F(RdmaTest, UnbatchedPostingRingsOneDoorbellPerWr) {
  // Single posts ring a doorbell per WR; the same WRs as one chain ring one.
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  EXPECT_EQ(MeasureSingles(*rkey).doorbells,
            static_cast<uint64_t>(kChainWrs));
  EXPECT_EQ(MeasureChain(*rkey).doorbells, 1u);
}

TEST_F(RdmaTest, WriteBeyondRegionFails) {
  auto rkey = fabric_.RegisterRegion(peer_, 16);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  qp.PostWrite(*rkey, 12, "too-long-payload");
  Completion c = WaitCompletion(&qp);
  EXPECT_EQ(c.status, WcStatus::kRemoteAccessError);
}

TEST_F(RdmaTest, InvalidatedRegionRejectsWrites) {
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  ASSERT_TRUE(fabric_.InvalidateRegion(peer_, *rkey).ok());
  QueuePair qp(&fabric_, app_, peer_);
  qp.PostWrite(*rkey, 0, "x");
  Completion c = WaitCompletion(&qp);
  EXPECT_EQ(c.status, WcStatus::kRemoteAccessError);
  // Local access also fails after revocation.
  EXPECT_FALSE(fabric_.ReadRegion(peer_, *rkey, 0, 1).ok());
}

TEST_F(RdmaTest, CrashWipesMemoryAndInvalidatesRkeys) {
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  qp.PostWrite(*rkey, 0, "will-be-lost");
  WaitCompletion(&qp);

  fabric_.CrashNode(peer_);
  EXPECT_FALSE(fabric_.IsAlive(peer_));
  fabric_.RestartNode(peer_);
  EXPECT_TRUE(fabric_.IsAlive(peer_));
  // Old rkey is gone even after restart: DRAM is volatile.
  EXPECT_FALSE(fabric_.ReadRegion(peer_, *rkey, 0, 1).ok());
}

TEST_F(RdmaTest, WriteToCrashedNodeFailsAndQpEntersErrorState) {
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  fabric_.CrashNode(peer_);
  qp.PostWrite(*rkey, 0, "x");
  Completion c = WaitCompletion(&qp);
  EXPECT_EQ(c.status, WcStatus::kRetryExceeded);
  EXPECT_TRUE(qp.in_error_state());
  // Subsequent WRs are flushed with errors (ibverbs semantics).
  qp.PostWrite(*rkey, 0, "y");
  c = WaitCompletion(&qp);
  EXPECT_EQ(c.status, WcStatus::kFlushError);
}

TEST_F(RdmaTest, PartitionMakesWritesFail) {
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  fabric_.SetPartitioned(app_, peer_, true);
  qp.PostWrite(*rkey, 0, "x");
  Completion c = WaitCompletion(&qp);
  EXPECT_EQ(c.status, WcStatus::kRetryExceeded);
  // Unlike a crash, a partition does not wipe memory.
  fabric_.SetPartitioned(app_, peer_, false);
  EXPECT_TRUE(fabric_.ReadRegion(peer_, *rkey, 0, 1).ok());
}

TEST_F(RdmaTest, InFlightWriteSurvivesInitiatorCrash) {
  // The application posts a WR and "crashes" (QueuePair destroyed) before
  // the WR completes. The data must still land on the peer — this is the
  // mechanism behind the divergent-peer scenario of Fig 7(i).
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  {
    QueuePair qp(&fabric_, app_, peer_);
    qp.PostWrite(*rkey, 0, "landed");
    // Destroy the QP without polling: app crash.
  }
  sim_.RunUntilIdle();
  auto bytes = fabric_.ReadRegion(peer_, *rkey, 0, 6);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "landed");
}

TEST_F(RdmaTest, WriteLatencyMatchesModel) {
  auto rkey = fabric_.RegisterRegion(peer_, 4096);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  SimTime start = sim_.Now();
  qp.PostWrite(*rkey, 0, std::string(128, 'x'));
  WaitCompletion(&qp);
  SimTime elapsed = sim_.Now() - start;
  // One 128 B WR: ~1.3 us fabric latency + payload + post overhead.
  EXPECT_GT(elapsed, Micros(1.0));
  EXPECT_LT(elapsed, Micros(3.0));
}

TEST_F(RdmaTest, StatsAccumulate) {
  auto rkey = fabric_.RegisterRegion(peer_, 1024);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  qp.PostWrite(*rkey, 0, std::string(100, 'x'));
  qp.PostRead(*rkey, 0, 50);
  sim_.RunUntilIdle();
  EXPECT_EQ(Wr("writes_posted"), 1u);
  EXPECT_EQ(Wr("reads_posted"), 1u);
  EXPECT_EQ(Wr("write_bytes"), 100u);
  EXPECT_EQ(Wr("read_bytes"), 50u);
}

TEST_F(RdmaTest, DeregisterFreesRegion) {
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  ASSERT_TRUE(fabric_.DeregisterRegion(peer_, *rkey).ok());
  EXPECT_FALSE(fabric_.ReadRegion(peer_, *rkey, 0, 1).ok());
  EXPECT_EQ(fabric_.DeregisterRegion(peer_, *rkey).code(),
            StatusCode::kNotFound);
}

// ------------------------------------------------- On-demand region memory --

constexpr uint64_t kChunk = Fabric::kRegionChunkBytes;

TEST_F(RdmaTest, NeverWrittenRangeReadsZeros) {
  auto rkey = fabric_.RegisterRegion(peer_, 3 * kChunk);
  ASSERT_TRUE(rkey.ok());
  ASSERT_TRUE(fabric_.WriteRegion(peer_, *rkey, kChunk, "x").ok());
  // Locally: untouched chunks on both sides of the written one.
  EXPECT_EQ(*fabric_.ReadRegion(peer_, *rkey, 0, 64), std::string(64, '\0'));
  EXPECT_EQ(*fabric_.ReadRegion(peer_, *rkey, 2 * kChunk + 8, 64),
            std::string(64, '\0'));
  // Remotely: a READ WR spanning a missing and a materialized chunk.
  QueuePair qp(&fabric_, app_, peer_);
  qp.PostRead(*rkey, kChunk - 4, 6);
  Completion c = WaitCompletion(&qp);
  ASSERT_EQ(c.status, WcStatus::kSuccess);
  ASSERT_NE(c.read_data, nullptr);
  EXPECT_EQ(*c.read_data, std::string("\0\0\0\0x\0", 6));
}

// A READ into a landing buffer replaces its stale bytes with exactly the
// region's, zeros for never-written chunks included, and keeps its heap
// block when the block has the room.
TEST_F(RdmaTest, ReadIntoLandingBufferReplacesStaleBytes) {
  auto rkey = fabric_.RegisterRegion(peer_, 3 * kChunk);
  ASSERT_TRUE(rkey.ok());
  ASSERT_TRUE(fabric_.WriteRegion(peer_, *rkey, kChunk, "x").ok());
  std::string landing(2 * kChunk + 64, 's');
  const char* block = landing.data();
  QueuePair qp(&fabric_, app_, peer_);
  qp.PostRead(*rkey, kChunk - 4, 6, std::move(landing));
  Completion c = WaitCompletion(&qp);
  ASSERT_EQ(c.status, WcStatus::kSuccess);
  ASSERT_NE(c.read_data, nullptr);
  EXPECT_EQ(*c.read_data, std::string("\0\0\0\0x\0", 6));
  EXPECT_EQ(c.read_data->data(), block);
  // A landing buffer too small for the read grows to hold it.
  qp.PostRead(*rkey, 0, kChunk + 1, std::string(3, 's'));
  c = WaitCompletion(&qp);
  ASSERT_EQ(c.status, WcStatus::kSuccess);
  ASSERT_NE(c.read_data, nullptr);
  EXPECT_EQ(*c.read_data, std::string(kChunk, '\0') + "x");
}

TEST_F(RdmaTest, WriteSpanningChunkBoundaryReadsBackIntact) {
  auto rkey = fabric_.RegisterRegion(peer_, 2 * kChunk);
  ASSERT_TRUE(rkey.ok());
  std::string payload(5000, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + i % 26);
  }
  QueuePair qp(&fabric_, app_, peer_);
  qp.PostWrite(*rkey, kChunk - 1000, payload);
  ASSERT_EQ(WaitCompletion(&qp).status, WcStatus::kSuccess);
  EXPECT_EQ(*fabric_.ReadRegion(peer_, *rkey, kChunk - 1000, payload.size()),
            payload);
  qp.PostRead(*rkey, kChunk - 1000, payload.size());
  Completion c = WaitCompletion(&qp);
  ASSERT_EQ(c.status, WcStatus::kSuccess);
  ASSERT_NE(c.read_data, nullptr);
  EXPECT_EQ(*c.read_data, payload);
  EXPECT_EQ(fabric_.ResidentRegionBytes(peer_), 2 * kChunk);
}

TEST_F(RdmaTest, TailChunkIsTruncatedToRegionEnd) {
  const uint64_t size = kChunk + 100;
  auto rkey = fabric_.RegisterRegion(peer_, size);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  qp.PostWrite(*rkey, size - 10, "0123456789");  // ends exactly at `size`
  ASSERT_EQ(WaitCompletion(&qp).status, WcStatus::kSuccess);
  // Only the 100-byte tail chunk materialized.
  EXPECT_EQ(fabric_.ResidentRegionBytes(peer_), 100u);
  EXPECT_EQ(*fabric_.ReadRegion(peer_, *rkey, size - 10, 10), "0123456789");
  // One byte past the end fails, remotely and locally.
  qp.PostWrite(*rkey, size - 10, "0123456789A");
  EXPECT_EQ(WaitCompletion(&qp).status, WcStatus::kRemoteAccessError);
  QueuePair qp2(&fabric_, app_, peer_);
  qp2.PostRead(*rkey, size - 10, 11);
  EXPECT_EQ(WaitCompletion(&qp2).status, WcStatus::kRemoteAccessError);
  EXPECT_FALSE(fabric_.WriteRegion(peer_, *rkey, size, "x").ok());
  EXPECT_FALSE(fabric_.ReadRegion(peer_, *rkey, size - 10, 11).ok());
  EXPECT_FALSE(fabric_.ReadRegion(peer_, *rkey, ~uint64_t{0}, 2).ok());
}

TEST_F(RdmaTest, RecycledRegionReadsZerosAndChargesFullMemset) {
  const uint64_t size = 4 * kChunk;
  auto rkey = fabric_.RegisterRegion(peer_, size);
  ASSERT_TRUE(rkey.ok());
  ASSERT_TRUE(fabric_.WriteRegion(peer_, *rkey, 10, "stale").ok());
  SimTime before = sim_.Now();
  auto fresh = fabric_.RecycleRegion(peer_, *rkey);
  ASSERT_TRUE(fresh.ok());
  // The memset is priced by the registered size, not by what was touched.
  EXPECT_EQ(sim_.Now() - before,
            static_cast<SimTime>(static_cast<double>(size) / 12.0));
  EXPECT_FALSE(fabric_.ReadRegion(peer_, *rkey, 0, 1).ok());
  EXPECT_EQ(*fabric_.ReadRegion(peer_, *fresh, 0, 64), std::string(64, '\0'));
  EXPECT_EQ(*fabric_.RegionSize(peer_, *fresh), size);
  EXPECT_EQ(fabric_.ResidentRegionBytes(peer_), 0u);
  // The same slot under a fresh rkey: the old one is dead to the WR path
  // and to a second recycle, and a READ through the new one sees zeros.
  EXPECT_EQ(fabric_.RecycleRegion(peer_, *rkey).status().code(),
            StatusCode::kNotFound);
  QueuePair qp(&fabric_, app_, peer_);
  qp.PostRead(*rkey, 10, 5);
  EXPECT_EQ(WaitCompletion(&qp).status, WcStatus::kRemoteAccessError);
  QueuePair fresh_qp(&fabric_, app_, peer_);
  fresh_qp.PostRead(*fresh, 10, 5);
  Completion c = WaitCompletion(&fresh_qp);
  EXPECT_EQ(c.status, WcStatus::kSuccess);
  ASSERT_NE(c.read_data, nullptr);
  EXPECT_EQ(*c.read_data, std::string(5, '\0'));
}

// --------------------------------------------------------- stale rkeys --
// Regions live in one table whose slots are reused; an rkey names a slot
// and a generation, so a stale rkey must never reach a later region.

TEST_F(RdmaTest, RkeyOfAFreedAndReusedSlotFails) {
  auto old_rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(old_rkey.ok());
  ASSERT_TRUE(fabric_.DeregisterRegion(peer_, *old_rkey).ok());
  // Same node, same size: the new region takes the freed slot.
  auto reused = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(reused.ok());
  ASSERT_NE(*reused, *old_rkey);
  ASSERT_TRUE(fabric_.WriteRegion(peer_, *reused, 0, "live").ok());

  EXPECT_EQ(fabric_.ReadRegion(peer_, *old_rkey, 0, 4).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(fabric_.WriteRegion(peer_, *old_rkey, 0, "x").code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(fabric_.DeregisterRegion(peer_, *old_rkey).code(),
            StatusCode::kNotFound);
  QueuePair qp(&fabric_, app_, peer_);
  qp.PostWrite(*old_rkey, 0, "gone");
  EXPECT_EQ(WaitCompletion(&qp).status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(*fabric_.ReadRegion(peer_, *reused, 0, 4), "live");
}

TEST_F(RdmaTest, RkeyPresentedToAnotherNodeFails) {
  NodeId other = fabric_.AddNode("peer2");
  auto rkey = fabric_.RegisterRegion(peer_, 64);
  ASSERT_TRUE(rkey.ok());
  EXPECT_EQ(fabric_.ReadRegion(other, *rkey, 0, 4).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(fabric_.InvalidateRegion(other, *rkey).code(),
            StatusCode::kNotFound);
  QueuePair qp(&fabric_, app_, other);
  qp.PostRead(*rkey, 0, 4);
  EXPECT_EQ(WaitCompletion(&qp).status, WcStatus::kRemoteAccessError);
  EXPECT_TRUE(fabric_.ReadRegion(peer_, *rkey, 0, 4).ok());
}

TEST_F(RdmaTest, CrashWipesRegionMemory) {
  auto rkey = fabric_.RegisterRegion(peer_, 2 * kChunk);
  ASSERT_TRUE(rkey.ok());
  ASSERT_TRUE(fabric_.WriteRegion(peer_, *rkey, kChunk - 2, "span").ok());
  EXPECT_EQ(fabric_.ResidentRegionBytes(peer_), 2 * kChunk);
  fabric_.CrashNode(peer_);
  fabric_.RestartNode(peer_);
  EXPECT_EQ(fabric_.ResidentRegionBytes(peer_), 0u);
  EXPECT_FALSE(fabric_.ReadRegion(peer_, *rkey, 0, 1).ok());
}

TEST_F(RdmaTest, HugeRegionMaterializesOnlyTouchedChunk) {
  auto rkey = fabric_.RegisterRegion(peer_, uint64_t{1} << 30);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  qp.PostWrite(*rkey, (uint64_t{1} << 29) + 7, std::string(100, 'z'));
  ASSERT_EQ(WaitCompletion(&qp).status, WcStatus::kSuccess);
  EXPECT_LE(fabric_.ResidentRegionBytes(peer_), kChunk);
  EXPECT_GT(fabric_.ResidentRegionBytes(peer_), 0u);
}

TEST_F(RdmaTest, CopyRegionClonesContents) {
  auto src = fabric_.RegisterRegion(peer_, 3 * kChunk);
  auto dst = fabric_.RegisterRegion(peer_, 3 * kChunk);
  auto other = fabric_.RegisterRegion(peer_, kChunk);
  ASSERT_TRUE(src.ok() && dst.ok() && other.ok());
  ASSERT_TRUE(fabric_.WriteRegion(peer_, *src, 2 * kChunk + 5, "tail").ok());
  ASSERT_TRUE(fabric_.WriteRegion(peer_, *dst, 3, "junk").ok());
  ASSERT_TRUE(fabric_.CopyRegion(peer_, *src, *dst).ok());
  EXPECT_EQ(*fabric_.ReadRegion(peer_, *dst, 2 * kChunk + 5, 4), "tail");
  EXPECT_EQ(*fabric_.ReadRegion(peer_, *dst, 0, 16), std::string(16, '\0'));
  EXPECT_FALSE(fabric_.CopyRegion(peer_, *src, *other).ok());
}

// A WRITE that owns its payload lends whole chunks to the region instead
// of copying them; the chunks stay one copy until a write changes one.
TEST_F(RdmaTest, OwnedWholeChunkWriteIsAdoptedAndCopiedOnlyOnChange) {
  auto a = fabric_.RegisterRegion(peer_, 3 * kChunk);
  auto b = fabric_.RegisterRegion(peer_, 3 * kChunk);
  ASSERT_TRUE(a.ok() && b.ok());
  std::string bytes(3 * kChunk - 100, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>('a' + i % 23);
  }
  const SharedBytes image{std::string(bytes)};
  QueuePair qp(&fabric_, app_, peer_);
  // [100, 3 MiB): chunk 0 in part, chunks 1 and 2 whole.
  qp.PostWrite({*a, 100, image});
  qp.PostWrite({*b, 100, image});
  ASSERT_EQ(WaitCompletion(&qp).status, WcStatus::kSuccess);
  ASSERT_EQ(WaitCompletion(&qp).status, WcStatus::kSuccess);
  EXPECT_EQ(fabric_.ResidentRegionBytes(peer_), 6 * kChunk);
  // Each region copied its chunk 0; both hold the image's other chunks,
  // which keep the whole image alive.
  EXPECT_EQ(fabric_.HostRegionBytes(), 2 * kChunk + bytes.size());

  // A partial write into an adopted chunk copies that chunk only.
  qp.PostWrite(*a, kChunk + 10, "new");
  ASSERT_EQ(WaitCompletion(&qp).status, WcStatus::kSuccess);
  EXPECT_EQ(fabric_.HostRegionBytes(), 3 * kChunk + bytes.size());
  std::string want_a = std::string(100, '\0') + bytes;
  want_a.replace(kChunk + 10, 3, "new");
  EXPECT_EQ(*fabric_.ReadRegion(peer_, *a, 0, 3 * kChunk), want_a);
  EXPECT_EQ(*fabric_.ReadRegion(peer_, *b, 100, bytes.size()), bytes);
  // So does a local one.
  ASSERT_TRUE(fabric_.WriteRegion(peer_, *b, 2 * kChunk, "local").ok());
  EXPECT_EQ(fabric_.HostRegionBytes(), 4 * kChunk + bytes.size());
  EXPECT_EQ(*fabric_.ReadRegion(peer_, *a, 2 * kChunk, 5),
            bytes.substr(2 * kChunk - 100, 5));

  // A copy shares the source's adopted chunk and copies its own ones.
  ASSERT_TRUE(fabric_.CopyRegion(peer_, *a, *b).ok());
  EXPECT_EQ(fabric_.HostRegionBytes(), 4 * kChunk + bytes.size());
  EXPECT_EQ(*fabric_.ReadRegion(peer_, *b, 0, 3 * kChunk), want_a);
  // Recycling and a crash drop the references.
  ASSERT_TRUE(fabric_.RecycleRegion(peer_, *a).ok());
  EXPECT_EQ(fabric_.HostRegionBytes(), 2 * kChunk + bytes.size());
  fabric_.CrashNode(peer_);
  EXPECT_EQ(fabric_.HostRegionBytes(), 0u);
}

// ------------------------------------------------------- WR payload pool --

TEST_F(RdmaTest, PayloadPoolDropsOversizedBuffers) {
  // Bulk catch-up posts are larger than the arenas take; keeping their
  // buffers would hold hundreds of megabytes alive after a recovery.
  const size_t largest = Fabric::kArenaPayloadMax;
  const size_t both_blocks =
      Fabric::kPayloadBlockBytes[0] + Fabric::kPayloadBlockBytes[1];
  auto rkey = fabric_.RegisterRegion(peer_, 2 * kChunk);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);
  std::string bulk(2 * largest, 'b');
  for (size_t i = 0; i < 300; ++i) {
    qp.PostWrite(*rkey, 0, bulk);
    ASSERT_EQ(WaitCompletion(&qp).status, WcStatus::kSuccess);
    qp.PostWrite(*rkey, 0, std::string(i % 2 == 0 ? 200 : largest, 's'));
    ASSERT_EQ(WaitCompletion(&qp).status, WcStatus::kSuccess);
  }
  // Each arena holds only its current block: every landed WR freed its
  // bytes, and no bulk buffer stayed behind.
  EXPECT_EQ(fabric_.PooledPayloadBytes(), both_blocks);
  // A burst of WRs in flight spans several blocks; once they land, at most
  // each arena's current block and its spares stay.
  for (size_t i = 0; i < 64; ++i) {
    qp.PostWrite(*rkey, 0, std::string(largest, 's'));
  }
  EXPECT_GT(fabric_.PooledPayloadBytes(),
            (1 + Fabric::kSparePayloadBlocks) * both_blocks);
  sim_.RunUntilIdle();
  EXPECT_LE(fabric_.PooledPayloadBytes(),
            (1 + Fabric::kSparePayloadBlocks) * both_blocks);
  EXPECT_GT(fabric_.PooledPayloadBytes(), 0u);  // small payloads still pool
}

// Parameterized sweep: payload size vs modeled latency monotonicity.
class RdmaLatencySweep : public RdmaTest,
                         public ::testing::WithParamInterface<size_t> {};

TEST_P(RdmaLatencySweep, LatencyGrowsWithPayload) {
  size_t size = GetParam();
  auto rkey = fabric_.RegisterRegion(peer_, 1 << 20);
  ASSERT_TRUE(rkey.ok());
  QueuePair qp(&fabric_, app_, peer_);

  SimTime start = sim_.Now();
  qp.PostWrite(*rkey, 0, std::string(size, 'x'));
  Completion c;
  ASSERT_TRUE(sim_.RunUntilPredicate([&] { return qp.PollCq(&c); }));
  SimTime small_lat = sim_.Now() - start;

  start = sim_.Now();
  qp.PostWrite(*rkey, 0, std::string(size * 4, 'x'));
  ASSERT_TRUE(sim_.RunUntilPredicate([&] { return qp.PollCq(&c); }));
  SimTime big_lat = sim_.Now() - start;

  EXPECT_GT(big_lat, small_lat);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RdmaLatencySweep,
                         ::testing::Values(128, 1024, 8192, 65536));

}  // namespace
}  // namespace splitft
