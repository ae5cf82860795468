// Property-based fuzzing of the NCL layer: seeded random schedules of
// appends, overwrites, truncates, peer crashes/restarts/revocations, and
// application crash/recover cycles, checked against a reference model of
// the file contents. As long as failures stay within the budget between
// operations (replacements keep the quorum alive), every acknowledged
// operation must be recovered exactly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/controller/controller.h"
#include "src/ncl/ncl_client.h"
#include "src/ncl/peer.h"
#include "src/ncl/peer_directory.h"
#include "src/rdma/fabric.h"
#include "src/sim/params.h"
#include "src/sim/simulation.h"

namespace splitft {
namespace {

constexpr uint64_t kCapacity = 32 << 10;

class NclFuzzFixture {
 public:
  explicit NclFuzzFixture(int num_peers)
      : fabric_(&sim_, &params_), controller_(&sim_, &params_) {
    app_node_ = fabric_.AddNode("app");
    for (int i = 0; i < num_peers; ++i) {
      peers_.push_back(std::make_unique<LogPeer>(
          "p" + std::to_string(i), &fabric_, &controller_, 64ull << 20));
      EXPECT_TRUE(peers_.back()->Start().ok());
      directory_.Register(peers_.back().get());
    }
  }

  std::unique_ptr<NclClient> MakeClient() {
    NclConfig config;
    config.app_id = "fuzz-app";
    config.default_capacity = kCapacity;
    return std::make_unique<NclClient>(config, &fabric_, &controller_,
                                       &directory_, app_node_);
  }

  Simulation sim_;
  SimParams params_;
  Fabric fabric_;
  Controller controller_;
  PeerDirectory directory_;
  std::vector<std::unique_ptr<LogPeer>> peers_;
  NodeId app_node_;
};

// Reference model: a plain string mirroring what the file should contain.
struct Reference {
  std::string content;

  void Append(std::string_view data) { content += data; }
  void Write(uint64_t offset, std::string_view data) {
    if (content.size() < offset + data.size()) {
      content.resize(offset + data.size(), '\0');
    }
    content.replace(offset, data.size(), data);
  }
  void Truncate() { content.clear(); }
};

std::string RandomPayload(Rng* rng) {
  size_t len = 1 + rng->Uniform(200);
  std::string out(len, '\0');
  for (char& c : out) {
    c = static_cast<char>('a' + rng->Uniform(26));
  }
  return out;
}

// One full fuzz episode for a given seed. Peer crashes are throttled so a
// majority always survives between operations (replacement restores the
// budget); app crashes trigger recovery and an exact content comparison.
void RunEpisode(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Rng rng(seed);
  NclFuzzFixture fixture(5 + static_cast<int>(rng.Uniform(3)));

  auto client = fixture.MakeClient();
  auto file = client->Create("/fuzz-log");
  ASSERT_TRUE(file.ok());
  Reference reference;
  int crashes_since_op = 0;

  const int ops = 60;
  for (int i = 0; i < ops; ++i) {
    int action = static_cast<int>(rng.Uniform(100));
    if (action < 45) {
      // Append (bounded by capacity).
      std::string payload = RandomPayload(&rng);
      if (reference.content.size() + payload.size() > kCapacity) {
        continue;
      }
      ASSERT_TRUE((*file)->Append(payload).ok());
      reference.Append(payload);
      crashes_since_op = 0;
    } else if (action < 65) {
      // Positional overwrite (circular-log style).
      if (reference.content.empty()) {
        continue;
      }
      std::string payload = RandomPayload(&rng);
      uint64_t offset = rng.Uniform(reference.content.size());
      if (offset + payload.size() > kCapacity) {
        continue;
      }
      ASSERT_TRUE((*file)->Write(offset, payload).ok());
      reference.Write(offset, payload);
      crashes_since_op = 0;
    } else if (action < 72) {
      ASSERT_TRUE((*file)->Truncate().ok());
      reference.Truncate();
      crashes_since_op = 0;
    } else if (action < 82 && crashes_since_op == 0) {
      // Fail one currently-assigned peer (crash or revocation); the next
      // operation will detect it and replace it. Keep enough peers alive
      // that a replacement is always possible — otherwise unavailability
      // is the *correct* outcome and exactness cannot be asserted.
      int alive = 0;
      for (const auto& peer : fixture.peers_) {
        if (peer->alive()) {
          alive++;
        }
      }
      const auto& names = (*file)->peer_names();
      std::string victim = names[rng.Uniform(names.size())];
      LogPeer* peer = fixture.directory_.Lookup(victim);
      if (peer != nullptr && peer->alive()) {
        if (rng.Bernoulli(0.3)) {
          // NotFound when the peer never held the region is expected.
          DiscardStatus(ObsContext{}, peer->Revoke("fuzz-app", "/fuzz-log"),
                        "fuzz revoke");
          crashes_since_op = 1;
        } else if (alive > 4 || rng.Bernoulli(0.5)) {
          peer->Crash();
          // Restart unconditionally when the pool is running low.
          if (alive <= 4 || rng.Bernoulli(0.5)) {
            ASSERT_TRUE(peer->Restart().ok());
          }
          crashes_since_op = 1;
        }
      }
    } else if (action < 90) {
      // App crash + recovery: the moment of truth.
      file->reset();
      fixture.sim_.RunUntilIdle();
      client = fixture.MakeClient();
      file = client->Recover("/fuzz-log");
      ASSERT_TRUE(file.ok()) << "recovery failed at op " << i;
      ASSERT_EQ((*file)->size(), reference.content.size());
      auto recovered = (*file)->Read(0, (*file)->size());
      ASSERT_TRUE(recovered.ok());
      ASSERT_EQ(*recovered, reference.content)
          << "content mismatch after recovery at op " << i;
      crashes_since_op = 0;
    } else {
      // Let in-flight traffic and background events drain.
      fixture.sim_.RunUntil(fixture.sim_.Now() + Millis(rng.Uniform(50)));
    }
  }

  // Final recovery must reproduce the reference exactly.
  file->reset();
  fixture.sim_.RunUntilIdle();
  client = fixture.MakeClient();
  file = client->Recover("/fuzz-log");
  ASSERT_TRUE(file.ok());
  auto recovered = (*file)->Read(0, (*file)->size());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, reference.content);

  // And the file can be deleted cleanly, freeing all regions.
  ASSERT_TRUE((*file)->Delete().ok());
  EXPECT_FALSE(client->Exists("/fuzz-log"));
}

class NclFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NclFuzz, RandomScheduleRecoversExactly) { RunEpisode(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Seeds, NclFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233, 377, 610, 987));

// Diff catch-up must satisfy the same property.
TEST(NclFuzzDiffCatchup, RandomScheduleRecoversExactly) {
  for (uint64_t seed : {401ull, 402ull, 403ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    NclFuzzFixture fixture(5);
    NclConfig config;
    config.app_id = "fuzz-app";
    config.default_capacity = kCapacity;
    config.diff_catchup = true;
    auto client = std::make_unique<NclClient>(config, &fixture.fabric_,
                                              &fixture.controller_,
                                              &fixture.directory_,
                                              fixture.app_node_);
    auto file = client->Create("/fuzz-log");
    ASSERT_TRUE(file.ok());
    Reference reference;
    for (int i = 0; i < 30; ++i) {
      std::string payload = RandomPayload(&rng);
      if (reference.content.size() + payload.size() > kCapacity) {
        break;
      }
      ASSERT_TRUE((*file)->Append(payload).ok());
      reference.Append(payload);
      if (i % 7 == 6) {
        file->reset();
        fixture.sim_.RunUntilIdle();
        client = std::make_unique<NclClient>(config, &fixture.fabric_,
                                             &fixture.controller_,
                                             &fixture.directory_,
                                             fixture.app_node_);
        file = client->Recover("/fuzz-log");
        ASSERT_TRUE(file.ok());
        auto recovered = (*file)->Read(0, (*file)->size());
        ASSERT_TRUE(recovered.ok());
        ASSERT_EQ(*recovered, reference.content);
      }
    }
  }
}

}  // namespace
}  // namespace splitft
