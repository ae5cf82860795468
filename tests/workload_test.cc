#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/workload/ycsb.h"

namespace splitft {
namespace {

TEST(ZipfianTest, ValuesInRange) {
  ZipfianGenerator gen(1000);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(gen.Next(&rng), 1000u);
  }
}

TEST(ZipfianTest, IsSkewed) {
  ZipfianGenerator gen(10000);
  Rng rng(2);
  std::map<uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    counts[gen.Next(&rng)]++;
  }
  // Rank-0 item should receive a large share (zipf theta=0.99 over 10k
  // items gives roughly 10%); uniform would give 0.01%.
  EXPECT_GT(counts[0], n / 50);
  // And the head dominates the tail.
  int head = 0;
  for (uint64_t i = 0; i < 10; ++i) {
    head += counts[i];
  }
  EXPECT_GT(head, n / 4);
}

TEST(ZipfianTest, GrowingItemCountKeepsRangeValid) {
  ZipfianGenerator gen(100);
  Rng rng(3);
  gen.SetItemCount(200);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(gen.Next(&rng), 200u);
  }
  EXPECT_EQ(gen.item_count(), 200u);
}

TEST(ScrambledZipfianTest, SpreadsHotKeys) {
  ScrambledZipfianGenerator gen(10000);
  Rng rng(4);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) {
    uint64_t v = gen.Next(&rng);
    ASSERT_LT(v, 10000u);
    counts[v]++;
  }
  // The hottest key should not be key 0 systematically (scrambled), but
  // skew must remain: some key is much hotter than the median.
  int max_count = 0;
  for (const auto& [k, c] : counts) {
    max_count = std::max(max_count, c);
  }
  EXPECT_GT(max_count, 500);
}

TEST(LatestTest, FavorsRecentKeys) {
  LatestGenerator gen(10000);
  Rng rng(5);
  int recent = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (gen.Next(&rng) >= 9900) {
      recent++;  // in the newest 1% of keys
    }
  }
  EXPECT_GT(recent, n / 4);
}

TEST(YcsbTest, KeyFormat) {
  std::string key = YcsbWorkload::KeyFor(42);
  EXPECT_EQ(key.size(), YcsbWorkload::kKeyBytes);
  EXPECT_EQ(key.substr(0, 4), "user");
  // Distinct ids give distinct keys, and ordering is preserved.
  EXPECT_LT(YcsbWorkload::KeyFor(41), key);
  EXPECT_LT(key, YcsbWorkload::KeyFor(43));
}

TEST(YcsbTest, ValueSize) {
  YcsbWorkload w(YcsbWorkloadKind::kA, 100, 7);
  EXPECT_EQ(w.ValueFor(5).size(), YcsbWorkload::kValueBytes);
}

// The exact byte stream, pinned: every load phase and every bench series
// that writes YCSB values depends on it, so a faster generator must
// reproduce it byte for byte, not just keep the sizes.
TEST(YcsbTest, KeysAndValuesMatchGolden) {
  EXPECT_EQ(YcsbWorkload::KeyFor(0), "user00000000000000000000");
  EXPECT_EQ(YcsbWorkload::KeyFor(42), "user00000000000000000042");
  EXPECT_EQ(YcsbWorkload::KeyFor(UINT64_MAX), "user18446744073709551615");

  YcsbWorkload w(YcsbWorkloadKind::kA, 1000, 7);
  EXPECT_EQ(w.ValueFor(0),
            "ohgdsjmdcnunmdydyvadmfoxmjylyzwhwdaxgfkbuxcfghovip"
            "kxuxshstmnwpodklobijwtibgjwnwlununcrujwpktqfyvutqp");
  EXPECT_EQ(w.ValueFor(5),
            "rapoxkvankfmfaxmdcxinmdcnujgfajozuzkjgfuxgtyduvebe"
            "nobkzsvkrgbcjkhybmdipmngpghspyjutmdypmvgfijurwjyng");
  EXPECT_EQ(w.ValueFor(UINT64_MAX),
            "yrqponwpgrwvwrmnupwdmdspwtufstoxypivmbmhspafujqbmj"
            "qbwrebqrevqnonuhafybihqvanufynujsdkdmrebgnwdmzmbmb");
  // The operation stream interleaves the same RNG with key choice.
  std::string stream;
  for (int i = 0; i < 1000; ++i) {
    YcsbOp op = w.Next();
    stream += static_cast<char>(op.type);
    stream += op.key;
    stream += op.value;
  }
  EXPECT_EQ(Crc32c(stream), 0x33eaa052u);
}

// gtest prints this parameter as raw bytes, and ctest names each case by
// that text, so the struct must hold no padding: `zero` fills the gap after
// `kind` that would otherwise carry whatever the copy left there.
struct MixExpectation {
  MixExpectation(YcsbWorkloadKind k, double rlo, double rhi, double wlo,
                 double whi)
      : kind(k), read_lo(rlo), read_hi(rhi), write_lo(wlo), write_hi(whi) {}

  YcsbWorkloadKind kind;
  std::int32_t zero = 0;
  double read_lo, read_hi;
  double write_lo, write_hi;  // update + insert + rmw
};
static_assert(sizeof(MixExpectation) == 40);

class YcsbMixTest : public ::testing::TestWithParam<MixExpectation> {};

TEST_P(YcsbMixTest, OperationMixMatchesSpec) {
  const MixExpectation& expect = GetParam();
  YcsbWorkload w(expect.kind, 10000, 11);
  const int n = 20000;
  int reads = 0, writes = 0;
  for (int i = 0; i < n; ++i) {
    YcsbOp op = w.Next();
    if (op.type == YcsbOpType::kRead) {
      reads++;
      EXPECT_TRUE(op.value.empty());
    } else {
      writes++;
      EXPECT_EQ(op.value.size(), YcsbWorkload::kValueBytes);
    }
  }
  double read_frac = static_cast<double>(reads) / n;
  double write_frac = static_cast<double>(writes) / n;
  EXPECT_GE(read_frac, expect.read_lo);
  EXPECT_LE(read_frac, expect.read_hi);
  EXPECT_GE(write_frac, expect.write_lo);
  EXPECT_LE(write_frac, expect.write_hi);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, YcsbMixTest,
    ::testing::Values(
        MixExpectation{YcsbWorkloadKind::kA, 0.47, 0.53, 0.47, 0.53},
        MixExpectation{YcsbWorkloadKind::kB, 0.93, 0.97, 0.03, 0.07},
        MixExpectation{YcsbWorkloadKind::kC, 1.0, 1.0, 0.0, 0.0},
        MixExpectation{YcsbWorkloadKind::kD, 0.93, 0.97, 0.03, 0.07},
        MixExpectation{YcsbWorkloadKind::kF, 0.47, 0.53, 0.47, 0.53},
        MixExpectation{YcsbWorkloadKind::kWriteOnly, 0.0, 0.0, 1.0, 1.0}));

TEST(YcsbTest, InsertsExtendKeyspace) {
  YcsbWorkload w(YcsbWorkloadKind::kD, 1000, 13);
  uint64_t before = w.record_count();
  std::set<std::string> inserted;
  for (int i = 0; i < 2000; ++i) {
    YcsbOp op = w.Next();
    if (op.type == YcsbOpType::kInsert) {
      EXPECT_TRUE(inserted.insert(op.key).second) << "duplicate insert key";
    }
  }
  EXPECT_GT(w.record_count(), before);
  EXPECT_EQ(w.record_count() - before, inserted.size());
}

TEST(YcsbTest, DeterministicForSeed) {
  YcsbWorkload a(YcsbWorkloadKind::kA, 1000, 99);
  YcsbWorkload b(YcsbWorkloadKind::kA, 1000, 99);
  for (int i = 0; i < 100; ++i) {
    YcsbOp oa = a.Next();
    YcsbOp ob = b.Next();
    EXPECT_EQ(oa.key, ob.key);
    EXPECT_EQ(static_cast<int>(oa.type), static_cast<int>(ob.type));
  }
}

}  // namespace
}  // namespace splitft
