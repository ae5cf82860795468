#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/crc32c.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/shared_bytes.h"
#include "src/common/status.h"

namespace splitft {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = UnavailableError("peer p2 crashed");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.message(), "peer p2 crashed");
  EXPECT_EQ(s.ToString(), "Unavailable: peer p2 crashed");
}

TEST(StatusTest, AllFactoryHelpersProduceDistinctCodes) {
  std::set<StatusCode> codes;
  codes.insert(NotFoundError("").code());
  codes.insert(AlreadyExistsError("").code());
  codes.insert(InvalidArgumentError("").code());
  codes.insert(FailedPreconditionError("").code());
  codes.insert(UnavailableError("").code());
  codes.insert(PermissionDeniedError("").code());
  codes.insert(DataLossError("").code());
  codes.insert(ResourceExhaustedError("").code());
  codes.insert(AbortedError("").code());
  codes.insert(TimedOutError("").code());
  codes.insert(InternalError("").code());
  EXPECT_EQ(codes.size(), 11u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> ParsePositive(int v) {
  if (v <= 0) {
    return InvalidArgumentError("not positive");
  }
  return v;
}

Status UseAssignOrReturn(int v, int* out) {
  ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  *out = parsed * 2;
  return OkStatus();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(21, &out).ok());
  EXPECT_EQ(out, 42);
  Status s = UseAssignOrReturn(-1, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------------- Bytes --

TEST(BytesTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeefu);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(DecodeFixed32(buf.data()), 0xdeadbeefu);
}

TEST(BytesTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789abcdefull);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(DecodeFixed64(buf.data()), 0x0123456789abcdefull);
}

TEST(BytesTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, "world");
  size_t off = 0;
  std::string_view s;
  ASSERT_TRUE(GetLengthPrefixed(buf, &off, &s));
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(GetLengthPrefixed(buf, &off, &s));
  EXPECT_EQ(s, "");
  ASSERT_TRUE(GetLengthPrefixed(buf, &off, &s));
  EXPECT_EQ(s, "world");
  EXPECT_FALSE(GetLengthPrefixed(buf, &off, &s));
  EXPECT_EQ(off, buf.size());
}

TEST(BytesTest, LengthPrefixedRejectsTruncation) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  std::string truncated = buf.substr(0, buf.size() - 1);
  size_t off = 0;
  std::string_view s;
  EXPECT_FALSE(GetLengthPrefixed(truncated, &off, &s));
  EXPECT_EQ(off, 0u);  // offset untouched on failure
}

TEST(BytesTest, HumanBytesFormats) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
  EXPECT_EQ(HumanBytes(64ull * 1024 * 1024), "64.0 MiB");
}

TEST(BytesTest, HumanDurationFormats) {
  EXPECT_EQ(HumanDuration(500), "500 ns");
  EXPECT_EQ(HumanDuration(4600), "4.60 us");
  EXPECT_EQ(HumanDuration(2100000), "2.10 ms");
  EXPECT_EQ(HumanDuration(1500000000), "1.50 s");
}

// ---------------------------------------------------------------- CRC32C --

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8a9136aau);
  // 32 bytes of 0xff.
  std::string ffs(32, '\xff');
  EXPECT_EQ(Crc32c(ffs), 0x62a8ab43u);
  // "123456789".
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
}

TEST(Crc32cTest, Incremental) {
  std::string data = "hello world, this is splitft";
  uint32_t whole = Crc32c(data);
  uint32_t part = Crc32c(0, data.data(), 10);
  part = Crc32c(part, data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, part);
}

TEST(Crc32cTest, DetectsCorruption) {
  std::string data = "payload-guarded-by-checksum";
  uint32_t crc = Crc32c(data);
  data[5] ^= 0x01;
  EXPECT_NE(Crc32c(data), crc);
}

// Bit-at-a-time CRC32C register update, independent of either kernel's
// tables or instructions: the reference both are checked against.
uint32_t ReferenceCrcStep(uint32_t crc, uint8_t byte) {
  crc ^= byte;
  for (int k = 0; k < 8; ++k) {
    crc = (crc & 1) ? (0x82f63b78u ^ (crc >> 1)) : (crc >> 1);
  }
  return crc;
}

// Every kernel the platform can run: the portable one always, the
// hardware one when the CPU has it.
std::vector<std::pair<const char*, crc32c_internal::Kernel>> Crc32cKernels() {
  std::vector<std::pair<const char*, crc32c_internal::Kernel>> kernels = {
      {"portable", crc32c_internal::Portable}};
  if (crc32c_internal::Hardware() != nullptr) {
    kernels.emplace_back("hardware", crc32c_internal::Hardware());
  }
  return kernels;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) {
    c = static_cast<char>(rng.Uniform(256));
  }
  return out;
}

TEST(Crc32cTest, KernelsMatchBytewiseReferenceAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLen = 4096;
  // 8 bytes of slack so every misalignment can read kMaxLen bytes.
  const std::string buf = RandomBytes(kMaxLen + 8, 7);
  const auto kernels = Crc32cKernels();
  for (size_t misalign = 0; misalign < 8; ++misalign) {
    const char* base = buf.data() + misalign;
    // ref[len] is the reference register after the first len bytes.
    std::vector<uint32_t> ref(kMaxLen + 1);
    ref[0] = 0xffffffffu;
    for (size_t i = 0; i < kMaxLen; ++i) {
      ref[i + 1] = ReferenceCrcStep(ref[i], static_cast<uint8_t>(base[i]));
    }
    for (size_t len = 0; len <= kMaxLen; ++len) {
      for (const auto& [name, kernel] : kernels) {
        ASSERT_EQ(kernel(0xffffffffu, base, len), ref[len])
            << name << " kernel, len " << len << ", misalignment " << misalign;
      }
      ASSERT_EQ(Crc32c(0, base, len), ref[len] ^ 0xffffffffu)
          << "len " << len << ", misalignment " << misalign;
    }
  }
}

TEST(Crc32cTest, KernelsChainAcrossEverySplitPoint) {
  const std::string buf = RandomBytes(1024 + 3, 11);
  const std::string_view data(buf.data() + 3, 1024);  // odd alignment
  const uint32_t whole = Crc32c(data);
  const auto kernels = Crc32cKernels();
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t part = Crc32c(0, data.data(), split);
    ASSERT_EQ(Crc32c(part, data.data() + split, data.size() - split), whole)
        << "split " << split;
    for (const auto& [name, kernel] : kernels) {
      uint32_t reg = kernel(0xffffffffu, data.data(), split);
      reg = kernel(reg, data.data() + split, data.size() - split);
      ASSERT_EQ(reg ^ 0xffffffffu, whole) << name << " kernel, split " << split;
    }
  }
}

TEST(Crc32cTest, MaskRoundTrip) {
  uint32_t crc = Crc32c("some record");
  EXPECT_NE(MaskCrc(crc), crc);
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, UniformCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.Uniform(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(19);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(100.0);
  }
  double mean = sum / n;
  EXPECT_NEAR(mean, 100.0, 5.0);
}

TEST(RngTest, SeedFromEnvTakesOnlyWholeUnsignedNumbers) {
  const struct {
    const char* value;
    std::optional<uint64_t> seed;
  } kCases[] = {
      {"12345", 12345},
      {"0x1F", 31},
      {"12abc", std::nullopt},
      {"-1", std::nullopt},
      {"99999999999999999999", std::nullopt},
  };
  for (const auto& c : kCases) {
    ASSERT_EQ(setenv("SPLITFT_SEED", c.value, 1), 0);
    EXPECT_EQ(SeedFromEnv(), c.seed) << "SPLITFT_SEED=" << c.value;
  }
  unsetenv("SPLITFT_SEED");
  EXPECT_EQ(SeedFromEnv(), std::nullopt);
}

TEST(RngTest, UnsignedFromEnvRejectsWhatIsNotAWholeNumber) {
  const char* kVar = "SPLITFT_TEST_UNSIGNED";
  unsetenv(kVar);
  Result<std::optional<uint64_t>> unset = UnsignedFromEnv(kVar);
  ASSERT_TRUE(unset.ok());
  EXPECT_EQ(*unset, std::nullopt);
  ASSERT_EQ(setenv(kVar, "", 1), 0);
  Result<std::optional<uint64_t>> empty = UnsignedFromEnv(kVar);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, std::nullopt);

  const struct {
    const char* value;
    std::optional<uint64_t> parsed;  // nullopt: rejected
  } kCases[] = {
      {"0", 0},
      {"7", 7},
      {"0x10", 16},
      {"abc", std::nullopt},
      {"2k", std::nullopt},
      {"-1", std::nullopt},
      {"+3", std::nullopt},
      {" 3", std::nullopt},
      {"99999999999999999999", std::nullopt},
  };
  for (const auto& c : kCases) {
    ASSERT_EQ(setenv(kVar, c.value, 1), 0);
    Result<std::optional<uint64_t>> got = UnsignedFromEnv(kVar);
    if (c.parsed.has_value()) {
      ASSERT_TRUE(got.ok()) << c.value << ": " << got.status().ToString();
      EXPECT_EQ(*got, c.parsed) << c.value;
    } else {
      ASSERT_FALSE(got.ok()) << c.value;
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
      // The message names the variable and the rejected text.
      EXPECT_NE(got.status().message().find(kVar), std::string::npos);
      EXPECT_NE(got.status().message().find(c.value), std::string::npos);
    }
  }
  unsetenv(kVar);
}

TEST(RngTest, FlagFromEnvAcceptsOnlyZeroAndOne) {
  const char* kVar = "SPLITFT_TEST_FLAG";
  unsetenv(kVar);
  Result<bool> unset = FlagFromEnv(kVar);
  ASSERT_TRUE(unset.ok());
  EXPECT_FALSE(*unset);

  const struct {
    const char* value;
    std::optional<bool> parsed;  // nullopt: rejected
  } kCases[] = {
      {"", false},
      {"0", false},
      {"1", true},
      {"no", std::nullopt},
      {"false", std::nullopt},
      {"true", std::nullopt},
      {"01", std::nullopt},
      {"2", std::nullopt},
      {" 1", std::nullopt},
  };
  for (const auto& c : kCases) {
    ASSERT_EQ(setenv(kVar, c.value, 1), 0);
    Result<bool> got = FlagFromEnv(kVar);
    if (c.parsed.has_value()) {
      ASSERT_TRUE(got.ok()) << c.value << ": " << got.status().ToString();
      EXPECT_EQ(*got, *c.parsed) << c.value;
    } else {
      ASSERT_FALSE(got.ok()) << c.value;
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(got.status().message().find(kVar), std::string::npos);
    }
  }
  unsetenv(kVar);
}

// ---------------------------------------------------------------- Discard --

TEST(StatusDiscardTest, CheckOkPassesThroughOkValues) {
  CHECK_OK(OkStatus());
  CHECK_OK(Result<int>(3));  // Result overload resolves via AsStatus
}

// -------------------------------------------------------------- Histogram --

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.Mean(), 1000.0);
  EXPECT_NEAR(h.P50(), 1000.0, 50.0);
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) {
    h.Add(i);
  }
  double p10 = h.Percentile(0.10);
  double p50 = h.Percentile(0.50);
  double p99 = h.Percentile(0.99);
  EXPECT_LT(p10, p50);
  EXPECT_LT(p50, p99);
  EXPECT_NEAR(p50, 5000.0, 300.0);
  EXPECT_NEAR(p99, 9900.0, 500.0);
}

TEST(HistogramTest, MergeMatchesCombined) {
  Histogram a, b, all;
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = static_cast<int64_t>(rng.Uniform(100000));
    if (i % 2 == 0) {
      a.Add(v);
    } else {
      b.Add(v);
    }
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.Mean(), all.Mean());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.Percentile(0.9), all.Percentile(0.9));
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Add(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, NegativeClampedToZero) {
  Histogram h;
  h.Add(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
}

// ------------------------------------------------ SharedBytes / CowBuffer --

TEST(SharedBytesTest, SliceSharesItsOwnerAndClamps) {
  SharedBytes bytes(std::string("hello world"));
  SharedBytes world = bytes.Slice(6, 100);
  EXPECT_EQ(world, "world");
  EXPECT_EQ(world.data(), bytes.data() + 6);
  EXPECT_TRUE(bytes.Slice(20, 4).empty());
  EXPECT_EQ(std::string(world.Slice(1, 3)), "orl");
}

TEST(CowBufferTest, WriteWithoutSliceMutatesInPlace) {
  CowBuffer buffer;
  buffer.Write(0, "abcd");
  const char* block = buffer.view().data();
  buffer.Write(1, "XY");
  EXPECT_EQ(buffer.view(), "aXYd");
  EXPECT_EQ(buffer.view().data(), block);
  // A write past the end zero-fills the gap.
  buffer.Write(6, "z");
  EXPECT_EQ(buffer.view(), std::string_view("aXYd\0\0z", 7));
}

TEST(CowBufferTest, SliceOutlivesWriteClearAndAssign) {
  CowBuffer buffer;
  buffer.Write(0, "abcdef");
  SharedBytes written = buffer.Slice(0, 6);
  buffer.Write(0, "XY");
  EXPECT_EQ(written, "abcdef");
  EXPECT_EQ(buffer.view(), "XYcdef");
  SharedBytes cleared = buffer.Slice(2, 4);
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(cleared, "cdef");
  buffer.Write(0, "new");
  SharedBytes assigned = buffer.Slice(0, 3);
  buffer.Assign("other");
  EXPECT_EQ(assigned, "new");
  EXPECT_EQ(buffer.view(), "other");
  EXPECT_EQ(written, "abcdef");
}

TEST(CowBufferTest, ReleaseReturnsBytesOnlyWhenUnshared) {
  CowBuffer buffer;
  buffer.Write(0, std::string(100, 'a'));
  {
    SharedBytes slice = buffer.Slice(0, 1);
    EXPECT_EQ(buffer.Release(), "");
    EXPECT_EQ(buffer.size(), 0u);
    EXPECT_EQ(slice, "a");
  }
  buffer.Write(0, std::string(100, 'b'));
  const char* block = buffer.view().data();
  std::string released = buffer.Release();
  EXPECT_EQ(released, std::string(100, 'b'));
  EXPECT_EQ(released.data(), block);
  EXPECT_EQ(buffer.size(), 0u);
}

// The copy a write makes while a slice is held keeps the source's
// capacity, so the appends after it grow in place instead of copying the
// buffer a second time.
TEST(CowBufferTest, CopyOnWriteKeepsTheCapacity) {
  CowBuffer buffer;
  buffer.Write(0, std::string(1000, 'a'));
  buffer.Write(1000, "b");  // grows geometrically: room past 1001 bytes
  {
    SharedBytes slice = buffer.Slice(0, 1);
    buffer.Write(1001, "c");  // copies: the slice keeps the old bytes
    EXPECT_EQ(slice, "a");
  }
  const char* block = buffer.view().data();
  buffer.Write(1002, std::string(500, 'd'));
  EXPECT_EQ(buffer.view().data(), block);
  EXPECT_EQ(buffer.size(), 1502u);
}

}  // namespace
}  // namespace splitft
