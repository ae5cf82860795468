#include "src/workload/ycsb.h"

#include <cmath>

namespace splitft {
namespace {

// FNV-1a 64-bit hash used for key scrambling.
uint64_t FnvHash64(uint64_t v) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (int i = 0; i < 8; ++i) {
    hash ^= v & 0xff;
    hash *= 0x100000001b3ull;
    v >>= 8;
  }
  return hash;
}

}  // namespace

// ------------------------------------------------------ ZipfianGenerator --

double ZipfianGenerator::Zeta(uint64_t n, double theta, double initial_sum,
                              uint64_t from) {
  double sum = initial_sum;
  for (uint64_t i = from; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
  }
  return sum;
}

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta)
    : n_(n), theta_(theta), zetan_(Zeta(n, theta)) {
  zeta2_ = Zeta(2, theta);
  Refresh();
}

void ZipfianGenerator::Refresh() {
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2_ / zetan_);
}

void ZipfianGenerator::SetItemCount(uint64_t n) {
  if (n <= n_) {
    return;
  }
  zetan_ = Zeta(n, theta_, zetan_, n_);
  n_ = n;
  Refresh();
}

uint64_t ZipfianGenerator::Next(Rng* rng) {
  double u = rng->NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  auto idx = static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  if (idx >= n_) {
    idx = n_ - 1;
  }
  return idx;
}

// --------------------------------------------- ScrambledZipfianGenerator --

ScrambledZipfianGenerator::ScrambledZipfianGenerator(uint64_t n)
    : zipf_(n), n_(n) {}

void ScrambledZipfianGenerator::SetItemCount(uint64_t n) {
  if (n > n_) {
    n_ = n;
    zipf_.SetItemCount(n);
  }
}

uint64_t ScrambledZipfianGenerator::Next(Rng* rng) {
  return FnvHash64(zipf_.Next(rng)) % n_;
}

// ------------------------------------------------------- LatestGenerator --

LatestGenerator::LatestGenerator(uint64_t n) : zipf_(n), n_(n) {}

void LatestGenerator::SetItemCount(uint64_t n) {
  if (n > n_) {
    n_ = n;
    zipf_.SetItemCount(n);
  }
}

uint64_t LatestGenerator::Next(Rng* rng) {
  // Rank 0 is the most recently inserted key.
  uint64_t rank = zipf_.Next(rng);
  return n_ - 1 - rank;
}

// ---------------------------------------------------------- YcsbWorkload --

std::string_view YcsbWorkloadName(YcsbWorkloadKind kind) {
  switch (kind) {
    case YcsbWorkloadKind::kA:
      return "a";
    case YcsbWorkloadKind::kB:
      return "b";
    case YcsbWorkloadKind::kC:
      return "c";
    case YcsbWorkloadKind::kD:
      return "d";
    case YcsbWorkloadKind::kF:
      return "f";
    case YcsbWorkloadKind::kWriteOnly:
      return "write-only";
  }
  return "?";
}

YcsbWorkload::YcsbWorkload(YcsbWorkloadKind kind, uint64_t record_count,
                           uint64_t seed)
    : kind_(kind),
      record_count_(record_count),
      rng_(seed),
      zipf_(record_count),
      latest_(record_count) {}

std::string YcsbWorkload::KeyFor(uint64_t id) {
  // 24-byte keys: "user" + zero-padded 20-digit id (UINT64_MAX has 20).
  char buf[kKeyBytes] = {'u', 's', 'e', 'r'};
  for (size_t i = kKeyBytes; i > 4; --i, id /= 10) {
    buf[i - 1] = static_cast<char>('0' + id % 10);
  }
  return std::string(buf, kKeyBytes);
}

std::string YcsbWorkload::ValueFor(uint64_t id) {
  // 100-byte deterministic-but-varied payload: byte i is 'a' + x_i % 26,
  // where x_0 = FnvHash64(id ^ rng) and x_{i+1} = a * x_i + c. Four
  // interleaved lanes walk the same sequence (lane j holds x_j, x_{j+4},
  // ...; each steps by the recurrence applied four times), so the lanes'
  // multiplies do not wait on each other.
  constexpr uint64_t kA = 6364136223846793005ull;
  constexpr uint64_t kC = 1442695040888963407ull;
  constexpr uint64_t kA4 = kA * kA * kA * kA;
  constexpr uint64_t kC4 = kC * (kA * kA * kA + kA * kA + kA + 1);
  static_assert(kValueBytes % 4 == 0);
  uint64_t x0 = FnvHash64(id ^ rng_.Next());
  uint64_t x1 = x0 * kA + kC;
  uint64_t x2 = x1 * kA + kC;
  uint64_t x3 = x2 * kA + kC;
  char buf[kValueBytes];
  for (size_t i = 0; i < kValueBytes; i += 4) {
    buf[i] = static_cast<char>('a' + x0 % 26);
    buf[i + 1] = static_cast<char>('a' + x1 % 26);
    buf[i + 2] = static_cast<char>('a' + x2 % 26);
    buf[i + 3] = static_cast<char>('a' + x3 % 26);
    x0 = x0 * kA4 + kC4;
    x1 = x1 * kA4 + kC4;
    x2 = x2 * kA4 + kC4;
    x3 = x3 * kA4 + kC4;
  }
  return std::string(buf, kValueBytes);
}

YcsbOp YcsbWorkload::Next() {
  YcsbOp op;
  double p = rng_.NextDouble();
  switch (kind_) {
    case YcsbWorkloadKind::kA:
      op.type = p < 0.5 ? YcsbOpType::kRead : YcsbOpType::kUpdate;
      break;
    case YcsbWorkloadKind::kB:
      op.type = p < 0.95 ? YcsbOpType::kRead : YcsbOpType::kUpdate;
      break;
    case YcsbWorkloadKind::kC:
      op.type = YcsbOpType::kRead;
      break;
    case YcsbWorkloadKind::kD:
      op.type = p < 0.95 ? YcsbOpType::kRead : YcsbOpType::kInsert;
      break;
    case YcsbWorkloadKind::kF:
      op.type = p < 0.5 ? YcsbOpType::kRead : YcsbOpType::kReadModifyWrite;
      break;
    case YcsbWorkloadKind::kWriteOnly:
      op.type = YcsbOpType::kUpdate;
      break;
  }

  uint64_t id;
  if (op.type == YcsbOpType::kInsert) {
    id = record_count_++;
    zipf_.SetItemCount(record_count_);
    latest_.SetItemCount(record_count_);
  } else if (kind_ == YcsbWorkloadKind::kD) {
    id = latest_.Next(&rng_);
  } else {
    id = zipf_.Next(&rng_);
  }
  op.key = KeyFor(id);
  if (op.type != YcsbOpType::kRead) {
    op.value = ValueFor(id);
  }
  return op;
}

}  // namespace splitft
