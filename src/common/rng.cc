#include "src/common/rng.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>

#include "src/common/logging.h"

namespace splitft {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// splitmix64, used to expand the user seed into the xoshiro state.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(&sm);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (0 - n) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) {
      return r % n;
    }
  }
}

uint64_t Rng::UniformRange(uint64_t lo, uint64_t hi) {
  return lo + Uniform(hi - lo + 1);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::Exponential(double mean) {
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) {
    u = 1e-18;
  }
  return -mean * std::log(u);
}

Result<std::optional<uint64_t>> UnsignedFromEnv(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') {
    return std::optional<uint64_t>();
  }
  // strtoull alone would take "12abc" as 12, wrap "-1" to 2^64-1 and clamp
  // an overflow to ULLONG_MAX, each silently running the wrong setting.
  char* end = nullptr;
  errno = 0;
  uint64_t value = std::strtoull(env, &end, 0);
  if (std::isdigit(static_cast<unsigned char>(env[0])) == 0 || *end != '\0' ||
      errno == ERANGE) {
    return InvalidArgumentError(std::string("unparsable ") + name + "='" +
                                env + "'");
  }
  return std::optional<uint64_t>(value);
}

Result<bool> FlagFromEnv(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0' || std::string_view(env) == "0") {
    return false;
  }
  if (std::string_view(env) == "1") {
    return true;
  }
  return InvalidArgumentError(std::string(name) + "='" + env +
                              "' is neither 0 nor 1");
}

std::optional<uint64_t> SeedFromEnv() {
  Result<std::optional<uint64_t>> seed = UnsignedFromEnv("SPLITFT_SEED");
  if (!seed.ok()) {
    LOG_WARNING << "ignoring " << seed.status().message();
    return std::nullopt;
  }
  return *seed;
}

}  // namespace splitft
