// Deterministic PRNG (xoshiro256**). Every simulation component takes an
// explicit seed so that tests, benches, and the model checker are
// reproducible run to run.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>
#include <optional>

#include "src/common/status.h"

namespace splitft {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { Seed(seed); }

  void Seed(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t Next();

  // Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n);

  // Uniform in [lo, hi] inclusive.
  uint64_t UniformRange(uint64_t lo, uint64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Exponentially distributed value with the given mean (for think times /
  // jitter in the latency models).
  double Exponential(double mean);

 private:
  uint64_t s_[4];
};

// Reads the environment variable `name` as an unsigned 64-bit number,
// parsed with strtoull base 0, so 0x... works. Unset or empty gives
// nullopt; a value that is not wholly an unsigned number in range
// (trailing text, a sign, an overflow) gives kInvalidArgument.
Result<std::optional<uint64_t>> UnsignedFromEnv(const char* name);

// Reads the environment variable `name` as an on/off switch: unset, empty
// or "0" is off and "1" is on. Anything else ("no", "true", "01") gives
// kInvalidArgument, so a mistyped switch is refused rather than guessed.
Result<bool> FlagFromEnv(const char* name);

// The SPLITFT_SEED reproducibility override, which pins a seeded run (the
// chaos campaign, a bench) to one schedule so a reported violation replays
// exactly. A value UnsignedFromEnv rejects is warned about and ignored.
std::optional<uint64_t> SeedFromEnv();

}  // namespace splitft

#endif  // SRC_COMMON_RNG_H_
