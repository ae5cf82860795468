// Unified retry/backoff/deadline policy for transient faults.
//
// Remote-memory replication failures come in two flavours: permanent (a
// peer crashed and lost its volatile regions) and transient (a flaky link,
// a partition that heals, a momentarily unreachable setup process, a
// controller outage window). The paper's protocol only needs the permanent
// kind to be *survivable*; production-scale operation additionally needs
// the transient kind to be *non-fatal* — a peer must only be demoted to
// dead after a bounded retry policy is exhausted.
//
// RetryPolicy is pure configuration; RetryState tracks one operation's
// attempts against a policy. Backoff grows exponentially and is jittered
// with the caller's deterministic sim RNG so that campaigns stay
// reproducible seed for seed.
#ifndef SRC_SIM_RETRY_H_
#define SRC_SIM_RETRY_H_

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/sim/simulation.h"

namespace splitft {

struct RetryPolicy {
  // Total tries including the initial one. 1 reproduces the legacy
  // first-error-is-fatal behaviour (the seed repo's default).
  int max_attempts = 1;
  // Backoff before retry k (1-based) is initial_backoff * multiplier^(k-1),
  // clamped to max_backoff, then jittered by +/- jitter fraction.
  SimTime initial_backoff = Micros(250);
  double multiplier = 2.0;
  SimTime max_backoff = Millis(10);
  double jitter = 0.2;
  // Overall per-operation budget: once this much virtual time has elapsed
  // since the first failure, no further retries are attempted.
  SimTime deadline = Millis(20);

  // Convenience: a policy that actually retries (chaos/test contexts).
  static RetryPolicy Transient(int attempts = 4, SimTime dl = Millis(20)) {
    RetryPolicy p;
    p.max_attempts = attempts;
    p.deadline = dl;
    return p;
  }
};

// Attempt bookkeeping for one logical operation.
class RetryState {
 public:
  RetryState(const RetryPolicy* policy, SimTime start)
      : policy_(policy), start_(start) {}

  // True while the policy allows another attempt at virtual time `now`.
  bool ShouldRetry(SimTime now) const {
    return attempts_ + 1 < policy_->max_attempts &&
           now - start_ < policy_->deadline;
  }

  // Registers the retry and returns the jittered backoff to wait before it.
  SimTime NextBackoff(Rng* rng);

  int attempts() const { return attempts_; }
  SimTime start() const { return start_; }

 private:
  const RetryPolicy* policy_;
  SimTime start_;
  int attempts_ = 0;  // retries performed so far (initial try not counted)
};

// Runs `fn` (returning a Status, a Result<T> or a pointer) until
// `again(result)` is false or the policy is exhausted, and returns the last
// result. `again` must be false on success. The deadline clock starts at
// the first failure. Each retry counts into `retries` (nullable), then
// burns its backoff in *virtual* time via sim->RunUntil, so scheduled
// events (partition heals, outage ends) keep flowing while we wait.
template <typename Fn, typename Again>
auto RetryUnderPolicy(Simulation* sim, const RetryPolicy& policy, Rng* rng,
                      Fn&& fn, Again&& again, Counter* retries = nullptr)
    -> decltype(fn()) {
  auto r = fn();
  RetryState state(&policy, sim->Now());
  while (again(r) && state.ShouldRetry(sim->Now())) {
    ObsAdd(retries);
    sim->RunUntil(sim->Now() + state.NextBackoff(rng));
    r = fn();
  }
  return r;
}

// The retry predicate for controller RPCs: kTimedOut marks an outage
// window; success and every other failure are final.
struct RpcTimedOut {
  bool operator()(const Status& st) const {
    return st.code() == StatusCode::kTimedOut;
  }
  template <typename T>
  bool operator()(const Result<T>& r) const {
    return !r.ok() && r.status().code() == StatusCode::kTimedOut;
  }
};

}  // namespace splitft

#endif  // SRC_SIM_RETRY_H_
