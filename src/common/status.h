// Status and Result<T>: exception-free error handling used across the
// SplitFT code base. Modeled after absl::Status / StatusOr but self-contained.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/annotations.h"

namespace splitft {

// Error categories. Kept small and oriented at the failure modes the paper's
// protocol distinguishes (peer unreachable vs rejected vs data missing).
enum class StatusCode {
  kOk = 0,
  kNotFound,          // file/znode/region does not exist
  kAlreadyExists,     // create of an existing name
  kInvalidArgument,   // caller bug: bad offset, size, flag combination
  kFailedPrecondition,// operation not legal in current state (e.g. closed file)
  kUnavailable,       // node crashed / partitioned / not enough peers
  kPermissionDenied,  // rkey invalid, revoked region, lease lost
  kDataLoss,          // checksum mismatch or unrecoverable content
  kResourceExhausted, // peer memory exhausted, queue full
  kAborted,           // lost a race (e.g. single-instance lease)
  kTimedOut,          // retries exhausted
  kInternal,          // invariant violation inside the library
};

// Short human-readable name for a code ("NotFound", "Unavailable", ...).
std::string_view StatusCodeName(StatusCode code);

// A cheap value type carrying a code and an optional message.
//
// [[nodiscard]]: a dropped Status is a dropped failure. Call sites must
// handle, propagate, or explicitly discard via DiscardStatus() — never a
// bare (void) cast, which is invisible to grep and to the metrics.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const SPLITFT_LIFETIMEBOUND {
    return message_;
  }

  // "OK" or "Unavailable: peer p2 crashed".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_;
  std::string message_;
};

// Factory helpers so call sites read like absl's.
Status OkStatus();
Status NotFoundError(std::string_view msg);
Status AlreadyExistsError(std::string_view msg);
Status InvalidArgumentError(std::string_view msg);
Status FailedPreconditionError(std::string_view msg);
Status UnavailableError(std::string_view msg);
Status PermissionDeniedError(std::string_view msg);
Status DataLossError(std::string_view msg);
Status ResourceExhaustedError(std::string_view msg);
Status AbortedError(std::string_view msg);
Status TimedOutError(std::string_view msg);
Status InternalError(std::string_view msg);

// Result<T>: either a value or a non-OK Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const SPLITFT_LIFETIMEBOUND { return status_; }

  T& value() & SPLITFT_LIFETIMEBOUND {
    assert(ok());
    return *value_;
  }
  const T& value() const& SPLITFT_LIFETIMEBOUND {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  T* operator->() {
    assert(ok());
    return &*value_;
  }
  const T* operator->() const {
    assert(ok());
    return &*value_;
  }
  T& operator*() SPLITFT_LIFETIMEBOUND { return value(); }
  const T& operator*() const SPLITFT_LIFETIMEBOUND { return value(); }

 private:
  std::optional<T> value_;
  Status status_;  // kOk iff value_ holds a value
};

// ---- Deliberate discards ---------------------------------------------------
//
// `[[nodiscard]]` bans *silent* drops; these are the two sanctioned loud
// ones. Bare `(void)` casts are rejected by tools/deeplint (rule
// status-discard) because they are invisible to grep, to the logs, and to
// the metrics.
//
//   DiscardStatus(obs, expr, "where")  best-effort paths: the failure is
//                                      tolerable, but it is counted in the
//                                      simulation's MetricsRegistry and
//                                      logged (rate limited), so a storm
//                                      of swallowed errors is visible.
//                                      Lives in src/obs/obs.h: common/
//                                      cannot see a registry.
//   CHECK_OK(expr)                     must-succeed paths (bench setup,
//                                      test fixtures): aborts with the
//                                      status, the expression, and the
//                                      call site.

namespace status_internal {
inline const Status& AsStatus(const Status& s) { return s; }
template <typename T>
const Status& AsStatus(const Result<T>& r) {
  static const Status kOk;
  return r.ok() ? kOk : r.status();
}
// Logs the failed expression and aborts. Out of line so status.h does not
// pull in logging.
[[noreturn]] void CheckOkFailed(const Status& status, const char* expr,
                                const char* file, int line);
}  // namespace status_internal

// Aborts when `expr` (a Status or Result<T>) is non-OK. For call sites
// where failure is a programming error, not a runtime condition.
#define CHECK_OK(expr)                                                 \
  do {                                                                 \
    const auto& _chk = (expr);                                         \
    const ::splitft::Status& _chk_st =                                 \
        ::splitft::status_internal::AsStatus(_chk);                    \
    if (!_chk_st.ok()) {                                               \
      ::splitft::status_internal::CheckOkFailed(_chk_st, #expr,        \
                                                __FILE__, __LINE__);   \
    }                                                                  \
  } while (0)

// Propagate errors without exceptions:
//   RETURN_IF_ERROR(file->Write(...));
#define RETURN_IF_ERROR(expr)                  \
  do {                                         \
    ::splitft::Status _st = (expr);            \
    if (!_st.ok()) {                           \
      return _st;                              \
    }                                          \
  } while (0)

// ASSIGN_OR_RETURN(auto v, SomeResultReturningCall());
#define SPLITFT_CONCAT_INNER(a, b) a##b
#define SPLITFT_CONCAT(a, b) SPLITFT_CONCAT_INNER(a, b)
#define ASSIGN_OR_RETURN(decl, expr)                        \
  auto SPLITFT_CONCAT(_res_, __LINE__) = (expr);            \
  if (!SPLITFT_CONCAT(_res_, __LINE__).ok()) {              \
    return SPLITFT_CONCAT(_res_, __LINE__).status();        \
  }                                                         \
  decl = std::move(SPLITFT_CONCAT(_res_, __LINE__)).value()

}  // namespace splitft

#endif  // SRC_COMMON_STATUS_H_
