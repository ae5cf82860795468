#include "src/common/status.h"

#include <cstdlib>

#include "src/common/logging.h"

namespace splitft {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kPermissionDenied:
      return "PermissionDenied";
    case StatusCode::kDataLoss:
      return "DataLoss";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kAborted:
      return "Aborted";
    case StatusCode::kTimedOut:
      return "TimedOut";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

Status OkStatus() { return Status(); }

namespace {
Status Make(StatusCode code, std::string_view msg) {
  return Status(code, std::string(msg));
}
}  // namespace

Status NotFoundError(std::string_view msg) {
  return Make(StatusCode::kNotFound, msg);
}
Status AlreadyExistsError(std::string_view msg) {
  return Make(StatusCode::kAlreadyExists, msg);
}
Status InvalidArgumentError(std::string_view msg) {
  return Make(StatusCode::kInvalidArgument, msg);
}
Status FailedPreconditionError(std::string_view msg) {
  return Make(StatusCode::kFailedPrecondition, msg);
}
Status UnavailableError(std::string_view msg) {
  return Make(StatusCode::kUnavailable, msg);
}
Status PermissionDeniedError(std::string_view msg) {
  return Make(StatusCode::kPermissionDenied, msg);
}
Status DataLossError(std::string_view msg) {
  return Make(StatusCode::kDataLoss, msg);
}
Status ResourceExhaustedError(std::string_view msg) {
  return Make(StatusCode::kResourceExhausted, msg);
}
Status AbortedError(std::string_view msg) {
  return Make(StatusCode::kAborted, msg);
}
Status TimedOutError(std::string_view msg) {
  return Make(StatusCode::kTimedOut, msg);
}
Status InternalError(std::string_view msg) {
  return Make(StatusCode::kInternal, msg);
}

namespace status_internal {

void CheckOkFailed(const Status& status, const char* expr, const char* file,
                   int line) {
  LOG_ERROR << "CHECK_OK(" << expr << ") failed at " << file << ":" << line
            << ": " << status.ToString();
  std::abort();
}

}  // namespace status_internal

}  // namespace splitft
