#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace sbon {
namespace {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

namespace internal {

void DieOnBadStatusOrAccess(const Status& status) {
  std::fprintf(stderr, "StatusOr value accessed on error: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal

}  // namespace sbon
