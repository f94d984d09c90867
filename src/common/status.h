#ifndef SBON_COMMON_STATUS_H_
#define SBON_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace sbon {

/// Error categories used throughout the library. Follows the RocksDB/Arrow
/// convention of status-based error handling; the library never throws.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kOutOfRange,
  kAlreadyExists,
  kResourceExhausted,
  kInternal,
};

/// A lightweight status object carrying an error code and a message.
///
/// Functions that can fail return `Status` (or `StatusOr<T>` when they also
/// produce a value). The `kOk` singleton is cheap to copy.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "InvalidArgument: bad radius".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

namespace internal {
/// Prints `status` to stderr and aborts. Out of line so the check in every
/// StatusOr accessor stays one compare and a cold call.
[[noreturn]] void DieOnBadStatusOrAccess(const Status& status);
}  // namespace internal

/// Either a value of type `T` or an error `Status`. Accessing the value of a
/// non-OK result is a programming error: it prints the status and aborts in
/// every build.
template <typename T>
class StatusOr {
 public:
  /// Implicit construction from a value; mirrors absl::StatusOr ergonomics.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from an error status (must not be OK).
  StatusOr(Status status)  // NOLINT(runtime/explicit)
      : status_(std::move(status)) {
    assert(!status_.ok() && "StatusOr constructed from OK status");
  }

  bool ok() const { return status_.ok() && value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CheckOk();
    return *value_;
  }
  T& value() & {
    CheckOk();
    return *value_;
  }
  T&& value() && {
    CheckOk();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) [[unlikely]] {
      internal::DieOnBadStatusOrAccess(status_);
    }
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace sbon

#endif  // SBON_COMMON_STATUS_H_
