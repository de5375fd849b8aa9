#ifndef KGACC_UTIL_STATUS_H_
#define KGACC_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "kgacc/util/check.h"

/// \file status.h
/// Error handling primitives in the Arrow/RocksDB style: public kgacc APIs
/// never throw; fallible operations return `Status` or `Result<T>`.

namespace kgacc {

/// Machine-readable error category attached to every non-OK Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kNotFound,
  kIoError,
  kNumericError,
  kUnimplemented,
  kInternal,
  kDeadlineExceeded,
  kQuotaExceeded,
};

/// Returns a stable human-readable name for a status code ("InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// Outcome of an operation: either OK, or a code plus a diagnostic message.
///
/// Statuses are cheap to copy (the OK case stores no message). Typical use:
///
///     Status s = DoThing();
///     if (!s.ok()) return s;
///
/// A discarded Status is a compile warning; a caller that means to drop
/// one says so with `IgnoreError()`.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Named constructors, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status NumericError(std::string msg) {
    return Status(StatusCode::kNumericError, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status QuotaExceeded(std::string msg) {
    return Status(StatusCode::kQuotaExceeded, std::move(msg));
  }

  /// True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  /// Drops this status on purpose: the call site is best-effort and a
  /// failure needs no handling there.
  void IgnoreError() const {}

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Analogous to
/// `absl::StatusOr<T>` / `arrow::Result<T>`. Discarding one is a compile
/// warning, as for `Status`.
///
///     Result<double> r = BetaQuantile(...);
///     if (!r.ok()) return r.status();
///     double q = *r;
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a successful result holding `value`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Constructs a failed result. `status` must not be OK.
  Result(Status status)  // NOLINT(runtime/explicit)
      : status_(std::move(status)) {
    KGACC_CHECK(!status_.ok());
  }

  bool ok() const { return value_.has_value(); }
  /// The error; `Status::OK()` when a value is present.
  const Status& status() const { return status_; }

  /// The held value; must only be called when `ok()`.
  const T& value() const& {
    KGACC_CHECK(value_.has_value());
    return *value_;
  }
  T& value() & {
    KGACC_CHECK(value_.has_value());
    return *value_;
  }
  T&& value() && {
    KGACC_CHECK(value_.has_value());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` when this result holds an error.
  T value_or(T fallback) const {
    return value_.has_value() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK status to the caller.
#define KGACC_RETURN_IF_ERROR(expr)              \
  do {                                           \
    ::kgacc::Status kgacc_status_ = (expr);      \
    if (!kgacc_status_.ok()) return kgacc_status_; \
  } while (0)

/// Evaluates a `Result<T>` expression, propagating errors and otherwise
/// binding the value to `lhs`.
#define KGACC_ASSIGN_OR_RETURN(lhs, expr)                 \
  KGACC_ASSIGN_OR_RETURN_IMPL_(                           \
      KGACC_STATUS_CONCAT_(kgacc_result_, __LINE__), lhs, expr)

#define KGACC_STATUS_CONCAT_INNER_(a, b) a##b
#define KGACC_STATUS_CONCAT_(a, b) KGACC_STATUS_CONCAT_INNER_(a, b)
#define KGACC_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value()

}  // namespace kgacc

#endif  // KGACC_UTIL_STATUS_H_
