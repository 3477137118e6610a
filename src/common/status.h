#ifndef RWDT_COMMON_STATUS_H_
#define RWDT_COMMON_STATUS_H_

#include <cstddef>
#include <string>
#include <utility>
#include <variant>

namespace rwdt {

/// Error codes used across the library. Fallible operations never throw;
/// they return a `Status` or a `Result<T>` (RocksDB-style).
enum class Code {
  kOk = 0,
  kInvalidArgument,
  kParseError,
  kNotFound,
  kOutOfRange,
  kUnsupported,
  kResourceExhausted,
  kInternal,
  kLexError,       // malformed token before any grammar rule applies
  kEncodingError,  // byte-level breakage (invalid UTF-8 etc.)
};

/// A lightweight success/error value. Cheap to copy on the OK path.
class Status {
 public:
  Status() : code_(Code::kOk) {}
  Status(Code code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(Code::kParseError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(Code::kOutOfRange, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(Code::kUnsupported, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }
  static Status LexError(std::string msg) {
    return Status(Code::kLexError, std::move(msg));
  }
  static Status EncodingError(std::string msg) {
    return Status(Code::kEncodingError, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  explicit operator bool() const { return ok(); }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }
  /// Alias for `message()`, mirroring `Result<T>::error_message()` so
  /// generic code can report either uniformly.
  const std::string& error_message() const { return message_; }

  std::string ToString() const;

 private:
  Code code_;
  std::string message_;
};

/// Either a value of type `T` or an error `Status`. Accessing `value()`
/// on an error result is a programming error (asserted in debug builds).
template <typename T>
class Result {
 public:
  /// Implicit construction from a value keeps call sites terse
  /// (`return expr;`), mirroring absl::StatusOr.
  Result(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : data_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(data_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& { return std::get<T>(data_); }
  T& value() & { return std::get<T>(data_); }
  T&& value() && { return std::get<T>(std::move(data_)); }

  /// Returns the error status, or OK when this holds a value. The
  /// rvalue overload moves the message out instead of copying it.
  Status status() const& {
    if (ok()) return Status::Ok();
    return std::get<Status>(data_);
  }
  Status status() && {
    if (ok()) return Status::Ok();
    return std::get<Status>(std::move(data_));
  }

  /// The error message, or "" when this holds a value.
  std::string error_message() const {
    return ok() ? std::string() : std::get<Status>(data_).message();
  }

  const T& value_or(const T& fallback) const {
    return ok() ? std::get<T>(data_) : fallback;
  }

 private:
  std::variant<T, Status> data_;
};

// --- Error taxonomy ---------------------------------------------------------

/// The ingest pipeline's failure taxonomy: every rejected raw query is
/// assigned exactly one class, counted per-class in `engine::Metrics`
/// (the paper's query-log tables are defined over the *Valid* subset
/// precisely because real logs carry all of these).
enum class ErrorClass : size_t {
  kLexError = 0,        // bad token / character before grammar kicks in
  kParseError,          // grammatically malformed
  kUnsupportedFeature,  // recognized but outside the supported fragment
  kResourceExhausted,   // over byte / AST-node / step budgets
  kEncodingError,       // invalid UTF-8 or other byte-level breakage
};
inline constexpr size_t kNumErrorClasses = 5;

/// Stable snake_case name, e.g. "parse_error" (used as a JSON key).
const char* ErrorClassName(ErrorClass c);

/// Maps a non-OK Status onto the taxonomy. Codes without a dedicated
/// class (kInvalidArgument, kInternal, ...) classify as kParseError.
ErrorClass ClassifyStatus(const Status& status);

// --- Control-flow macros ----------------------------------------------------

namespace internal {
inline const Status& AsStatus(const Status& s) { return s; }
inline Status AsStatus(Status&& s) { return std::move(s); }
template <typename T>
Status AsStatus(const Result<T>& r) {
  return r.status();
}
template <typename T>
Status AsStatus(Result<T>&& r) {
  return std::move(r).status();
}
}  // namespace internal

/// Evaluates an expression yielding a `Status` or `Result<T>`; on error,
/// returns the error status from the enclosing function (which may itself
/// return either `Status` or any `Result<U>`). A temporary's status is
/// moved out, not copied, so an error climbing many calls keeps one
/// message buffer.
#define RWDT_RETURN_IF_ERROR(expr)                                       \
  do {                                                                   \
    if (auto _rwdt_status = ::rwdt::internal::AsStatus((expr));          \
        !_rwdt_status.ok()) {                                            \
      return _rwdt_status;                                               \
    }                                                                    \
  } while (0)

#define RWDT_MACRO_CONCAT_INNER_(x, y) x##y
#define RWDT_MACRO_CONCAT_(x, y) RWDT_MACRO_CONCAT_INNER_(x, y)

/// `RWDT_ASSIGN_OR_RETURN(auto v, ParseThing(...));` — unwraps a
/// `Result<T>` into `v`, or returns the error status from the enclosing
/// function. `lhs` may be a declaration or an existing lvalue.
#define RWDT_ASSIGN_OR_RETURN(lhs, rexpr) \
  RWDT_ASSIGN_OR_RETURN_IMPL_(            \
      RWDT_MACRO_CONCAT_(_rwdt_result_, __COUNTER__), lhs, rexpr)

#define RWDT_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                \
  if (!tmp.ok()) return std::move(tmp).status();     \
  lhs = std::move(tmp).value()

}  // namespace rwdt

#endif  // RWDT_COMMON_STATUS_H_
