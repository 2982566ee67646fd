#ifndef LODVIZ_COMMON_STATUS_H_
#define LODVIZ_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace lodviz {

/// Error categories used across the library. Modeled after the
/// Status idiom used by Arrow and RocksDB: library code never throws;
/// fallible operations return Status (or Result<T>, see result.h).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kParseError,
  kIoError,
  kResourceExhausted,
  kUnimplemented,
  kInternal,
  kCancelled,
  kCorruption,
};

/// Returns a short human-readable name for a status code ("ParseError", ...).
std::string_view StatusCodeToString(StatusCode code);

/// A cheap value type describing the outcome of an operation.
///
/// The OK status carries no allocation; error statuses carry a message.
/// Typical use:
///
///   Status s = store.Insert(triple);
///   if (!s.ok()) return s;
///
/// [[nodiscard]]: dropping a Status on the floor silently swallows errors;
/// every producer's caller must consume or explicitly void-cast it.
class [[nodiscard]] Status {
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
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace lodviz

/// Propagates an error status out of the current function.
#define LODVIZ_RETURN_NOT_OK(expr)                 \
  do {                                             \
    ::lodviz::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                     \
  } while (0)

#endif  // LODVIZ_COMMON_STATUS_H_
