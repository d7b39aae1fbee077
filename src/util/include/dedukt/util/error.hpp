// Error handling primitives for the DEDUKT library.
//
// The library reports precondition violations and runtime failures with
// exceptions derived from dedukt::Error. The DEDUKT_CHECK / DEDUKT_REQUIRE
// macros capture the failing expression and source location; they are always
// active (not compiled out in release builds) because the library is used as
// the substrate for correctness-critical experiments.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace dedukt {

/// Base class for all errors thrown by the DEDUKT library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public Error {
 public:
  /// `message` is the check's own text for a user, without the expression
  /// and source location `what` carries; empty when the check has none.
  explicit PreconditionError(const std::string& what,
                             std::string message = {})
      : Error(what), message_(std::move(message)) {}

  [[nodiscard]] const std::string& message() const { return message_; }

 private:
  std::string message_;
};

/// Thrown when an input file or stream is malformed.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

/// Thrown when a simulated device or communicator is misused
/// (e.g. out-of-bounds device buffer access, mismatched collective).
class SimulationError : public Error {
 public:
  explicit SimulationError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* kind, const char* expr,
                                             const char* file, int line,
                                             const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  if (std::string(kind) == "DEDUKT_REQUIRE") {
    throw PreconditionError(os.str(), msg);
  }
  throw Error(os.str());
}
}  // namespace detail

}  // namespace dedukt

/// Check an internal invariant; throws dedukt::Error on failure.
#define DEDUKT_CHECK(expr)                                                  \
  do {                                                                      \
    if (!(expr))                                                            \
      ::dedukt::detail::throw_check_failure("DEDUKT_CHECK", #expr,          \
                                            __FILE__, __LINE__, "");        \
  } while (0)

/// Check an internal invariant with a streamed message.
#define DEDUKT_CHECK_MSG(expr, msg)                                         \
  do {                                                                      \
    if (!(expr)) {                                                          \
      std::ostringstream dedukt_os_;                                        \
      dedukt_os_ << msg;                                                    \
      ::dedukt::detail::throw_check_failure("DEDUKT_CHECK", #expr,          \
                                            __FILE__, __LINE__,             \
                                            dedukt_os_.str());              \
    }                                                                       \
  } while (0)

/// Check a caller-facing precondition; throws dedukt::PreconditionError.
#define DEDUKT_REQUIRE(expr)                                                \
  do {                                                                      \
    if (!(expr))                                                            \
      ::dedukt::detail::throw_check_failure("DEDUKT_REQUIRE", #expr,        \
                                            __FILE__, __LINE__, "");        \
  } while (0)

/// Check a caller-facing precondition with a streamed message.
#define DEDUKT_REQUIRE_MSG(expr, msg)                                       \
  do {                                                                      \
    if (!(expr)) {                                                          \
      std::ostringstream dedukt_os_;                                        \
      dedukt_os_ << msg;                                                    \
      ::dedukt::detail::throw_check_failure("DEDUKT_REQUIRE", #expr,        \
                                            __FILE__, __LINE__,             \
                                            dedukt_os_.str());              \
    }                                                                       \
  } while (0)
