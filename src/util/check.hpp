#pragma once
// Error-handling primitives shared by every wdag module.
//
// The library distinguishes three failure classes:
//  * precondition violations by the caller  -> wdag::InvalidArgument
//  * violated internal invariants (bugs)    -> wdag::InternalError
//  * inputs outside an algorithm's domain   -> wdag::DomainError
//    (e.g. running the Theorem-1 colorer on a DAG that has an internal
//    cycle, which the theorem explicitly excludes)
//
// All three derive from std::runtime_error so callers can catch broadly.

#include <sstream>
#include <stdexcept>
#include <string>

namespace wdag {

/// Thrown when a caller violates a documented precondition.
class InvalidArgument : public std::runtime_error {
 public:
  explicit InvalidArgument(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an internal invariant fails; indicates a library bug.
class InternalError : public std::runtime_error {
 public:
  explicit InternalError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an input is structurally outside an algorithm's domain.
class DomainError : public std::runtime_error {
 public:
  explicit DomainError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
template <class Err>
[[noreturn]] inline void fail(const char* file, int line, const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": " << msg;
  throw Err(os.str());
}
}  // namespace detail

}  // namespace wdag

/// Precondition check: throws wdag::InvalidArgument carrying `msg` alone.
/// A precondition error is the caller's fault (often a user's input, via the
/// CLI or the serve protocol); the message names its function, not a file.
#define WDAG_REQUIRE(cond, msg)                                              \
  do {                                                                       \
    if (!(cond)) throw ::wdag::InvalidArgument(std::string(msg));            \
  } while (0)

/// Internal invariant check: throws wdag::InternalError when `cond` is false.
#define WDAG_ASSERT(cond, msg)                                               \
  do {                                                                       \
    if (!(cond))                                                             \
      ::wdag::detail::fail<::wdag::InternalError>(__FILE__, __LINE__,        \
                                                  std::string(msg));         \
  } while (0)

/// Domain check: throws wdag::DomainError when `cond` is false.
#define WDAG_DOMAIN(cond, msg)                                               \
  do {                                                                       \
    if (!(cond))                                                             \
      ::wdag::detail::fail<::wdag::DomainError>(__FILE__, __LINE__,          \
                                                std::string(msg));           \
  } while (0)
