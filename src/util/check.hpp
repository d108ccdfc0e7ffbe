// Lightweight precondition / invariant checking.
//
// SUBSPAR_REQUIRE is used for caller-facing preconditions (throws
// std::invalid_argument); SUBSPAR_ENSURE for internal invariants (throws
// std::logic_error). Both stay enabled in release builds: every check guards
// a numerical-validity condition whose violation would silently corrupt an
// extraction run.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace subspar {

/// The grid-size precondition of the quadtree and of both DCT-diagonalized
/// solvers.
inline bool is_power_of_two(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

[[noreturn]] inline void fail_require(const char* cond, const char* file, int line) {
  throw std::invalid_argument(std::string("requirement failed: ") + cond + " at " + file + ":" +
                              std::to_string(line));
}

[[noreturn]] inline void fail_ensure(const char* cond, const char* file, int line) {
  throw std::logic_error(std::string("invariant failed: ") + cond + " at " + file + ":" +
                         std::to_string(line));
}

}  // namespace subspar

#define SUBSPAR_REQUIRE(cond) \
  do {                        \
    if (!(cond)) ::subspar::fail_require(#cond, __FILE__, __LINE__); \
  } while (0)

#define SUBSPAR_ENSURE(cond) \
  do {                       \
    if (!(cond)) ::subspar::fail_ensure(#cond, __FILE__, __LINE__); \
  } while (0)
