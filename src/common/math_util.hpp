// Small arithmetic helpers shared across the library.
#pragma once

#include <cstdint>

#include "common/check.hpp"

namespace epim {

/// Ceiling division for non-negative integers; b must be positive.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Round a up to the next multiple of b (b > 0).
constexpr std::int64_t round_up(std::int64_t a, std::int64_t b) {
  return ceil_div(a, b) * b;
}

/// True if x is a power of two (x > 0).
constexpr bool is_pow2(std::int64_t x) { return x > 0 && (x & (x - 1)) == 0; }

/// Integer log2 of a power of two.
inline int ilog2(std::int64_t x) {
  EPIM_CHECK(is_pow2(x), "ilog2 requires a positive power of two");
  int n = 0;
  while (x > 1) {
    x >>= 1;
    ++n;
  }
  return n;
}

}  // namespace epim
