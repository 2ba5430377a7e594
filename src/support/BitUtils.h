//===- support/BitUtils.h - Bit manipulation helpers ----------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small constexpr bit-manipulation helpers used throughout the RAP
/// libraries. The RAP tree works on power-of-two aligned ranges, so
/// log2 / alignment utilities are on the hot path of every update.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SUPPORT_BITUTILS_H
#define RAP_SUPPORT_BITUTILS_H

#include <bit>
#include <cassert>
#include <cstdint>

namespace rap {

/// Returns true if \p X is a power of two. Zero is not a power of two.
constexpr bool isPowerOfTwo(uint64_t X) { return X != 0 && (X & (X - 1)) == 0; }

/// Floor of log base 2 of \p X. \p X must be nonzero.
constexpr unsigned log2Floor(uint64_t X) {
  assert(X != 0 && "log2Floor of zero");
  return 63u - static_cast<unsigned>(std::countl_zero(X));
}

/// Ceiling of log base 2 of \p X. \p X must be nonzero.
constexpr unsigned log2Ceil(uint64_t X) {
  assert(X != 0 && "log2Ceil of zero");
  return isPowerOfTwo(X) ? log2Floor(X) : log2Floor(X) + 1;
}

/// Exact log base 2 of the power-of-two \p X.
constexpr unsigned log2Exact(uint64_t X) {
  assert(isPowerOfTwo(X) && "log2Exact of non-power-of-two");
  return log2Floor(X);
}

/// Returns \p X rounded down to a multiple of the power-of-two \p Align.
constexpr uint64_t alignDown(uint64_t X, uint64_t Align) {
  assert(isPowerOfTwo(Align) && "alignment must be a power of two");
  return X & ~(Align - 1);
}

/// Returns a mask with the low \p Bits bits set. \p Bits may be 64.
constexpr uint64_t lowBitMask(unsigned Bits) {
  assert(Bits <= 64 && "mask wider than 64 bits");
  return Bits == 64 ? ~uint64_t(0) : (uint64_t(1) << Bits) - 1;
}

/// Width (in values) of a range spanning \p Bits bits, saturating at
/// 2^64-1 for Bits == 64 so the value stays representable. Callers that
/// need exact widths should work in log space instead.
constexpr uint64_t widthForBits(unsigned Bits) { return lowBitMask(Bits); }

/// Returns A + B, clamped to 2^64-1 on overflow. Totals that can pass
/// the counter width (cross-shard sums, the pressure weights) use this
/// so they degrade to a saturated (still monotone) count instead of
/// silently wrapping.
constexpr uint64_t saturatingAdd(uint64_t A, uint64_t B) {
  uint64_t Sum = A + B;
  return Sum < A ? ~uint64_t(0) : Sum;
}

/// Returns A * B, clamped to 2^64-1 on overflow. Used where a counter
/// is scaled by a user-supplied weight (e.g. node-count integrals) so
/// the product degrades to a saturated value instead of wrapping.
constexpr uint64_t saturatingMul(uint64_t A, uint64_t B) {
  if (A == 0 || B == 0)
    return 0;
  uint64_t Product = A * B;
  return Product / A != B ? ~uint64_t(0) : Product;
}

} // namespace rap

#endif // RAP_SUPPORT_BITUTILS_H
