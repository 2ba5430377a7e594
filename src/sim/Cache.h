//===- sim/Cache.h - Set-associative LRU cache model -----------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A trace-driven set-associative LRU cache and a two-level hierarchy.
/// Fig 9 of the paper profiles the load values of DL1 and DL2 misses;
/// this model filters the synthetic load stream exactly the way the
/// authors' machine caches filtered theirs: addresses with temporal
/// reuse hit, streaming scans miss.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_SIM_CACHE_H
#define RAP_SIM_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

namespace rap {

/// Geometry of one cache level.
struct CacheConfig {
  uint64_t SizeBytes = 32 * 1024;
  unsigned Associativity = 4;
  unsigned LineBytes = 64;

  /// Number of sets implied by the geometry.
  uint64_t numSets() const {
    return SizeBytes / (static_cast<uint64_t>(Associativity) * LineBytes);
  }

  /// Validates the geometry (power-of-two sets and line size). Returns
  /// true if usable; otherwise false with a diagnostic in \p Error.
  [[nodiscard]] bool validate(std::string *Error = nullptr) const;
};

/// One set-associative cache level with true-LRU replacement.
class SetAssocCache {
public:
  explicit SetAssocCache(const CacheConfig &Geometry);

  /// Looks up \p Address; on a miss the line is filled (allocating,
  /// write-allocate semantics are irrelevant since we model loads).
  /// Returns true on a hit.
  bool access(uint64_t Address);

  /// Invalidates all lines and zeroes statistics.
  void reset();

  uint64_t numAccesses() const { return NumAccesses; }
  uint64_t numHits() const { return NumHits; }
  uint64_t numMisses() const { return NumAccesses - NumHits; }

  /// Miss ratio (0 when no accesses yet).
  double missRatio() const {
    return NumAccesses == 0
               ? 0.0
               : static_cast<double>(numMisses()) /
                     static_cast<double>(NumAccesses);
  }

  const CacheConfig &config() const { return Config; }

private:
  struct Line {
    uint64_t Tag = 0;
    bool Valid = false;
  };

  CacheConfig Config;
  unsigned LineShift;
  uint64_t SetMask;
  /// Ways of each set, most recently used first.
  std::vector<std::vector<Line>> Sets;
  uint64_t NumAccesses = 0;
  uint64_t NumHits = 0;
};

/// Two-level data cache hierarchy (DL1 backed by DL2), accessed on
/// every load. DL2 sees only DL1 misses.
class CacheHierarchy {
public:
  /// Outcome of one load.
  struct Result {
    bool L1Hit = false;
    bool L2Hit = false; ///< Meaningful only when !L1Hit.
  };

  CacheHierarchy(const CacheConfig &L1Config, const CacheConfig &L2Config)
      : L1(L1Config), L2(L2Config) {}

  /// Performs one load at \p Address through the hierarchy.
  Result access(uint64_t Address);

  const SetAssocCache &l1() const { return L1; }
  const SetAssocCache &l2() const { return L2; }

  /// The paper-era default geometry: 32KB/4-way DL1, 512KB/8-way DL2,
  /// 64B lines.
  static CacheHierarchy makeDefault();

private:
  SetAssocCache L1;
  SetAssocCache L2;
};

} // namespace rap

#endif // RAP_SIM_CACHE_H
