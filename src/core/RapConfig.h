//===- core/RapConfig.h - RAP tree configuration ---------------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration for Range Adaptive Profiling. The knobs correspond
/// directly to the parameters discussed in Sections 2.2 and 3.1 of the
/// paper: the error bound epsilon, the universe size R, the branching
/// factor b, and the merge-interval ratio q.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_CORE_RAPCONFIG_H
#define RAP_CORE_RAPCONFIG_H

#include "support/BitUtils.h"

#include <cstdint>
#include <string>

namespace rap {

/// Parameters of a RAP tree.
///
/// The profiled universe is [0, 2^RangeBits). Splitting a node of range
/// width 2^W produces children of width 2^(W - log2(BranchFactor)),
/// i.e. the tree is the multibit trie of Section 3.2. The split
/// threshold after n events is
///
///   SplitThreshold(n) = Epsilon * n / maxDepth()
///
/// which yields the paper's epsilon guarantee: a range estimate can
/// miss at most one threshold's worth of counts at each of the
/// maxDepth() ancestors along a root path.
struct RapConfig {
  /// log2 of the universe size R. Events outside [0, 2^RangeBits) are
  /// rejected by assertion. Zero is the degenerate single-value
  /// universe R = 1: the root is a unit range, the tree never splits,
  /// and every event must be 0.
  unsigned RangeBits = 32;

  /// Branching factor b; must be a power of two >= 2. The paper picks
  /// b = 4 (Fig 2).
  unsigned BranchFactor = 4;

  /// The user error constant epsilon in (0, 1]: estimates are within
  /// Epsilon * n of the true count (Sec 2.2).
  double Epsilon = 0.01;

  /// Merge-interval growth ratio q >= 1: the k-th batched merge happens
  /// a factor q later than the (k-1)-th (Sec 3.1, Fig 3). The paper
  /// picks q = 2.
  double MergeRatio = 2.0;

  /// Events processed before the first batched merge. The paper's
  /// hardware discussion assumes ~2^10 events before the first merge
  /// (Sec 3.3).
  uint64_t InitialMergeInterval = 1024;

  /// MergeThreshold = MergeThresholdScale * SplitThreshold. The paper
  /// uses the same register for both (Sec 3.3 stage 4), i.e. scale 1.
  double MergeThresholdScale = 1.0;

  /// Disable batched merging entirely (used to demonstrate the
  /// unbounded-growth failure mode of a split-only tree).
  bool EnableMerges = true;

  /// When positive, overrides the paper's proportional split threshold
  /// with a fixed absolute count. This exists for the ablation of the
  /// paper's central design decision: a fixed threshold either lets
  /// the node count grow with the stream (too small) or never refines
  /// rare-but-growing ranges (too large); eps*n/log(R) does neither.
  double FixedSplitThreshold = 0.0;

  /// Hard cap on live tree nodes, mirroring the hardware's fixed range
  /// table (Sec 3.3): 0 means unbounded. At the cap the tree degrades
  /// instead of allocating — leaf splits are refused and forced
  /// coarsening merges reclaim nodes; see docs/ROBUSTNESS.md for the
  /// degraded estimate bound.
  uint64_t MaxNodes = 0;

  /// Memory budget in bytes at the paper's 16-byte node cost
  /// (RapTree::BytesPerNode); 0 means unbounded. Combined with
  /// MaxNodes via effectiveNodeBudget().
  uint64_t MaxMemoryBytes = 0;

  /// Randomized split admission (the Randomized Admission Policy idea
  /// applied to leaf splits): when a leaf's counter crosses the split
  /// threshold T, the split is admitted only with probability
  /// Over / (AdmissionCoarseness * T + 1), where Over = count - T is
  /// how far past the threshold the leaf already is. A cold singleton
  /// that barely crossed T is almost always denied (no allocation
  /// happens); a hot range overshoots T quickly and splits within a
  /// few more arrivals. Every denied arrival's weight is charged to
  /// TreePressure::AdmissionDeferredWeight, so estimates keep a
  /// closed-form bound: the extra under-count of any range beyond the
  /// normal eps*n machinery is at most that charged weight.
  bool EnableAdmission = false;

  /// Admission selectivity knob c: larger values deny more (the
  /// effective coldness estimate is c*T+1 arrivals past the
  /// threshold). Must be finite and >= 0; 0 admits every due split,
  /// reducing the gate to a (deterministic) no-op.
  double AdmissionCoarseness = 4.0;

  /// Seed of the tree's private admission RNG stream. Two trees with
  /// equal configs (seed included) fed equal streams make identical
  /// admission decisions, so runs replay deterministically.
  uint64_t AdmissionSeed = 0x9e3779b97f4a7c15ULL;

  /// Maintains the warm-prefix bitmap (core/RangeFence.h) that lets
  /// estimateRange answer provably-cold queries without walking the
  /// tree.
  /// Pure query acceleration: every estimate is bit-identical with
  /// the fence on or off (rap_fuzz --fence checks exactly that), so
  /// the flag is deliberately NOT serialized — a restored snapshot
  /// re-derives the bitmap under whatever the restoring config says.
  bool EnableRangeFence = true;

  /// The node cap implied by MaxNodes and MaxMemoryBytes together:
  /// the tighter of the two, or 0 when both are unbounded.
  uint64_t effectiveNodeBudget() const {
    // 16 == RapTree::BytesPerNode (static_assert'd in RapTree.cpp);
    // spelled as a literal to keep the dependency one-directional.
    uint64_t FromBytes = MaxMemoryBytes / 16;
    if (MaxNodes == 0)
      return FromBytes;
    if (FromBytes == 0)
      return MaxNodes;
    return MaxNodes < FromBytes ? MaxNodes : FromBytes;
  }

  /// Bits of the key consumed per tree level.
  unsigned bitsPerLevel() const { return log2Exact(BranchFactor); }

  /// Maximum tree depth: ceil(RangeBits / bitsPerLevel()). The root is
  /// depth 0; single-value leaves are at this depth. Zero for the
  /// single-value universe (the root is already a unit range).
  unsigned maxDepth() const {
    return (RangeBits + bitsPerLevel() - 1) / bitsPerLevel();
  }

  /// The split threshold after \p NumEvents events (Sec 2.2), or the
  /// fixed override when configured. For the depth-0 single-value
  /// universe no split can ever happen; the threshold is reported as
  /// if the tree were one level deep.
  double splitThreshold(uint64_t NumEvents) const {
    if (FixedSplitThreshold > 0.0)
      return FixedSplitThreshold;
    unsigned Depth = maxDepth() == 0 ? 1 : maxDepth();
    return Epsilon * static_cast<double>(NumEvents) / Depth;
  }

  /// The merge threshold after \p NumEvents events.
  double mergeThreshold(uint64_t NumEvents) const {
    return MergeThresholdScale * splitThreshold(NumEvents);
  }

  /// Validates all parameters. Returns true if usable; otherwise
  /// returns false and, if \p Error is non-null, stores a diagnostic.
  [[nodiscard]] bool validate(std::string *Error = nullptr) const;
};

} // namespace rap

#endif // RAP_CORE_RAPCONFIG_H
