//===- verify/DifferentialOracle.h - RAP vs exact oracle ------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential checking of the paper's accuracy guarantees: an
/// identical stream is fed to the RAP tree under test, to the exact
/// offline profiler (ground truth, Sec 4.3), and to a flat fixed-range
/// profiler whose bucket-aligned counts are themselves exact — a second
/// independent oracle that cross-validates the first. checkNow() then
/// asserts, for exhaustive grid-aligned ranges and for randomly drawn
/// arbitrary ranges:
///
///   - estimates never exceed the truth (lower-bound property),
///   - grid-aligned under-estimates stay within the provable error
///     bound — eps * n of Sec 2.2, times the q/(q-1) merge-fold factor
///     when batched merging is enabled, plus the documented
///     weighted-event slack (docs/VERIFICATION.md),
///   - [lower, upper] brackets from estimateRangeBounds contain the
///     truth,
///   - every reported hot range is truly hot (precision), and every
///     value heavier than (phi + eps) * n is covered by some reported
///     hot range (recall) — Sec 4.1/4.3,
///   - topK reports are score-ordered, k-nested (topK(k) is a prefix
///     of topK(k+m)), prefixes of the unpruned topK(numNodes()),
///     bracketed by the truth, and cover every value whose true count
///     clears the k-th score plus the error budget.
///
/// All checks report violations instead of asserting, so they run in
/// NDEBUG builds and compose with the fuzz driver's seed minimization.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_VERIFY_DIFFERENTIALORACLE_H
#define RAP_VERIFY_DIFFERENTIALORACLE_H

#include "baselines/ExactProfiler.h"
#include "baselines/FlatRangeProfiler.h"
#include "core/StageZeroBuffer.h"
#include "support/Rng.h"
#include "verify/ReferenceRapTree.h"
#include "verify/TreeInvariants.h"

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

namespace rap {

/// Knobs for the oracle's query battery.
struct OracleOptions {
  /// Budget of exhaustively enumerated grid-aligned ranges per check
  /// (widest levels first; a level that no longer fits is sampled).
  uint64_t AlignedQueryBudget = 2048;

  /// Randomly drawn arbitrary (unaligned) ranges per check.
  unsigned RandomQueries = 64;

  /// Hotness fractions to cross-check hot-range extraction at.
  std::vector<double> HotPhis = {0.01, 0.05, 0.20};

  /// log2 of the flat cross-check profiler's bucket count (clipped to
  /// the universe). Flat bucket counts are exact at this granularity.
  unsigned FlatBucketBits = 10;

  /// Extra multiplier on the error budget. The budget already includes
  /// the provable merge-fold slack — eps * n with merges disabled,
  /// eps * n * q/(q-1) with merges enabled (docs/VERIFICATION.md) —
  /// so 1.0 enforces the provable bound; tests inject tighter or
  /// looser budgets through this knob.
  double ErrorBoundFactor = 1.0;

  /// Nonzero routes the tree-side stream through a StageZeroBuffer of
  /// this capacity (software stage-0 combining, Sec 3.3): the tree and
  /// the reference tree see coalesced (event, weight) pairs at drain
  /// points while the exact/flat oracles keep seeing the raw stream —
  /// so every accuracy check also validates the combining path.
  /// checkNow() flushes pending events first.
  uint64_t CombineCapacity = 0;

  /// Cross-check the arena tree structurally against the preserved
  /// legacy implementation (ReferenceRapTree) fed the identical
  /// (combined) stream. Preorder (lo, width, count) identity implies
  /// identical estimates, brackets and hot ranges, which is the
  /// arena-vs-legacy equivalence guarantee. The legacy tree models
  /// node budgets and admission too (TreePressure counters are
  /// compared as well), but not injected allocation failures: turn
  /// this off when a failpoint is armed.
  bool CrossCheckReference = true;

  /// Maintain a twin RapTree with EnableRangeFence flipped, fed the
  /// identical (combined) stream, and require every estimate, bracket
  /// and topK report to match the audited tree bit for bit. The fence
  /// is advertised as pure query acceleration; this is the invariant
  /// that backs the claim. Unlike the reference cross-check it stays
  /// valid under budgets and admission (the fence consumes no
  /// randomness and never changes tree structure).
  bool CrossCheckFence = true;
};

/// Feeds one stream to all three profilers and checks them against
/// each other.
class DifferentialOracle {
public:
  explicit DifferentialOracle(const RapConfig &Config,
                              OracleOptions Options = {});

  /// Feeds \p Weight occurrences of \p X to the tree (through the
  /// online transition auditor), the exact profiler, and the flat
  /// profiler. With CombineCapacity set, the tree side is held back in
  /// the combining buffer until a window fills or checkNow() runs.
  void addPoint(uint64_t X, uint64_t Weight = 1);

  /// Runs the whole query battery now (flushing the combining buffer
  /// first), drawing random queries from \p QueryRng. Violations
  /// accumulate across calls.
  void checkNow(Rng &QueryRng);

  /// All violations found so far: differential failures plus anything
  /// the online transition auditor caught during feeding.
  std::vector<InvariantViolation> violations() const;

  /// The audited tree.
  const RapTree &tree() const { return Tree; }

  /// Ground truth profiler (for tests that want to poke at it).
  const ExactProfiler &exact() const { return Exact; }

  /// The eps * n error budget currently enforced, including the
  /// weighted-event slack.
  double errorBudget() const;

  /// The legacy cross-check tree, or null when CrossCheckReference is
  /// off.
  const ReferenceRapTree *reference() const { return Reference.get(); }

  /// The fence-flipped twin tree, or null when CrossCheckFence is
  /// off.
  const RapTree *fenceTwin() const { return FenceTwin.get(); }

private:
  void checkRange(uint64_t Lo, uint64_t Hi, bool GridAligned);
  void checkHotRanges(double Phi);
  void checkTopK();
  void checkReference();

  /// Hands one (possibly combined) pair to the audited tree and the
  /// reference tree.
  void deliverPoint(uint64_t X, uint64_t Weight);

  /// Drains any pending combined pairs into the trees.
  void flushCombiner();

  RapConfig Config;
  OracleOptions Options;
  RapTree Tree;
  OnlineAuditor Auditor;
  ExactProfiler Exact;
  FlatRangeProfiler Flat;
  std::unique_ptr<ReferenceRapTree> Reference;
  std::unique_ptr<RapTree> FenceTwin;
  std::unique_ptr<StageZeroBuffer> Combiner;
  uint64_t MaxWeight = 1;
  std::vector<InvariantViolation> Violations;
};

/// Appends a "topk-prefix" violation to \p Out for each K in \p Ks
/// whose topK(K) over \p Tree is not a field-for-field prefix of its
/// topK(numNodes()): the K at which topK's heap fills only at the last
/// node, so its walk prunes no subtree. \p Which names the tree in the
/// detail.
void checkTopKPrefix(const RapTree &Tree, std::initializer_list<size_t> Ks,
                     const char *Which, std::vector<InvariantViolation> &Out);

} // namespace rap

#endif // RAP_VERIFY_DIFFERENTIALORACLE_H
