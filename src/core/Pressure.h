//===- core/Pressure.h - Resource-pressure counters ------------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observable degradation state of a budgeted tree. The hardware RAP
/// table has a fixed capacity and coarsens instead of growing (Sec
/// 3.3); the software trees mirror that under RapConfig::MaxNodes /
/// MaxMemoryBytes and expose what happened through these counters so
/// callers (RapProfiler stats, rap_profile, the C API) can tell a
/// healthy profile from a degraded one. See docs/ROBUSTNESS.md.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_CORE_PRESSURE_H
#define RAP_CORE_PRESSURE_H

#include "support/BitUtils.h"

#include <cstdint>

namespace rap {

/// An event-weight total that can pass 2^64-1 (it counts weight the
/// tree did not admit, so one tree's stream total does not bound it)
/// and therefore clamps there instead of wrapping. It reads as a
/// uint64_t; add() is its only update, so a raw `+=`, `++` or `=` of
/// an integer does not compile.
class SaturatingWeight {
public:
  constexpr SaturatingWeight() = default;
  constexpr explicit SaturatingWeight(uint64_t Initial) : Value(Initial) {}
  constexpr void add(uint64_t Weight) { Value = saturatingAdd(Value, Weight); }
  constexpr operator uint64_t() const { return Value; }

private:
  uint64_t Value = 0;
};

/// Pressure counters of one tree. All counters are cumulative over
/// the tree's lifetime and only ever increase (CoarsenLevel saturates
/// at its cap).
struct TreePressure {
  /// The effective node cap (0 = unbounded); fixed at construction
  /// from RapConfig::effectiveNodeBudget().
  uint64_t NodeBudget = 0;

  /// Split attempts that found the budget full (whether or not the
  /// forced reclamation pass then made room).
  uint64_t BudgetHits = 0;

  /// Splits abandoned for good: the budget stayed full after a forced
  /// pass, or the allocation itself failed. Each refusal leaves one
  /// event's weight above the granularity the guarantee calls for.
  uint64_t RefusedSplits = 0;

  /// Coarsening passes forced by pressure (these are reclamation, not
  /// the paper's scheduled batched merges, and are accounted
  /// separately so the merge-schedule analysis stays intact).
  uint64_t ForcedMergePasses = 0;

  /// Nodes reclaimed by forced passes.
  uint64_t ReclaimedNodes = 0;

  /// Escalation level of the forced-pass threshold: each level doubles
  /// the fold threshold, so a persistently full tree coarsens harder.
  uint64_t CoarsenLevel = 0;

  /// Total event weight pushed outside the eps*n guarantee: weight of
  /// refused-split events, weight folded upward by forced passes, and
  /// weight past a 2^64-1 stream total. Any range estimate's extra
  /// error beyond the normal bound is at most this.
  SaturatingWeight DegradedWeight;

  /// std::bad_alloc absorbed on the split path (real or injected);
  /// each one also counts as a refused split.
  uint64_t AllocFailures = 0;

  /// Due splits denied by the randomized admission gate
  /// (RapConfig::EnableAdmission). Distinct from RefusedSplits: a
  /// denial is a deliberate bet that the leaf is cold, not a resource
  /// failure, and it never escalates CoarsenLevel.
  uint64_t AdmissionDeniedSplits = 0;

  /// Total event weight of admission-denied arrivals. The extra
  /// under-count any range estimate can accumulate from admission,
  /// beyond the normal eps*n machinery, is at most this — the
  /// closed-form bound AdmissionAccuracyTest and the oracle verify.
  SaturatingWeight AdmissionDeferredWeight;
};

} // namespace rap

#endif // RAP_CORE_PRESSURE_H
