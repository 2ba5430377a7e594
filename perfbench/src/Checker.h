//===- perfbench/src/Checker.h - Untimed correctness checks ------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's correctness checker. It runs between the timed
/// phases, never inside them, and compares what the profiler answered
/// against an exact reference:
///
///  - every estimate of a power-of-two-aligned range is a lower bound
///    that misses at most the error budget;
///  - every [lower, upper] bracket (estimateRangeBounds, topK) contains
///    the exact count;
///  - snapshot round trips and event conservation hold (require()).
///
/// Every violation is one failure; nothing is filtered.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKER_H
#define PERFBENCH_CHECKER_H

#include "core/RapTree.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The DifferentialOracle::errorBudget formula over public counters:
/// eps*n*q/(q-1) + depth*maxW*(1+passes) + degraded + admission-deferred.
double errorBudget(double Epsilon, double MergeRatio, bool EnableMerges,
                   unsigned Depth, uint64_t NumEvents, uint64_t MaxWeight,
                   uint64_t MergePasses, uint64_t Degraded,
                   uint64_t AdmissionDeferred);

/// errorBudget for a live RapTree fed events of weight <= \p MaxWeight.
double errorBudget(const rap::RapTree &Tree, uint64_t MaxWeight);

class Checker {
public:
  /// An estimate of an aligned range with exact count \p Truth. Only
  /// estimates with \p Record set feed maxErrOverBound().
  void alignedEstimate(uint64_t Estimate, uint64_t Truth, double Budget,
                       bool Record = true);
  /// A bracket that must contain \p Truth.
  void bracket(uint64_t Lower, uint64_t Upper, uint64_t Truth);
  /// A property that must hold.
  void require(bool Ok, const char *What);

  uint64_t checks() const { return Checks; }
  uint64_t failures() const { return Failures; }
  /// Largest recorded under-count divided by its budget.
  double maxErrOverBound() const { return MaxErrOverBound; }
  /// Starts a new maximum (failures and checks keep counting).
  void resetMaxErrOverBound() { MaxErrOverBound = 0.0; }
  /// The first few failures, for the run log.
  const std::vector<std::string> &messages() const { return Messages; }

private:
  void fail(std::string Message);

  uint64_t Checks = 0;
  uint64_t Failures = 0;
  double MaxErrOverBound = 0.0;
  std::vector<std::string> Messages;
};

/// Fraction of \p HotValues covered by some range of \p Ranges.
double topKRecall(const std::vector<rap::TopKRange> &Ranges,
                  const std::vector<uint64_t> &HotValues);

} // namespace perfbench

#endif // PERFBENCH_CHECKER_H
