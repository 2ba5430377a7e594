//===- perfbench/src/Checker.cpp - Untimed correctness checks -------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checker.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

using namespace perfbench;

double perfbench::errorBudget(double Epsilon, double MergeRatio,
                              bool EnableMerges, unsigned Depth,
                              uint64_t NumEvents, uint64_t MaxWeight,
                              uint64_t MergePasses, uint64_t Degraded,
                              uint64_t AdmissionDeferred) {
  double MergeSlack = 1.0;
  if (EnableMerges)
    MergeSlack = MergeRatio > 1.0 + 1e-9 ? MergeRatio / (MergeRatio - 1.0)
                                         : 16.0;
  double WeightSlack = static_cast<double>(std::max(Depth, 1u)) *
                       static_cast<double>(MaxWeight) *
                       (1.0 + static_cast<double>(MergePasses));
  return Epsilon * static_cast<double>(NumEvents) * MergeSlack + WeightSlack +
         static_cast<double>(Degraded) +
         static_cast<double>(AdmissionDeferred) + 1e-6;
}

double perfbench::errorBudget(const rap::RapTree &Tree, uint64_t MaxWeight) {
  const rap::RapConfig &C = Tree.config();
  return errorBudget(C.Epsilon, C.MergeRatio, C.EnableMerges, C.maxDepth(),
                     Tree.numEvents(), MaxWeight, Tree.numMergePasses(),
                     Tree.degradedWeight(), Tree.admissionDeferredWeight());
}

void Checker::fail(std::string Message) {
  ++Failures;
  if (Messages.size() < 8)
    Messages.push_back(std::move(Message));
}

void Checker::alignedEstimate(uint64_t Estimate, uint64_t Truth,
                              double Budget, bool Record) {
  ++Checks;
  char Buf[160];
  if (Estimate > Truth) {
    std::snprintf(Buf, sizeof(Buf),
                  "estimate %" PRIu64 " above the exact count %" PRIu64,
                  Estimate, Truth);
    fail(Buf);
    return;
  }
  double Ratio = static_cast<double>(Truth - Estimate) / Budget;
  if (Record)
    MaxErrOverBound = std::max(MaxErrOverBound, Ratio);
  if (Ratio > 1.0) {
    std::snprintf(Buf, sizeof(Buf),
                  "under-count %" PRIu64 " exceeds the budget %.1f",
                  Truth - Estimate, Budget);
    fail(Buf);
  }
}

void Checker::bracket(uint64_t Lower, uint64_t Upper, uint64_t Truth) {
  ++Checks;
  if (Lower <= Truth && Truth <= Upper)
    return;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "bracket [%" PRIu64 ", %" PRIu64 "] misses the exact %" PRIu64,
                Lower, Upper, Truth);
  fail(Buf);
}

void Checker::require(bool Ok, const char *What) {
  ++Checks;
  if (!Ok)
    fail(What);
}

double perfbench::topKRecall(const std::vector<rap::TopKRange> &Ranges,
                             const std::vector<uint64_t> &HotValues) {
  if (HotValues.empty())
    return 1.0;
  size_t Covered = 0;
  for (uint64_t V : HotValues)
    Covered += std::any_of(Ranges.begin(), Ranges.end(),
                           [V](const rap::TopKRange &R) {
                             return R.Lo <= V && V <= R.Hi;
                           });
  return static_cast<double>(Covered) / static_cast<double>(HotValues.size());
}
