//===- tests/core/AdmissionAccuracyTest.cpp - Admission sweeps -----------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized-accuracy sweeps for the split-admission gate and the
/// top-k hot-range report. Over the shared 50-configuration sweep
/// (SweepSampler, the same points the property and equivalence suites
/// draw) with admission enabled:
///
///   1. conservation survives denial: every event is still counted
///      exactly once, and the accounting counters stay coherent;
///   2. the admission error bound: node-aligned under-estimates stay
///      within eps * n * q/(q-1) PLUS the tree's own deferred-weight
///      counter — the closed-form budget admission adds;
///   3. top-k recall: any value whose exact count clears the k-th
///      reported score plus the budget is covered by some reported
///      range, and reports are ordered, k-nested, and bracketed;
///   4. a denied split leaves the TreePressure counters consistent
///      (the negative test: nothing drifts when nothing splits).
///
/// Edge configurations the sweep cannot reach — the one-bit universe,
/// the full 64-bit universe, and counter saturation — get dedicated
/// tests.
///
//===----------------------------------------------------------------------===//

#include "SweepSampler.h"

#include "baselines/ExactProfiler.h"
#include "core/RapTree.h"
#include "verify/DifferentialOracle.h"
#include "verify/TreeInvariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

using namespace rap;
using namespace rap::sweeptest;

namespace {

class AdmissionAccuracy : public testing::TestWithParam<SweepParam> {
protected:
  static constexpr uint64_t NumEvents = 30000;

  /// The sweep config with the admission gate on. Coarseness cycles
  /// through {1, 2, 4, 8} by sweep index so every denial rate is
  /// exercised; the admission seed derives from the stream seed so
  /// each configuration draws a distinct decision stream.
  RapConfig makeConfig() const {
    const SweepParam &P = GetParam();
    RapConfig Config;
    Config.Epsilon = P.Epsilon;
    Config.BranchFactor = P.BranchFactor;
    Config.RangeBits = P.RangeBits;
    Config.MergeRatio = P.MergeRatio;
    Config.InitialMergeInterval = 1024;
    Config.EnableAdmission = true;
    static const double Coarseness[] = {1.0, 2.0, 4.0, 8.0};
    Config.AdmissionCoarseness = Coarseness[P.Index % 4];
    Config.AdmissionSeed = P.StreamSeed ^ 0xada15510beefcafeULL;
    return Config;
  }

  void runStream(RapTree &Tree, ExactProfiler &Exact) {
    const SweepParam &P = GetParam();
    StreamGen Gen(P.Kind, P.RangeBits, P.StreamSeed);
    for (uint64_t I = 0; I != NumEvents; ++I) {
      uint64_t X = Gen.next();
      Tree.addPoint(X);
      Exact.addPoint(X);
    }
  }

  /// The admission-era error budget: the provable merge-fold bound of
  /// the ungated tree plus the weight of every denied arrival — the
  /// tree's own closed-form accounting of what the gate cost.
  double admissionBudget(const RapTree &Tree) const {
    const SweepParam &P = GetParam();
    return P.Epsilon * static_cast<double>(NumEvents) * P.MergeRatio /
               (P.MergeRatio - 1.0) +
           static_cast<double>(Tree.admissionDeferredWeight()) + 1e-9;
  }
};

/// Collects (lo, hi, subtreeWeight) for every node.
void collectNodes(const RapNode &Node,
                  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> &Out) {
  Out.emplace_back(Node.lo(), Node.hi(), Node.subtreeWeight());
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      collectNodes(*Child, Out);
}

} // namespace

TEST_P(AdmissionAccuracy, ConservationAndAccountingSurviveDenials) {
  RapTree Tree(makeConfig());
  ExactProfiler Exact;
  runStream(Tree, Exact);
  EXPECT_EQ(Tree.numEvents(), NumEvents);
  EXPECT_EQ(Tree.root().subtreeWeight(), NumEvents);
  uint64_t Mask = lowBitMask(GetParam().RangeBits);
  EXPECT_EQ(Tree.estimateRange(0, Mask), NumEvents);
  // Deferred weight exists only alongside denials, and with unit
  // weights each denial defers at most one unit.
  if (Tree.admissionDeferredWeight() != 0) {
    EXPECT_GT(Tree.numAdmissionDeniedSplits(), 0u);
  }
  EXPECT_LE(Tree.admissionDeferredWeight(),
            Tree.numAdmissionDeniedSplits());
  // The structural audit holds on the gated tree.
  std::vector<InvariantViolation> Violations = TreeInvariants::audit(Tree);
  EXPECT_TRUE(Violations.empty()) << TreeInvariants::render(Violations);
}

TEST_P(AdmissionAccuracy, UnderEstimatesWithinAdmissionBudget) {
  RapTree Tree(makeConfig());
  ExactProfiler Exact;
  runStream(Tree, Exact);
  const double Budget = admissionBudget(Tree);
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> Nodes;
  collectNodes(Tree.root(), Nodes);
  for (const auto &[Lo, Hi, Estimate] : Nodes) {
    uint64_t Actual = Exact.countInRange(Lo, Hi);
    ASSERT_LE(Estimate, Actual)
        << "range [" << Lo << ", " << Hi << "] over-estimated";
    ASSERT_LE(static_cast<double>(Actual - Estimate), Budget)
        << "range [" << Lo << ", " << Hi
        << "] misses more than the admission budget";
  }
}

TEST_P(AdmissionAccuracy, TopKRecallMeetsDerivedBound) {
  RapTree Tree(makeConfig());
  ExactProfiler Exact;
  runStream(Tree, Exact);
  const size_t K = 8;
  std::vector<TopKRange> Top = Tree.topK(K);
  ASSERT_FALSE(Top.empty());
  // Any value whose exact count clears the k-th reported score plus
  // the budget must be covered by some reported range: a miss would
  // mean a range scored above Top.back() was left out.
  double MinHeavy = static_cast<double>(Top.back().Retained) +
                    admissionBudget(Tree) + 1.0;
  uint64_t MinCount = MinHeavy >= 1.8e19 ? ~uint64_t(0)
                                         : static_cast<uint64_t>(MinHeavy);
  for (const auto &[Value, Count] : Exact.heavyValues(MinCount)) {
    bool Covered = false;
    for (const TopKRange &R : Top)
      Covered = Covered || (R.Lo <= Value && Value <= R.Hi);
    EXPECT_TRUE(Covered) << "heavy value " << Value << " (count " << Count
                         << ") not covered by top-" << K;
  }
}

TEST_P(AdmissionAccuracy, TopKOrderedNestedAndBracketed) {
  RapTree Tree(makeConfig());
  ExactProfiler Exact;
  runStream(Tree, Exact);
  std::vector<TopKRange> Top = Tree.topK(6);
  std::vector<TopKRange> More = Tree.topK(10);
  ASSERT_LE(Top.size(), More.size());
  for (size_t I = 0; I != Top.size(); ++I) {
    if (I > 0) {
      EXPECT_GE(Top[I - 1].Retained, Top[I].Retained) << "not score-ordered";
    }
    // k-nesting: topK(6) is a field-for-field prefix of topK(10).
    EXPECT_EQ(Top[I].Lo, More[I].Lo);
    EXPECT_EQ(Top[I].WidthBits, More[I].WidthBits);
    EXPECT_EQ(Top[I].Retained, More[I].Retained);
    // Brackets contain the exact truth.
    uint64_t Actual = Exact.countInRange(Top[I].Lo, Top[I].Hi);
    EXPECT_LE(Top[I].LowerWeight, Actual);
    EXPECT_GE(Top[I].UpperWeight, Actual);
  }
}

TEST_P(AdmissionAccuracy, OracleFindsNoViolations) {
  // The full differential battery on the gated tree: the oracle's
  // budget folds in admissionDeferredWeight, and checkTopK runs the
  // shape/nesting/bracket/recall checks at every checkpoint.
  DifferentialOracle Oracle(makeConfig());
  const SweepParam &P = GetParam();
  StreamGen Gen(P.Kind, P.RangeBits, P.StreamSeed);
  for (uint64_t I = 0; I != NumEvents; ++I)
    Oracle.addPoint(Gen.next());
  Rng QueryRng(P.StreamSeed ^ 0xFACE);
  Oracle.checkNow(QueryRng);
  EXPECT_TRUE(Oracle.violations().empty())
      << TreeInvariants::render(Oracle.violations());
}

TEST_P(AdmissionAccuracy, ReplaysBitIdentically) {
  // Same config (same admission seed) must reproduce the identical
  // tree: the gate draws exactly one variate per due-split arrival.
  RapTree A(makeConfig());
  RapTree B(makeConfig());
  const SweepParam &P = GetParam();
  StreamGen GenA(P.Kind, P.RangeBits, P.StreamSeed);
  StreamGen GenB(P.Kind, P.RangeBits, P.StreamSeed);
  for (uint64_t I = 0; I != 10000; ++I) {
    A.addPoint(GenA.next());
    B.addPoint(GenB.next());
  }
  std::ostringstream DumpA, DumpB;
  A.dump(DumpA);
  B.dump(DumpB);
  EXPECT_EQ(DumpA.str(), DumpB.str());
  EXPECT_EQ(A.numAdmissionDeniedSplits(), B.numAdmissionDeniedSplits());
  EXPECT_EQ(A.admissionRngState(), B.admissionRngState());
}

INSTANTIATE_TEST_SUITE_P(Sweep, AdmissionAccuracy,
                         testing::ValuesIn(standardSweep()), paramName);

namespace {

RapConfig admissionConfig(unsigned RangeBits, double Coarseness,
                          uint64_t Seed) {
  RapConfig Config;
  Config.RangeBits = RangeBits;
  Config.Epsilon = 0.05;
  Config.EnableAdmission = true;
  Config.AdmissionCoarseness = Coarseness;
  Config.AdmissionSeed = Seed;
  return Config;
}

} // namespace

// The negative test of the satellite: a denial must change exactly the
// two admission counters and nothing else — no node appears, no budget
// counter moves, no degradation escalates.
TEST(AdmissionPressure, DeniedSplitLeavesPressureConsistent) {
  // An enormous coarseness drives the admit probability toward zero,
  // so the hot value's due splits are (near-)always denied.
  RapConfig Config = admissionConfig(16, 1e15, 0x5eed);
  RapTree Tree(Config);
  for (uint64_t I = 0; I != 5000; ++I)
    Tree.addPoint(42);
  const TreePressure &P = Tree.pressure();
  ASSERT_GT(P.AdmissionDeniedSplits, 0u);
  EXPECT_EQ(P.AdmissionDeferredWeight, P.AdmissionDeniedSplits);
  // Denial is not budget pressure: none of the budget-era counters
  // may drift when the gate, not the budget, refused the split.
  EXPECT_EQ(P.RefusedSplits, 0u);
  EXPECT_EQ(P.BudgetHits, 0u);
  EXPECT_EQ(P.ForcedMergePasses, 0u);
  EXPECT_EQ(P.CoarsenLevel, 0u);
  EXPECT_EQ(P.DegradedWeight, 0u);
  // A cold singleton universe never allocated beyond the root chain.
  EXPECT_EQ(Tree.numEvents(), 5000u);
  EXPECT_EQ(Tree.root().subtreeWeight(), 5000u);
  std::vector<InvariantViolation> Violations = TreeInvariants::audit(Tree);
  EXPECT_TRUE(Violations.empty()) << TreeInvariants::render(Violations);
}

TEST(AdmissionPressure, BudgetRefusalAndDenialStayDistinct) {
  // Budget refusals (RefusedSplits) and admission denials must not
  // bleed into each other's counters when both mechanisms are armed.
  RapConfig Config = admissionConfig(16, 2.0, 0x5eed);
  Config.MaxNodes = 8;
  RapTree Tree(Config);
  Rng R(0xbadbeef);
  for (uint64_t I = 0; I != 20000; ++I)
    Tree.addPoint(R.next() & lowBitMask(16));
  const TreePressure &P = Tree.pressure();
  EXPECT_LE(Tree.numNodes(), 8u);
  EXPECT_EQ(Tree.numEvents(), 20000u);
  // Every due split was handled by exactly one mechanism; conservation
  // holds regardless of which one fired.
  EXPECT_EQ(Tree.root().subtreeWeight(), 20000u);
  EXPECT_EQ(P.AdmissionDeferredWeight, P.AdmissionDeniedSplits);
  std::vector<InvariantViolation> Violations = TreeInvariants::audit(Tree);
  EXPECT_TRUE(Violations.empty()) << TreeInvariants::render(Violations);
}

TEST(AdmissionEdges, OneBitUniverse) {
  // R = 1: two values, one possible split. The gate must not break
  // conservation or the bracket on either value.
  RapConfig Config = admissionConfig(1, 4.0, 7);
  Config.BranchFactor = 2; // the only branch factor a 1-bit universe fits
  RapTree Tree(Config);
  ExactProfiler Exact;
  Rng R(99);
  for (uint64_t I = 0; I != 4000; ++I) {
    uint64_t X = R.next() & 1;
    Tree.addPoint(X);
    Exact.addPoint(X);
  }
  EXPECT_EQ(Tree.numEvents(), 4000u);
  for (uint64_t V = 0; V != 2; ++V) {
    RapTree::RangeBounds B = Tree.estimateRangeBounds(V, V);
    uint64_t Actual = Exact.countInRange(V, V);
    EXPECT_LE(B.Lower, Actual);
    EXPECT_GE(B.Upper, Actual);
  }
  std::vector<TopKRange> Top = Tree.topK(4);
  ASSERT_FALSE(Top.empty());
  EXPECT_EQ(Top[0].Lo, 0u);
}

TEST(AdmissionEdges, FullSixtyFourBitUniverse) {
  RapConfig Config = admissionConfig(64, 2.0, 11);
  RapTree Tree(Config);
  ExactProfiler Exact;
  Rng R(0x64);
  for (uint64_t I = 0; I != 20000; ++I) {
    // Half the stream hammers one value so splits (and denials)
    // actually happen; the rest spreads across the full universe.
    uint64_t X = (I & 1) ? 0xdeadbeefcafef00dULL : R.next();
    Tree.addPoint(X);
    Exact.addPoint(X);
  }
  EXPECT_EQ(Tree.numEvents(), 20000u);
  EXPECT_EQ(Tree.estimateRange(0, ~uint64_t(0)), 20000u);
  std::vector<TopKRange> Top = Tree.topK(4);
  ASSERT_FALSE(Top.empty());
  bool HotCovered = false;
  for (const TopKRange &T : Top)
    HotCovered = HotCovered || (T.Lo <= 0xdeadbeefcafef00dULL &&
                                0xdeadbeefcafef00dULL <= T.Hi);
  EXPECT_TRUE(HotCovered);
  std::vector<InvariantViolation> Violations = TreeInvariants::audit(Tree);
  EXPECT_TRUE(Violations.empty()) << TreeInvariants::render(Violations);
}

TEST(AdmissionEdges, SaturatingWeightsStayCoherent) {
  // Near-overflow weights: counters saturate instead of wrapping, and
  // the admission accounting (which saturates too) stays coherent.
  RapConfig Config = admissionConfig(8, 1e15, 3);
  // A fully saturated event counter pins the merge schedule at its
  // sentinel, which the schedule audit (correctly) cannot order past
  // the stream position; merges are irrelevant here, so turn them off.
  Config.EnableMerges = false;
  RapTree Tree(Config);
  const uint64_t Huge = ~uint64_t(0) / 2;
  Tree.addPoint(5, Huge);
  Tree.addPoint(5, Huge);
  Tree.addPoint(5, Huge); // saturates NumEvents and the root counter
  Tree.addPoint(9, 1);
  EXPECT_EQ(Tree.numEvents(), ~uint64_t(0));
  EXPECT_EQ(Tree.root().subtreeWeight(), ~uint64_t(0));
  // Deferred weight saturates rather than wrapping past denials.
  EXPECT_LE(Tree.admissionDeferredWeight(), ~uint64_t(0));
  if (Tree.numAdmissionDeniedSplits() == 0) {
    EXPECT_EQ(Tree.admissionDeferredWeight(), 0u);
  }
  std::vector<TopKRange> Top = Tree.topK(2);
  ASSERT_FALSE(Top.empty());
  EXPECT_GE(Top[0].UpperWeight, Top[0].LowerWeight);
  std::vector<InvariantViolation> Violations = TreeInvariants::audit(Tree);
  EXPECT_TRUE(Violations.empty()) << TreeInvariants::render(Violations);
}
