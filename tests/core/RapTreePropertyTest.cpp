//===- tests/core/RapTreePropertyTest.cpp - Invariant sweeps -------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-style sweeps over (epsilon, branching factor, universe,
/// stream shape): the paper's guarantees must hold on every
/// combination —
///
///   1. conservation: the tree accounts for every event exactly once;
///   2. estimates are lower bounds on true range counts (Sec 4.3);
///   3. the epsilon guarantee: a range's under-estimate is at most
///      eps * n (Sec 2.2), times the q/(q-1) merge-fold factor since
///      batched merging is on (docs/VERIFICATION.md);
///   4. reported hot ranges are guaranteed hot (Sec 4.3);
///   5. memory right after a merge respects the analytic bound.
///
//===----------------------------------------------------------------------===//

#include "SweepSampler.h"

#include "baselines/ExactProfiler.h"
#include "core/RapTree.h"
#include "core/WorstCaseBounds.h"
#include "verify/DifferentialOracle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

using namespace rap;
using namespace rap::sweeptest;

namespace {

/// Collects (lo, hi, subtreeWeight) for every node.
void collectNodes(const RapNode &Node,
                  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> &Out) {
  Out.emplace_back(Node.lo(), Node.hi(), Node.subtreeWeight());
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      collectNodes(*Child, Out);
}

class RapTreeProperty : public testing::TestWithParam<SweepParam> {
protected:
  static constexpr uint64_t NumEvents = 30000;

  void runStream(RapTree &Tree, ExactProfiler &Exact) {
    const SweepParam &P = GetParam();
    StreamGen Gen(P.Kind, P.RangeBits, P.StreamSeed);
    for (uint64_t I = 0; I != NumEvents; ++I) {
      uint64_t X = Gen.next();
      Tree.addPoint(X);
      Exact.addPoint(X);
    }
  }

  RapConfig makeConfig() const {
    const SweepParam &P = GetParam();
    RapConfig Config;
    Config.Epsilon = P.Epsilon;
    Config.BranchFactor = P.BranchFactor;
    Config.RangeBits = P.RangeBits;
    Config.MergeRatio = P.MergeRatio;
    Config.InitialMergeInterval = 1024;
    return Config;
  }

  /// The provable under-estimate bound for this configuration:
  /// eps * n, times the q/(q-1) merge-fold factor since batched
  /// merging is enabled (docs/VERIFICATION.md).
  double errorBound() const {
    const SweepParam &P = GetParam();
    return P.Epsilon * static_cast<double>(NumEvents) * P.MergeRatio /
               (P.MergeRatio - 1.0) +
           1e-9;
  }
};

} // namespace

TEST_P(RapTreeProperty, ConservationHoldsThroughout) {
  RapTree Tree(makeConfig());
  ExactProfiler Exact;
  runStream(Tree, Exact);
  EXPECT_EQ(Tree.root().subtreeWeight(), NumEvents);
  EXPECT_EQ(Tree.numEvents(), NumEvents);
  Tree.mergeNow();
  EXPECT_EQ(Tree.root().subtreeWeight(), NumEvents);
}

TEST_P(RapTreeProperty, EstimatesAreLowerBounds) {
  RapTree Tree(makeConfig());
  ExactProfiler Exact;
  runStream(Tree, Exact);
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> Nodes;
  collectNodes(Tree.root(), Nodes);
  for (const auto &[Lo, Hi, Estimate] : Nodes) {
    uint64_t Actual = Exact.countInRange(Lo, Hi);
    ASSERT_LE(Estimate, Actual)
        << "range [" << Lo << ", " << Hi << "] over-estimated";
  }
}

TEST_P(RapTreeProperty, EpsilonErrorBoundHolds) {
  RapTree Tree(makeConfig());
  ExactProfiler Exact;
  runStream(Tree, Exact);
  const double Bound = errorBound();
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> Nodes;
  collectNodes(Tree.root(), Nodes);
  for (const auto &[Lo, Hi, Estimate] : Nodes) {
    uint64_t Actual = Exact.countInRange(Lo, Hi);
    double UnderEstimate = static_cast<double>(Actual - Estimate);
    ASSERT_LE(UnderEstimate, Bound)
        << "range [" << Lo << ", " << Hi << "] misses more than eps*n";
  }
}

TEST_P(RapTreeProperty, RangeBoundsBracketTruth) {
  RapTree Tree(makeConfig());
  ExactProfiler Exact;
  runStream(Tree, Exact);
  // Node-aligned and arbitrary (unaligned) queries: the exact count
  // must always lie inside [Lower, Upper].
  Rng QueryGen(0xFACE);
  uint64_t Mask = lowBitMask(GetParam().RangeBits);
  for (int Trial = 0; Trial != 60; ++Trial) {
    uint64_t A = QueryGen.next() & Mask;
    uint64_t B = QueryGen.next() & Mask;
    if (A > B)
      std::swap(A, B);
    RapTree::RangeBounds Bounds = Tree.estimateRangeBounds(A, B);
    uint64_t Actual = Exact.countInRange(A, B);
    ASSERT_LE(Bounds.Lower, Actual) << "[" << A << ", " << B << "]";
    ASSERT_GE(Bounds.Upper, Actual) << "[" << A << ", " << B << "]";
    ASSERT_LE(Bounds.Lower, Bounds.Upper);
  }
  // Whole-universe query is exact on both ends.
  RapTree::RangeBounds All = Tree.estimateRangeBounds(0, Mask);
  EXPECT_EQ(All.Lower, NumEvents);
  EXPECT_EQ(All.Upper, NumEvents);
}

TEST_P(RapTreeProperty, ReportedHotRangesAreGuaranteedHot) {
  RapTree Tree(makeConfig());
  ExactProfiler Exact;
  runStream(Tree, Exact);
  const double Phi = 0.10;
  for (const HotRange &H : Tree.extractHotRanges(Phi)) {
    // The exclusive weight is a subset of the subtree weight, which is
    // a lower bound on the true range count: hot implies truly hot.
    uint64_t Actual = Exact.countInRange(H.Lo, H.Hi);
    EXPECT_GE(static_cast<double>(Actual), Phi * NumEvents)
        << "hot range [" << H.Lo << ", " << H.Hi << "] is not truly hot";
  }
}

TEST_P(RapTreeProperty, PostMergeMemoryWithinAnalyticBound) {
  RapTree Tree(makeConfig());
  ExactProfiler Exact;
  runStream(Tree, Exact);
  Tree.mergeNow();
  WorstCaseBounds Bounds(GetParam().RangeBits, GetParam().BranchFactor,
                         GetParam().Epsilon);
  EXPECT_LE(static_cast<double>(Tree.numNodes()), Bounds.postMergeBound());
}

TEST_P(RapTreeProperty, WeightedFeedEquivalentTotal) {
  // Feeding (x, w) pairs must count exactly like w unit feeds.
  RapTree Tree(makeConfig());
  StreamGen Gen(GetParam().Kind, GetParam().RangeBits, 0xBEEF);
  uint64_t Total = 0;
  for (uint64_t I = 0; I != 5000; ++I) {
    uint64_t W = 1 + (I % 7);
    Tree.addPoint(Gen.next(), W);
    Total += W;
  }
  EXPECT_EQ(Tree.numEvents(), Total);
  EXPECT_EQ(Tree.root().subtreeWeight(), Total);
}

TEST_P(RapTreeProperty, OracleFindsNoViolations) {
  // The full differential battery: exact + flat cross-oracles, online
  // split/merge transition auditing, hot-range precision and recall.
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

INSTANTIATE_TEST_SUITE_P(
    Sweep, RapTreeProperty,
    // 50 random (eps, b, R, q, stream) configurations replace the old
    // hand-picked grid: the guarantees must hold everywhere in the
    // parameter space, not just at friendly corners. The same 50
    // points (tests/core/SweepSampler.h) also drive the
    // arena-vs-reference equivalence sweep.
    testing::ValuesIn(standardSweep()),
    paramName);

TEST(SweepSampler, PrintsParamFieldsNotBytes) {
  // The printed form is what gtest lists after `# GetParam() =`; it
  // must name the fields, not dump the struct's bytes and padding.
  SweepParam P;
  P.Index = 7;
  P.Epsilon = 0.0625;
  P.BranchFactor = 4;
  P.RangeBits = 32;
  P.MergeRatio = 2.5;
  P.StreamSeed = 0x5eed;
  P.Kind = StreamKind::Zipf;
  EXPECT_EQ(testing::PrintToString(P),
            std::to_string(sizeof(SweepParam)) +
                "-byte object {c07 eps=0.0625 b=4 bits=32 q=2.5 "
                "seed=0x0000000000005eed Zipf}");
}
