//===- perfbench/tests/HelpersTest.cpp - Benchmark helper tests -----------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Tests of the benchmark's own helpers: tail percentiles, span self
// time, and the correctness checker.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "baselines/ExactProfiler.h"
#include "verify/DifferentialOracle.h"

#include <gtest/gtest.h>

using namespace perfbench;

namespace {

std::vector<double> ramp(size_t N) {
  std::vector<double> V;
  for (size_t I = 0; I != N; ++I)
    V.push_back(static_cast<double>(N - I)); // Descending: order must not matter.
  return V;
}

TEST(Percentiles, P99NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(tailPercentile(ramp(999), 99).has_value());
  std::optional<double> P99 = tailPercentile(ramp(1000), 99);
  ASSERT_TRUE(P99.has_value());
  EXPECT_EQ(*P99, 990.0); // Nearest rank: 10 samples (991..1000) beyond.
  EXPECT_EQ(samplesNeededFor(99), 1000u);
  EXPECT_EQ(samplesNeededFor(50), 20u);
}

TEST(Percentiles, MedianIsNearestRank) {
  EXPECT_EQ(median(ramp(5)), 3.0);
  EXPECT_EQ(median(ramp(4)), 2.0);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Percentiles, CentralMeanMovesWithTheShareOfEachTimerStep) {
  // Half the samples at 30, half at 40: the median reads one step or
  // the other, the central mean their average over ranks 40..60.
  std::vector<double> V;
  V.insert(V.end(), 50, 30.0);
  V.insert(V.end(), 50, 40.0);
  EXPECT_EQ(median(V), 30.0);
  EXPECT_DOUBLE_EQ(centralMean(V), (11 * 30.0 + 10 * 40.0) / 21);
  // Shift five samples to the upper step; the mean moves a little.
  std::fill(V.begin() + 45, V.begin() + 50, 40.0);
  EXPECT_EQ(median(V), 40.0);
  EXPECT_DOUBLE_EQ(centralMean(V), (6 * 30.0 + 15 * 40.0) / 21);
  EXPECT_DOUBLE_EQ(centralMean(ramp(5)), 2.5); // Ranks 2 and 3 of 1..5.
  EXPECT_EQ(centralMean({}), 0.0);
}

Span span(int64_t Start, int64_t End, int32_t Parent) {
  Span S;
  S.StartNs = Start;
  S.EndNs = End;
  S.Parent = Parent;
  return S;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  std::vector<Span> Spans = {
      span(0, 100, -1),  // 0: root
      span(10, 40, 0),   // 1: child
      span(30, 60, 0),   // 2: child overlapping 1 on [30, 40)
      span(15, 20, 1),   // 3: grandchild under 1
      span(90, 120, 0),  // 4: child sticking out of the root
      span(200, 210, -1) // 5: second root, no children
  };
  std::vector<int64_t> Self = selfTimes(Spans);
  EXPECT_EQ(Self[0], 100 - (50 + 10)); // Union [10, 60) + [90, 100).
  EXPECT_EQ(Self[1], 30 - 5);
  EXPECT_EQ(Self[2], 30);
  EXPECT_EQ(Self[3], 5);
  EXPECT_EQ(Self[4], 30);
  EXPECT_EQ(Self[5], 10);
}

TEST(SelfTime, TracerNestsAndTotals) {
  Tracer T(true);
  {
    ScopedSpan Outer(T, "outer", 7);
    ScopedSpan Inner(T, "inner", 7);
  }
  Tracer Off(false);
  { ScopedSpan S(Off, "ignored", 0); }
  ASSERT_EQ(T.spans().size(), 2u);
  EXPECT_EQ(T.spans()[1].Parent, 0);
  EXPECT_EQ(T.spans()[1].Request, 7u);
  EXPECT_TRUE(Off.spans().empty());
  std::map<std::string, LayerTotals> L = totalsByName(T.spans());
  EXPECT_EQ(L["outer"].SelfNs + L["inner"].SelfNs, L["outer"].TotalNs);
}

/// A small profile with answers to check, and its exact reference.
struct Fixture {
  rap::RapTree Tree;
  rap::ExactProfiler Exact;
  std::vector<Answer> Answers;

  Fixture() : Tree(config()) {
    rap::Rng R(3);
    for (int I = 0; I != 200000; ++I) {
      uint64_t X = R.nextBelow(4) == 0 ? R.next() & 0xffffffff
                                       : 0x1000 + R.nextBelow(1 << 16);
      Tree.addPoint(X);
      Exact.addPoint(X);
    }
    std::vector<Query> Queries;
    for (size_t I = 0; I != 64; ++I)
      Queries.push_back(mixQuery(I, 0x1000 + R.nextBelow(1 << 16), 32));
    Tracer T(false);
    ReadSamples Samples;
    runQueries(Tree, Queries, T, 0, Samples, Answers);
  }
  static rap::RapConfig config() {
    rap::RapConfig C;
    C.Epsilon = 0.001;
    return C;
  }
  void check(Checker &C) const {
    checkAnswers(C, Answers, errorBudget(Tree, 1),
                 [&](uint64_t Lo, uint64_t Hi) {
                   return Exact.countInRange(Lo, Hi);
                 });
  }
};

TEST(Checker, CleanAnswersPass) {
  Fixture F;
  Checker C;
  F.check(C);
  EXPECT_EQ(C.failures(), 0u);
  EXPECT_EQ(C.checks(), 64u + 32u); // 32 of the answers are brackets.
  EXPECT_EQ(C.maxErrOverBound(), 0.0); // Answers are checked, not recorded.
  checkEveryNode(C, F.Tree, errorBudget(F.Tree, 1),
                 [&](uint64_t Lo, uint64_t Hi) {
                   return F.Exact.countInRange(Lo, Hi);
                 });
  EXPECT_EQ(C.failures(), 0u);
  EXPECT_GT(C.maxErrOverBound(), 0.0);
  EXPECT_LE(C.maxErrOverBound(), 1.0);
}

TEST(Checker, OneTamperedEstimateIsOneFailure) {
  Fixture F;
  Answer &A = F.Answers[4];
  ASSERT_FALSE(A.IsBounds);
  A.Lower = F.Exact.countInRange(A.Q.Lo, A.Q.Hi) + 1;
  Checker C;
  F.check(C);
  EXPECT_EQ(C.failures(), 1u);
  ASSERT_EQ(C.messages().size(), 1u);
}

TEST(Checker, OneTamperedBracketIsOneFailure) {
  Fixture F;
  Answer &A = F.Answers[5];
  ASSERT_TRUE(A.IsBounds);
  uint64_t Truth = F.Exact.countInRange(A.Q.Lo, A.Q.Hi);
  ASSERT_GT(Truth, 0u);
  A.Upper = Truth - 1;
  Checker C;
  F.check(C);
  EXPECT_EQ(C.failures(), 1u);
}

TEST(Checker, BudgetMatchesTheDifferentialOracle) {
  rap::RapConfig Config = Fixture::config();
  rap::DifferentialOracle Oracle(Config);
  rap::Rng R(9);
  for (int I = 0; I != 50000; ++I)
    Oracle.addPoint(R.next() & 0xffffff, 1 + R.nextBelow(3));
  EXPECT_DOUBLE_EQ(errorBudget(Oracle.tree(), 3), Oracle.errorBudget());
}

TEST(Checker, RecallCountsCoveredValues) {
  std::vector<rap::TopKRange> Ranges(1);
  Ranges[0].Lo = 10;
  Ranges[0].Hi = 19;
  EXPECT_EQ(topKRecall(Ranges, {10, 15, 20, 30}), 0.5);
  EXPECT_EQ(topKRecall(Ranges, {}), 1.0);
}

} // namespace
