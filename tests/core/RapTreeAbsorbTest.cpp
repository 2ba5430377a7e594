//===- tests/core/RapTreeAbsorbTest.cpp - Shard aggregation tests --------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/ExactProfiler.h"
#include "core/RapTree.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace rap;

namespace {
RapConfig shardConfig(bool Merges = true) {
  RapConfig Config;
  Config.RangeBits = 16;
  Config.Epsilon = 0.05;
  Config.EnableMerges = Merges;
  return Config;
}
} // namespace

TEST(RapTreeAbsorb, ConservesTotalWeight) {
  RapTree A(shardConfig());
  RapTree B(shardConfig());
  Rng RA(1);
  Rng RB(2);
  for (int I = 0; I != 20000; ++I) {
    A.addPoint(RA.nextBelow(1 << 16));
    B.addPoint(RB.nextBelow(1 << 16));
  }
  uint64_t Total = A.numEvents() + B.numEvents();
  A.absorb(B);
  EXPECT_EQ(A.numEvents(), Total);
  EXPECT_EQ(A.root().subtreeWeight(), Total);
}

TEST(RapTreeAbsorb, AbsorbingEmptyIsIdentity) {
  RapTree A(shardConfig());
  RapTree Empty(shardConfig());
  for (int I = 0; I != 5000; ++I)
    A.addPoint(42);
  uint64_t NodesBefore = A.numNodes();
  uint64_t Estimate = A.estimateRange(42, 42);
  A.absorb(Empty);
  EXPECT_EQ(A.numEvents(), 5000u);
  EXPECT_EQ(A.estimateRange(42, 42), Estimate);
  EXPECT_LE(A.numNodes(), NodesBefore); // the merge pass may compact
}

TEST(RapTreeAbsorb, EmptyAbsorbingPopulatedAdoptsProfile) {
  RapTree Empty(shardConfig());
  RapTree B(shardConfig());
  for (int I = 0; I != 8000; ++I)
    B.addPoint(0x1234);
  Empty.absorb(B);
  EXPECT_EQ(Empty.numEvents(), 8000u);
  EXPECT_GT(Empty.estimateRange(0x1234, 0x1234), 7000u);
}

TEST(RapTreeAbsorb, CombinedEstimatesWithinSummedEpsilon) {
  // The aggregation guarantee: after absorbing shard B into shard A,
  // any range under-estimate is bounded by eps * (nA + nB).
  RapConfig Config = shardConfig();
  RapTree A(Config);
  RapTree B(Config);
  ExactProfiler Exact;
  Rng RA(3);
  Rng RB(4);
  const int N = 40000;
  for (int I = 0; I != N; ++I) {
    uint64_t XA = RA.nextBernoulli(0.3) ? 777 : RA.nextBelow(1 << 16);
    uint64_t XB = RB.nextBernoulli(0.3) ? 777 : RB.nextBelow(1 << 16);
    A.addPoint(XA);
    B.addPoint(XB);
    Exact.addPoint(XA);
    Exact.addPoint(XB);
  }
  A.absorb(B);
  double Bound = Config.Epsilon * static_cast<double>(A.numEvents()) + 1e-9;
  for (auto [Lo, Hi] : {std::pair<uint64_t, uint64_t>{777, 777},
                        {0, 0x7fff},
                        {0x8000, 0xffff},
                        {0, 0xffff}}) {
    uint64_t Estimate = A.estimateRange(Lo, Hi);
    uint64_t Actual = Exact.countInRange(Lo, Hi);
    ASSERT_LE(Estimate, Actual);
    ASSERT_LE(static_cast<double>(Actual - Estimate), Bound)
        << "[" << Lo << ", " << Hi << "]";
  }
}

TEST(RapTreeAbsorb, HotInBothShardsStaysPrecise) {
  RapTree A(shardConfig());
  RapTree B(shardConfig());
  for (int I = 0; I != 10000; ++I) {
    A.addPoint(100);
    B.addPoint(100);
  }
  A.absorb(B);
  // The unit node exists in both shards; the union keeps it.
  RapNode Leaf = A.findSmallestCover(100);
  EXPECT_EQ(Leaf.lo(), 100u);
  EXPECT_EQ(Leaf.hi(), 100u);
  EXPECT_GT(A.estimateRange(100, 100), 19000u);
}

TEST(RapTreeAbsorb, OrderInsensitiveTotals) {
  auto MakeShard = [](uint64_t Seed) {
    auto Tree = std::make_unique<RapTree>(shardConfig());
    Rng R(Seed);
    for (int I = 0; I != 15000; ++I)
      Tree->addPoint(R.nextBelow(1 << 16));
    return Tree;
  };
  auto AB = MakeShard(7);
  AB->absorb(*MakeShard(8));
  auto BA = MakeShard(8);
  BA->absorb(*MakeShard(7));
  EXPECT_EQ(AB->numEvents(), BA->numEvents());
  // Totals and whole-range estimates agree regardless of order.
  EXPECT_EQ(AB->estimateRange(0, 0xffff), BA->estimateRange(0, 0xffff));
}

TEST(RapTreeAbsorb, ManyShardsScale) {
  // Eight shards, one combined profile: memory stays bounded thanks to
  // the post-union merge pass.
  RapTree Combined(shardConfig());
  Rng R(11);
  for (int Shard = 0; Shard != 8; ++Shard) {
    RapTree Piece(shardConfig());
    for (int I = 0; I != 10000; ++I)
      Piece.addPoint(R.nextBelow(1 << 16));
    Combined.absorb(Piece);
  }
  EXPECT_EQ(Combined.numEvents(), 80000u);
  EXPECT_EQ(Combined.root().subtreeWeight(), 80000u);
  // Far fewer nodes than the shards' sum of peaks.
  EXPECT_LT(Combined.numNodes(), 8 * 3000u);
}

// A tree's estimates fall short of its own stream by up to eps*n plus
// its degraded and admission-deferred weights. The union inherits each
// absorbed tree's shortfall, so its bound must carry those terms too.
TEST(RapTreeAbsorb, CarriesDegradedWeight) {
  RapConfig Budgeted = shardConfig();
  Budgeted.MaxNodes = 16;
  RapTree Shard(Budgeted);
  for (uint64_t X = 0; X != 20000; ++X)
    Shard.addPoint(X);
  ASSERT_GT(Shard.degradedWeight(), 0u);
  RapTree Union(shardConfig());
  Union.absorb(Shard);
  EXPECT_EQ(Union.degradedWeight(), Shard.degradedWeight());
}

TEST(RapTreeAbsorb, CarriesAdmissionDeferredWeight) {
  // An enormous coarseness denies (nearly) every due split.
  RapConfig Gated = shardConfig();
  Gated.EnableAdmission = true;
  Gated.AdmissionCoarseness = 1e15;
  Gated.AdmissionSeed = 0x5eed;
  RapTree Shard(Gated);
  for (int I = 0; I != 5000; ++I)
    Shard.addPoint(42);
  ASSERT_GT(Shard.admissionDeferredWeight(), 0u);
  RapTree Union(shardConfig());
  Union.absorb(Shard);
  EXPECT_EQ(Union.admissionDeferredWeight(), Shard.admissionDeferredWeight());
  Union.absorb(Shard);
  EXPECT_EQ(Union.admissionDeferredWeight(),
            2 * Shard.admissionDeferredWeight());
}
