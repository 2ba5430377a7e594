//===- tests/core/RangeFenceTest.cpp - Cold-range filter tests -----------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
// Three layers: the bitmap pyramid itself (per-scale marking, level
// selection by query span, word-boundary spans, clamping), the tree
// integration (first-touch marking, rebuilds at merges/absorb/restore,
// the cold fast paths), and the bit-exact equivalence of every query
// with the fence on versus off — the property that makes the fence
// safe to default-enable.
//
//===----------------------------------------------------------------------===//

#include "core/RangeFence.h"
#include "core/RapTree.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <vector>

using namespace rap;

namespace {

RapConfig smallConfig(bool Fence) {
  RapConfig Config;
  Config.RangeBits = 16;
  Config.BranchFactor = 4;
  Config.Epsilon = 0.05;
  Config.EnableRangeFence = Fence;
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// The bitmap
//===----------------------------------------------------------------------===//

TEST(RangeFence, DisabledFenceProvesNothing) {
  RangeFence Fence;
  EXPECT_FALSE(Fence.enabled());
  EXPECT_FALSE(Fence.provablyCold(0, ~uint64_t(0)));
  EXPECT_EQ(Fence.numBuckets(), 0u);
}

TEST(RangeFence, GeometryClampsToMaxPrefixBits) {
  RangeFence Small;
  Small.init(8);
  EXPECT_EQ(Small.prefixBits(), 8u);
  EXPECT_EQ(Small.numBuckets(), 256u);

  RangeFence Big;
  Big.init(64);
  EXPECT_EQ(Big.prefixBits(), RangeFence::MaxPrefixBits);
  EXPECT_EQ(Big.numBuckets(), uint64_t(1) << RangeFence::MaxPrefixBits);
}

TEST(RangeFence, MarksExactlyOneBucketPerNode) {
  // 16-bit universe, 12 finest prefix bits: each finest bucket spans
  // 16 values, and a width-4 node occupies exactly one of them.
  RangeFence Fence;
  Fence.init(16);
  EXPECT_TRUE(Fence.provablyCold(0, 0xffff));

  Fence.markNode(0x100, 4); // node [0x100, 0x10f] = finest bucket 0x10
  EXPECT_EQ(Fence.warmBuckets(), 1u);
  EXPECT_FALSE(Fence.provablyCold(0x100, 0x100));
  EXPECT_FALSE(Fence.provablyCold(0x0, 0x7fff));
  EXPECT_TRUE(Fence.provablyCold(0x0, 0xff));
  EXPECT_TRUE(Fence.provablyCold(0x110, 0xffff));
}

TEST(RangeFence, WideNodesLandOnWideBands) {
  // The motivating case for the bands: a residual counter on a wide
  // interior node must stay invisible to every query too narrow to
  // contain that node. A width-14 node in a 16-bit universe lands on
  // the widest band (widths 13..16), whose MinWidthBits floor is 13.
  RangeFence Fence;
  Fence.init(16);
  Fence.markNode(0x4000, 14); // node [0x4000, 0x7fff]
  EXPECT_EQ(Fence.warmBuckets(), 0u) << "band 0 must stay clean";

  // Exactly at the containment boundary: a span of 2^13 - 1 values
  // (one half of the node) is the narrowest query that could contain
  // a node the widest band can hold.
  EXPECT_FALSE(Fence.provablyCold(0x4000, 0x5fff)); // span 2^13, consults
  EXPECT_TRUE(Fence.provablyCold(0x4000, 0x5ffe));  // one short, skips
  EXPECT_TRUE(Fence.provablyCold(0x4000, 0x4000));
  EXPECT_FALSE(Fence.provablyCold(0, 0xffff));

  // The band keeps full bucket resolution: a wide query over a
  // DIFFERENT quadrant consults the band and still proves cold.
  EXPECT_TRUE(Fence.provablyCold(0x8000, 0xffff));
  EXPECT_TRUE(Fence.provablyCold(0x0000, 0x3fff));
  EXPECT_FALSE(Fence.provablyCold(0x3fff, 0x8000)); // overlaps the node

  // A mid-scale node (width 8 -> the 5..8 band) is visible to queries
  // of its own span but not to point queries.
  Fence.markNode(0x2100, 8); // node [0x2100, 0x21ff]
  EXPECT_FALSE(Fence.provablyCold(0x2100, 0x21ff));
  EXPECT_TRUE(Fence.provablyCold(0x2100, 0x2100));
  EXPECT_TRUE(Fence.provablyCold(0x2100, 0x210f));
}

TEST(RangeFence, ScansCrossWordBoundaries) {
  // Finest-level buckets 62..65 straddle the first/second bitmap word.
  RangeFence Fence;
  Fence.init(16);
  for (uint64_t B = 62; B != 66; ++B)
    Fence.markNode(B * 16, 4);
  EXPECT_EQ(Fence.warmBuckets(), 4u);
  EXPECT_FALSE(Fence.provablyCold(63 * 16, 63 * 16));
  EXPECT_FALSE(Fence.provablyCold(64 * 16, 64 * 16));
  EXPECT_TRUE(Fence.provablyCold(0, 62 * 16 - 1));
  EXPECT_TRUE(Fence.provablyCold(66 * 16, 0xffff));

  // A query spanning many all-zero middle words stays cold.
  RangeFence Wide;
  Wide.init(16);
  Wide.markNode(0, 4);
  Wide.markNode(0xfff0, 4);
  EXPECT_TRUE(Wide.provablyCold(16, 0xffef));
  EXPECT_FALSE(Wide.provablyCold(0, 0xffff));
}

TEST(RangeFence, ClearDropsEveryLevel) {
  RangeFence Fence;
  Fence.init(16);
  Fence.markNode(0x0000, 4);  // band 0
  Fence.markNode(0x8000, 14); // widest band
  EXPECT_FALSE(Fence.provablyCold(0, 0xffff));
  EXPECT_EQ(Fence.warmBuckets(), 1u);
  Fence.clear();
  EXPECT_EQ(Fence.warmBuckets(), 0u);
  EXPECT_TRUE(Fence.provablyCold(0, 0xffff));
}

TEST(RangeFence, OutOfUniverseEndpointsClampToLastBucket) {
  RangeFence Fence;
  Fence.init(16);
  Fence.markNode(0xfff0, 4);
  EXPECT_FALSE(Fence.provablyCold(0xfffe, ~uint64_t(0)));
  EXPECT_TRUE(Fence.provablyCold(0, 0xffef));
}

TEST(RangeFence, TinyUniverseUsesOneWord) {
  RangeFence Fence;
  Fence.init(3); // 8 buckets, one value each
  EXPECT_EQ(Fence.numBuckets(), 8u);
  Fence.markNode(5, 0);
  EXPECT_TRUE(Fence.provablyCold(0, 4));
  EXPECT_FALSE(Fence.provablyCold(4, 6));
  EXPECT_TRUE(Fence.provablyCold(6, 7));
}

//===----------------------------------------------------------------------===//
// Tree integration
//===----------------------------------------------------------------------===//

TEST(RangeFenceTree, UntouchedRegionsAreProvablyCold) {
  RapTree Tree(smallConfig(true));
  RapTree Plain(smallConfig(false));
  for (uint64_t I = 0; I != 2000; ++I) {
    Tree.addPoint(0x1000 + (I % 64));
    Plain.addPoint(0x1000 + (I % 64));
  }

  EXPECT_TRUE(Tree.rangeProvablyCold(0x8000, 0xffff));
  EXPECT_EQ(Tree.estimateRange(0x8000, 0xffff), 0u);
  // The cold fast path must reproduce the walked bracket bit for bit.
  RapTree::RangeBounds Bounds = Tree.estimateRangeBounds(0x8000, 0xffff);
  RapTree::RangeBounds Walked = Plain.estimateRangeBounds(0x8000, 0xffff);
  EXPECT_EQ(Bounds.Lower, 0u);
  EXPECT_EQ(Walked.Lower, 0u);
  EXPECT_EQ(Bounds.Upper, Walked.Upper);

  // The hot region is not cold, and the full universe never is while
  // events exist (the root's own counter always counts there).
  EXPECT_FALSE(Tree.rangeProvablyCold(0x1000, 0x1040));
  EXPECT_FALSE(Tree.rangeProvablyCold(0, 0xffff));
  EXPECT_EQ(Tree.estimateRange(0, 0xffff), Tree.numEvents());
}

TEST(RangeFenceTree, EmptyTreeIsColdEverywhere) {
  RapTree Tree(smallConfig(true));
  EXPECT_TRUE(Tree.rangeProvablyCold(0, 0xffff));
  EXPECT_TRUE(Tree.rangeProvablyCold(42, 42));
}

TEST(RangeFenceTree, DisabledFenceKeepsLegacyBehavior) {
  RapTree Tree(smallConfig(false));
  Tree.addPoint(7);
  EXPECT_FALSE(Tree.rangeProvablyCold(0x8000, 0xffff));
  EXPECT_EQ(Tree.fenceWarmBuckets(), 0u);
  EXPECT_EQ(Tree.numFenceBuckets(), 0u);
  EXPECT_EQ(Tree.estimateRange(0x8000, 0xffff), 0u);
}

TEST(RangeFenceTree, MergeFoldsRegainColdness) {
  // Concentrate, then switch entirely elsewhere: after enough merge
  // passes the first region's leaves fold upward and the bitmap is
  // re-derived, so the abandoned region can read cold again when its
  // weight ends up on the root. At minimum the rebuild keeps the
  // fence exact: cold answers must match the walked estimate.
  RapConfig Config = smallConfig(true);
  RapTree Tree(Config);
  Rng R(7);
  for (uint64_t I = 0; I != 50000; ++I)
    Tree.addPoint(R.next() & 0xff);
  for (uint64_t Lo = 0; Lo < 0x10000; Lo += 0x800) {
    bool Cold = Tree.rangeProvablyCold(Lo, Lo + 0x7ff);
    if (Cold) {
      EXPECT_EQ(Tree.estimateRange(Lo, Lo + 0x7ff), 0u)
          << "fence claimed cold but the walk disagrees at " << Lo;
    }
  }
  EXPECT_FALSE(Tree.rangeProvablyCold(0, 0xff));
}

TEST(RangeFenceTree, AbsorbRebuildsTheCombinedFence) {
  RapTree A(smallConfig(true));
  RapTree B(smallConfig(true));
  for (uint64_t I = 0; I != 3000; ++I) {
    A.addPoint(0x0100 + (I % 32));
    B.addPoint(0xa000 + (I % 32));
  }
  EXPECT_TRUE(A.rangeProvablyCold(0xa000, 0xafff));
  A.absorb(B);
  EXPECT_FALSE(A.rangeProvablyCold(0xa000, 0xafff));
  EXPECT_GT(A.estimateRange(0xa000, 0xafff), 0u);
  // Regions neither tree touched stay provably cold after the union.
  EXPECT_TRUE(A.rangeProvablyCold(0x4000, 0x7fff));
}

TEST(RangeFenceTree, NodeSetRestoreDerivesTheFence) {
  // Snapshots never carry the fence; fromNodeSet must rebuild it from
  // the restored counters.
  RapConfig Config = smallConfig(true);
  std::vector<std::tuple<uint64_t, uint8_t, uint64_t>> Nodes = {
      {0x0000, 16, 10}, // root
      {0x4000, 14, 90}, // one warm quadrant
  };
  std::string Error;
  std::unique_ptr<RapTree> Tree =
      RapTree::fromNodeSet(Config, Nodes, 100, &Error);
  ASSERT_NE(Tree, nullptr) << Error;
  EXPECT_FALSE(Tree->rangeProvablyCold(0x4000, 0x7fff));
  EXPECT_TRUE(Tree->rangeProvablyCold(0x8000, 0xffff));
  EXPECT_EQ(Tree->estimateRange(0x4000, 0x7fff), 90u);
}

//===----------------------------------------------------------------------===//
// Bit-exact equivalence, fence on vs off
//===----------------------------------------------------------------------===//

namespace {

/// Drives two trees (fence on/off) through the same stream and
/// compares every query class at several checkpoints.
void expectEquivalence(unsigned RangeBits, uint64_t Mask, uint64_t Seed) {
  RapConfig On = smallConfig(true);
  RapConfig Off = smallConfig(false);
  On.RangeBits = Off.RangeBits = RangeBits;
  RapTree Fenced(On), Plain(Off);
  Rng Stream(Seed), Query(Seed ^ 0x9e3779b97f4a7c15ULL);

  for (int Checkpoint = 0; Checkpoint != 4; ++Checkpoint) {
    for (uint64_t I = 0; I != 20000; ++I) {
      // Skewed stream: a hot narrow band plus a uniform cold tail.
      uint64_t X = Stream.next();
      X = (X & 1) ? (X >> 1) & (Mask >> 8) : (X >> 1) & Mask;
      Fenced.addPoint(X);
      Plain.addPoint(X);
    }
    ASSERT_EQ(Fenced.numNodes(), Plain.numNodes());
    for (unsigned Q = 0; Q != 256; ++Q) {
      uint64_t A = Query.next() & Mask, B = Query.next() & Mask;
      if (A > B)
        std::swap(A, B);
      ASSERT_EQ(Fenced.estimateRange(A, B), Plain.estimateRange(A, B))
          << "[" << A << ", " << B << "]";
      RapTree::RangeBounds FB = Fenced.estimateRangeBounds(A, B);
      RapTree::RangeBounds PB = Plain.estimateRangeBounds(A, B);
      ASSERT_EQ(FB.Lower, PB.Lower) << "[" << A << ", " << B << "]";
      ASSERT_EQ(FB.Upper, PB.Upper) << "[" << A << ", " << B << "]";
    }
    for (size_t K : {size_t(1), size_t(5),
                     static_cast<size_t>(Fenced.numNodes() + 5) / 2,
                     static_cast<size_t>(Fenced.numNodes()) + 7}) {
      std::vector<TopKRange> FT = Fenced.topK(K);
      std::vector<TopKRange> PT = Plain.topK(K);
      ASSERT_EQ(FT.size(), PT.size()) << "K=" << K;
      for (size_t I = 0; I != FT.size(); ++I) {
        ASSERT_EQ(FT[I].Lo, PT[I].Lo) << "K=" << K << " I=" << I;
        ASSERT_EQ(FT[I].WidthBits, PT[I].WidthBits);
        ASSERT_EQ(FT[I].Retained, PT[I].Retained);
        ASSERT_EQ(FT[I].LowerWeight, PT[I].LowerWeight);
        ASSERT_EQ(FT[I].UpperWeight, PT[I].UpperWeight);
      }
    }
  }
}

} // namespace

TEST(RangeFenceEquivalence, SixteenBitUniverse) {
  expectEquivalence(16, 0xffff, 0x1234);
}

TEST(RangeFenceEquivalence, ThirtyTwoBitUniverse) {
  expectEquivalence(32, 0xffffffffu, 0xbeef);
}

TEST(RangeFenceEquivalence, UniverseWiderThanTheBitmap) {
  // 64-bit universe: every bucket covers 2^52 values, so the fence is
  // maximally coarse; answers must still be identical.
  expectEquivalence(64, ~uint64_t(0), 0xfeed);
}
