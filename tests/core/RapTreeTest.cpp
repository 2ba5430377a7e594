//===- tests/core/RapTreeTest.cpp - RAP tree unit tests ------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/RapTree.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace rap;

namespace {

/// A config whose thresholds are easy to reason about: 8-bit universe,
/// binary tree, depth 8, SplitThreshold = eps * n / 8.
RapConfig smallConfig(double Epsilon = 0.5, bool Merges = false) {
  RapConfig Config;
  Config.RangeBits = 8;
  Config.BranchFactor = 2;
  Config.Epsilon = Epsilon;
  Config.EnableMerges = Merges;
  Config.InitialMergeInterval = 64;
  return Config;
}

} // namespace

TEST(RapTree, FreshTreeIsSingleRootCoveringUniverse) {
  RapTree Tree(smallConfig());
  EXPECT_EQ(Tree.numNodes(), 1u);
  EXPECT_EQ(Tree.numEvents(), 0u);
  EXPECT_EQ(Tree.root().lo(), 0u);
  EXPECT_EQ(Tree.root().hi(), 255u);
  EXPECT_EQ(Tree.root().widthBits(), 8u);
  EXPECT_FALSE(Tree.root().hasChildren());
}

TEST(RapTree, FullWidthUniverseRoot) {
  RapConfig Config;
  Config.RangeBits = 64;
  RapTree Tree(Config);
  EXPECT_EQ(Tree.root().hi(), ~uint64_t(0));
  Tree.addPoint(~uint64_t(0));
  Tree.addPoint(0);
  EXPECT_EQ(Tree.numEvents(), 2u);
}

TEST(RapTree, UpdateIncrementsSmallestCover) {
  RapTree Tree(smallConfig());
  Tree.addPoint(12);
  EXPECT_EQ(Tree.numEvents(), 1u);
  // The root immediately split (count 1 > 0.5*1/8), but the event was
  // recorded on the root before the split.
  EXPECT_EQ(Tree.root().count(), 1u);
  EXPECT_TRUE(Tree.root().hasChildren());
}

TEST(RapTree, RepeatedHotValueDrillsDownToUnitRange) {
  RapTree Tree(smallConfig());
  for (int I = 0; I != 32; ++I)
    Tree.addPoint(12);
  RapNode Leaf = Tree.findSmallestCover(12);
  EXPECT_EQ(Leaf.lo(), 12u);
  EXPECT_EQ(Leaf.hi(), 12u);
  EXPECT_TRUE(Leaf.isUnitRange());
}

TEST(RapTree, UnitRangesNeverSplit) {
  RapTree Tree(smallConfig());
  for (int I = 0; I != 100; ++I)
    Tree.addPoint(12);
  RapNode Leaf = Tree.findSmallestCover(12);
  EXPECT_TRUE(Leaf.isUnitRange());
  EXPECT_FALSE(Leaf.hasChildren());
  EXPECT_GT(Leaf.count(), 80u); // Almost all mass lands on the leaf.
}

TEST(RapTree, SplitChildrenStartAtZeroAndParentKeepsCount) {
  // Epsilon 1.0 -> threshold n/8; feed the same value so the root
  // splits after its counter passes the threshold.
  RapTree Tree(smallConfig(1.0));
  Tree.addPoint(200);
  ASSERT_TRUE(Tree.root().hasChildren());
  uint64_t RootCount = Tree.root().count();
  EXPECT_EQ(RootCount, 1u);
  // Newly created children have zero counts.
  uint64_t ChildSum = 0;
  for (unsigned Slot = 0; Slot != Tree.root().numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Tree.root().child(Slot))
      ChildSum += Child->subtreeWeight();
  EXPECT_EQ(ChildSum, 0u);
}

TEST(RapTree, ConservationUpdatesOnly) {
  RapTree Tree(smallConfig());
  for (uint64_t I = 0; I != 500; ++I)
    Tree.addPoint(I % 256);
  EXPECT_EQ(Tree.root().subtreeWeight(), Tree.numEvents());
}

TEST(RapTree, ConservationAcrossMerges) {
  RapTree Tree(smallConfig(0.5, /*Merges=*/true));
  for (uint64_t I = 0; I != 5000; ++I)
    Tree.addPoint((I * 37) % 256);
  Tree.mergeNow();
  EXPECT_EQ(Tree.root().subtreeWeight(), Tree.numEvents());
}

TEST(RapTree, WeightedUpdatesCountAsWeight) {
  RapTree Tree(smallConfig());
  Tree.addPoint(5, 100);
  Tree.addPoint(6, 23);
  EXPECT_EQ(Tree.numEvents(), 123u);
  EXPECT_EQ(Tree.root().subtreeWeight(), 123u);
}

TEST(RapTree, MergeFoldsColdChildrenIntoParent) {
  RapTree Tree(smallConfig(0.9));
  // Hot value 12, a couple of cold touches elsewhere.
  for (int I = 0; I != 200; ++I)
    Tree.addPoint(12);
  Tree.addPoint(200);
  Tree.addPoint(250);
  uint64_t NodesBefore = Tree.numNodes();
  uint64_t Removed = Tree.mergeNow();
  EXPECT_GT(Removed, 0u);
  EXPECT_EQ(Tree.numNodes(), NodesBefore - Removed);
  EXPECT_EQ(Tree.root().subtreeWeight(), Tree.numEvents());
  // The hot unit leaf survives the merge.
  RapNode Leaf = Tree.findSmallestCover(12);
  EXPECT_EQ(Leaf.lo(), 12u);
  EXPECT_EQ(Leaf.hi(), 12u);
}

TEST(RapTree, MergedRegionCanResplit) {
  RapTree Tree(smallConfig(0.9));
  for (int I = 0; I != 200; ++I)
    Tree.addPoint(12);
  Tree.addPoint(200);
  Tree.mergeNow();
  // 200's subtree was folded; now make 200 hot and it must re-split.
  for (int I = 0; I != 400; ++I)
    Tree.addPoint(200);
  RapNode Leaf = Tree.findSmallestCover(200);
  EXPECT_EQ(Leaf.lo(), 200u);
  EXPECT_EQ(Leaf.hi(), 200u);
}

TEST(RapTree, EstimateRangeWholeUniverseIsExact) {
  RapTree Tree(smallConfig());
  for (uint64_t I = 0; I != 1000; ++I)
    Tree.addPoint((I * 13) % 256);
  EXPECT_EQ(Tree.estimateRange(0, 255), 1000u);
}

TEST(RapTree, EstimateRangeIsLowerBound) {
  RapTree Tree(smallConfig(0.5, true));
  uint64_t ExactInLowHalf = 0;
  for (uint64_t I = 0; I != 4000; ++I) {
    uint64_t X = (I * 101 + 7) % 256;
    Tree.addPoint(X);
    if (X < 128)
      ++ExactInLowHalf;
  }
  EXPECT_LE(Tree.estimateRange(0, 127), ExactInLowHalf);
}

TEST(RapTree, EstimateDisjointRangesSumToTotalAtNodeBoundaries) {
  RapTree Tree(smallConfig());
  for (uint64_t I = 0; I != 2000; ++I)
    Tree.addPoint((I * 7) % 256);
  uint64_t Low = Tree.estimateRange(0, 127);
  uint64_t High = Tree.estimateRange(128, 255);
  // Both halves exist as nodes (the root split), so their subtree
  // weights plus the root's own count give the total.
  EXPECT_EQ(Low + High + Tree.root().count(), Tree.numEvents());
}

TEST(RapTree, HotRangeIdentifiesHotValue) {
  RapTree Tree(smallConfig());
  for (int I = 0; I != 900; ++I)
    Tree.addPoint(42);
  for (uint64_t I = 0; I != 100; ++I)
    Tree.addPoint((I * 3) % 256);
  std::vector<HotRange> Hot = Tree.extractHotRanges(0.5);
  ASSERT_FALSE(Hot.empty());
  bool Found = false;
  for (const HotRange &H : Hot)
    Found |= H.Lo == 42 && H.Hi == 42;
  EXPECT_TRUE(Found) << "the unit range [42,42] must be hot";
}

TEST(RapTree, HotRangesArePreorder) {
  RapTree Tree(smallConfig());
  for (int I = 0; I != 500; ++I)
    Tree.addPoint(42);
  for (int I = 0; I != 400; ++I)
    Tree.addPoint(43);
  std::vector<HotRange> Hot = Tree.extractHotRanges(0.10);
  for (size_t I = 1; I < Hot.size(); ++I)
    EXPECT_LE(Hot[I - 1].Depth, Hot[I].Depth + 10); // sanity: no crash
  // Ancestor ranges precede descendants.
  for (size_t I = 0; I < Hot.size(); ++I)
    for (size_t J = I + 1; J < Hot.size(); ++J)
      if (Hot[J].Lo >= Hot[I].Lo && Hot[J].Hi <= Hot[I].Hi) {
        EXPECT_LE(Hot[I].Depth, Hot[J].Depth);
      }
}

TEST(RapTree, HotRangeExclusiveWeightExcludesHotChildren) {
  RapTree Tree(smallConfig());
  for (int I = 0; I != 600; ++I)
    Tree.addPoint(42);
  for (int I = 0; I != 400; ++I)
    Tree.addPoint(200);
  std::vector<HotRange> Hot = Tree.extractHotRanges(0.3);
  for (const HotRange &H : Hot) {
    EXPECT_LE(H.ExclusiveWeight, H.SubtreeWeight);
    double Fraction = static_cast<double>(H.ExclusiveWeight) /
                      static_cast<double>(Tree.numEvents());
    EXPECT_GE(Fraction, 0.3) << "reported hot range below threshold";
  }
}

TEST(RapTree, ScheduledMergesFollowExponentialSpacing) {
  RapConfig Config = smallConfig(0.5, /*Merges=*/true);
  Config.InitialMergeInterval = 100;
  Config.MergeRatio = 2.0;
  RapTree Tree(Config);
  for (uint64_t I = 0; I != 1000; ++I)
    Tree.addPoint(I % 256);
  const std::vector<uint64_t> &Merges = Tree.mergeEventCounts();
  ASSERT_GE(Merges.size(), 4u);
  EXPECT_EQ(Merges[0], 100u);
  EXPECT_EQ(Merges[1], 200u);
  EXPECT_EQ(Merges[2], 400u);
  EXPECT_EQ(Merges[3], 800u);
}

TEST(RapTree, DisabledMergesNeverMerge) {
  RapTree Tree(smallConfig(0.5, /*Merges=*/false));
  for (uint64_t I = 0; I != 10000; ++I)
    Tree.addPoint(I % 256);
  EXPECT_EQ(Tree.numMergePasses(), 0u);
  EXPECT_TRUE(Tree.mergeEventCounts().empty());
}

TEST(RapTree, MaxNodesIsRunningMaximum) {
  RapTree Tree(smallConfig(0.5, /*Merges=*/true));
  for (uint64_t I = 0; I != 20000; ++I)
    Tree.addPoint((I * 31) % 256);
  EXPECT_GE(Tree.maxNumNodes(), Tree.numNodes());
  EXPECT_LE(Tree.memoryBytes(), Tree.maxNumNodes() * RapTree::BytesPerNode);
}

TEST(RapTree, DeterministicAcrossRuns) {
  auto Run = [] {
    RapTree Tree(smallConfig(0.25, true));
    for (uint64_t I = 0; I != 30000; ++I)
      Tree.addPoint((I * I + 3 * I) % 256);
    std::ostringstream OS;
    Tree.dump(OS);
    return OS.str();
  };
  EXPECT_EQ(Run(), Run());
}

TEST(RapTree, DumpContainsRootLine) {
  RapTree Tree(smallConfig());
  Tree.addPoint(1);
  std::ostringstream OS;
  Tree.dump(OS);
  EXPECT_NE(OS.str().find("[0, ff]"), std::string::npos);
}

TEST(RapTree, DumpHotShowsPercentages) {
  RapTree Tree(smallConfig());
  for (int I = 0; I != 100; ++I)
    Tree.addPoint(9);
  std::ostringstream OS;
  Tree.dumpHot(OS, 0.5);
  EXPECT_NE(OS.str().find('%'), std::string::npos);
}

TEST(RapTree, BranchFactorFourSplitsIntoFourChildren) {
  RapConfig Config;
  Config.RangeBits = 8;
  Config.BranchFactor = 4;
  Config.Epsilon = 1.0;
  Config.EnableMerges = false;
  RapTree Tree(Config);
  Tree.addPoint(0);
  ASSERT_TRUE(Tree.root().hasChildren());
  EXPECT_EQ(Tree.root().numChildSlots(), 4u);
  unsigned Live = 0;
  for (unsigned Slot = 0; Slot != 4; ++Slot)
    Live += Tree.root().child(Slot).has_value();
  EXPECT_EQ(Live, 4u);
}

TEST(RapTree, NonDivisibleRangeBitsBottomLevelNarrower) {
  // 5-bit universe with b=4 (2 bits/level): levels are 5->3->1->0, the
  // last split produces only 2 children.
  RapConfig Config;
  Config.RangeBits = 5;
  Config.BranchFactor = 4;
  Config.Epsilon = 1.0;
  Config.EnableMerges = false;
  RapTree Tree(Config);
  for (int I = 0; I != 64; ++I)
    Tree.addPoint(17);
  RapNode Leaf = Tree.findSmallestCover(17);
  EXPECT_EQ(Leaf.lo(), 17u);
  EXPECT_EQ(Leaf.hi(), 17u);
  // Walk up: its parent must be the 1-bit range [16,17].
  RapNode Pair = Tree.findSmallestCover(16);
  EXPECT_EQ(Pair.lo(), 16u);
  EXPECT_EQ(Pair.hi(), 16u); // 16 also drilled to a unit leaf (sibling)
}

TEST(RapTree, NumSplitsAndMergedNodesAccumulate) {
  RapTree Tree(smallConfig(0.25, true));
  for (uint64_t I = 0; I != 50000; ++I)
    Tree.addPoint((I * 131) % 256);
  EXPECT_GT(Tree.numSplits(), 0u);
  EXPECT_GT(Tree.numMergePasses(), 0u);
}
