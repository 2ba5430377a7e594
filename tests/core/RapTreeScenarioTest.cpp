//===- tests/core/RapTreeScenarioTest.cpp - Fig 1 walkthrough ------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recreates the scenario of the paper's Figure 1: a binary profile
/// tree over [0, 255] where a merge cycle folds ranges of insufficient
/// weight, after which an access to item 12 pushes the node covering
/// [12, 13] over the split threshold so that items 12 and 13 are
/// subsequently profiled individually.
///
//===----------------------------------------------------------------------===//

#include "core/RapTree.h"

#include <gtest/gtest.h>

using namespace rap;

namespace {

RapConfig fig1Config() {
  RapConfig Config;
  Config.RangeBits = 8;    // Universe [0, 255] as in Fig 1's root.
  Config.BranchFactor = 2; // "each node has 2 out edges"
  Config.Epsilon = 0.8;
  Config.EnableMerges = false; // Merges driven explicitly.
  return Config;
}

/// Convenience: true if a node with exactly [Lo, Hi] exists.
bool hasNode(const RapTree &Tree, uint64_t Lo, uint64_t Hi) {
  RapNode Cover = Tree.findSmallestCover(Lo);
  return Cover.lo() == Lo && Cover.hi() == Hi;
}

} // namespace

TEST(Fig1Scenario, HotPairRangeForms) {
  RapTree Tree(fig1Config());
  // Phase 1: traffic concentrated on 12 and 13 drills the tree down to
  // the pair range [12, 13]; background touches keep coarser ranges
  // alive ([0,63], [0,255], ...).
  for (int I = 0; I != 40; ++I) {
    Tree.addPoint(12);
    Tree.addPoint(13);
  }
  for (uint64_t X : {100, 130, 200, 250})
    Tree.addPoint(X);

  // Items 12 and 13 are hot enough that they are profiled at unit
  // granularity by now. Their parent pair range exists above them.
  EXPECT_TRUE(hasNode(Tree, 12, 12));
  EXPECT_TRUE(hasNode(Tree, 13, 13));
  EXPECT_EQ(Tree.root().subtreeWeight(), Tree.numEvents());
}

TEST(Fig1Scenario, MergeCycleFoldsInsufficientWeight) {
  RapTree Tree(fig1Config());
  for (int I = 0; I != 40; ++I) {
    Tree.addPoint(12);
    Tree.addPoint(13);
  }
  for (uint64_t X : {100, 130, 200, 250})
    Tree.addPoint(X);

  uint64_t NodesBefore = Tree.numNodes();
  // Fig 1's merge cycle: "any set of nodes that have insufficient
  // weight to warrant separate profiles are merged" (cutoff 13 in the
  // figure; here the configured threshold plays that role).
  uint64_t Removed = Tree.mergeNow();
  EXPECT_GT(Removed, 0u);
  EXPECT_LT(Tree.numNodes(), NodesBefore);
  // The cold singles merged upward: 100 is now covered by a coarse
  // range, not a unit leaf.
  EXPECT_GT(Tree.findSmallestCover(100).widthBits(), 0u);
  // The hot units survived.
  EXPECT_TRUE(hasNode(Tree, 12, 12));
  EXPECT_TRUE(hasNode(Tree, 13, 13));
}

TEST(Fig1Scenario, AccessAfterMergeResplitsPairRange) {
  // Variant closer to the figure: make 12/13 only warm so the merge
  // folds them back into [12, 13], then new traffic to 12 re-splits
  // and 12/13 are "recorded on an item by item basis" again.
  RapConfig Config = fig1Config();
  Config.Epsilon = 0.5; // split threshold = n/16
  RapTree Tree(Config);

  for (int I = 0; I != 12; ++I) {
    Tree.addPoint(12);
    Tree.addPoint(13);
  }
  // Heavy elsewhere traffic makes 12/13's subtree comparatively cold:
  // 24 events against a merge threshold of 424/16 = 26.5.
  for (int I = 0; I != 400; ++I)
    Tree.addPoint(200);

  Tree.mergeNow();
  // After the merge, 12 is covered by a range wider than a unit.
  RapNode AfterMerge = Tree.findSmallestCover(12);
  EXPECT_GT(AfterMerge.widthBits(), 0u);

  // Now item 12 gets hot again: the covering range's counter crosses
  // the split threshold at each level until unit profiling resumes
  // (one threshold's worth of counts per level of the 8-level path).
  for (int I = 0; I != 1000; ++I)
    Tree.addPoint(12);
  EXPECT_TRUE(hasNode(Tree, 12, 12));
  EXPECT_EQ(Tree.root().subtreeWeight(), Tree.numEvents());
}

TEST(Fig1Scenario, CountsNeverDecrease) {
  // Footnote 1 of the paper: "Counters are never decremented"; merges
  // only move counts upward. Total subtree weight is invariant.
  RapTree Tree(fig1Config());
  for (int I = 0; I != 100; ++I)
    Tree.addPoint(static_cast<uint64_t>((I * 29) % 256));
  uint64_t Before = Tree.root().subtreeWeight();
  Tree.mergeNow();
  EXPECT_EQ(Tree.root().subtreeWeight(), Before);
  Tree.mergeNow(); // Idempotent on an already-compacted tree.
  EXPECT_EQ(Tree.root().subtreeWeight(), Before);
}
