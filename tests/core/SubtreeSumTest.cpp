//===- tests/core/SubtreeSumTest.cpp - Subtree-sum column + read walks ----===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arena's subtree-sum column (RapNode::subtreeWeight is an O(1)
/// read of it) defines every node's own count as its subtree weight
/// less its live children's, so no live node's children may outweigh
/// it. TreeInvariants states that check ("subtree-sum") next to
/// conservation; these tests drive every structural path (split,
/// revive of merged-back slots, scheduled merge folds, forced passes
/// under a node budget, absorb, snapshot restore, a stream total
/// reaching 2^64-1 and an injected arena allocation failure) and
/// audit right after it. The read walks built on the column are then
/// checked against the recursive walks they replaced, computed here
/// from counters alone.
///
//===----------------------------------------------------------------------===//

#include "core/RapTree.h"
#include "core/Serialization.h"
#include "support/FailPoint.h"
#include "support/Rng.h"
#include "verify/ReferenceRapTree.h"
#include "verify/TreeInvariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

using namespace rap;

namespace {

using NodeSet = std::vector<std::tuple<uint64_t, uint8_t, uint64_t>>;

/// Column violations only: the structural audit also states budget and
/// node-bound claims some of the configurations below deliberately
/// stress, which are tested elsewhere.
std::string columnViolations(const RapTree &Tree) {
  std::vector<InvariantViolation> Column;
  for (InvariantViolation &V : TreeInvariants::audit(Tree))
    if (V.Invariant == "subtree-sum" || V.Invariant == "conservation")
      Column.push_back(std::move(V));
  return TreeInvariants::render(Column);
}

RapConfig smallConfig() {
  RapConfig Config;
  Config.RangeBits = 16;
  Config.BranchFactor = 4;
  Config.Epsilon = 0.05;
  return Config;
}

/// Subtree weight recomputed from counters, never reading the column.
uint64_t countedWeight(const RapNode &Node) {
  uint64_t Total = Node.count();
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      Total = saturatingAdd(Total, countedWeight(*Child));
  return Total;
}

/// The recursive lower-bound walk estimateRange used before the column.
uint64_t referenceLower(const RapNode &Node, uint64_t Lo, uint64_t Hi) {
  if (Node.lo() > Hi || Node.hi() < Lo)
    return 0;
  if (Lo <= Node.lo() && Node.hi() <= Hi)
    return countedWeight(Node);
  uint64_t Total = 0;
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      Total = saturatingAdd(Total, referenceLower(*Child, Lo, Hi));
  return Total;
}

/// The recursive upper-bound walk estimateRangeBounds used before.
uint64_t referenceUpper(const RapNode &Node, uint64_t Lo, uint64_t Hi) {
  if (Node.lo() > Hi || Node.hi() < Lo)
    return 0;
  if (Lo <= Node.lo() && Node.hi() <= Hi)
    return countedWeight(Node);
  uint64_t Total = Node.count();
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      Total = saturatingAdd(Total, referenceUpper(*Child, Lo, Hi));
  return Total;
}

/// extractHotRanges as it was before the column: a preorder slot is
/// reserved per node and erased again when the node is not hot.
uint64_t referenceHotWalk(const RapNode &Node, double Threshold,
                          unsigned Depth, std::vector<HotRange> &Out) {
  size_t MyIndex = Out.size();
  Out.emplace_back();
  uint64_t Exclusive = Node.count();
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      Exclusive = saturatingAdd(
          Exclusive, referenceHotWalk(*Child, Threshold, Depth + 1, Out));
  if (!(static_cast<double>(Exclusive) >= Threshold)) {
    Out.erase(Out.begin() + static_cast<std::ptrdiff_t>(MyIndex));
    return Exclusive;
  }
  HotRange &H = Out[MyIndex];
  H.Lo = Node.lo();
  H.Hi = Node.hi();
  H.WidthBits = Node.widthBits();
  H.Depth = Depth;
  H.ExclusiveWeight = Exclusive;
  H.SubtreeWeight = countedWeight(Node);
  return 0;
}

std::vector<HotRange> referenceHot(const RapTree &Tree, double Phi) {
  std::vector<HotRange> Out;
  referenceHotWalk(Tree.root(), Phi * static_cast<double>(Tree.numEvents()),
                   0, Out);
  return Out;
}

void expectSameHot(const std::vector<HotRange> &Got,
                   const std::vector<HotRange> &Want, double Phi) {
  ASSERT_EQ(Got.size(), Want.size()) << "phi " << Phi;
  for (size_t I = 0; I != Got.size(); ++I) {
    EXPECT_EQ(Got[I].Lo, Want[I].Lo) << "phi " << Phi << " entry " << I;
    EXPECT_EQ(Got[I].Hi, Want[I].Hi) << "phi " << Phi << " entry " << I;
    EXPECT_EQ(Got[I].WidthBits, Want[I].WidthBits) << "entry " << I;
    EXPECT_EQ(Got[I].Depth, Want[I].Depth) << "entry " << I;
    EXPECT_EQ(Got[I].ExclusiveWeight, Want[I].ExclusiveWeight)
        << "entry " << I;
    EXPECT_EQ(Got[I].SubtreeWeight, Want[I].SubtreeWeight) << "entry " << I;
  }
}

} // namespace

TEST(SubtreeSum, SplitLeavesParentSumAndZeroesChildren) {
  RapConfig Config = smallConfig();
  Config.EnableMerges = false;
  RapTree Tree(Config);
  while (Tree.numSplits() == 0)
    Tree.addPoint(0x1234);
  ASSERT_TRUE(Tree.root().hasChildren());
  EXPECT_EQ(Tree.root().subtreeWeight(), Tree.numEvents());
  // The split happened after the last event landed on the root, so
  // every fresh child is still empty.
  for (unsigned Slot = 0; Slot != Tree.root().numChildSlots(); ++Slot)
    EXPECT_EQ(Tree.root().child(Slot)->subtreeWeight(), 0u) << Slot;
  Tree.addPoint(0x1234, 7);
  EXPECT_EQ(Tree.root().child(0x1234 >> 14)->subtreeWeight(), 7u);
  EXPECT_EQ(columnViolations(Tree), "");
}

TEST(SubtreeSum, RevivedSlotsRestartFromZero) {
  // Slots merged back while a sibling stays live keep their old sums
  // as dead entries; a re-split must revive them at zero. A moving
  // hot spot produces such revives; detect each one (a split adding
  // fewer than a full block, with no merge in the same update) and
  // audit right after it.
  RapConfig Config = smallConfig();
  RapTree Tree(Config);
  Rng R(3);
  uint64_t Revives = 0;
  for (int I = 0; I != 60000; ++I) {
    uint64_t Center = uint64_t((I / 5000) * 0x1500) & 0xffff;
    uint64_t X = R.nextBelow(8) == 0 ? R.nextBelow(1u << 16)
                                     : (Center + R.nextBelow(64)) & 0xffff;
    uint64_t Splits = Tree.numSplits();
    uint64_t Nodes = Tree.numNodes();
    uint64_t Merges = Tree.numMergePasses();
    Tree.addPoint(X);
    bool Revive = Tree.numSplits() != Splits &&
                  Tree.numMergePasses() == Merges &&
                  Tree.numNodes() - Nodes < Config.BranchFactor;
    if (Revive) {
      ++Revives;
      ASSERT_EQ(columnViolations(Tree), "") << "revive at event " << I;
    }
  }
  EXPECT_GT(Revives, 0u);
}

TEST(SubtreeSum, RevivedSlotsOfARestoredTree) {
  // Restored node set: the root keeps one live child, so its other
  // three slots are dead. An event outside that child lands on the
  // root, whose counter is past the threshold: the split revives the
  // three slots in place.
  RapConfig Config = smallConfig();
  Config.EnableMerges = false;
  NodeSet Nodes = {{0, 16, 1000}, {0, 14, 50}};
  std::unique_ptr<RapTree> Tree = RapTree::fromNodeSet(Config, Nodes, 1050);
  ASSERT_TRUE(Tree);
  EXPECT_EQ(Tree->root().subtreeWeight(), 1050u);
  EXPECT_EQ(Tree->numNodes(), 2u);
  Tree->addPoint(0xc000);
  EXPECT_EQ(Tree->numSplits(), 1u);
  EXPECT_EQ(Tree->numNodes(), 5u);
  EXPECT_EQ(columnViolations(*Tree), "");
  Tree->addPoint(0xc000, 3);
  EXPECT_EQ(Tree->findSmallestCover(0xc000).subtreeWeight(), 3u);
  EXPECT_EQ(columnViolations(*Tree), "");
}

TEST(SubtreeSum, ScheduledFoldsLeaveSumsIntact) {
  RapTree Tree(smallConfig());
  Rng R(5);
  uint64_t Merges = 0;
  for (int I = 0; I != 40000; ++I) {
    Tree.addPoint(R.nextBelow(4) == 0 ? R.nextBelow(1u << 16)
                                      : R.nextBelow(256));
    if (Tree.numMergePasses() != Merges) {
      Merges = Tree.numMergePasses();
      ASSERT_EQ(columnViolations(Tree), "") << "after merge pass " << Merges;
    }
  }
  EXPECT_GT(Tree.numMergedNodes(), 0u);
  uint64_t Before = Tree.root().subtreeWeight();
  Tree.mergeNow();
  EXPECT_EQ(Tree.root().subtreeWeight(), Before);
  EXPECT_EQ(columnViolations(Tree), "");
}

TEST(SubtreeSum, ForcedPassesUnderANodeBudget) {
  RapConfig Config = smallConfig();
  Config.Epsilon = 0.01;
  Config.MaxNodes = 32;
  RapTree Tree(Config);
  Rng R(9);
  uint64_t Forced = 0;
  for (int I = 0; I != 20000; ++I) {
    Tree.addPoint(R.nextBelow(1u << 16));
    if (Tree.forcedMergePasses() != Forced) {
      Forced = Tree.forcedMergePasses();
      ASSERT_EQ(columnViolations(Tree), "") << "after forced pass " << Forced;
    }
  }
  EXPECT_GT(Forced, 0u);
}

TEST(SubtreeSum, AbsorbAddsTheOtherTreesWeight) {
  RapConfig Config = smallConfig();
  RapTree A(Config), B(Config);
  Rng R(13);
  for (int I = 0; I != 20000; ++I) {
    A.addPoint(R.nextBelow(1u << 12));
    B.addPoint(R.nextBelow(1u << 16));
  }
  A.absorb(B);
  EXPECT_EQ(A.root().subtreeWeight(), 40000u);
  EXPECT_EQ(columnViolations(A), "");

  // Absorbing into a budgeted tree also runs the forced passes.
  RapConfig Budgeted = Config;
  Budgeted.MaxNodes = 16;
  RapTree C(Budgeted);
  for (int I = 0; I != 1000; ++I)
    C.addPoint(R.nextBelow(1u << 16));
  C.absorb(A);
  EXPECT_LE(C.numNodes(), 16u);
  EXPECT_EQ(columnViolations(C), "");
}

TEST(SubtreeSum, SnapshotRestoreDerivesTheColumn) {
  RapTree Tree(smallConfig());
  Rng R(17);
  for (int I = 0; I != 30000; ++I)
    Tree.addPoint((R.nextBelow(1u << 10) * 37) & 0xffff);
  std::unique_ptr<RapTree> Restored = ProfileSnapshot::capture(Tree).restore();
  ASSERT_TRUE(Restored);
  EXPECT_EQ(columnViolations(*Restored), "");
  for (uint64_t Lo = 0; Lo < (1u << 16); Lo += 0x0f0f)
    EXPECT_EQ(Restored->estimateRange(Lo, Lo + 0x3000),
              Tree.estimateRange(Lo, Lo + 0x3000));
}

TEST(SubtreeSum, SaturationNearTwoToTheSixtyFour) {
  RapConfig Config = smallConfig();
  Config.EnableMerges = false;
  RapTree Tree(Config);
  // Once the stream total reaches 2^64-1, further weight is dropped
  // (and charged as degraded), so the column stays exact.
  Tree.addPoint(0x10, ~uint64_t(0) - 1);
  EXPECT_EQ(columnViolations(Tree), "");
  Tree.addPoint(0x20, 1);
  EXPECT_EQ(Tree.numEvents(), ~uint64_t(0));
  EXPECT_EQ(columnViolations(Tree), "");
  for (uint64_t X = 0; X < (1u << 16); X += 0x0777)
    Tree.addPoint(X, uint64_t(1) << 62);
  EXPECT_EQ(Tree.root().subtreeWeight(), ~uint64_t(0));
  EXPECT_EQ(columnViolations(Tree), "");
  RapTree::RangeBounds B = Tree.estimateRangeBounds(0, 0xffff);
  EXPECT_EQ(B.Lower, ~uint64_t(0));
  EXPECT_EQ(B.Upper, ~uint64_t(0));
}

TEST(SubtreeSum, ArenaAllocFailureRollsBackCleanly) {
  failpoints::ScopedDisarm Guard;
  RapConfig Config = smallConfig();
  Config.EnableMerges = false;
  RapTree Tree(Config);
  uint64_t Bytes = Tree.arenaBytes();
  failpoints::arm(failpoints::Fp::ArenaAlloc);
  for (int I = 0; I != 200 && Tree.pressure().AllocFailures == 0; ++I)
    Tree.addPoint(0x4242);
  ASSERT_EQ(Tree.pressure().AllocFailures, 1u);
  // The refused split grew no slab and left the column consistent.
  EXPECT_EQ(Tree.arenaBytes(), Bytes);
  EXPECT_EQ(Tree.numNodes(), 1u);
  EXPECT_EQ(columnViolations(Tree), "");
  failpoints::disarmAll();
  for (int I = 0; I != 2000; ++I)
    Tree.addPoint(0x4242 + uint64_t(I % 64));
  EXPECT_GT(Tree.numNodes(), 1u);
  EXPECT_EQ(columnViolations(Tree), "");
}

TEST(SubtreeSum, ArenaBytesCountsEverySlab) {
  // Per slot: the subtree-sum and navigation words, 8 B each, the
  // paper's 128-bit node. A node's own count follows from the sums and
  // its range from its path, so no slab stores either, and handles are
  // values, so no table backs them.
  RapTree Tree(smallConfig());
  EXPECT_EQ(Tree.arenaBytes(), 2u * 8);
  Rng R(7);
  for (int I = 0; I != 20000; ++I)
    Tree.addPoint(R.nextBelow(4) == 0 ? R.nextBelow(1 << 16)
                                      : R.nextBelow(64) << 6);
  ASSERT_GT(Tree.maxNumNodes(), 100u);
  // The two slabs grow in lockstep, so the bytes are whole 16-byte
  // slots, at least one per node the tree ever held.
  EXPECT_EQ(Tree.arenaBytes() % 16, 0u);
  EXPECT_GE(Tree.arenaBytes(), 16 * Tree.maxNumNodes());
  EXPECT_EQ(RapTree::BytesPerNode, 16u);
}

TEST(SubtreeSum, StreamTotalStopsAtTwoToTheSixtyFour) {
  // A stream crossing 2^64-1 mid-run, with splits and merges on both
  // sides of the crossing: the tree admits exactly up to 2^64-1,
  // charges the rest as degraded, and matches the root-descending
  // twin count for count.
  RapConfig Config = smallConfig();
  RapTree Tree(Config);
  ReferenceRapTree Twin(Config);
  Rng R(23);
  uint64_t Fed = 0;     // Weight offered while the total still fit.
  uint64_t Dropped = 0; // Weight offered past 2^64-1.
  auto Feed = [&](uint64_t X, uint64_t Weight) {
    uint64_t Fits = std::min(Weight, ~uint64_t(0) - Fed);
    Fed += Fits;
    Dropped = saturatingAdd(Dropped, Weight - Fits);
    Tree.addPoint(X, Weight);
    Twin.addPoint(X, Weight);
  };
  for (int I = 0; I != 4000; ++I)
    Feed(R.nextBelow(1u << 16), 1 + R.nextBelow(5));
  for (int I = 0; I != 6; ++I)
    Feed((0x3000 + 0x1111 * uint64_t(I)) & 0xffff, uint64_t(3) << 61);
  for (int I = 0; I != 2000; ++I)
    Feed(R.nextBelow(1u << 16), 1 + R.nextBelow(5));
  ASSERT_EQ(Fed, ~uint64_t(0));
  EXPECT_EQ(Tree.numEvents(), ~uint64_t(0));
  EXPECT_EQ(Tree.root().subtreeWeight(), ~uint64_t(0));
  EXPECT_EQ(Tree.degradedWeight(), Dropped);
  EXPECT_EQ(Twin.pressure().DegradedWeight, Dropped);
  EXPECT_GT(Tree.numMergePasses(), 0u);

  std::vector<ReferenceRapTree::NodeTriple> Mine;
  auto Collect = [&](auto &Self, const RapNode &Node) -> void {
    Mine.emplace_back(Node.lo(), static_cast<uint8_t>(Node.widthBits()),
                      Node.count());
    for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
      if (std::optional<RapNode> Child = Node.child(Slot))
        Self(Self, *Child);
  };
  Collect(Collect, Tree.root());
  EXPECT_EQ(Mine, Twin.collectNodes());
  EXPECT_EQ(columnViolations(Tree), "");
}

TEST(SubtreeSum, AbsorbPastTwoToTheSixtyFourFoldsOntoTheRoot) {
  RapConfig Config = smallConfig();
  // A full stream total pins the merge schedule at its sentinel, which
  // the schedule audit cannot order past the stream; merges are beside
  // the point here.
  Config.EnableMerges = false;
  RapTree A(Config), B(Config), C(Config);
  for (uint64_t I = 0; I != 8; ++I) {
    A.addPoint(I * 0x1000, uint64_t(1) << 60);
    B.addPoint(I * 0x1000 + 0x800, uint64_t(1) << 60);
    C.addPoint(I * 0x2000 + 0x400, uint64_t(1) << 59);
  }
  // A and C fit together exactly below 2^64: a plain union, no charge.
  A.absorb(C);
  EXPECT_EQ(A.numEvents(), (uint64_t(1) << 63) + (uint64_t(1) << 62));
  EXPECT_EQ(A.degradedWeight(), 0u);
  EXPECT_TRUE(TreeInvariants::audit(A).empty())
      << TreeInvariants::render(TreeInvariants::audit(A));

  // B does not fit: the headroom lands on the root, and all of B's
  // weight is charged (what landed lost its precision).
  uint64_t RootBefore = A.root().count();
  uint64_t Headroom = ~uint64_t(0) - A.numEvents();
  A.absorb(B);
  EXPECT_EQ(A.numEvents(), ~uint64_t(0));
  EXPECT_EQ(A.root().subtreeWeight(), ~uint64_t(0));
  EXPECT_EQ(A.root().count(), RootBefore + Headroom);
  EXPECT_EQ(A.degradedWeight(), B.numEvents());
  EXPECT_TRUE(TreeInvariants::audit(A).empty())
      << TreeInvariants::render(TreeInvariants::audit(A));
  // Estimates stay lower bounds: B's events in its own ranges were not
  // filed there.
  EXPECT_EQ(A.estimateRange(0x800, 0x8ff), 0u);
}

TEST(SubtreeSum, RestoreRejectsCountsPastTwoToTheSixtyFour) {
  RapConfig Config = smallConfig();
  NodeSet Nodes = {{0, 16, ~uint64_t(0)}, {0, 14, 1}};
  std::string Error;
  EXPECT_EQ(RapTree::fromNodeSet(Config, Nodes, ~uint64_t(0), &Error),
            nullptr);
  EXPECT_NE(Error.find("past 2^64-1"), std::string::npos) << Error;
}

TEST(SubtreeSum, RangeReadsMatchTheRecursiveWalks) {
  for (unsigned RangeBits : {8u, 16u, 64u}) {
    RapConfig Config = smallConfig();
    Config.RangeBits = RangeBits;
    Config.Epsilon = 0.01;
    RapTree Tree(Config);
    Rng R(RangeBits);
    uint64_t Mask = RangeBits == 64 ? ~uint64_t(0)
                                    : (uint64_t(1) << RangeBits) - 1;
    for (int I = 0; I != 30000; ++I)
      Tree.addPoint(R.nextBelow(3) == 0 ? R.next() & Mask
                                        : (R.nextBelow(512) << 3) & Mask);
    for (int Q = 0; Q != 2000; ++Q) {
      uint64_t A = R.next() & Mask, B = R.next() & Mask;
      if (Q % 2 == 0)
        B = A + std::min<uint64_t>(Mask - A, R.nextBelow(4096));
      uint64_t Lo = std::min(A, B), Hi = std::max(A, B);
      RapTree::RangeBounds Got = Tree.estimateRangeBounds(Lo, Hi);
      ASSERT_EQ(Got.Lower, referenceLower(Tree.root(), Lo, Hi))
          << RangeBits << " [" << Lo << ", " << Hi << "]";
      ASSERT_EQ(Got.Upper, referenceUpper(Tree.root(), Lo, Hi))
          << RangeBits << " [" << Lo << ", " << Hi << "]";
      ASSERT_EQ(Tree.estimateRange(Lo, Hi), Got.Lower);
    }
    // Queries reaching past the universe read what lies inside it.
    if (RangeBits != 64) {
      EXPECT_EQ(Tree.estimateRange(Mask + 1, Mask + 100), 0u);
      EXPECT_EQ(Tree.estimateRangeBounds(Mask / 2, Mask + 100).Upper,
                referenceUpper(Tree.root(), Mask / 2, Mask + 100));
    }
  }
}

TEST(HotWalk, DeepHotChainUnderColdAncestors) {
  // A binary tree 28 levels deep along lo = 0, every chain node with a
  // sibling. Every third chain node carries heavy weight, the rest and
  // the siblings light weight, so hot nodes sit under non-hot
  // ancestors whose exclusive weight excludes the hot weight below.
  RapConfig Config;
  Config.RangeBits = 32;
  Config.BranchFactor = 2;
  Config.Epsilon = 0.01;
  Config.EnableMerges = false;
  NodeSet Nodes = {{0, 32, 3}};
  uint64_t Total = 3;
  for (unsigned Width = 31; Width >= 4; --Width) {
    uint64_t Chain = Width % 3 == 0 ? 400 : 2;
    Nodes.emplace_back(0, static_cast<uint8_t>(Width), Chain);
    Total += Chain;
  }
  // In preorder each sibling follows the whole chain below lo = 0, so
  // the siblings come deepest first.
  for (unsigned Width = 4; Width <= 31; ++Width) {
    uint64_t Sibling = Width % 5 == 0 ? 90 : 1;
    Nodes.emplace_back(uint64_t(1) << Width, static_cast<uint8_t>(Width),
                       Sibling);
    Total += Sibling;
  }
  std::unique_ptr<RapTree> Tree = RapTree::fromNodeSet(Config, Nodes, Total);
  ASSERT_TRUE(Tree);
  ASSERT_EQ(Tree->numNodes(), Nodes.size());
  EXPECT_EQ(columnViolations(*Tree), "");
  bool SawColdAncestor = false;
  for (double Phi : {0.001, 0.01, 0.02, 0.05, 0.08, 0.1, 0.2, 0.5, 1.0}) {
    std::vector<HotRange> Got = Tree->extractHotRanges(Phi);
    std::vector<HotRange> Want = referenceHot(*Tree, Phi);
    expectSameHot(Got, Want, Phi);
    if (!Got.empty() && Got.front().Depth > 0)
      SawColdAncestor = true;
  }
  EXPECT_TRUE(SawColdAncestor);
}

TEST(HotWalk, MatchesTheReservingWalkOnStreams) {
  for (uint64_t Seed : {1u, 2u, 3u, 4u}) {
    RapConfig Config = smallConfig();
    Config.Epsilon = Seed % 2 ? 0.01 : 0.002;
    Config.BranchFactor = Seed <= 2 ? 2 : 16;
    RapTree Tree(Config);
    Rng R(Seed);
    for (int I = 0; I != 40000; ++I)
      Tree.addPoint(R.nextBelow(3) == 0 ? R.nextBelow(1u << 16)
                                        : 0x3000 + R.nextBelow(1u << 8));
    for (double Phi : {0.0005, 0.005, 0.01, 0.05, 0.3, 1.0})
      expectSameHot(Tree.extractHotRanges(Phi), referenceHot(Tree, Phi),
                    Phi);
  }
}
