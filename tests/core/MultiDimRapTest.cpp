//===- tests/core/MultiDimRapTest.cpp - 2-D RAP tests --------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/MultiDimRap.h"

#include "support/FailPoint.h"
#include "support/Rng.h"
#include "verify/TreeInvariants.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <sstream>

using namespace rap;

namespace {
MdRapConfig smallConfig(double Epsilon = 0.5, bool Merges = false) {
  MdRapConfig Config;
  Config.RangeBits = 8; // 256 x 256 domain
  Config.Epsilon = Epsilon;
  Config.EnableMerges = Merges;
  Config.InitialMergeInterval = 128;
  return Config;
}

/// The square a node of MdRapTree::tree() covers.
MdSquare squareOf(const RapNode &Node) {
  return MdRapTree::square(Node.lo(), Node.widthBits());
}
} // namespace

TEST(MdRapConfig, Validation) {
  MdRapConfig Config;
  EXPECT_TRUE(Config.validate());
  Config.RangeBits = 0;
  EXPECT_FALSE(Config.validate());
  Config.RangeBits = 33;
  EXPECT_FALSE(Config.validate());
  Config = MdRapConfig();
  Config.Epsilon = 0.0;
  EXPECT_FALSE(Config.validate());
  Config = MdRapConfig();
  Config.MergeRatio = 0.9;
  EXPECT_FALSE(Config.validate());
}

TEST(MdRapTree, FreshTreeCoversDomain) {
  MdRapTree Tree(smallConfig());
  EXPECT_EQ(Tree.numNodes(), 1u);
  MdSquare Root = squareOf(Tree.tree().root());
  EXPECT_EQ(Root.XLo, 0u);
  EXPECT_EQ(Root.YLo, 0u);
  EXPECT_EQ(Root.XHi, 255u);
  EXPECT_EQ(Root.YHi, 255u);
  EXPECT_EQ(Root.WidthBits, 8u);
}

TEST(MdRapTree, HotTupleDrillsToUnitCell) {
  MdRapTree Tree(smallConfig());
  for (int I = 0; I != 64; ++I)
    Tree.addPoint(12, 200);
  RapNode Cell =
      Tree.tree().findSmallestCover(MdRapTree::key(12, 200));
  MdSquare S = squareOf(Cell);
  EXPECT_EQ(S.XLo, 12u);
  EXPECT_EQ(S.YLo, 200u);
  EXPECT_EQ(S.WidthBits, 0u);
  EXPECT_TRUE(Cell.isUnitRange());
}

TEST(MdRapTree, QuadrantGeometry) {
  MdRapTree Tree(smallConfig(1.0));
  Tree.addPoint(0, 0); // root splits immediately
  RapNode Root = Tree.tree().root();
  ASSERT_TRUE(Root.hasChildren());
  ASSERT_EQ(Root.numChildSlots(), 4u);
  std::optional<RapNode> Q[4] = {Root.child(0), Root.child(1),
                                 Root.child(2), Root.child(3)};
  ASSERT_TRUE(Q[0] && Q[1] && Q[2] && Q[3]);
  // Slot (ybit << 1) | xbit: low-x low-y, high-x low-y, low-x high-y,
  // high-x high-y.
  const uint64_t Corners[4][2] = {{0, 0}, {128, 0}, {0, 128}, {128, 128}};
  for (unsigned Slot = 0; Slot != 4; ++Slot) {
    MdSquare S = squareOf(*Q[Slot]);
    EXPECT_EQ(S.XLo, Corners[Slot][0]) << "slot " << Slot;
    EXPECT_EQ(S.YLo, Corners[Slot][1]) << "slot " << Slot;
    EXPECT_EQ(S.XHi, Corners[Slot][0] + 127) << "slot " << Slot;
    EXPECT_EQ(S.WidthBits, 7u);
  }
}

TEST(MdRapTree, MortonKeyRoundTrips) {
  // X lands in the even key bits and Y in the odd ones, across the
  // full 32-bit coordinate range.
  EXPECT_EQ(MdRapTree::key(1, 0), 1u);
  EXPECT_EQ(MdRapTree::key(0, 1), 2u);
  EXPECT_EQ(MdRapTree::key(0xffffffffu, 0), 0x5555555555555555ULL);
  EXPECT_EQ(MdRapTree::key(0, 0xffffffffu), 0xaaaaaaaaaaaaaaaaULL);
  Rng R(23);
  for (int I = 0; I != 10000; ++I) {
    uint64_t X = R.next() >> 32, Y = R.next() >> 32;
    MdSquare S = MdRapTree::square(MdRapTree::key(X, Y), 0);
    ASSERT_EQ(S.XLo, X);
    ASSERT_EQ(S.YLo, Y);
    ASSERT_EQ(S.XHi, X);
  }
  // An aligned square of side 2^4 is a key range of width 2^8.
  MdSquare S = MdRapTree::square(MdRapTree::key(0x30, 0x50), 8);
  EXPECT_EQ(S.XHi, 0x3fu);
  EXPECT_EQ(S.YHi, 0x5fu);
  EXPECT_EQ(S.WidthBits, 4u);
}

TEST(MdRapTree, Conservation) {
  MdRapTree Tree(smallConfig(0.2, /*Merges=*/true));
  Rng R(3);
  for (int I = 0; I != 20000; ++I)
    Tree.addPoint(R.nextBelow(256), R.nextBelow(256));
  EXPECT_EQ(Tree.tree().root().subtreeWeight(), Tree.numEvents());
  Tree.mergeNow();
  EXPECT_EQ(Tree.tree().root().subtreeWeight(), Tree.numEvents());
  EXPECT_EQ(TreeInvariants::render(TreeInvariants::audit(Tree.tree())), "");
}

TEST(MdRapTree, EstimateWholeDomainExact) {
  MdRapTree Tree(smallConfig());
  Rng R(5);
  for (int I = 0; I != 5000; ++I)
    Tree.addPoint(R.nextBelow(256), R.nextBelow(256));
  EXPECT_EQ(Tree.estimateBox(0, 255, 0, 255), Tree.numEvents());
}

TEST(MdRapTree, EstimateBoxIsLowerBoundWithinEpsilon) {
  MdRapConfig Config = smallConfig(0.1, /*Merges=*/true);
  MdRapTree Tree(Config);
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> Exact;
  Rng R(7);
  const uint64_t N = 50000;
  for (uint64_t I = 0; I != N; ++I) {
    // Clustered tuples plus background.
    uint64_t X;
    uint64_t Y;
    if (R.nextBernoulli(0.5)) {
      X = 40 + R.nextBelow(8);
      Y = 200 + R.nextBelow(8);
    } else {
      X = R.nextBelow(256);
      Y = R.nextBelow(256);
    }
    Tree.addPoint(X, Y);
    ++Exact[{X, Y}];
  }
  // Query several aligned boxes.
  auto ExactBox = [&](uint64_t XLo, uint64_t XHi, uint64_t YLo,
                      uint64_t YHi) {
    uint64_t Total = 0;
    for (const auto &[Key, Count] : Exact)
      if (Key.first >= XLo && Key.first <= XHi && Key.second >= YLo &&
          Key.second <= YHi)
        Total += Count;
    return Total;
  };
  for (auto [XLo, XHi, YLo, YHi] :
       {std::tuple<uint64_t, uint64_t, uint64_t, uint64_t>{32, 63, 192, 223},
        {0, 127, 128, 255},
        {0, 255, 0, 255},
        {40, 47, 200, 207}}) {
    uint64_t Estimate = Tree.estimateBox(XLo, XHi, YLo, YHi);
    uint64_t Actual = ExactBox(XLo, XHi, YLo, YHi);
    EXPECT_LE(Estimate, Actual);
    EXPECT_LE(static_cast<double>(Actual - Estimate),
              Config.Epsilon * N + 1e-9);
  }
}

TEST(MdRapTree, HotBoxFindsCluster) {
  MdRapTree Tree(smallConfig(0.2, /*Merges=*/true));
  Rng R(9);
  for (int I = 0; I != 30000; ++I) {
    if (R.nextBernoulli(0.6))
      Tree.addPoint(100 + R.nextBelow(4), 50 + R.nextBelow(4));
    else
      Tree.addPoint(R.nextBelow(256), R.nextBelow(256));
  }
  std::vector<HotBox> Hot = Tree.extractHotBoxes(0.25);
  bool Found = false;
  for (const HotBox &H : Hot)
    Found |= H.XLo >= 96 && H.XHi <= 111 && H.YLo >= 48 && H.YHi <= 63;
  EXPECT_TRUE(Found) << "cluster box not identified";
}

TEST(MdRapTree, MergeBoundsMemory) {
  MdRapConfig WithMerges = smallConfig(0.2, true);
  MdRapConfig NoMerges = smallConfig(0.2, false);
  MdRapTree A(WithMerges);
  MdRapTree B(NoMerges);
  Rng RA(11);
  Rng RB(11);
  for (int I = 0; I != 60000; ++I) {
    A.addPoint(RA.nextBelow(256), RA.nextBelow(256));
    B.addPoint(RB.nextBelow(256), RB.nextBelow(256));
  }
  EXPECT_LT(A.numNodes(), B.numNodes());
  EXPECT_GT(A.numMergePasses(), 0u);
}

TEST(MdRapTree, WeightedUpdates) {
  MdRapTree Tree(smallConfig());
  Tree.addPoint(1, 2, 100);
  Tree.addPoint(3, 4, 23);
  EXPECT_EQ(Tree.numEvents(), 123u);
  EXPECT_EQ(Tree.tree().root().subtreeWeight(), 123u);
}

TEST(MdRapTree, EdgeProfileUseCase) {
  // Sec 6's edge profiles: X = branch PC, Y = target PC. A hot loop
  // back edge dominates; RAP isolates it as a unit-cell hot box.
  MdRapConfig Config;
  Config.RangeBits = 24;
  Config.Epsilon = 0.05;
  MdRapTree Tree(Config);
  Rng R(13);
  const uint64_t LoopBranch = 0x401234;
  const uint64_t LoopTarget = 0x401200;
  for (int I = 0; I != 40000; ++I) {
    if (R.nextBernoulli(0.4))
      Tree.addPoint(LoopBranch, LoopTarget);
    else
      Tree.addPoint(0x400000 + R.nextBelow(1 << 16),
                    0x400000 + R.nextBelow(1 << 16));
  }
  std::vector<HotBox> Hot = Tree.extractHotBoxes(0.3);
  bool FoundEdge = false;
  for (const HotBox &H : Hot)
    FoundEdge |= H.XLo == LoopBranch && H.XHi == LoopBranch &&
                 H.YLo == LoopTarget && H.YHi == LoopTarget;
  EXPECT_TRUE(FoundEdge) << "hot back edge not isolated";
}

TEST(MdRapTree, DumpHotPrintsBoxes) {
  MdRapTree Tree(smallConfig());
  for (int I = 0; I != 500; ++I)
    Tree.addPoint(7, 9);
  std::ostringstream OS;
  Tree.dumpHot(OS, 0.5);
  EXPECT_NE(OS.str().find("x:[7, 7] y:[9, 9]"), std::string::npos);
}

TEST(MdRapTree, DeterministicAcrossRuns) {
  auto Run = [] {
    MdRapTree Tree(smallConfig(0.2, true));
    Rng R(17);
    for (int I = 0; I != 30000; ++I)
      Tree.addPoint(R.nextBelow(256), R.nextBelow(256));
    std::ostringstream OS;
    Tree.dumpHot(OS, 0.01);
    return OS.str() + std::to_string(Tree.numNodes());
  };
  EXPECT_EQ(Run(), Run());
}

TEST(MdRapTree, InvalidConfigThrows) {
  MdRapConfig Config;
  Config.Epsilon = -1.0;
  EXPECT_THROW(MdRapTree{Config}, std::invalid_argument);
  Config = MdRapConfig();
  Config.RangeBits = 0;
  EXPECT_THROW(MdRapTree{Config}, std::invalid_argument);
}

TEST(MdRapTree, WeightOverflowSaturates) {
  MdRapTree Tree(smallConfig());
  Tree.addPoint(1, 1, ~uint64_t(0));
  EXPECT_EQ(Tree.numEvents(), ~uint64_t(0));
  // Further weight saturates instead of wrapping to small values.
  Tree.addPoint(1, 1, 1);
  Tree.addPoint(200, 17, 12345);
  EXPECT_EQ(Tree.numEvents(), ~uint64_t(0));
  EXPECT_EQ(Tree.tree().root().subtreeWeight(), ~uint64_t(0));
  EXPECT_GE(Tree.estimateBox(0, 255, 0, 255),
            Tree.estimateBox(0, 127, 0, 127));
}

TEST(MdRapTree, MergeScheduleSaturatesWithoutUndefinedBehavior) {
  // Regression: the 2-D tree shared RapTree's schedule bug — at huge
  // stream weights NextMergeAt * q left the int64 range (llround UB)
  // and NumEvents + 1 wrapped to 0, rescheduling a merge after every
  // single update.
  MdRapConfig Config;
  Config.RangeBits = 8;
  Config.Epsilon = 0.1;
  MdRapTree Tree(Config);
  for (int I = 0; I != 4; ++I)
    Tree.addPoint(3, 5, uint64_t(1) << 62);
  Tree.addPoint(200, 100, uint64_t(1) << 63);
  EXPECT_EQ(Tree.numEvents(), ~uint64_t(0));
  Tree.addPoint(7, 7, 1); // Still serviceable after saturation.
  EXPECT_EQ(Tree.numEvents(), ~uint64_t(0));
}

TEST(MdRapTree, HotBoxesSurviveCounterSaturation) {
  // Regression: the hot-box walk accumulated exclusive weights with a
  // raw `+=`, so ~2^64 total weight wrapped the root's sum below the
  // threshold and extractHotBoxes(1.0) came back empty.
  MdRapConfig Config;
  Config.RangeBits = 8;
  Config.Epsilon = 0.1;
  Config.EnableMerges = false; // Keep the weight on several nodes.
  MdRapTree Tree(Config);
  Tree.addPoint(1, 1, uint64_t(1) << 63);
  Tree.addPoint(200, 1, uint64_t(1) << 63);
  Tree.addPoint(200, 200, uint64_t(1) << 63);
  ASSERT_EQ(Tree.numEvents(), ~uint64_t(0));

  std::vector<HotBox> Hot = Tree.extractHotBoxes(1.0);
  ASSERT_FALSE(Hot.empty());
  EXPECT_EQ(Hot.front().WidthBits, 8u);
  EXPECT_EQ(Hot.front().ExclusiveWeight, ~uint64_t(0));
}

TEST(MdRapTree, ZeroWeightTupleNeverSplits) {
  // Regression: a zero-weight tuple landing on a leaf whose counter
  // merges had left above the split threshold used to split it (the
  // check read the current counter, not the new weight). It must be a
  // no-op, as RapTree::addPoint makes it for 1-D events.
  MdRapConfig Config;
  Config.RangeBits = 8;
  Config.Epsilon = 0.1;
  MdRapTree Tree(Config);
  Rng R(21);
  for (int I = 0; I != 5000; ++I)
    Tree.addPoint(R.nextBelow(256), R.nextBelow(256));
  Tree.mergeNow();
  uint64_t Splits = Tree.numSplits();
  uint64_t Nodes = Tree.numNodes();
  for (uint64_t X = 0; X != 256; ++X)
    for (uint64_t Y = 0; Y != 256; ++Y)
      Tree.addPoint(X, Y, 0);
  EXPECT_EQ(Tree.numSplits(), Splits);
  EXPECT_EQ(Tree.numNodes(), Nodes);
  EXPECT_EQ(Tree.numEvents(), 5000u);
}

TEST(MdRapTree, ArenaAllocFailureRefusesTheWholeSplit) {
  // A failed quadrant allocation rolls the arena back: the split is
  // refused whole, its event is charged as degraded, and the tree
  // stays structurally sound.
  failpoints::ScopedDisarm Guard;
  MdRapTree Tree(smallConfig());
  failpoints::arm(failpoints::Fp::ArenaAlloc);
  for (int I = 0; I != 200 && Tree.pressure().AllocFailures == 0; ++I)
    Tree.addPoint(12, 200);
  const TreePressure &P = Tree.pressure();
  ASSERT_EQ(P.AllocFailures, 1u);
  EXPECT_EQ(P.RefusedSplits, 1u);
  EXPECT_GT(P.DegradedWeight, 0u);
  EXPECT_EQ(Tree.numNodes(), 1u);
  EXPECT_EQ(TreeInvariants::render(TreeInvariants::audit(Tree.tree())), "");
  failpoints::disarmAll();
  for (int I = 0; I != 64; ++I)
    Tree.addPoint(12, 200);
  EXPECT_GT(Tree.numNodes(), 1u);
  EXPECT_EQ(TreeInvariants::render(TreeInvariants::audit(Tree.tree())), "");
}
