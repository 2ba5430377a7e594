//===- tests/core/TopKTwinTest.cpp - Pruned topK vs the full walk ---------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RapTree::topK keeps the K best entries in a heap and skips every
/// subtree whose sum is below the K-th best retained count. The walk it
/// replaced visited every node, collected one entry each and
/// partial-sorted them; that walk survives here, over the public
/// RapNode handles, as the reference. Every topK result must equal it
/// field for field: across b in {2, 4, 16}, every universe width the
/// branching factor allows, node budgets, admission and the fence; at
/// checkpoints after scheduled and forced merges, after absorb and
/// after a snapshot restore; for K from 0 past the node count; and on
/// a hand-built tie where only the (Lo, WidthBits) tie-break decides.
///
//===----------------------------------------------------------------------===//

#include "core/RapTree.h"
#include "core/Serialization.h"
#include "support/BitUtils.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

namespace rap {
/// gtest's printer for a report entry, so a divergence names its fields.
static void PrintTo(const TopKRange &E, std::ostream *Os) {
  char Buffer[200];
  std::snprintf(Buffer, sizeof(Buffer),
                "{lo=%llx hi=%llx width=%u depth=%u retained=%llu "
                "lower=%llu upper=%llu}",
                static_cast<unsigned long long>(E.Lo),
                static_cast<unsigned long long>(E.Hi), E.WidthBits, E.Depth,
                static_cast<unsigned long long>(E.Retained),
                static_cast<unsigned long long>(E.LowerWeight),
                static_cast<unsigned long long>(E.UpperWeight));
  *Os << Buffer;
}
} // namespace rap

using namespace rap;

namespace {

/// The replaced walk: one entry per node, in preorder.
void collectAll(const RapNode &Node, unsigned Depth, uint64_t AncestorOwn,
                std::vector<TopKRange> &Out) {
  TopKRange R;
  R.Lo = Node.lo();
  R.Hi = Node.hi();
  R.WidthBits = Node.widthBits();
  R.Depth = Depth;
  R.Retained = Node.count();
  R.LowerWeight = Node.subtreeWeight();
  R.UpperWeight = saturatingAdd(R.LowerWeight, AncestorOwn);
  Out.push_back(R);
  uint64_t ChildAncestorOwn = saturatingAdd(AncestorOwn, R.Retained);
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      collectAll(*Child, Depth + 1, ChildAncestorOwn, Out);
}

/// The replaced topK: every node, then a partial sort by Retained
/// descending, Lo ascending, WidthBits ascending.
std::vector<TopKRange> referenceTopK(const RapTree &Tree, size_t K) {
  std::vector<TopKRange> Out;
  if (K == 0)
    return Out;
  collectAll(Tree.root(), 0, 0, Out);
  auto Before = [](const TopKRange &A, const TopKRange &B) {
    if (A.Retained != B.Retained)
      return A.Retained > B.Retained;
    if (A.Lo != B.Lo)
      return A.Lo < B.Lo;
    return A.WidthBits < B.WidthBits;
  };
  size_t Keep = std::min(K, Out.size());
  std::partial_sort(Out.begin(),
                    Out.begin() + static_cast<std::ptrdiff_t>(Keep),
                    Out.end(), Before);
  Out.resize(Keep);
  return Out;
}

/// topK against the reference at every K the walk treats differently:
/// none, one and two slots, the perfbench size, one short of the node
/// count (prunes only at the last node), the node count, and past it.
void expectTwins(const RapTree &Tree, const std::string &Context) {
  size_t N = static_cast<size_t>(Tree.numNodes());
  for (size_t K : {size_t(0), size_t(1), size_t(2), size_t(16), N - 1, N,
                   N + 5}) {
    std::vector<TopKRange> Got = Tree.topK(K);
    ASSERT_EQ(Got, referenceTopK(Tree, K))
        << Context << ", K=" << K << " of " << N << " nodes";
    EXPECT_LE(Got.capacity(), K) << Context << ", K=" << K;
  }
}

struct SweepPoint {
  unsigned BranchFactor;
  unsigned RangeBits;
};

std::string pointName(const testing::TestParamInfo<SweepPoint> &Info) {
  return "b" + std::to_string(Info.param.BranchFactor) + "_bits" +
         std::to_string(Info.param.RangeBits);
}

std::vector<SweepPoint> sweepPoints() {
  std::vector<SweepPoint> Points;
  for (unsigned B : {2u, 4u, 16u})
    for (unsigned Bits = log2Exact(B); Bits <= 64; ++Bits)
      Points.push_back({B, Bits});
  return Points;
}

/// Hot keys (equal weights, so their counts tie), uniform noise and a
/// narrow cluster, with occasional heavy combined weights.
class TwinStream {
public:
  TwinStream(unsigned RangeBits, uint64_t Seed)
      : Mask(lowBitMask(RangeBits)), R(Seed) {
    for (uint64_t &H : Hot)
      H = R.next() & Mask;
    Cluster = R.next() & Mask;
  }

  std::pair<uint64_t, uint64_t> next() {
    uint64_t Pick = R.nextBelow(16);
    uint64_t Weight = R.nextBelow(32) == 0 ? 1 + R.nextBelow(64) : 1;
    if (Pick < 6)
      return {Hot[R.nextBelow(4)], Weight};
    if (Pick < 10)
      return {(Cluster + R.nextBelow(256)) & Mask, Weight};
    return {R.next() & Mask, Weight};
  }

private:
  uint64_t Mask;
  Rng R;
  uint64_t Hot[4] = {};
  uint64_t Cluster = 0;
};

class TopKTwin : public testing::TestWithParam<SweepPoint> {};

TEST_P(TopKTwin, PrunedWalkMatchesFullWalkAtEveryCheckpoint) {
  const SweepPoint &P = GetParam();
  Rng Choice(0x70b4 * 131 + P.BranchFactor * 67 + P.RangeBits);
  // Four variants per point, each turning on a node budget, admission
  // and the fence with probability one half apiece.
  for (unsigned Variant = 0; Variant != 4; ++Variant) {
    RapConfig Config;
    Config.BranchFactor = P.BranchFactor;
    Config.RangeBits = P.RangeBits;
    Config.Epsilon = Variant % 2 == 0 ? 0.02 : 0.1;
    Config.InitialMergeInterval = 256;
    Config.MaxNodes =
        Choice.nextBernoulli(0.5) ? 24 + Choice.nextBelow(64) : 0;
    Config.EnableAdmission = Choice.nextBernoulli(0.5);
    Config.EnableRangeFence = Choice.nextBernoulli(0.5);
    std::string Context = "variant " + std::to_string(Variant) +
                          " budget " + std::to_string(Config.MaxNodes) +
                          (Config.EnableAdmission ? " admission" : "") +
                          (Config.EnableRangeFence ? " fence" : "");
    SCOPED_TRACE(Context);

    RapTree Tree(Config);
    TwinStream Stream(P.RangeBits, Choice.next());
    for (unsigned Round = 0; Round != 3; ++Round) {
      for (unsigned I = 0; I != 1500; ++I) {
        auto [X, W] = Stream.next();
        Tree.addPoint(X, W);
      }
      expectTwins(Tree, "after round " + std::to_string(Round));
    }
    Tree.mergeNow();
    expectTwins(Tree, "after mergeNow");

    RapTree Other(Config);
    TwinStream OtherStream(P.RangeBits, Choice.next());
    for (unsigned I = 0; I != 2000; ++I) {
      auto [X, W] = OtherStream.next();
      Other.addPoint(X, W);
    }
    Tree.absorb(Other);
    expectTwins(Tree, "after absorb");

    std::unique_ptr<RapTree> Restored =
        ProfileSnapshot::capture(Tree).restore();
    ASSERT_NE(Restored, nullptr);
    expectTwins(*Restored, "after snapshot restore");
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TopKTwin, testing::ValuesIn(sweepPoints()),
                         pointName);

TEST(TopKTwinEdge, FreshTreeAndEmptyStream) {
  RapConfig Config;
  Config.RangeBits = 8;
  RapTree Tree(Config);
  expectTwins(Tree, "empty tree");
  Tree.addPoint(3);
  expectTwins(Tree, "one event");
}

TEST(TopKTwinEdge, TieWithParentIsBrokenByWidth) {
  // Root [0, 16) and its first child [0, 8) share Lo and Retained, so
  // the child ranks first on WidthBits; it is reached only after the
  // root fills a one-slot heap, through a subtree sum equal to the
  // root's Retained. Pruning on that equality would report the root.
  RapConfig Config;
  Config.RangeBits = 4;
  Config.BranchFactor = 2;
  std::vector<std::tuple<uint64_t, uint8_t, uint64_t>> Nodes = {
      {0, 4, 5}, {0, 3, 5}, {8, 3, 5}};
  std::string Error;
  std::unique_ptr<RapTree> Tree =
      RapTree::fromNodeSet(Config, Nodes, 15, &Error);
  ASSERT_NE(Tree, nullptr) << Error;

  std::vector<TopKRange> Top = Tree->topK(1);
  ASSERT_EQ(Top.size(), 1u);
  EXPECT_EQ(Top[0].Lo, 0u);
  EXPECT_EQ(Top[0].WidthBits, 3u);
  EXPECT_EQ(Top[0].Retained, 5u);
  expectTwins(*Tree, "hand-built tie");
}

TEST(TopKTwinEdge, HeavyGrandchildUnderLightChild) {
  // A child whose own count is small but whose subtree holds the
  // heaviest node: only its subtree sum shows that it must be walked.
  RapConfig Config;
  Config.RangeBits = 4;
  Config.BranchFactor = 2;
  std::vector<std::tuple<uint64_t, uint8_t, uint64_t>> Nodes = {
      {0, 4, 6}, {0, 3, 1}, {0, 2, 9}, {8, 3, 7}};
  std::string Error;
  std::unique_ptr<RapTree> Tree =
      RapTree::fromNodeSet(Config, Nodes, 23, &Error);
  ASSERT_NE(Tree, nullptr) << Error;

  std::vector<TopKRange> Top = Tree->topK(1);
  ASSERT_EQ(Top.size(), 1u);
  EXPECT_EQ(Top[0].Lo, 0u);
  EXPECT_EQ(Top[0].WidthBits, 2u);
  EXPECT_EQ(Top[0].Retained, 9u);
  expectTwins(*Tree, "heavy grandchild");
}

} // namespace
