//===- tests/core/MultiDimRapPropertyTest.cpp - 2-D invariant sweeps -----===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property sweeps for the multi-dimensional extension: the 1-D
/// guarantees must carry over to the quadtree — conservation, lower
/// bounds, the eps*n error bound on node-aligned boxes, and
/// guaranteed-hot boxes. Each case also checks the Morton-key tree
/// against the pointer-based verify/ReferenceRapTree fed the same keys,
/// audits it with TreeInvariants, and compares a digest of the whole
/// profile with the one the earlier standalone pointer quadtree
/// produced on the same stream (pinned below), so the adapter stays
/// bit-identical to the quadtree it replaced.
///
//===----------------------------------------------------------------------===//

#include "core/MultiDimRap.h"
#include "support/Rng.h"
#include "verify/ReferenceRapTree.h"
#include "verify/TreeInvariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

using namespace rap;

namespace {

enum class TupleKind { Uniform, Diagonal, Clustered, RowBanded };

struct MdSweepParam {
  double Epsilon;
  unsigned RangeBits;
  TupleKind Kind;
};

std::string kindName(TupleKind Kind) {
  switch (Kind) {
  case TupleKind::Uniform:
    return "Uniform";
  case TupleKind::Diagonal:
    return "Diagonal";
  case TupleKind::Clustered:
    return "Clustered";
  case TupleKind::RowBanded:
    return "RowBanded";
  }
  return "?";
}

std::string paramName(const testing::TestParamInfo<MdSweepParam> &Info) {
  char Buffer[96];
  std::snprintf(Buffer, sizeof(Buffer), "eps%d_bits%u_%s",
                static_cast<int>(Info.param.Epsilon * 1000),
                Info.param.RangeBits, kindName(Info.param.Kind).c_str());
  return Buffer;
}

class MdStreamGen {
public:
  MdStreamGen(TupleKind Kind, unsigned RangeBits, uint64_t Seed)
      : Kind(Kind), Mask((uint64_t(1) << RangeBits) - 1), Generator(Seed) {}

  std::pair<uint64_t, uint64_t> next() {
    switch (Kind) {
    case TupleKind::Uniform:
      return {Generator.next() & Mask, Generator.next() & Mask};
    case TupleKind::Diagonal: {
      uint64_t X = Generator.next() & Mask;
      return {X, (X + Generator.nextBelow(4)) & Mask};
    }
    case TupleKind::Clustered:
      if (Generator.nextBernoulli(0.5))
        return {(Mask / 3) + Generator.nextBelow(8),
                (Mask / 5) + Generator.nextBelow(8)};
      return {Generator.next() & Mask, Generator.next() & Mask};
    case TupleKind::RowBanded:
      // One hot row (fixed Y), X spread out.
      if (Generator.nextBernoulli(0.6))
        return {Generator.next() & Mask, Mask / 2};
      return {Generator.next() & Mask, Generator.next() & Mask};
    }
    return {0, 0};
  }

private:
  TupleKind Kind;
  uint64_t Mask;
  Rng Generator;
};

/// Collects every node's box and subtree weight.
void collectBoxes(
    const RapNode &Node,
    std::vector<std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t>>
        &Out) {
  MdSquare S = MdRapTree::square(Node.lo(), Node.widthBits());
  Out.emplace_back(S.XLo, S.XHi, S.YLo, S.YHi, Node.subtreeWeight());
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      collectBoxes(*Child, Out);
}

/// Preorder (lo, widthBits, count) triples of the Morton-key tree, in
/// the order ReferenceRapTree::collectNodes emits.
void collectTriples(const RapNode &Node,
                    std::vector<ReferenceRapTree::NodeTriple> &Out) {
  Out.emplace_back(Node.lo(), static_cast<uint8_t>(Node.widthBits()),
                   Node.count());
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      collectTriples(*Child, Out);
}

/// FNV-1a over 64-bit words, little-endian byte order.
struct Fnv64 {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  void add(uint64_t Word) {
    for (unsigned Byte = 0; Byte != 8; ++Byte) {
      Hash ^= (Word >> (8 * Byte)) & 0xff;
      Hash *= 0x100000001b3ULL;
    }
  }
};

void digestNodes(const RapNode &Node, Fnv64 &F, uint64_t &Count) {
  MdSquare S = MdRapTree::square(Node.lo(), Node.widthBits());
  for (uint64_t Word : {S.XLo, S.YLo, uint64_t(S.WidthBits), Node.count()})
    F.add(Word);
  ++Count;
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      digestNodes(*Child, F, Count);
}

/// Digest of everything a 2-D profile exposes: the counters, every
/// TreePressure field, the preorder (x, y, width, count) node
/// sequence and the hot boxes at phi = 0.05.
uint64_t profileDigest(const MdRapTree &Tree) {
  Fnv64 F;
  const TreePressure &P = Tree.pressure();
  for (uint64_t Word : std::initializer_list<uint64_t>{
           Tree.numEvents(), Tree.numNodes(), Tree.maxNumNodes(),
           Tree.numSplits(), Tree.numMergePasses(), P.NodeBudget,
           P.BudgetHits, P.RefusedSplits, P.ForcedMergePasses,
           P.ReclaimedNodes, P.CoarsenLevel, P.DegradedWeight,
           P.AllocFailures, P.AdmissionDeniedSplits,
           P.AdmissionDeferredWeight})
    F.add(Word);
  uint64_t Count = 0;
  digestNodes(Tree.tree().root(), F, Count);
  F.add(Count);
  for (const HotBox &H : Tree.extractHotBoxes(0.05))
    for (uint64_t Word : {H.XLo, H.XHi, H.YLo, H.YHi, uint64_t(H.WidthBits),
                          uint64_t(H.Depth), H.ExclusiveWeight,
                          H.SubtreeWeight})
      F.add(Word);
  return F.Hash;
}

/// profileDigest after the stream and again after one mergeNow, as
/// the earlier standalone pointer quadtree produced them.
struct PinnedDigest {
  const char *Case;
  uint64_t AfterStream;
  uint64_t AfterMerge;
};

const PinnedDigest QuadtreeDigests[] = {
    {"eps20_bits8_Uniform", 0x20f1e0191c1a6dc0ULL, 0x1be43dbbe86a075dULL},
    {"eps20_bits8_Diagonal", 0x3eecdd3e20c4fb13ULL, 0x90f46b855cc494edULL},
    {"eps20_bits8_Clustered", 0x822e6304ef1fad2bULL, 0xabeae1f53a8f468aULL},
    {"eps20_bits8_RowBanded", 0x6a2ffe2ae88a5ec5ULL, 0x7301a0e45d25e5d8ULL},
    {"eps20_bits12_Uniform", 0x706b221fe25beb33ULL, 0x90634d9e7856766cULL},
    {"eps20_bits12_Diagonal", 0x9672fbf8b4e948e1ULL, 0xe17f3c93f239ead7ULL},
    {"eps20_bits12_Clustered", 0xf2765de9907e9565ULL, 0x07de09d96249747fULL},
    {"eps20_bits12_RowBanded", 0xdf155720d21544cbULL, 0x913beed16b7ab781ULL},
    {"eps100_bits8_Uniform", 0xbc772db8e3f8dd46ULL, 0x4f9c114094cfc02fULL},
    {"eps100_bits8_Diagonal", 0x6e46ca74bc75a237ULL, 0x8f85a2f1e5169748ULL},
    {"eps100_bits8_Clustered", 0xc6061cd24218a82cULL, 0x4a4e9fa6f0860897ULL},
    {"eps100_bits8_RowBanded", 0x58c2932d9ea124bdULL, 0xbdcf5311b8290c79ULL},
    {"eps100_bits12_Uniform", 0xbb87ee3388cd9b46ULL, 0x525a2ced332fbca6ULL},
    {"eps100_bits12_Diagonal", 0xb68f1b478625351eULL, 0xc1f4ed084a1b6dafULL},
    {"eps100_bits12_Clustered", 0xcceee5e928b449b7ULL, 0x5766a93c2d1018a4ULL},
    {"eps100_bits12_RowBanded", 0xbadad9e22d02ccc9ULL, 0x77522e5071a3dbd5ULL},
    // ResourceBudget.MdTreeHonorsBudget: 10 bits, eps 0.02, 64 nodes.
    {"NodeBudget", 0xd9e116a830cb2620ULL, 0x3d51d6da38494342ULL},
    // 32 bits, eps 0.01, 150 nodes by bytes, weighted clustered stream.
    {"ByteBudget", 0x028d4fff4ab05808ULL, 0xe554bfb173389159ULL},
};

const PinnedDigest &pinnedDigest(const std::string &Case) {
  for (const PinnedDigest &D : QuadtreeDigests)
    if (Case == D.Case)
      return D;
  ADD_FAILURE() << "no pinned digest for " << Case;
  return QuadtreeDigests[0];
}

void expectPinned(MdRapTree &Tree, const std::string &Case) {
  const PinnedDigest &Pinned = pinnedDigest(Case);
  EXPECT_EQ(profileDigest(Tree), Pinned.AfterStream) << Case;
  Tree.mergeNow();
  EXPECT_EQ(profileDigest(Tree), Pinned.AfterMerge) << Case;
}

/// The structural audit (subtree-sum column, conservation, geometry).
void expectSound(const MdRapTree &Tree) {
  EXPECT_EQ(TreeInvariants::render(TreeInvariants::audit(Tree.tree())), "");
}

class MdRapProperty : public testing::TestWithParam<MdSweepParam> {
protected:
  static constexpr uint64_t NumEvents = 40000;

  MdRapConfig makeConfig() const {
    MdRapConfig Config;
    Config.RangeBits = GetParam().RangeBits;
    Config.Epsilon = GetParam().Epsilon;
    Config.InitialMergeInterval = 512;
    return Config;
  }

  void runStream(MdRapTree &Tree,
                 std::map<std::pair<uint64_t, uint64_t>, uint64_t> &Exact,
                 ReferenceRapTree *Twin = nullptr) {
    MdStreamGen Gen(GetParam().Kind, GetParam().RangeBits, 0xD1CE);
    for (uint64_t I = 0; I != NumEvents; ++I) {
      auto [X, Y] = Gen.next();
      Tree.addPoint(X, Y);
      if (Twin)
        Twin->addPoint(MdRapTree::key(X, Y));
      ++Exact[{X, Y}];
    }
  }

  std::string caseName() const {
    return paramName(testing::TestParamInfo<MdSweepParam>(GetParam(), 0));
  }

  static uint64_t
  exactBox(const std::map<std::pair<uint64_t, uint64_t>, uint64_t> &Exact,
           uint64_t XLo, uint64_t XHi, uint64_t YLo, uint64_t YHi) {
    uint64_t Total = 0;
    for (const auto &[Key, Count] : Exact)
      if (Key.first >= XLo && Key.first <= XHi && Key.second >= YLo &&
          Key.second <= YHi)
        Total += Count;
    return Total;
  }
};

} // namespace

TEST_P(MdRapProperty, Conservation) {
  MdRapTree Tree(makeConfig());
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> Exact;
  runStream(Tree, Exact);
  EXPECT_EQ(Tree.tree().root().subtreeWeight(), NumEvents);
  Tree.mergeNow();
  EXPECT_EQ(Tree.tree().root().subtreeWeight(), NumEvents);
  expectSound(Tree);
}

TEST_P(MdRapProperty, NodeAlignedBoxesWithinEpsilon) {
  MdRapTree Tree(makeConfig());
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> Exact;
  runStream(Tree, Exact);
  const double Bound = GetParam().Epsilon * NumEvents + 1e-9;
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t>>
      Boxes;
  collectBoxes(Tree.tree().root(), Boxes);
  for (const auto &[XLo, XHi, YLo, YHi, Estimate] : Boxes) {
    uint64_t Actual = exactBox(Exact, XLo, XHi, YLo, YHi);
    ASSERT_LE(Estimate, Actual);
    ASSERT_LE(static_cast<double>(Actual - Estimate), Bound);
    ASSERT_EQ(Tree.estimateBox(XLo, XHi, YLo, YHi), Estimate);
  }
  expectSound(Tree);
}

TEST_P(MdRapProperty, UnalignedBoxesAreLowerBounds) {
  MdRapTree Tree(makeConfig());
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> Exact;
  runStream(Tree, Exact);
  uint64_t Mask = (uint64_t(1) << GetParam().RangeBits) - 1;
  Rng R(0xB0C5);
  for (int Query = 0; Query != 200; ++Query) {
    uint64_t X0 = R.next() & Mask, X1 = R.next() & Mask;
    uint64_t Y0 = R.next() & Mask, Y1 = R.next() & Mask;
    uint64_t XLo = std::min(X0, X1), XHi = std::max(X0, X1);
    uint64_t YLo = std::min(Y0, Y1), YHi = std::max(Y0, Y1);
    ASSERT_LE(Tree.estimateBox(XLo, XHi, YLo, YHi),
              exactBox(Exact, XLo, XHi, YLo, YHi))
        << "x [" << XLo << ", " << XHi << "] y [" << YLo << ", " << YHi
        << "]";
  }
  expectSound(Tree);
}

TEST_P(MdRapProperty, MatchesReferenceTreeOnMortonKeys) {
  MdRapTree Tree(makeConfig());
  ReferenceRapTree Twin(Tree.tree().config());
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> Exact;
  runStream(Tree, Exact, &Twin);
  for (int Pass = 0; Pass != 2; ++Pass) {
    std::vector<ReferenceRapTree::NodeTriple> Nodes;
    collectTriples(Tree.tree().root(), Nodes);
    ASSERT_EQ(Nodes, Twin.collectNodes()) << "pass " << Pass;
    EXPECT_EQ(Tree.numSplits(), Twin.numSplits());
    EXPECT_EQ(Tree.maxNumNodes(), Twin.maxNumNodes());
    EXPECT_EQ(Tree.numMergePasses(), Twin.numMergePasses());
    Tree.mergeNow();
    Twin.mergeNow();
  }
  expectSound(Tree);
}

TEST_P(MdRapProperty, MatchesPinnedQuadtreeDigest) {
  MdRapTree Tree(makeConfig());
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> Exact;
  runStream(Tree, Exact);
  expectPinned(Tree, caseName());
  expectSound(Tree);
}

TEST_P(MdRapProperty, HotBoxesAreTrulyHot) {
  MdRapTree Tree(makeConfig());
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> Exact;
  runStream(Tree, Exact);
  const double Phi = 0.10;
  for (const HotBox &H : Tree.extractHotBoxes(Phi)) {
    uint64_t Actual = exactBox(Exact, H.XLo, H.XHi, H.YLo, H.YHi);
    EXPECT_GE(static_cast<double>(Actual), Phi * NumEvents);
  }
  expectSound(Tree);
}

TEST_P(MdRapProperty, MemoryBoundedByMerges) {
  MdRapConfig Config = makeConfig();
  MdRapTree Tree(Config);
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> Exact;
  runStream(Tree, Exact);
  Tree.mergeNow();
  // 2-D analog of the 1-D heavy-node bound: D^2/eps + 4D/eps with
  // D = RangeBits levels.
  double D = Config.maxDepth();
  EXPECT_LE(static_cast<double>(Tree.numNodes()),
            D * D / Config.Epsilon + 4 * D / Config.Epsilon);
  expectSound(Tree);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MdRapProperty,
    testing::ValuesIn([] {
      std::vector<MdSweepParam> Params;
      for (double Epsilon : {0.02, 0.1})
        for (unsigned RangeBits : {8u, 12u})
          for (TupleKind Kind :
               {TupleKind::Uniform, TupleKind::Diagonal,
                TupleKind::Clustered, TupleKind::RowBanded})
            Params.push_back({Epsilon, RangeBits, Kind});
      return Params;
    }()),
    paramName);

TEST(MdRapPinned, NodeBudget) {
  // The ResourceBudget.MdTreeHonorsBudget configuration and stream.
  MdRapConfig Config;
  Config.RangeBits = 10;
  Config.Epsilon = 0.02;
  Config.MaxNodes = 64;
  MdRapTree Tree(Config);
  Rng R(7);
  for (int I = 0; I != 20000; ++I)
    Tree.addPoint(R.nextBelow(1u << 10), R.nextBelow(1u << 10));
  expectPinned(Tree, "NodeBudget");
  expectSound(Tree);
}

TEST(MdRapPinned, ByteBudget) {
  // Full 32-bit coordinates (64-bit keys), a byte budget worth 150
  // nodes at 24 B each, and weighted tuples around one hot cluster.
  MdRapConfig Config;
  Config.RangeBits = 32;
  Config.Epsilon = 0.01;
  Config.MaxMemoryBytes = 24 * 150 + 10;
  MdRapTree Tree(Config);
  EXPECT_EQ(Tree.tree().nodeBudget(), 150u);
  Rng R(11);
  for (int I = 0; I != 30000; ++I) {
    uint64_t X, Y;
    if (R.nextBernoulli(0.5)) {
      X = 0x12345678 + R.nextBelow(64);
      Y = 0xfedcba98 + R.nextBelow(64);
    } else {
      X = R.next() & 0xffffffffULL;
      Y = R.next() & 0xffffffffULL;
    }
    Tree.addPoint(X, Y, 1 + R.nextBelow(8));
  }
  expectPinned(Tree, "ByteBudget");
  expectSound(Tree);
}
