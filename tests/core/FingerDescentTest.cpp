//===- tests/core/FingerDescentTest.cpp - Update resumes at the finger ----===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RapTree::addPoint resumes its descent at the deepest node of the
/// previous update's root path that still covers the new key (the
/// finger). The finger is pure acceleration state, so every stream must
/// build exactly the tree a root descent builds. Each test feeds the
/// arena tree and the pointer-based verify/ReferenceRapTree (which
/// always descends from the root) the same stream and compares the
/// preorder (lo, widthBits, count) triples, the split and merge
/// statistics and every TreePressure counter, with a TreeInvariants
/// audit after each step. Every update is also checked against a
/// landing oracle: the node findSmallestCover reported before the
/// update (a const root descent) must be the one whose counter took the
/// weight.
///
/// The streams are the ones the finger is for (sorted stage-0 windows,
/// runs of repeated keys, gcc Morton edge keys) and the events that
/// move the tree under it: a split and a revive of the landing node, a
/// scheduled merge, the forced pass inside trySplit under a node
/// budget, admission denials, zero-weight events, absorb and restore.
/// Geometry corners: the one- and two-value universes, 64-bit keys,
/// and b = 8 over 32 bits, whose last level is narrower than the
/// others.
///
//===----------------------------------------------------------------------===//

#include "core/MultiDimRap.h"
#include "core/RapTree.h"
#include "core/StageZeroBuffer.h"
#include "support/Rng.h"
#include "trace/BenchmarkSpec.h"
#include "trace/ProgramModel.h"
#include "verify/ReferenceRapTree.h"
#include "verify/TreeInvariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

using namespace rap;

namespace {

using NodeTriple = ReferenceRapTree::NodeTriple;

void collectPreorder(const RapNode &Node, std::vector<NodeTriple> &Out) {
  Out.emplace_back(Node.lo(), static_cast<uint8_t>(Node.widthBits()),
                   Node.count());
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      collectPreorder(*Child, Out);
}

std::vector<NodeTriple> preorder(const RapTree &Tree) {
  std::vector<NodeTriple> Out;
  collectPreorder(Tree.root(), Out);
  return Out;
}

void expectSamePressure(const TreePressure &A, const TreePressure &B,
                        const std::string &Context) {
  EXPECT_EQ(A.NodeBudget, B.NodeBudget) << Context;
  EXPECT_EQ(A.BudgetHits, B.BudgetHits) << Context;
  EXPECT_EQ(A.RefusedSplits, B.RefusedSplits) << Context;
  EXPECT_EQ(A.ForcedMergePasses, B.ForcedMergePasses) << Context;
  EXPECT_EQ(A.ReclaimedNodes, B.ReclaimedNodes) << Context;
  EXPECT_EQ(A.CoarsenLevel, B.CoarsenLevel) << Context;
  EXPECT_EQ(A.DegradedWeight, B.DegradedWeight) << Context;
  EXPECT_EQ(A.AllocFailures, B.AllocFailures) << Context;
  EXPECT_EQ(A.AdmissionDeniedSplits, B.AdmissionDeniedSplits) << Context;
  EXPECT_EQ(A.AdmissionDeferredWeight, B.AdmissionDeferredWeight) << Context;
}

/// Full comparison against the root-descending twin.
void expectSameTree(const RapTree &Tree, const ReferenceRapTree &Ref,
                    const std::string &Context) {
  ASSERT_EQ(Tree.numEvents(), Ref.numEvents()) << Context;
  ASSERT_EQ(Tree.numNodes(), Ref.numNodes()) << Context;
  ASSERT_EQ(Tree.maxNumNodes(), Ref.maxNumNodes()) << Context;
  ASSERT_EQ(Tree.numSplits(), Ref.numSplits()) << Context;
  ASSERT_EQ(Tree.numMergePasses(), Ref.numMergePasses()) << Context;
  ASSERT_EQ(Tree.numMergedNodes(), Ref.numMergedNodes()) << Context;
  ASSERT_EQ(Tree.nextMergeAt(), Ref.nextMergeAt()) << Context;
  ASSERT_EQ(Tree.mergeEventCounts(), Ref.mergeEventCounts()) << Context;
  expectSamePressure(Tree.pressure(), Ref.pressure(), Context);
  ASSERT_EQ(preorder(Tree), Ref.collectNodes()) << Context;
}

void expectCleanAudit(const RapTree &Tree, const std::string &Context) {
  std::vector<InvariantViolation> Violations = TreeInvariants::audit(Tree);
  ASSERT_TRUE(Violations.empty())
      << Context << "\n"
      << TreeInvariants::render(Violations);
}

/// Feeds \p X to \p Tree after asking a const root descent where it
/// belongs; unless a merge pass moved counters in between, that node's
/// counter must be the one that took the weight.
void addChecked(RapTree &Tree, uint64_t X, uint64_t Weight,
                const std::string &Context) {
  RapNode Cover = Tree.findSmallestCover(X);
  uint64_t Before = Cover.count();
  uint64_t Passes = Tree.numMergePasses();
  uint64_t Forced = Tree.forcedMergePasses();
  Tree.addPoint(X, Weight);
  if (Tree.numMergePasses() == Passes && Tree.forcedMergePasses() == Forced) {
    ASSERT_EQ(Cover.count(), saturatingAdd(Before, Weight))
        << Context << ": key " << X << " landed off its smallest cover";
  }
}

/// An arena tree and its root-descending twin, fed in lockstep.
struct Twin {
  explicit Twin(const RapConfig &Config) : Tree(Config), Ref(Config) {}

  void add(uint64_t X, uint64_t Weight = 1) {
    addChecked(Tree, X, Weight, "twin");
    Ref.addPoint(X, Weight);
  }

  /// Compares and audits: the per-step check.
  void check(const std::string &Context) {
    expectSameTree(Tree, Ref, Context);
    expectCleanAudit(Tree, Context);
  }

  RapTree Tree;
  ReferenceRapTree Ref;
};

RapConfig config(unsigned RangeBits, unsigned Branch, double Epsilon) {
  RapConfig C;
  C.RangeBits = RangeBits;
  C.BranchFactor = Branch;
  C.Epsilon = Epsilon;
  return C;
}

/// A skewed stream with locality: keys cluster in a few windows, like
/// the value and address streams stage 0 sees.
std::vector<uint64_t> clusteredStream(uint64_t Seed, size_t N,
                                      unsigned RangeBits) {
  Rng R(Seed);
  std::vector<uint64_t> Centers;
  for (int I = 0; I != 6; ++I)
    Centers.push_back(R.next() & lowBitMask(RangeBits));
  std::vector<uint64_t> Out;
  for (size_t I = 0; I != N; ++I) {
    uint64_t Spread = lowBitMask(std::min(RangeBits, 3u + unsigned(I % 9)));
    Out.push_back((Centers[R.nextBelow(Centers.size())] ^
                   (R.next() & Spread)) &
                  lowBitMask(RangeBits));
  }
  return Out;
}

TEST(FingerDescent, SortedStageZeroWindowsMatchReference) {
  for (unsigned Branch : {2u, 4u, 16u}) {
    std::string Context = "b=" + std::to_string(Branch);
    Twin T(config(32, Branch, 0.01));
    StageZeroBuffer Buffer(256);
    size_t Drains = 0;
    auto Drain = [&] {
      const auto &Pairs = Buffer.drain();
      ASSERT_TRUE(std::is_sorted(Pairs.begin(), Pairs.end()));
      for (const auto &[X, W] : Pairs)
        T.add(X, W);
      T.check(Context + " drain " + std::to_string(++Drains));
    };
    for (uint64_t X : clusteredStream(Branch, 40000, 32))
      if (Buffer.push(X))
        Drain();
    Drain();
    EXPECT_GT(T.Tree.numMergePasses(), 3u) << Context;
  }
}

TEST(FingerDescent, RepeatedKeyRunsMatchReference) {
  Twin T(config(24, 2, 0.02));
  Rng R(11);
  std::vector<uint64_t> Keys = clusteredStream(12, 3000, 24);
  for (size_t I = 0; I != Keys.size(); ++I) {
    uint64_t Run = 1 + R.nextBelow(12);
    for (uint64_t J = 0; J != Run; ++J)
      T.add(Keys[I], 1 + (J & 1));
    if (I % 50 == 0)
      T.check("run " + std::to_string(I));
  }
  T.check("end");
}

TEST(FingerDescent, GccMortonEdgeKeysMatchReference) {
  MdRapConfig C;
  C.RangeBits = ProgramModel::PcRangeBits;
  C.Epsilon = 0.01;
  MdRapTree Edges(C);
  ReferenceRapTree Ref(Edges.tree().config());
  ProgramModel Model(getBenchmarkSpec("gcc"));
  uint64_t Prev = Model.next().BlockPc;
  for (int I = 1; I != 60000; ++I) {
    uint64_t Pc = Model.next().BlockPc;
    Edges.addPoint(Prev, Pc);
    Ref.addPoint(MdRapTree::key(Prev, Pc));
    Prev = Pc;
    if (I % 5000 == 0) {
      expectSameTree(Edges.tree(), Ref, "edge " + std::to_string(I));
      expectCleanAudit(Edges.tree(), "edge " + std::to_string(I));
    }
  }
  EXPECT_GT(Edges.numMergePasses(), 3u);
  expectSameTree(Edges.tree(), Ref, "end");
}

/// The deepest-first live node with a dead child slot, or nullopt.
std::optional<RapNode> nodeWithDeadSlot(const RapNode &Node, unsigned &Slot) {
  for (unsigned S = 0; S != Node.numChildSlots(); ++S)
    if (std::optional<RapNode> Child = Node.child(S))
      if (std::optional<RapNode> Found = nodeWithDeadSlot(*Child, Slot))
        return Found;
  for (unsigned S = 0; S != Node.numChildSlots(); ++S)
    if (!Node.child(S)) {
      Slot = S;
      return Node;
    }
  return std::nullopt;
}

TEST(FingerDescent, LandingNodeSplitsAndRevivesMidRun) {
  RapConfig C = config(16, 4, 0.05);
  C.EnableMerges = false; // Merges only where the test asks for one.
  Twin T(C);
  // A repeated key: every split along the way is a split of the node
  // the previous update landed on, and the next update must resume
  // there and step into the fresh child.
  for (int I = 0; I != 400; ++I) {
    T.add(0x1234);
    T.check("repeat " + std::to_string(I));
  }
  EXPECT_GE(T.Tree.numSplits(), 4u);
  for (uint64_t X : clusteredStream(5, 3000, 16))
    T.add(X);
  T.Tree.mergeNow();
  T.Ref.mergeNow();
  T.check("after merge");
  unsigned Slot = 0;
  std::optional<RapNode> Parent = nodeWithDeadSlot(T.Tree.root(), Slot);
  ASSERT_TRUE(Parent.has_value());
  // At least MinResumeDepth (4) levels down, so updates resume there.
  ASSERT_LE(Parent->widthBits(), 8u);
  unsigned ChildBits = Parent->widthBits() > 2 ? Parent->widthBits() - 2 : 0;
  uint64_t Key = Parent->lo() + (uint64_t(Slot) << ChildBits);
  // Land on the parent until its counter re-splits it: the revive
  // turns the dead slot live under the recorded path.
  bool Revived = false;
  for (int I = 0; I != 2000 && !Revived; ++I) {
    T.add(Key);
    T.check("revive " + std::to_string(I));
    Revived = Parent->child(Slot).has_value();
  }
  ASSERT_TRUE(Revived);
  for (int I = 0; I != 50; ++I) {
    T.add(Key);
    T.add(Key ^ 1);
  }
  T.check("after revive");
}

TEST(FingerDescent, ScheduledMergesMatchReference) {
  RapConfig C = config(20, 2, 0.05);
  C.InitialMergeInterval = 64;
  Twin T(C);
  uint64_t Passes = 0;
  for (uint64_t X : clusteredStream(7, 20000, 20)) {
    T.add(X);
    if (T.Tree.numMergePasses() != Passes) {
      Passes = T.Tree.numMergePasses();
      T.check("merge " + std::to_string(Passes));
    }
  }
  EXPECT_GE(Passes, 6u);
  T.check("end");
}

TEST(FingerDescent, ForcedPassInsideTrySplitMatchesReference) {
  struct Case {
    unsigned Bits, Branch;
    uint64_t MaxNodes;
    size_t Window; ///< Keys are sorted in windows of this many.
  };
  // The tightest budget folds and frees path nodes inside trySplit and
  // hands their blocks to other parents, so a path kept across the
  // forced pass resumes on a dead or foreign node.
  for (Case K : {Case{16, 2, 12, 64}, Case{20, 4, 20, 4000},
                 Case{20, 4, 48, 1024}, Case{32, 2, 200, 1024}}) {
    RapConfig C = config(K.Bits, K.Branch, 0.005);
    C.MaxNodes = K.MaxNodes;
    Twin T(C);
    std::string Context = "MaxNodes=" + std::to_string(K.MaxNodes);
    uint64_t Forced = 0;
    std::vector<uint64_t> Keys = clusteredStream(K.MaxNodes, 12000, K.Bits);
    for (size_t I = 0; I < Keys.size(); I += K.Window)
      std::sort(Keys.begin() + I,
                Keys.begin() + std::min(Keys.size(), I + K.Window));
    for (uint64_t X : Keys) {
      T.add(X);
      if (T.Tree.forcedMergePasses() != Forced) {
        Forced = T.Tree.forcedMergePasses();
        T.check(Context + " forced " + std::to_string(Forced));
      }
    }
    EXPECT_GT(T.Tree.pressure().BudgetHits, 0u) << Context;
    EXPECT_GT(Forced, 0u) << Context;
    T.check(Context + " end");
  }
}

TEST(FingerDescent, AdmissionDenialsMatchReference) {
  RapConfig C = config(24, 2, 0.01);
  C.EnableAdmission = true;
  C.AdmissionCoarseness = 2.0;
  C.AdmissionSeed = 99;
  Twin T(C);
  std::vector<uint64_t> Keys = clusteredStream(3, 30000, 24);
  for (size_t I = 0; I != Keys.size(); ++I) {
    T.add(Keys[I]);
    if (I % 1000 == 0)
      T.check("event " + std::to_string(I));
  }
  EXPECT_GT(T.Tree.numAdmissionDeniedSplits(), 0u);
  EXPECT_NE(T.Tree.admissionRngState(), C.AdmissionSeed);
  T.check("end");
}

TEST(FingerDescent, ZeroWeightEventsLeaveThePathUntouched) {
  Twin T(config(32, 4, 0.02));
  std::vector<uint64_t> Keys = clusteredStream(4, 8000, 32);
  std::sort(Keys.begin(), Keys.end());
  for (size_t I = 0; I != Keys.size(); ++I) {
    T.add(Keys[I]);
    // A far key with no weight between two neighbours: nothing about
    // it may reach the tree, the path or the next resume.
    T.add(~Keys[I] & lowBitMask(32), 0);
    if (I % 400 == 0)
      T.check("event " + std::to_string(I));
  }
  T.check("end");
}

TEST(FingerDescent, ContinuesAfterAbsorb) {
  for (bool Merges : {false, true}) {
    RapConfig C = config(24, 4, 0.02);
    C.EnableMerges = Merges;
    std::string Context = Merges ? "merges" : "no merges";
    RapTree Tree(C), Shard(C);
    std::vector<uint64_t> Keys = clusteredStream(21, 9000, 24);
    std::sort(Keys.begin(), Keys.begin() + 3000);
    for (size_t I = 0; I != 3000; ++I)
      addChecked(Tree, Keys[I], 1, Context);
    for (uint64_t X : clusteredStream(22, 3000, 24))
      Shard.addPoint(X);
    Tree.absorb(Shard);
    expectCleanAudit(Tree, Context + " after absorb");
    // A freshly restored copy of the absorbed tree has no path yet;
    // both must grow identically from here.
    std::unique_ptr<RapTree> Copy = RapTree::fromNodeSet(
        C, preorder(Tree), Tree.numEvents(), nullptr, Tree.nextMergeAt());
    ASSERT_NE(Copy, nullptr);
    for (size_t I = 3000; I != Keys.size(); ++I) {
      addChecked(Tree, Keys[I], 1, Context);
      Copy->addPoint(Keys[I]);
      if (I % 500 == 0) {
        expectCleanAudit(Tree, Context);
        ASSERT_EQ(preorder(Tree), preorder(*Copy)) << Context << " " << I;
      }
    }
    ASSERT_EQ(preorder(Tree), preorder(*Copy)) << Context;
    EXPECT_EQ(Tree.nextMergeAt(), Copy->nextMergeAt()) << Context;
  }
}

TEST(FingerDescent, ContinuesAfterFromNodeSet) {
  RapConfig C = config(32, 2, 0.01);
  Twin T(C);
  std::vector<uint64_t> Keys = clusteredStream(31, 20000, 32);
  std::sort(Keys.begin(), Keys.begin() + 10000);
  for (size_t I = 0; I != 10000; ++I)
    T.add(Keys[I]);
  std::unique_ptr<RapTree> Restored =
      RapTree::fromNodeSet(C, preorder(T.Tree), T.Tree.numEvents(), nullptr,
                           T.Tree.nextMergeAt());
  ASSERT_NE(Restored, nullptr);
  for (size_t I = 10000; I != Keys.size(); ++I) {
    T.add(Keys[I]);
    addChecked(*Restored, Keys[I], 1, "restored");
    if (I % 1000 == 0) {
      expectCleanAudit(*Restored, "restored " + std::to_string(I));
      ASSERT_EQ(preorder(*Restored), T.Ref.collectNodes()) << I;
    }
  }
  T.check("end");
  ASSERT_EQ(preorder(*Restored), T.Ref.collectNodes());
  EXPECT_EQ(Restored->nextMergeAt(), T.Ref.nextMergeAt());
}

TEST(FingerDescent, TinyUniverses) {
  for (unsigned Bits : {0u, 1u}) {
    RapConfig C = config(Bits, 2, 0.1);
    C.InitialMergeInterval = 4;
    Twin T(C);
    Rng R(Bits);
    for (int I = 0; I != 500; ++I) {
      T.add(R.next() & lowBitMask(Bits), 1 + R.nextBelow(3));
      T.check("R=2^" + std::to_string(Bits) + " event " + std::to_string(I));
    }
  }
}

TEST(FingerDescent, SixtyFourBitKeysMatchReference) {
  for (unsigned Branch : {2u, 16u}) {
    RapConfig C = config(64, Branch, 0.01);
    Twin T(C);
    std::vector<uint64_t> Keys = clusteredStream(64 + Branch, 20000, 64);
    // Extremes of the universe: both ends of every path.
    Keys.insert(Keys.begin() + 5000, 2000, ~uint64_t(0));
    Keys.insert(Keys.begin() + 9000, 2000, 0);
    std::sort(Keys.begin() + 12000, Keys.end());
    for (size_t I = 0; I != Keys.size(); ++I) {
      T.add(Keys[I]);
      if (I % 1000 == 0)
        T.check("b=" + std::to_string(Branch) + " " + std::to_string(I));
    }
    EXPECT_GT(T.Tree.numSplits(), 100u);
    T.check("end");
  }
}

TEST(FingerDescent, NarrowLastLevelMatchesReference) {
  // b = 8 over 32 bits: widths 32, 29, ..., 5, 2, then unit ranges, so
  // the last level splits 2 bits four ways instead of 3 bits eight ways.
  RapConfig C = config(32, 8, 0.005);
  Twin T(C);
  Rng R(8);
  std::vector<uint64_t> Keys;
  for (int I = 0; I != 15000; ++I) {
    uint64_t Base = (R.nextBelow(4) << 20) | 0x5a5a0;
    Keys.push_back(Base | R.nextBelow(8));
  }
  std::sort(Keys.begin() + 5000, Keys.begin() + 10000);
  for (size_t I = 0; I != Keys.size(); ++I) {
    T.add(Keys[I]);
    if (I % 500 == 0)
      T.check("event " + std::to_string(I));
  }
  // The unit ranges under the narrow level were reached and revisited.
  EXPECT_EQ(T.Tree.findSmallestCover(0x5a5a3).widthBits(), 0u);
  T.check("end");
}

TEST(FingerDescent, OutOfUniverseKeysStayInBounds) {
#ifndef NDEBUG
  GTEST_SKIP() << "addPoint asserts on out-of-universe keys in this build";
#else
  // Release builds let keys at or above 2^RangeBits through (their
  // placement is a separate policy question); the finger must stay in
  // bounds for them and leave a tree that passes its audit.
  for (unsigned Branch : {2u, 8u}) {
    RapTree Tree(config(20, Branch, 0.02));
    std::vector<uint64_t> Keys = clusteredStream(Branch, 6000, 20);
    std::sort(Keys.begin(), Keys.end());
    Rng R(Branch);
    for (size_t I = 0; I != Keys.size(); ++I) {
      Tree.addPoint(Keys[I]);
      Tree.addPoint(Keys[I] | (R.next() << 20) | (uint64_t(1) << 63));
      Tree.addPoint(Keys[I]);
    }
    EXPECT_EQ(Tree.numEvents(), 3 * Keys.size());
    expectCleanAudit(Tree, "b=" + std::to_string(Branch));
  }
  MdRapConfig C;
  C.RangeBits = 12;
  C.Epsilon = 0.02;
  MdRapTree Md(C);
  Rng R(12);
  for (int I = 0; I != 6000; ++I) {
    uint64_t X = R.nextBelow(64), Y = R.nextBelow(64);
    Md.addPoint(X, Y);
    Md.addPoint(X | (uint64_t(1) << (12 + I % 20)), Y);
    Md.addPoint(X, Y + (uint64_t(1) << 31));
  }
  EXPECT_EQ(Md.numEvents(), 18000u);
  expectCleanAudit(Md.tree(), "2-D");

  // A key past the universe lands where its low bits do, and both the
  // reported cover and the fence mark stay inside the universe: with
  // the lower half fed in-universe keys and the upper half only keys
  // carrying high bits, the fenced tree answers every probe exactly as
  // its fence-off twin, which walks the tree for each one. No merge
  // pass rebuilds the fence from the tree, so every mark is the one
  // the update made.
  constexpr unsigned Bits = 20;
  const uint64_t Universe = lowBitMask(Bits);
  RapConfig FenceOn = config(Bits, 4, 0.02);
  FenceOn.EnableMerges = false;
  RapConfig FenceOff = FenceOn;
  FenceOff.EnableRangeFence = false;
  RapTree Fenced(FenceOn), Open(FenceOff);
  Rng S(20);
  std::vector<uint64_t> Fed;
  for (int I = 0; I != 20000; ++I) {
    uint64_t Low = S.nextBelow(3) == 0 ? S.nextBelow(1 << (Bits - 1))
                                       : S.nextBelow(32) << 9;
    uint64_t X = I % 2 == 0 ? Low
                            : Low | (uint64_t(1) << (Bits - 1)) |
                                  (S.next() << Bits) | (uint64_t(1) << 63);
    Fenced.addPoint(X);
    Open.addPoint(X);
    Fed.push_back(X);
    RapNode Cover = Fenced.findSmallestCover(X);
    ASSERT_LE(Cover.lo(), Cover.hi()) << std::hex << X;
    ASSERT_LE(Cover.hi(), Universe) << std::hex << X;
    ASSERT_TRUE(Cover.contains(X & Universe)) << std::hex << X;
  }
  ASSERT_EQ(preorder(Fenced), preorder(Open));
  expectCleanAudit(Fenced, "fenced");
  for (int Q = 0; Q != 20000; ++Q) {
    uint64_t Lo = Q % 2 == 0 ? Fed[S.nextBelow(Fed.size())] & Universe
                             : S.next() & Universe;
    unsigned Width = static_cast<unsigned>(S.nextBelow(Bits + 1));
    uint64_t Hi = std::min(Universe, Lo + lowBitMask(Width));
    ASSERT_EQ(Fenced.estimateRange(Lo, Hi), Open.estimateRange(Lo, Hi))
        << std::hex << "[" << Lo << ", " << Hi << "]";
  }
#endif
}

} // namespace
