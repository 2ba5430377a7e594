//===- verify/ReferenceRapTree.cpp - Legacy pointer-based tree ------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
// This file intentionally mirrors the pre-arena core/RapTree.cpp update
// path line for line (same operations in the same order, including the
// saturation and floating-point comparisons): any behavioral edit here
// changes the specification the oracle checks the arena tree against,
// so do not "improve" it. The budget and admission routines (admitSplit,
// trySplit, splitAllocCount, forcedMergePass) came after the arena and
// mirror core/RapTree.cpp's the same way, as does addPoint's clamp of
// the stream total at 2^64-1 (the excess is charged as degraded).
//
//===----------------------------------------------------------------------===//

#include "verify/ReferenceRapTree.h"

#include "support/BitUtils.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace rap;

struct ReferenceRapTree::Node {
  Node(uint64_t Low, unsigned Width)
      : Lo(Low), WidthBits(static_cast<uint8_t>(Width)) {}

  bool isUnitRange() const { return WidthBits == 0; }
  bool hasChildren() const { return !Children.empty(); }

  uint64_t subtreeNodeCount() const {
    uint64_t Total = 1;
    for (const auto &Child : Children)
      if (Child)
        Total += Child->subtreeNodeCount();
    return Total;
  }

  uint64_t Lo;
  uint64_t Count = 0;
  uint8_t WidthBits;
  std::vector<std::unique_ptr<Node>> Children;
};

ReferenceRapTree::ReferenceRapTree(const RapConfig &TreeConfig)
    : Config(TreeConfig) {
  assert(Config.validate(nullptr) && "invalid config for reference tree");
  Root = std::make_unique<Node>(0, Config.RangeBits);
  NextMergeAt = Config.InitialMergeInterval;
  AdmissionRngState = Config.AdmissionSeed;
  Pressure.NodeBudget = Config.effectiveNodeBudget();
}

ReferenceRapTree::~ReferenceRapTree() = default;

ReferenceRapTree::Node *ReferenceRapTree::descend(uint64_t X) {
  Node *N = Root.get();
  unsigned BitsPerLevel = Config.bitsPerLevel();
  while (N->hasChildren()) {
    unsigned ChildBits =
        N->WidthBits > BitsPerLevel ? N->WidthBits - BitsPerLevel : 0;
    uint64_t Offset = X - N->Lo;
    unsigned Slot = static_cast<unsigned>(Offset >> ChildBits);
    assert(Slot < N->Children.size() && "child slot out of range");
    Node *Child = N->Children[Slot].get();
    if (!Child)
      break; // Sub-range was merged back into this node (Sec 3.3).
    N = Child;
  }
  return N;
}

void ReferenceRapTree::addPoint(uint64_t X, uint64_t Weight) {
  uint64_t Headroom = ~uint64_t(0) - NumEvents;
  if (Weight > Headroom)
    Pressure.DegradedWeight.add(Weight - Headroom);
  Weight = std::min(Weight, Headroom);
  if (Weight == 0)
    return;
  assert((Config.RangeBits == 64 || X < (uint64_t(1) << Config.RangeBits)) &&
         "event outside the configured universe");
  NumEvents = saturatingAdd(NumEvents, Weight);

  Node *N = descend(X);
  N->Count = saturatingAdd(N->Count, Weight);

  if (!N->isUnitRange() &&
      static_cast<double>(N->Count) > Config.splitThreshold(NumEvents) &&
      (!Config.EnableAdmission || admitSplit(N->Count, Weight)))
    trySplit(N, X, Weight);

  if (Config.EnableMerges && NumEvents >= NextMergeAt) {
    mergeNow();
    scheduleAfterMerge();
  }
}

bool ReferenceRapTree::admitSplit(uint64_t NewCount, uint64_t Weight) {
  uint64_t Z = (AdmissionRngState += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  Z ^= Z >> 31;
  double Draw = static_cast<double>(Z >> 11) * 0x1.0p-53;
  double Threshold = Config.splitThreshold(NumEvents);
  double Over = static_cast<double>(NewCount) - Threshold;
  if (Draw < Over / (Config.AdmissionCoarseness * Threshold + 1.0))
    return true;
  ++Pressure.AdmissionDeniedSplits;
  Pressure.AdmissionDeferredWeight.add(Weight);
  return false;
}

uint64_t ReferenceRapTree::splitAllocCount(const Node &N) const {
  unsigned BitsPerLevel = Config.bitsPerLevel();
  unsigned ChildBits =
      N.WidthBits > BitsPerLevel ? N.WidthBits - BitsPerLevel : 0;
  if (N.Children.empty())
    return uint64_t(1) << (N.WidthBits - ChildBits);
  uint64_t Missing = 0;
  for (const auto &Child : N.Children)
    if (!Child)
      ++Missing;
  return Missing;
}

static constexpr uint64_t MaxCoarsenLevel = 60;

uint64_t ReferenceRapTree::forcedMergePass() {
  double Scale = std::ldexp(
      1.0, static_cast<int>(std::min(Pressure.CoarsenLevel, MaxCoarsenLevel)));
  double Threshold = std::max(1.0, Config.mergeThreshold(NumEvents) * Scale);
  uint64_t Removed = 0;
  uint64_t Folded = 0;
  mergeWalk(*Root, Threshold, Removed, &Folded);
  ++Pressure.ForcedMergePasses;
  Pressure.ReclaimedNodes += Removed;
  Pressure.DegradedWeight.add(Folded);
  return Removed;
}

void ReferenceRapTree::trySplit(Node *N, uint64_t X, uint64_t Weight) {
  uint64_t Budget = Pressure.NodeBudget;
  if (Budget == 0) {
    splitNode(*N);
    return;
  }
  bool Charged = false;
  if (Pressure.ForcedMergePasses != 0 && N->Count > Weight &&
      static_cast<double>(N->Count - Weight) >
          Config.splitThreshold(NumEvents)) {
    Pressure.DegradedWeight.add(Weight);
    Charged = true;
  }
  if (NumNodes + splitAllocCount(*N) > Budget) {
    ++Pressure.BudgetHits;
    forcedMergePass();
    N = descend(X);
    bool StillWants =
        !N->isUnitRange() &&
        static_cast<double>(N->Count) > Config.splitThreshold(NumEvents);
    if (!StillWants || NumNodes + splitAllocCount(*N) > Budget) {
      ++Pressure.RefusedSplits;
      if (!Charged)
        Pressure.DegradedWeight.add(Weight);
      if (Pressure.CoarsenLevel < MaxCoarsenLevel)
        ++Pressure.CoarsenLevel;
      return;
    }
  }
  splitNode(*N);
}

void ReferenceRapTree::splitNode(Node &N) {
  assert(!N.isUnitRange() && "cannot split a unit range");
  unsigned BitsPerLevel = Config.bitsPerLevel();
  unsigned ChildBits =
      N.WidthBits > BitsPerLevel ? N.WidthBits - BitsPerLevel : 0;
  unsigned NumSlots = 1u << (N.WidthBits - ChildBits);
  if (N.Children.empty())
    N.Children.resize(NumSlots);
  assert(N.Children.size() == NumSlots && "child slot count changed");

  for (unsigned Slot = 0; Slot != NumSlots; ++Slot) {
    if (N.Children[Slot])
      continue;
    uint64_t ChildLo = N.Lo + (static_cast<uint64_t>(Slot) << ChildBits);
    N.Children[Slot] = std::make_unique<Node>(ChildLo, ChildBits);
    ++NumNodes;
  }
  ++NumSplits;
  MaxNumNodes = std::max(MaxNumNodes, NumNodes);
}

uint64_t ReferenceRapTree::mergeWalk(Node &N, double Threshold,
                                     uint64_t &Removed,
                                     uint64_t *FoldedWeight) {
  uint64_t Total = N.Count;
  if (!N.hasChildren())
    return Total;

  bool AnyChildLeft = false;
  for (auto &ChildSlot : N.Children) {
    if (!ChildSlot)
      continue;
    uint64_t ChildWeight =
        mergeWalk(*ChildSlot, Threshold, Removed, FoldedWeight);
    Total = saturatingAdd(Total, ChildWeight);
    if (static_cast<double>(ChildWeight) < Threshold) {
      N.Count = saturatingAdd(N.Count, ChildWeight);
      if (FoldedWeight)
        *FoldedWeight = saturatingAdd(*FoldedWeight, ChildWeight);
      uint64_t Dropped = ChildSlot->subtreeNodeCount();
      Removed += Dropped;
      NumNodes -= Dropped;
      ChildSlot.reset();
    } else {
      AnyChildLeft = true;
    }
  }
  if (!AnyChildLeft)
    N.Children.clear();
  return Total;
}

uint64_t ReferenceRapTree::mergeNow() {
  double Threshold = Config.mergeThreshold(NumEvents);
  uint64_t Removed = 0;
  mergeWalk(*Root, Threshold, Removed);
  ++NumMergePasses;
  NumMergedNodes += Removed;
  MergeEventCounts.push_back(NumEvents);
  return Removed;
}

void ReferenceRapTree::scheduleAfterMerge() {
  double Next = static_cast<double>(NextMergeAt) * Config.MergeRatio;
  uint64_t NextInt =
      Next >= static_cast<double>(std::numeric_limits<int64_t>::max())
          ? ~uint64_t(0)
          : static_cast<uint64_t>(std::llround(Next));
  NextMergeAt = std::max<uint64_t>(saturatingAdd(NumEvents, 1), NextInt);
}

std::vector<ReferenceRapTree::NodeTriple>
ReferenceRapTree::collectNodes() const {
  // Local struct: keeps the recursion able to see the private Node.
  struct Walker {
    static void walk(const Node *N, std::vector<NodeTriple> &Out) {
      Out.emplace_back(N->Lo, N->WidthBits, N->Count);
      for (const auto &Child : N->Children)
        if (Child)
          walk(Child.get(), Out);
    }
  };
  std::vector<NodeTriple> Out;
  Walker::walk(Root.get(), Out);
  return Out;
}
