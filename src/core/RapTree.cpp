//===- core/RapTree.cpp - Range adaptive profiling tree ------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Arena implementation notes. Node state lives in the SoA vectors of
// detail::NodeArena; every routine below works on 32-bit node ids and
// re-subscripts the vectors after any call that can allocate (vector
// growth moves the slabs, so references must never be held across an
// allocChildren). No slab stores a node's range: every routine that
// needs one derives it on the way down — the root is [0, 2^RangeBits),
// a child's width is the shift in its parent's navigation word, and
// its lo is the parent's lo plus its slot shifted by that width (or,
// on a descent towards X, X with the low width bits cleared).
//
//===----------------------------------------------------------------------===//

#include "core/RapTree.h"

#include "support/FailPoint.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>
#include <ostream>
#include <stdexcept>

using namespace rap;
using rap::detail::NodeArena;

// RapConfig::effectiveNodeBudget() hard-codes the per-node byte cost
// to avoid a circular header dependency; keep the two in lockstep.
static_assert(RapTree::BytesPerNode == 16,
              "RapConfig::effectiveNodeBudget assumes 16-byte nodes");

//===----------------------------------------------------------------------===//
// NodeArena
//===----------------------------------------------------------------------===//

void NodeArena::initRoot() {
  assert(Navs.empty() && "root already created");
  Sums.push_back(0);
  Navs.push_back(LeafNav);
}

uint32_t NodeArena::allocBlock(unsigned SlotLog2) {
  if (uint32_t First = FreeHeads[SlotLog2]) {
    FreeHeads[SlotLog2] = static_cast<uint32_t>(Sums[First]);
    return First;
  }
  if (RAP_FAILPOINT_HIT(failpoints::Fp::ArenaAlloc))
    throw std::bad_alloc();
  size_t NumSlots = size_t(1) << SlotLog2;
  size_t Old = Navs.size();
  assert(Old + NumSlots < InvalidIndex && "arena exceeds 32-bit node ids");
  // Grow both slabs under a rollback guard (shrinking never throws),
  // so the arena never exposes a half-grown slot range.
  try {
    Sums.resize(Old + NumSlots);
    Navs.resize(Old + NumSlots);
  } catch (...) {
    Sums.resize(Old);
    Navs.resize(Old);
    throw;
  }
  return static_cast<uint32_t>(Old);
}

uint32_t NodeArena::allocChildren(uint32_t Parent, unsigned ChildBits,
                                  unsigned SlotLog2, bool Dead) {
  uint32_t First = allocBlock(SlotLog2);
  // Subscript only after the allocation above: the slabs may have moved.
  uint64_t InitNav = Dead ? DeadLeafNav : LeafNav;
  size_t NumSlots = size_t(1) << SlotLog2;
  for (size_t Child = First; Child != First + NumSlots; ++Child) {
    Sums[Child] = 0;
    Navs[Child] = InitNav;
  }
  Navs[Parent] = makeNav(First, ChildBits, SlotLog2);
  return First;
}

void NodeArena::freeBlock(uint32_t FirstChild, unsigned SlotLog2) noexcept {
  Sums[FirstChild] = FreeHeads[SlotLog2];
  FreeHeads[SlotLog2] = FirstChild;
}

void NodeArena::freeDescendants(uint32_t Node) noexcept {
  uint64_t Nav = Navs[Node];
  if (navIsLeaf(Nav))
    return;
  uint32_t First = navFirstChild(Nav);
  unsigned SlotLog2 = navSlotLog2(Nav);
  size_t NumSlots = size_t(1) << SlotLog2;
  for (size_t Slot = 0; Slot != NumSlots; ++Slot) {
    uint32_t Child = First + static_cast<uint32_t>(Slot);
    if (!navIsDead(Navs[Child]))
      freeDescendants(Child);
  }
  freeBlock(First, SlotLog2);
  Navs[Node] = LeafNav;
}

void NodeArena::killSubtree(uint32_t Node) noexcept {
  freeDescendants(Node);
  Navs[Node] = DeadLeafNav;
  Sums[Node] = 0;
}

uint64_t NodeArena::subtreeNodeCount(uint32_t Node) const {
  uint64_t Total = 1;
  forEachLiveChild(Node, 0, [&](uint32_t Child, uint64_t, unsigned) {
    Total += subtreeNodeCount(Child);
  });
  return Total;
}

uint64_t NodeArena::slabBytes() const {
  auto Bytes = [](const auto &...Slab) {
    return ((static_cast<uint64_t>(Slab.capacity()) * sizeof(Slab[0])) +
            ...);
  };
  return Bytes(Sums, Navs);
}

//===----------------------------------------------------------------------===//
// RapTree
//===----------------------------------------------------------------------===//

RapTree::RapTree(const RapConfig &TreeConfig) : Config(TreeConfig) {
  // Throwing (rather than asserting) keeps an invalid config from
  // silently producing a broken tree in release builds; the C API
  // converts this into a null handle + rap_last_error().
  std::string Error;
  if (!Config.validate(&Error))
    throw std::invalid_argument("RapTree: invalid config: " + Error);
  Arena.initRoot();
  NextMergeAt = Config.InitialMergeInterval;
  AdmissionRngState = Config.AdmissionSeed;
  Pressure.NodeBudget = Config.effectiveNodeBudget();
  if (Config.EnableRangeFence)
    Fence.init(Config.RangeBits);
  // Two keys whose XOR is K bits wide agree above bit K - 1, so they
  // share every node at least K bits wide: the depths d with
  // d * bitsPerLevel <= RangeBits - K. Equal keys share the whole
  // path; keys differing above the universe (which NDEBUG builds let
  // through) resume at the root, and so do keys sharing fewer than
  // MinResumeDepth levels.
  unsigned BitsPerLevel = Config.bitsPerLevel();
  for (unsigned K = 0; K != MaxPathLen; ++K) {
    unsigned Shared = K == 0 ? MaxPathLen
                      : K <= Config.RangeBits
                          ? (Config.RangeBits - K) / BitsPerLevel
                          : 0;
    FingerDepth[K] =
        static_cast<uint8_t>(Shared >= MinResumeDepth ? Shared : 0);
  }
}

void RapTree::rebuildFenceWalk(uint32_t Node, uint64_t Lo, unsigned Width) {
  uint64_t Children = 0;
  Arena.forEachLiveChild(
      Node, Lo, [&](uint32_t Child, uint64_t ChildLo, unsigned ChildWidth) {
        Children += Arena.Sums[Child];
        rebuildFenceWalk(Child, ChildLo, ChildWidth);
      });
  if (Node != 0 && Arena.Sums[Node] > Children)
    Fence.markNode(Lo, Width);
}

void RapTree::rebuildFence() {
  // Re-derives the bitmap from the live counters after any operation
  // that moves them wholesale (merge folds, absorb, fromNodeSet); also
  // a precision reset: buckets whose weight folded into the root read
  // cold again. One O(numNodes) walk, on paths that already walk it.
  if (!Fence.enabled())
    return;
  Fence.clear();
  rebuildFenceWalk(0, 0, Config.RangeBits);
}

std::unique_ptr<RapTree> RapTree::fromNodeSet(
    const RapConfig &Config,
    const std::vector<std::tuple<uint64_t, uint8_t, uint64_t>> &Nodes,
    uint64_t NumEvents, std::string *Error, uint64_t NextMergeAt) {
  auto Fail = [Error](const char *Message) -> std::unique_ptr<RapTree> {
    if (Error)
      *Error = Message;
    return nullptr;
  };
  if (!Config.validate(Error))
    return nullptr;
  if (Nodes.empty())
    return Fail("node set is empty (the root is mandatory)");
  if (std::get<0>(Nodes[0]) != 0 ||
      std::get<1>(Nodes[0]) != Config.RangeBits)
    return Fail("first node is not the root of the configured universe");

  auto Tree = std::make_unique<RapTree>(Config);
  NodeArena &Arena = Tree->Arena;
  Arena.Sums[0] = std::get<2>(Nodes[0]);
  uint64_t Total = Arena.Sums[0]; // Must fit a word for exact sums.
  unsigned BitsPerLevel = Config.bitsPerLevel();

  // Preorder insertion: a maintained stack of the current ancestor
  // path, each entry with its range, places each node under its
  // deepest enclosing predecessor. A node's sum, its count at first, is
  // complete when it leaves the path, and is then added to its parent's.
  struct PathEntry {
    uint32_t Node;
    uint64_t Lo;
    unsigned Width;
  };
  std::vector<PathEntry> Path = {{0, 0, Config.RangeBits}};
  auto PopPath = [&] {
    uint64_t Done = Arena.Sums[Path.back().Node];
    Path.pop_back();
    if (!Path.empty())
      Arena.Sums[Path.back().Node] += Done;
  };
  for (size_t I = 1; I < Nodes.size(); ++I) {
    auto [Lo, WidthBits, Count] = Nodes[I];
    if (Count > ~uint64_t(0) - Total)
      return Fail("node counts sum past 2^64-1");
    Total = saturatingAdd(Total, Count);
    if (WidthBits >= Config.RangeBits)
      return Fail("non-root node as wide as the universe");
    uint64_t Width = uint64_t(1) << WidthBits;
    if (Lo != alignDown(Lo, Width))
      return Fail("node range not aligned to its width");
    uint64_t Hi = Lo + Width - 1;
    while (!Path.empty() &&
           !(Path.back().Lo <= Lo &&
             Hi <= Path.back().Lo + lowBitMask(Path.back().Width)))
      PopPath();
    if (Path.empty())
      return Fail("node not contained in any predecessor (not preorder)");
    auto [Parent, ParentLo, ParentWidth] = Path.back();
    unsigned ExpectedChildBits =
        ParentWidth > BitsPerLevel ? ParentWidth - BitsPerLevel : 0;
    if (WidthBits != ExpectedChildBits)
      return Fail("node width inconsistent with the branching factor");
    uint64_t ParentNav = Arena.Navs[Parent];
    uint32_t First =
        NodeArena::navIsLeaf(ParentNav)
            ? Arena.allocChildren(Parent, ExpectedChildBits,
                                  ParentWidth - ExpectedChildBits,
                                  /*Dead=*/true)
            : NodeArena::navFirstChild(ParentNav);
    unsigned Slot =
        static_cast<unsigned>((Lo - ParentLo) >> ExpectedChildBits);
    uint32_t Child = First + Slot;
    if (!NodeArena::navIsDead(Arena.Navs[Child]))
      return Fail("duplicate node range");
    Arena.Navs[Child] = NodeArena::LeafNav;
    Arena.Sums[Child] = Count;
    Path.push_back({Child, Lo, WidthBits});
    ++Tree->NumNodes;
  }
  if (Total != NumEvents)
    return Fail("node counts do not sum to the recorded event total");
  while (!Path.empty())
    PopPath();
  Tree->NumEvents = NumEvents;
  Tree->MaxNumNodes = Tree->NumNodes;
  if (NextMergeAt > NumEvents || (NextMergeAt != 0 && !Config.EnableMerges)) {
    // Exact schedule position recorded at capture time.
    Tree->NextMergeAt = NextMergeAt;
  } else {
    // Re-derive: resume the merge schedule past the stream position.
    // At a saturated stream position the schedule pins to the
    // sentinel and can never exceed NumEvents; stop there.
    while (Tree->NextMergeAt <= NumEvents && Tree->NextMergeAt != ~uint64_t(0))
      Tree->scheduleAfterMerge();
  }
  // A node set captured without a budget (or under a looser one) may
  // exceed this config's cap; restoring coarsens it under the cap.
  Tree->enforceNodeBudget();
  // Snapshots never carry the fence (it is pure acceleration state);
  // derive it from the restored counters.
  Tree->rebuildFence();
  return Tree;
}

/// The update descent: from \p Node (the root, or a node already known
/// to cover \p X) to the smallest existing node covering \p X, calling
/// \p Visit on every node of that path (\p Node first). It touches
/// only the Navs slab: one 64-bit load per level, and the child slot
/// falls out of a shift-and-mask on X because every node's lo() is
/// aligned to its width (no subtraction needed). \p Width enters as
/// \p Node's widthBits and leaves as the landing node's, read off the
/// parent's navigation word; \p AtLeaf says whether the landing node is
/// a leaf (addPoint branching on a reload of its word ran slower).
template <typename VisitFn>
static uint32_t descend(const NodeArena &Arena, uint32_t Node, uint64_t X,
                        unsigned &Width, bool &AtLeaf, VisitFn Visit) {
  const uint64_t *NavData = Arena.Navs.data();
  uint64_t Nav = NavData[Node];
  Visit(Node);
  while (!NodeArena::navIsLeaf(Nav)) {
    unsigned Shift = NodeArena::navChildShift(Nav);
    uint32_t Child =
        NodeArena::navFirstChild(Nav) +
        static_cast<uint32_t>((X >> Shift) &
                              lowBitMask(NodeArena::navSlotLog2(Nav)));
    uint64_t ChildNav = NavData[Child];
    if (NodeArena::navIsDead(ChildNav))
      break; // Sub-range was merged back into this node (Sec 3.3).
    Node = Child;
    Nav = ChildNav;
    Width = Shift;
    Visit(Node);
  }
  AtLeaf = NodeArena::navIsLeaf(Nav);
  return Node;
}

uint32_t RapTree::descendIndex(uint64_t X, unsigned &Width) const {
  Width = Config.RangeBits;
  bool AtLeaf;
  return descend(Arena, 0, X, Width, AtLeaf, [](uint32_t) {});
}

uint64_t RapTree::coverLo(uint64_t X, unsigned Width) const {
  // The universe mask keeps a key past the universe (which NDEBUG
  // builds let through) from leaking its high bits into the range of
  // the in-universe node its descent landed on.
  return X & lowBitMask(Config.RangeBits) & ~lowBitMask(Width);
}

RapNode RapTree::findSmallestCover(uint64_t X) const {
  unsigned Width;
  uint32_t Node = descendIndex(X, Width);
  return RapNode(&Arena, Node, coverLo(X, Width), Width);
}

void RapTree::addPoint(uint64_t X, uint64_t Weight) {
  // No weight past a 2^64-1 stream total is admitted, so no sum (nor
  // count) can wrap and the adds below are plain; the degraded bound
  // charges the excess.
  uint64_t Headroom = ~uint64_t(0) - NumEvents;
  if (Weight > Headroom)
    Pressure.DegradedWeight.add(Weight - Headroom);
  Weight = std::min(Weight, Headroom);
  // A zero-weight event carries no information; returning early keeps
  // it from perturbing the structure (the split check below fires on
  // the *current* counter value, so a zero-weight touch of a node whose
  // counter was inflated by merge-backs used to split it).
  if (Weight == 0)
    return;
  assert((Config.RangeBits == 64 || X < (uint64_t(1) << Config.RangeBits)) &&
         "event outside the configured universe");
  NumEvents += Weight;

  // Finger descent: the previous update's path is still a root path
  // of the tree (see Finger in RapTree.h), and its nodes down to depth
  // Depth cover X too, because X agrees with FingerKey on every bit
  // above their widths. The ones above Depth take the weight into
  // their subtree sums as independent stores, with no navigation
  // load; the descent resumes at Finger[Depth] and records the levels
  // it walks, adding the weight on each. The landing width comes from
  // the descent (no slab stores it), and so does the landing range.
  uint64_t *Sums = Arena.Sums.data();
  unsigned Depth = std::min<unsigned>(
      FingerDepth[std::bit_width(X ^ FingerKey)], FingerLast);
  // A branch rather than Finger[Depth] as the start: on a stream with
  // no locality it predicts the root, so the descent does not wait on
  // the table and path loads.
  uint32_t Start = 0;
  if (Depth != 0) {
    for (unsigned I = 0; I != Depth; ++I)
      Sums[Finger[I]] += Weight;
    Start = Finger[Depth];
  }
  unsigned Step = Depth * Config.bitsPerLevel();
  unsigned Width = Step < Config.RangeBits ? Config.RangeBits - Step : 0;
  bool AtLeaf;
  uint32_t Node = descend(Arena, Start, X, Width, AtLeaf,
                          [Sums, Weight, Path = Finger, &Depth](uint32_t N) {
                            Sums[N] += Weight;
                            Path[Depth++] = N;
                          });
  FingerLast = Depth - 1;
  FingerKey = X;
  uint64_t NewCount = AtLeaf ? Sums[Node] : Arena.ownCount(Node);

  // First touch of this counter: the node's range is no longer
  // provably cold. Marking at the node's own scale (not just X's
  // finest bucket) is what keeps the fence sound — the counter stands
  // for events anywhere in the range.
  if (NewCount == Weight && Node != 0 && Fence.enabled())
    Fence.markNode(coverLo(X, Width), Width);

  // Split check (Sec 2.2): a counter that outgrew the threshold sprouts
  // children so subsequent events in this range profile more precisely
  // — unless the node budget is exhausted, in which case the tree
  // coarsens instead of allocating (the hardware's fixed-capacity
  // behavior, Sec 3.3). With admission enabled a due split must first
  // win a randomized admission draw, so cold leaves that barely
  // crossed the threshold stay unsplit (no allocator touch at all).
  if (Width != 0 &&
      static_cast<double>(NewCount) > Config.splitThreshold(NumEvents) &&
      (!Config.EnableAdmission || admitSplit(NewCount, Weight)))
    trySplit(Node, Width, X, Weight);

  // Batched merges at exponentially growing intervals (Sec 3.1, Fig 3).
  if (Config.EnableMerges && NumEvents >= NextMergeAt) {
    mergeNow();
    scheduleAfterMerge();
  }
}

bool RapTree::admitSplit(uint64_t NewCount, uint64_t Weight) {
  // Geometric-style sampling against the leaf's coldness: the admit
  // probability Over / (c*T + 1) rises linearly with the overshoot
  // past the split threshold T, so a leaf needs on the order of c*T
  // extra arrivals before it splits. A hot range accumulates that
  // overshoot in a handful of events; a cold singleton essentially
  // never does. The RNG is one inline SplitMix64 step so the whole
  // decision stream is a single serializable word; exactly one draw
  // is consumed per due-split arrival, which is what makes replays
  // (and snapshot-resumed runs) bit-identical.
  uint64_t Z = (AdmissionRngState += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  Z ^= Z >> 31;
  double Draw = static_cast<double>(Z >> 11) * 0x1.0p-53;
  double Threshold = Config.splitThreshold(NumEvents);
  double Over = static_cast<double>(NewCount) - Threshold; // > 0 here
  if (Draw < Over / (Config.AdmissionCoarseness * Threshold + 1.0))
    return true;
  // Denied: this arrival keeps profiling at the current granularity.
  // Charging its whole weight (not just the split's precision loss)
  // keeps the admission error bound closed-form regardless of the
  // probability scheme: any range's extra under-count is at most the
  // total charged weight.
  ++Pressure.AdmissionDeniedSplits;
  Pressure.AdmissionDeferredWeight.add(Weight);
  return false;
}

uint64_t RapTree::splitAllocCount(uint32_t Node, unsigned MyWidth) const {
  // Nodes a split of \p Node would add: a whole fresh child block, or
  // only the dead slots a revive would resurrect.
  unsigned BitsPerLevel = Config.bitsPerLevel();
  unsigned ChildBits = MyWidth > BitsPerLevel ? MyWidth - BitsPerLevel : 0;
  unsigned SlotLog2 = MyWidth - ChildBits;
  uint64_t Nav = Arena.Navs[Node];
  if (NodeArena::navIsLeaf(Nav))
    return uint64_t(1) << SlotLog2;
  uint64_t Dead = 0;
  uint32_t First = NodeArena::navFirstChild(Nav);
  unsigned NumSlots = 1u << SlotLog2;
  for (unsigned Slot = 0; Slot != NumSlots; ++Slot)
    if (NodeArena::navIsDead(Arena.Navs[First + Slot]))
      ++Dead;
  return Dead;
}

/// Cap on TreePressure::CoarsenLevel: 2^60 already exceeds any
/// saturating threshold the schedule can produce.
static constexpr uint64_t MaxCoarsenLevel = 60;

uint64_t RapTree::forcedMergePass() {
  // Pressure threshold: the scheduled merge threshold escalated by the
  // coarsening level (each level doubles it), and at least 1 so
  // zero-weight subtrees always fold. Folded weight leaves the eps*n
  // guarantee — the scheduled q/(q-1) analysis does not cover folds
  // run off-schedule — so it is charged to DegradedWeight, and the
  // pass deliberately does NOT touch NumMergePasses/MergeEventCounts:
  // the paper's merge-schedule invariants stay exact.
  double Scale = std::ldexp(
      1.0, static_cast<int>(std::min(Pressure.CoarsenLevel, MaxCoarsenLevel)));
  double Threshold = std::max(1.0, Config.mergeThreshold(NumEvents) * Scale);
  uint64_t Removed = 0;
  uint64_t Folded = 0;
  FingerLast = 0; // The pass may kill or free nodes on the finger.
  mergeWalk(0, Threshold, Removed, &Folded);
  ++Pressure.ForcedMergePasses;
  Pressure.ReclaimedNodes += Removed;
  Pressure.DegradedWeight.add(Folded);
  rebuildFence();
  return Removed;
}

void RapTree::trySplit(uint32_t Node, unsigned Width, uint64_t X,
                       uint64_t Weight) {
  uint64_t Budget = Pressure.NodeBudget;
  bool Charged = false;
  if (Budget != 0) {
    // Churn charge: once a forced pass has reclaimed subtrees, an event
    // can land on a node whose counter was already past the split
    // threshold (its precise child was folded away, so the descend
    // stops early). Even when the re-split below succeeds, this event's
    // weight stays at the coarse node forever — counters never move
    // down — so it leaves the eps*n guarantee and must be charged. An
    // unbudgeted tree only re-lands like this once per scheduled merge
    // pass, which the oracle's per-epoch slack already covers.
    uint64_t Count = Arena.ownCount(Node);
    if (Pressure.ForcedMergePasses != 0 && Count > Weight &&
        static_cast<double>(Count - Weight) >
            Config.splitThreshold(NumEvents)) {
      Pressure.DegradedWeight.add(Weight);
      Charged = true;
    }
    uint64_t Need = splitAllocCount(Node, Width);
    if (NumNodes + Need > Budget) {
      ++Pressure.BudgetHits;
      // Reclaim instead of allocating: one forced coarsening pass,
      // then re-descend (the pass may have folded the landing node
      // into an ancestor) and re-evaluate there.
      forcedMergePass();
      Node = descendIndex(X, Width);
      Need = splitAllocCount(Node, Width);
      bool StillWants =
          Width != 0 &&
          static_cast<double>(Arena.ownCount(Node)) >
              Config.splitThreshold(NumEvents);
      if (!StillWants || NumNodes + Need > Budget) {
        // Degrade: this event stays profiled at the current (coarse)
        // granularity. Escalate so the next pass folds harder.
        ++Pressure.RefusedSplits;
        if (!Charged)
          Pressure.DegradedWeight.add(Weight);
        if (Pressure.CoarsenLevel < MaxCoarsenLevel)
          ++Pressure.CoarsenLevel;
        return;
      }
    }
  }
  try {
    splitNode(Node, Width);
  } catch (const std::bad_alloc &) {
    // allocBlock rolled the arena back, so refusing the split leaves
    // the tree exactly as consistent as a budget refusal does.
    ++Pressure.AllocFailures;
    ++Pressure.RefusedSplits;
    if (!Charged)
      Pressure.DegradedWeight.add(Weight);
  }
}

void RapTree::enforceNodeBudget() {
  // Bulk paths (absorb, snapshot restore) can overshoot the cap in one
  // step; forced passes with escalating thresholds bring the tree back
  // under it. Terminates: at the level cap the threshold exceeds any
  // possible subtree weight, so everything folds into the root.
  uint64_t Budget = Pressure.NodeBudget;
  if (Budget == 0)
    return;
  while (NumNodes > Budget) {
    ++Pressure.BudgetHits;
    uint64_t Removed = forcedMergePass();
    if (NumNodes <= Budget)
      break;
    if (Pressure.CoarsenLevel >= MaxCoarsenLevel && Removed == 0)
      break;
    if (Pressure.CoarsenLevel < MaxCoarsenLevel)
      ++Pressure.CoarsenLevel;
  }
}

void RapTree::splitNode(uint32_t Node, unsigned MyWidth) {
  assert(MyWidth != 0 && "cannot split a unit range");
  unsigned BitsPerLevel = Config.bitsPerLevel();
  unsigned ChildBits = MyWidth > BitsPerLevel ? MyWidth - BitsPerLevel : 0;
  unsigned SlotLog2 = MyWidth - ChildBits;
  uint64_t Nav = Arena.Navs[Node];

  // Create every missing child with a zero sum. The parent keeps its
  // own counter (counters are never decremented, Sec 2.2 fn 1).
  if (NodeArena::navIsLeaf(Nav)) {
    Arena.allocChildren(Node, ChildBits, SlotLog2, /*Dead=*/false);
    NumNodes += uint64_t(1) << SlotLog2;
  } else {
    // Revive in place the slots merged back since the last split.
    uint32_t First = NodeArena::navFirstChild(Nav);
    unsigned NumSlots = 1u << SlotLog2;
    for (unsigned Slot = 0; Slot != NumSlots; ++Slot) {
      uint32_t Child = First + Slot;
      if (!NodeArena::navIsDead(Arena.Navs[Child]))
        continue;
      Arena.Navs[Child] = NodeArena::LeafNav;
      ++NumNodes;
    }
  }
  ++NumSplits;
  MaxNumNodes = std::max(MaxNumNodes, NumNodes);
}

void RapTree::mergeWalk(uint32_t Node, double Threshold, uint64_t &Removed,
                        uint64_t *FoldedWeight) {
  uint64_t Nav = Arena.Navs[Node];
  if (NodeArena::navIsLeaf(Nav))
    return;

  bool AnyChildLeft = false;
  uint32_t First = NodeArena::navFirstChild(Nav);
  unsigned SlotLog2 = NodeArena::navSlotLog2(Nav);
  unsigned NumSlots = 1u << SlotLog2;
  for (unsigned Slot = 0; Slot != NumSlots; ++Slot) {
    uint32_t Child = First + Slot;
    if (NodeArena::navIsDead(Arena.Navs[Child]))
      continue;
    mergeWalk(Child, Threshold, Removed, FoldedWeight);
    uint64_t ChildWeight = Arena.Sums[Child];
    if (static_cast<double>(ChildWeight) < Threshold) {
      // Fold the entire (already internally merged) child subtree into
      // this node: child counts are equally valid on the super-range
      // (Sec 2.2 "Merge"). The weight stays under this node, so no sum
      // changes: killing the child raises this node's count by itself.
      if (FoldedWeight)
        *FoldedWeight = saturatingAdd(*FoldedWeight, ChildWeight);
      uint64_t Dropped = Arena.subtreeNodeCount(Child);
      Removed += Dropped;
      NumNodes -= Dropped;
      Arena.killSubtree(Child);
    } else {
      AnyChildLeft = true;
    }
  }
  if (!AnyChildLeft) {
    // Every slot merged back: recycle the whole block; the node is a
    // leaf again.
    Arena.freeBlock(First, SlotLog2);
    Arena.Navs[Node] = NodeArena::LeafNav;
  }
}

void RapTree::unionWith(uint32_t Mine, const RapNode &Theirs) {
  // Recursive structural union: Other's node counts land on the
  // equally-ranged node here, materializing missing children so no
  // precision recorded by the shard is lost at union time (the absorb
  // merge pass re-compacts whatever is no longer warranted).
  // Everything Theirs holds lands in this subtree; the children below
  // add their own shares to their own sums (absorb checked the fit).
  Arena.Sums[Mine] += Theirs.subtreeWeight();
  if (!Theirs.hasChildren())
    return;
  // Both trees share the geometry, so Mine has Theirs' width.
  unsigned BitsPerLevel = Config.bitsPerLevel();
  unsigned MyWidth = Theirs.widthBits();
  unsigned ChildBits = MyWidth > BitsPerLevel ? MyWidth - BitsPerLevel : 0;
  unsigned SlotLog2 = MyWidth - ChildBits;
  uint64_t Nav = Arena.Navs[Mine];
  uint32_t First =
      NodeArena::navIsLeaf(Nav)
          ? Arena.allocChildren(Mine, ChildBits, SlotLog2, /*Dead=*/true)
          : NodeArena::navFirstChild(Nav);
  unsigned NumSlots = 1u << SlotLog2;
  for (unsigned Slot = 0; Slot != NumSlots; ++Slot) {
    std::optional<RapNode> TheirChild = Theirs.child(Slot);
    if (!TheirChild)
      continue;
    uint32_t Child = First + Slot;
    if (NodeArena::navIsDead(Arena.Navs[Child])) {
      Arena.Navs[Child] = NodeArena::LeafNav;
      ++NumNodes;
    }
    unionWith(Child, *TheirChild);
  }
}

void RapTree::absorb(const RapTree &Other) {
  assert(Config.RangeBits == Other.Config.RangeBits &&
         Config.BranchFactor == Other.Config.BranchFactor &&
         "absorb requires identical tree geometry");
  FingerLast = 0; // The merge and budget passes below may kill nodes.
  // A union past a 2^64-1 total folds what fits onto the root; all of
  // Other's weight lost its precision or was dropped, so all is charged.
  uint64_t Headroom = ~uint64_t(0) - NumEvents;
  if (Other.NumEvents <= Headroom) {
    unionWith(0, Other.root());
  } else {
    Arena.Sums[0] += Headroom;
    Pressure.DegradedWeight.add(Other.NumEvents);
  }
  NumEvents += std::min(Other.NumEvents, Headroom);
  // Other's estimates already fell short of its own stream by up to
  // these terms; the union's estimates inherit that shortfall, so its
  // bound inherits the terms.
  Pressure.DegradedWeight.add(Other.Pressure.DegradedWeight);
  Pressure.AdmissionDeferredWeight.add(Other.Pressure.AdmissionDeferredWeight);
  MaxNumNodes = std::max(MaxNumNodes, NumNodes);
  // Re-compact at the combined stream position and realign the merge
  // schedule with it.
  if (Config.EnableMerges) {
    mergeNow();
    while (NextMergeAt <= NumEvents && NextMergeAt != ~uint64_t(0))
      scheduleAfterMerge();
  }
  // The structural union can overshoot a node budget arbitrarily far;
  // coarsen back under it.
  enforceNodeBudget();
  // unionWith wrote counters directly; the merge/budget passes above
  // may not have run, so re-derive the fence unconditionally.
  rebuildFence();
}

uint64_t RapTree::mergeNow() {
  double Threshold = Config.mergeThreshold(NumEvents);
  uint64_t Removed = 0;
  FingerLast = 0; // The pass may kill or free nodes on the finger.
  mergeWalk(0, Threshold, Removed);
  ++NumMergePasses;
  NumMergedNodes += Removed;
  MergeEventCounts.push_back(NumEvents);
  rebuildFence();
  return Removed;
}

void RapTree::scheduleAfterMerge() {
  double Next = static_cast<double>(NextMergeAt) * Config.MergeRatio;
  // llround is undefined once Next exceeds int64 range; clamp to the
  // saturated sentinel so a nearly-full event counter cannot wrap the
  // schedule back below NumEvents (which would loop forever in the
  // catch-up loops below).
  uint64_t NextInt =
      Next >= static_cast<double>(std::numeric_limits<int64_t>::max())
          ? ~uint64_t(0)
          : static_cast<uint64_t>(std::llround(Next));
  NextMergeAt = std::max<uint64_t>(saturatingAdd(NumEvents, 1), NextInt);
}

uint64_t RapTree::arenaBytes() const { return Arena.slabBytes(); }

void RapTree::straddleWalk(uint32_t Node, uint64_t NodeLo, unsigned Width,
                           uint64_t Lo, uint64_t Hi, bool WantUpper,
                           RangeBounds &Bounds) const {
  // Each pass takes a node that intersects [Lo, Hi] without lying in
  // it. Its own counter may hold events on either side of an endpoint,
  // so it counts toward Upper only (estimateRange, reading Lower alone,
  // skips it). Of its child slots, those between the two end ones lie
  // inside the query (O(b) slots a level); the pass recurses into a
  // straddling first one and moves on to a straddling last one.
  for (;;) {
    if (WantUpper)
      Bounds.Upper += Arena.ownCount(Node);
    uint64_t Nav = Arena.Navs[Node];
    if (NodeArena::navIsLeaf(Nav))
      return;
    unsigned Shift = NodeArena::navChildShift(Nav);
    uint32_t First = NodeArena::navFirstChild(Nav);
    uint64_t NodeHi = NodeLo + lowBitMask(Width);
    uint64_t FirstSlot = Lo > NodeLo ? (Lo - NodeLo) >> Shift : 0;
    uint64_t LastSlot = Hi < NodeHi ? (Hi - NodeLo) >> Shift
                                    : lowBitMask(NodeArena::navSlotLog2(Nav));
    bool Tail = false;
    for (uint64_t Slot = FirstSlot; Slot <= LastSlot; ++Slot) {
      uint32_t Child = First + static_cast<uint32_t>(Slot);
      if (NodeArena::navIsDead(Arena.Navs[Child]))
        continue; // Sub-range merged into this node: counted above.
      uint64_t ChildLo = NodeLo + (Slot << Shift);
      if (Lo <= ChildLo && ChildLo + lowBitMask(Shift) <= Hi) {
        Bounds.Lower += Arena.Sums[Child];
        Bounds.Upper += Arena.Sums[Child];
      } else if (Slot != LastSlot) {
        straddleWalk(Child, ChildLo, Shift, Lo, Hi, WantUpper, Bounds);
      } else {
        Tail = true;
      }
    }
    if (!Tail)
      return;
    Node = First + static_cast<uint32_t>(LastSlot);
    NodeLo += LastSlot << Shift;
    Width = Shift;
  }
}

bool RapTree::rangeProvablyCold(uint64_t Lo, uint64_t Hi) const {
  if (!Fence.enabled())
    return false;
  // A query covering the whole universe contains the root, whose own
  // counter contributes even though the fence never tracks it; only
  // an empty stream makes that query cold.
  if (Lo == 0 && Hi >= lowBitMask(Config.RangeBits))
    return NumEvents == 0;
  return Fence.provablyCold(Lo, Hi);
}

uint64_t RapTree::estimateRange(uint64_t Lo, uint64_t Hi) const {
  assert(Lo <= Hi && "empty query range");
  if (rangeProvablyCold(Lo, Hi))
    return 0;
  return boundsWalk(Lo, Hi, /*WantUpper=*/false).Lower;
}

RapTree::RangeBounds RapTree::estimateRangeBounds(uint64_t Lo,
                                                  uint64_t Hi) const {
  assert(Lo <= Hi && "empty query range");
  return boundsWalk(Lo, Hi, /*WantUpper=*/true);
}

RapTree::RangeBounds RapTree::boundsWalk(uint64_t Lo, uint64_t Hi,
                                         bool WantUpper) const {
  RangeBounds Bounds;
  uint64_t RootHi = lowBitMask(Config.RangeBits);
  if (Lo > RootHi)
    return Bounds;
  if (Lo == 0 && Hi >= RootHi) {
    Bounds.Lower = Bounds.Upper = Arena.Sums[0];
    return Bounds;
  }
  straddleWalk(0, 0, Config.RangeBits, Lo, Hi, WantUpper, Bounds);
  return Bounds;
}

uint64_t RapTree::hotWalk(uint32_t Node, uint64_t Lo, unsigned Width,
                          unsigned Depth, double Threshold,
                          std::vector<HotRange> &Out) const {
  // No node of a subtree lighter than the threshold can be hot (a
  // node's exclusive weight never exceeds its subtree weight), and
  // then the whole subtree weight is exclusive weight of the caller.
  uint64_t Subtree = Arena.Sums[Node];
  if (static_cast<double>(Subtree) < Threshold)
    return Subtree;
  // Exclusive weight: the subtree's, less what each child keeps hot.
  uint64_t Exclusive = Subtree;
  Arena.forEachLiveChild(
      Node, Lo, [&](uint32_t Child, uint64_t ChildLo, unsigned ChildWidth) {
        Exclusive -= Arena.Sums[Child] - hotWalk(Child, ChildLo, ChildWidth,
                                                 Depth + 1, Threshold, Out);
      });
  if (!(static_cast<double>(Exclusive) >= Threshold))
    return Exclusive;
  HotRange H;
  H.Lo = Lo;
  H.Hi = Lo + lowBitMask(Width);
  H.WidthBits = Width;
  H.Depth = Depth;
  H.ExclusiveWeight = Exclusive;
  H.SubtreeWeight = Subtree;
  Out.push_back(H);
  return 0; // Hot weight is not propagated to the parent (Sec 4.1).
}

std::vector<HotRange> RapTree::extractHotRanges(double Phi) const {
  assert(Phi > 0.0 && Phi <= 1.0 && "hotness fraction out of range");
  std::vector<HotRange> Out;
  double Threshold = Phi * static_cast<double>(NumEvents);
  hotWalk(0, 0, Config.RangeBits, 0, Threshold, Out);
  // The walk emits post-order. Node ranges are aligned and either
  // nested or disjoint, so preorder is (Lo ascending, wider first).
  std::sort(Out.begin(), Out.end(), [](const HotRange &A, const HotRange &B) {
    if (A.Lo != B.Lo)
      return A.Lo < B.Lo;
    return A.WidthBits > B.WidthBits;
  });
  return Out;
}

void RapTree::topKWalk(uint32_t Node, uint64_t Lo, unsigned Width,
                       unsigned Depth, uint64_t AncestorOwn,
                       std::vector<TopKRange> &Out) const {
  TopKRange R;
  R.Lo = Lo;
  R.Hi = Lo + lowBitMask(Width);
  R.WidthBits = Width;
  R.Depth = Depth;
  bool Leaf = NodeArena::navIsLeaf(Arena.Navs[Node]);
  R.Retained = Leaf ? Arena.Sums[Node] : Arena.ownCount(Node);
  // Subtree weight is exactly estimateRange(Lo, Hi) for a node-aligned
  // range (a provable lower bound); the matching upper bound charges
  // every ancestor's own counter, since those events may fall anywhere
  // inside the ancestor's wider range.
  R.LowerWeight = Arena.Sums[Node];
  R.UpperWeight = saturatingAdd(R.LowerWeight, AncestorOwn);
  Out.push_back(R);
  uint64_t ChildAncestorOwn = saturatingAdd(AncestorOwn, R.Retained);
  if (Leaf)
    return;
  Arena.forEachLiveChild(
      Node, Lo, [&](uint32_t Child, uint64_t ChildLo, unsigned ChildWidth) {
        topKWalk(Child, ChildLo, ChildWidth, Depth + 1, ChildAncestorOwn, Out);
      });
}

std::vector<TopKRange> RapTree::topK(size_t K) const {
  std::vector<TopKRange> Out;
  if (K == 0)
    return Out;
  Out.reserve(NumNodes);
  topKWalk(0, 0, Config.RangeBits, 0, 0, Out);
  // Strict total order (node ranges are unique, so (Lo, WidthBits)
  // breaks every Retained tie): the k-nesting property topK(k) ⊆
  // topK(k+m) falls out of prefix-of-a-fixed-order.
  auto Before = [](const TopKRange &A, const TopKRange &B) {
    if (A.Retained != B.Retained)
      return A.Retained > B.Retained;
    if (A.Lo != B.Lo)
      return A.Lo < B.Lo;
    return A.WidthBits < B.WidthBits;
  };
  if (Out.size() > K) {
    std::partial_sort(Out.begin(),
                      Out.begin() + static_cast<std::ptrdiff_t>(K), Out.end(),
                      Before);
    Out.resize(K);
  } else {
    std::sort(Out.begin(), Out.end(), Before);
  }
  return Out;
}

/// Prints one node line: hex range, own count, subtree weight, percent.
static void dumpNode(std::ostream &OS, const RapNode &Node, unsigned Depth,
                     uint64_t NumEvents) {
  for (unsigned I = 0; I != Depth; ++I)
    OS << "  ";
  char Buffer[128];
  double Percent =
      NumEvents == 0
          ? 0.0
          : 100.0 * static_cast<double>(Node.subtreeWeight()) /
                static_cast<double>(NumEvents);
  std::snprintf(Buffer, sizeof(Buffer),
                "[%llx, %llx] count=%llu subtree=%llu (%.1f%%)",
                static_cast<unsigned long long>(Node.lo()),
                static_cast<unsigned long long>(Node.hi()),
                static_cast<unsigned long long>(Node.count()),
                static_cast<unsigned long long>(Node.subtreeWeight()),
                Percent);
  OS << Buffer << '\n';
}

static void dumpWalk(std::ostream &OS, const RapNode &Node, unsigned Depth,
                     uint64_t NumEvents) {
  dumpNode(OS, Node, Depth, NumEvents);
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      dumpWalk(OS, *Child, Depth + 1, NumEvents);
}

void RapTree::dump(std::ostream &OS) const {
  dumpWalk(OS, root(), 0, NumEvents);
}

void RapTree::dumpHot(std::ostream &OS, double Phi) const {
  std::vector<HotRange> Hot = extractHotRanges(Phi);

  auto PrintLine = [&](uint64_t Lo, uint64_t Hi, unsigned Indent,
                       uint64_t Weight) {
    for (unsigned I = 0; I != Indent; ++I)
      OS << "  ";
    char Buffer[128];
    double Percent =
        NumEvents == 0
            ? 0.0
            : 100.0 * static_cast<double>(Weight) /
                  static_cast<double>(NumEvents);
    std::snprintf(Buffer, sizeof(Buffer), "[%llx, %llx] %.1f%%",
                  static_cast<unsigned long long>(Lo),
                  static_cast<unsigned long long>(Hi), Percent);
    OS << Buffer << '\n';
  };

  // Always lead with the root line for context, as the paper's Fig 5
  // does; hot ranges are then indented by their nesting depth among
  // hot ranges only (not their raw tree depth).
  bool RootHot = !Hot.empty() && Hot.front().Depth == 0;
  if (!RootHot)
    PrintLine(root().lo(), root().hi(), 0, root().count());

  std::vector<std::pair<uint64_t, uint64_t>> Enclosing;
  for (const HotRange &H : Hot) {
    while (!Enclosing.empty() && !(Enclosing.back().first <= H.Lo &&
                                   H.Hi <= Enclosing.back().second))
      Enclosing.pop_back();
    unsigned Indent =
        static_cast<unsigned>(Enclosing.size()) + (RootHot ? 0 : 1);
    PrintLine(H.Lo, H.Hi, Indent, H.ExclusiveWeight);
    Enclosing.emplace_back(H.Lo, H.Hi);
  }
}
