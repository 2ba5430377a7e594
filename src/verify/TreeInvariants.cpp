//===- verify/TreeInvariants.cpp - Structural + online auditors ----------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "verify/TreeInvariants.h"

#include "core/WorstCaseBounds.h"
#include "support/BitUtils.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>

using namespace rap;

namespace {

/// Collects a violation with printf-style context.
class Report {
public:
  explicit Report(std::vector<InvariantViolation> &Sink) : Out(Sink) {}

  [[gnu::format(printf, 3, 4)]] void fail(const char *Invariant,
                                          const char *Format, ...) {
    char Buffer[256];
    va_list Args;
    va_start(Args, Format);
    std::vsnprintf(Buffer, sizeof(Buffer), Format, Args);
    va_end(Args);
    Out.push_back({Invariant, Buffer});
  }

private:
  std::vector<InvariantViolation> &Out;
};

/// Expected child width under \p ParentWidth (the floor of zero makes
/// the last level absorb a RangeBits not divisible by log2(b)).
unsigned childWidthBits(unsigned ParentWidth, unsigned BitsPerLevel) {
  return ParentWidth > BitsPerLevel ? ParentWidth - BitsPerLevel : 0;
}

struct WalkStats {
  uint64_t Nodes = 0;
  uint64_t Weight = 0;
};

/// Recursive structural walk of a live tree.
void walk(const RapNode &Node, const RapConfig &Config, Report &R,
          WalkStats &Stats) {
  ++Stats.Nodes;
  Stats.Weight = saturatingAdd(Stats.Weight, Node.count());

  uint64_t Width = Node.widthBits() >= 64
                       ? 0
                       : (uint64_t(1) << Node.widthBits());
  if (Node.widthBits() > Config.RangeBits)
    R.fail("range-alignment", "node [%" PRIx64 "] wider (%u bits) than the "
           "universe (%u bits)",
           Node.lo(), Node.widthBits(), Config.RangeBits);
  else if (Width != 0 && Node.lo() != alignDown(Node.lo(), Width))
    R.fail("range-alignment",
           "node lo %" PRIx64 " not aligned to its %u-bit width", Node.lo(),
           Node.widthBits());

  // Subtree-sum column: a node's count is derived as its subtree
  // weight less its child slots' (a dead slot holds 0), so the live
  // children must never outweigh their parent (the count would have
  // wrapped), and the derived count must be what the live children
  // leave (else a dead slot kept weight).
  uint64_t Children = 0;
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      Children = saturatingAdd(Children, Child->subtreeWeight());
  if (Children > Node.subtreeWeight())
    R.fail("subtree-sum",
           "node [%" PRIx64 ", width %u] reports subtree weight %" PRIu64
           ", but its children hold %" PRIu64,
           Node.lo(), Node.widthBits(), Node.subtreeWeight(), Children);
  else if (Node.count() != Node.subtreeWeight() - Children)
    R.fail("subtree-sum",
           "node [%" PRIx64 ", width %u] count %" PRIu64 " is not its "
           "subtree weight %" PRIu64 " less its live children's %" PRIu64
           " (a dead slot holds weight)",
           Node.lo(), Node.widthBits(), Node.count(), Node.subtreeWeight(),
           Children);

  if (!Node.hasChildren())
    return;

  unsigned BitsPerLevel = Config.bitsPerLevel();
  unsigned ChildBits = childWidthBits(Node.widthBits(), BitsPerLevel);
  unsigned ExpectedSlots = 1u << (Node.widthBits() - ChildBits);
  if (Node.numChildSlots() != ExpectedSlots)
    R.fail("child-geometry",
           "node [%" PRIx64 ", width %u] has %u child slots, expected %u",
           Node.lo(), Node.widthBits(), Node.numChildSlots(), ExpectedSlots);

  bool AnyChild = false;
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot) {
    std::optional<RapNode> Child = Node.child(Slot);
    if (!Child)
      continue;
    AnyChild = true;
    // Children exactly partition the parent at childBits width. A
    // child's lo is derived from its slot and the parent's navigation
    // word, so only the width the word records can disagree.
    if (Child->widthBits() != ChildBits)
      R.fail("child-geometry",
             "child [%" PRIx64 "] width %u inconsistent with branching "
             "factor (expected %u)",
             Child->lo(), Child->widthBits(), ChildBits);
    walk(*Child, Config, R, Stats);
  }
  if (!AnyChild)
    R.fail("child-geometry",
           "node [%" PRIx64 "] keeps an empty child array (all slots "
           "merged away must clear it)",
           Node.lo());
}

} // namespace

std::vector<InvariantViolation> TreeInvariants::audit(const RapTree &Tree) {
  std::vector<InvariantViolation> Violations;
  Report R(Violations);
  const RapConfig &Config = Tree.config();

  // Root covers the whole configured universe.
  if (Tree.root().lo() != 0 || Tree.root().widthBits() != Config.RangeBits)
    R.fail("root-universe",
           "root covers [%" PRIx64 ", width %u], expected [0, width %u]",
           Tree.root().lo(), Tree.root().widthBits(), Config.RangeBits);

  WalkStats Stats;
  walk(Tree.root(), Config, R, Stats);

  // Conservation: every unit of stream weight is on exactly one
  // counter (the stream total never passes 2^64-1), and the root's
  // entry of the subtree-sum column says so too.
  if (Stats.Weight != Tree.numEvents())
    R.fail("conservation",
           "tree holds %" PRIu64 " weight but %" PRIu64 " events were fed",
           Stats.Weight, Tree.numEvents());
  uint64_t SubtreeWeight = Tree.root().subtreeWeight();
  if (SubtreeWeight != Tree.numEvents())
    R.fail("subtree-sum",
           "root subtree weight %" PRIu64 " != %" PRIu64 " events",
           SubtreeWeight, Tree.numEvents());
  uint64_t WholeUniverse =
      Tree.estimateRange(0, Config.RangeBits == 0
                                ? 0
                                : lowBitMask(Config.RangeBits));
  if (WholeUniverse != Tree.numEvents())
    R.fail("conservation",
           "whole-universe estimate %" PRIu64 " != %" PRIu64 " events",
           WholeUniverse, Tree.numEvents());

  // Node accounting matches the real structure.
  if (Stats.Nodes != Tree.numNodes())
    R.fail("node-accounting", "numNodes() says %" PRIu64 " but tree has "
           "%" PRIu64 " nodes",
           Tree.numNodes(), Stats.Nodes);
  if (Tree.maxNumNodes() < Tree.numNodes())
    R.fail("node-accounting",
           "maxNumNodes() %" PRIu64 " below current numNodes() %" PRIu64,
           Tree.maxNumNodes(), Tree.numNodes());

  // Resource governance: a configured node budget is a hard cap after
  // every public operation (updates, absorb, restore), and the tree
  // must report the cap its config implies.
  uint64_t Budget = Config.effectiveNodeBudget();
  if (Budget != 0 && Tree.numNodes() > Budget)
    R.fail("node-budget",
           "%" PRIu64 " nodes exceed the configured budget %" PRIu64,
           Tree.numNodes(), Budget);
  if (Tree.nodeBudget() != Budget)
    R.fail("node-budget",
           "tree reports budget %" PRIu64 " but the config implies %" PRIu64,
           Tree.nodeBudget(), Budget);

  // Merge schedule: with batched merging enabled the next merge is
  // always strictly in the future after an update returns.
  if (Config.EnableMerges && Tree.numEvents() > 0 &&
      Tree.nextMergeAt() <= Tree.numEvents())
    R.fail("merge-schedule",
           "nextMergeAt %" PRIu64 " not past the stream position %" PRIu64,
           Tree.nextMergeAt(), Tree.numEvents());

  // Worst-case node bound (Sec 3.1 / Fig 3): post-merge bound plus the
  // splits possible since the last merge. Only meaningful under the
  // paper's regime: proportional split threshold and merges at least
  // as aggressive as the split threshold.
  if (Config.EnableMerges && Config.FixedSplitThreshold == 0.0 &&
      Config.MergeThresholdScale >= 1.0 && Config.RangeBits >= 1 &&
      Tree.numEvents() > 0) {
    WorstCaseBounds Bounds(Config.RangeBits, Config.BranchFactor,
                           Config.Epsilon);
    uint64_t LastMerge = Tree.mergeEventCounts().empty()
                             ? 1
                             : std::max<uint64_t>(
                                   1, Tree.mergeEventCounts().back());
    double Limit = Bounds.boundAt(Tree.numEvents(), LastMerge) + 1.0;
    if (static_cast<double>(Tree.numNodes()) > Limit)
      R.fail("node-bound",
             "%" PRIu64 " nodes exceed the analytic bound %.1f at "
             "n=%" PRIu64 " (last merge at %" PRIu64 ")",
             Tree.numNodes(), Limit, Tree.numEvents(), LastMerge);
  }

  return Violations;
}

std::vector<InvariantViolation> TreeInvariants::auditNodeSet(
    const RapConfig &Config,
    std::vector<std::tuple<uint64_t, uint8_t, uint64_t>> Nodes,
    uint64_t NumEvents) {
  std::vector<InvariantViolation> Violations;
  Report R(Violations);

  std::string ConfigError;
  if (!Config.validate(&ConfigError)) {
    R.fail("config", "invalid configuration: %s", ConfigError.c_str());
    return Violations;
  }
  if (Nodes.empty()) {
    R.fail("root-universe", "node set is empty (the root is mandatory)");
    return Violations;
  }

  // Preorder of a trie == sorted by (lo ascending, width descending),
  // so arbitrary input order (e.g. the engine's sorted TCAM snapshot)
  // is normalized first.
  std::sort(Nodes.begin(), Nodes.end(), [](const auto &A, const auto &B) {
    if (std::get<0>(A) != std::get<0>(B))
      return std::get<0>(A) < std::get<0>(B);
    return std::get<1>(A) > std::get<1>(B);
  });

  auto HiOf = [](uint64_t Lo, uint8_t WidthBits) {
    return WidthBits >= 64 ? ~uint64_t(0)
                           : Lo + ((uint64_t(1) << WidthBits) - 1);
  };

  if (std::get<0>(Nodes[0]) != 0 ||
      std::get<1>(Nodes[0]) != Config.RangeBits) {
    R.fail("root-universe",
           "first node [%" PRIx64 ", width %u] is not the universe root "
           "(width %u)",
           std::get<0>(Nodes[0]),
           static_cast<unsigned>(std::get<1>(Nodes[0])), Config.RangeBits);
    return Violations;
  }

  unsigned BitsPerLevel = Config.bitsPerLevel();
  uint64_t TotalCount = std::get<2>(Nodes[0]);
  // Ancestor stack of (lo, widthBits) — the same maintained-path scheme
  // RapTree::fromNodeSet uses, but collecting every defect.
  std::vector<std::pair<uint64_t, uint8_t>> Path = {
      {std::get<0>(Nodes[0]), std::get<1>(Nodes[0])}};

  for (size_t I = 1; I < Nodes.size(); ++I) {
    auto [Lo, WidthBits, Count] = Nodes[I];
    TotalCount = saturatingAdd(TotalCount, Count);

    if (WidthBits >= Config.RangeBits) {
      R.fail("child-geometry",
             "non-root node [%" PRIx64 "] as wide as the universe", Lo);
      continue;
    }
    uint64_t Width = uint64_t(1) << WidthBits;
    if (Lo != alignDown(Lo, Width)) {
      R.fail("range-alignment",
             "node lo %" PRIx64 " not aligned to its %u-bit width", Lo,
             static_cast<unsigned>(WidthBits));
      continue;
    }
    uint64_t Hi = HiOf(Lo, WidthBits);
    while (!Path.empty() && !(Path.back().first <= Lo &&
                              Hi <= HiOf(Path.back().first,
                                         Path.back().second)))
      Path.pop_back();
    if (Path.empty()) {
      R.fail("child-geometry",
             "node [%" PRIx64 ", width %u] not contained in any ancestor",
             Lo, static_cast<unsigned>(WidthBits));
      Path.push_back({std::get<0>(Nodes[0]), std::get<1>(Nodes[0])});
      continue;
    }
    auto [ParentLo, ParentWidth] = Path.back();
    if (ParentLo == Lo && ParentWidth == WidthBits) {
      R.fail("child-geometry", "duplicate node [%" PRIx64 ", width %u]", Lo,
             static_cast<unsigned>(WidthBits));
      continue;
    }
    unsigned Expected = childWidthBits(ParentWidth, BitsPerLevel);
    if (WidthBits != Expected) {
      R.fail("child-geometry",
             "node [%" PRIx64 "] width %u under a width-%u parent must be "
             "%u (branch factor %u)",
             Lo, static_cast<unsigned>(WidthBits),
             static_cast<unsigned>(ParentWidth), Expected,
             Config.BranchFactor);
      continue;
    }
    Path.push_back({Lo, WidthBits});
  }

  if (TotalCount != NumEvents)
    R.fail("conservation",
           "node counts sum to %" PRIu64 " but %" PRIu64 " events were fed",
           TotalCount, NumEvents);

  return Violations;
}

std::string
TreeInvariants::render(const std::vector<InvariantViolation> &Vs) {
  std::string Out;
  for (const InvariantViolation &V : Vs) {
    Out += "[";
    Out += V.Invariant;
    Out += "] ";
    Out += V.Detail;
    Out += "\n";
  }
  return Out;
}

void OnlineAuditor::addPoint(uint64_t X, uint64_t Weight) {
  Report R(Violations);
  const RapConfig &Config = Tree.config();

  const RapNode Before = Tree.findSmallestCover(X);
  const uint64_t CountBefore = Before.count();
  const unsigned WidthBefore = Before.widthBits();
  const bool Unit = Before.isUnitRange();
  const uint64_t EventsBefore = Tree.numEvents();
  const uint64_t SplitsBefore = Tree.numSplits();
  const uint64_t MergesBefore = Tree.numMergePasses();
  const uint64_t NextMergeBefore = Tree.nextMergeAt();
  const uint64_t RefusedBefore = Tree.numRefusedSplits();
  const uint64_t ForcedBefore = Tree.forcedMergePasses();
  const uint64_t DeniedBefore = Tree.numAdmissionDeniedSplits();
  const uint64_t DeferredBefore = Tree.admissionDeferredWeight();
  const uint64_t DegradedBefore = Tree.degradedWeight();

  Tree.addPoint(X, Weight);

  // Pressure accounting deltas: under a node budget (or an injected
  // allocation failure) the tree may lawfully refuse a due split, and
  // under randomized admission it may lawfully deny one — but it must
  // then say so through the pressure counters.
  const uint64_t RefusedDelta = Tree.numRefusedSplits() - RefusedBefore;
  const uint64_t ForcedDelta = Tree.forcedMergePasses() - ForcedBefore;
  const uint64_t DeniedDelta = Tree.numAdmissionDeniedSplits() - DeniedBefore;
  const uint64_t DeferredDelta =
      Tree.admissionDeferredWeight() - DeferredBefore;

  // The stream total never passes 2^64-1: the tree admits what fits
  // and charges the excess to the degraded bound.
  const uint64_t Admitted = std::min(Weight, ~uint64_t(0) - EventsBefore);
  const uint64_t Excess = Weight - Admitted;
  if (Tree.degradedWeight() - DegradedBefore < Excess)
    R.fail("event-accounting",
           "%" PRIu64 " weight past a full stream total was not charged "
           "as degraded (x=%" PRIx64 ")",
           Excess, X);

  if (Admitted == 0) {
    // Zero-weight events are no-ops by contract, and so are events a
    // full stream total cannot admit.
    if (Tree.numEvents() != EventsBefore ||
        Tree.numSplits() != SplitsBefore ||
        Tree.numMergePasses() != MergesBefore)
      R.fail("zero-weight", "event admitting no weight mutated the tree "
             "(x=%" PRIx64 ")", X);
    return;
  }

  // Event accounting.
  const uint64_t EventsAfter = EventsBefore + Admitted;
  if (Tree.numEvents() != EventsAfter)
    R.fail("event-accounting",
           "numEvents %" PRIu64 " after add, expected %" PRIu64,
           Tree.numEvents(), EventsAfter);

  // Split decision (Sec 2.2): the landing counter must split iff it
  // strictly exceeds eps * n / log(R) — evaluated, exactly as the
  // update rule does, at the post-update stream position.
  const uint64_t CountAfter = CountBefore + Admitted;
  const bool MustSplit =
      !Unit &&
      static_cast<double>(CountAfter) > Config.splitThreshold(EventsAfter);
  const uint64_t SplitDelta = Tree.numSplits() - SplitsBefore;
  // A due split either happens, is refused-and-accounted (pressure),
  // or is denied-and-accounted (admission); a refusal or denial with
  // no due split would be bookkeeping gone wrong.
  const uint64_t ExpectedSplits =
      (MustSplit && RefusedDelta == 0 && DeniedDelta == 0) ? 1u : 0u;
  if (SplitDelta != ExpectedSplits)
    R.fail("split-threshold",
           "counter %" PRIu64 " vs threshold %.6f at n=%" PRIu64
           " (width %u): expected %s, saw %" PRIu64 " split(s)",
           CountAfter, Config.splitThreshold(EventsAfter), EventsAfter,
           WidthBefore, ExpectedSplits ? "a split" : "no split", SplitDelta);
  if (RefusedDelta != 0 && !MustSplit)
    R.fail("split-threshold",
           "split refused (x=%" PRIx64 ") though no split was due", X);
  if (RefusedDelta == 0 && ForcedDelta != 0 && SplitDelta == 0)
    R.fail("split-threshold",
           "forced coarsening ran (x=%" PRIx64 ") but the due split "
           "neither happened nor was refused",
           X);

  // Admission accounting: at most one decision per update; a denial
  // only on a due split with admission enabled, charged at exactly the
  // event's admitted weight (saturating); a granted draw leaves both
  // counters untouched.
  if (DeniedDelta > 1)
    R.fail("admission-accounting",
           "%" PRIu64 " admission denials in one update (x=%" PRIx64 ")",
           DeniedDelta, X);
  if (DeniedDelta != 0 && (!Config.EnableAdmission || !MustSplit))
    R.fail("admission-accounting",
           "admission denied (x=%" PRIx64 ") though %s", X,
           Config.EnableAdmission ? "no split was due"
                                  : "admission is disabled");
  if (DeniedDelta != 0 && SplitDelta != 0)
    R.fail("admission-accounting",
           "update both denied admission and split (x=%" PRIx64 ")", X);
  const uint64_t ExpectedDeferred =
      DeniedDelta == 0 ? 0
                       : saturatingAdd(DeferredBefore, Admitted) -
                             DeferredBefore;
  if (DeferredDelta != ExpectedDeferred)
    R.fail("admission-accounting",
           "deferred weight moved by %" PRIu64 ", expected %" PRIu64
           " (x=%" PRIx64 ")",
           DeferredDelta, ExpectedDeferred, X);

  // Merge schedule (Sec 3.1): one batched merge pass exactly when the
  // stream crosses the scheduled position, none otherwise, and the
  // next position moves strictly past the stream.
  const bool MustMerge =
      Config.EnableMerges && EventsAfter >= NextMergeBefore;
  const uint64_t MergeDelta = Tree.numMergePasses() - MergesBefore;
  if (MergeDelta != (MustMerge ? 1u : 0u))
    R.fail("merge-schedule",
           "n=%" PRIu64 " vs scheduled merge at %" PRIu64
           ": expected %s, saw %" PRIu64 " pass(es)",
           EventsAfter, NextMergeBefore, MustMerge ? "a merge" : "no merge",
           MergeDelta);
  if (Config.EnableMerges && Tree.nextMergeAt() <= Tree.numEvents())
    R.fail("merge-schedule",
           "nextMergeAt %" PRIu64 " not past stream position %" PRIu64,
           Tree.nextMergeAt(), Tree.numEvents());
  if (MustMerge && MergeDelta == 1 && NextMergeBefore > 1 &&
      Config.MergeRatio > 1.0) {
    // The schedule grows by at least the configured ratio (or snaps to
    // just past the stream, whichever is later).
    uint64_t Scheduled = static_cast<uint64_t>(
        std::max(1.0, static_cast<double>(NextMergeBefore) *
                          Config.MergeRatio * 0.999));
    if (Tree.nextMergeAt() < std::min(Scheduled, EventsAfter + 1))
      R.fail("merge-schedule",
             "next merge %" PRIu64 " grew less than ratio q=%.3f from "
             "%" PRIu64,
             Tree.nextMergeAt(), Config.MergeRatio, NextMergeBefore);
  }

  // A split must refine the landing range when nothing merged it away
  // in the same update. A forced coarsening pass can fold the landing
  // node into an ancestor first, so the post-split cover may land at
  // the pre-update width; skip the refinement claim in that case.
  if (MustSplit && SplitDelta == 1 && MergeDelta == 0 && ForcedDelta == 0) {
    const RapNode After = Tree.findSmallestCover(X);
    if (After.widthBits() >= WidthBefore)
      R.fail("split-threshold",
             "split did not refine the landing range (width %u -> %u)",
             WidthBefore, After.widthBits());
  }
}
