//===- core/Analysis.cpp - Offline profile analysis ----------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"

#include "support/BitUtils.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

using namespace rap;

std::vector<CoveragePoint>
rap::coverageByWidth(const RapTree &Tree, double Phi,
                     const std::vector<unsigned> &WidthGrid) {
  std::vector<HotRange> Hot = Tree.extractHotRanges(Phi);
  std::vector<CoveragePoint> Curve;
  Curve.reserve(WidthGrid.size());
  for (unsigned Width : WidthGrid) {
    uint64_t Covered = 0;
    for (const HotRange &H : Hot)
      if (H.WidthBits <= Width)
        Covered = saturatingAdd(Covered, H.ExclusiveWeight);
    CoveragePoint Point;
    Point.WidthBits = Width;
    Point.CoveragePercent =
        Tree.numEvents() == 0
            ? 0.0
            : 100.0 * static_cast<double>(Covered) /
                  static_cast<double>(Tree.numEvents());
    Curve.push_back(Point);
  }
  return Curve;
}

std::vector<HotRange> rap::topRanges(const RapTree &Tree, unsigned K,
                                     double MinPhi) {
  std::vector<HotRange> Hot = Tree.extractHotRanges(MinPhi);
  std::sort(Hot.begin(), Hot.end(),
            [](const HotRange &A, const HotRange &B) {
              if (A.ExclusiveWeight != B.ExclusiveWeight)
                return A.ExclusiveWeight > B.ExclusiveWeight;
              return A.Lo < B.Lo;
            });
  if (Hot.size() > K)
    Hot.resize(K);
  return Hot;
}

IntervalProfile::IntervalProfile(ProfileSnapshot BeforeSnapshot,
                                 ProfileSnapshot AfterSnapshot)
    : Before(std::move(BeforeSnapshot)), After(std::move(AfterSnapshot)) {
  assert(Before.numEvents() <= After.numEvents() &&
         "interval endpoints out of order");
  BeforeTree = Before.restore();
  AfterTree = After.restore();
}

uint64_t IntervalProfile::estimateRange(uint64_t Lo, uint64_t Hi) const {
  uint64_t AfterCount = AfterTree->estimateRange(Lo, Hi);
  uint64_t BeforeCount = BeforeTree->estimateRange(Lo, Hi);
  // Both are lower bounds of monotone counts; the before-estimate can
  // exceed the after-estimate only by estimation slack, so clamp.
  return AfterCount > BeforeCount ? AfterCount - BeforeCount : 0;
}

namespace {

/// Walks the after-tree; reports nodes whose interval estimate clears
/// the threshold and whose parent was not already reported (maximal
/// disjoint hot set).
void intervalHotWalk(const RapNode &Node, const IntervalProfile &Interval,
                     double Threshold, unsigned Depth,
                     std::vector<HotRange> &Out) {
  uint64_t Estimate = Interval.estimateRange(Node.lo(), Node.hi());
  if (static_cast<double>(Estimate) < Threshold)
    return; // No descendant can clear it either (estimates nest).
  // Prefer the most precise hot descendants: recurse first; if any
  // child is hot, report the children instead of this node.
  size_t BeforeSize = Out.size();
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      intervalHotWalk(*Child, Interval, Threshold, Depth + 1, Out);
  if (Out.size() != BeforeSize)
    return;
  HotRange H;
  H.Lo = Node.lo();
  H.Hi = Node.hi();
  H.WidthBits = Node.widthBits();
  H.Depth = Depth;
  H.ExclusiveWeight = Estimate;
  H.SubtreeWeight = Estimate;
  Out.push_back(H);
}

} // namespace

std::vector<HotRange> IntervalProfile::hotRanges(double Phi) const {
  assert(Phi > 0.0 && Phi <= 1.0 && "hotness fraction out of range");
  std::vector<HotRange> Out;
  double Threshold = Phi * static_cast<double>(numEvents());
  intervalHotWalk(AfterTree->root(), *this, Threshold, 0, Out);
  return Out;
}

double rap::profileDivergence(const ProfileSnapshot &A,
                              const ProfileSnapshot &B, double Phi) {
  std::unique_ptr<RapTree> TreeA = A.restore();
  std::unique_ptr<RapTree> TreeB = B.restore();
  // Union of both hot-range sets, deduplicated by range.
  std::map<std::pair<uint64_t, uint64_t>, bool> Union;
  for (const HotRange &H : TreeA->extractHotRanges(Phi))
    Union[{H.Lo, H.Hi}] = true;
  for (const HotRange &H : TreeB->extractHotRanges(Phi))
    Union[{H.Lo, H.Hi}] = true;
  if (Union.empty())
    return 0.0;

  double NA = static_cast<double>(A.numEvents());
  double NB = static_cast<double>(B.numEvents());
  if (NA == 0.0 || NB == 0.0)
    return NA == NB ? 0.0 : 1.0;
  double Distance = 0.0;
  for (const auto &[Range, Unused] : Union) {
    (void)Unused;
    double FracA =
        static_cast<double>(TreeA->estimateRange(Range.first, Range.second)) /
        NA;
    double FracB =
        static_cast<double>(TreeB->estimateRange(Range.first, Range.second)) /
        NB;
    Distance += std::fabs(FracA - FracB);
  }
  // Ranges in the union can nest, so the raw sum can exceed 2; clamp
  // the half-distance into [0, 1].
  return std::min(1.0, Distance / 2.0);
}
