//===- core/MultiDimRap.cpp - Two-dimensional adaptive ranges ------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/MultiDimRap.h"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <stdexcept>

using namespace rap;

/// The quadtree as a RapTree config; box reads never use the fence.
static RapConfig keyConfig(const MdRapConfig &C, bool Check) {
  if (std::string Error; Check && !C.validate(&Error))
    throw std::invalid_argument("MdRapTree: invalid config: " + Error);
  return {.RangeBits = 2 * C.RangeBits, .BranchFactor = 4,
          .Epsilon = C.Epsilon, .MergeRatio = C.MergeRatio,
          .InitialMergeInterval = C.InitialMergeInterval,
          .EnableMerges = C.EnableMerges, .MaxNodes = C.effectiveNodeBudget(),
          .EnableRangeFence = false};
}

bool MdRapConfig::validate(std::string *Error) const {
  if (RangeBits >= 1 && RangeBits <= 32 &&
      (MaxMemoryBytes == 0 || MaxMemoryBytes >= 24))
    return keyConfig(*this, /*Check=*/false).validate(Error);
  if (Error)
    *Error = "RangeBits must be in [1, 32] and MaxMemoryBytes 0 or >= 24";
  return false;
}

MdRapTree::MdRapTree(const MdRapConfig &TreeConfig)
    : Config(TreeConfig), Tree(keyConfig(TreeConfig, /*Check=*/true)) {}

/// Perfect shuffle (Hacker's Delight 7-2): low word to even bits, high to odd.
static constexpr uint64_t ShuffleMasks[] = {
    0x00000000ffff0000ULL, 0x0000ff000000ff00ULL, 0x00f000f000f000f0ULL,
    0x0c0c0c0c0c0c0c0cULL, 0x2222222222222222ULL};

static uint64_t shuffleStage(uint64_t V, unsigned I) {
  unsigned Shift = 16u >> I;
  uint64_t T = (V ^ (V >> Shift)) & ShuffleMasks[I];
  return V ^ T ^ (T << Shift);
}

uint64_t MdRapTree::key(uint64_t X, uint64_t Y) {
  uint64_t V = (Y << 32) | (X & 0xffffffffULL);
  for (unsigned I = 0; I != 5; ++I)
    V = shuffleStage(V, I);
  return V;
}

MdSquare MdRapTree::square(uint64_t KeyLo, unsigned KeyWidthBits) {
  for (unsigned I = 5; I-- != 0;)
    KeyLo = shuffleStage(KeyLo, I);
  uint64_t X = KeyLo & 0xffffffffULL, Y = KeyLo >> 32;
  uint64_t Side = lowBitMask(KeyWidthBits / 2);
  return {X, X + Side, Y, Y + Side, KeyWidthBits / 2};
}

/// Sums the O(1) subtree weights of the maximal nodes inside \p B.
static uint64_t boxWalk(const RapNode &Node, const MdSquare &B) {
  MdSquare S = MdRapTree::square(Node.lo(), Node.widthBits());
  if (S.XLo > B.XHi || S.XHi < B.XLo || S.YLo > B.YHi || S.YHi < B.YLo)
    return 0;
  if (B.XLo <= S.XLo && S.XHi <= B.XHi && B.YLo <= S.YLo && S.YHi <= B.YHi)
    return Node.subtreeWeight();
  uint64_t Total = 0;
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      Total = saturatingAdd(Total, boxWalk(*Child, B));
  return Total;
}

uint64_t MdRapTree::estimateBox(uint64_t XLo, uint64_t XHi, uint64_t YLo,
                                uint64_t YHi) const {
  return boxWalk(Tree.root(), {XLo, XHi, YLo, YHi, 0});
}

std::vector<HotBox> MdRapTree::extractHotBoxes(double Phi) const {
  std::vector<HotBox> Out;
  for (const HotRange &H : Tree.extractHotRanges(Phi))
    Out.push_back({square(H.Lo, H.WidthBits), H.Depth, H.ExclusiveWeight,
                   H.SubtreeWeight});
  return Out;
}

void MdRapTree::dumpHot(std::ostream &OS, double Phi) const {
  double N = static_cast<double>(numEvents() ? numEvents() : 1);
  for (const HotBox &H : extractHotBoxes(Phi)) {
    char Line[160];
    std::snprintf(Line, sizeof(Line),
                  "x:[%" PRIx64 ", %" PRIx64 "] y:[%" PRIx64 ", %" PRIx64
                  "] %.1f%%\n",
                  H.XLo, H.XHi, H.YLo, H.YHi,
                  100.0 * static_cast<double>(H.ExclusiveWeight) / N);
    OS << Line;
  }
}
