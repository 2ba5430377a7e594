//===- core/MultiDimRap.h - Two-dimensional adaptive ranges ----*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Sec 6 extension: adaptive ranges over pairs (X, Y). Its
/// quadtree is a RapTree with BranchFactor 4 over the Morton key (X in
/// the even bits, Y in the odd): child slot (ybit << 1) | xbit, and key
/// width 2W is a square of side 2^W. MdRapTree only translates keys.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_CORE_MULTIDIMRAP_H
#define RAP_CORE_MULTIDIMRAP_H

#include "core/RapTree.h"

namespace rap {

/// Configuration of a 2-D RAP tree (RapConfig documents the knobs).
struct MdRapConfig {
  unsigned RangeBits = 32; ///< Bits per dimension, in [1, 32].
  double Epsilon = 0.01;
  double MergeRatio = 2.0;
  uint64_t InitialMergeInterval = 1024;
  bool EnableMerges = true;
  uint64_t MaxNodes = 0;       ///< Hard node cap; 0 = unbounded.
  uint64_t MaxMemoryBytes = 0; ///< At 24 B per node; 0 = unbounded.

  uint64_t effectiveNodeBudget() const {
    uint64_t Bytes = MaxMemoryBytes / 24;
    return MaxNodes == 0 || (Bytes != 0 && Bytes < MaxNodes) ? Bytes : MaxNodes;
  }
  unsigned maxDepth() const { return RangeBits; }
  double splitThreshold(uint64_t NumEvents) const {
    return Epsilon * static_cast<double>(NumEvents) / maxDepth();
  }
  [[nodiscard]] bool validate(std::string *Error = nullptr) const;
};

/// An aligned square [XLo, XHi] x [YLo, YHi] of side 2^WidthBits.
struct MdSquare {
  uint64_t XLo = 0, XHi = 0, YLo = 0, YHi = 0;
  unsigned WidthBits = 0;
};

/// A hot box reported by MdRapTree::extractHotBoxes.
struct HotBox : MdSquare {
  unsigned Depth = 0;
  uint64_t ExclusiveWeight = 0; ///< count + non-hot descendant weight
  uint64_t SubtreeWeight = 0;   ///< count + all descendant weight
};

class MdRapTree {
public:
  /// Throws std::invalid_argument when \p Config does not validate.
  explicit MdRapTree(const MdRapConfig &Config);
  /// Records \p Weight occurrences of the tuple (X, Y).
  void addPoint(uint64_t X, uint64_t Y, uint64_t Weight = 1) {
    assert((X | Y) <= lowBitMask(Config.RangeBits) && "tuple off the domain");
    Tree.addPoint(key(X, Y), Weight);
  }
  uint64_t mergeNow() { return Tree.mergeNow(); }
  const MdRapConfig &config() const { return Config; }
  uint64_t numEvents() const { return Tree.numEvents(); }
  uint64_t numNodes() const { return Tree.numNodes(); }
  uint64_t maxNumNodes() const { return Tree.maxNumNodes(); }
  uint64_t numSplits() const { return Tree.numSplits(); }
  uint64_t numMergePasses() const { return Tree.numMergePasses(); }
  const TreePressure &pressure() const { return Tree.pressure(); }
  uint64_t degradedWeight() const { return Tree.degradedWeight(); }
  uint64_t memoryBytes() const { return numNodes() * BytesPerNode; }
  /// The Morton-key tree; square() decodes a key range (lo, widthBits).
  const RapTree &tree() const { return Tree; }
  static uint64_t key(uint64_t X, uint64_t Y);
  static MdSquare square(uint64_t KeyLo, unsigned KeyWidthBits);
  /// Lower-bound estimate of the events in [XLo, XHi] x [YLo, YHi].
  uint64_t estimateBox(uint64_t XLo, uint64_t XHi, uint64_t YLo,
                       uint64_t YHi) const;
  /// Hot boxes at fraction \p Phi, in quadtree preorder (Sec 4.1).
  std::vector<HotBox> extractHotBoxes(double Phi) const;
  /// One line per hot box, with coordinates and percentages.
  void dumpHot(std::ostream &OS, double Phi) const;
  static constexpr uint64_t BytesPerNode = 24;

private:
  MdRapConfig Config;
  RapTree Tree;
};

} // namespace rap

#endif // RAP_CORE_MULTIDIMRAP_H
