//===- verify/ReferenceRapTree.h - Legacy pointer-based tree ----*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original pointer-chasing RapTree update path, preserved verbatim
/// as an executable specification. When core/RapTree moved to slab
/// arena storage (32-bit indices, SoA counters, packed-word descend),
/// the semantics were required to stay bit-for-bit: this class is the
/// pre-arena implementation — one heap node per counter, unique_ptr
/// children, the same split/merge/schedule arithmetic in the same
/// order — against which the DifferentialOracle structurally
/// cross-checks every arena tree it audits.
///
/// The node budget and split-admission regimes came after the arena;
/// they are modelled here statement for statement like core/RapTree's
/// admitSplit, trySplit and forcedMergePass (allocation failures
/// aside: this tree never fails to allocate), so budgeted and admission
/// trees have a root-descending twin as well.
///
/// Two trees that agree on the preorder (lo, widthBits, count) node
/// sequence agree on every estimate, hot-range extraction and bound the
/// library derives, so structural identity here is the strongest
/// equivalence the oracle can assert.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_VERIFY_REFERENCERAPTREE_H
#define RAP_VERIFY_REFERENCERAPTREE_H

#include "core/Pressure.h"
#include "core/RapConfig.h"

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

namespace rap {

/// Pre-arena RapTree: identical observable semantics, original storage.
class ReferenceRapTree {
public:
  /// (lo, widthBits, count) of one node, in preorder.
  using NodeTriple = std::tuple<uint64_t, uint8_t, uint64_t>;

  /// Constructs an empty tree. \p Config must validate (asserted, not
  /// thrown: the reference tree is only ever built by harnesses that
  /// already validated the config for the real tree).
  explicit ReferenceRapTree(const RapConfig &Config);
  ~ReferenceRapTree();

  ReferenceRapTree(const ReferenceRapTree &) = delete;
  ReferenceRapTree &operator=(const ReferenceRapTree &) = delete;

  /// Records \p Weight occurrences of \p X: the legacy update + split
  /// check + batched-merge schedule, bit for bit.
  void addPoint(uint64_t X, uint64_t Weight = 1);

  /// Runs one batched merge pass immediately. Returns nodes removed.
  uint64_t mergeNow();

  const RapConfig &config() const { return Config; }
  uint64_t numEvents() const { return NumEvents; }
  uint64_t numNodes() const { return NumNodes; }
  uint64_t maxNumNodes() const { return MaxNumNodes; }
  uint64_t numSplits() const { return NumSplits; }
  uint64_t numMergePasses() const { return NumMergePasses; }
  uint64_t numMergedNodes() const { return NumMergedNodes; }
  uint64_t nextMergeAt() const { return NextMergeAt; }
  const std::vector<uint64_t> &mergeEventCounts() const {
    return MergeEventCounts;
  }
  const TreePressure &pressure() const { return Pressure; }

  /// The tree's nodes as preorder (lo, widthBits, count) triples —
  /// root first, children in ascending slot order. Comparing this
  /// against the arena tree's preorder is the oracle's structural
  /// equivalence check.
  std::vector<NodeTriple> collectNodes() const;

private:
  struct Node;

  Node *descend(uint64_t X);
  bool admitSplit(uint64_t NewCount, uint64_t Weight);
  void trySplit(Node *N, uint64_t X, uint64_t Weight);
  uint64_t splitAllocCount(const Node &N) const;
  uint64_t forcedMergePass();
  void splitNode(Node &N);
  uint64_t mergeWalk(Node &N, double Threshold, uint64_t &Removed,
                     uint64_t *FoldedWeight = nullptr);
  void scheduleAfterMerge();

  RapConfig Config;
  std::unique_ptr<Node> Root;
  uint64_t NumEvents = 0;
  uint64_t NumNodes = 1;
  uint64_t MaxNumNodes = 1;
  uint64_t NumSplits = 0;
  uint64_t NumMergePasses = 0;
  uint64_t NumMergedNodes = 0;
  uint64_t NextMergeAt;
  std::vector<uint64_t> MergeEventCounts;
  TreePressure Pressure;
  uint64_t AdmissionRngState = 0;
};

} // namespace rap

#endif // RAP_VERIFY_REFERENCERAPTREE_H
