//===- core/RapTree.h - Range adaptive profiling tree ----------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Range Adaptive Profiling tree: the paper's primary contribution
/// (Sections 2 and 3). The tree supports the three operations of
/// Sec 2.1:
///
///  - update: the incoming event is routed to the smallest existing
///    range covering it and that node's counter is incremented;
///  - split:  a node whose own counter exceeds
///            SplitThreshold = eps * n / log(R) sprouts children that
///            subdivide its range (the node keeps its counter);
///  - merge:  batched with exponentially growing intervals (ratio q),
///    a post-order walk folds any child subtree whose total weight is
///    below the merge threshold back into its parent.
///
/// Estimates read off the tree are always lower bounds on true counts,
/// off by at most eps * n (one threshold per ancestor level).
///
/// Nodes are stored in a slab arena with 32-bit indices (see
/// RapNode.h): the update descend is one packed-word load per level
/// with branchless child selection, and counters live in a
/// structure-of-arrays layout. An update costs O(depth - shared
/// prefix with the previous update) of those loads: it resumes at the
/// deepest node of the previous update's root path that still covers
/// the new event (the finger), and the shared ancestors take the
/// weight as independent stores. The descend also keeps a per-node
/// subtree-sum column current, so range reads walk only the two
/// boundary paths (O(b * depth)) instead of every node in the range.
/// The semantics are bit-for-bit those of the original pointer-based
/// tree, which survives as
/// verify/ReferenceRapTree and is cross-checked structurally by the
/// DifferentialOracle.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_CORE_RAPTREE_H
#define RAP_CORE_RAPTREE_H

#include "core/Pressure.h"
#include "core/RangeFence.h"
#include "core/RapConfig.h"
#include "core/RapNode.h"

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

namespace rap {

/// A range identified as hot by extractHotRanges (Sec 4.1): the range's
/// exclusive weight (its count plus all *non-hot* descendant weight)
/// meets the hotness fraction phi of the stream.
struct HotRange {
  uint64_t Lo = 0;          ///< Lowest value of the range.
  uint64_t Hi = 0;          ///< Highest value (inclusive).
  unsigned WidthBits = 0;   ///< log2 of the range width.
  unsigned Depth = 0;       ///< Tree depth (root = 0).
  uint64_t ExclusiveWeight = 0; ///< count + non-hot descendant weight.
  uint64_t SubtreeWeight = 0;   ///< count + all descendant weight.
};

/// One entry of a top-k hot-range report (RapTree::topK). Selection is
/// by retained (own-counter) weight; the bracket fields turn the
/// paper's lower-bound estimates into error bars a dashboard can show.
struct TopKRange {
  uint64_t Lo = 0;        ///< Lowest value of the range.
  uint64_t Hi = 0;        ///< Highest value (inclusive).
  unsigned WidthBits = 0; ///< log2 of the range width.
  unsigned Depth = 0;     ///< Tree depth (root = 0).
  /// The node's own counter: weight retained at exactly this
  /// granularity (the ranking score).
  uint64_t Retained = 0;
  /// Provable lower bound on the true event count in [Lo, Hi]:
  /// the subtree weight (== estimateRange(Lo, Hi) for a node range).
  uint64_t LowerWeight = 0;
  /// Provable upper bound: subtree weight plus every ancestor's own
  /// counter (those events may or may not fall inside [Lo, Hi]).
  uint64_t UpperWeight = 0;

  /// Field-for-field equality.
  bool operator==(const TopKRange &) const = default;
};

/// The RAP profile tree.
///
/// Typical use:
/// \code
///   RapConfig Config;
///   Config.RangeBits = 32;
///   Config.Epsilon = 0.01;
///   RapTree Tree(Config);
///   for (uint64_t Event : Stream)
///     Tree.addPoint(Event);
///   for (const HotRange &H : Tree.extractHotRanges(0.10))
///     ...;
/// \endcode
class RapTree {
public:
  /// Constructs an empty tree (a single root counter covering the whole
  /// universe). \p Config must validate.
  explicit RapTree(const RapConfig &Config);

  /// Reconstructs a tree from a serialized node set (deserialization
  /// hook for ProfileSnapshot). \p Nodes are (lo, widthBits, count)
  /// triples in preorder: the root first, every other node preceded by
  /// its ancestors. Returns nullptr (with a diagnostic in \p Error if
  /// non-null) when the node set is not a well-formed RAP tree for
  /// \p Config: wrong root, misaligned ranges, widths inconsistent
  /// with the branching factor, counts summing past 2^64-1, or counts
  /// not summing to \p NumEvents.
  ///
  /// \p NextMergeAt restores the batched-merge schedule position
  /// recorded at capture time so a restored tree behaves bit-for-bit
  /// like the original under further updates. Zero (or a stale value
  /// at or below \p NumEvents while merges are enabled) re-derives the
  /// schedule from the configured initial interval, which matches the
  /// original only if every merge ran exactly on schedule.
  static std::unique_ptr<RapTree>
  fromNodeSet(const RapConfig &Config,
              const std::vector<std::tuple<uint64_t, uint8_t, uint64_t>>
                  &Nodes,
              uint64_t NumEvents, std::string *Error = nullptr,
              uint64_t NextMergeAt = 0);

  RapTree(const RapTree &) = delete;
  RapTree &operator=(const RapTree &) = delete;

  /// Records \p Weight occurrences of event \p X. This is the paper's
  /// update operation, plus the split check and the batched-merge
  /// schedule. \p X must lie inside the configured universe. A weight
  /// greater than one corresponds to a combined duplicate from the
  /// stage-0 event buffer (Sec 3.3; software port in StageZeroBuffer).
  /// Weight past a 2^64-1 stream total is charged to degradedWeight().
  void addPoint(uint64_t X, uint64_t Weight = 1);

  /// Runs one batched merge pass immediately with the current merge
  /// threshold, regardless of the schedule. Returns the number of
  /// nodes removed.
  uint64_t mergeNow();

  /// Adds every counter of \p Other into this tree (which must share
  /// the same RangeBits and BranchFactor): the union of node sets with
  /// summed counts, followed by one merge pass to re-compact. This is
  /// how per-thread shard profiles are aggregated into one: each
  /// shard's eps guarantee is relative to its own stream, so the
  /// combined under-estimate of any range is at most
  /// eps * (n_this + n_other) plus both trees' degraded and
  /// admission-deferred weights, which the union carries. A union past
  /// a 2^64-1 total instead adds what fits to the root and charges
  /// \p Other's weight as degraded.
  void absorb(const RapTree &Other);

  /// The configuration this tree was built with.
  const RapConfig &config() const { return Config; }

  /// Total stream weight processed so far (the paper's n, < 2^64).
  uint64_t numEvents() const { return NumEvents; }

  /// Current number of nodes (counters) in the tree.
  uint64_t numNodes() const { return NumNodes; }

  /// Largest node count ever reached (Fig 7's "maximum memory").
  uint64_t maxNumNodes() const { return MaxNumNodes; }

  /// Approximate memory footprint. The paper budgets 128 bits per node
  /// (Sec 4.2), i.e. bytes = 16 * numNodes().
  uint64_t memoryBytes() const { return NumNodes * BytesPerNode; }

  /// Actual bytes of arena storage backing the tree (the reserved
  /// capacity of its two slab vectors, 16 B a slot), including slots
  /// on free lists. The software implementation's real footprint, as
  /// opposed to the paper's 128-bit hardware budget of memoryBytes().
  uint64_t arenaBytes() const;

  /// Number of split operations performed.
  uint64_t numSplits() const { return NumSplits; }

  /// Number of batched merge passes performed.
  uint64_t numMergePasses() const { return NumMergePasses; }

  /// Total nodes removed across all merge passes.
  uint64_t numMergedNodes() const { return NumMergedNodes; }

  /// Event counts at which batched merges ran (for Fig 6 timelines).
  const std::vector<uint64_t> &mergeEventCounts() const {
    return MergeEventCounts;
  }

  /// Event count at which the next scheduled merge will run.
  uint64_t nextMergeAt() const { return NextMergeAt; }

  /// Resource-pressure counters (see Pressure.h). All zero for an
  /// unbudgeted tree that never saw an allocation failure.
  const TreePressure &pressure() const { return Pressure; }

  /// The effective node cap this tree enforces (0 = unbounded).
  uint64_t nodeBudget() const { return Pressure.NodeBudget; }

  /// Splits abandoned under pressure (budget full or allocation
  /// failed); each left one event coarser than the guarantee wants.
  uint64_t numRefusedSplits() const { return Pressure.RefusedSplits; }

  /// Coarsening passes forced by pressure (distinct from the
  /// scheduled numMergePasses()).
  uint64_t forcedMergePasses() const { return Pressure.ForcedMergePasses; }

  /// Total event weight outside the eps*n guarantee: any range
  /// estimate's extra under-count beyond the normal bound is at most
  /// this. Zero for an unbudgeted, failure-free tree.
  uint64_t degradedWeight() const { return Pressure.DegradedWeight; }

  /// The current split threshold eps * n / log(R).
  double currentSplitThreshold() const {
    return Config.splitThreshold(NumEvents);
  }

  /// Root node (covers the entire universe).
  RapNode root() const { return RapNode(&Arena, 0, 0, Config.RangeBits); }

  /// The smallest existing node covering \p X. A key past the universe
  /// (let through by NDEBUG builds) lands as its in-universe low bits
  /// do, and the returned range stays inside the universe.
  RapNode findSmallestCover(uint64_t X) const;

  /// Lower-bound estimate of the number of events in [Lo, Hi]
  /// (inclusive). Exact node-aligned queries return the subtree
  /// weight; arbitrary ranges sum the maximal fully-contained nodes.
  /// The under-estimate is at most eps * n. O(b * depth): only the two
  /// boundary paths are walked, since every fully-contained node
  /// contributes its O(1) subtree weight.
  uint64_t estimateRange(uint64_t Lo, uint64_t Hi) const;

  /// Deterministic bracket on a range count.
  struct RangeBounds {
    uint64_t Lower = 0; ///< counts provably inside [Lo, Hi]
    uint64_t Upper = 0; ///< counts possibly inside [Lo, Hi]
  };

  /// Returns [Lower, Upper] such that the true number of events in
  /// [Lo, Hi] is always within the bracket: Lower counts only nodes
  /// fully inside the query, Upper additionally charges the counters
  /// of every node straddling it (those events may or may not fall in
  /// the query). Upper - Lower <= eps * n for node-aligned queries.
  /// One O(b * depth) walk of the two boundary paths, like
  /// estimateRange.
  RangeBounds estimateRangeBounds(uint64_t Lo, uint64_t Hi) const;

  /// True when the range fence proves estimateRange(Lo, Hi) == 0
  /// without a walk: no positive counter can contribute to the query.
  /// False never means "warm" — only "walk the tree to find out" —
  /// and the fence being disabled (Config.EnableRangeFence off)
  /// always answers false. estimateRange consults this before its
  /// walk (estimateRangeBounds does not: on a cold query its walk
  /// costs what the fence check saves); it is public so batch
  /// consumers (the sharded session, the benchmarks) can count fence
  /// hits.
  bool rangeProvablyCold(uint64_t Lo, uint64_t Hi) const;

  /// Warm buckets currently set in the fence bitmap (0 when the
  /// fence is disabled); with numFenceBuckets() this is the fence
  /// occupancy a dashboard or bench report shows.
  uint64_t fenceWarmBuckets() const { return Fence.warmBuckets(); }

  /// Total fence buckets (0 when the fence is disabled).
  uint64_t numFenceBuckets() const { return Fence.numBuckets(); }

  /// Streaming top-k hot-range report: the \p K tree ranges retaining
  /// the most weight at their own granularity, each with a provable
  /// [LowerWeight, UpperWeight] bracket on its true count. Ordering is
  /// a deterministic total order — Retained descending, then Lo
  /// ascending, then WidthBits ascending — so topK(k) is always a
  /// prefix of topK(k + m) over the same tree (k-nesting), and every
  /// value whose exact count is at least the k-th Retained score plus
  /// the tree's error budget is covered by some reported range.
  /// Returns fewer than \p K entries when the tree has fewer nodes.
  /// One depth-first walk that keeps the K best entries in a K-slot
  /// heap and, once the heap is full, skips every subtree whose sum is
  /// below the K-th best Retained (no own count exceeds its subtree
  /// sum, so the skip is exact). It visits each node whose subtree sum
  /// reaches the worst Retained kept when the walk gets there (so at
  /// least every node whose sum reaches the final K-th best), reading
  /// b child sums and doing O(log K) heap work per visited node; each
  /// bracket is an O(1) read of the subtree-sum column. K at or past
  /// numNodes() prunes nothing. The only allocation is the result
  /// vector, min(K, numNodes()) entries.
  std::vector<TopKRange> topK(size_t K) const;

  /// Due splits denied by the randomized admission gate (zero when
  /// Config.EnableAdmission is off).
  uint64_t numAdmissionDeniedSplits() const {
    return Pressure.AdmissionDeniedSplits;
  }

  /// Total weight of admission-denied arrivals: the closed-form extra
  /// error budget admission adds on top of eps*n (see Pressure.h).
  uint64_t admissionDeferredWeight() const {
    return Pressure.AdmissionDeferredWeight;
  }

  /// Current admission RNG position (serialized so a restored tree
  /// continues the identical decision stream).
  uint64_t admissionRngState() const { return AdmissionRngState; }

  /// Restores mid-stream admission state captured by a snapshot
  /// (deserialization hook used next to fromNodeSet): RNG position
  /// plus the two pressure counters the admission gate owns.
  void restoreAdmissionState(uint64_t RngState, uint64_t DeferredWeight,
                             uint64_t DeniedSplits) {
    AdmissionRngState = RngState;
    Pressure.AdmissionDeferredWeight = SaturatingWeight(DeferredWeight);
    Pressure.AdmissionDeniedSplits = DeniedSplits;
  }

  /// Extracts all hot ranges at hotness fraction \p Phi (Sec 4.1): a
  /// range is hot iff its count plus the weight of its non-hot
  /// sub-ranges is at least Phi * n. Results are in preorder
  /// (ancestors before descendants). One walk that skips every
  /// subtree lighter than Phi * n, since no node in it can be hot.
  std::vector<HotRange> extractHotRanges(double Phi) const;

  /// Prints the whole tree, one node per line, indented by depth, with
  /// hex ranges, counts, subtree weights and stream percentages.
  void dump(std::ostream &OS) const;

  /// Prints only the hot nodes at fraction \p Phi in the style of the
  /// paper's Fig 5 (hex range plus exclusive percentage), including the
  /// root for context.
  void dumpHot(std::ostream &OS, double Phi) const;

  /// Bytes charged per node, matching the paper's 128-bit node budget.
  static constexpr uint64_t BytesPerNode = 16;

private:
  uint32_t descendIndex(uint64_t X, unsigned &Width) const;
  uint64_t coverLo(uint64_t X, unsigned Width) const;
  bool admitSplit(uint64_t NewCount, uint64_t Weight);
  void trySplit(uint32_t Node, unsigned Width, uint64_t X, uint64_t Weight);
  void splitNode(uint32_t Node, unsigned Width);
  uint64_t splitAllocCount(uint32_t Node, unsigned Width) const;
  uint64_t forcedMergePass();
  void enforceNodeBudget();
  void mergeWalk(uint32_t Node, double Threshold, uint64_t &Removed,
                 uint64_t *FoldedWeight = nullptr);
  void unionWith(uint32_t Mine, const RapNode &Theirs);
  uint64_t hotWalk(uint32_t Node, uint64_t Lo, unsigned Width, unsigned Depth,
                   double Threshold, std::vector<HotRange> &Out) const;
  void topKWalk(uint32_t Node, uint64_t Lo, unsigned Width, unsigned Depth,
                uint64_t AncestorOwn, size_t K,
                std::vector<TopKRange> &Best) const;
  RangeBounds boundsWalk(uint64_t Lo, uint64_t Hi, bool WantUpper) const;
  void straddleWalk(uint32_t Node, uint64_t NodeLo, unsigned Width,
                    uint64_t Lo, uint64_t Hi, bool WantUpper,
                    RangeBounds &Bounds) const;
  void scheduleAfterMerge();
  void rebuildFence();
  void rebuildFenceWalk(uint32_t Node, uint64_t Lo, unsigned Width);

  RapConfig Config;
  detail::NodeArena Arena;
  uint64_t NumEvents = 0;
  uint64_t NumNodes = 1;
  uint64_t MaxNumNodes = 1;
  uint64_t NumSplits = 0;
  uint64_t NumMergePasses = 0;
  uint64_t NumMergedNodes = 0;
  uint64_t NextMergeAt;
  /// SplitMix64 position of the admission gate's private RNG stream;
  /// stepped inline in admitSplit and serialized verbatim, so a
  /// restored tree replays the identical decision sequence.
  uint64_t AdmissionRngState = 0;
  std::vector<uint64_t> MergeEventCounts;
  TreePressure Pressure;
  /// Cold-query filter (disabled unless Config.EnableRangeFence).
  /// Never serialized: rebuilt from counters wherever they move.
  RangeFence Fence;

  /// Root path of the previous addPoint: Finger[D] is its depth-D node
  /// covering FingerKey, from the root (Finger[0], always id 0) down to
  /// the landing node Finger[FingerLast]. Splits and revives only add
  /// nodes below a live node, so the path stays a root path through
  /// them; every pass that can kill or free nodes (mergeNow,
  /// forcedMergePass, absorb) cuts it back to the root. Update-path
  /// state only: const readers never use it and snapshots never carry
  /// it.
  static constexpr unsigned MaxPathLen = 65; // RangeBits 64, one bit a level
  uint32_t Finger[MaxPathLen] = {};
  unsigned FingerLast = 0;
  uint64_t FingerKey = 0;
  /// FingerDepth[K]: the deepest level at which two keys whose XOR is K
  /// bits wide still share a node, or 0 below MinResumeDepth (filled by
  /// the constructor).
  uint8_t FingerDepth[MaxPathLen] = {};
  /// Shallower shared prefixes descend from the root: resuming puts the
  /// table and path loads in front of the first navigation load and
  /// adds a data-dependent loop, which the few levels saved do not pay
  /// for on streams without locality (DESIGN.md §5.3).
  static constexpr unsigned MinResumeDepth = 4;
};

} // namespace rap

#endif // RAP_CORE_RAPTREE_H
