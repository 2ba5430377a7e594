//===- core/RangeFence.h - Banded cold-range filter -----------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact per-tree filter that answers "is this query range
/// provably cold?" without walking the tree. If provablyCold(Lo, Hi)
/// returns true, no positive-count non-root node is fully contained
/// in [Lo, Hi], so RapTree::estimateRange is zero bit-exactly and its
/// walk can be skipped. estimateRangeBounds does not consult it: its
/// upper bound still needs the endpoint ancestor chains, which is all
/// its walk visits.
///
/// Soundness rests on how RapTree::estimateRange works: only nodes
/// fully contained in the query contribute, and every contribution
/// ultimately comes from a positive counter on a non-root node whose
/// WHOLE range the query contains (the root is contained only by the
/// full-universe query, which the tree special-cases before
/// consulting the fence). So the fence only has to answer: could this
/// query contain a positive-count node?
///
/// A single bitmap over value prefixes answers that badly: RAP keeps
/// residual counters on the wide interior nodes where weight
/// accumulated before they split, and one positive 2^30-wide node
/// would mark a quarter of a 32-bit universe warm — even though a
/// query narrower than that node can never contain it and therefore
/// can never see its counter. The filter is instead a stack of
/// BANDED bitmaps, one per node-width band, all at the same (finest)
/// bucket resolution:
///
///   - Band 0 holds nodes no wider than one bucket; each coarser band
///     holds the next LevelStep node widths, up to the universe.
///   - A node marks its full bucket range on the single band matching
///     its width. Band-0 nodes set exactly one bit (aligned ranges at
///     most one bucket wide never straddle a bucket boundary), so
///     first-touch marking in addPoint stays O(1) — leaf and
///     near-leaf nodes, the overwhelming majority, are band 0. Wider
///     nodes touch more words, but they are few and each marks once
///     per rebuild epoch.
///   - A query consults a band only when it is wide enough to contain
///     the narrowest node that band can hold. Narrow queries never
///     look at the wide bands, so the wide residual counters are
///     invisible to exactly the queries they cannot affect — while
///     wide queries still see every band at full bucket resolution.
///
/// If a positive node N is fully inside [Lo, Hi], the query's span is
/// at least N's span, so N's band is consulted, and N's buckets lie
/// inside the query's bucket range — the scan sees the mark. Hence
/// provablyCold implies a bit-exact zero estimate. The converse does
/// not hold (bucket granularity): a set bit merely means "walk the
/// tree". The fence never changes an answer, only skips provably-zero
/// walks; the fuzzer's --fence twin mode checks exactly that.
///
/// The tree marks on a counter's 0 -> positive transition (addPoint
/// first touch) and rebuilds the bands from scratch after anything
/// that moves counters wholesale: batched and forced merges, absorb,
/// and node-set restore. The rebuild doubles as a precision reset —
/// weight folded upward re-marks on its new (wider) band and
/// abandoned buckets read cold again. The filter is query
/// acceleration only and is never serialized; a restored tree
/// re-derives it.
///
/// Memory: at the default 12-bit prefix and 4-bit band step, at most
/// four 4096-bit bitmaps — 2 KiB per tree.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_CORE_RANGEFENCE_H
#define RAP_CORE_RANGEFENCE_H

#include <cstdint>
#include <vector>

namespace rap {

/// Banded cold-range bitmap stack. Default-constructed it is disabled
/// (every query reads as possibly-warm); init() arms it for a
/// universe size.
class RangeFence {
public:
  /// log2 bucket count of every band: 2^12 buckets = 512 bytes per
  /// band, small enough to sit hot next to the arena slabs while
  /// still resolving 1/4096th of the universe.
  static constexpr unsigned MaxPrefixBits = 12;

  /// Node widths covered by each band past the first: band 0 takes
  /// everything up to one bucket wide, later bands take LevelStep
  /// widths each (so at most 1 + MaxPrefixBits / LevelStep bands).
  static constexpr unsigned LevelStep = 4;

  RangeFence() = default;

  /// Arms the fence for the universe [0, 2^RangeBits), all buckets
  /// cold. Also the reset used by rebuilds.
  void init(unsigned UniverseBits);

  /// True once init() has run; a disabled fence answers no query.
  bool enabled() const { return !Levels.empty(); }

  /// Drops every bucket back to cold (band geometry kept).
  void clear();

  /// Marks the node [Lo, Lo + 2^WidthBits) as carrying a positive
  /// counter, on the band matching its width. \p Lo must be
  /// 2^WidthBits-aligned (RAP node ranges always are) and
  /// \p WidthBits at most the universe width. One bit for nodes up to
  /// a bucket wide; a masked word sweep for wider ones.
  void markNode(uint64_t Lo, unsigned WidthBits);

  /// True when no node marked so far can be fully contained in
  /// [Lo, Hi]. Endpoints beyond the universe clamp to the last
  /// bucket. False on a disabled fence.
  bool provablyCold(uint64_t Lo, uint64_t Hi) const;

  /// Marked buckets on band 0 — the up-to-one-bucket-wide nodes (for
  /// stats and bench metrics, not on any query path).
  uint64_t warmBuckets() const;

  /// Bucket count of each band (0 when disabled).
  uint64_t numBuckets() const;

  /// log2 of numBuckets().
  unsigned prefixBits() const;

private:
  struct Level {
    /// Narrowest node width this band holds (0 on band 0). A query
    /// narrower than 2^MinWidthBits cannot contain any node marked
    /// here and skips the band.
    unsigned MinWidthBits = 0;
    unsigned MaxWidthBits = 0; ///< Widest node width this band holds.
    std::vector<uint64_t> Bits;
  };

  uint64_t bucketOf(uint64_t X) const;

  unsigned PrefixBits = 0; ///< Each band is 2^PrefixBits bits.
  unsigned Shift = 0;      ///< UniverseBits - PrefixBits.
  std::vector<Level> Levels; ///< Narrowest band first.
};

} // namespace rap

#endif // RAP_CORE_RANGEFENCE_H
