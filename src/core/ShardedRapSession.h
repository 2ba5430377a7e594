//===- core/ShardedRapSession.h - Concurrent sharded ingest ---*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrent ingest front-end for RapTree. The paper's profiler is a
/// hardware unit fed by one event stream; the software port so far
/// kept that shape — a single tree, single writer. This session
/// shards the stream across mutex-protected delta trees so many
/// threads can ingest at once:
///
///   * ingest hashes the event value (splitmix64 finalizer) to one
///     of S shards and updates that shard's private delta tree under
///     its own mutex — two threads contend only when their events
///     hash to the same shard;
///   * a combiner periodically absorbs every delta into one combined
///     tree (RapTree::absorb sums counters node-by-node) and resets
///     the deltas. Combines trigger on ingested-event counts, never
///     on wall-clock, so runs are deterministic for a fixed
///     interleaving and the core stays free of time sources.
///
/// Accuracy: each delta tree maintains the eps*n_shard guarantee over
/// its own slice, and absorb's union preserves lower bounds, so any
/// range estimate read from the combined tree under-counts by at most
/// eps * n_total (see RapTree::absorb). Event counts are exact: every
/// unit of ingested weight is in exactly one tree at any instant.
///
/// Lock discipline: each shard's delta state is guarded by that
/// shard's IngestMu, the combined tree by CombineMu, and CombineMu is
/// always acquired before any IngestMu — the combiner holds at most
/// one shard lock at a time, so ingest on the other shards proceeds
/// while it drains. The ThreadSanitizer leg (tools/ci.sh) checks this
/// on every path the threaded tests in ShardedRapSessionTest run: an
/// unlocked access is a data race report and an acquisition against
/// the order is a lock-order-inversion report, and either fails the
/// leg. A lock path no test runs goes unchecked on g++; a Clang build
/// with -Wthread-safety would check every RAP_GUARDED_BY access
/// statically, but the g++-only CI image never runs that leg.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_CORE_SHARDEDRAPSESSION_H
#define RAP_CORE_SHARDEDRAPSESSION_H

#include "core/RapConfig.h"
#include "core/RapTree.h"
#include "support/Annotations.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace rap {

/// A sharded, mutex-per-shard concurrent ingest session over RapTree.
///
/// Thread-safe: ingest, combineNow and every query may be called
/// concurrently from any thread. Queries serve the combined view as
/// of the last combine (totalEvents additionally folds in pending
/// shard deltas); call combineNow() first when a query must observe
/// all prior ingest.
class ShardedRapSession {
public:
  /// Creates a session with \p ShardCount ingest shards (rounded up
  /// to a power of two, clamped to [1, MaxShards]). \p CombineEvery
  /// is the per-shard pending-weight watermark that triggers an
  /// automatic combine; 0 disables automatic combining (callers then
  /// drive combineNow() themselves). Throws std::invalid_argument if
  /// \p Config does not validate, before any shard is built.
  explicit ShardedRapSession(const RapConfig &Config, unsigned ShardCount,
                             uint64_t CombineEvery = DefaultCombineEvery);

  ShardedRapSession(const ShardedRapSession &) = delete;
  ShardedRapSession &operator=(const ShardedRapSession &) = delete;

  /// Records \p Weight occurrences of event \p X in X's shard. When
  /// the shard's pending weight crosses the combine watermark, runs a
  /// full combine after releasing the shard lock.
  void ingest(uint64_t X, uint64_t Weight = 1);

  /// Absorbs every shard's delta tree into the combined tree and
  /// resets the deltas. Holds CombineMu throughout but only one shard
  /// lock at a time. Safe to call concurrently with ingest; events
  /// added to a shard after its drain surface at the next combine.
  void combineNow();

  /// Exact total ingested weight: the combined tree's count plus all
  /// pending shard deltas.
  uint64_t totalEvents() const;

  /// Lower-bound estimate over [Lo, Hi] (inclusive) from the combined
  /// view as of the last combine; under-counts the combined stream by
  /// at most eps * n. See RapTree::estimateRange.
  uint64_t combinedEstimate(uint64_t Lo, uint64_t Hi) const;

  /// Deterministic bracket on a range count from the combined view.
  RapTree::RangeBounds combinedEstimateBounds(uint64_t Lo,
                                              uint64_t Hi) const;

  /// True when the combined tree's range fence proves [Lo, Hi] holds
  /// no combined weight (see RapTree::rangeProvablyCold). Pending
  /// shard deltas are NOT consulted: like every other query, the
  /// answer is the combined view as of the last combine.
  bool combinedRangeProvablyCold(uint64_t Lo, uint64_t Hi) const;

  /// Hot ranges of the combined view at hotness fraction \p Phi.
  std::vector<HotRange> combinedHotRanges(double Phi) const;

  /// Top \p K hottest ranges of the whole session, pending shard
  /// deltas included. Candidates are the per-tree topK(K) sets of the
  /// combined tree and every shard delta, merged by range identity
  /// (Lo, WidthBits) and then re-bracketed as the sum of
  /// estimateRangeBounds over *all* trees — a tree that did not
  /// nominate a range still holds part of its weight, so summing
  /// uppers only over nominating trees would under-state the bound.
  /// Retained carries the summed lower bracket (the ranking score);
  /// entries are ordered by it, ties broken by (Lo, WidthBits).
  /// Each tree is read once under its own lock, so concurrent ingest
  /// between reads can only raise a later tree's contribution; call
  /// combineNow() first (or quiesce writers) when the report must
  /// reflect one consistent cut of the stream.
  std::vector<TopKRange> topKRanges(size_t K) const;

  /// Number of combine passes run so far (scheduled and manual).
  uint64_t numCombines() const;

  /// Node count of the combined tree (pending deltas excluded).
  uint64_t combinedNodes() const;

  /// The actual shard count after rounding.
  unsigned shardCount() const { return ShardCount; }

  /// The shard index \p X hashes to — exposed for tests and for the
  /// sharded fuzz driver's per-shard accounting.
  unsigned shardIndexFor(uint64_t X) const;

  /// The configuration every tree in the session was built with.
  const RapConfig &config() const { return Config; }

  static constexpr uint64_t DefaultCombineEvery = 1 << 16;
  static constexpr unsigned MaxShards = 64;

private:
  /// One ingest shard. The mutexes are mutable so const queries
  /// (totalEvents, topKRanges) can take them.
  struct Shard {
    mutable std::mutex IngestMu;
    /// Delta tree holding events ingested since the last combine.
    std::unique_ptr<RapTree> ShardDelta RAP_GUARDED_BY(IngestMu);
    /// Ingested weight since the last combine; drives the watermark.
    uint64_t PendingSinceCombine RAP_GUARDED_BY(IngestMu) = 0;
  };

  // Lock order: CombineMu before any shard's IngestMu.

  RapConfig Config;
  uint64_t CombineEvery;
  unsigned ShardCount;
  unsigned ShardMask;
  std::vector<std::unique_ptr<Shard>> Shards;

  mutable std::mutex CombineMu;
  /// Union of every drained delta; what queries read.
  std::unique_ptr<RapTree> CombinedTree RAP_GUARDED_BY(CombineMu);
  uint64_t NumCombines RAP_GUARDED_BY(CombineMu) = 0;
};

} // namespace rap

#endif // RAP_CORE_SHARDEDRAPSESSION_H
