//===- verify/StreamFuzzer.h - Adversarial stream generator ---*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, fully deterministic generation of adversarial event streams
/// for the verification subsystem. A StreamFuzzer draws events of one
/// of several shapes chosen to stress distinct parts of the RAP
/// algorithm: the split threshold (point masses, Zipf heads), the
/// batched merge (shifting phases that abandon previously hot
/// regions), split/merge hysteresis (sawtooth around an aligned
/// boundary), node-count bounds (all-distinct, uniform), and range
/// arithmetic (universe-edge values, weighted bursts).
///
/// deriveEpisode() expands (master seed, episode index) into a random
/// RapConfig plus a stream shape and seed, so a failing episode is
/// fully described by two integers — the replay line the fuzz driver
/// prints. runFuzzEpisode() feeds the stream through a
/// DifferentialOracle, running both that oracle's query battery and
/// the structural TreeInvariants audit every CheckEvery events.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_VERIFY_STREAMFUZZER_H
#define RAP_VERIFY_STREAMFUZZER_H

#include "core/RapConfig.h"
#include "support/Rng.h"
#include "verify/TreeInvariants.h"

#include <cstdint>
#include <vector>

namespace rap {

/// Stream shapes the fuzzer can generate. Each stresses a different
/// mechanism; see the file comment.
enum class StreamShape : unsigned {
  Uniform,        ///< i.i.d. uniform over the universe.
  Zipf,           ///< Heavy-tailed ranks hashed across the universe.
  PointMass,      ///< One value takes most of the mass.
  ShiftingPhase,  ///< Hot region relocates every phase (merge stress).
  Sawtooth,       ///< Triangle wave across an aligned boundary.
  AllDistinct,    ///< A value never repeats (until universe wrap).
  UniverseEdges,  ///< 0, 2^k boundaries, and 2^R - 1 extremes.
  WeightedBursts, ///< Uniform values with occasional huge weights.
};

/// Number of StreamShape enumerators (for random selection).
constexpr unsigned NumStreamShapes = 8;

/// Stable name of \p Shape for logs and replay lines.
const char *streamShapeName(StreamShape Shape);

/// One stream event.
struct StreamEvent {
  uint64_t X;
  uint64_t Weight;
};

/// Deterministic generator of one stream: same (Seed, Shape,
/// RangeBits) always yields the same event sequence on every platform.
class StreamFuzzer {
public:
  StreamFuzzer(uint64_t Seed, StreamShape StreamKind, unsigned Bits);

  /// Draws the next event. Values are always inside [0, 2^RangeBits).
  /// About one event in 128 carries weight zero, to exercise the
  /// zero-weight no-op path.
  StreamEvent next();

  StreamShape shape() const { return Shape; }

private:
  uint64_t drawValue();

  Rng R;
  StreamShape Shape;
  unsigned RangeBits;
  uint64_t UniverseHi;

  // Shape-specific state, initialized in the constructor.
  uint64_t HotValue = 0;     // PointMass
  double HotProb = 0.9;      // PointMass
  uint64_t ZipfSalt = 0;     // Zipf value hashing
  std::vector<double> ZipfCdf;
  uint64_t PhaseLen = 4096;  // ShiftingPhase
  uint64_t PhaseLeft = 0;    // ShiftingPhase
  unsigned RegionBits = 0;   // ShiftingPhase
  uint64_t RegionLo = 0;     // ShiftingPhase
  uint64_t Boundary = 0;     // Sawtooth
  uint64_t Amplitude = 1;    // Sawtooth
  uint64_t SawStep = 0;      // Sawtooth
  uint64_t Counter = 0;      // AllDistinct
  uint64_t OddStep = 1;      // AllDistinct
};

/// A fully derived fuzz episode: everything needed to replay it.
struct FuzzEpisode {
  uint64_t MasterSeed = 0;
  uint64_t Index = 0;
  uint64_t StreamSeed = 0;
  StreamShape Shape = StreamShape::Uniform;
  RapConfig Config;

  /// Stage-0 combining buffer capacity for the tree-side stream
  /// (0 = feed the tree directly). Nonzero episodes exercise the
  /// combining buffer + arena descent path end to end.
  uint64_t CombineCapacity = 0;

  /// When nonzero, the arena-allocation failpoint is armed to throw
  /// std::bad_alloc on the next slab growth once every this many
  /// events, exercising the degraded split-refusal path.
  uint64_t AllocFailEvery = 0;

  /// Run the end-of-episode snapshot robustness battery: binary
  /// round-trip, then seeded one-byte corruptions and truncations of
  /// the byte stream, every one of which must be rejected.
  bool SnapshotChecks = false;

  /// When nonzero (rap_fuzz --sorted), the stream is drawn in windows
  /// of this many events and each window is delivered in ascending
  /// order, the order stage-0 drains hand the tree: consecutive
  /// updates share long root paths, which is what the finger descent
  /// resumes from. Every oracle sees the delivered (sorted) stream.
  uint64_t SortWindow = 0;

  /// Fence-mode episode (rap_fuzz --fence): the episode is run by
  /// runFenceFuzzEpisode, which drives a fence-ON tree through the
  /// full oracle battery while cross-checking a fence-OFF twin fed
  /// the identical stream bit for bit.
  bool FenceTwin = false;

  /// Sharded-mode parameters (rap_fuzz --sharded). ShardThreads > 0
  /// marks a sharded episode: that many ingest threads drive one
  /// ShardedRapSession with SessionShards shards and an automatic
  /// combine watermark of ShardCombineEvery (0 = manual combines
  /// only, a final combineNow before checking).
  unsigned ShardThreads = 0;
  unsigned SessionShards = 0;
  uint64_t ShardCombineEvery = 0;
};

/// Expands (master seed, episode index) into a random valid RapConfig,
/// stream shape, and stream seed. Deterministic and platform-stable.
FuzzEpisode deriveEpisode(uint64_t MasterSeed, uint64_t Index);

/// Like deriveEpisode (identical config/stream for the same inputs)
/// but additionally draws a stage-0 combining capacity, so the stream
/// reaches the tree through StageZeroBuffer windows while the exact
/// and flat oracles still see the raw stream.
FuzzEpisode deriveArenaEpisode(uint64_t MasterSeed, uint64_t Index);

/// Like deriveEpisode (identical config/stream for the same inputs)
/// but additionally draws a resource-governance regime — a node or
/// byte budget on the tree, a periodic injected allocation failure,
/// or both — and enables the end-of-episode snapshot robustness
/// battery. The invariant checks run after every injected fault, so a
/// clean fault episode certifies graceful degradation end to end.
FuzzEpisode deriveFaultEpisode(uint64_t MasterSeed, uint64_t Index);

/// Like deriveEpisode (identical config/stream for the same inputs)
/// but additionally draws a thread count, shard count, and combine
/// watermark for concurrent ingest through ShardedRapSession.
FuzzEpisode deriveShardedEpisode(uint64_t MasterSeed, uint64_t Index);

/// Like deriveEpisode (identical config/stream for the same inputs)
/// but with the randomized split-admission gate enabled: draws an
/// admission coarseness from {1, 2, 4, 8} and an admission seed, so an
/// episode replays deterministically including every admit/deny
/// decision.
FuzzEpisode deriveAdmissionEpisode(uint64_t MasterSeed, uint64_t Index);

/// Like deriveEpisode (identical config/stream for the same inputs)
/// but delivered in sorted windows (a drawn SortWindow of 16 to 16384
/// events), with a drawn regime on top: nothing, the admission gate,
/// or a 64-node budget whose forced passes cut the finger back. The
/// oracle cross-checks the legacy tree (which always descends from
/// the root) in all three.
FuzzEpisode deriveSortedEpisode(uint64_t MasterSeed, uint64_t Index);

/// Like deriveEpisode (identical config/stream for the same inputs)
/// but marked as a fence-twin episode, with a drawn governance regime
/// layered on top: nothing, the randomized admission gate, a node or
/// byte budget, or both at once. Every drawn regime is deterministic
/// per tree (the admission RNG is seeded per tree, budget passes are
/// deterministic), so the fence-ON and fence-OFF twins stay
/// bit-identical — which is exactly the property the episode checks.
/// Injected allocation faults are deliberately never drawn: the
/// failpoint counter is process-global, so the armed failure would
/// land in whichever twin allocates next and they would lawfully
/// diverge.
FuzzEpisode deriveFenceEpisode(uint64_t MasterSeed, uint64_t Index);

/// Result of running one episode.
struct FuzzReport {
  /// Violations from the differential oracle, the online transition
  /// auditor, and the structural audit, in detection order.
  std::vector<InvariantViolation> Violations;

  /// Events fed when the first failing check ran (== NumEvents for a
  /// clean episode: the run stops at the first failing checkpoint).
  uint64_t EventsFed = 0;

  bool ok() const { return Violations.empty(); }
};

/// Feeds \p NumEvents events of the episode's stream into a
/// DifferentialOracle, running the full query battery plus a
/// structural TreeInvariants audit every \p CheckEvery events (0 means
/// check only once, after the last event). Stops at the first failing
/// checkpoint.
FuzzReport runFuzzEpisode(const FuzzEpisode &Episode, uint64_t NumEvents,
                          uint64_t CheckEvery);

/// Runs one sharded episode: ShardThreads threads concurrently ingest
/// deterministic per-thread sub-streams (thread t draws from a seed
/// derived from (StreamSeed, t), splitting NumEvents evenly) into one
/// ShardedRapSession, racing the watermark-triggered combiner. After
/// the threads join and a final combine, the merged profile is
/// cross-checked against a sequential ExactProfiler replay of the
/// identical sub-streams: total weight must match exactly, the
/// whole-universe estimate must equal it, range estimates must be
/// lower bounds, and estimate brackets must contain the exact count.
/// The interleaving is nondeterministic; every checked property holds
/// for every interleaving, which is the point — a duplicated shard
/// delta breaks the lower bound, a lost or torn one breaks
/// conservation. (The statistical eps-accuracy model stays with the
/// single-threaded fuzz legs: its slack terms depend on the merge
/// history, which combining multiplies.)
FuzzReport runShardedFuzzEpisode(const FuzzEpisode &Episode,
                                 uint64_t NumEvents);

/// Runs one admission episode. The admission-ON tree goes through the
/// full DifferentialOracle battery — which enforces the closed-form
/// deferred-weight error bound on top of eps * n and the top-k report
/// properties — while a second, admission-OFF tree is fed the
/// identical stream. At every checkpoint the two trees are
/// cross-checked on properties that hold regardless of which splits
/// were admitted: exact event-count agreement, whole-universe
/// conservation on both, truth-containing estimate brackets on both
/// for the same random ranges, per-tree top-k nesting (topK(k) is a
/// field-for-field prefix of topK(k + m)), and admission accounting
/// (the OFF tree records no denials; ON-tree deferred weight implies
/// denials). Cross-TREE subset relations are deliberately NOT
/// checked: denying a split changes which ranges exist, so neither
/// tree's top-k need contain the other's.
FuzzReport runAdmissionFuzzEpisode(const FuzzEpisode &Episode,
                                   uint64_t NumEvents, uint64_t CheckEvery);

/// Runs one fence episode. The fence-ON tree goes through the full
/// DifferentialOracle battery (with the oracle's own fence twin
/// disabled — this runner IS the twin check) while a fence-OFF tree
/// is fed the identical stream. At every checkpoint the runner
/// requires bit-for-bit agreement on node counts, range estimates,
/// estimate brackets, and topK reports for the same drawn queries,
/// and checks fence soundness directly: any range the fenced tree
/// proves cold must estimate to zero on the UNFENCED tree (the fence
/// never consulted). Both trees also pass the structural audit.
FuzzReport runFenceFuzzEpisode(const FuzzEpisode &Episode,
                               uint64_t NumEvents, uint64_t CheckEvery);

/// Shrinks a failing episode to a short failing prefix: binary-searches
/// the smallest event count whose end-of-stream check still fails.
/// Violations need not be monotone in the prefix length, so this is a
/// heuristic — it always returns *some* failing prefix length, at most
/// \p FailingEvents (which must itself fail with an end-only check;
/// if it does not, FailingEvents is returned unchanged).
uint64_t minimizeFailure(const FuzzEpisode &Episode, uint64_t FailingEvents);

} // namespace rap

#endif // RAP_VERIFY_STREAMFUZZER_H
