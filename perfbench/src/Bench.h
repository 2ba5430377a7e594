//===- perfbench/src/Bench.h - Shared workload plumbing --------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the workloads share: run options, the metric report, the
/// query mix, and the timed read-out of one RapTree (range battery,
/// topK, extractHotRanges, snapshot save and load).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Checker.h"
#include "Stats.h"
#include "Trace.h"

#include "core/RapTree.h"
#include "core/Serialization.h"
#include "support/BitUtils.h"
#include "support/Rng.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string SpansPath; ///< Where the traced run writes its spans.
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes; ///< Sample counts and failure messages.
  std::vector<std::vector<Span>> Spans; ///< One list per recorder.

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

Report runProgramProfile(const RunOptions &Options);
Report runQueryMixed(const RunOptions &Options);

/// SplitMix64 finalizer: scatters indices across a universe.
inline uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// One range query: [Lo, Hi] is a power-of-two-aligned block, so its
/// estimate is held to the error budget.
struct Query {
  uint64_t Lo = 0;
  uint64_t Hi = 0;
  bool Wide = false;
};

/// The aligned block of 2^WidthBits values around \p Anchor.
Query alignedQuery(uint64_t Anchor, unsigned WidthBits, bool Wide);

/// Query \p Index of the 90/10 mix, around \p Anchor: a narrow probe
/// (width 2^12..2^20) or, at 2 of every 20 indices (one even, one odd,
/// so both estimate calls get them), a wide sweep (2^24..2^RangeBits).
/// Widths follow the index, not a draw, so every seed's battery has the
/// same mix; a third of the sweeps span the whole universe, so the p99
/// lies well inside that class instead of on the edge of one.
Query mixQuery(size_t Index, uint64_t Anchor, unsigned RangeBits);

/// One answered query, kept for the untimed checker.
struct Answer {
  Query Q;
  bool IsBounds = false; ///< estimateRangeBounds rather than estimateRange.
  uint64_t Lower = 0;    ///< The estimate, or the bracket's lower end.
  uint64_t Upper = 0;    ///< The bracket's upper end.
};

/// Timing samples of the read path.
struct ReadSamples {
  std::vector<double> QueryUs;
  std::vector<double> TopKMs;
  std::vector<double> HotMs;
  std::vector<double> SaveMs;
  std::vector<double> LoadMs;
  void reserve(size_t Queries, size_t Others);
};

/// Runs \p Queries against \p Tree, alternating estimateRange and
/// estimateRangeBounds, timing each one. Traced runs add a span per
/// query and one span over the fence verdicts of the whole battery.
/// Returns the number of queries the fence proved cold (traced only).
uint64_t runQueries(const rap::RapTree &Tree, std::span<const Query> Queries,
                    Tracer &T, uint64_t Request, ReadSamples &Samples,
                    std::vector<Answer> &Answers);

/// topK(16) and extractHotRanges(Phi), each timed.
struct TopKAndHot {
  std::vector<rap::TopKRange> TopK;
  std::vector<rap::HotRange> Hot;
};
TopKAndHot runTopKAndHot(const rap::RapTree &Tree, double Phi, Tracer &T,
                         uint64_t Request, ReadSamples &Samples);

/// A timed snapshot save (capture + writeBinary) and load (readBinary +
/// restore), all in memory.
struct SnapshotRoundTrip {
  std::optional<rap::ProfileSnapshot> Captured;
  std::unique_ptr<rap::ProfileSnapshot> Read;
  std::unique_ptr<rap::RapTree> Restored;
  size_t Bytes = 0;
};
SnapshotRoundTrip saveAndLoad(const rap::RapTree &Tree, Tracer &T,
                              uint64_t Request, ReadSamples &Samples);

/// Checks answers of a 1-D tree against \p Count (the exact count of a
/// range) with the tree's error budget. Their ratios do not feed
/// err_over_bound, which comes from checkEveryNode alone: the answers
/// depend on which queries the seed drew.
template <typename CountFn>
void checkAnswers(Checker &C, const std::vector<Answer> &Answers,
                  double Budget, CountFn &&Count) {
  for (const Answer &A : Answers) {
    uint64_t Truth = Count(A.Q.Lo, A.Q.Hi);
    C.alignedEstimate(A.Lower, Truth, Budget, false);
    if (A.IsBounds)
      C.bracket(A.Lower, A.Upper, Truth);
  }
}

template <typename CountFn>
void checkTopK(Checker &C, const std::vector<rap::TopKRange> &TopK,
               CountFn &&Count) {
  for (const rap::TopKRange &R : TopK)
    C.bracket(R.LowerWeight, R.UpperWeight, Count(R.Lo, R.Hi));
}

template <typename CountFn>
void checkHot(Checker &C, const std::vector<rap::HotRange> &Hot,
              CountFn &&Count) {
  for (const rap::HotRange &H : Hot)
    C.require(H.SubtreeWeight <= Count(H.Lo, H.Hi),
              "hot range weight above the exact count");
}

/// Holds the range of every node of \p Tree to the budget: the
/// exhaustive form of the error check (untimed, O(nodes * depth)).
template <typename CountFn>
void checkEveryNode(Checker &C, const rap::RapTree &Tree, double Budget,
                    CountFn &&Count) {
  const rap::ProfileSnapshot Nodes = rap::ProfileSnapshot::capture(Tree);
  for (const rap::ProfileSnapshot::Node &N : Nodes.nodes()) {
    uint64_t Hi = N.Lo + rap::widthForBits(N.WidthBits);
    C.alignedEstimate(Tree.estimateRange(N.Lo, Hi), Count(N.Lo, Hi), Budget);
  }
}

/// Snapshot round trip must reproduce the captured profile exactly.
void checkSnapshot(Checker &C, const SnapshotRoundTrip &S);

/// Every end-to-end metric; a workload fills all of them.
struct EndToEnd {
  double SetupS = 0, IngestMevS = 0, BatchP50Us = 0, BatchP99Us = 0;
  double QueryP50Us = 0, QueryP99Us = 0, TopKP50Ms = 0, HotP50Ms = 0;
  double PeakHeapMiB = 0, ErrOverBound = 0, TopKRecall = 0;
};
void addEndToEnd(Report &R, const EndToEnd &E);

/// Every per-layer metric. A layer that is not on a workload's path
/// stays 0 there.
struct LayerMetrics {
  double UpdateNsPerEvent = 0, UpdateSplits = 0, NodesLive = 0, NodesPeak = 0;
  double MergePasses = 0, MergeNodesRemoved = 0, MergePauseMaxMs = 0,
         MergePauseTotalMs = 0;
  double Stage0PushNs[3] = {}, Stage0DrainNs[3] = {}, Stage0Ratio[3] = {};
  double MdrapNsPerEvent = 0, MdrapNodesPeak = 0, MdrapHeapBytes = 0;
  double QueryNarrowP50Us = 0, QueryWideP50Us = 0, QueryBoundsP50Us = 0;
  double FenceColdRate = 0, FenceCheckNs = 0, TopKWalkMs = 0, HotWalkMs = 0;
  double CaptureMs = 0, WriteMs = 0, ReadMs = 0, RestoreMs = 0,
         SnapshotBytes = 0;
  double SessionIngestNs = 0, SessionCombines = 0, ReaderQueryP99Us = 0,
         SpeedupVsSingleTree = 0, ScalingT3OverT1 = 0;
  double ArenaBytes = 0, BytesPerNode = 0, AllocCallsPerMev = 0,
         AllocBytesPerMev = 0;
  double TraceOverheadFrac = 0;
  double SnapshotSaveMs = 0, SnapshotLoadMs = 0, StaleKevP99 = 0,
         FailedFrac = 0;
};
void addLayerMetrics(Report &R, const LayerMetrics &L);

/// The session layer (ShardedRapSession) on a stream drawn from \p Seed:
/// fills the session.* metrics and stale_kev_p99 of \p L, adds its
/// operations to \p Rep.Attempted, its checks to \p C and its spans to
/// \p Rep.Spans. Part of query-mixed's traced run.
void measureSessionLayer(uint64_t Seed, Report &Rep, Checker &C,
                         LayerMetrics &L);

/// Fills the read-path layers (query.*, topk.*, hot.*, snapshot.*) from
/// spans grouped by totalsByName.
void fillReadLayers(LayerMetrics &L,
                    const std::map<std::string, LayerTotals> &Layers,
                    uint64_t FenceCold, uint64_t FenceChecked);

/// Merge pauses: each batch during which numMergePasses() rose, minus
/// the median batch time.
void fillMergePauses(LayerMetrics &L, const std::vector<double> &BatchUs,
                     const std::vector<bool> &BatchMerged);

/// Self time of the spans named \p Name, 0 when there are none.
double selfNs(const std::map<std::string, LayerTotals> &Layers,
              const std::string &Name);

/// Median wall seconds of \p Repeats calls of \p Setup.
template <typename Fn> double medianSetupSeconds(unsigned Repeats, Fn &&Setup);

/// Keeps the calling thread on CPU \p Cpu (modulo the CPU count), so
/// runs differ less in where the scheduler happened to put the threads.
/// Best effort: a refusal leaves the thread where it was.
void pinToCpu(unsigned Cpu);

/// The tail percentile \p P of \p V. A run that gathered too few
/// samples for it counts one failure in \p R and reports the maximum.
double tail(Report &R, const char *Name, const std::vector<double> &V,
            double P);

} // namespace perfbench

template <typename Fn>
double perfbench::medianSetupSeconds(unsigned Repeats, Fn &&Setup) {
  std::vector<double> Seconds;
  for (unsigned I = 0; I != Repeats; ++I) {
    int64_t Start = nowNs();
    Setup();
    Seconds.push_back(static_cast<double>(nowNs() - Start) / 1e9);
  }
  return median(std::move(Seconds));
}

#endif // PERFBENCH_BENCH_H
