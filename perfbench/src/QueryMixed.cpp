//===- perfbench/src/QueryMixed.cpp - Workload query-mixed ----------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Reads dominate, writes continue. A profile (eps = 1e-2, 32-bit
// universe) is warmed during set-up with a stream that is Zipf
// distributed inside 16 scattered windows of width 2^20. The measured
// load is a closed loop of rounds; each round issues
//
//   - one update slice of the same stream (the fixed-size ingest batch);
//   - a burst of range queries, 90% narrow probes (2^12..2^20) placed
//     anywhere in the universe and 10% wide sweeps (2^24..2^32),
//     alternating estimateRange and estimateRangeBounds;
//   - one topK(16) and one extractHotRanges(0.01);
//   - every few rounds, a snapshot checkpoint (save and load).
//
// Rounds run in epochs: each epoch rebuilds the warm tree (untimed)
// and replays the same rounds, so every epoch walks the same tree
// states, a scheduled merge pass included, however fast the machine
// runs. Single-threaded; stage 0, the 2-D tree and the
// session are bypassed. The exact reference is a Fenwick tree over the
// stream's distinct values, updated after every slice, so every answer
// of every round is checked against the exact count at that point.
//
// The traced run also measures the session layer (measureSessionLayer),
// which no workload runs on its own.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "CountingAlloc.h"

#include "baselines/ExactProfiler.h"
#include "support/BitUtils.h"
#include "support/Distributions.h"

#include <algorithm>

using namespace perfbench;
using namespace rap;

namespace {

constexpr unsigned RangeBits = 32;
/// Coarser than the 1e-4 first planned, so that the tree (about 3000
/// nodes, 300 KB) stays in a core's own L2 cache. On a shared host the
/// L3 cache is not the run's own: a dependent walk over 8 MB took from
/// 85 to 437 ms within one minute while one over 256 KB stayed within
/// 10%. At 1e-4 (10 MB) the tree walks moved by 40 to 50% between runs,
/// at 1e-3 (1 MB) ingest_mev_s still by up to 26%.
constexpr double Epsilon = 1e-2;
constexpr unsigned NumWindows = 16;
constexpr unsigned WindowBits = 20;
/// Just short of the merge scheduled at 2^21 events, which therefore
/// runs inside every epoch.
constexpr uint64_t WarmEvents = 2'050'000;
constexpr size_t SliceEvents = 1024;
constexpr size_t RoundsPerEpoch = 64;
constexpr size_t QueriesPerRound = 64;
constexpr size_t QuerySets = 8; ///< Epochs rotate through the query sets.
constexpr unsigned CheckpointEvery = 8;
constexpr double HotPhi = 0.01;
constexpr unsigned SetupRepeats = 9;

RapConfig treeConfig() {
  RapConfig C;
  C.RangeBits = RangeBits;
  C.Epsilon = Epsilon;
  return C;
}

struct Inputs {
  std::vector<uint64_t> Warm;
  std::vector<uint64_t> Pool; ///< One update slice per round of an epoch.
  std::vector<Query> Queries;
};

/// The seed draws the stream and the queries; the windows and each
/// rank's place in its window are fixed, so seeds differ in the draws
/// only, not in the shape of the profile.
Inputs generateInputs(uint64_t Seed) {
  Inputs In;
  Rng R(Seed ^ 0x686f7453ULL);
  ZipfDistribution Zipf(1 << 14, 1.1);
  auto Draw = [&] {
    uint64_t Window = R.nextBelow(NumWindows);
    uint64_t Base = mix64(Window) & widthForBits(RangeBits) &
                    ~widthForBits(WindowBits);
    return Base + (mix64(Zipf.sample(R) ^ (Window << 32)) &
                   widthForBits(WindowBits));
  };
  In.Warm.reserve(WarmEvents);
  for (uint64_t I = 0; I != WarmEvents; ++I)
    In.Warm.push_back(Draw());
  In.Pool.reserve(RoundsPerEpoch * SliceEvents);
  for (size_t I = 0; I != RoundsPerEpoch * SliceEvents; ++I)
    In.Pool.push_back(Draw());
  Rng Q(Seed ^ 0x71687453ULL);
  In.Queries.reserve(QuerySets * RoundsPerEpoch * QueriesPerRound);
  for (size_t I = 0; I != QuerySets * RoundsPerEpoch * QueriesPerRound; ++I)
    In.Queries.push_back(mixQuery(I, Q.next(), RangeBits));
  return In;
}

/// Exact counts of the stream so far: a Fenwick tree over the sorted
/// distinct values of the warm stream and the update pool.
class ExactIndex {
public:
  explicit ExactIndex(const Inputs &In) {
    Values = In.Warm;
    Values.insert(Values.end(), In.Pool.begin(), In.Pool.end());
    std::sort(Values.begin(), Values.end());
    Values.erase(std::unique(Values.begin(), Values.end()), Values.end());
    Counts.assign(Values.size(), 0);
    Fenwick.assign(Values.size() + 1, 0);
    for (uint64_t X : In.Warm)
      add(indexOf(X));
    PoolIndex.reserve(In.Pool.size());
    for (uint64_t X : In.Pool)
      PoolIndex.push_back(indexOf(X));
    WarmCounts = Counts;
    WarmFenwick = Fenwick;
    WarmTotal = Total;
  }

  /// Back to the warm stream (no allocation: same sizes).
  void rewind() {
    std::copy(WarmCounts.begin(), WarmCounts.end(), Counts.begin());
    std::copy(WarmFenwick.begin(), WarmFenwick.end(), Fenwick.begin());
    Total = WarmTotal;
  }

  void addPoolSlice(size_t Slice) {
    for (size_t I = 0; I != SliceEvents; ++I)
      add(PoolIndex[Slice * SliceEvents + I]);
  }
  uint64_t numEvents() const { return Total; }
  uint64_t count(uint64_t Lo, uint64_t Hi) const {
    size_t A = std::lower_bound(Values.begin(), Values.end(), Lo) -
               Values.begin();
    size_t B = std::upper_bound(Values.begin(), Values.end(), Hi) -
               Values.begin();
    return prefix(B) - prefix(A);
  }
  /// The 16 values with the highest exact counts.
  std::vector<uint64_t> topValues() const {
    std::vector<uint32_t> Order(Values.size());
    for (uint32_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    size_t K = std::min<size_t>(16, Order.size());
    std::partial_sort(Order.begin(), Order.begin() + K, Order.end(),
                      [&](uint32_t A, uint32_t B) {
                        return Counts[A] != Counts[B] ? Counts[A] > Counts[B]
                                                      : A < B;
                      });
    std::vector<uint64_t> Top;
    for (size_t I = 0; I != K; ++I)
      Top.push_back(Values[Order[I]]);
    return Top;
  }

private:
  uint32_t indexOf(uint64_t X) const {
    return static_cast<uint32_t>(
        std::lower_bound(Values.begin(), Values.end(), X) - Values.begin());
  }
  void add(uint32_t I) {
    ++Counts[I];
    ++Total;
    for (size_t J = I + 1; J < Fenwick.size(); J += J & (~J + 1))
      ++Fenwick[J];
  }
  uint64_t prefix(size_t N) const {
    uint64_t S = 0;
    for (size_t J = N; J != 0; J -= J & (~J + 1))
      S += Fenwick[J];
    return S;
  }

  std::vector<uint64_t> Values;
  std::vector<uint64_t> Counts;
  std::vector<uint64_t> Fenwick;
  std::vector<uint32_t> PoolIndex;
  uint64_t Total = 0;
  std::vector<uint64_t> WarmCounts, WarmFenwick;
  uint64_t WarmTotal = 0;
};

} // namespace

Report perfbench::runQueryMixed(const RunOptions &Opt) {
  // Set-up: input generation, construction and warm-up; repeated, and
  // the median reported.
  std::unique_ptr<Inputs> In;
  std::unique_ptr<RapTree> Tree;
  double SetupSeconds = medianSetupSeconds(SetupRepeats, [&] {
    Tree.reset();
    In.reset();
    In = std::make_unique<Inputs>(generateInputs(Opt.Seed));
    Tree = std::make_unique<RapTree>(treeConfig());
    for (uint64_t X : In->Warm)
      Tree->addPoint(X);
  });
  ExactIndex Ref(*In);
  Checker C;
  // Timed probes land anywhere, so most are provably cold; every node
  // range of the warm tree is held to the budget once, up front.
  checkEveryNode(C, *Tree, errorBudget(*Tree, 1),
                 [&](uint64_t Lo, uint64_t Hi) { return Ref.count(Lo, Hi); });
  const uint64_t WarmSplits = Tree->numSplits();
  const uint64_t WarmPasses = Tree->numMergePasses();
  const uint64_t WarmMerged = Tree->numMergedNodes();

  // Every sample buffer is sized up front, with room for several times
  // the rounds a 45 s run makes today (2M queries). A buffer that grew
  // mid-run would count in peak_heap_mib, which is the profiler's heap.
  ReadSamples Samples, TracedSamples;
  for (ReadSamples *S : {&Samples, &TracedSamples})
    S->reserve(1 << 23, 1 << 19);
  std::vector<double> BatchUs, TracedBatchUs, Recalls, SnapshotBytes,
      EpochMevS;
  std::vector<bool> BatchMerged;
  for (auto *V :
       {&BatchUs, &TracedBatchUs, &Recalls, &SnapshotBytes, &EpochMevS})
    V->reserve(1 << 19);
  BatchMerged.reserve(1 << 19);
  std::vector<Answer> Answers;
  Answers.reserve(QueriesPerRound);
  Tracer T(false, Opt.Trace ? 1 << 16 : 0);
  uint64_t Attempted = 0, PeakBytes = 0, FenceCold = 0, FenceChecked = 0;
  uint64_t Events = 0, TracedEvents = 0;
  int64_t IngestNs = 0, TracedIngestNs = 0;
  uint64_t AllocCalls = 0, AllocBytes = 0;

  const size_t Needed = samplesNeededFor(99);
  int64_t Deadline = nowNs() + static_cast<int64_t>(Opt.Seconds * 1e9);
  for (uint64_t Epoch = 0;; ++Epoch) {
    bool Enough = BatchUs.size() >= Needed &&
                  (!Opt.Trace || TracedBatchUs.size() >= Needed);
    if (Enough && nowNs() >= Deadline)
      break;
    // The traced run alternates untraced and traced epochs.
    T.setEnabled(Opt.Trace && Epoch % 2 == 1);
    ReadSamples &RS = T.enabled() ? TracedSamples : Samples;
    Tree.reset();
    uint64_t EpochBase = heap::read().LiveBytes;
    heap::resetPeak();
    Tree = std::make_unique<RapTree>(treeConfig());
    for (uint64_t X : In->Warm)
      Tree->addPoint(X);
    Ref.rewind();

    int64_t EpochIngestNs = 0;
    for (uint64_t Round = 0; Round != RoundsPerEpoch; ++Round) {
      uint64_t Request = Epoch * RoundsPerEpoch + Round;
      const uint64_t *Updates = In->Pool.data() + Round * SliceEvents;
      heap::Counters Before = heap::read();
      uint64_t PassesBefore = Tree->numMergePasses();
      int64_t Start = nowNs();
      {
        ScopedSpan S(T, "update", Request);
        for (size_t I = 0; I != SliceEvents; ++I)
          Tree->addPoint(Updates[I]);
      }
      int64_t Took = nowNs() - Start;
      if (T.enabled()) {
        TracedBatchUs.push_back(static_cast<double>(Took) / 1e3);
        TracedEvents += SliceEvents;
        TracedIngestNs += Took;
      } else {
        heap::Counters After = heap::read();
        AllocCalls += After.Calls - Before.Calls;
        AllocBytes += After.Bytes - Before.Bytes;
        BatchUs.push_back(static_cast<double>(Took) / 1e3);
        BatchMerged.push_back(Tree->numMergePasses() != PassesBefore);
        Events += SliceEvents;
        IngestNs += Took;
        EpochIngestNs += Took;
      }

      std::span<const Query> Queries(
          In->Queries.data() +
              (Epoch % QuerySets * RoundsPerEpoch + Round) * QueriesPerRound,
          QueriesPerRound);
      Answers.clear();
      FenceCold += runQueries(*Tree, Queries, T, Request, RS, Answers);
      FenceChecked += T.enabled() ? QueriesPerRound : 0;
      TopKAndHot Reads = runTopKAndHot(*Tree, HotPhi, T, Request, RS);
      std::optional<SnapshotRoundTrip> Snap;
      if (Round % CheckpointEvery == CheckpointEvery - 1)
        Snap = saveAndLoad(*Tree, T, Request, RS);
      Attempted += 1 + QueriesPerRound + 2 +
                   (Snap ? 1 : 0);
      PeakBytes = std::max(PeakBytes, heap::read().PeakBytes - EpochBase);

      // Untimed: bring the reference to this point and check the round.
      Ref.addPoolSlice(Round);
      auto Count = [&](uint64_t Lo, uint64_t Hi) { return Ref.count(Lo, Hi); };
      C.require(Tree->numEvents() == Ref.numEvents(), "tree lost events");
      checkAnswers(C, Answers, errorBudget(*Tree, 1), Count);
      checkTopK(C, Reads.TopK, Count);
      checkHot(C, Reads.Hot, Count);
      if (Snap) {
        checkSnapshot(C, *Snap);
        SnapshotBytes.push_back(static_cast<double>(Snap->Bytes));
        Recalls.push_back(topKRecall(Reads.TopK, Ref.topValues()));
        Snap.reset();
      }
      heap::resetPeak();
    }
    // Every epoch replays the same updates, merge pass included, so the
    // median epoch rate leaves out epochs another process slowed.
    if (!T.enabled())
      EpochMevS.push_back(static_cast<double>(RoundsPerEpoch * SliceEvents) /
                          1e6 / (static_cast<double>(EpochIngestNs) / 1e9));
  }

  // The Fenwick reference is cross-checked once against ExactProfiler
  // fed the whole epoch's stream.
  {
    ExactProfiler Exact;
    for (const std::vector<uint64_t> *V : {&In->Warm, &In->Pool})
      for (uint64_t X : *V)
        Exact.addPoint(X);
    for (const Query &Q : In->Queries)
      C.require(Exact.countInRange(Q.Lo, Q.Hi) == Ref.count(Q.Lo, Q.Hi),
                "exact references disagree");
  }

  Report Rep;
  LayerMetrics L;
  if (Opt.Trace)
    measureSessionLayer(Opt.Seed, Rep, C, L);
  Rep.Attempted += Attempted;
  Rep.Failed += C.failures();
  for (const std::string &M : C.messages())
    Rep.Notes.push_back("check failed: " + M);
  Rep.Notes.push_back(std::to_string((Events + TracedEvents) / SliceEvents /
                                     RoundsPerEpoch) +
                      " epochs of " + std::to_string(RoundsPerEpoch) +
                      " rounds, " + std::to_string(Samples.QueryUs.size()) +
                      " untraced queries, " +
                      std::to_string(Samples.SaveMs.size()) +
                      " untraced checkpoints");
  if (!Opt.Trace) {
    EndToEnd E;
    E.SetupS = SetupSeconds;
    E.IngestMevS = median(EpochMevS);
    E.BatchP50Us = median(BatchUs);
    E.BatchP99Us = tail(Rep, "ingest_batch_p99_us", BatchUs, 99);
    E.QueryP50Us = centralMean(Samples.QueryUs);
    E.QueryP99Us = tail(Rep, "query_p99_us", Samples.QueryUs, 99);
    E.TopKP50Ms = median(Samples.TopKMs);
    E.HotP50Ms = median(Samples.HotMs);
    E.PeakHeapMiB = static_cast<double>(PeakBytes) / 1048576.0;
    E.ErrOverBound = C.maxErrOverBound();
    E.TopKRecall = median(Recalls);
    addEndToEnd(Rep, E);
    return Rep;
  }

  std::map<std::string, LayerTotals> Layers = totalsByName(T.spans());
  double Mev = static_cast<double>(Events) / 1e6;
  L.UpdateNsPerEvent =
      selfNs(Layers, "update") / static_cast<double>(TracedEvents);
  // Per epoch: the last epoch's tree against the warm one, and the
  // merge pauses of an untraced epoch.
  L.UpdateSplits = static_cast<double>(Tree->numSplits() - WarmSplits);
  L.NodesLive = static_cast<double>(Tree->numNodes());
  L.NodesPeak = static_cast<double>(Tree->maxNumNodes());
  L.MergePasses = static_cast<double>(Tree->numMergePasses() - WarmPasses);
  L.MergeNodesRemoved =
      static_cast<double>(Tree->numMergedNodes() - WarmMerged);
  fillMergePauses(L, BatchUs, BatchMerged);
  L.MergePauseTotalMs /= static_cast<double>(Events / SliceEvents / RoundsPerEpoch);
  fillReadLayers(L, Layers, FenceCold, FenceChecked);
  L.SnapshotBytes = median(SnapshotBytes);
  L.ArenaBytes = static_cast<double>(Tree->arenaBytes());
  L.AllocCallsPerMev = static_cast<double>(AllocCalls) / Mev;
  L.AllocBytesPerMev = static_cast<double>(AllocBytes) / Mev;
  L.TraceOverheadFrac =
      1.0 - (static_cast<double>(TracedEvents) / TracedIngestNs) /
                (static_cast<double>(Events) / IngestNs);
  L.SnapshotSaveMs = median(Samples.SaveMs);
  L.SnapshotLoadMs = median(Samples.LoadMs);
  L.FailedFrac =
      static_cast<double>(Rep.Failed) / static_cast<double>(Rep.Attempted);
  // Real bytes per node: what the heap takes back when the tree dies.
  uint64_t Live = heap::read().LiveBytes;
  Tree.reset();
  L.BytesPerNode =
      static_cast<double>(Live - heap::read().LiveBytes) / L.NodesLive;
  addLayerMetrics(Rep, L);
  Rep.Spans.push_back(T.release());
  return Rep;
}
