//===- perfbench/src/SessionLayer.cpp - The session layer ------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The session layer, measured inside query-mixed's traced run. Three
// producers call ShardedRapSession::ingest on disjoint thirds of one Zipf
// stream over a 32-bit universe (hot values scattered by a hash, as in
// bench_parallel), each in fixed-size batches. While they run, a fourth
// thread samples how stale the combined view is: totalEvents() minus the
// weight the view holds, at fixed points of their progress. When they
// are done it calls combineNow and reads the view in bursts of
// combinedEstimate, combinedEstimateBounds, topKRanges and
// combinedHotRanges. Every thread is a closed loop. The checker then
// holds every answer to ExactProfiler.
//
// Before those traced passes, the same stream goes untraced through one
// RapTree, a one-producer session and a three-producer session, which
// give session.speedup_vs_single_tree and session.scaling_t3_over_t1.
//
// No workload runs the session end to end: on a shared 4-vCPU host its
// figures are too unsteady to gate on. Its reads all fall within a few
// milliseconds after the producers stop, and whether those milliseconds
// ran fast or slow on the host moved a run's median read time by 30% or
// more.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "CountingAlloc.h"

#include "baselines/ExactProfiler.h"
#include "core/ShardedRapSession.h"
#include "support/BitUtils.h"
#include "support/Distributions.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <thread>

using namespace perfbench;
using namespace rap;

namespace {

constexpr unsigned RangeBits = 32;
constexpr double Epsilon = 1e-3;
constexpr uint64_t WarmEvents = 1'000'000; ///< Ingested before timing.
constexpr uint64_t NumEvents = 1'500'000;  ///< Timed, split over producers.
constexpr uint64_t TotalEvents = WarmEvents + NumEvents;
constexpr unsigned Producers = 3;
constexpr unsigned Shards = 16;
constexpr size_t BatchEvents = 4096;
/// A read burst: ReaderQueries queries, a topKRanges and a
/// combinedHotRanges.
constexpr size_t ReadBursts = 24;
constexpr size_t ReaderQueries = 64;
/// Ingested events between two staleness samples.
constexpr uint64_t StaleEvery = 1 << 14;
constexpr size_t QueryPool = 1 << 14;
constexpr size_t CheckQueries = 512;
constexpr double HotPhi = 0.01;

RapConfig sessionConfig() {
  RapConfig C;
  C.RangeBits = RangeBits;
  C.Epsilon = Epsilon;
  return C;
}

struct Inputs {
  std::vector<uint64_t> Warm;
  std::vector<uint64_t> Events;
  std::vector<Query> Queries;      ///< The reader's query mix.
  std::vector<Query> CheckBattery; ///< Untimed, half anchored at values.
};

/// bench_parallel's zipf stream: 2^17 ranks, exponent 1.2. The seed draws
/// the stream; where each rank's value lies (and so which shard's lock
/// it takes) is fixed, so seeds differ in the draws only.
Inputs generateInputs(uint64_t Seed) {
  Inputs In;
  Rng R(Seed ^ 0x7368617264ULL);
  ZipfDistribution Zipf(1 << 17, 1.2);
  auto Draw = [&] {
    return mix64(Zipf.sample(R)) & widthForBits(RangeBits);
  };
  In.Warm.reserve(WarmEvents);
  for (uint64_t I = 0; I != WarmEvents; ++I)
    In.Warm.push_back(Draw());
  In.Events.reserve(NumEvents);
  for (uint64_t I = 0; I != NumEvents; ++I)
    In.Events.push_back(Draw());
  Rng Q(Seed ^ 0x7265616465ULL);
  In.Queries.reserve(QueryPool);
  for (size_t I = 0; I != QueryPool; ++I)
    In.Queries.push_back(mixQuery(I, Q.next(), RangeBits));
  for (size_t I = 0; I != CheckQueries; ++I)
    In.CheckBattery.push_back(
        I % 2 ? mixQuery(I, Q.next(), RangeBits)
              : alignedQuery(In.Events[Q.nextBelow(NumEvents)],
                             static_cast<unsigned>(Q.nextBelow(25)), false));
  return In;
}

struct Reference {
  ExactProfiler Exact;
  std::vector<uint64_t> TopValues;

  explicit Reference(const Inputs &In) {
    for (const std::vector<uint64_t> *V : {&In.Warm, &In.Events})
      for (uint64_t X : *V)
        Exact.addPoint(X);
    std::vector<std::pair<uint64_t, uint64_t>> ByCount;
    for (auto [V, N] : Exact.heavyValues(1))
      ByCount.emplace_back(N, V);
    size_t K = std::min<size_t>(16, ByCount.size());
    std::partial_sort(ByCount.begin(), ByCount.begin() + K, ByCount.end(),
                      std::greater<>());
    for (size_t I = 0; I != K; ++I)
      TopValues.push_back(ByCount[I].second);
    Exact.countInRange(0, 0); // Builds the sorted index once, here.
  }
};

/// Per-thread sample buffers, sized once and reused across passes.
struct ThreadSamples {
  std::vector<double> BatchUs;
  ReadSamples Reads;
  std::vector<Answer> Answers;
  std::vector<std::vector<TopKRange>> TopKs; ///< One per read burst.
  std::vector<std::vector<HotRange>> Hots;   ///< One per read burst.
  std::vector<double> StaleKev;
  uint64_t NextQuery = 0; ///< The reader's position in the query pool.
  int64_t EndNs = 0;

  void reserve(bool IsReader) {
    BatchUs.reserve(NumEvents / BatchEvents + 1);
    if (!IsReader)
      return;
    Reads.reserve(1 << 18, 1 << 14);
    Answers.reserve(1 << 18);
    TopKs.reserve(ReadBursts);
    Hots.reserve(ReadBursts);
    StaleKev.reserve(1 << 18);
  }
};

/// Feeds Events[Begin, End) to \p Ingest in timed batches.
template <typename IngestFn>
void produce(const std::vector<uint64_t> &Events, size_t Begin, size_t End,
             Tracer &T, ThreadSamples &S, std::atomic<uint64_t> &Progress,
             IngestFn &&Ingest) {
  for (size_t B = Begin; B < End; B += BatchEvents) {
    size_t E = std::min(B + BatchEvents, End);
    int64_t Start = nowNs();
    {
      ScopedSpan Span(T, "session.ingest", B / BatchEvents);
      for (size_t I = B; I != E; ++I)
        Ingest(Events[I]);
    }
    S.BatchUs.push_back(static_cast<double>(nowNs() - Start) / 1e3);
    Progress.fetch_add(E - B, std::memory_order_release);
  }
  S.EndNs = nowNs();
}

/// The fourth thread. While the producers run it samples how stale the
/// combined view is at fixed points of their progress; once they are
/// done it combines and reads the view in ReadBursts bursts.
void readLoop(ShardedRapSession &Session, const Inputs &In, Tracer &T,
              ThreadSamples &S, const std::atomic<uint64_t> &Progress,
              const std::atomic<bool> &Failed) {
  // Waits until the producers have ingested \p Mark events; false when
  // one of them failed.
  auto WaitFor = [&](uint64_t Mark) {
    while (Progress.load(std::memory_order_acquire) < Mark)
      if (Failed.load(std::memory_order_acquire))
        return false;
      else
        std::this_thread::sleep_for(std::chrono::microseconds(20));
    return true;
  };
  for (uint64_t Mark = StaleEvery; Mark <= NumEvents; Mark += StaleEvery) {
    if (!WaitFor(Mark))
      return;
    // Weight ingested but not yet in the combined view.
    uint64_t Visible = Session.combinedEstimate(0, widthForBits(RangeBits));
    uint64_t Total = Session.totalEvents();
    S.StaleKev.push_back(
        static_cast<double>(Total > Visible ? Total - Visible : 0) / 1e3);
  }
  if (!WaitFor(NumEvents))
    return;
  {
    ScopedSpan Span(T, "session.combine", 0);
    Session.combineNow();
  }
  uint64_t &Next = S.NextQuery;
  for (uint64_t Round = 0; Round != ReadBursts; ++Round) {
    for (size_t I = 0; I != ReaderQueries; ++I, ++Next) {
      const Query &Q = In.Queries[Next % QueryPool];
      Answer A;
      A.Q = Q;
      A.IsBounds = Next % 2 == 1;
      const char *Name = A.IsBounds ? "query.bounds"
                         : Q.Wide   ? "query.wide"
                                    : "query.narrow";
      uint64_t Start = cycles();
      {
        ScopedSpan Span(T, Name, Next);
        if (A.IsBounds) {
          RapTree::RangeBounds B = Session.combinedEstimateBounds(Q.Lo, Q.Hi);
          A.Lower = B.Lower;
          A.Upper = B.Upper;
        } else {
          A.Lower = Session.combinedEstimate(Q.Lo, Q.Hi);
        }
      }
      S.Reads.QueryUs.push_back(usSinceCycles(Start));
      S.Answers.push_back(A);
    }
    int64_t Start = nowNs();
    {
      ScopedSpan Span(T, "topk", Round);
      std::vector<TopKRange> Top = Session.topKRanges(16);
      S.Reads.TopKMs.push_back(static_cast<double>(nowNs() - Start) / 1e6);
      S.TopKs.push_back(std::move(Top));
    }
    Start = nowNs();
    {
      ScopedSpan Span(T, "hot", Round);
      std::vector<HotRange> Hot = Session.combinedHotRanges(HotPhi);
      S.Reads.HotMs.push_back(static_cast<double>(nowNs() - Start) / 1e6);
      S.Hots.push_back(std::move(Hot));
    }
  }
}

/// A session holding the warm prefix, combined: the reader starts from
/// a populated view.
std::unique_ptr<ShardedRapSession> warmSession(const Inputs &In) {
  auto Session = std::make_unique<ShardedRapSession>(sessionConfig(), Shards);
  for (uint64_t X : In.Warm)
    Session->ingest(X);
  Session->combineNow();
  return Session;
}

struct PassResult {
  double IngestSeconds = 0;
  uint64_t AllocCalls = 0, AllocBytes = 0; ///< While the threads ran.
};

/// One pass: \p NumProducers producers (and the reader, if \p WithReader)
/// against a fresh session.
PassResult runPass(const Inputs &In, unsigned NumProducers, bool WithReader,
                   std::vector<Tracer> &Tracers,
                   std::vector<ThreadSamples> &Samples,
                   std::unique_ptr<ShardedRapSession> &Session) {
  Session = warmSession(In);
  std::atomic<bool> Go{false};
  std::atomic<uint64_t> Progress{0};
  // A thread that throws records it here, and the reader stops waiting
  // for progress that will not come; the error is rethrown after join.
  std::vector<std::exception_ptr> Errors(Producers + 1);
  std::atomic<bool> Failed{false};
  auto Worker = [&](unsigned Id, auto &&Body) {
    return std::thread([&, Id, Body] {
      pinToCpu(Id);
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      try {
        Body();
      } catch (...) {
        Errors[Id] = std::current_exception();
        Failed.store(true, std::memory_order_release);
      }
    });
  };
  std::vector<std::thread> Threads;
  for (unsigned P = 0; P != NumProducers; ++P)
    Threads.push_back(Worker(P, [&, P] {
      size_t Begin = NumEvents * P / NumProducers;
      size_t End = NumEvents * (P + 1) / NumProducers;
      produce(In.Events, Begin, End, Tracers[P], Samples[P], Progress,
              [&](uint64_t X) { Session->ingest(X); });
    }));
  if (WithReader)
    Threads.push_back(Worker(Producers, [&] {
      readLoop(*Session, In, Tracers[Producers], Samples[Producers], Progress,
               Failed);
    }));
  heap::Counters Before = heap::read();
  int64_t Start = nowNs();
  Go.store(true, std::memory_order_release);
  for (std::thread &Th : Threads)
    Th.join();
  for (const std::exception_ptr &E : Errors)
    if (E)
      std::rethrow_exception(E);
  heap::Counters After = heap::read();
  PassResult R;
  R.AllocCalls = After.Calls - Before.Calls;
  R.AllocBytes = After.Bytes - Before.Bytes;
  int64_t End = 0;
  for (unsigned P = 0; P != NumProducers; ++P)
    End = std::max(End, Samples[P].EndNs);
  R.IngestSeconds = static_cast<double>(End - Start) / 1e9;
  return R;
}

/// The single-tree baseline: the whole stream through one RapTree.
double singleTreeMevS(const Inputs &In) {
  RapTree Tree(sessionConfig());
  for (uint64_t X : In.Warm)
    Tree.addPoint(X);
  int64_t Start = nowNs();
  for (uint64_t X : In.Events)
    Tree.addPoint(X);
  return static_cast<double>(NumEvents) / 1e6 /
         (static_cast<double>(nowNs() - Start) / 1e9);
}

} // namespace

void perfbench::measureSessionLayer(uint64_t Seed, Report &Rep, Checker &C,
                                    LayerMetrics &L) {
  const Inputs In = generateInputs(Seed);
  const Reference Ref(In);
  auto Count = [&](uint64_t Lo, uint64_t Hi) {
    return Ref.Exact.countInRange(Lo, Hi);
  };
  std::vector<Tracer> Tracers;
  for (unsigned I = 0; I != Producers + 1; ++I)
    Tracers.emplace_back(false, 1 << 16);
  std::vector<ThreadSamples> Samples(Producers + 1);
  for (unsigned I = 0; I != Samples.size(); ++I)
    Samples[I].reserve(I == Producers);

  // Baselines on the same stream, untraced and without the reader: one
  // RapTree, one producer, three producers.
  std::unique_ptr<ShardedRapSession> Session;
  double Single = singleTreeMevS(In);
  PassResult R1 = runPass(In, 1, false, Tracers, Samples, Session);
  for (ThreadSamples &S : Samples)
    S.BatchUs.clear();
  PassResult R3 = runPass(In, Producers, false, Tracers, Samples, Session);
  C.require(Session->totalEvents() == TotalEvents, "session lost events");
  Rep.Attempted += 3;
  double T1 = static_cast<double>(NumEvents) / 1e6 / R1.IngestSeconds;
  double T3 = static_cast<double>(NumEvents) / 1e6 / R3.IngestSeconds;
  L.SpeedupVsSingleTree = T3 / Single;
  L.ScalingT3OverT1 = T3 / T1;

  // Traced passes with the reader, until the staleness p99 has its
  // samples.
  ThreadSamples &ReaderS = Samples[Producers];
  std::vector<double> Combines;
  for (Tracer &T : Tracers)
    T.setEnabled(true);
  while (ReaderS.StaleKev.size() < samplesNeededFor(99)) {
    for (ThreadSamples &S : Samples) {
      S.BatchUs.clear();
      S.Answers.clear();
      S.TopKs.clear();
      S.Hots.clear();
    }
    runPass(In, Producers, true, Tracers, Samples, Session);
    Combines.push_back(static_cast<double>(Session->numCombines()));
    for (unsigned P = 0; P != Producers; ++P)
      Rep.Attempted += Samples[P].BatchUs.size();
    Rep.Attempted += ReaderS.Answers.size() + 2 * ReaderS.TopKs.size();

    // Untimed checks. The reader read after the last combine, so its
    // answers are held to the final counts and the final budget.
    C.require(Session->totalEvents() == TotalEvents, "session lost events");
    const RapConfig Cfg = sessionConfig();
    double Budget = errorBudget(Cfg.Epsilon, Cfg.MergeRatio, Cfg.EnableMerges,
                                Cfg.maxDepth(), TotalEvents, 1,
                                Session->numCombines(), 0, 0);
    checkAnswers(C, ReaderS.Answers, Budget, Count);
    for (const std::vector<TopKRange> &Top : ReaderS.TopKs)
      checkTopK(C, Top, Count);
    for (const std::vector<HotRange> &Hot : ReaderS.Hots)
      checkHot(C, Hot, Count);
    for (const Query &Q : In.CheckBattery) {
      uint64_t Truth = Count(Q.Lo, Q.Hi);
      C.alignedEstimate(Session->combinedEstimate(Q.Lo, Q.Hi), Truth, Budget,
                        false);
      RapTree::RangeBounds B = Session->combinedEstimateBounds(Q.Lo, Q.Hi);
      C.bracket(B.Lower, B.Upper, Truth);
    }
    // Every node range of the combined view (a hot-range report at the
    // smallest positive fraction lists them all). The view depends on
    // how the threads interleaved, so these ratios stay out of
    // err_over_bound.
    for (const HotRange &H :
         Session->combinedHotRanges(std::numeric_limits<double>::min()))
      C.alignedEstimate(Session->combinedEstimate(H.Lo, H.Hi),
                        Count(H.Lo, H.Hi), Budget, false);
  }
  for (Tracer &T : Tracers)
    T.setEnabled(false);
  Rep.Notes.push_back(std::to_string(Combines.size()) +
                      " traced session passes");

  std::map<std::string, LayerTotals> Layers;
  for (Tracer &T : Tracers)
    addTotals(Layers, T.spans());
  L.SessionIngestNs = static_cast<double>(Layers["session.ingest"].TotalNs) /
                      (static_cast<double>(NumEvents) *
                       static_cast<double>(Combines.size()));
  L.SessionCombines = median(Combines);
  std::vector<double> ReaderUs;
  for (const char *N : {"query.narrow", "query.wide", "query.bounds"})
    ReaderUs.insert(ReaderUs.end(), Layers[N].DurationsUs.begin(),
                    Layers[N].DurationsUs.end());
  L.ReaderQueryP99Us = tail(Rep, "session.reader_query_p99_us", ReaderUs, 99);
  L.StaleKevP99 = tail(Rep, "stale_kev_p99", ReaderS.StaleKev, 99);
  for (Tracer &T : Tracers)
    Rep.Spans.push_back(T.release());
}
