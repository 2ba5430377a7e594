//===- perfbench/src/ProgramProfile.cpp - Workload program-profile --------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper's own use case: one execution feeds several profiles. The
// gcc ProgramModel trace is generated during set-up; each pass
// then feeds it, in fixed-size batches of records, to one RapSession
// holding a code profile (PC weighted by block length, 32-bit), a
// load-value profile (64-bit) and a load-address profile (44-bit),
// all with stage-0 combining, plus a 2-D MdRapTree edge profile over
// (previous PC, PC). After ingest every profile is read out once: a
// range battery, topK(16), extractHotRanges(0.01), and a snapshot save
// and load. Single-threaded, closed loop.
//
// The traced run alternates untraced passes of that product path with
// traced replays that feed each 1-D stream through a public
// StageZeroBuffer and then RapTree::addPoint, because RapProfiler
// keeps its stage-0 buffer private; spans then separate stage0 from
// update.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "CountingAlloc.h"

#include "baselines/ExactProfiler.h"
#include "core/MultiDimRap.h"
#include "core/RapProfiler.h"
#include "core/StageZeroBuffer.h"
#include "trace/BenchmarkSpec.h"
#include "trace/ProgramModel.h"

#include <algorithm>
#include <array>
#include <unordered_map>

using namespace perfbench;
using namespace rap;

namespace {

constexpr uint64_t NumRecords = 2'400'000; ///< One full gcc phase cycle.
constexpr size_t BatchRecords = 2048;
constexpr uint64_t Stage0Capacity = 16384;
/// The repository's usual setting (1% of the stream). At 0.001 the value
/// tree alone reached megabytes, beyond a core's L2 cache, and the
/// shared L3 of the host made ingest_mev_s and hot_ranges_p50_ms spread
/// by about 10% between runs.
constexpr double Epsilon1D = 0.01;
constexpr double EpsilonEdge = 0.01;
constexpr size_t QueriesPerProfile = 96;
/// Passes rotate through this many query sets, so a run's tail
/// percentiles come from thousands of distinct queries.
constexpr size_t QuerySets = 64;
constexpr size_t BoxesPerPass = 32;
constexpr double HotPhi = 0.01;
constexpr unsigned SetupRepeats = 9;

enum { Code, Value, Address, NumProfiles };
const char *const ProfileNames[NumProfiles] = {"code", "value", "address"};
const unsigned ProfileBits[NumProfiles] = {ProgramModel::PcRangeBits,
                                           ProgramModel::ValueRangeBits,
                                           ProgramModel::AddressRangeBits};

RapConfig profileConfig(unsigned P) {
  RapConfig C;
  C.RangeBits = ProfileBits[P];
  C.Epsilon = Epsilon1D;
  return C;
}

MdRapConfig edgeConfig() {
  MdRapConfig C;
  C.RangeBits = ProgramModel::PcRangeBits;
  C.Epsilon = EpsilonEdge;
  return C;
}

/// An aligned square of the edge universe.
struct Box {
  uint64_t XLo, XHi, YLo, YHi;
};

struct Inputs {
  std::vector<TraceRecord> Records;
  std::array<std::vector<Query>, NumProfiles> Queries;
  std::vector<Box> Boxes;
  uint64_t EventsPerPass = 0; ///< addPoint calls over all four profiles.
};

/// The event profile \p P takes from \p R (valid when it has one).
uint64_t eventOf(const TraceRecord &R, unsigned P) {
  return P == Code ? R.BlockPc : P == Value ? R.LoadValue : R.LoadAddress;
}
bool hasEvent(const TraceRecord &R, unsigned P) {
  return P == Code || R.HasLoad;
}
uint64_t weightOf(const TraceRecord &R, unsigned P) {
  return P == Code ? R.BlockLength : 1;
}

Inputs generateInputs(uint64_t Seed) {
  Inputs In;
  // One fixed gcc execution: runs of the model differ a lot in shape
  // (at eps 0.001 the value profile alone ended between 13k and 45k
  // nodes), which would measure the run rather than the profiler. The
  // seed draws the read-out battery.
  ProgramModel Model(getBenchmarkSpec("gcc"));
  In.Records.reserve(NumRecords);
  for (uint64_t I = 0; I != NumRecords; ++I) {
    In.Records.push_back(Model.next());
    const TraceRecord &R = In.Records.back();
    In.EventsPerPass += 1 + (I != 0) + (R.HasLoad ? 2 : 0);
  }
  // Probes are anchored at values the stream really produced, so they
  // land where each profile has structure.
  Rng Q(Seed ^ 0x7175657279ULL);
  for (unsigned P = 0; P != NumProfiles; ++P)
    while (In.Queries[P].size() != QueriesPerProfile * QuerySets) {
      const TraceRecord &R = In.Records[Q.nextBelow(NumRecords)];
      if (hasEvent(R, P))
        In.Queries[P].push_back(
            mixQuery(In.Queries[P].size(), eventOf(R, P), ProfileBits[P]));
    }
  for (size_t I = 0; I != BoxesPerPass; ++I) {
    uint64_t At = 1 + Q.nextBelow(NumRecords - 1);
    Query X = alignedQuery(In.Records[At - 1].BlockPc,
                           static_cast<unsigned>(4 + Q.nextBelow(17)), false);
    uint64_t Side = X.Hi - X.Lo;
    uint64_t YLo = In.Records[At].BlockPc & ~Side;
    In.Boxes.push_back({X.Lo, X.Hi, YLo, YLo | Side});
  }
  return In;
}

/// Exact answers for the checker, built once and never timed.
struct Reference {
  std::array<ExactProfiler, NumProfiles> Exact;
  std::array<uint64_t, NumProfiles> MaxWeight{};
  std::array<std::vector<uint64_t>, NumProfiles> TopValues;
  std::vector<std::array<uint64_t, 3>> Edges; ///< (prev PC, PC, count).
  uint64_t EdgeEvents = 0;

  explicit Reference(const Inputs &In) {
    for (unsigned P = 0; P != NumProfiles; ++P) {
      // Replaying the stream through a buffer of the same capacity
      // reproduces the product path's drains, so this is the largest
      // weight the tree was handed (the budget's maxW).
      StageZeroBuffer Buf(Stage0Capacity);
      auto Drain = [&] {
        for (const auto &[X, W] : Buf.drain())
          MaxWeight[P] = std::max(MaxWeight[P], W);
      };
      for (const TraceRecord &R : In.Records) {
        if (!hasEvent(R, P))
          continue;
        Exact[P].addPoint(eventOf(R, P), weightOf(R, P));
        if (Buf.push(eventOf(R, P), weightOf(R, P)))
          Drain();
      }
      Drain();
      std::vector<std::pair<uint64_t, uint64_t>> ByCount;
      for (auto [V, N] : Exact[P].heavyValues(1))
        ByCount.emplace_back(N, V);
      size_t K = std::min<size_t>(16, ByCount.size());
      std::partial_sort(ByCount.begin(), ByCount.begin() + K, ByCount.end(),
                        std::greater<>());
      for (size_t I = 0; I != K; ++I)
        TopValues[P].push_back(ByCount[I].second);
    }
    std::unordered_map<uint64_t, std::unordered_map<uint64_t, uint64_t>> Map;
    for (size_t I = 1; I < In.Records.size(); ++I)
      ++Map[In.Records[I - 1].BlockPc][In.Records[I].BlockPc];
    for (const auto &[X, Row] : Map)
      for (const auto &[Y, N] : Row)
        Edges.push_back({X, Y, N});
    EdgeEvents = In.Records.size() - 1;
  }

  uint64_t boxCount(const Box &B) const {
    uint64_t N = 0;
    for (const auto &E : Edges)
      if (E[0] >= B.XLo && E[0] <= B.XHi && E[1] >= B.YLo && E[1] <= B.YHi)
        N += E[2];
    return N;
  }
};

/// The four profiles of one pass, whichever path filled them.
struct Profiles {
  std::array<const RapTree *, NumProfiles> Trees;
  const MdRapTree *Edge;

  uint64_t mergePasses() const {
    uint64_t N = Edge->numMergePasses();
    for (const RapTree *T : Trees)
      N += T->numMergePasses();
    return N;
  }
};

/// Accumulated over the passes of one run.
struct RunState {
  const Inputs &In;
  const Reference &Ref;
  Checker C;
  uint64_t Attempted = 0;
  uint64_t FenceCold = 0, FenceChecked = 0;
  uint64_t PeakBytes = 0;
  std::vector<double> SnapshotBytes, Recalls;
};

/// Reads every profile out once (timed), then checks everything the
/// profiler answered (untimed).
void readOutAndCheck(const Profiles &Ps, RunState &S, Tracer &T,
                     uint64_t Pass, ReadSamples &Samples) {
  const Inputs &In = S.In;
  std::array<std::vector<Answer>, NumProfiles> Answers;
  std::array<TopKAndHot, NumProfiles> Reads;
  std::array<SnapshotRoundTrip, NumProfiles> Snaps;
  double Bytes = 0;
  for (unsigned P = 0; P != NumProfiles; ++P) {
    const RapTree &Tree = *Ps.Trees[P];
    std::span<const Query> Queries(
        In.Queries[P].data() + Pass % QuerySets * QueriesPerProfile,
        QueriesPerProfile);
    S.FenceCold += runQueries(Tree, Queries, T, Pass, Samples, Answers[P]);
    S.FenceChecked += T.enabled() ? QueriesPerProfile : 0;
    Reads[P] = runTopKAndHot(Tree, HotPhi, T, Pass, Samples);
    Snaps[P] = saveAndLoad(Tree, T, Pass, Samples);
    Bytes += static_cast<double>(Snaps[P].Bytes);
    S.Attempted += QueriesPerProfile + 3;
  }
  S.SnapshotBytes.push_back(Bytes);
  std::vector<uint64_t> BoxAnswers;
  std::vector<HotBox> HotBoxes;
  {
    ScopedSpan Span(T, "mdrap.box", Pass);
    for (const Box &B : In.Boxes)
      BoxAnswers.push_back(Ps.Edge->estimateBox(B.XLo, B.XHi, B.YLo, B.YHi));
  }
  {
    ScopedSpan Span(T, "mdrap.hot", Pass);
    HotBoxes = Ps.Edge->extractHotBoxes(HotPhi);
  }
  S.Attempted += In.Boxes.size() + 1;
  // The checker's own allocations stay out of the peak.
  S.PeakBytes = std::max(S.PeakBytes, heap::read().PeakBytes);

  const Reference &Ref = S.Ref;
  Checker &C = S.C;
  double Recall = 0.0;
  for (unsigned P = 0; P != NumProfiles; ++P) {
    const RapTree &Tree = *Ps.Trees[P];
    auto Count = [&](uint64_t Lo, uint64_t Hi) {
      return Ref.Exact[P].countInRange(Lo, Hi);
    };
    C.require(Tree.numEvents() == Ref.Exact[P].numEvents(),
              "profile lost or invented events");
    double Budget = errorBudget(Tree, Ref.MaxWeight[P]);
    checkAnswers(C, Answers[P], Budget, Count);
    if (Pass == 0)
      checkEveryNode(C, Tree, Budget, Count);
    checkTopK(C, Reads[P].TopK, Count);
    checkHot(C, Reads[P].Hot, Count);
    checkSnapshot(C, Snaps[P]);
    Recall += topKRecall(Reads[P].TopK, Ref.TopValues[P]) /
              static_cast<double>(NumProfiles);
  }
  S.Recalls.push_back(Recall);
  const MdRapTree &Edge = *Ps.Edge;
  C.require(Edge.numEvents() == Ref.EdgeEvents, "edge profile lost events");
  double EdgeBudget = errorBudget(
      EpsilonEdge, Edge.config().MergeRatio, Edge.config().EnableMerges,
      Edge.config().maxDepth(), Edge.numEvents(), 1, Edge.numMergePasses(),
      Edge.degradedWeight(), 0);
  for (size_t I = 0; I != In.Boxes.size(); ++I)
    C.alignedEstimate(BoxAnswers[I], Ref.boxCount(In.Boxes[I]), EdgeBudget,
                      false);
  for (const HotBox &H : HotBoxes)
    C.require(H.SubtreeWeight <= Ref.boxCount({H.XLo, H.XHi, H.YLo, H.YHi}),
              "hot box weight above the exact count");
}

/// The product path: RapSession profiles with stage-0 combining.
struct ProductPath {
  RapSession Session;
  std::array<RapProfiler *, NumProfiles> P{};
  MdRapTree Edge{edgeConfig()};
  std::array<uint64_t, NumProfiles> Fed{};

  ProductPath() {
    for (unsigned I = 0; I != NumProfiles; ++I) {
      P[I] = &Session.addProfile(ProfileNames[I], profileConfig(I));
      P[I]->enableCombining(Stage0Capacity);
    }
  }
  Profiles profiles() const {
    return {{&P[Code]->tree(), &P[Value]->tree(), &P[Address]->tree()},
            &Edge};
  }
  /// Feeds [Begin, End); \p Prev is the record before Begin, if any.
  void ingest(const TraceRecord *Begin, const TraceRecord *End,
              const TraceRecord *Prev, Tracer &, uint64_t) {
    for (const TraceRecord *R = Begin; R != End; Prev = R++) {
      P[Code]->addPoint(R->BlockPc, R->BlockLength);
      Fed[Code] += R->BlockLength;
      if (R->HasLoad) {
        P[Value]->addPoint(R->LoadValue);
        P[Address]->addPoint(R->LoadAddress);
        Fed[Value] += 1;
        Fed[Address] += 1;
      }
      if (Prev)
        Edge.addPoint(Prev->BlockPc, R->BlockPc);
    }
  }
  void flush(Tracer &, uint64_t) {
    for (RapProfiler *Prof : P)
      Prof->flush();
  }
  /// Weight fed but not yet visible to queries (held in stage 0).
  uint64_t stale() const {
    uint64_t N = 0;
    for (unsigned I = 0; I != NumProfiles; ++I)
      N += Fed[I] - P[I]->tree().numEvents();
    return N;
  }
};

/// The traced replay: public StageZeroBuffer in front of RapTree.
struct ReplayPath {
  std::array<StageZeroBuffer, NumProfiles> Buf{
      StageZeroBuffer(Stage0Capacity), StageZeroBuffer(Stage0Capacity),
      StageZeroBuffer(Stage0Capacity)};
  std::array<std::unique_ptr<RapTree>, NumProfiles> Tree;
  std::unique_ptr<MdRapTree> Edge = std::make_unique<MdRapTree>(edgeConfig());
  std::array<uint64_t, NumProfiles> Pairs{};
  std::array<uint64_t, NumProfiles> Pushes{};
  uint64_t EdgeEvents = 0;

  ReplayPath() {
    for (unsigned I = 0; I != NumProfiles; ++I)
      Tree[I] = std::make_unique<RapTree>(profileConfig(I));
  }
  Profiles profiles() const {
    return {{Tree[Code].get(), Tree[Value].get(), Tree[Address].get()},
            Edge.get()};
  }
  void drain(unsigned P, Tracer &T, uint64_t Request) {
    static const char *const DrainNames[] = {
        "stage0.drain.code", "stage0.drain.value", "stage0.drain.address"};
    static const char *const UpdateNames[] = {"update.code", "update.value",
                                              "update.address"};
    const std::vector<std::pair<uint64_t, uint64_t>> *Drained;
    {
      ScopedSpan S(T, DrainNames[P], Request);
      Drained = &Buf[P].drain();
    }
    ScopedSpan S(T, UpdateNames[P], Request);
    for (const auto &[X, W] : *Drained)
      Tree[P]->addPoint(X, W);
    Pairs[P] += Drained->size();
  }
  void ingest(const TraceRecord *Begin, const TraceRecord *End,
              const TraceRecord *Prev, Tracer &T, uint64_t Request) {
    static const char *const PushNames[] = {
        "stage0.push.code", "stage0.push.value", "stage0.push.address"};
    for (unsigned P = 0; P != NumProfiles; ++P) {
      ScopedSpan S(T, PushNames[P], Request);
      for (const TraceRecord *R = Begin; R != End; ++R) {
        if (!hasEvent(*R, P))
          continue;
        ++Pushes[P];
        if (Buf[P].push(eventOf(*R, P), weightOf(*R, P)))
          drain(P, T, Request);
      }
    }
    ScopedSpan S(T, "mdrap.update", Request);
    for (const TraceRecord *R = Begin; R != End; Prev = R++) {
      if (Prev) {
        Edge->addPoint(Prev->BlockPc, R->BlockPc);
        ++EdgeEvents;
      }
    }
  }
  void flush(Tracer &T, uint64_t Request) {
    for (unsigned P = 0; P != NumProfiles; ++P)
      if (Buf[P].size() != 0)
        drain(P, T, Request);
  }
  uint64_t stale() const {
    uint64_t N = 0;
    for (unsigned P = 0; P != NumProfiles; ++P)
      N += Buf[P].rawEvents() - Tree[P]->numEvents();
    return N;
  }
};

/// What the ingest of one pass measured.
struct IngestResult {
  double Seconds = 0.0;
  std::vector<double> BatchUs;
  std::vector<bool> BatchMerged; ///< numMergePasses rose in the batch.
  std::vector<double> StaleKev;  ///< Invisible weight after each batch.
};

/// Feeds the trace through \p Path in fixed-size batches, timing each.
template <typename PathT>
IngestResult timedIngest(const Inputs &In, PathT &Path, Tracer &T,
                         uint64_t Pass) {
  IngestResult R;
  const TraceRecord *Data = In.Records.data();
  size_t N = In.Records.size();
  for (auto *V : {&R.BatchUs, &R.StaleKev})
    V->reserve(N / BatchRecords + 1);
  int64_t Start = nowNs();
  for (size_t B = 0; B < N; B += BatchRecords) {
    size_t E = std::min(B + BatchRecords, N);
    uint64_t MergesBefore = Path.profiles().mergePasses();
    uint64_t Request = Pass << 32 | B / BatchRecords;
    int64_t BatchStart = nowNs();
    {
      ScopedSpan S(T, "ingest_batch", Request);
      Path.ingest(Data + B, Data + E, B == 0 ? nullptr : Data + B - 1, T,
                  Request);
    }
    R.BatchUs.push_back(static_cast<double>(nowNs() - BatchStart) / 1e3);
    R.BatchMerged.push_back(Path.profiles().mergePasses() != MergesBefore);
    R.StaleKev.push_back(static_cast<double>(Path.stale()) / 1e3);
  }
  Path.flush(T, Pass << 32 | N / BatchRecords);
  R.Seconds = static_cast<double>(nowNs() - Start) / 1e9;
  return R;
}

/// Per-layer figures of one traced replay pass.
void fillReplayLayers(LayerMetrics &L, ReplayPath &Path,
                      const std::map<std::string, LayerTotals> &Layers) {
  uint64_t Pairs = 0;
  double UpdateNs = 0;
  L.UpdateSplits = L.NodesLive = L.NodesPeak = L.MergePasses = 0;
  L.MergeNodesRemoved = L.ArenaBytes = 0;
  for (unsigned P = 0; P != NumProfiles; ++P) {
    std::string Name = ProfileNames[P];
    auto PerCall = [](double Ns, uint64_t Calls) {
      return Ns / static_cast<double>(std::max<uint64_t>(Calls, 1));
    };
    // Push self time excludes the drains and updates nested in it.
    L.Stage0PushNs[P] = PerCall(selfNs(Layers, "stage0.push." + Name),
                                Path.Pushes[P]);
    L.Stage0DrainNs[P] = PerCall(selfNs(Layers, "stage0.drain." + Name),
                                 Path.Pairs[P]);
    L.Stage0Ratio[P] = PerCall(static_cast<double>(Path.Pushes[P]),
                               Path.Pairs[P]);
    UpdateNs += selfNs(Layers, "update." + Name);
    Pairs += Path.Pairs[P];
    const RapTree &Tr = *Path.Tree[P];
    L.UpdateSplits += static_cast<double>(Tr.numSplits());
    L.NodesLive += static_cast<double>(Tr.numNodes());
    L.NodesPeak += static_cast<double>(Tr.maxNumNodes());
    L.MergePasses += static_cast<double>(Tr.numMergePasses());
    L.MergeNodesRemoved += static_cast<double>(Tr.numMergedNodes());
    L.ArenaBytes += static_cast<double>(Tr.arenaBytes());
  }
  L.UpdateNsPerEvent = UpdateNs / static_cast<double>(std::max<uint64_t>(Pairs, 1));
  L.MdrapNsPerEvent = selfNs(Layers, "mdrap.update") /
                      static_cast<double>(std::max<uint64_t>(Path.EdgeEvents, 1));
  L.MdrapNodesPeak = static_cast<double>(Path.Edge->maxNumNodes());
  // Real bytes: what the heap takes back when a structure is destroyed.
  uint64_t Live = heap::read().LiveBytes;
  Path.Edge.reset();
  L.MdrapHeapBytes = static_cast<double>(Live - heap::read().LiveBytes);
  Live = heap::read().LiveBytes;
  for (auto &Tr : Path.Tree)
    Tr.reset();
  L.BytesPerNode =
      static_cast<double>(Live - heap::read().LiveBytes) / L.NodesLive;
}

} // namespace

Report perfbench::runProgramProfile(const RunOptions &Opt) {
  // Set-up: input generation, construction and a warm-up ingest of the
  // first tenth of the trace; repeated, and the median reported.
  std::unique_ptr<Inputs> In;
  double SetupSeconds = medianSetupSeconds(SetupRepeats, [&] {
    In.reset();
    In = std::make_unique<Inputs>(generateInputs(Opt.Seed));
    ProductPath Warm;
    Tracer Off(false);
    Warm.ingest(In->Records.data(), In->Records.data() + NumRecords / 10,
                nullptr, Off, 0);
    Warm.flush(Off, 0);
  });
  Reference Ref(*In);
  RunState S{*In, Ref, {}, 0, 0, 0, 0, {}, {}};

  // Every sample buffer is sized before the heap peak is reset, so
  // peak_heap_mib counts profiler state only; with room for several
  // times the passes a 45 s run makes today, so none grows mid-run.
  ReadSamples Samples, TracedSamples;
  Samples.reserve(1 << 20, 1 << 16);
  TracedSamples.reserve(1 << 20, 1 << 16);
  std::vector<double> BatchUs, StaleKev, MevS, TracedMevS, AllocCalls,
      AllocBytes, PauseMax, PauseTotal;
  BatchUs.reserve(1 << 20);
  StaleKev.reserve(1 << 20);
  for (auto *V : {&MevS, &TracedMevS, &AllocCalls, &AllocBytes, &PauseMax,
                  &PauseTotal, &S.SnapshotBytes, &S.Recalls})
    V->reserve(1 << 12);
  Tracer T(false, Opt.Trace ? 1 << 16 : 0);
  LayerMetrics L;
  std::map<std::string, LayerTotals> Layers; ///< Over all traced passes.
  Report Rep;
  uint64_t Baseline = heap::read().LiveBytes;
  heap::resetPeak();

  const size_t Needed = samplesNeededFor(99);
  const double Mev = static_cast<double>(In->EventsPerPass) / 1e6;
  int64_t Deadline = nowNs() + static_cast<int64_t>(Opt.Seconds * 1e9);
  for (uint64_t Pass = 0;; ++Pass) {
    bool Enough = BatchUs.size() >= Needed && MevS.size() >= 3 &&
                  (!Opt.Trace || TracedMevS.size() >= 2);
    if (Enough && nowNs() >= Deadline)
      break;
    if (!Opt.Trace || Pass % 2 == 0) {
      heap::Counters Before = heap::read();
      ProductPath Path;
      IngestResult R = timedIngest(*In, Path, T, Pass);
      heap::Counters After = heap::read();
      MevS.push_back(Mev / R.Seconds);
      AllocCalls.push_back(static_cast<double>(After.Calls - Before.Calls) / Mev);
      AllocBytes.push_back(static_cast<double>(After.Bytes - Before.Bytes) / Mev);
      BatchUs.insert(BatchUs.end(), R.BatchUs.begin(), R.BatchUs.end());
      StaleKev.insert(StaleKev.end(), R.StaleKev.begin(), R.StaleKev.end());
      fillMergePauses(L, R.BatchUs, R.BatchMerged);
      PauseMax.push_back(L.MergePauseMaxMs);
      PauseTotal.push_back(L.MergePauseTotalMs);
      S.Attempted += R.BatchUs.size();
      readOutAndCheck(Path.profiles(), S, T, Pass, Samples);
    } else {
      T.setEnabled(true);
      ReplayPath Path;
      IngestResult R = timedIngest(*In, Path, T, Pass);
      TracedMevS.push_back(Mev / R.Seconds);
      S.Attempted += R.BatchUs.size();
      readOutAndCheck(Path.profiles(), S, T, Pass, TracedSamples);
      T.setEnabled(false);
      // Each traced pass is its own span list; the stage-0, update and
      // mdrap figures come from the last one.
      Rep.Spans.push_back(T.release());
      fillReplayLayers(L, Path, totalsByName(Rep.Spans.back()));
      addTotals(Layers, Rep.Spans.back());
    }
    heap::resetPeak();
  }

  Rep.Attempted = S.Attempted;
  Rep.Failed = S.C.failures();
  for (const std::string &M : S.C.messages())
    Rep.Notes.push_back("check failed: " + M);
  Rep.Notes.push_back("ingest Mev/s per product pass: min " +
                      std::to_string(*std::min_element(MevS.begin(), MevS.end())) +
                      ", median " + std::to_string(median(MevS)) + ", max " +
                      std::to_string(*std::max_element(MevS.begin(), MevS.end())));
  Rep.Notes.push_back("passes: " + std::to_string(MevS.size()) + " product, " +
                      std::to_string(TracedMevS.size()) + " traced; " +
                      std::to_string(BatchUs.size()) + " batches, " +
                      std::to_string(Samples.QueryUs.size()) + " queries, " +
                      std::to_string(Samples.TopKMs.size()) + " topK");
  if (!Opt.Trace) {
    EndToEnd E;
    E.SetupS = SetupSeconds;
    E.IngestMevS = median(MevS);
    E.BatchP50Us = median(BatchUs);
    E.BatchP99Us = tail(Rep, "ingest_batch_p99_us", BatchUs, 99);
    E.QueryP50Us = centralMean(Samples.QueryUs);
    E.QueryP99Us = tail(Rep, "query_p99_us", Samples.QueryUs, 99);
    E.TopKP50Ms = median(Samples.TopKMs);
    E.HotP50Ms = median(Samples.HotMs);
    E.PeakHeapMiB = static_cast<double>(S.PeakBytes - Baseline) / 1048576.0;
    E.ErrOverBound = S.C.maxErrOverBound();
    E.TopKRecall = median(S.Recalls);
    addEndToEnd(Rep, E);
    return Rep;
  }
  fillReadLayers(L, Layers, S.FenceCold, S.FenceChecked);
  L.MergePauseMaxMs = median(PauseMax);
  L.MergePauseTotalMs = median(PauseTotal);
  L.SnapshotBytes = median(S.SnapshotBytes);
  L.AllocCallsPerMev = median(AllocCalls);
  L.AllocBytesPerMev = median(AllocBytes);
  L.TraceOverheadFrac = 1.0 - median(TracedMevS) / median(MevS);
  L.SnapshotSaveMs = median(Samples.SaveMs);
  L.SnapshotLoadMs = median(Samples.LoadMs);
  L.StaleKevP99 = tail(Rep, "stale_kev_p99", StaleKev, 99);
  L.FailedFrac =
      static_cast<double>(Rep.Failed) / static_cast<double>(Rep.Attempted);
  addLayerMetrics(Rep, L);
  return Rep;
}
