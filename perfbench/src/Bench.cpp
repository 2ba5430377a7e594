//===- perfbench/src/Bench.cpp - Shared workload plumbing -----------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/BitUtils.h"

#include <algorithm>
#include <pthread.h>
#include <sched.h>
#include <sstream>
#include <thread>

using namespace perfbench;
using namespace rap;

Query perfbench::alignedQuery(uint64_t Anchor, unsigned WidthBits, bool Wide) {
  uint64_t Mask = widthForBits(WidthBits);
  Query Q;
  Q.Lo = Anchor & ~Mask;
  Q.Hi = Q.Lo | Mask;
  Q.Wide = Wide;
  return Q;
}

Query perfbench::mixQuery(size_t Index, uint64_t Anchor, unsigned RangeBits) {
  bool Wide = Index % 20 == 0 || Index % 20 == 11;
  size_t NthWide = Index / 10;
  auto Width = static_cast<unsigned>(
      !Wide                ? 12 + Index % 9
      : NthWide % 3 == 2   ? RangeBits
                           : 24 + NthWide % (RangeBits - 24));
  return alignedQuery(Anchor & widthForBits(RangeBits), Width, Wide);
}

void ReadSamples::reserve(size_t Queries, size_t Others) {
  QueryUs.reserve(Queries);
  for (std::vector<double> *V : {&TopKMs, &HotMs, &SaveMs, &LoadMs})
    V->reserve(Others);
}

static double usSince(int64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) / 1e3;
}

uint64_t perfbench::runQueries(const RapTree &Tree,
                               std::span<const Query> Queries, Tracer &T,
                               uint64_t Request, ReadSamples &Samples,
                               std::vector<Answer> &Answers) {
  for (size_t I = 0; I != Queries.size(); ++I) {
    const Query &Q = Queries[I];
    Answer A;
    A.Q = Q;
    A.IsBounds = I % 2 == 1;
    const char *Name = A.IsBounds ? "query.bounds"
                       : Q.Wide   ? "query.wide"
                                  : "query.narrow";
    uint64_t Start = cycles();
    {
      ScopedSpan S(T, Name, Request);
      if (A.IsBounds) {
        RapTree::RangeBounds B = Tree.estimateRangeBounds(Q.Lo, Q.Hi);
        A.Lower = B.Lower;
        A.Upper = B.Upper;
      } else {
        A.Lower = Tree.estimateRange(Q.Lo, Q.Hi);
      }
    }
    Samples.QueryUs.push_back(usSinceCycles(Start));
    Answers.push_back(A);
  }
  if (!T.enabled())
    return 0;
  uint64_t Cold = 0;
  ScopedSpan S(T, "query.fence", Request);
  for (const Query &Q : Queries)
    Cold += Tree.rangeProvablyCold(Q.Lo, Q.Hi);
  return Cold;
}

TopKAndHot perfbench::runTopKAndHot(const RapTree &Tree, double Phi,
                                    Tracer &T, uint64_t Request,
                                    ReadSamples &Samples) {
  TopKAndHot Out;
  int64_t Start = nowNs();
  {
    ScopedSpan S(T, "topk", Request);
    Out.TopK = Tree.topK(16);
  }
  Samples.TopKMs.push_back(usSince(Start) / 1e3);
  Start = nowNs();
  {
    ScopedSpan S(T, "hot", Request);
    Out.Hot = Tree.extractHotRanges(Phi);
  }
  Samples.HotMs.push_back(usSince(Start) / 1e3);
  return Out;
}

SnapshotRoundTrip perfbench::saveAndLoad(const RapTree &Tree, Tracer &T,
                                         uint64_t Request,
                                         ReadSamples &Samples) {
  int64_t Start = nowNs();
  SnapshotRoundTrip Out;
  {
    ScopedSpan S(T, "snapshot.capture", Request);
    Out.Captured.emplace(ProfileSnapshot::capture(Tree));
  }
  std::ostringstream OS;
  bool Written;
  {
    ScopedSpan S(T, "snapshot.write", Request);
    Written = Out.Captured->writeBinary(OS);
  }
  std::string Bytes = std::move(OS).str();
  Samples.SaveMs.push_back(usSince(Start) / 1e3);

  Start = nowNs();
  {
    ScopedSpan S(T, "snapshot.read", Request);
    std::istringstream IS(Bytes);
    Out.Read = ProfileSnapshot::readBinary(IS);
  }
  if (Out.Read) {
    ScopedSpan S(T, "snapshot.restore", Request);
    Out.Restored = Out.Read->restore();
  }
  Samples.LoadMs.push_back(usSince(Start) / 1e3);
  Out.Bytes = Written ? Bytes.size() : 0;
  return Out;
}

void perfbench::checkSnapshot(Checker &C, const SnapshotRoundTrip &S) {
  C.require(S.Bytes != 0, "snapshot write failed");
  C.require(S.Read && *S.Read == *S.Captured,
            "snapshot read back differs from the captured one");
  C.require(S.Restored && ProfileSnapshot::capture(*S.Restored) == *S.Captured,
            "restored tree differs from the captured one");
}

static const LayerTotals &layer(const std::map<std::string, LayerTotals> &L,
                                const std::string &Name) {
  static const LayerTotals Empty;
  auto It = L.find(Name);
  return It == L.end() ? Empty : It->second;
}

double perfbench::selfNs(const std::map<std::string, LayerTotals> &Layers,
                         const std::string &Name) {
  return static_cast<double>(layer(Layers, Name).SelfNs);
}

void perfbench::fillReadLayers(LayerMetrics &L,
                               const std::map<std::string, LayerTotals> &Layers,
                               uint64_t FenceCold, uint64_t FenceChecked) {
  auto P50Us = [&](const char *Name) {
    return median(layer(Layers, Name).DurationsUs);
  };
  auto QueryP50Us = [&](const char *Name) {
    return centralMean(layer(Layers, Name).DurationsUs);
  };
  L.QueryNarrowP50Us = QueryP50Us("query.narrow");
  L.QueryWideP50Us = QueryP50Us("query.wide");
  L.QueryBoundsP50Us = QueryP50Us("query.bounds");
  double Checked = static_cast<double>(std::max<uint64_t>(FenceChecked, 1));
  L.FenceColdRate = static_cast<double>(FenceCold) / Checked;
  L.FenceCheckNs =
      static_cast<double>(layer(Layers, "query.fence").TotalNs) / Checked;
  L.TopKWalkMs = P50Us("topk") / 1e3;
  L.HotWalkMs = P50Us("hot") / 1e3;
  L.CaptureMs = P50Us("snapshot.capture") / 1e3;
  L.WriteMs = P50Us("snapshot.write") / 1e3;
  L.ReadMs = P50Us("snapshot.read") / 1e3;
  L.RestoreMs = P50Us("snapshot.restore") / 1e3;
}

void perfbench::fillMergePauses(LayerMetrics &L,
                                const std::vector<double> &BatchUs,
                                const std::vector<bool> &BatchMerged) {
  double Median = median(BatchUs);
  L.MergePauseMaxMs = L.MergePauseTotalMs = 0;
  for (size_t I = 0; I != BatchUs.size(); ++I) {
    if (!BatchMerged[I])
      continue;
    double PauseMs = std::max(0.0, BatchUs[I] - Median) / 1e3;
    L.MergePauseMaxMs = std::max(L.MergePauseMaxMs, PauseMs);
    L.MergePauseTotalMs += PauseMs;
  }
}

void perfbench::addEndToEnd(Report &R, const EndToEnd &E) {
  R.add("setup_s", E.SetupS, "s");
  R.add("ingest_mev_s", E.IngestMevS, "Mev/s");
  R.add("ingest_batch_p50_us", E.BatchP50Us, "us");
  R.add("ingest_batch_p99_us", E.BatchP99Us, "us");
  R.add("query_p50_us", E.QueryP50Us, "us");
  R.add("query_p99_us", E.QueryP99Us, "us");
  R.add("topk_p50_ms", E.TopKP50Ms, "ms");
  R.add("hot_ranges_p50_ms", E.HotP50Ms, "ms");
  R.add("peak_heap_mib", E.PeakHeapMiB, "MiB");
  R.add("err_over_bound", E.ErrOverBound, "ratio");
  R.add("topk_recall", E.TopKRecall, "ratio");
}

void perfbench::addLayerMetrics(Report &R, const LayerMetrics &L) {
  static const char *const Streams[] = {"code", "value", "address"};
  R.add("update.ns_per_event", L.UpdateNsPerEvent, "ns");
  R.add("update.splits", L.UpdateSplits, "count");
  R.add("tree.nodes_live", L.NodesLive, "count");
  R.add("tree.nodes_peak", L.NodesPeak, "count");
  R.add("merge.passes", L.MergePasses, "count");
  R.add("merge.nodes_removed", L.MergeNodesRemoved, "count");
  R.add("merge.pause_max_ms", L.MergePauseMaxMs, "ms");
  R.add("merge.pause_total_ms", L.MergePauseTotalMs, "ms");
  for (int S = 0; S != 3; ++S) {
    std::string Suffix = std::string(".") + Streams[S];
    R.add("stage0.push_ns_per_event" + Suffix, L.Stage0PushNs[S], "ns");
    R.add("stage0.drain_ns_per_pair" + Suffix, L.Stage0DrainNs[S], "ns");
    R.add("stage0.combine_ratio" + Suffix, L.Stage0Ratio[S], "ratio");
  }
  R.add("mdrap.ns_per_event", L.MdrapNsPerEvent, "ns");
  R.add("mdrap.nodes_peak", L.MdrapNodesPeak, "count");
  R.add("mdrap.heap_bytes", L.MdrapHeapBytes, "bytes");
  R.add("query.narrow_p50_us", L.QueryNarrowP50Us, "us");
  R.add("query.wide_p50_us", L.QueryWideP50Us, "us");
  R.add("query.bounds_p50_us", L.QueryBoundsP50Us, "us");
  R.add("query.fence_cold_rate", L.FenceColdRate, "ratio");
  R.add("query.fence_check_ns", L.FenceCheckNs, "ns");
  R.add("topk.walk_ms", L.TopKWalkMs, "ms");
  R.add("hot.walk_ms", L.HotWalkMs, "ms");
  R.add("snapshot.capture_ms", L.CaptureMs, "ms");
  R.add("snapshot.write_ms", L.WriteMs, "ms");
  R.add("snapshot.read_ms", L.ReadMs, "ms");
  R.add("snapshot.restore_ms", L.RestoreMs, "ms");
  R.add("snapshot.bytes", L.SnapshotBytes, "bytes");
  R.add("session.ingest_ns_per_event", L.SessionIngestNs, "ns");
  R.add("session.combines", L.SessionCombines, "count");
  R.add("session.reader_query_p99_us", L.ReaderQueryP99Us, "us");
  R.add("session.speedup_vs_single_tree", L.SpeedupVsSingleTree, "ratio");
  R.add("session.scaling_t3_over_t1", L.ScalingT3OverT1, "ratio");
  R.add("tree.arena_bytes", L.ArenaBytes, "bytes");
  R.add("tree.bytes_per_node", L.BytesPerNode, "bytes");
  R.add("alloc.calls_per_mev", L.AllocCallsPerMev, "count");
  R.add("alloc.bytes_per_mev", L.AllocBytesPerMev, "bytes");
  R.add("trace.overhead_frac", L.TraceOverheadFrac, "ratio");
  R.add("snapshot_save_ms", L.SnapshotSaveMs, "ms");
  R.add("snapshot_load_ms", L.SnapshotLoadMs, "ms");
  R.add("stale_kev_p99", L.StaleKevP99, "kev");
  R.add("failed_frac", L.FailedFrac, "ratio");
}

double perfbench::tail(Report &R, const char *Name,
                       const std::vector<double> &V, double P) {
  if (std::optional<double> T = tailPercentile(V, P))
    return *T;
  R.Failed += 1;
  R.Notes.push_back(std::string(Name) + ": only " + std::to_string(V.size()) +
                    " samples, too few for a p" + std::to_string(int(P)));
  return V.empty() ? 0.0 : *std::max_element(V.begin(), V.end());
}

void perfbench::pinToCpu(unsigned Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu % std::max(1u, std::thread::hardware_concurrency()), &Set);
  pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set);
}
