//===- perfbench/src/Trace.cpp - In-memory spans for the traced run -------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <ostream>

using namespace perfbench;

namespace {
struct CycleClock {
  uint64_t Origin;
  double NsPerCycle;
};

const CycleClock &cycleClock() {
  static const CycleClock Clock = [] {
    int64_t T0 = nowNs();
    uint64_t C0 = cycles();
    while (nowNs() - T0 < 20'000'000) {
    }
    return CycleClock{C0, static_cast<double>(nowNs() - T0) /
                              static_cast<double>(cycles() - C0)};
  }();
  return Clock;
}
} // namespace

double perfbench::nsPerCycle() { return cycleClock().NsPerCycle; }

int64_t perfbench::cycleNs() {
  const CycleClock &C = cycleClock();
  return static_cast<int64_t>(static_cast<double>(cycles() - C.Origin) *
                              C.NsPerCycle);
}

Tracer::Tracer(bool On, size_t ReserveSpans) : Enabled(On) {
  Spans.reserve(ReserveSpans);
  OpenStack.reserve(16);
}

int32_t Tracer::open(const char *Name, uint64_t Request) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Request = Request;
  S.Parent = OpenStack.empty() ? -1 : OpenStack.back();
  auto Id = static_cast<int32_t>(Spans.size());
  OpenStack.push_back(Id);
  S.StartNs = cycleNs();
  Spans.push_back(S);
  return Id;
}

void Tracer::close(int32_t Id) {
  if (Id < 0)
    return;
  Spans[static_cast<size_t>(Id)].EndNs = cycleNs();
  OpenStack.pop_back();
}

void perfbench::writeCsv(std::ostream &OS, const std::vector<Span> &Spans,
                         unsigned List) {
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << List << ',' << I << ',' << S.Parent << ',' << S.Name << ','
       << S.Request << ',' << S.StartNs << ',' << S.EndNs << '\n';
  }
}

std::vector<int64_t> perfbench::selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<size_t>> Children(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[static_cast<size_t>(Spans[I].Parent)].push_back(I);

  std::vector<int64_t> Self(Spans.size());
  std::vector<std::pair<int64_t, int64_t>> Covered;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &P = Spans[I];
    Covered.clear();
    for (size_t C : Children[I]) {
      int64_t Lo = std::max(Spans[C].StartNs, P.StartNs);
      int64_t Hi = std::min(Spans[C].EndNs, P.EndNs);
      if (Lo < Hi)
        Covered.emplace_back(Lo, Hi);
    }
    std::sort(Covered.begin(), Covered.end());
    int64_t Union = 0;
    int64_t RunLo = 0, RunHi = 0;
    bool InRun = false;
    for (auto [Lo, Hi] : Covered) {
      if (InRun && Lo <= RunHi) {
        RunHi = std::max(RunHi, Hi);
        continue;
      }
      if (InRun)
        Union += RunHi - RunLo;
      RunLo = Lo;
      RunHi = Hi;
      InRun = true;
    }
    if (InRun)
      Union += RunHi - RunLo;
    Self[I] = (P.EndNs - P.StartNs) - Union;
  }
  return Self;
}

std::map<std::string, LayerTotals>
perfbench::totalsByName(const std::vector<Span> &Spans) {
  std::vector<int64_t> Self = selfTimes(Spans);
  std::map<std::string, LayerTotals> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    LayerTotals &T = Out[Spans[I].Name];
    int64_t Duration = Spans[I].EndNs - Spans[I].StartNs;
    T.Count += 1;
    T.TotalNs += Duration;
    T.SelfNs += Self[I];
    T.DurationsUs.push_back(static_cast<double>(Duration) / 1e3);
  }
  return Out;
}

void perfbench::addTotals(std::map<std::string, LayerTotals> &Into,
                          const std::vector<Span> &Spans) {
  for (auto &[Name, T] : totalsByName(Spans)) {
    LayerTotals &D = Into[Name];
    D.Count += T.Count;
    D.TotalNs += T.TotalNs;
    D.SelfNs += T.SelfNs;
    D.DurationsUs.insert(D.DurationsUs.end(), T.DurationsUs.begin(),
                         T.DurationsUs.end());
  }
}
