//===- verify/StreamFuzzer.cpp - Adversarial stream generator ------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "verify/StreamFuzzer.h"

#include "baselines/ExactProfiler.h"
#include "core/Serialization.h"
#include "core/ShardedRapSession.h"
#include "support/BitUtils.h"
#include "support/FailPoint.h"
#include "verify/DifferentialOracle.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

using namespace rap;

const char *rap::streamShapeName(StreamShape Shape) {
  switch (Shape) {
  case StreamShape::Uniform:
    return "uniform";
  case StreamShape::Zipf:
    return "zipf";
  case StreamShape::PointMass:
    return "point-mass";
  case StreamShape::ShiftingPhase:
    return "shifting-phase";
  case StreamShape::Sawtooth:
    return "sawtooth";
  case StreamShape::AllDistinct:
    return "all-distinct";
  case StreamShape::UniverseEdges:
    return "universe-edges";
  case StreamShape::WeightedBursts:
    return "weighted-bursts";
  }
  return "unknown";
}

namespace {

/// SplitMix64 finalizer as a stateless hash: spreads Zipf ranks across
/// the universe so heavy ranks land in unrelated subtrees.
uint64_t mix64(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Maps a raw 64-bit draw into [0, 1), platform-stable.
double toUnit(uint64_t X) { return static_cast<double>(X >> 11) * 0x1.0p-53; }

/// Enables the split-admission gate with a drawn coarseness from
/// {1, 2, 4, 8} and a drawn admission seed (two draws from \p M).
void drawAdmission(RapConfig &C, SplitMix64 &M) {
  static const double Coarseness[] = {1.0, 2.0, 4.0, 8.0};
  C.EnableAdmission = true;
  C.AdmissionCoarseness = Coarseness[M.next() % 4];
  C.AdmissionSeed = M.next();
}

} // namespace

StreamFuzzer::StreamFuzzer(uint64_t Seed, StreamShape StreamKind,
                           unsigned Bits)
    : R(Seed), Shape(StreamKind), RangeBits(Bits),
      UniverseHi(Bits == 0 ? 0 : lowBitMask(Bits)) {
  switch (StreamKind) {
  case StreamShape::PointMass:
    HotValue = R.next() & UniverseHi;
    HotProb = 0.5 + 0.45 * R.nextDouble();
    break;
  case StreamShape::Zipf: {
    uint64_t N = RangeBits >= 12 ? 4096 : (uint64_t(1) << RangeBits);
    double Exponent = 0.8 + 0.8 * R.nextDouble();
    ZipfCdf.resize(N);
    double Total = 0.0;
    for (uint64_t I = 0; I != N; ++I) {
      Total += std::pow(static_cast<double>(I + 1), -Exponent);
      ZipfCdf[I] = Total;
    }
    for (double &C : ZipfCdf)
      C /= Total;
    ZipfCdf.back() = 1.0;
    ZipfSalt = R.next();
    break;
  }
  case StreamShape::ShiftingPhase: {
    PhaseLen = 512 + R.nextBelow(4096);
    unsigned MaxNarrow = RangeBits > 1 ? std::min(RangeBits - 1, 10u) : 0;
    RegionBits =
        RangeBits - (MaxNarrow ? 1 + unsigned(R.nextBelow(MaxNarrow)) : 0);
    break;
  }
  case StreamShape::Sawtooth: {
    if (RangeBits >= 2) {
      // An aligned boundary a node split will create, plus a small
      // amplitude so the wave keeps crossing it.
      unsigned W = 1 + unsigned(R.nextBelow(RangeBits - 1));
      uint64_t Slots = std::max<uint64_t>(1, UniverseHi >> W);
      Boundary = (1 + R.nextBelow(Slots)) << W;
      Amplitude = 1 + R.nextBelow(32);
      Amplitude = std::min(Amplitude, Boundary);
      if (Boundary < UniverseHi)
        Amplitude = std::min(Amplitude, UniverseHi - Boundary);
    }
    break;
  }
  case StreamShape::AllDistinct:
    OddStep = R.next() | 1;
    Counter = R.next();
    break;
  default:
    break;
  }
}

uint64_t StreamFuzzer::drawValue() {
  switch (Shape) {
  case StreamShape::Uniform:
  case StreamShape::WeightedBursts:
    return R.next() & UniverseHi;
  case StreamShape::Zipf: {
    double U = R.nextDouble();
    auto It = std::lower_bound(ZipfCdf.begin(), ZipfCdf.end(), U);
    uint64_t Rank =
        static_cast<uint64_t>(std::distance(ZipfCdf.begin(), It));
    if (Rank >= ZipfCdf.size())
      Rank = ZipfCdf.size() - 1;
    return mix64(Rank + ZipfSalt) & UniverseHi;
  }
  case StreamShape::PointMass:
    return R.nextBernoulli(HotProb) ? HotValue : R.next() & UniverseHi;
  case StreamShape::ShiftingPhase: {
    if (PhaseLeft == 0) {
      RegionLo = (R.next() & UniverseHi) & ~lowBitMask(RegionBits);
      PhaseLeft = PhaseLen;
    }
    --PhaseLeft;
    return RegionLo + (R.next() & lowBitMask(RegionBits));
  }
  case StreamShape::Sawtooth: {
    if (Amplitude == 0)
      return 0;
    uint64_t Period = 2 * Amplitude;
    uint64_t T = SawStep++ % (2 * Period);
    uint64_t Delta = T < Period ? T : 2 * Period - T;
    return std::min(Boundary - Amplitude + Delta, UniverseHi);
  }
  case StreamShape::AllDistinct:
    return (Counter++ * OddStep) & UniverseHi;
  case StreamShape::UniverseEdges: {
    unsigned K = unsigned(R.nextBelow(RangeBits + 1));
    uint64_t Power = K >= 64 ? 0 : (uint64_t(1) << K);
    switch (R.nextBelow(5)) {
    case 0:
      return 0;
    case 1:
      return UniverseHi;
    case 2:
      return (Power - 1) & UniverseHi;
    case 3:
      return Power & UniverseHi;
    default:
      return (Power + 1) & UniverseHi;
    }
  }
  }
  return 0;
}

StreamEvent StreamFuzzer::next() {
  uint64_t Weight = 1;
  if (Shape == StreamShape::WeightedBursts) {
    double U = R.nextDouble();
    if (U < 0.01)
      Weight = 1 + R.nextBelow(1000000);
    else if (U < 0.15)
      Weight = 1 + R.nextBelow(1000);
  }
  uint64_t X = drawValue();
  if (R.nextBernoulli(1.0 / 128))
    Weight = 0; // exercise the zero-weight no-op path
  return {X, Weight};
}

FuzzEpisode rap::deriveEpisode(uint64_t MasterSeed, uint64_t Index) {
  SplitMix64 M(MasterSeed ^ (0xa24baed4963ee407ULL * (Index + 1)));
  FuzzEpisode E;
  E.MasterSeed = MasterSeed;
  E.Index = Index;
  E.StreamSeed = M.next();
  E.Shape = static_cast<StreamShape>(M.next() % NumStreamShapes);

  RapConfig &C = E.Config;
  static const unsigned BitsTable[] = {0,  1,  2,  3,  4,  6,  8,  8, 10,
                                       12, 16, 16, 20, 24, 32, 48, 64};
  C.RangeBits =
      BitsTable[M.next() % (sizeof(BitsTable) / sizeof(BitsTable[0]))];

  static const unsigned Branches[] = {2, 4, 8, 16};
  unsigned Pick = unsigned(M.next() % 4);
  for (unsigned Tries = 0; Tries != 4; ++Tries) {
    unsigned B = Branches[(Pick + Tries) % 4];
    if (C.RangeBits == 0 || log2Exact(B) <= C.RangeBits) {
      C.BranchFactor = B;
      break;
    }
  }

  double U = toUnit(M.next());
  C.Epsilon = std::exp(std::log(0.005) + U * (std::log(0.5) - std::log(0.005)));
  C.MergeRatio = 1.25 + toUnit(M.next()) * 2.75;
  C.InitialMergeInterval = uint64_t(1) << (6 + M.next() % 6);
  C.EnableMerges = (M.next() % 8) != 0;

  if (!C.validate())
    C = RapConfig(); // unreachable by construction; stay usable anyway
  return E;
}

FuzzEpisode rap::deriveArenaEpisode(uint64_t MasterSeed, uint64_t Index) {
  FuzzEpisode E = deriveEpisode(MasterSeed, Index);
  // A separate draw stream: the base episode stays bit-identical to
  // deriveEpisode so arena episodes replay against the same configs.
  SplitMix64 M(MasterSeed ^ (0xd1342543de82ef95ULL * (Index + 1)));
  static const uint64_t Capacities[] = {16, 64, 256, 1024};
  E.CombineCapacity = Capacities[M.next() % 4];
  return E;
}

FuzzEpisode rap::deriveFaultEpisode(uint64_t MasterSeed, uint64_t Index) {
  FuzzEpisode E = deriveEpisode(MasterSeed, Index);
  // A separate draw stream (same pattern as deriveArenaEpisode): the
  // base episode stays bit-identical so fault episodes replay against
  // the same configs and streams.
  SplitMix64 M(MasterSeed ^ (0x2545f4914f6cdd1dULL * (Index + 1)));
  switch (M.next() % 3) {
  case 0:
    // The acceptance regime: a 4 KB memory budget (256 nodes at 16
    // bytes each) on adversarial streams.
    E.Config.MaxMemoryBytes = 4096;
    break;
  case 1:
    E.Config.MaxNodes = 64;
    break;
  default:
    break; // unbudgeted: faults only
  }
  uint64_t Draw = M.next();
  if (Draw % 3 != 0)
    E.AllocFailEvery = uint64_t(64) << (Draw % 4);
  if (E.Config.effectiveNodeBudget() == 0 && E.AllocFailEvery == 0)
    E.AllocFailEvery = 64; // every fault episode injects something
  E.SnapshotChecks = true;
  return E;
}

FuzzEpisode rap::deriveShardedEpisode(uint64_t MasterSeed, uint64_t Index) {
  FuzzEpisode E = deriveEpisode(MasterSeed, Index);
  // A separate draw stream (same pattern as deriveArenaEpisode): the
  // base episode stays bit-identical so sharded episodes replay
  // against the same configs and streams.
  SplitMix64 M(MasterSeed ^ (0x9e6c63d0876a9a47ULL * (Index + 1)));
  static const unsigned ThreadCounts[] = {2, 3, 4};
  static const unsigned ShardCounts[] = {1, 2, 4, 8, 16};
  static const uint64_t Watermarks[] = {0, 256, 1024, 4096};
  E.ShardThreads = ThreadCounts[M.next() % 3];
  E.SessionShards = ShardCounts[M.next() % 5];
  E.ShardCombineEvery = Watermarks[M.next() % 4];
  return E;
}

FuzzEpisode rap::deriveAdmissionEpisode(uint64_t MasterSeed, uint64_t Index) {
  FuzzEpisode E = deriveEpisode(MasterSeed, Index);
  // A separate draw stream (same pattern as deriveArenaEpisode): the
  // base episode stays bit-identical so admission episodes replay
  // against the same configs and streams.
  SplitMix64 M(MasterSeed ^ (0x8cb92ba72f3d8dd7ULL * (Index + 1)));
  drawAdmission(E.Config, M);
  return E;
}

FuzzEpisode rap::deriveSortedEpisode(uint64_t MasterSeed, uint64_t Index) {
  FuzzEpisode E = deriveEpisode(MasterSeed, Index);
  // A separate draw stream (same pattern as deriveArenaEpisode): the
  // base episode stays bit-identical so sorted episodes replay against
  // the same configs and streams.
  SplitMix64 M(MasterSeed ^ (0x3c6ef372fe94f82bULL * (Index + 1)));
  static const uint64_t Windows[] = {16, 256, 1024, 16384};
  E.SortWindow = Windows[M.next() % 4];
  switch (M.next() % 3) {
  case 1:
    drawAdmission(E.Config, M);
    break;
  case 2:
    E.Config.MaxNodes = 64;
    break;
  default:
    break;
  }
  return E;
}

FuzzEpisode rap::deriveFenceEpisode(uint64_t MasterSeed, uint64_t Index) {
  FuzzEpisode E = deriveEpisode(MasterSeed, Index);
  // A separate draw stream (same pattern as deriveArenaEpisode): the
  // base episode stays bit-identical so fence episodes replay against
  // the same configs and streams.
  SplitMix64 M(MasterSeed ^ (0x6c62272e07bb0142ULL * (Index + 1)));
  E.FenceTwin = true;
  E.Config.EnableRangeFence = true; // the OFF twin flips this
  uint64_t Regime = M.next() % 4;
  if (Regime == 1 || Regime == 3)
    drawAdmission(E.Config, M);
  if (Regime == 2 || Regime == 3) {
    if (M.next() % 2 == 0)
      E.Config.MaxMemoryBytes = 4096;
    else
      E.Config.MaxNodes = 64;
  }
  return E;
}

namespace {

/// End-of-episode snapshot robustness battery: round-trips the tree
/// through the binary format, then verifies that every seeded
/// one-byte corruption and every truncation of the byte stream is
/// rejected (the CRC-32 footer guarantees single-byte detection, and
/// any truncation loses the footer).
void snapshotTorture(const RapTree &Tree, uint64_t Seed,
                     std::vector<InvariantViolation> &Out) {
  ProfileSnapshot Original = ProfileSnapshot::capture(Tree);
  std::ostringstream OS;
  if (!Original.writeBinary(OS)) {
    Out.push_back({"snapshot-io", "writeBinary failed on a healthy stream"});
    return;
  }
  const std::string Bytes = OS.str();
  {
    std::istringstream IS(Bytes);
    std::string Error;
    std::unique_ptr<ProfileSnapshot> Back =
        ProfileSnapshot::readBinary(IS, &Error);
    if (!Back) {
      Out.push_back({"snapshot-io", "round-trip read failed: " + Error});
      return;
    }
    if (!(*Back == Original)) {
      Out.push_back({"snapshot-io", "round-trip changed the snapshot"});
      return;
    }
  }
  char Detail[96];
  SplitMix64 M(Seed ^ 0x94d049bb133111ebULL);
  for (unsigned Probe = 0; Probe != 16; ++Probe) {
    std::string Corrupt = Bytes;
    size_t Offset = static_cast<size_t>(M.next() % Corrupt.size());
    // Adding 1..255 mod 256 always changes the byte.
    Corrupt[Offset] = static_cast<char>(
        static_cast<unsigned char>(Corrupt[Offset]) + 1 + M.next() % 255);
    std::istringstream IS(Corrupt);
    if (ProfileSnapshot::readBinary(IS)) {
      std::snprintf(Detail, sizeof(Detail),
                    "one-byte corruption at offset %zu was accepted",
                    Offset);
      Out.push_back({"snapshot-corruption", Detail});
    }
  }
  const size_t Cuts[] = {0,   1,   4,   Bytes.size() / 2,
                         Bytes.size() - 8, Bytes.size() - 1};
  for (size_t Cut : Cuts) {
    if (Cut >= Bytes.size())
      continue;
    std::istringstream IS(Bytes.substr(0, Cut));
    if (ProfileSnapshot::readBinary(IS)) {
      std::snprintf(Detail, sizeof(Detail),
                    "truncation to %zu of %zu bytes was accepted", Cut,
                    Bytes.size());
      Out.push_back({"snapshot-corruption", Detail});
    }
  }
}

} // namespace

FuzzReport rap::runFuzzEpisode(const FuzzEpisode &Episode, uint64_t NumEvents,
                               uint64_t CheckEvery) {
  // Fault hygiene: never inherit an armed failpoint from a previous
  // episode, and never leak one past this episode's return.
  failpoints::disarmAll();
  failpoints::ScopedDisarm Guard;

  OracleOptions Options;
  Options.CombineCapacity = Episode.CombineCapacity;
  // The legacy reference tree models no allocation faults, so it
  // diverges (correctly) from a tree whose split failed; the exact and
  // flat oracles plus the degraded error budget still bound the
  // estimates.
  if (Episode.AllocFailEvery != 0)
    Options.CrossCheckReference = false;
  // The fence twin survives budgets and admission (both per-tree
  // deterministic), but not injected allocation faults: the failpoint
  // counter is process-global, so with two trees feeding, the armed
  // failure lands in whichever tree allocates next and only that tree
  // degrades — a lawful divergence, not a fence bug.
  if (Episode.AllocFailEvery != 0)
    Options.CrossCheckFence = false;
  DifferentialOracle Oracle(Episode.Config, Options);
  StreamFuzzer Stream(Episode.StreamSeed, Episode.Shape,
                      Episode.Config.RangeBits);
  Rng QueryRng(Episode.StreamSeed ^ 0x5bf03635aca1fed5ULL);

  FuzzReport Report;
  auto CheckPoint = [&](uint64_t EventsFed) {
    Oracle.checkNow(QueryRng);
    Report.Violations = Oracle.violations();
    std::vector<InvariantViolation> Structural =
        TreeInvariants::audit(Oracle.tree());
    Report.Violations.insert(Report.Violations.end(), Structural.begin(),
                             Structural.end());
    Report.EventsFed = EventsFed;
    return Report.Violations.empty();
  };

  // Sorted episodes draw whole windows and deliver each in ascending
  // order, so a run of N events is a prefix of any longer run (which
  // minimizeFailure relies on).
  std::vector<StreamEvent> Window;
  size_t WindowPos = 0;
  auto NextEvent = [&] {
    if (Episode.SortWindow == 0)
      return Stream.next();
    if (WindowPos == Window.size()) {
      Window.clear();
      for (uint64_t J = 0; J != Episode.SortWindow; ++J)
        Window.push_back(Stream.next());
      std::stable_sort(Window.begin(), Window.end(),
                       [](const StreamEvent &A, const StreamEvent &B) {
                         return A.X < B.X;
                       });
      WindowPos = 0;
    }
    return Window[WindowPos++];
  };

  for (uint64_t I = 0; I != NumEvents; ++I) {
    if (Episode.AllocFailEvery != 0 &&
        (I + 1) % Episode.AllocFailEvery == 0)
      failpoints::arm(failpoints::Fp::ArenaAlloc);
    StreamEvent Event = NextEvent();
    Oracle.addPoint(Event.X, Event.Weight);
    if (CheckEvery != 0 && (I + 1) % CheckEvery == 0 && I + 1 != NumEvents)
      if (!CheckPoint(I + 1))
        return Report;
  }
  // The snapshot battery must not see an armed allocation failpoint.
  failpoints::disarmAll();
  if (!CheckPoint(NumEvents))
    return Report;
  if (Episode.SnapshotChecks) {
    snapshotTorture(Oracle.tree(), Episode.StreamSeed, Report.Violations);
    Report.EventsFed = NumEvents;
  }
  return Report;
}

FuzzReport rap::runAdmissionFuzzEpisode(const FuzzEpisode &Episode,
                                        uint64_t NumEvents,
                                        uint64_t CheckEvery) {
  // Fault hygiene, as in runFuzzEpisode.
  failpoints::disarmAll();
  failpoints::ScopedDisarm Guard;

  // The admission-ON tree runs under the full oracle (which also
  // enforces the deferred-weight error bound); the OFF twin sees the
  // identical raw stream directly.
  DifferentialOracle Oracle(Episode.Config, OracleOptions());
  RapConfig OffConfig = Episode.Config;
  OffConfig.EnableAdmission = false;
  RapTree OffTree(OffConfig);

  StreamFuzzer Stream(Episode.StreamSeed, Episode.Shape,
                      Episode.Config.RangeBits);
  Rng QueryRng(Episode.StreamSeed ^ 0x5bf03635aca1fed5ULL);
  Rng CrossRng(Episode.StreamSeed ^ 0x3c79ac492ba7b653ULL);
  const uint64_t UniverseHi =
      Episode.Config.RangeBits == 0 ? 0
                                    : lowBitMask(Episode.Config.RangeBits);

  FuzzReport Report;
  char Detail[192];
  const RapTree &OffView = OffTree;
  auto CrossCheck = [&]() {
    std::vector<InvariantViolation> &Out = Report.Violations;
    const RapTree &On = Oracle.tree();
    // Conservation, independent of which splits were admitted: both
    // trees saw every event, and estimates conserve total weight.
    if (On.numEvents() != OffTree.numEvents()) {
      std::snprintf(Detail, sizeof(Detail),
                    "admission-on tree saw %" PRIu64
                    " events, admission-off twin %" PRIu64,
                    On.numEvents(), OffTree.numEvents());
      Out.push_back({"admission-conservation", Detail});
    }
    if (On.estimateRange(0, UniverseHi) != On.numEvents()) {
      std::snprintf(Detail, sizeof(Detail),
                    "on tree whole-universe estimate %" PRIu64
                    " != numEvents %" PRIu64,
                    On.estimateRange(0, UniverseHi), On.numEvents());
      Out.push_back({"admission-conservation", Detail});
    }
    if (OffTree.estimateRange(0, UniverseHi) != OffTree.numEvents()) {
      std::snprintf(Detail, sizeof(Detail),
                    "off tree whole-universe estimate %" PRIu64
                    " != numEvents %" PRIu64,
                    OffTree.estimateRange(0, UniverseHi),
                    OffTree.numEvents());
      Out.push_back({"admission-conservation", Detail});
    }
    // Accounting: only the gated tree may deny, and deferred weight
    // exists only alongside denials.
    if (OffTree.numAdmissionDeniedSplits() != 0 ||
        OffTree.admissionDeferredWeight() != 0) {
      std::snprintf(Detail, sizeof(Detail),
                    "admission-off tree recorded %" PRIu64
                    " denials / %" PRIu64 " deferred weight",
                    OffTree.numAdmissionDeniedSplits(),
                    OffTree.admissionDeferredWeight());
      Out.push_back({"admission-accounting", Detail});
    }
    if (On.admissionDeferredWeight() != 0 &&
        On.numAdmissionDeniedSplits() == 0) {
      std::snprintf(Detail, sizeof(Detail),
                    "on tree deferred weight %" PRIu64 " with zero denials",
                    On.admissionDeferredWeight());
      Out.push_back({"admission-accounting", Detail});
    }
    // Both trees' brackets must contain the exact truth for the SAME
    // random ranges (the oracle's own battery draws different ones).
    for (unsigned Q = 0; Q != 16; ++Q) {
      uint64_t Lo = CrossRng.next() & UniverseHi;
      uint64_t Hi = Lo + (CrossRng.next() & (UniverseHi - Lo));
      uint64_t Truth = Oracle.exact().countInRange(Lo, Hi);
      for (const RapTree *T : {&On, &OffView}) {
        RapTree::RangeBounds B = T->estimateRangeBounds(Lo, Hi);
        if (B.Lower > Truth || B.Upper < Truth) {
          std::snprintf(Detail, sizeof(Detail),
                        "%s tree bracket [%" PRIu64 ", %" PRIu64
                        "] misses exact %" PRIu64 " on [%" PRIx64 ", %"
                        PRIx64 "]",
                        T == &On ? "on" : "off", B.Lower, B.Upper, Truth,
                        Lo, Hi);
          Out.push_back({"admission-bracket", Detail});
        }
      }
    }
    // The oracle checks the on tree's reports; the off twin's must be
    // prefixes of its own unpruned report too.
    checkTopKPrefix(OffTree, {5, 9}, "admission-off", Out);
  };
  auto CheckPoint = [&](uint64_t EventsFed) {
    Oracle.checkNow(QueryRng);
    Report.Violations = Oracle.violations();
    for (const RapTree *T : {&Oracle.tree(), &OffView}) {
      std::vector<InvariantViolation> Structural = TreeInvariants::audit(*T);
      Report.Violations.insert(Report.Violations.end(), Structural.begin(),
                               Structural.end());
    }
    CrossCheck();
    Report.EventsFed = EventsFed;
    return Report.Violations.empty();
  };

  for (uint64_t I = 0; I != NumEvents; ++I) {
    StreamEvent Event = Stream.next();
    Oracle.addPoint(Event.X, Event.Weight);
    if (Event.Weight != 0)
      OffTree.addPoint(Event.X, Event.Weight);
    if (CheckEvery != 0 && (I + 1) % CheckEvery == 0 && I + 1 != NumEvents)
      if (!CheckPoint(I + 1))
        return Report;
  }
  CheckPoint(NumEvents);
  return Report;
}

FuzzReport rap::runFenceFuzzEpisode(const FuzzEpisode &Episode,
                                    uint64_t NumEvents, uint64_t CheckEvery) {
  // Fault hygiene, as in runFuzzEpisode.
  failpoints::disarmAll();
  failpoints::ScopedDisarm Guard;

  // The fence-ON tree runs under the full oracle; this runner IS the
  // twin check, so the oracle's built-in fence twin is redundant and
  // disabled. The legacy reference tree models no resource
  // governance, so budgeted regimes drop that cross-check (same rule
  // as runFuzzEpisode).
  OracleOptions Options;
  Options.CrossCheckFence = false;
  if (Episode.Config.effectiveNodeBudget() != 0)
    Options.CrossCheckReference = false;
  DifferentialOracle Oracle(Episode.Config, Options);
  RapConfig OffConfig = Episode.Config;
  OffConfig.EnableRangeFence = false;
  RapTree OffTree(OffConfig);

  StreamFuzzer Stream(Episode.StreamSeed, Episode.Shape,
                      Episode.Config.RangeBits);
  Rng QueryRng(Episode.StreamSeed ^ 0x5bf03635aca1fed5ULL);
  Rng CrossRng(Episode.StreamSeed ^ 0x6a09e667f3bcc909ULL);
  const uint64_t UniverseHi =
      Episode.Config.RangeBits == 0 ? 0
                                    : lowBitMask(Episode.Config.RangeBits);

  FuzzReport Report;
  char Detail[192];
  auto CrossCheck = [&]() {
    std::vector<InvariantViolation> &Out = Report.Violations;
    const RapTree &On = Oracle.tree();
    if (On.numEvents() != OffTree.numEvents() ||
        On.numNodes() != OffTree.numNodes()) {
      std::snprintf(Detail, sizeof(Detail),
                    "fenced tree %" PRIu64 " events / %" PRIu64
                    " nodes, unfenced twin %" PRIu64 " / %" PRIu64,
                    On.numEvents(), On.numNodes(), OffTree.numEvents(),
                    OffTree.numNodes());
      Out.push_back({"fence-equivalence", Detail});
      return; // structurally diverged; range diffs would just cascade
    }
    for (unsigned Q = 0; Q != 32; ++Q) {
      uint64_t Lo = CrossRng.next() & UniverseHi;
      uint64_t Hi = Lo + (CrossRng.next() & (UniverseHi - Lo));
      uint64_t OnEst = On.estimateRange(Lo, Hi);
      uint64_t OffEst = OffTree.estimateRange(Lo, Hi);
      if (OnEst != OffEst) {
        std::snprintf(Detail, sizeof(Detail),
                      "[%" PRIx64 ", %" PRIx64 "] fenced estimate %" PRIu64
                      " != unfenced %" PRIu64,
                      Lo, Hi, OnEst, OffEst);
        Out.push_back({"fence-equivalence", Detail});
      }
      RapTree::RangeBounds OnB = On.estimateRangeBounds(Lo, Hi);
      RapTree::RangeBounds OffB = OffTree.estimateRangeBounds(Lo, Hi);
      if (OnB.Lower != OffB.Lower || OnB.Upper != OffB.Upper) {
        std::snprintf(Detail, sizeof(Detail),
                      "[%" PRIx64 ", %" PRIx64 "] fenced bracket [%" PRIu64
                      ", %" PRIu64 "] != unfenced [%" PRIu64 ", %" PRIu64 "]",
                      Lo, Hi, OnB.Lower, OnB.Upper, OffB.Lower, OffB.Upper);
        Out.push_back({"fence-equivalence", Detail});
      }
      // Soundness, checked against the tree that never consults the
      // fence: provably cold must mean literally zero retained weight.
      if (On.rangeProvablyCold(Lo, Hi) && OffEst != 0) {
        std::snprintf(Detail, sizeof(Detail),
                      "[%" PRIx64 ", %" PRIx64 "] provably cold but the "
                      "unfenced walk retains %" PRIu64,
                      Lo, Hi, OffEst);
        Out.push_back({"fence-soundness", Detail});
      }
    }
    // topK where the walk prunes (small K) and past the node count,
    // where it prunes nothing, so both regimes are compared.
    for (size_t K : {size_t(1), size_t(5),
                     static_cast<size_t>(On.numNodes()) + 3}) {
      std::vector<TopKRange> OnTop = On.topK(K);
      std::vector<TopKRange> OffTop = OffTree.topK(K);
      if (OnTop != OffTop) {
        std::snprintf(Detail, sizeof(Detail),
                      "topK(%zu) differs between fenced and unfenced trees "
                      "(%zu vs %zu entries)",
                      K, OnTop.size(), OffTop.size());
        Out.push_back({"fence-equivalence", Detail});
      }
    }
  };
  const RapTree &OffView = OffTree;
  auto CheckPoint = [&](uint64_t EventsFed) {
    Oracle.checkNow(QueryRng);
    Report.Violations = Oracle.violations();
    for (const RapTree *T : {&Oracle.tree(), &OffView}) {
      std::vector<InvariantViolation> Structural = TreeInvariants::audit(*T);
      Report.Violations.insert(Report.Violations.end(), Structural.begin(),
                               Structural.end());
    }
    CrossCheck();
    Report.EventsFed = EventsFed;
    return Report.Violations.empty();
  };

  for (uint64_t I = 0; I != NumEvents; ++I) {
    StreamEvent Event = Stream.next();
    Oracle.addPoint(Event.X, Event.Weight);
    if (Event.Weight != 0)
      OffTree.addPoint(Event.X, Event.Weight);
    if (CheckEvery != 0 && (I + 1) % CheckEvery == 0 && I + 1 != NumEvents)
      if (!CheckPoint(I + 1))
        return Report;
  }
  CheckPoint(NumEvents);
  return Report;
}

namespace {

/// The seed thread \p T's sub-stream draws from. Pure function of the
/// episode stream seed, so the concurrent ingest pass and the
/// sequential oracle replay generate bit-identical streams.
uint64_t shardedThreadSeed(uint64_t StreamSeed, unsigned T) {
  return SplitMix64(StreamSeed ^ (0xbf58476d1ce4e5b9ULL * (T + 1))).next();
}

} // namespace

FuzzReport rap::runShardedFuzzEpisode(const FuzzEpisode &Episode,
                                      uint64_t NumEvents) {
  FuzzReport Report;
  Report.EventsFed = NumEvents;
  const unsigned NumThreads = Episode.ShardThreads == 0
                                  ? 2
                                  : Episode.ShardThreads;
  auto EventsFor = [&](unsigned T) {
    return NumEvents / NumThreads + (T == 0 ? NumEvents % NumThreads : 0);
  };

  // Concurrent pass: every thread ingests its own deterministic
  // sub-stream; watermark-triggered combines race the ingest.
  ShardedRapSession Session(Episode.Config, Episode.SessionShards,
                            Episode.ShardCombineEvery);
  {
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < NumThreads; ++T)
      Threads.emplace_back([&, T]() {
        StreamFuzzer Stream(shardedThreadSeed(Episode.StreamSeed, T),
                            Episode.Shape, Episode.Config.RangeBits);
        for (uint64_t I = 0, N = EventsFor(T); I != N; ++I) {
          StreamEvent Event = Stream.next();
          Session.ingest(Event.X, Event.Weight);
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
  }
  Session.combineNow();

  // Sequential replay of the identical sub-streams into the exact
  // oracle. Total weight saturates exactly like the tree's counter.
  // Each sub-stream also fills a tree of its own, absorbed into one as
  // the session combines its shards, whose top-k reports must be
  // prefixes of its unpruned one.
  ExactProfiler Exact;
  uint64_t Total = 0;
  RapTree Replay(Episode.Config);
  for (unsigned T = 0; T < NumThreads; ++T) {
    StreamFuzzer Stream(shardedThreadSeed(Episode.StreamSeed, T),
                        Episode.Shape, Episode.Config.RangeBits);
    RapTree Part(Episode.Config);
    for (uint64_t I = 0, N = EventsFor(T); I != N; ++I) {
      StreamEvent Event = Stream.next();
      if (Event.Weight != 0)
        Exact.addPoint(Event.X, Event.Weight);
      Total = saturatingAdd(Total, Event.Weight);
      Part.addPoint(Event.X, Event.Weight);
    }
    Replay.absorb(Part);
  }
  checkTopKPrefix(Replay, {1, 8}, "sharded replay", Report.Violations);

  char Detail[160];
  // Conservation: no interleaving may lose or duplicate weight.
  if (Session.totalEvents() != Total) {
    std::snprintf(Detail, sizeof(Detail),
                  "sharded totalEvents %" PRIu64 " != sequential total %"
                  PRIu64, Session.totalEvents(), Total);
    Report.Violations.push_back({"sharded-conservation", Detail});
  }
  const uint64_t UniverseHi =
      Episode.Config.RangeBits == 0 ? 0
                                    : lowBitMask(Episode.Config.RangeBits);
  if (Session.combinedEstimate(0, UniverseHi) != Session.totalEvents()) {
    std::snprintf(Detail, sizeof(Detail),
                  "whole-universe estimate %" PRIu64 " != totalEvents %"
                  PRIu64, Session.combinedEstimate(0, UniverseHi),
                  Session.totalEvents());
    Report.Violations.push_back({"sharded-conservation", Detail});
  }

  // Range checks that hold for EVERY interleaving and merge schedule
  // (the statistical eps-accuracy model is the single-threaded fuzz
  // legs' job; its slack terms depend on the merge history, which
  // sharded combining multiplies): a duplicated shard delta breaks
  // the lower bound, a lost or torn one breaks conservation above or
  // the bracket upper below.
  Rng QueryRng(Episode.StreamSeed ^ 0x27d4eb2f165667c5ULL);
  for (unsigned Q = 0; Q != 32; ++Q) {
    uint64_t Lo = QueryRng.next() & UniverseHi;
    uint64_t Hi = Lo + (QueryRng.next() & (UniverseHi - Lo));
    uint64_t ExactCount = Exact.countInRange(Lo, Hi);
    uint64_t Estimate = Session.combinedEstimate(Lo, Hi);
    if (Estimate > ExactCount) {
      std::snprintf(Detail, sizeof(Detail),
                    "[%" PRIx64 ", %" PRIx64 "] estimate %" PRIu64
                    " exceeds exact %" PRIu64,
                    Lo, Hi, Estimate, ExactCount);
      Report.Violations.push_back({"sharded-overcount", Detail});
    }
    RapTree::RangeBounds Bounds = Session.combinedEstimateBounds(Lo, Hi);
    if (Bounds.Lower != Estimate) {
      std::snprintf(Detail, sizeof(Detail),
                    "[%" PRIx64 ", %" PRIx64 "] bracket lower %" PRIu64
                    " disagrees with estimate %" PRIu64,
                    Lo, Hi, Bounds.Lower, Estimate);
      Report.Violations.push_back({"sharded-bracket", Detail});
    }
    if (Bounds.Lower > ExactCount || Bounds.Upper < ExactCount) {
      std::snprintf(Detail, sizeof(Detail),
                    "[%" PRIx64 ", %" PRIx64 "] bracket [%" PRIu64 ", %"
                    PRIu64 "] misses exact %" PRIu64,
                    Lo, Hi, Bounds.Lower, Bounds.Upper, ExactCount);
      Report.Violations.push_back({"sharded-bracket", Detail});
    }
  }
  return Report;
}

uint64_t rap::minimizeFailure(const FuzzEpisode &Episode,
                              uint64_t FailingEvents) {
  // Fence and admission episodes carry their twin cross-checks in
  // their runners, so minimization must replay through the same
  // runner that found the failure.
  auto FailsAt = [&](uint64_t N) {
    FuzzReport R =
        Episode.FenceTwin ? runFenceFuzzEpisode(Episode, N, /*CheckEvery=*/0)
        : Episode.Config.EnableAdmission
            ? runAdmissionFuzzEpisode(Episode, N, /*CheckEvery=*/0)
            : runFuzzEpisode(Episode, N, /*CheckEvery=*/0);
    return !R.ok();
  };
  if (!FailsAt(FailingEvents))
    return FailingEvents;
  uint64_t Lo = 1, Hi = FailingEvents;
  while (Lo < Hi) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    if (FailsAt(Mid))
      Hi = Mid;
    else
      Lo = Mid + 1;
  }
  return Hi;
}
