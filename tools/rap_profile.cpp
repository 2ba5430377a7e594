//===- tools/rap_profile.cpp - The RAP command line tool ------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end command line driver for the library, covering the
/// workflow of Sec 3.2 (online collection or trace post-processing,
/// then offline analysis):
///
///   rap_profile --mode=trace --benchmark=gcc --events=2000000
///               --out=gcc.rapt
///       capture a synthetic benchmark stream to a trace file;
///
///   rap_profile --mode=collect --trace=gcc.rapt --profile=value
///               --epsilon=0.01 --out=gcc-values.rapp
///       build a RAP profile from a trace (or directly from
///       --benchmark), serialize it;
///
///   rap_profile --mode=report  --in=gcc-values.rapp --phi=0.1
///       print stream statistics, hot ranges, top ranges and the
///       coverage-by-width curve of a stored profile;
///
///   rap_profile --mode=diff    --a=phase1.rapp --b=phase2.rapp
///       divergence score between two profiles (phase identification);
///
///   rap_profile --mode=selftest
///       run the full pipeline against itself in memory (used by
///       ctest as an end-to-end smoke test).
///
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "core/Serialization.h"
#include "support/ArgParse.h"
#include "support/BitUtils.h"
#include "support/TableWriter.h"
#include "trace/ProgramModel.h"
#include "trace/TraceIO.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace rap;

namespace {

/// Which field of a TraceRecord feeds the profile.
enum class ProfileKind { Code, Value, Address, ZeroAddress, NarrowPc };

[[nodiscard]] bool parseProfileKind(const std::string &Name,
                                    ProfileKind &Kind) {
  if (Name == "code")
    Kind = ProfileKind::Code;
  else if (Name == "value")
    Kind = ProfileKind::Value;
  else if (Name == "address")
    Kind = ProfileKind::Address;
  else if (Name == "zero")
    Kind = ProfileKind::ZeroAddress;
  else if (Name == "narrow")
    Kind = ProfileKind::NarrowPc;
  else
    return false;
  return true;
}

unsigned rangeBitsFor(ProfileKind Kind) {
  switch (Kind) {
  case ProfileKind::Code:
  case ProfileKind::NarrowPc:
    return ProgramModel::PcRangeBits;
  case ProfileKind::Value:
    return ProgramModel::ValueRangeBits;
  case ProfileKind::Address:
  case ProfileKind::ZeroAddress:
    return ProgramModel::AddressRangeBits;
  }
  return 64;
}

/// Feeds record number \p Index into \p Tree according to \p Kind.
/// Trace records come from outside the program, and RapTree::addPoint
/// checks its universe only in asserts-on builds: a release build
/// would count an out-of-universe key in the in-universe range its low
/// bits select. So a key past the universe is not fed; the call
/// returns false and \p Error names the record and its field.
bool feedRecord(RapTree &Tree, const TraceRecord &Record, ProfileKind Kind,
                uint64_t Index, std::string &Error) {
  const char *Field = "BlockPc";
  uint64_t Key = Record.BlockPc;
  uint64_t Weight = 1;
  switch (Kind) {
  case ProfileKind::Code:
    Weight = Record.BlockLength;
    break;
  case ProfileKind::Value:
    if (!Record.HasLoad)
      return true;
    Field = "LoadValue";
    Key = Record.LoadValue;
    break;
  case ProfileKind::Address:
  case ProfileKind::ZeroAddress:
    if (!Record.HasLoad ||
        (Kind == ProfileKind::ZeroAddress && Record.LoadValue != 0))
      return true;
    Field = "LoadAddress";
    Key = Record.LoadAddress;
    break;
  case ProfileKind::NarrowPc:
    if (!Record.NarrowOperand)
      return true;
    break;
  }
  unsigned RangeBits = Tree.config().RangeBits;
  if (Key > lowBitMask(RangeBits)) {
    char Buffer[128];
    std::snprintf(Buffer, sizeof(Buffer),
                  "record %" PRIu64 ": %s 0x%" PRIx64
                  " is outside the profile's universe [0, 2^%u)",
                  Index, Field, Key, RangeBits);
    Error = Buffer;
    return false;
  }
  Tree.addPoint(Key, Weight);
  return true;
}

/// Feeds every record of the trace on \p In into \p Tree. Returns
/// false with \p Error set if the trace is malformed or a record's key
/// lies outside the tree's universe.
bool collectTrace(std::istream &In, RapTree &Tree, ProfileKind Kind,
                  std::string &Error) {
  TraceReader Reader(In);
  TraceRecord Record;
  for (uint64_t Index = 0; Reader.valid() && Reader.next(Record); ++Index)
    if (!feedRecord(Tree, Record, Kind, Index, Error))
      return false;
  if (!Reader.valid())
    Error = Reader.error();
  return Reader.valid();
}

int runTrace(const ArgParse &Args) {
  std::ofstream Out(Args.getString("out"), std::ios::binary);
  if (!Out) {
    std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                 Args.getString("out").c_str());
    return 1;
  }
  ProgramModel Model(getBenchmarkSpec(Args.getString("benchmark")),
                     Args.getUint("seed"));
  TraceWriter Writer(Out);
  uint64_t NumBlocks = Args.getUint("events");
  for (uint64_t I = 0; I != NumBlocks; ++I)
    Writer.append(Model.next());
  if (!Writer.finish()) {
    std::fprintf(stderr, "error: short write to '%s' (disk full?)\n",
                 Args.getString("out").c_str());
    return 1;
  }
  std::printf("wrote %" PRIu64 " records to %s\n", Writer.numRecords(),
              Args.getString("out").c_str());
  return 0;
}

int runCollect(const ArgParse &Args) {
  ProfileKind Kind;
  if (!parseProfileKind(Args.getString("profile"), Kind)) {
    std::fprintf(stderr,
                 "error: --profile must be code|value|address|zero|narrow\n");
    return 1;
  }
  RapConfig Config;
  Config.RangeBits = rangeBitsFor(Kind);
  Config.Epsilon = Args.getDouble("epsilon");
  Config.MaxNodes = Args.getUint("max-nodes");
  std::string Error;
  if (!Config.validate(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  RapTree Tree(Config);

  if (!Args.getString("trace").empty()) {
    std::ifstream In(Args.getString("trace"), std::ios::binary);
    if (!In) {
      std::fprintf(stderr, "error: cannot open trace '%s'\n",
                   Args.getString("trace").c_str());
      return 1;
    }
    if (!collectTrace(In, Tree, Kind, Error)) {
      std::fprintf(stderr, "error: %s: %s\n",
                   Args.getString("trace").c_str(), Error.c_str());
      return 1;
    }
  } else {
    ProgramModel Model(getBenchmarkSpec(Args.getString("benchmark")),
                       Args.getUint("seed"));
    uint64_t NumBlocks = Args.getUint("events");
    for (uint64_t I = 0; I != NumBlocks; ++I)
      if (!feedRecord(Tree, Model.next(), Kind, I, Error)) {
        std::fprintf(stderr, "error: model %s\n", Error.c_str());
        return 1;
      }
  }

  ProfileSnapshot Snapshot = ProfileSnapshot::capture(Tree);
  if (Args.getBool("text")) {
    std::ofstream Out(Args.getString("out"), std::ios::binary);
    if (!Out) {
      std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                   Args.getString("out").c_str());
      return 1;
    }
    if (!Snapshot.writeText(Out)) {
      std::fprintf(stderr, "error: short write to '%s' (disk full?)\n",
                   Args.getString("out").c_str());
      return 1;
    }
  } else if (!Snapshot.saveFileAtomic(Args.getString("out"), &Error)) {
    // Atomic write-then-rename: a failure here never clobbers an
    // existing profile under the output name.
    std::fprintf(stderr, "error: %s: %s\n",
                 Args.getString("out").c_str(), Error.c_str());
    return 1;
  }
  std::printf("profiled %" PRIu64 " events into %" PRIu64
              " counters -> %s\n",
              Snapshot.numEvents(), Snapshot.numNodes(),
              Args.getString("out").c_str());
  const TreePressure &P = Tree.pressure();
  if (P.NodeBudget != 0 || P.AllocFailures != 0)
    std::printf("pressure: budget=%" PRIu64 " nodes, hits=%" PRIu64
                ", refused-splits=%" PRIu64 ", forced-merges=%" PRIu64
                ", reclaimed=%" PRIu64 ", coarsen-level=%" PRIu64
                ", degraded-weight=%" PRIu64 "\n",
                P.NodeBudget, P.BudgetHits, P.RefusedSplits,
                P.ForcedMergePasses, P.ReclaimedNodes, P.CoarsenLevel,
                uint64_t(P.DegradedWeight));
  return 0;
}

std::unique_ptr<ProfileSnapshot> loadProfile(const std::string &Path) {
  // loadFile handles both formats, verifies the CRC footer, and never
  // reinterprets a corrupt binary profile as text.
  std::string Error;
  std::unique_ptr<ProfileSnapshot> Snapshot =
      ProfileSnapshot::loadFile(Path, &Error);
  if (!Snapshot)
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Error.c_str());
  return Snapshot;
}

int runReport(const ArgParse &Args) {
  std::unique_ptr<ProfileSnapshot> Snapshot =
      loadProfile(Args.getString("in"));
  if (!Snapshot)
    return 1;
  double Phi = Args.getDouble("phi");
  std::unique_ptr<RapTree> Tree = Snapshot->restore();

  std::printf("profile: %" PRIu64 " events, %" PRIu64 " counters, "
              "universe 2^%u, eps %.4g\n",
              Snapshot->numEvents(), Snapshot->numNodes(),
              Snapshot->config().RangeBits, Snapshot->config().Epsilon);
  if (Snapshot->config().effectiveNodeBudget() != 0)
    std::printf("collected under a %" PRIu64 "-node budget; estimates "
                "may be degraded where it was hit\n",
                Snapshot->config().effectiveNodeBudget());
  std::printf("\n");

  std::printf("hot ranges (>= %.1f%%):\n", Phi * 100);
  Tree->dumpHot(std::cout, Phi);

  std::printf("\ntop %" PRIu64 " ranges by exclusive weight:\n",
              Args.getUint("top"));
  TableWriter Table;
  Table.setHeader({"range", "width", "share"});
  for (const HotRange &H :
       topRanges(*Tree, static_cast<unsigned>(Args.getUint("top")))) {
    double Share = 100.0 * static_cast<double>(H.ExclusiveWeight) /
                   static_cast<double>(Tree->numEvents());
    Table.addRow({"[" + TableWriter::hex(H.Lo) + ", " +
                      TableWriter::hex(H.Hi) + "]",
                  "2^" + std::to_string(H.WidthBits),
                  TableWriter::fmt(Share, 2) + "%"});
  }
  Table.print(std::cout);

  std::printf("\ncoverage by hot-range width:\n");
  TableWriter Coverage;
  Coverage.setHeader({"log2(width)", "coverage"});
  std::vector<unsigned> Grid;
  for (unsigned W = 0; W <= Snapshot->config().RangeBits; W += 8)
    Grid.push_back(W);
  for (const CoveragePoint &Point : coverageByWidth(*Tree, Phi, Grid))
    Coverage.addRow({TableWriter::fmt(static_cast<uint64_t>(Point.WidthBits)),
                     TableWriter::fmt(Point.CoveragePercent, 1) + "%"});
  Coverage.print(std::cout);
  return 0;
}

int runDiff(const ArgParse &Args) {
  std::unique_ptr<ProfileSnapshot> A = loadProfile(Args.getString("a"));
  std::unique_ptr<ProfileSnapshot> B = loadProfile(Args.getString("b"));
  if (!A || !B)
    return 1;
  if (A->config().RangeBits != B->config().RangeBits) {
    std::fprintf(stderr, "error: profiles cover different universes\n");
    return 1;
  }
  double Phi = Args.getDouble("phi");
  double Score = profileDivergence(*A, *B, Phi);
  std::printf("events: %" PRIu64 " vs %" PRIu64 "\n", A->numEvents(),
              B->numEvents());
  std::printf("divergence at phi=%.3g: %.4f  (0 = identical, 1 = "
              "disjoint hot sets)\n",
              Phi, Score);

  // Interval analysis is only meaningful when B is a later snapshot of
  // the same run as A (monotone counters), so it is opt-in.
  if (Args.getBool("interval") && A->numEvents() <= B->numEvents()) {
    IntervalProfile Interval(*A, *B);
    if (Interval.numEvents() > 0) {
      std::printf("\ninterval profile (%" PRIu64 " new events), hot "
                  "ranges:\n",
                  Interval.numEvents());
      for (const HotRange &H : Interval.hotRanges(Phi)) {
        double Share = 100.0 * static_cast<double>(H.ExclusiveWeight) /
                       static_cast<double>(Interval.numEvents());
        std::printf("  [%" PRIx64 ", %" PRIx64 "] %.1f%%\n", H.Lo, H.Hi,
                    Share);
      }
    }
  }
  return 0;
}

/// Runs the whole pipeline in memory; the ctest end-to-end smoke test.
int runSelfTest() {
  // Capture a trace.
  std::stringstream TraceStream;
  {
    ProgramModel Model(getBenchmarkSpec("gzip"), 1);
    TraceWriter Writer(TraceStream);
    for (int I = 0; I != 200000; ++I)
      Writer.append(Model.next());
    if (!Writer.finish()) {
      std::fprintf(stderr, "selftest: trace capture failed\n");
      return 1;
    }
  }
  // Profile it through the trace reader, as --mode=collect does: every
  // profile kind must accept the model's own trace.
  auto Collect = [&](ProfileKind Kind, double Epsilon) {
    TraceStream.clear();
    TraceStream.seekg(0);
    RapConfig Config;
    Config.RangeBits = rangeBitsFor(Kind);
    Config.Epsilon = Epsilon;
    RapTree Tree(Config);
    std::string Error;
    if (!collectTrace(TraceStream, Tree, Kind, Error)) {
      std::fprintf(stderr, "selftest: model trace rejected: %s\n",
                   Error.c_str());
      return std::unique_ptr<ProfileSnapshot>();
    }
    return std::make_unique<ProfileSnapshot>(
        ProfileSnapshot::capture(Tree));
  };
  for (ProfileKind Kind : {ProfileKind::Code, ProfileKind::Address,
                           ProfileKind::ZeroAddress, ProfileKind::NarrowPc})
    if (!Collect(Kind, 0.01))
      return 1;
  // The value profile twice, at two epsilons.
  std::unique_ptr<ProfileSnapshot> Coarse = Collect(ProfileKind::Value, 0.1);
  std::unique_ptr<ProfileSnapshot> Fine = Collect(ProfileKind::Value, 0.01);
  if (!Coarse || !Fine)
    return 1;

  // A trace whose key lies past the profile's universe is rejected,
  // naming the record and field, and never misfiled into the range
  // its low bits select.
  struct BadTrace {
    ProfileKind Kind;
    TraceRecord Record;
    const char *Expected;
  };
  TraceRecord Pc;
  Pc.BlockPc = uint64_t(1) << ProgramModel::PcRangeBits;
  Pc.BlockLength = 4;
  TraceRecord Address;
  Address.HasLoad = true;
  Address.LoadAddress = uint64_t(1) << ProgramModel::AddressRangeBits;
  for (const BadTrace &Bad :
       {BadTrace{ProfileKind::Code, Pc, "record 1: BlockPc 0x100000000 "},
        BadTrace{ProfileKind::Address, Address,
                 "record 1: LoadAddress 0x100000000000 "}}) {
    std::stringstream BadStream;
    TraceWriter Writer(BadStream);
    Writer.append(TraceRecord());
    Writer.append(Bad.Record);
    if (!Writer.finish()) {
      std::fprintf(stderr, "selftest: trace capture failed\n");
      return 1;
    }
    RapConfig Config;
    Config.RangeBits = rangeBitsFor(Bad.Kind);
    RapTree Tree(Config);
    std::string Error;
    if (collectTrace(BadStream, Tree, Bad.Kind, Error) ||
        Error.rfind(Bad.Expected, 0) != 0 || Tree.numEvents() != 0) {
      std::fprintf(stderr,
                   "selftest: out-of-universe record not rejected "
                   "(%" PRIu64 " events fed, error '%s')\n",
                   Tree.numEvents(), Error.c_str());
      return 1;
    }
  }

  // Round-trip the fine profile through the binary format.
  std::stringstream ProfileStream;
  if (!Fine->writeBinary(ProfileStream)) {
    std::fprintf(stderr, "selftest: profile write failed\n");
    return 1;
  }
  std::string Error;
  std::unique_ptr<ProfileSnapshot> Reloaded =
      ProfileSnapshot::readBinary(ProfileStream, &Error);
  if (!Reloaded || !(*Reloaded == *Fine)) {
    std::fprintf(stderr, "selftest: profile round trip failed: %s\n",
                 Error.c_str());
    return 1;
  }

  // The CRC footer must reject a bit flip anywhere in the stream.
  const std::string Bytes = ProfileStream.str();
  for (size_t Offset : {size_t(6), Bytes.size() / 2, Bytes.size() - 2}) {
    std::string Corrupt = Bytes;
    Corrupt[Offset] = static_cast<char>(Corrupt[Offset] ^ 0x20);
    std::istringstream CorruptStream(Corrupt);
    if (ProfileSnapshot::readBinary(CorruptStream)) {
      std::fprintf(stderr,
                   "selftest: corrupted profile (offset %zu) accepted\n",
                   Offset);
      return 1;
    }
  }

  // Both profiles must agree on the whole-universe count and find hot
  // ranges; their divergence must be small (same stream).
  if (Reloaded->numEvents() != Coarse->numEvents() ||
      Reloaded->extractHotRanges(0.1).empty()) {
    std::fprintf(stderr, "selftest: inconsistent profiles\n");
    return 1;
  }
  double Divergence = profileDivergence(*Coarse, *Reloaded, 0.1);
  if (Divergence > 0.05) {
    std::fprintf(stderr, "selftest: unexpected divergence %.4f\n",
                 Divergence);
    return 1;
  }
  std::printf("selftest passed: %" PRIu64 " events, %" PRIu64
              " counters, divergence %.4f\n",
              Reloaded->numEvents(), Reloaded->numNodes(), Divergence);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args("rap_profile",
                "collect, store, inspect and compare RAP profiles");
  Args.addString("mode", "report",
                 "trace | collect | report | diff | selftest");
  Args.addString("benchmark", "gcc", "benchmark model (trace/collect)");
  Args.addString("trace", "", "input trace file (collect)");
  Args.addString("profile", "code",
                 "profile kind: code|value|address|zero|narrow (collect)");
  Args.addString("out", "profile.rapp", "output file (trace/collect)");
  Args.addString("in", "profile.rapp", "input profile (report)");
  Args.addString("a", "", "first profile (diff)");
  Args.addString("b", "", "second profile (diff)");
  Args.addDouble("epsilon", 0.01, "RAP error bound (collect)");
  Args.addDouble("phi", 0.10, "hotness threshold (report/diff)");
  Args.addUint("top", 10, "top ranges to list (report)");
  Args.addUint("events", 2000000, "blocks to generate (trace/collect)");
  Args.addUint("max-nodes",
               0, "cap the profile at this many counters; at the cap the "
                  "profile degrades to coarser ranges (0 = unbounded)");
  Args.addUint("seed", 1, "run seed (trace/collect)");
  Args.addBool("text", "write the text profile format (collect)");
  Args.addBool("interval",
               "diff: treat --b as a later snapshot of --a's run and "
               "report the interval profile");
  if (!Args.parse(Argc, Argv))
    return 1;

  const std::string &Mode = Args.getString("mode");
  if (Mode == "trace")
    return runTrace(Args);
  if (Mode == "collect")
    return runCollect(Args);
  if (Mode == "report")
    return runReport(Args);
  if (Mode == "diff")
    return runDiff(Args);
  if (Mode == "selftest")
    return runSelfTest();
  std::fprintf(stderr, "error: unknown mode '%s'\n", Mode.c_str());
  return 1;
}
