//===- perfbench/src/Main.cpp - The end-to-end RAP benchmark --------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
//   rap_perfbench --workload <program-profile|query-mixed>
//                 --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// Generates the workload's inputs from the seed, runs it for the given
// seconds through the profiler's public C++ API, checks every answer
// against an exact reference, and prints the metrics. The last line of
// standard output is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run records spans around each call into a layer and reports the
// per-layer metrics instead (spans go to --spans when given). Exits 2
// on a usage error and 1 when the run could not produce a result.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

using namespace perfbench;

static int usage(const char *Why) {
  std::fprintf(stderr,
               "rap_perfbench: %s\nusage: rap_perfbench --workload "
               "<program-profile|query-mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n",
               Why);
  return 2;
}

int main(int Argc, char **Argv) {
  RunOptions Opt;
  bool SawSeed = false, SawSeconds = false, SawTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    try {
      if (Flag == "--workload") {
        Opt.Workload = Value;
      } else if (Flag == "--seed") {
        Opt.Seed = std::stoull(Value);
        SawSeed = true;
      } else if (Flag == "--seconds") {
        Opt.Seconds = std::stod(Value);
        SawSeconds = Opt.Seconds > 0 && std::isfinite(Opt.Seconds);
      } else if (Flag == "--trace") {
        if (Value != "0" && Value != "1")
          return usage("--trace takes 0 or 1");
        Opt.Trace = Value == "1";
        SawTrace = true;
      } else if (Flag == "--spans") {
        Opt.SpansPath = Value;
      } else {
        return usage(("unknown flag " + Flag).c_str());
      }
    } catch (const std::exception &) {
      return usage(("bad value for " + Flag).c_str());
    }
  }
  if (!SawSeed || !SawSeconds || !SawTrace)
    return usage("--seed, --seconds (> 0) and --trace are required");

  // The workloads run on the main thread; the last CPU is also the one
  // the session layer's reader gets in query-mixed's traced run.
  pinToCpu(std::max(1u, std::thread::hardware_concurrency()) - 1);
  nsPerCycle(); // Calibrate before anything is timed.
  Report R;
  try {
    if (Opt.Workload == "program-profile")
      R = runProgramProfile(Opt);
    else if (Opt.Workload == "query-mixed")
      R = runQueryMixed(Opt);
    else
      return usage("unknown workload");
  } catch (const std::exception &E) {
    std::fprintf(stderr, "rap_perfbench: run failed: %s\n", E.what());
    return 1;
  }

  if (!Opt.SpansPath.empty() && Opt.Trace) {
    std::ofstream OS(Opt.SpansPath);
    OS << "list,span,parent,name,request,start_ns,end_ns\n";
    for (size_t I = 0; I != R.Spans.size(); ++I)
      writeCsv(OS, R.Spans[I], static_cast<unsigned>(I));
    if (!OS) {
      std::fprintf(stderr, "rap_perfbench: cannot write %s\n",
                   Opt.SpansPath.c_str());
      return 1;
    }
  }

  if (R.Attempted == 0) {
    std::fprintf(stderr, "rap_perfbench: the run attempted nothing\n");
    return 1;
  }
  for (const std::string &Note : R.Notes)
    std::printf("# %s\n", Note.c_str());
  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    if (!std::isfinite(M.Value)) {
      std::fprintf(stderr, "rap_perfbench: metric %s is not finite\n",
                   M.Name.c_str());
      return 1;
    }
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.17g", M.Value);
    std::printf("# %-36s %s %s\n", M.Name.c_str(), Num, M.Unit.c_str());
    Json += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Num +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
