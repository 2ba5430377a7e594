//===- tools/rap_fuzz.cpp - Differential fuzz driver ---------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs seeded episodes of (random RapConfig) x (random adversarial
// stream shape), feeding every event through the DifferentialOracle
// (exact + flat cross-oracles, online transition auditing) and the
// structural TreeInvariants audit. On a failure the stream prefix is
// binary-search minimized and a one-line replay command is printed:
//
//   rap_fuzz --seed=S --replay-episode=I --replay-events=N
//
// --arena derives each episode with a stage-0 combining capacity, so
// the stream reaches the tree through StageZeroBuffer windows and the
// combining + arena-descent path is what gets fuzzed. Replays of
// arena episodes need --arena too.
//
// --faults derives each episode with a resource-governance regime (a
// node or byte budget, periodic injected allocation failures, or
// both) and ends every clean episode with the snapshot robustness
// battery: binary round-trip plus seeded corruption and truncation
// probes, all of which must be rejected. Replays need --faults too.
//
// --sharded derives each episode with a thread count, shard count,
// and combine watermark, and drives a ShardedRapSession from that
// many concurrent ingest threads; the merged profile is cross-checked
// against a sequential ExactProfiler replay of the same sub-streams
// (exact weight conservation, range lower bounds, brackets).
// Intended to run both plain and under -DRAP_SANITIZE=thread (the
// ci.sh concurrency leg does the latter). Replays need --sharded too;
// the checked properties are interleaving-independent, the
// interleaving itself is not.
//
// --fence derives each episode with the cold-range fence enabled
// (sometimes layered with the admission gate and/or a resource
// budget, both deterministic per tree) and cross-checks a fence-OFF
// twin fed the identical stream: every estimate, bracket, and top-k
// report must match bit for bit, and any range the fenced tree
// proves cold must retain zero weight on the unfenced walk. Replays
// need --fence too.
//
// --sorted derives each episode with a sort window and delivers the
// stream in ascending windows, the order stage-0 drains hand the tree
// (so consecutive updates share long root paths and the finger
// descent resumes deep), sometimes under the admission gate or a
// 64-node budget. The oracle, including the root-descending legacy
// tree, sees the delivered stream. Replays need --sorted too.
//
// --admission derives each episode with the randomized split
// admission gate enabled (a drawn coarseness and admission seed) and
// runs the admission-ON tree through the full oracle battery — which
// enforces the closed-form deferred-weight error bound — while an
// admission-OFF twin fed the identical stream is cross-checked on
// interleaving-independent properties: event conservation, brackets
// containing the exact truth on both trees, and per-tree top-k
// nesting. Replays need --admission too.
//
// Exit status: 0 all episodes clean, 1 violations found, 2 bad usage.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "verify/StreamFuzzer.h"

#include <cinttypes>
#include <cstdio>

using namespace rap;

namespace {

void describeEpisode(const FuzzEpisode &E) {
  const RapConfig &C = E.Config;
  std::printf("episode %" PRIu64 ": shape=%s bits=%u b=%u eps=%.4f q=%.2f "
              "m0=%" PRIu64 " merges=%d combine=%" PRIu64
              " streamseed=0x%" PRIx64 "\n",
              E.Index, streamShapeName(E.Shape), C.RangeBits, C.BranchFactor,
              C.Epsilon, C.MergeRatio, C.InitialMergeInterval,
              C.EnableMerges ? 1 : 0, E.CombineCapacity, E.StreamSeed);
  if (E.Config.effectiveNodeBudget() != 0 || E.AllocFailEvery != 0)
    std::printf("  faults: budget=%" PRIu64 " nodes (max_nodes=%" PRIu64
                " max_bytes=%" PRIu64 ") allocfail-every=%" PRIu64 "\n",
                E.Config.effectiveNodeBudget(), E.Config.MaxNodes,
                E.Config.MaxMemoryBytes, E.AllocFailEvery);
  if (E.ShardThreads != 0)
    std::printf("  sharded: threads=%u shards=%u combine-every=%" PRIu64
                "\n",
                E.ShardThreads, E.SessionShards, E.ShardCombineEvery);
  if (E.Config.EnableAdmission)
    std::printf("  admission: coarseness=%.1f seed=0x%" PRIx64 "\n",
                E.Config.AdmissionCoarseness, E.Config.AdmissionSeed);
  if (E.FenceTwin)
    std::printf("  fence: twin cross-check (fenced vs unfenced)\n");
  if (E.SortWindow != 0)
    std::printf("  sorted: ascending windows of %" PRIu64 " events\n",
                E.SortWindow);
}

void printViolations(const FuzzReport &Report, uint64_t Limit) {
  uint64_t Shown = 0;
  for (const InvariantViolation &V : Report.Violations) {
    if (Shown++ == Limit) {
      std::printf("  ... %zu more violations suppressed\n",
                  Report.Violations.size() - size_t(Limit));
      break;
    }
    std::printf("  [%s] %s\n", V.Invariant.c_str(), V.Detail.c_str());
  }
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args("rap_fuzz",
                "Differential fuzzer: random configs x adversarial streams, "
                "checked against exact oracles and structural invariants.");
  Args.addUint("episodes", 200, "number of seeded episodes to run");
  Args.addUint("seed", 1, "master seed; episode i derives from (seed, i)");
  Args.addUint("events", 20000, "events fed per episode");
  Args.addUint("check-every", 4096, "run the checkers every K events");
  Args.addUint("replay-episode", 0,
               "replay exactly one episode index (with --replay-events)");
  Args.addUint("replay-events", 0,
               "event count for --replay-episode (0 = use --events)");
  Args.addBool("replay", "replay mode: run only --replay-episode");
  Args.addBool("arena", "fuzz the combining-buffer + arena-descent path");
  Args.addBool("faults", "fuzz under node budgets and injected faults");
  Args.addBool("sharded",
               "fuzz concurrent ingest through ShardedRapSession against "
               "a sequential exact-oracle replay");
  Args.addBool("admission",
               "fuzz the randomized split-admission gate against an "
               "admission-off twin fed the identical stream");
  Args.addBool("fence",
               "fuzz the cold-range fence against a fence-off twin fed "
               "the identical stream (bit-exact query equivalence)");
  Args.addBool("sorted",
               "deliver each episode's stream in ascending windows, as "
               "stage-0 drains do (deep finger-descent resumes)");
  Args.addBool("verbose", "describe every episode, not just failures");
  if (!Args.parse(Argc, Argv))
    return 2;

  uint64_t Seed = Args.getUint("seed");
  uint64_t NumEvents = Args.getUint("events");
  uint64_t CheckEvery = Args.getUint("check-every");
  bool Arena = Args.getBool("arena");
  bool Faults = Args.getBool("faults");
  bool Sharded = Args.getBool("sharded");
  bool Admission = Args.getBool("admission");
  bool Fence = Args.getBool("fence");
  bool Sorted = Args.getBool("sorted");
  if (int(Arena) + int(Faults) + int(Sharded) + int(Admission) +
          int(Fence) + int(Sorted) > 1) {
    std::fprintf(stderr,
                 "rap_fuzz: --arena, --faults, --sharded, --admission, "
                 "--fence and --sorted are exclusive\n");
    return 2;
  }
  auto Derive = [&](uint64_t Index) {
    return Sharded     ? deriveShardedEpisode(Seed, Index)
           : Faults    ? deriveFaultEpisode(Seed, Index)
           : Arena     ? deriveArenaEpisode(Seed, Index)
           : Admission ? deriveAdmissionEpisode(Seed, Index)
           : Fence     ? deriveFenceEpisode(Seed, Index)
           : Sorted    ? deriveSortedEpisode(Seed, Index)
                       : deriveEpisode(Seed, Index);
  };
  auto Run = [&](const FuzzEpisode &E, uint64_t Events, uint64_t Every) {
    return Sharded     ? runShardedFuzzEpisode(E, Events)
           : Admission ? runAdmissionFuzzEpisode(E, Events, Every)
           : Fence     ? runFenceFuzzEpisode(E, Events, Every)
                       : runFuzzEpisode(E, Events, Every);
  };

  if (Args.getBool("replay")) {
    FuzzEpisode E = Derive(Args.getUint("replay-episode"));
    uint64_t ReplayEvents = Args.getUint("replay-events");
    if (ReplayEvents == 0)
      ReplayEvents = NumEvents;
    describeEpisode(E);
    FuzzReport Report = Run(E, ReplayEvents, CheckEvery);
    if (Report.ok()) {
      std::printf("replay clean after %" PRIu64 " events\n", Report.EventsFed);
      return 0;
    }
    std::printf("replay FAILED after %" PRIu64 " events:\n", Report.EventsFed);
    printViolations(Report, 20);
    return 1;
  }

  uint64_t Episodes = Args.getUint("episodes");
  uint64_t Failed = 0;
  for (uint64_t I = 0; I != Episodes; ++I) {
    FuzzEpisode E = Derive(I);
    if (Args.getBool("verbose"))
      describeEpisode(E);
    FuzzReport Report = Run(E, NumEvents, CheckEvery);
    if (Report.ok())
      continue;
    ++Failed;
    std::printf("FAIL ");
    describeEpisode(E);
    printViolations(Report, 10);
    // Sharded failures skip prefix minimization: the interleaving is
    // not replayable, so a shorter prefix proves nothing.
    uint64_t Minimal =
        Sharded ? Report.EventsFed : minimizeFailure(E, Report.EventsFed);
    std::printf("  minimized to %" PRIu64 " events; replay with:\n"
                "    rap_fuzz --replay%s --seed=%" PRIu64
                " --replay-episode=%" PRIu64 " --replay-events=%" PRIu64
                " --check-every=0\n",
                Minimal,
                Sharded     ? " --sharded"
                : Faults    ? " --faults"
                : Arena     ? " --arena"
                : Admission ? " --admission"
                : Fence     ? " --fence"
                : Sorted    ? " --sorted"
                            : "",
                Seed, I, Minimal);
  }

  std::printf("%" PRIu64 "/%" PRIu64 " episodes clean (seed %" PRIu64
              ", %" PRIu64 " events each)\n",
              Episodes - Failed, Episodes, Seed, NumEvents);
  return Failed == 0 ? 0 : 1;
}
