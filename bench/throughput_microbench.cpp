//===- bench/throughput_microbench.cpp - Software RAP throughput ---------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the software RAP implementation
/// (Sec 3.2): update throughput across stream shapes, branching
/// factors and epsilons, the stage-0 combining buffer, and the
/// baseline profilers for context. The paper's software path is the
/// rap_add_points() loop; items/second here is events/second.
///
//===----------------------------------------------------------------------===//

#include "baselines/ExactProfiler.h"
#include "baselines/SpaceSaving.h"
#include "bench/Common.h"
#include "core/MultiDimRap.h"
#include "core/Serialization.h"
#include "core/StageZeroBuffer.h"
#include "hw/PipelinedEngine.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <sstream>
#include <vector>

using namespace rap;
using namespace rap::bench;

namespace {

/// Pre-generates a value stream so generation cost is excluded.
std::vector<uint64_t> makeValueStream(size_t Count) {
  ProgramModel Model(getBenchmarkSpec("gzip"), 1);
  std::vector<uint64_t> Stream;
  Stream.reserve(Count);
  while (Stream.size() < Count) {
    TraceRecord Record = Model.next();
    if (Record.HasLoad)
      Stream.push_back(Record.LoadValue);
  }
  return Stream;
}

std::vector<uint64_t> makeCodeStream(size_t Count) {
  ProgramModel Model(getBenchmarkSpec("gcc"), 1);
  std::vector<uint64_t> Stream;
  Stream.reserve(Count);
  for (size_t I = 0; I != Count; ++I)
    Stream.push_back(Model.next().BlockPc);
  return Stream;
}

void BM_RapTreeUpdate_Values(benchmark::State &State) {
  static const std::vector<uint64_t> Stream = makeValueStream(1 << 20);
  RapConfig Config = valueConfig(0.01);
  Config.BranchFactor = static_cast<unsigned>(State.range(0));
  RapTree Tree(Config);
  size_t Index = 0;
  for (auto _ : State) {
    Tree.addPoint(Stream[Index]);
    if (++Index == Stream.size())
      Index = 0;
  }
  State.SetItemsProcessed(State.iterations());
  State.counters["nodes"] = static_cast<double>(Tree.numNodes());
}
BENCHMARK(BM_RapTreeUpdate_Values)->Arg(2)->Arg(4)->Arg(16);

void BM_RapTreeUpdate_Code(benchmark::State &State) {
  static const std::vector<uint64_t> Stream = makeCodeStream(1 << 20);
  double Epsilon = static_cast<double>(State.range(0)) / 1000.0;
  RapTree Tree(codeConfig(Epsilon));
  size_t Index = 0;
  for (auto _ : State) {
    Tree.addPoint(Stream[Index]);
    if (++Index == Stream.size())
      Index = 0;
  }
  State.SetItemsProcessed(State.iterations());
  State.counters["nodes"] = static_cast<double>(Tree.numNodes());
}
BENCHMARK(BM_RapTreeUpdate_Code)->Arg(100)->Arg(10)->Arg(1);

void BM_RapEstimateRange(benchmark::State &State) {
  static const std::vector<uint64_t> Stream = makeValueStream(1 << 20);
  RapTree Tree(valueConfig(0.01));
  for (uint64_t X : Stream)
    Tree.addPoint(X);
  Rng Random(3);
  for (auto _ : State) {
    uint64_t Lo = Random.next() >> 1;
    benchmark::DoNotOptimize(Tree.estimateRange(Lo, Lo + (1 << 20)));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RapEstimateRange);

void BM_HotRangeExtraction(benchmark::State &State) {
  static const std::vector<uint64_t> Stream = makeValueStream(1 << 20);
  RapTree Tree(valueConfig(0.01));
  for (uint64_t X : Stream)
    Tree.addPoint(X);
  for (auto _ : State)
    benchmark::DoNotOptimize(Tree.extractHotRanges(0.10));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_HotRangeExtraction);

void BM_StageZeroBufferPush(benchmark::State &State) {
  static const std::vector<uint64_t> Stream = makeCodeStream(1 << 20);
  StageZeroBuffer Buffer(1024);
  size_t Index = 0;
  for (auto _ : State) {
    if (Buffer.push(Stream[Index]))
      benchmark::DoNotOptimize(Buffer.drain());
    if (++Index == Stream.size())
      Index = 0;
  }
  State.SetItemsProcessed(State.iterations());
  State.counters["combining"] = Buffer.combiningFactor();
}
BENCHMARK(BM_StageZeroBufferPush);

void BM_PipelinedEngine_CodeProfile(benchmark::State &State) {
  static const std::vector<uint64_t> Stream = makeCodeStream(1 << 20);
  EngineConfig Config;
  Config.Profile = codeConfig(0.01);
  Config.TcamCapacity = 4096;
  Config.BufferCapacity = static_cast<uint64_t>(State.range(0));
  PipelinedRapEngine Engine(Config);
  size_t Index = 0;
  for (auto _ : State) {
    Engine.pushEvent(Stream[Index]);
    if (++Index == Stream.size())
      Index = 0;
  }
  Engine.flush();
  State.SetItemsProcessed(State.iterations());
  State.counters["hw_cyc/event"] = Engine.cyclesPerRawEvent();
}
BENCHMARK(BM_PipelinedEngine_CodeProfile)->Arg(0)->Arg(1024);

void BM_ExactProfilerAdd(benchmark::State &State) {
  static const std::vector<uint64_t> Stream = makeValueStream(1 << 20);
  ExactProfiler Profiler;
  size_t Index = 0;
  for (auto _ : State) {
    Profiler.addPoint(Stream[Index]);
    if (++Index == Stream.size())
      Index = 0;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ExactProfilerAdd);

void BM_MdRapUpdate_Edges(benchmark::State &State) {
  static const std::vector<uint64_t> Stream = makeCodeStream(1 << 20);
  MdRapConfig Config;
  Config.RangeBits = 24;
  Config.Epsilon = 0.02;
  MdRapTree Tree(Config);
  size_t Index = 0;
  uint64_t Prev = Stream[0] & 0xffffff;
  for (auto _ : State) {
    uint64_t Cur = Stream[Index] & 0xffffff;
    Tree.addPoint(Prev, Cur);
    Prev = Cur;
    if (++Index == Stream.size())
      Index = 0;
  }
  State.SetItemsProcessed(State.iterations());
  State.counters["nodes"] = static_cast<double>(Tree.numNodes());
}
BENCHMARK(BM_MdRapUpdate_Edges);

void BM_SnapshotCapture(benchmark::State &State) {
  static const std::vector<uint64_t> Stream = makeValueStream(1 << 20);
  RapTree Tree(valueConfig(0.01));
  for (uint64_t X : Stream)
    Tree.addPoint(X);
  for (auto _ : State)
    benchmark::DoNotOptimize(ProfileSnapshot::capture(Tree));
  State.SetItemsProcessed(State.iterations());
  State.counters["nodes"] = static_cast<double>(Tree.numNodes());
}
BENCHMARK(BM_SnapshotCapture);

void BM_SnapshotBinaryRoundTrip(benchmark::State &State) {
  static const std::vector<uint64_t> Stream = makeValueStream(1 << 20);
  RapTree Tree(valueConfig(0.01));
  for (uint64_t X : Stream)
    Tree.addPoint(X);
  ProfileSnapshot Snapshot = ProfileSnapshot::capture(Tree);
  for (auto _ : State) {
    std::stringstream Stream2;
    benchmark::DoNotOptimize(Snapshot.writeBinary(Stream2));
    benchmark::DoNotOptimize(ProfileSnapshot::readBinary(Stream2));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SnapshotBinaryRoundTrip);

void BM_TreeAbsorb(benchmark::State &State) {
  static const std::vector<uint64_t> Stream = makeValueStream(1 << 20);
  RapTree Shard(valueConfig(0.01));
  for (size_t I = 0; I != Stream.size() / 4; ++I)
    Shard.addPoint(Stream[I]);
  for (auto _ : State) {
    RapTree Combined(valueConfig(0.01));
    Combined.absorb(Shard);
    benchmark::DoNotOptimize(Combined.numNodes());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TreeAbsorb);

void BM_SpaceSavingAdd(benchmark::State &State) {
  static const std::vector<uint64_t> Stream = makeValueStream(1 << 20);
  SpaceSaving Sketch(2048);
  size_t Index = 0;
  for (auto _ : State) {
    Sketch.addPoint(Stream[Index]);
    if (++Index == Stream.size())
      Index = 0;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SpaceSavingAdd);

} // namespace

BENCHMARK_MAIN();
