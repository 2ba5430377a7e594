//===- hw/PipelinedEngine.h - The 5-stage RAP engine of Fig 4 --*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Functional + cycle-approximate model of the pipelined RAP engine
/// (Fig 4): stage 0 buffers and combines events, stage 1 TCAM-matches
/// all covering ranges, stage 2 arbitrates the longest prefix, stage 3
/// updates the counter SRAM, stage 4 compares against the split
/// threshold. Splits flush the pipeline; merges are batched and stall
/// it "for ten to a hundred cycles" (Sec 3.3). The engine is a second,
/// pointer-free implementation of the RAP algorithm; tests check its
/// final state is identical to the software RapTree fed the same
/// stream.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_HW_PIPELINEDENGINE_H
#define RAP_HW_PIPELINEDENGINE_H

#include "core/RapConfig.h"
#include "core/StageZeroBuffer.h"
#include "hw/Tcam.h"

#include <cstdint>
#include <tuple>
#include <vector>

namespace rap {

/// Static configuration of the engine.
struct EngineConfig {
  /// The RAP algorithm parameters (eps, b, q, universe).
  RapConfig Profile;

  /// TCAM slots. The paper evaluates a 4096-entry engine and mentions
  /// a modest 400-entry variant (Sec 3.4).
  uint64_t TcamCapacity = 4096;

  /// Stage-0 buffer capacity in distinct events (Sec 3.3: 1k).
  /// Zero disables combining: each event is dispatched immediately.
  uint64_t BufferCapacity = 1024;

  // Cycle model (Sec 3.4: "RAP requires 4 cycles to process an event,
  // 2 cycles each for TCAM and SRAM accesses").
  unsigned CyclesPerUpdate = 4;
  /// Pipeline flush penalty paid by a split (Fig 4 has 5 stages).
  unsigned PipelineDepth = 5;
  /// TCAM/SRAM insert cost per child created by a split.
  unsigned CyclesPerSplitChild = 1;
  /// Per-live-entry cost of the bottom-up merge scan.
  unsigned CyclesPerMergeScanEntry = 1;
};

/// The engine proper.
class PipelinedRapEngine {
public:
  explicit PipelinedRapEngine(const EngineConfig &EngineCfg);

  /// Feeds one raw event through stage 0. If the buffer fills, it is
  /// drained through the pipeline automatically.
  void pushEvent(uint64_t X);

  /// Drains any buffered events through the pipeline (call at end of
  /// stream before reading results).
  void flush();

  /// Raw events accepted so far (n).
  uint64_t numEvents() const { return NumEvents; }

  /// The TCAM+SRAM state.
  const Tcam &tcam() const { return Array; }

  /// The stage-0 buffer (for combining statistics).
  const StageZeroBuffer &buffer() const { return Buffer; }

  // Cycle accounting --------------------------------------------------
  uint64_t updateCycles() const { return UpdateCycles; }
  uint64_t splitStallCycles() const { return SplitStallCycles; }
  uint64_t mergeStallCycles() const { return MergeStallCycles; }
  uint64_t totalCycles() const {
    return UpdateCycles + SplitStallCycles + MergeStallCycles;
  }

  /// Engine cycles per *raw* event: with combining this drops well
  /// below CyclesPerUpdate (the Sec 3.3 buffer claim).
  double cyclesPerRawEvent() const {
    return NumEvents == 0
               ? 0.0
               : static_cast<double>(totalCycles()) /
                     static_cast<double>(NumEvents);
  }

  // Structural statistics ---------------------------------------------
  uint64_t numSplits() const { return NumSplits; }
  uint64_t numMergePasses() const { return NumMergePasses; }
  /// Children a split could not allocate because the TCAM was full.
  uint64_t numCapacityOverflows() const { return CapacityOverflows; }

  /// Sorted (lo, widthBits, count) triples of all live entries; equal
  /// to the software tree's node set when fed the same stream.
  std::vector<std::tuple<uint64_t, unsigned, uint64_t>> snapshot() const;

private:
  void processPair(uint64_t X, uint64_t Weight);
  void splitEntry(uint64_t Slot);
  void mergePass();
  void scheduleAfterMerge();

  EngineConfig Config;
  Tcam Array;
  StageZeroBuffer Buffer;
  uint64_t NumEvents = 0;
  uint64_t NextMergeAt;
  uint64_t UpdateCycles = 0;
  uint64_t SplitStallCycles = 0;
  uint64_t MergeStallCycles = 0;
  uint64_t NumSplits = 0;
  uint64_t NumMergePasses = 0;
  uint64_t CapacityOverflows = 0;
};

} // namespace rap

#endif // RAP_HW_PIPELINEDENGINE_H
