//===- tests/integration/HwSwEquivalenceTest.cpp - HW == SW --------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipelined TCAM engine (Fig 4) and the software RAP tree
/// (Sec 3.2) are two implementations of the same algorithm; fed the
/// same stream with the same parameters they must reach exactly the
/// same set of (range, counter) pairs. This is the strongest
/// correctness check in the repository: the engine shares no code with
/// the tree's update/split/merge paths.
///
//===----------------------------------------------------------------------===//

#include "core/RapTree.h"
#include "core/StageZeroBuffer.h"
#include "hw/PipelinedEngine.h"
#include "support/Rng.h"
#include "trace/ProgramModel.h"
#include "verify/TreeInvariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

using namespace rap;

namespace {

/// RapTree state as sorted (lo, widthBits, count) triples, comparable
/// with PipelinedRapEngine::snapshot().
void collect(const RapNode &Node,
             std::vector<std::tuple<uint64_t, unsigned, uint64_t>> &Out) {
  Out.emplace_back(Node.lo(), Node.widthBits(), Node.count());
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      collect(*Child, Out);
}

std::vector<std::tuple<uint64_t, unsigned, uint64_t>>
treeSnapshot(const RapTree &Tree) {
  std::vector<std::tuple<uint64_t, unsigned, uint64_t>> Out;
  collect(Tree.root(), Out);
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Engine nodes with zero-count never-split children still present in
/// the tree must match exactly, so compare full snapshots.
struct EquivParam {
  unsigned RangeBits;
  unsigned BranchFactor;
  double Epsilon;
  uint64_t Seed;
};

std::string equivName(const testing::TestParamInfo<EquivParam> &Info) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "bits%u_b%u_eps%d_seed%llu",
                Info.param.RangeBits, Info.param.BranchFactor,
                static_cast<int>(Info.param.Epsilon * 1000),
                static_cast<unsigned long long>(Info.param.Seed));
  return Buffer;
}

class HwSwEquivalence : public testing::TestWithParam<EquivParam> {};

} // namespace

TEST_P(HwSwEquivalence, IdenticalFinalStateOnRandomStream) {
  const EquivParam &P = GetParam();
  RapConfig Config;
  Config.RangeBits = P.RangeBits;
  Config.BranchFactor = P.BranchFactor;
  Config.Epsilon = P.Epsilon;
  Config.InitialMergeInterval = 512;

  EngineConfig HwConfig;
  HwConfig.Profile = Config;
  HwConfig.TcamCapacity = 1 << 20; // ample: no overflow divergence
  HwConfig.BufferCapacity = 0;     // no combining: identical order

  RapTree Tree(Config);
  PipelinedRapEngine Engine(HwConfig);
  Rng R(P.Seed);
  for (int I = 0; I != 40000; ++I) {
    uint64_t X = R.next() & lowBitMask(P.RangeBits);
    Tree.addPoint(X);
    Engine.pushEvent(X);
  }
  Engine.flush();
  EXPECT_EQ(treeSnapshot(Tree), Engine.snapshot());
}

TEST_P(HwSwEquivalence, IdenticalWithCombiningWhenTreeFedPairs) {
  // With combining enabled, the engine sees (event, weight) pairs in
  // drain order; feed the software tree the same pairs and the states
  // must again coincide.
  const EquivParam &P = GetParam();
  RapConfig Config;
  Config.RangeBits = P.RangeBits;
  Config.BranchFactor = P.BranchFactor;
  Config.Epsilon = P.Epsilon;
  Config.InitialMergeInterval = 512;

  EngineConfig HwConfig;
  HwConfig.Profile = Config;
  HwConfig.TcamCapacity = 1 << 20;
  HwConfig.BufferCapacity = 128;

  RapTree Tree(Config);
  PipelinedRapEngine Engine(HwConfig);
  StageZeroBuffer Mirror(128); // the engine's own stage-0 buffer type
  Rng R(P.Seed ^ 0x5a5a);
  auto DrainIntoTree = [&] {
    for (const auto &[Event, Count] : Mirror.drain())
      Tree.addPoint(Event, Count);
  };
  for (int I = 0; I != 40000; ++I) {
    uint64_t X = R.next() & lowBitMask(P.RangeBits);
    Engine.pushEvent(X);
    if (Mirror.push(X))
      DrainIntoTree();
  }
  Engine.flush();
  DrainIntoTree();
  EXPECT_EQ(treeSnapshot(Tree), Engine.snapshot());
}

TEST_P(HwSwEquivalence, BothSidesPassInvariantAudit) {
  // Equality of the two snapshots proves HW == SW; the structural
  // audit additionally proves both are a *well-formed RAP tree* —
  // equal-but-both-wrong states cannot slip through.
  const EquivParam &P = GetParam();
  RapConfig Config;
  Config.RangeBits = P.RangeBits;
  Config.BranchFactor = P.BranchFactor;
  Config.Epsilon = P.Epsilon;
  Config.InitialMergeInterval = 512;

  EngineConfig HwConfig;
  HwConfig.Profile = Config;
  HwConfig.TcamCapacity = 1 << 20;
  HwConfig.BufferCapacity = 0;

  RapTree Tree(Config);
  PipelinedRapEngine Engine(HwConfig);
  Rng R(P.Seed ^ 0xA0D17);
  for (int I = 0; I != 40000; ++I) {
    uint64_t X = R.next() & lowBitMask(P.RangeBits);
    Tree.addPoint(X);
    Engine.pushEvent(X);
  }
  Engine.flush();

  std::vector<InvariantViolation> TreeVs = TreeInvariants::audit(Tree);
  EXPECT_TRUE(TreeVs.empty()) << TreeInvariants::render(TreeVs);

  // The engine's TCAM snapshot shares no code with RapTree; audit it
  // through the tree-free node-set entry point.
  std::vector<std::tuple<uint64_t, uint8_t, uint64_t>> HwNodes;
  for (const auto &[Lo, WidthBits, Count] : Engine.snapshot())
    HwNodes.emplace_back(Lo, static_cast<uint8_t>(WidthBits), Count);
  std::vector<InvariantViolation> HwVs =
      TreeInvariants::auditNodeSet(Config, HwNodes, Tree.numEvents());
  EXPECT_TRUE(HwVs.empty()) << TreeInvariants::render(HwVs);
}

TEST(HwSwEquivalence, IdenticalOnBenchmarkCodeProfile) {
  RapConfig Config;
  Config.RangeBits = ProgramModel::PcRangeBits;
  Config.Epsilon = 0.05;
  EngineConfig HwConfig;
  HwConfig.Profile = Config;
  HwConfig.TcamCapacity = 1 << 20;
  HwConfig.BufferCapacity = 0;

  RapTree Tree(Config);
  PipelinedRapEngine Engine(HwConfig);
  ProgramModel Model(getBenchmarkSpec("gzip"), 21);
  for (int I = 0; I != 60000; ++I) {
    TraceRecord Record = Model.next();
    Tree.addPoint(Record.BlockPc);
    Engine.pushEvent(Record.BlockPc);
  }
  Engine.flush();
  EXPECT_EQ(treeSnapshot(Tree), Engine.snapshot());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HwSwEquivalence,
    testing::ValuesIn(std::vector<EquivParam>{
        {16, 4, 0.05, 1},
        {16, 2, 0.05, 2},
        {16, 16, 0.05, 3},
        {32, 4, 0.01, 4},
        {32, 4, 0.10, 5},
        {64, 4, 0.05, 6},
        {24, 8, 0.05, 7},
    }),
    equivName);
