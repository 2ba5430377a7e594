//===- tests/core/RapTreeArenaEquivalenceTest.cpp - Arena vs legacy -------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arena rewrite's contract is bit-for-bit equivalence: the
/// slab/SoA core/RapTree must produce the SAME tree as the preserved
/// pointer-based implementation (verify/ReferenceRapTree) on every
/// stream — same preorder (lo, widthBits, count) node sequence, same
/// split/merge statistics, same merge timeline. These sweeps feed both
/// implementations identical streams across the same 50 random
/// configurations as RapTreePropertyTest (tests/core/SweepSampler.h)
/// and compare structurally at checkpoints, then push the corners the
/// sampler cannot reach: the single-value universe R = 1, the
/// smallest splittable universe, full 64-bit keys, counter
/// saturation, disabled merges, stage-0 combined delivery, and the
/// serialization round-trip.
///
//===----------------------------------------------------------------------===//

#include "SweepSampler.h"

#include "core/RapTree.h"
#include "core/StageZeroBuffer.h"
#include "verify/ReferenceRapTree.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace rap;
using namespace rap::sweeptest;

namespace {

using NodeTriple = ReferenceRapTree::NodeTriple;

/// Preorder (lo, widthBits, count) triples of the arena tree — the
/// same order ReferenceRapTree::collectNodes emits (root first,
/// children in ascending slot order).
void collectPreorder(const RapNode &Node, std::vector<NodeTriple> &Out) {
  Out.emplace_back(Node.lo(), static_cast<uint8_t>(Node.widthBits()),
                   Node.count());
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      collectPreorder(*Child, Out);
}

/// Full structural comparison. \p Context names the checkpoint in
/// failure output.
void expectEquivalent(const RapTree &Arena, const ReferenceRapTree &Legacy,
                      const std::string &Context) {
  ASSERT_EQ(Arena.numEvents(), Legacy.numEvents()) << Context;
  ASSERT_EQ(Arena.numNodes(), Legacy.numNodes()) << Context;
  ASSERT_EQ(Arena.maxNumNodes(), Legacy.maxNumNodes()) << Context;
  ASSERT_EQ(Arena.numSplits(), Legacy.numSplits()) << Context;
  ASSERT_EQ(Arena.numMergePasses(), Legacy.numMergePasses()) << Context;
  ASSERT_EQ(Arena.numMergedNodes(), Legacy.numMergedNodes()) << Context;
  ASSERT_EQ(Arena.nextMergeAt(), Legacy.nextMergeAt()) << Context;
  ASSERT_EQ(Arena.mergeEventCounts(), Legacy.mergeEventCounts()) << Context;

  std::vector<NodeTriple> ArenaNodes, LegacyNodes;
  collectPreorder(Arena.root(), ArenaNodes);
  LegacyNodes = Legacy.collectNodes();
  ASSERT_EQ(ArenaNodes.size(), LegacyNodes.size()) << Context;
  for (size_t I = 0; I != ArenaNodes.size(); ++I)
    ASSERT_EQ(ArenaNodes[I], LegacyNodes[I])
        << Context << ": preorder position " << I << " diverges (lo "
        << std::get<0>(ArenaNodes[I]) << " width "
        << unsigned(std::get<1>(ArenaNodes[I])) << " count "
        << std::get<2>(ArenaNodes[I]) << " vs lo "
        << std::get<0>(LegacyNodes[I]) << " width "
        << unsigned(std::get<1>(LegacyNodes[I])) << " count "
        << std::get<2>(LegacyNodes[I]) << ")";
}

class ArenaEquivalence : public testing::TestWithParam<SweepParam> {
protected:
  static constexpr uint64_t NumEvents = 20000;
  static constexpr uint64_t CheckpointEvery = 5000;

  RapConfig makeConfig() const {
    const SweepParam &P = GetParam();
    RapConfig Config;
    Config.Epsilon = P.Epsilon;
    Config.BranchFactor = P.BranchFactor;
    Config.RangeBits = P.RangeBits;
    Config.MergeRatio = P.MergeRatio;
    Config.InitialMergeInterval = 1024;
    return Config;
  }
};

} // namespace

TEST_P(ArenaEquivalence, IdenticalStreamsProduceIdenticalTrees) {
  const SweepParam &P = GetParam();
  RapConfig Config = makeConfig();
  RapTree Arena(Config);
  ReferenceRapTree Legacy(Config);
  StreamGen Gen(P.Kind, P.RangeBits, P.StreamSeed);
  for (uint64_t I = 1; I <= NumEvents; ++I) {
    uint64_t X = Gen.next();
    Arena.addPoint(X);
    Legacy.addPoint(X);
    if (I % CheckpointEvery == 0)
      expectEquivalent(Arena, Legacy,
                       "after " + std::to_string(I) + " events");
  }
  // Explicit merges must also agree, including the removal count.
  EXPECT_EQ(Arena.mergeNow(), Legacy.mergeNow());
  expectEquivalent(Arena, Legacy, "after final mergeNow");
}

TEST_P(ArenaEquivalence, WeightedStreamsProduceIdenticalTrees) {
  // Weighted delivery (the stage-0 combined shape) through both paths.
  const SweepParam &P = GetParam();
  RapConfig Config = makeConfig();
  RapTree Arena(Config);
  ReferenceRapTree Legacy(Config);
  StreamGen Gen(P.Kind, P.RangeBits, P.StreamSeed ^ 0x77);
  Rng Weights(P.StreamSeed ^ 0x1234);
  for (uint64_t I = 1; I <= 6000; ++I) {
    uint64_t X = Gen.next();
    uint64_t W = 1 + Weights.nextBelow(97);
    Arena.addPoint(X, W);
    Legacy.addPoint(X, W);
  }
  expectEquivalent(Arena, Legacy, "after weighted stream");
}

TEST_P(ArenaEquivalence, CombinedDeliveryProducesIdenticalTrees) {
  // Both implementations consume the SAME stage-0 combined pair
  // stream; the buffer's window boundaries shape the delivered
  // weights, so this exercises heavy weighted arrivals against the
  // split/merge schedule on both sides.
  const SweepParam &P = GetParam();
  RapConfig Config = makeConfig();
  RapTree Arena(Config);
  ReferenceRapTree Legacy(Config);
  StageZeroBuffer Buffer(64 + (P.Index % 3) * 960); // 64, 1024, 1984
  StreamGen Gen(P.Kind, P.RangeBits, P.StreamSeed ^ 0xC0);
  auto Deliver = [&] {
    for (const auto &[Event, Weight] : Buffer.drain()) {
      Arena.addPoint(Event, Weight);
      Legacy.addPoint(Event, Weight);
    }
  };
  for (uint64_t I = 0; I != NumEvents; ++I)
    if (Buffer.push(Gen.next()))
      Deliver();
  Deliver();
  EXPECT_EQ(Arena.numEvents(), NumEvents);
  expectEquivalent(Arena, Legacy, "after combined delivery");
}

TEST_P(ArenaEquivalence, NodeSetRoundTripRestoresIdenticalTree) {
  // Serialize the arena tree as preorder triples (the ProfileSnapshot
  // node-set form), reconstruct, and keep feeding both the original
  // and the restored tree: they must stay identical, which proves the
  // round-trip also restored the merge schedule.
  const SweepParam &P = GetParam();
  RapConfig Config = makeConfig();
  RapTree Arena(Config);
  StreamGen Gen(P.Kind, P.RangeBits, P.StreamSeed);
  for (uint64_t I = 0; I != 10000; ++I)
    Arena.addPoint(Gen.next());

  std::vector<NodeTriple> Nodes;
  collectPreorder(Arena.root(), Nodes);
  std::string Error;
  std::unique_ptr<RapTree> Restored = RapTree::fromNodeSet(
      Config, Nodes, Arena.numEvents(), &Error, Arena.nextMergeAt());
  ASSERT_NE(Restored, nullptr) << Error;

  std::vector<NodeTriple> RestoredNodes;
  collectPreorder(Restored->root(), RestoredNodes);
  EXPECT_EQ(Nodes, RestoredNodes);
  EXPECT_EQ(Restored->numEvents(), Arena.numEvents());
  EXPECT_EQ(Restored->nextMergeAt(), Arena.nextMergeAt());

  for (uint64_t I = 0; I != 10000; ++I) {
    uint64_t X = Gen.next();
    Arena.addPoint(X);
    Restored->addPoint(X);
  }
  std::vector<NodeTriple> A, B;
  collectPreorder(Arena.root(), A);
  collectPreorder(Restored->root(), B);
  EXPECT_EQ(A, B) << "restored tree diverged under further updates";
}

INSTANTIATE_TEST_SUITE_P(Sweep, ArenaEquivalence,
                         testing::ValuesIn(standardSweep()), paramName);

namespace {

/// Corners the random sampler cannot reach.
class ArenaEquivalenceEdge : public testing::Test {
protected:
  static void feedAndCompare(const RapConfig &Config,
                             const std::vector<std::pair<uint64_t, uint64_t>>
                                 &Stream,
                             const std::string &Context) {
    RapTree Arena(Config);
    ReferenceRapTree Legacy(Config);
    for (const auto &[X, W] : Stream) {
      Arena.addPoint(X, W);
      Legacy.addPoint(X, W);
    }
    expectEquivalent(Arena, Legacy, Context);
  }
};

} // namespace

TEST_F(ArenaEquivalenceEdge, SingleValueUniverse) {
  // R = 1: the root is a unit range, no split can ever happen, every
  // event is 0.
  RapConfig Config;
  Config.RangeBits = 0;
  std::vector<std::pair<uint64_t, uint64_t>> Stream;
  for (uint64_t I = 0; I != 5000; ++I)
    Stream.emplace_back(0, 1 + I % 3);
  feedAndCompare(Config, Stream, "single-value universe");
}

TEST_F(ArenaEquivalenceEdge, SmallestSplittableUniverse) {
  RapConfig Config;
  Config.RangeBits = 1;
  Config.BranchFactor = 2;
  Config.Epsilon = 0.5;
  std::vector<std::pair<uint64_t, uint64_t>> Stream;
  SplitMix64 M(99);
  for (uint64_t I = 0; I != 5000; ++I)
    Stream.emplace_back(M.next() & 1, 1);
  feedAndCompare(Config, Stream, "1-bit universe");
}

TEST_F(ArenaEquivalenceEdge, FullWidthUniverseExtremes) {
  // 64-bit keys including both universe endpoints; b = 16 stresses
  // the widest child blocks.
  RapConfig Config;
  Config.RangeBits = 64;
  Config.BranchFactor = 16;
  Config.Epsilon = 0.05;
  std::vector<std::pair<uint64_t, uint64_t>> Stream;
  SplitMix64 M(7);
  for (uint64_t I = 0; I != 8000; ++I) {
    uint64_t X = M.next();
    if (I % 5 == 0)
      X = (I % 10 == 0) ? 0 : ~uint64_t(0);
    Stream.emplace_back(X, 1);
  }
  feedAndCompare(Config, Stream, "64-bit universe with endpoint keys");
}

TEST_F(ArenaEquivalenceEdge, CounterSaturation) {
  // Weights near 2^64 saturate counters and subtree weights; both
  // implementations must clamp identically (saturatingAdd), including
  // the merge arithmetic that runs over saturated values.
  RapConfig Config;
  Config.RangeBits = 8;
  Config.BranchFactor = 4;
  Config.Epsilon = 0.2;
  constexpr uint64_t Huge = ~uint64_t(0) - 5;
  std::vector<std::pair<uint64_t, uint64_t>> Stream;
  Stream.emplace_back(3, Huge);
  Stream.emplace_back(3, Huge); // saturates the same counter
  Stream.emplace_back(200, Huge);
  SplitMix64 M(3);
  for (uint64_t I = 0; I != 3000; ++I)
    Stream.emplace_back(M.next() & 0xff, 1 + (I % 11));
  feedAndCompare(Config, Stream, "saturating weights");
}

TEST_F(ArenaEquivalenceEdge, MergesDisabled) {
  // Split-only growth (the unbounded failure mode): node recycling
  // never runs, so this isolates the arena's allocation path.
  RapConfig Config;
  Config.RangeBits = 16;
  Config.BranchFactor = 2;
  Config.Epsilon = 0.05;
  Config.EnableMerges = false;
  std::vector<std::pair<uint64_t, uint64_t>> Stream;
  SplitMix64 M(11);
  for (uint64_t I = 0; I != 20000; ++I)
    Stream.emplace_back(M.next() & 0xffff, 1);
  feedAndCompare(Config, Stream, "merges disabled");
}

TEST_F(ArenaEquivalenceEdge, FixedSplitThreshold) {
  RapConfig Config;
  Config.RangeBits = 20;
  Config.BranchFactor = 4;
  Config.FixedSplitThreshold = 50.0;
  std::vector<std::pair<uint64_t, uint64_t>> Stream;
  SplitMix64 M(13);
  for (uint64_t I = 0; I != 20000; ++I)
    Stream.emplace_back(M.next() & 0xfffff, 1);
  feedAndCompare(Config, Stream, "fixed split threshold");
}
