//===- tests/core/StageZeroBufferTest.cpp - Stage-0 combining -------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The software stage-0 combining buffer against a std::map reference:
/// a window's drained pairs must be exactly the multiset of pushed
/// events with summed weights, in ascending event order, regardless of
/// arrival order, hash layout, or which sort path (std::sort below 64
/// pairs, radix above) produced them.
///
//===----------------------------------------------------------------------===//

#include "core/StageZeroBuffer.h"
#include "support/FailPoint.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <map>
#include <new>
#include <vector>

using namespace rap;

namespace {

using Pair = std::pair<uint64_t, uint64_t>;

/// Pushes \p Stream, draining whenever the buffer reports full, and
/// checks every drained window against a std::map built from the same
/// window's raw events.
void runAgainstReference(uint64_t Capacity,
                         const std::vector<Pair> &Stream) {
  StageZeroBuffer Buffer(Capacity);
  std::map<uint64_t, uint64_t> Window;
  uint64_t TotalRaw = 0, TotalPairs = 0;

  auto CheckDrain = [&] {
    const std::vector<Pair> &Drained = Buffer.drain();
    std::vector<Pair> Expected(Window.begin(), Window.end());
    ASSERT_EQ(Drained, Expected); // std::map iterates ascending
    TotalPairs += Drained.size();
    Window.clear();
  };

  for (const auto &[Event, Weight] : Stream) {
    bool Full = Buffer.push(Event, Weight);
    if (Weight == 0) {
      EXPECT_FALSE(Full) << "zero weight must never force a drain";
      continue;
    }
    TotalRaw += Weight;
    Window[Event] += Weight;
    EXPECT_EQ(Buffer.size(), Window.size());
    if (Capacity != 0) {
      EXPECT_EQ(Full, Window.size() >= Capacity);
    }
    if (Full)
      CheckDrain();
  }
  CheckDrain();
  EXPECT_EQ(Buffer.rawEvents(), TotalRaw);
  EXPECT_EQ(Buffer.drainedPairs(), TotalPairs);
  EXPECT_EQ(Buffer.size(), 0u);
}

std::vector<Pair> randomStream(uint64_t Seed, uint64_t Count,
                               uint64_t DistinctBound) {
  Rng R(Seed);
  std::vector<Pair> Stream;
  Stream.reserve(Count);
  for (uint64_t I = 0; I != Count; ++I)
    Stream.emplace_back(R.nextBelow(DistinctBound), 1 + R.nextBelow(5));
  return Stream;
}

} // namespace

TEST(StageZeroBuffer, SmallWindowsMatchReference) {
  // Capacity below the radix cutoff: drains sort via std::sort.
  runAgainstReference(16, randomStream(1, 5000, 64));
}

TEST(StageZeroBuffer, LargeWindowsMatchReference) {
  // Capacity above the radix cutoff: drains sort via LSD radix.
  runAgainstReference(512, randomStream(2, 50000, 4096));
}

TEST(StageZeroBuffer, WideKeysMatchReference) {
  // Full 64-bit keys exercise every radix digit.
  Rng R(3);
  std::vector<Pair> Stream;
  for (uint64_t I = 0; I != 30000; ++I)
    Stream.emplace_back(I != 0 && I % 3 == 0 ? Stream[I - 1].first : R.next(),
                        1);
  runAgainstReference(1024, Stream);
}

TEST(StageZeroBuffer, SkewedStreamCombines) {
  // A heavily skewed stream must combine: far fewer pairs than raw
  // events, and the factor accounted exactly.
  Rng R(4);
  StageZeroBuffer Buffer(256);
  std::vector<Pair> Delivered;
  for (uint64_t I = 0; I != 100000; ++I) {
    uint64_t X = R.nextBernoulli(0.9) ? R.nextBelow(16) : R.next();
    if (Buffer.push(X))
      for (const Pair &P : Buffer.drain())
        Delivered.push_back(P);
  }
  for (const Pair &P : Buffer.drain())
    Delivered.push_back(P);
  uint64_t DeliveredWeight = 0;
  for (const Pair &P : Delivered)
    DeliveredWeight += P.second;
  EXPECT_EQ(DeliveredWeight, 100000u);
  EXPECT_EQ(Buffer.drainedPairs(), Delivered.size());
  EXPECT_LT(Delivered.size(), 100000u / 4);
  EXPECT_GT(Buffer.combiningFactor(), 4.0);
}

TEST(StageZeroBuffer, DeterministicAcrossRuns) {
  auto Run = [](std::vector<Pair> &Out) {
    Rng R(5);
    StageZeroBuffer Buffer(128);
    for (uint64_t I = 0; I != 20000; ++I)
      if (Buffer.push(R.nextBelow(1000)))
        for (const Pair &P : Buffer.drain())
          Out.push_back(P);
    for (const Pair &P : Buffer.drain())
      Out.push_back(P);
  };
  std::vector<Pair> A, B;
  Run(A);
  Run(B);
  EXPECT_EQ(A, B);
}

TEST(StageZeroBuffer, CapacityZeroIsImmediateMode) {
  StageZeroBuffer Buffer(0);
  EXPECT_TRUE(Buffer.push(7, 3));
  const std::vector<Pair> &First = Buffer.drain();
  ASSERT_EQ(First.size(), 1u);
  EXPECT_EQ(First[0], Pair(7, 3));
  // The next window must not see the previous one's pair.
  EXPECT_TRUE(Buffer.push(9));
  const std::vector<Pair> &Second = Buffer.drain();
  ASSERT_EQ(Second.size(), 1u);
  EXPECT_EQ(Second[0], Pair(9, 1));
  EXPECT_EQ(Buffer.rawEvents(), 4u);
  EXPECT_EQ(Buffer.drainedPairs(), 2u);
}

TEST(StageZeroBuffer, StatisticsAccumulateAcrossDrains) {
  // The counters and the combining factor span every window, not just
  // the last one; at capacity 0 nothing combines and the factor is 1.
  for (uint64_t Capacity : {uint64_t(4), uint64_t(0)}) {
    StageZeroBuffer Buffer(Capacity);
    for (int Round = 0; Round != 5; ++Round) {
      for (uint64_t I = 0; I != 8; ++I)
        if (Buffer.push(I % 2))
          Buffer.drain();
      Buffer.drain();
    }
    EXPECT_EQ(Buffer.rawEvents(), 40u) << Capacity;
    EXPECT_EQ(Buffer.drainedPairs(), Capacity == 0 ? 40u : 10u) << Capacity;
    EXPECT_DOUBLE_EQ(Buffer.combiningFactor(), Capacity == 0 ? 1.0 : 4.0)
        << Capacity;
  }
}

TEST(StageZeroBuffer, ZeroWeightIsNoOp) {
  StageZeroBuffer Buffer(4);
  EXPECT_FALSE(Buffer.push(1, 0));
  EXPECT_EQ(Buffer.size(), 0u);
  EXPECT_EQ(Buffer.rawEvents(), 0u);
  StageZeroBuffer Immediate(0);
  EXPECT_FALSE(Immediate.push(1, 0));
  EXPECT_TRUE(Immediate.drain().empty());
}

TEST(StageZeroBuffer, DuplicateOnFullBufferStillReportsFull) {
  StageZeroBuffer Buffer(2);
  EXPECT_FALSE(Buffer.push(10));
  EXPECT_TRUE(Buffer.push(20)); // second distinct: full
  EXPECT_TRUE(Buffer.full());
  // A duplicate while full must keep demanding a drain, not overflow.
  EXPECT_TRUE(Buffer.push(10));
  const std::vector<Pair> &Drained = Buffer.drain();
  ASSERT_EQ(Drained.size(), 2u);
  EXPECT_EQ(Drained[0], Pair(10, 2));
  EXPECT_EQ(Drained[1], Pair(20, 1));
}

TEST(StageZeroBuffer, SlotWeightsSaturate) {
  constexpr uint64_t Max = ~uint64_t(0);
  StageZeroBuffer Buffer(8);
  Buffer.push(5, Max - 1);
  Buffer.push(5, 10); // would wrap; must clamp
  const std::vector<Pair> &Drained = Buffer.drain();
  ASSERT_EQ(Drained.size(), 1u);
  EXPECT_EQ(Drained[0], Pair(5, Max));
}

TEST(StageZeroBuffer, DrainOnEmptyIsEmpty) {
  StageZeroBuffer Buffer(16);
  EXPECT_TRUE(Buffer.drain().empty());
  Buffer.push(1);
  ASSERT_EQ(Buffer.drain().size(), 1u);
  EXPECT_TRUE(Buffer.drain().empty()) << "second drain must be empty";
}

TEST(StageZeroBuffer, FailedDrainLosesNothing) {
  // An allocation failure inside drain() must leave the window intact:
  // the caller catches, retries, and the retry delivers every pushed
  // pair — no silent drops under memory pressure.
  failpoints::ScopedDisarm Guard;
  failpoints::disarmAll();
  StageZeroBuffer Buffer(64);
  std::map<uint64_t, uint64_t> Window;
  Rng R(8);
  for (int I = 0; I != 40; ++I) {
    uint64_t X = R.nextBelow(1000);
    Buffer.push(X, 2);
    Window[X] += 2;
  }
  failpoints::arm(failpoints::Fp::Stage0Drain);
  EXPECT_THROW(Buffer.drain(), std::bad_alloc);
  // State unchanged by the failed attempt.
  EXPECT_EQ(Buffer.size(), Window.size());
  EXPECT_EQ(Buffer.drainedPairs(), 0u);
  // The retry succeeds and delivers the full window in order.
  const std::vector<Pair> &Drained = Buffer.drain();
  std::vector<Pair> Expected(Window.begin(), Window.end());
  EXPECT_EQ(Drained, Expected);
  EXPECT_EQ(Buffer.drainedPairs(), Expected.size());
  EXPECT_EQ(Buffer.size(), 0u);
}

TEST(StageZeroBuffer, FailedDrainUnderBudgetPressureKeepsAccounting) {
  // Same failure injected mid-stream with drains forced by capacity:
  // the total delivered weight must still equal the raw pushed weight
  // once every failed drain was retried.
  failpoints::ScopedDisarm Guard;
  failpoints::disarmAll();
  StageZeroBuffer Buffer(8);
  Rng R(9);
  uint64_t Delivered = 0, Pushed = 0, Failures = 0;
  for (int I = 0; I != 5000; ++I) {
    bool Full = Buffer.push(R.nextBelow(64));
    Pushed += 1;
    if (!Full)
      continue;
    if (I % 3 == 0)
      failpoints::arm(failpoints::Fp::Stage0Drain);
    for (;;) {
      try {
        for (const Pair &P : Buffer.drain())
          Delivered += P.second;
        break;
      } catch (const std::bad_alloc &) {
        ++Failures;
      }
    }
  }
  for (const Pair &P : Buffer.drain())
    Delivered += P.second;
  EXPECT_GT(Failures, 0u);
  EXPECT_EQ(Delivered, Pushed);
  EXPECT_EQ(Buffer.rawEvents(), Pushed);
}
