//===- tests/hw/EventBufferTest.cpp - Combining buffer tests -------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The pipelined engine's stage-0 event buffer (paper Fig 4 / Sec 3.3)
// is core/StageZeroBuffer. These cases check it through the contract
// the engine relies on: combining, the full signal, sorted drains and
// the combining factor.
//
//===----------------------------------------------------------------------===//

#include "core/StageZeroBuffer.h"

#include <gtest/gtest.h>

using namespace rap;

TEST(EventBuffer, CombinesDuplicates) {
  StageZeroBuffer Buffer(16);
  for (int I = 0; I != 10; ++I)
    Buffer.push(7);
  auto Pairs = Buffer.drain();
  ASSERT_EQ(Pairs.size(), 1u);
  EXPECT_EQ(Pairs[0].first, 7u);
  EXPECT_EQ(Pairs[0].second, 10u);
}

TEST(EventBuffer, SignalsFullAtCapacity) {
  StageZeroBuffer Buffer(3);
  EXPECT_FALSE(Buffer.push(1));
  EXPECT_FALSE(Buffer.push(2));
  EXPECT_FALSE(Buffer.push(1)); // duplicate: still 2 distinct
  EXPECT_TRUE(Buffer.push(3));  // 3 distinct = capacity
}

TEST(EventBuffer, DrainEmptiesAndSorts) {
  StageZeroBuffer Buffer(16);
  Buffer.push(9);
  Buffer.push(3);
  Buffer.push(9);
  Buffer.push(1);
  auto Pairs = Buffer.drain();
  ASSERT_EQ(Pairs.size(), 3u);
  EXPECT_EQ(Pairs[0].first, 1u);
  EXPECT_EQ(Pairs[1].first, 3u);
  EXPECT_EQ(Pairs[2].first, 9u);
  EXPECT_EQ(Buffer.size(), 0u);
  EXPECT_TRUE(Buffer.drain().empty());
}

TEST(EventBuffer, CombiningFactorOnSkewedStream) {
  StageZeroBuffer Buffer(1024);
  // 10 distinct events, 10000 raw: combining factor ~1000 per drain.
  for (int I = 0; I != 10000; ++I)
    Buffer.push(I % 10);
  Buffer.drain();
  EXPECT_NEAR(Buffer.combiningFactor(), 1000.0, 1e-9);
}

TEST(EventBuffer, ZeroCapacityDisablesCombining) {
  StageZeroBuffer Buffer(0);
  EXPECT_TRUE(Buffer.push(5)); // immediately full
  auto Pairs = Buffer.drain();
  ASSERT_EQ(Pairs.size(), 1u);
  EXPECT_EQ(Pairs[0].second, 1u);
  EXPECT_TRUE(Buffer.push(5));
  Buffer.drain();
  EXPECT_DOUBLE_EQ(Buffer.combiningFactor(), 1.0);
}
