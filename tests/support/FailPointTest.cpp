//===- tests/support/FailPointTest.cpp - Failpoint framework tests -------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FailPoint.h"

#include "gtest/gtest.h"

using namespace rap;
using namespace rap::failpoints;

namespace {

TEST(FailPoint, DisarmedByDefault) {
  ScopedDisarm Guard;
  disarmAll();
  EXPECT_FALSE(anyArmed());
  // The macro's fast path: nothing armed, no failure.
  EXPECT_FALSE(RAP_FAILPOINT_HIT(Fp::ArenaAlloc));
  EXPECT_EQ(hitCount(Fp::ArenaAlloc), 0u);
}

TEST(FailPoint, FailOnceFiresExactlyOnce) {
  ScopedDisarm Guard;
  disarmAll();
  arm(Fp::ArenaAlloc);
  EXPECT_TRUE(anyArmed());
  EXPECT_TRUE(RAP_FAILPOINT_HIT(Fp::ArenaAlloc));
  // One-shot: the site disarmed itself on firing.
  EXPECT_FALSE(anyArmed());
  EXPECT_FALSE(RAP_FAILPOINT_HIT(Fp::ArenaAlloc));
  EXPECT_EQ(fireCount(Fp::ArenaAlloc), 1u);
}

TEST(FailPoint, FailOnceSkipsRequestedHits) {
  ScopedDisarm Guard;
  disarmAll();
  arm(Fp::SnapshotWrite, /*SkipHits=*/2);
  EXPECT_FALSE(RAP_FAILPOINT_HIT(Fp::SnapshotWrite));
  EXPECT_FALSE(RAP_FAILPOINT_HIT(Fp::SnapshotWrite));
  EXPECT_TRUE(RAP_FAILPOINT_HIT(Fp::SnapshotWrite));
  EXPECT_FALSE(RAP_FAILPOINT_HIT(Fp::SnapshotWrite));
  EXPECT_EQ(hitCount(Fp::SnapshotWrite), 3u);
  EXPECT_EQ(fireCount(Fp::SnapshotWrite), 1u);
}

TEST(FailPoint, FailEveryInterval) {
  ScopedDisarm Guard;
  disarmAll();
  armEvery(Fp::TraceWrite, 3);
  unsigned Fires = 0;
  for (int I = 0; I != 9; ++I)
    if (RAP_FAILPOINT_HIT(Fp::TraceWrite))
      ++Fires;
  EXPECT_EQ(Fires, 3u);
  EXPECT_EQ(hitCount(Fp::TraceWrite), 9u);
  // Interval mode stays armed until disarmed.
  EXPECT_TRUE(anyArmed());
  disarm(Fp::TraceWrite);
  EXPECT_FALSE(anyArmed());
}

TEST(FailPoint, CountingModeNeverFails) {
  ScopedDisarm Guard;
  disarmAll();
  armCounting(Fp::Stage0Drain);
  for (int I = 0; I != 5; ++I)
    EXPECT_FALSE(RAP_FAILPOINT_HIT(Fp::Stage0Drain));
  EXPECT_EQ(hitCount(Fp::Stage0Drain), 5u);
  EXPECT_EQ(fireCount(Fp::Stage0Drain), 0u);
}

TEST(FailPoint, IndependentSites) {
  ScopedDisarm Guard;
  disarmAll();
  arm(Fp::ArenaAlloc);
  // Arming one site must not affect another.
  EXPECT_FALSE(RAP_FAILPOINT_HIT(Fp::Stage0Drain));
  EXPECT_TRUE(RAP_FAILPOINT_HIT(Fp::ArenaAlloc));
}

TEST(FailPoint, NamesRoundTrip) {
  for (unsigned I = 0; I != unsigned(Fp::NumFailPoints); ++I) {
    Fp Point = static_cast<Fp>(I);
    Fp Parsed;
    ASSERT_TRUE(parseName(name(Point), Parsed)) << name(Point);
    EXPECT_EQ(Parsed, Point);
  }
  Fp Ignored;
  EXPECT_FALSE(parseName("no.such.failpoint", Ignored));
}

TEST(FailPoint, ConfigureSpecs) {
  ScopedDisarm Guard;
  disarmAll();
  std::string Error;
  ASSERT_TRUE(configure("arena.alloc=once:1,trace.write=every:2", &Error))
      << Error;
  EXPECT_FALSE(RAP_FAILPOINT_HIT(Fp::ArenaAlloc)); // skip 1
  EXPECT_TRUE(RAP_FAILPOINT_HIT(Fp::ArenaAlloc));
  EXPECT_FALSE(RAP_FAILPOINT_HIT(Fp::TraceWrite));
  EXPECT_TRUE(RAP_FAILPOINT_HIT(Fp::TraceWrite));
}

TEST(FailPoint, ConfigureRejectsMalformedSpecs) {
  ScopedDisarm Guard;
  disarmAll();
  std::string Error;
  EXPECT_FALSE(configure("bogus.name=once", &Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(configure("arena.alloc=never", &Error));
  EXPECT_FALSE(configure("arena.alloc", &Error));
  EXPECT_FALSE(configure("arena.alloc=every:0", &Error));
}

TEST(FailPoint, DisarmAllClearsTotals) {
  ScopedDisarm Guard;
  disarmAll();
  armCounting(Fp::CApiInit);
  (void)RAP_FAILPOINT_HIT(Fp::CApiInit);
  EXPECT_EQ(hitCount(Fp::CApiInit), 1u);
  disarmAll();
  EXPECT_EQ(hitCount(Fp::CApiInit), 0u);
  EXPECT_FALSE(anyArmed());
}

} // namespace
