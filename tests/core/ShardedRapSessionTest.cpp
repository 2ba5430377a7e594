//===- tests/core/ShardedRapSessionTest.cpp - Concurrent ingest tests ----===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
// These tests live in the `concurrency` ctest label: ci.sh runs the
// label once plain and once under -fsanitize=thread, so every test
// here doubles as a TSan workload. Single-threaded cases pin the
// semantics (exact event conservation, eps*n accuracy against a
// plain RapTree oracle, watermark-driven combining); multi-threaded
// cases hammer ingest/combine/query concurrently and then cross-check
// the merged result against a sequential replay of the same streams.
//
// Per-thread streams are derived deterministically (house Rng with a
// per-thread seed), so the final combined profile is comparable to a
// sequential oracle no matter how the threads interleave.
//
//===----------------------------------------------------------------------===//

#include "core/ShardedRapSession.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace rap;

namespace {

RapConfig sessionConfig() {
  RapConfig Config;
  Config.RangeBits = 16;
  Config.Epsilon = 0.05;
  return Config;
}

/// The deterministic event stream thread \p Tid ingests: Zipf-ish
/// hot-spotting via a modulus so shard contention is uneven, like a
/// real profile.
std::vector<uint64_t> threadStream(unsigned Tid, size_t Events) {
  Rng R(0x5eed0000 + Tid);
  std::vector<uint64_t> Stream;
  Stream.reserve(Events);
  for (size_t I = 0; I < Events; ++I) {
    uint64_t X = R.nextBelow(1 << 16);
    if (I % 3 != 0)
      X &= 0x0fff; // hot range [0, 0x0fff]
    Stream.push_back(X);
  }
  return Stream;
}

} // namespace

TEST(ShardedRapSession, ShardCountRoundsToPowerOfTwo) {
  EXPECT_EQ(ShardedRapSession(sessionConfig(), 0).shardCount(), 1u);
  EXPECT_EQ(ShardedRapSession(sessionConfig(), 1).shardCount(), 1u);
  EXPECT_EQ(ShardedRapSession(sessionConfig(), 3).shardCount(), 4u);
  EXPECT_EQ(ShardedRapSession(sessionConfig(), 8).shardCount(), 8u);
  EXPECT_EQ(ShardedRapSession(sessionConfig(), 1000).shardCount(),
            ShardedRapSession::MaxShards);
}

TEST(ShardedRapSession, InvalidConfigThrows) {
  // The session checks the config itself, before any shard's tree
  // would reject it, in every build type.
  RapConfig Config = sessionConfig();
  Config.Epsilon = 0;
  try {
    ShardedRapSession Session(Config, 4);
    ADD_FAILURE() << "an invalid config built a session";
  } catch (const std::invalid_argument &E) {
    EXPECT_EQ(std::string(E.what()).rfind("ShardedRapSession:", 0), 0u)
        << E.what();
  }
}

TEST(ShardedRapSession, ShardIndexIsStableAndInRange) {
  ShardedRapSession Session(sessionConfig(), 8);
  for (uint64_t X = 0; X < 1000; ++X) {
    unsigned S = Session.shardIndexFor(X);
    EXPECT_LT(S, Session.shardCount());
    EXPECT_EQ(S, Session.shardIndexFor(X)) << "hash must be stable";
  }
}

TEST(ShardedRapSession, EventCountIsExactBeforeAndAfterCombine) {
  ShardedRapSession Session(sessionConfig(), 4, /*CombineEvery=*/0);
  for (uint64_t X : threadStream(0, 20000))
    Session.ingest(X);
  // Pending deltas are folded into numEvents even with no combine.
  EXPECT_EQ(Session.totalEvents(), 20000u);
  EXPECT_EQ(Session.numCombines(), 0u);
  Session.combineNow();
  EXPECT_EQ(Session.totalEvents(), 20000u);
  EXPECT_EQ(Session.numCombines(), 1u);
}

TEST(ShardedRapSession, MatchesPlainTreeWithinEpsAfterCombine) {
  RapConfig Config = sessionConfig();
  ShardedRapSession Session(Config, 8, /*CombineEvery=*/4096);
  RapTree Oracle(Config);
  std::vector<uint64_t> Stream = threadStream(1, 50000);
  for (uint64_t X : Stream) {
    Session.ingest(X);
    Oracle.addPoint(X);
  }
  Session.combineNow();
  ASSERT_EQ(Session.totalEvents(), Oracle.numEvents());

  // Both views are lower bounds off by at most eps*n; additionally
  // compare against exact counts so the bound is checked absolutely,
  // not just relatively.
  const uint64_t N = Stream.size();
  const uint64_t Slack =
      static_cast<uint64_t>(Config.Epsilon * static_cast<double>(N)) + 1;
  const std::pair<uint64_t, uint64_t> Queries[] = {
      {0, 0x0fff}, {0, 0xffff}, {0x1000, 0x7fff}, {0x0800, 0x08ff}};
  for (auto [Lo, Hi] : Queries) {
    uint64_t Exact = 0;
    for (uint64_t X : Stream)
      Exact += (X >= Lo && X <= Hi) ? 1 : 0;
    uint64_t Est = Session.combinedEstimate(Lo, Hi);
    EXPECT_LE(Est, Exact) << "[" << Lo << ", " << Hi << "]";
    EXPECT_GE(Est + Slack, Exact) << "[" << Lo << ", " << Hi << "]";
    RapTree::RangeBounds Bounds = Session.combinedEstimateBounds(Lo, Hi);
    EXPECT_LE(Bounds.Lower, Exact);
    EXPECT_GE(Bounds.Upper, Exact);
  }
}

TEST(ShardedRapSession, WatermarkTriggersAutomaticCombines) {
  ShardedRapSession Session(sessionConfig(), 2, /*CombineEvery=*/512);
  for (uint64_t X : threadStream(2, 8192))
    Session.ingest(X);
  EXPECT_GE(Session.numCombines(), 4u)
      << "per-shard watermark of 512 over 8192 events must combine";
  EXPECT_EQ(Session.totalEvents(), 8192u);
}

TEST(ShardedRapSession, ParallelIngestConservesEveryEvent) {
  const unsigned NumThreads = 4;
  const size_t PerThread = 25000;
  ShardedRapSession Session(sessionConfig(), 8, /*CombineEvery=*/2048);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&Session, T]() {
      for (uint64_t X : threadStream(10 + T, PerThread))
        Session.ingest(X);
    });
  for (std::thread &Th : Threads)
    Th.join();
  Session.combineNow();
  EXPECT_EQ(Session.totalEvents(), uint64_t(NumThreads) * PerThread);
}

TEST(ShardedRapSession, ParallelIngestMatchesSequentialOracle) {
  const unsigned NumThreads = 4;
  const size_t PerThread = 20000;
  RapConfig Config = sessionConfig();
  ShardedRapSession Session(Config, 8, /*CombineEvery=*/4096);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&Session, T]() {
      for (uint64_t X : threadStream(20 + T, PerThread))
        Session.ingest(X);
    });
  for (std::thread &Th : Threads)
    Th.join();
  Session.combineNow();

  // Sequential replay of the identical per-thread streams.
  uint64_t N = uint64_t(NumThreads) * PerThread;
  ASSERT_EQ(Session.totalEvents(), N);
  const uint64_t Slack =
      static_cast<uint64_t>(Config.Epsilon * static_cast<double>(N)) + 1;
  const std::pair<uint64_t, uint64_t> Queries[] = {
      {0, 0x0fff}, {0, 0xffff}, {0x4000, 0xbfff}};
  for (auto [Lo, Hi] : Queries) {
    uint64_t Exact = 0;
    for (unsigned T = 0; T < NumThreads; ++T)
      for (uint64_t X : threadStream(20 + T, PerThread))
        Exact += (X >= Lo && X <= Hi) ? 1 : 0;
    uint64_t Est = Session.combinedEstimate(Lo, Hi);
    EXPECT_LE(Est, Exact);
    EXPECT_GE(Est + Slack, Exact);
  }
}

TEST(ShardedRapSession, ConcurrentCombinesAndQueriesStayConsistent) {
  // Ingest threads race a dedicated combiner/query thread; every
  // intermediate numEvents() read must be a value between 0 and the
  // final total (exactness holds at every instant, not just at the
  // end).
  const unsigned NumThreads = 3;
  const size_t PerThread = 15000;
  const uint64_t Total = uint64_t(NumThreads) * PerThread;
  ShardedRapSession Session(sessionConfig(), 4, /*CombineEvery=*/1024);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&Session, T]() {
      for (uint64_t X : threadStream(30 + T, PerThread))
        Session.ingest(X);
    });
  uint64_t LastSeen = 0;
  bool Monotone = true;
  std::thread Prodder([&Session, &LastSeen, &Monotone, Total]() {
    for (int I = 0; I < 200; ++I) {
      Session.combineNow();
      uint64_t Seen = Session.totalEvents();
      Monotone = Monotone && Seen >= LastSeen && Seen <= Total;
      LastSeen = Seen;
      (void)Session.combinedEstimate(0, 0x0fff);
      (void)Session.combinedNodes();
    }
  });
  for (std::thread &Th : Threads)
    Th.join();
  Prodder.join();
  EXPECT_TRUE(Monotone) << "numEvents must be monotone and bounded";
  Session.combineNow();
  EXPECT_EQ(Session.totalEvents(), Total);
}

TEST(ShardedRapSession, HotRangeSurvivesSharding) {
  // The hot range seeded by threadStream (2/3 of events in
  // [0, 0x0fff]) must come out of the combined tree's hot-range
  // extraction regardless of how events were sharded.
  ShardedRapSession Session(sessionConfig(), 8, /*CombineEvery=*/2048);
  for (uint64_t X : threadStream(3, 40000))
    Session.ingest(X);
  Session.combineNow();
  std::vector<HotRange> Hot = Session.combinedHotRanges(0.25);
  bool Covered = false;
  for (const HotRange &H : Hot)
    Covered = Covered || (H.Lo == 0 && H.Hi >= 0x0fff);
  EXPECT_TRUE(Covered)
      << "expected a hot range covering [0, 0x0fff], got " << Hot.size()
      << " ranges";
}

TEST(ShardedRapSession, TopKRangesMergesShardCandidates) {
  // Quiesced session: the session-wide top-k must surface the hot
  // range regardless of how its weight was split across shards, with
  // brackets summed over every tree.
  ShardedRapSession Session(sessionConfig(), 8, /*CombineEvery=*/0);
  uint64_t Total = 0;
  for (unsigned T = 0; T != 3; ++T)
    for (uint64_t X : threadStream(T, 20000)) {
      Session.ingest(X);
      ++Total;
    }
  // Deliberately NO combineNow: candidates must come out of the
  // pending shard deltas too.
  std::vector<TopKRange> Top = Session.topKRanges(6);
  ASSERT_FALSE(Top.empty());
  ASSERT_LE(Top.size(), 6u);
  bool HotCovered = false;
  for (size_t I = 0; I != Top.size(); ++I) {
    if (I > 0) {
      EXPECT_GE(Top[I - 1].Retained, Top[I].Retained) << "not ordered";
    }
    EXPECT_EQ(Top[I].Retained, Top[I].LowerWeight);
    EXPECT_LE(Top[I].LowerWeight, Top[I].UpperWeight);
    EXPECT_LE(Top[I].UpperWeight, Total);
    HotCovered =
        HotCovered || (Top[I].Lo <= 0x0fff && Top[I].Hi >= 0x0fff) ||
        (Top[I].Lo == 0 && Top[I].Hi >= 0x07ff);
    // The summed lower bracket can never exceed the session estimate
    // for the same range read through the combined-view query (the
    // latter misses pending deltas, so it is the smaller one).
    EXPECT_LE(Session.combinedEstimate(Top[I].Lo, Top[I].Hi),
              Top[I].LowerWeight);
  }
  EXPECT_TRUE(HotCovered) << "hot range lost in the shard merge";
  // Combining must not lose weight: the report still conserves the
  // stream total afterwards (absorb re-compacts structure, so
  // individual range estimates may legitimately coarsen).
  Session.combineNow();
  std::vector<TopKRange> After = Session.topKRanges(6);
  ASSERT_FALSE(After.empty());
  EXPECT_LE(After[0].UpperWeight, Total);
  EXPECT_EQ(Session.totalEvents(), Total);
}

TEST(ShardedRapSession, TopKRangesZeroKAndOversizedK) {
  ShardedRapSession Session(sessionConfig(), 4, /*CombineEvery=*/0);
  EXPECT_TRUE(Session.topKRanges(0).empty());
  EXPECT_TRUE(Session.topKRanges(8).empty() ||
              Session.topKRanges(8)[0].Retained == 0);
  for (uint64_t X : threadStream(0, 1000))
    Session.ingest(X);
  std::vector<TopKRange> All = Session.topKRanges(10000);
  EXPECT_FALSE(All.empty());
}

TEST(ShardedRapSession, ConcurrentTopKUnderIngestStaysSound) {
  // TSan workload: readers pull session-wide top-k reports while
  // writers ingest and the watermark combiner runs. Every report must
  // be internally consistent (ordered, bracket-sane, bounded by the
  // final total) no matter the interleaving.
  ShardedRapSession Session(sessionConfig(), 8, /*CombineEvery=*/1024);
  const unsigned Writers = 3;
  const size_t EventsPerWriter = 20000;
  const uint64_t FinalTotal = Writers * EventsPerWriter;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Writers; ++T)
    Threads.emplace_back([&Session, T]() {
      for (uint64_t X : threadStream(T, EventsPerWriter))
        Session.ingest(X);
    });
  std::atomic<bool> Done{false};
  std::atomic<bool> Sound{true};
  std::thread Reader([&]() {
    while (!Done.load()) {
      std::vector<TopKRange> Top = Session.topKRanges(4);
      for (size_t I = 0; I != Top.size(); ++I) {
        bool Ok = Top[I].LowerWeight <= Top[I].UpperWeight &&
                  Top[I].Lo <= Top[I].Hi &&
                  (I == 0 || Top[I - 1].Retained >= Top[I].Retained);
        if (!Ok)
          Sound.store(false);
      }
    }
  });
  for (std::thread &Th : Threads)
    Th.join();
  Done.store(true);
  Reader.join();
  EXPECT_TRUE(Sound.load());
  Session.combineNow();
  std::vector<TopKRange> Final = Session.topKRanges(4);
  ASSERT_FALSE(Final.empty());
  EXPECT_LE(Final[0].UpperWeight, FinalTotal);
  EXPECT_EQ(Session.totalEvents(), FinalTotal);
}

TEST(ShardedRapSession, ReaderQueriesRaceWatermarkCombines) {
  // TSan workload for every query: three writers ingest with a small
  // watermark, so combines land all the time, while one reader runs a
  // stretch of back-to-back calls to each query in turn. A stretch
  // lasts until the writers have ingested Window more events, enough
  // for at least one combine, so a query that reads a tree without
  // its lock races that combine: TSan reports it and the leg fails.
  // The writers' progress is a relaxed counter, which orders nothing
  // and so cannot hide the race. Plain builds check that every answer
  // is sane: bounded by the final total, and monotone where the
  // session promises it.
  ShardedRapSession Session(sessionConfig(), 4, /*CombineEvery=*/256);
  const unsigned Writers = 3;
  const size_t EventsPerWriter = 20000;
  const uint64_t FinalTotal = Writers * EventsPerWriter;
  const uint64_t Window = 2048;
  std::atomic<uint64_t> Ingested{0};
  std::atomic<bool> Done{false};
  std::vector<std::string> Faults;
  std::thread Reader([&]() {
    uint64_t LastTotal = 0, LastCombines = 0;
    bool HotSeen = false;
    auto Check = [&Faults](bool Ok, const char *What) {
      if (!Ok && Faults.size() < 8)
        Faults.push_back(What);
    };
    auto Stretch = [&](auto &&Query) {
      uint64_t Until = Ingested.load(std::memory_order_relaxed) + Window;
      do
        Query();
      while (Ingested.load(std::memory_order_relaxed) < Until &&
             !Done.load());
    };
    do {
      Stretch([&] {
        uint64_t Total = Session.totalEvents();
        Check(Total >= LastTotal && Total <= FinalTotal, "totalEvents");
        LastTotal = Total;
      });
      Stretch([&] {
        uint64_t Est = Session.combinedEstimate(0, 0x0fff);
        Check(Est <= FinalTotal, "combinedEstimate");
        HotSeen = HotSeen || Est > 0;
      });
      Stretch([&] {
        RapTree::RangeBounds B =
            Session.combinedEstimateBounds(0x0800, 0x7fff);
        Check(B.Lower <= B.Upper && B.Upper <= FinalTotal,
              "combinedEstimateBounds");
      });
      Stretch([&] {
        // Weight never leaves the combined tree, so once the hot range
        // has been seen there it can never be provably cold again.
        bool Cold = Session.combinedRangeProvablyCold(0, 0x0fff);
        Check(!(HotSeen && Cold), "combinedRangeProvablyCold");
      });
      Stretch([&] {
        for (const HotRange &H : Session.combinedHotRanges(0.25))
          Check(H.Lo <= H.Hi && H.ExclusiveWeight <= H.SubtreeWeight &&
                    H.SubtreeWeight <= FinalTotal,
                "combinedHotRanges");
      });
      Stretch([&] {
        std::vector<TopKRange> Top = Session.topKRanges(4);
        for (size_t J = 0; J != Top.size(); ++J)
          Check(Top[J].Lo <= Top[J].Hi &&
                    Top[J].LowerWeight <= Top[J].UpperWeight &&
                    Top[J].UpperWeight <= FinalTotal &&
                    (J == 0 || Top[J - 1].Retained >= Top[J].Retained),
                "topKRanges");
      });
      Stretch([&] {
        uint64_t Combines = Session.numCombines();
        Check(Combines >= LastCombines, "numCombines");
        LastCombines = Combines;
      });
      Stretch([&] { Check(Session.combinedNodes() >= 1, "combinedNodes"); });
    } while (!Done.load());
  });
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Writers; ++T)
    Threads.emplace_back([&Session, &Ingested, T]() {
      for (uint64_t X : threadStream(40 + T, EventsPerWriter)) {
        Session.ingest(X);
        Ingested.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  Done.store(true);
  Reader.join();
  for (const std::string &What : Faults)
    ADD_FAILURE() << "insane answer from " << What;
  EXPECT_GE(Session.numCombines(), FinalTotal / (8 * 256))
      << "the watermark should have combined throughout the run";
  EXPECT_EQ(Session.totalEvents(), FinalTotal);
}
