//===- tests/core/CApiTest.cpp - Sec 3.2 software API tests --------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CApi.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

// Every C entry point is noexcept: a C++ exception unwinding into a C
// caller is undefined behavior, while a noexcept function that throws
// terminates, which is defined.
static_assert(noexcept(rap_init(0, 0.0, 0)));
static_assert(noexcept(rap_init_budgeted(0, 0.0, 0, 0)));
static_assert(noexcept(rap_init_admission(0, 0.0, 0, 0.0, 0)));
static_assert(noexcept(rap_add_points(nullptr, nullptr, 0)));
static_assert(noexcept(rap_num_events(nullptr)));
static_assert(noexcept(rap_num_nodes(nullptr)));
static_assert(noexcept(rap_estimate_range(nullptr, 0, 0)));
static_assert(noexcept(rap_top_k(nullptr, nullptr, 0)));
static_assert(noexcept(rap_finalize(nullptr, nullptr, 0)));
static_assert(noexcept(rap_pressure_stats(nullptr, nullptr)));
static_assert(noexcept(rap_save_profile(nullptr, nullptr)));
static_assert(noexcept(rap_load_profile(nullptr)));
static_assert(noexcept(rap_last_error()));
static_assert(noexcept(rap_errno()));
static_assert(noexcept(rap_clear_error()));

TEST(CApi, InitAddFinalizeRoundTrip) {
  rap_handle *Handle = rap_init(16, 0.05, 0);
  ASSERT_NE(Handle, nullptr);
  std::vector<uint64_t> Points = {1, 2, 3, 1, 1, 1, 1};
  rap_add_points(Handle, Points.data(), Points.size());
  EXPECT_EQ(rap_num_events(Handle), 7u);
  EXPECT_GE(rap_num_nodes(Handle), 1u);
  char Buffer[4096];
  uint64_t Required = rap_finalize(Handle, Buffer, sizeof(Buffer));
  EXPECT_GT(Required, 0u);
  EXPECT_NE(std::string(Buffer).find("count"), std::string::npos);
}

TEST(CApi, InitRejectsBadParameters) {
  EXPECT_EQ(rap_init(0, 0.05, 0), nullptr);
  EXPECT_EQ(rap_init(65, 0.05, 0), nullptr);
  EXPECT_EQ(rap_init(16, 0.0, 0), nullptr);
  EXPECT_EQ(rap_init(16, 2.0, 0), nullptr);
  EXPECT_EQ(rap_init(16, 0.05, 3), nullptr);
}

TEST(CApi, CustomBranchFactor) {
  rap_handle *Handle = rap_init(16, 0.05, 2);
  ASSERT_NE(Handle, nullptr);
  uint64_t Point = 5;
  for (int I = 0; I != 100; ++I)
    rap_add_points(Handle, &Point, 1);
  EXPECT_EQ(rap_num_events(Handle), 100u);
  rap_finalize(Handle, nullptr, 0);
}

TEST(CApi, EstimateRange) {
  rap_handle *Handle = rap_init(16, 0.05, 0);
  ASSERT_NE(Handle, nullptr);
  std::vector<uint64_t> Points(1000, 42);
  rap_add_points(Handle, Points.data(), Points.size());
  EXPECT_EQ(rap_estimate_range(Handle, 0, 0xffff), 1000u);
  EXPECT_LE(rap_estimate_range(Handle, 42, 42), 1000u);
  EXPECT_GT(rap_estimate_range(Handle, 0, 255), 900u);
  rap_finalize(Handle, nullptr, 0);
}

TEST(CApi, AddPointsRejectsOutOfUniverseBatchWhole) {
  // A point above the 8-bit universe must not be misfiled onto its low
  // bits (0x1003 -> 3), which would inflate the estimate of [3, 3].
  rap_handle *Handle = rap_init(8, 0.01, 4);
  ASSERT_NE(Handle, nullptr);
  std::vector<uint64_t> Good(1000, 3);
  std::vector<uint64_t> Bad(1000, 0x1003);
  rap_clear_error();
  rap_add_points(Handle, Good.data(), Good.size());
  EXPECT_EQ(rap_errno(), RAP_OK);
  rap_add_points(Handle, Bad.data(), Bad.size());
  EXPECT_EQ(rap_errno(), RAP_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(rap_last_error()).find("points[0]"),
            std::string::npos)
      << rap_last_error();
  EXPECT_EQ(rap_num_events(Handle), 1000u);
  EXPECT_LE(rap_estimate_range(Handle, 3, 3), 1000u);

  // One bad point anywhere rejects the whole batch; the message names
  // the first bad index.
  rap_clear_error();
  std::vector<uint64_t> Mixed = {5, 7, 0x100, 9, 0x200};
  rap_add_points(Handle, Mixed.data(), Mixed.size());
  EXPECT_EQ(rap_errno(), RAP_ERR_INVALID_ARGUMENT);
  EXPECT_NE(std::string(rap_last_error()).find("points[2]"),
            std::string::npos)
      << rap_last_error();
  EXPECT_EQ(rap_num_events(Handle), 1000u);
  EXPECT_EQ(rap_estimate_range(Handle, 0, 0xff), 1000u);
  rap_finalize(Handle, nullptr, 0);
}

TEST(CApi, FullWidthUniverseAcceptsEveryPoint) {
  rap_handle *Handle = rap_init(64, 0.05, 0);
  ASSERT_NE(Handle, nullptr);
  std::vector<uint64_t> Points = {0, 1, UINT64_MAX, uint64_t(1) << 63};
  rap_clear_error();
  rap_add_points(Handle, Points.data(), Points.size());
  EXPECT_EQ(rap_errno(), RAP_OK);
  EXPECT_EQ(rap_num_events(Handle), 4u);
  EXPECT_EQ(rap_estimate_range(Handle, 0, UINT64_MAX), 4u);
  rap_finalize(Handle, nullptr, 0);
}

TEST(CApi, EstimateRangeRejectsEmptyRange) {
  rap_handle *Handle = rap_init(16, 0.05, 0);
  ASSERT_NE(Handle, nullptr);
  std::vector<uint64_t> Points(100, 42);
  rap_add_points(Handle, Points.data(), Points.size());
  rap_clear_error();
  EXPECT_EQ(rap_estimate_range(Handle, 43, 42), 0u);
  EXPECT_EQ(rap_errno(), RAP_ERR_INVALID_ARGUMENT);
  rap_clear_error();
  EXPECT_EQ(rap_estimate_range(Handle, 0, 0xffff), 100u);
  EXPECT_EQ(rap_errno(), RAP_OK);
  rap_finalize(Handle, nullptr, 0);
}

TEST(CApi, FinalizeTruncatesToBufferSize) {
  rap_handle *Handle = rap_init(16, 0.05, 0);
  ASSERT_NE(Handle, nullptr);
  std::vector<uint64_t> Points = {9, 9, 9};
  rap_add_points(Handle, Points.data(), Points.size());
  char Tiny[8];
  uint64_t Required = rap_finalize(Handle, Tiny, sizeof(Tiny));
  EXPECT_GT(Required, sizeof(Tiny)); // Full dump is bigger than 8 bytes.
  EXPECT_EQ(Tiny[7], '\0');          // Still terminated.
}

TEST(CApi, FinalizeWithNullBufferJustDestroys) {
  rap_handle *Handle = rap_init(16, 0.05, 0);
  ASSERT_NE(Handle, nullptr);
  EXPECT_EQ(rap_finalize(Handle, nullptr, 0), 0u);
}

TEST(CApi, ThrowingConfigIsReportedAsErrorNotCrash) {
  // An invalid config makes the RapTree constructor throw; the C API
  // must swallow that into a null handle plus rap_last_error(), never
  // let it unwind into the C caller.
  rap_handle *Handle = rap_init(16, -1.0, 0);
  EXPECT_EQ(Handle, nullptr);
  std::string Error = rap_last_error();
  EXPECT_NE(Error.find("invalid config"), std::string::npos) << Error;
}

TEST(CApi, LastErrorExplainsRejectedRangeBits) {
  EXPECT_EQ(rap_init(0, 0.05, 0), nullptr);
  EXPECT_NE(std::string(rap_last_error()).find("range_bits"),
            std::string::npos);
}

TEST(CApi, LastErrorIsNeverNull) {
  ASSERT_NE(rap_last_error(), nullptr);
  rap_handle *Handle = rap_init(16, 0.05, 0);
  ASSERT_NE(Handle, nullptr);
  // A successful call leaves whatever diagnostic was there; it must
  // still be a valid string.
  ASSERT_NE(rap_last_error(), nullptr);
  rap_finalize(Handle, nullptr, 0);
}

TEST(CApi, ErrnoClassifiesFailures) {
  rap_clear_error();
  EXPECT_EQ(rap_errno(), RAP_OK);
  EXPECT_EQ(rap_init(0, 0.05, 0), nullptr);
  EXPECT_EQ(rap_errno(), RAP_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(rap_init(16, -1.0, 0), nullptr);
  EXPECT_EQ(rap_errno(), RAP_ERR_INVALID_ARGUMENT);
  rap_clear_error();
  EXPECT_EQ(rap_errno(), RAP_OK);
  EXPECT_STREQ(rap_last_error(), "");
}

TEST(CApi, BudgetedInitReportsPressure) {
  rap_handle *Handle = rap_init_budgeted(16, 0.01, 4, 32);
  ASSERT_NE(Handle, nullptr);
  rap_clear_error();
  std::vector<uint64_t> Points;
  for (uint64_t I = 0; I != 20000; ++I)
    Points.push_back((I * 2654435761u) & 0xffffu);
  rap_add_points(Handle, Points.data(), Points.size());
  EXPECT_EQ(rap_num_events(Handle), Points.size());
  EXPECT_LE(rap_num_nodes(Handle), 32u);
  rap_pressure Pressure;
  ASSERT_EQ(rap_pressure_stats(Handle, &Pressure), 0);
  EXPECT_EQ(Pressure.node_budget, 32u);
  EXPECT_GT(Pressure.budget_hits, 0u);
  EXPECT_GT(Pressure.degraded_weight, 0u);
  // Degradation is an informational errno, not a failed call.
  EXPECT_EQ(rap_errno(), RAP_ERR_BUDGET_EXHAUSTED);
  rap_finalize(Handle, nullptr, 0);
}

TEST(CApi, PressureStatsRejectsNulls) {
  rap_pressure Pressure;
  EXPECT_EQ(rap_pressure_stats(nullptr, &Pressure), -1);
  EXPECT_EQ(rap_errno(), RAP_ERR_INVALID_ARGUMENT);
  rap_handle *Handle = rap_init(16, 0.05, 0);
  ASSERT_NE(Handle, nullptr);
  EXPECT_EQ(rap_pressure_stats(Handle, nullptr), -1);
  EXPECT_EQ(rap_errno(), RAP_ERR_INVALID_ARGUMENT);
  rap_finalize(Handle, nullptr, 0);
}

TEST(CApi, SaveLoadRoundTrip) {
  std::string Path = ::testing::TempDir() + "capi_profile.rap";
  rap_handle *Handle = rap_init(16, 0.05, 0);
  ASSERT_NE(Handle, nullptr);
  std::vector<uint64_t> Points = {7, 7, 7, 100, 200, 300, 7};
  rap_add_points(Handle, Points.data(), Points.size());
  uint64_t Estimate = rap_estimate_range(Handle, 0, 0xffff);
  ASSERT_EQ(rap_save_profile(Handle, Path.c_str()), 0);
  rap_finalize(Handle, nullptr, 0);

  rap_handle *Loaded = rap_load_profile(Path.c_str());
  ASSERT_NE(Loaded, nullptr) << rap_last_error();
  EXPECT_EQ(rap_num_events(Loaded), Points.size());
  EXPECT_EQ(rap_estimate_range(Loaded, 0, 0xffff), Estimate);
  rap_finalize(Loaded, nullptr, 0);
}

TEST(CApi, LoadRejectsCorruptProfileWithDistinctCode) {
  std::string Path = ::testing::TempDir() + "capi_corrupt.rap";
  rap_handle *Handle = rap_init(16, 0.05, 0);
  ASSERT_NE(Handle, nullptr);
  uint64_t Point = 3;
  rap_add_points(Handle, &Point, 1);
  ASSERT_EQ(rap_save_profile(Handle, Path.c_str()), 0);
  rap_finalize(Handle, nullptr, 0);
  // Flip one body byte: the checksum must catch it and the errno must
  // say corrupt-profile, not generic I/O failure.
  FILE *File = std::fopen(Path.c_str(), "r+b");
  ASSERT_NE(File, nullptr);
  ASSERT_EQ(std::fseek(File, 6, SEEK_SET), 0);
  ASSERT_EQ(std::fputc('X', File), 'X');
  std::fclose(File);
  EXPECT_EQ(rap_load_profile(Path.c_str()), nullptr);
  EXPECT_EQ(rap_errno(), RAP_ERR_CORRUPT_PROFILE);
  // A missing file is an I/O failure, distinct from corruption.
  EXPECT_EQ(rap_load_profile("/nonexistent/dir/profile.rap"), nullptr);
  EXPECT_EQ(rap_errno(), RAP_ERR_IO_FAILURE);
  EXPECT_EQ(rap_save_profile(nullptr, Path.c_str()), -1);
  EXPECT_EQ(rap_errno(), RAP_ERR_INVALID_ARGUMENT);
}

TEST(CApi, ErrnoIsThreadLocal) {
  // Two threads provoking different failures must each observe their
  // own code: the diagnostics are per-thread state, so one thread's
  // error can never mask or clobber another's.
  rap_clear_error();
  std::atomic<int> Ready{0};
  std::atomic<int> Release{0};
  rap_error_code CodeA = RAP_OK, CodeB = RAP_OK;
  std::thread A([&] {
    EXPECT_EQ(rap_init(0, 0.05, 0), nullptr); // invalid argument
    ++Ready;
    while (Release.load() == 0) {
    }
    CodeA = rap_errno();
  });
  std::thread B([&] {
    rap_pressure Pressure;
    EXPECT_EQ(rap_pressure_stats(nullptr, &Pressure), -1);
    rap_clear_error(); // B clears ITS error; A's must survive
    ++Ready;
    while (Release.load() == 0) {
    }
    CodeB = rap_errno();
  });
  while (Ready.load() != 2) {
  }
  Release.store(1);
  A.join();
  B.join();
  EXPECT_EQ(CodeA, RAP_ERR_INVALID_ARGUMENT);
  EXPECT_EQ(CodeB, RAP_OK);
  // The main thread never failed anything in this test.
  EXPECT_EQ(rap_errno(), RAP_OK);
}

TEST(CApi, TopKRejectsBadArguments) {
  rap_range Ranges[4];
  // Null handle, null output, and k == 0 each fail with the
  // invalid-argument code, never by writing anything.
  rap_clear_error();
  EXPECT_EQ(rap_top_k(nullptr, Ranges, 4), -1);
  EXPECT_EQ(rap_errno(), RAP_ERR_INVALID_ARGUMENT);
  rap_handle *Handle = rap_init(16, 0.05, 0);
  ASSERT_NE(Handle, nullptr);
  rap_clear_error();
  EXPECT_EQ(rap_top_k(Handle, nullptr, 4), -1);
  EXPECT_EQ(rap_errno(), RAP_ERR_INVALID_ARGUMENT);
  rap_clear_error();
  EXPECT_EQ(rap_top_k(Handle, Ranges, 0), -1);
  EXPECT_EQ(rap_errno(), RAP_ERR_INVALID_ARGUMENT);
  rap_finalize(Handle, nullptr, 0);
}

TEST(CApi, TopKReturnsOrderedBracketedRanges) {
  rap_handle *Handle = rap_init(16, 0.05, 0);
  ASSERT_NE(Handle, nullptr);
  std::vector<uint64_t> Points;
  for (int I = 0; I != 2000; ++I)
    Points.push_back(42);
  for (int I = 0; I != 500; ++I)
    Points.push_back(uint64_t(I) * 131);
  rap_add_points(Handle, Points.data(), Points.size());
  rap_range Ranges[8];
  int64_t Count = rap_top_k(Handle, Ranges, 8);
  ASSERT_GT(Count, 0);
  ASSERT_LE(Count, 8);
  bool HotCovered = false;
  for (int64_t I = 0; I != Count; ++I) {
    if (I > 0) {
      EXPECT_GE(Ranges[I - 1].retained, Ranges[I].retained);
    }
    EXPECT_LE(Ranges[I].lo, Ranges[I].hi);
    EXPECT_LE(Ranges[I].lower_weight, Ranges[I].upper_weight);
    HotCovered = HotCovered || (Ranges[I].lo <= 42 && 42 <= Ranges[I].hi);
  }
  // The dominant value must be inside some reported range.
  EXPECT_TRUE(HotCovered);
  // A request larger than the tree returns one entry per node, capped
  // at the requested k.
  rap_range Many[64];
  int64_t All = rap_top_k(Handle, Many, 64);
  uint64_t Nodes = rap_num_nodes(Handle);
  EXPECT_EQ(All, int64_t(Nodes < 64 ? Nodes : 64));
  rap_finalize(Handle, nullptr, 0);
}

TEST(CApi, InitAdmissionGatesAndReportsPressure) {
  // A gigantic coarseness denies essentially every split: the hot
  // value's due splits show up in the admission counters, not as
  // budget pressure, and no nodes get allocated for them.
  rap_handle *Handle = rap_init_admission(16, 0.05, 0, 1e15, 0x5eed);
  ASSERT_NE(Handle, nullptr) << rap_last_error();
  std::vector<uint64_t> Points(5000, 42);
  rap_add_points(Handle, Points.data(), Points.size());
  rap_pressure Pressure;
  ASSERT_EQ(rap_pressure_stats(Handle, &Pressure), 0);
  EXPECT_GT(Pressure.admission_denied_splits, 0u);
  EXPECT_EQ(Pressure.admission_deferred_weight,
            Pressure.admission_denied_splits);
  EXPECT_EQ(Pressure.refused_splits, 0u);
  EXPECT_EQ(Pressure.degraded_weight, 0u);
  EXPECT_EQ(rap_num_events(Handle), 5000u);
  rap_finalize(Handle, nullptr, 0);

  // Negative coarseness means "the default", which must validate.
  rap_handle *Defaulted = rap_init_admission(16, 0.05, 0, -1.0, 0);
  ASSERT_NE(Defaulted, nullptr) << rap_last_error();
  rap_finalize(Defaulted, nullptr, 0);
}

TEST(CApi, AdmissionStateSurvivesSaveLoad) {
  // Save mid-stream, reload, and continue: the restored handle must
  // carry the admission RNG position and accounting, so the continued
  // run is bit-identical to an uninterrupted one.
  std::string Path = ::testing::TempDir() + "capi_admission.rap";
  // Every value stays inside the 16-bit universe (addPoint's
  // precondition).
  std::vector<uint64_t> Stream;
  for (int I = 0; I != 6000; ++I)
    Stream.push_back(I % 3 == 0 ? 42u : (uint64_t(I) * 257) & 0xffff);

  rap_handle *Whole = rap_init_admission(16, 0.05, 0, 4.0, 0x5eed);
  ASSERT_NE(Whole, nullptr);
  rap_add_points(Whole, Stream.data(), Stream.size());

  rap_handle *Half = rap_init_admission(16, 0.05, 0, 4.0, 0x5eed);
  ASSERT_NE(Half, nullptr);
  rap_add_points(Half, Stream.data(), Stream.size() / 2);
  ASSERT_EQ(rap_save_profile(Half, Path.c_str()), 0) << rap_last_error();
  rap_finalize(Half, nullptr, 0);

  rap_handle *Resumed = rap_load_profile(Path.c_str());
  ASSERT_NE(Resumed, nullptr) << rap_last_error();
  rap_add_points(Resumed, Stream.data() + Stream.size() / 2,
                 Stream.size() - Stream.size() / 2);

  rap_pressure WholeP, ResumedP;
  ASSERT_EQ(rap_pressure_stats(Whole, &WholeP), 0);
  ASSERT_EQ(rap_pressure_stats(Resumed, &ResumedP), 0);
  EXPECT_EQ(WholeP.admission_denied_splits, ResumedP.admission_denied_splits);
  EXPECT_EQ(WholeP.admission_deferred_weight,
            ResumedP.admission_deferred_weight);
  EXPECT_EQ(rap_num_events(Whole), rap_num_events(Resumed));
  EXPECT_EQ(rap_num_nodes(Whole), rap_num_nodes(Resumed));

  char DumpWhole[16384], DumpResumed[16384];
  uint64_t NeedWhole = rap_finalize(Whole, DumpWhole, sizeof(DumpWhole));
  uint64_t NeedResumed =
      rap_finalize(Resumed, DumpResumed, sizeof(DumpResumed));
  EXPECT_EQ(NeedWhole, NeedResumed);
  EXPECT_STREQ(DumpWhole, DumpResumed);
}
