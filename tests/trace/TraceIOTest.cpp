//===- tests/trace/TraceIOTest.cpp - Trace file I/O tests ----------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include "trace/ProgramModel.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace rap;

namespace {

TraceRecord loadRecord(uint64_t Pc, uint64_t Address, uint64_t Value) {
  TraceRecord Record;
  Record.BlockPc = Pc;
  Record.BlockLength = 5;
  Record.HasLoad = true;
  Record.LoadAddress = Address;
  Record.LoadValue = Value;
  return Record;
}

TraceRecord plainRecord(uint64_t Pc, bool Narrow = false) {
  TraceRecord Record;
  Record.BlockPc = Pc;
  Record.BlockLength = 3;
  Record.NarrowOperand = Narrow;
  return Record;
}

} // namespace

TEST(TraceIO, RoundTripMixedRecords) {
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  Writer.append(plainRecord(0x400000));
  Writer.append(loadRecord(0x400010, 0x1000, 42));
  Writer.append(plainRecord(0x400020, /*Narrow=*/true));
  Writer.append(loadRecord(0x400030, ~uint64_t(0) >> 20, 0));
  ASSERT_TRUE(Writer.finish());
  EXPECT_EQ(Writer.numRecords(), 4u);

  TraceReader Reader(Stream);
  ASSERT_TRUE(Reader.valid()) << Reader.error();
  EXPECT_EQ(Reader.numRecords(), 4u);

  TraceRecord Record;
  ASSERT_TRUE(Reader.next(Record));
  EXPECT_EQ(Record.BlockPc, 0x400000u);
  EXPECT_FALSE(Record.HasLoad);
  EXPECT_FALSE(Record.NarrowOperand);

  ASSERT_TRUE(Reader.next(Record));
  EXPECT_TRUE(Record.HasLoad);
  EXPECT_EQ(Record.LoadAddress, 0x1000u);
  EXPECT_EQ(Record.LoadValue, 42u);

  ASSERT_TRUE(Reader.next(Record));
  EXPECT_TRUE(Record.NarrowOperand);

  ASSERT_TRUE(Reader.next(Record));
  EXPECT_EQ(Record.LoadValue, 0u);

  EXPECT_FALSE(Reader.next(Record)); // end of trace
  EXPECT_TRUE(Reader.valid());       // clean end, not corruption
}

TEST(TraceIO, EmptyTrace) {
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  ASSERT_TRUE(Writer.finish());
  TraceReader Reader(Stream);
  ASSERT_TRUE(Reader.valid());
  EXPECT_EQ(Reader.numRecords(), 0u);
  TraceRecord Record;
  EXPECT_FALSE(Reader.next(Record));
}

TEST(TraceIO, FinishReportsStreamFailure) {
  // Regression: finish() used to return void, so a full disk or a
  // failed seek produced a truncated trace while the caller printed
  // "wrote N records" and exited 0. The status must surface.
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  Writer.append(plainRecord(0x1000));
  Stream.setstate(std::ios::badbit); // Simulate a write error.
  EXPECT_FALSE(Writer.finish());
}

TEST(TraceIO, FinishReportsFailureLatchedByAppend) {
  // A failure during append (not just during finish itself) must
  // also be reported: stream state latches.
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  Writer.append(plainRecord(0x1000));
  Stream.setstate(std::ios::failbit);
  Writer.append(plainRecord(0x2000)); // Lost on the failed stream.
  EXPECT_FALSE(Writer.finish());
}

TEST(TraceIO, RejectsBadMagic) {
  std::stringstream Stream("XXXXjunkjunkjunk");
  TraceReader Reader(Stream);
  EXPECT_FALSE(Reader.valid());
  EXPECT_NE(Reader.error().find("magic"), std::string::npos);
}

TEST(TraceIO, DetectsTruncatedRecords) {
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  Writer.append(loadRecord(1, 2, 3));
  Writer.append(loadRecord(4, 5, 6));
  ASSERT_TRUE(Writer.finish());
  std::string Full = Stream.str();
  std::stringstream Truncated(Full.substr(0, Full.size() - 10));
  TraceReader Reader(Truncated);
  ASSERT_TRUE(Reader.valid());
  TraceRecord Record;
  EXPECT_TRUE(Reader.next(Record)); // first record intact
  EXPECT_FALSE(Reader.next(Record));
  EXPECT_FALSE(Reader.valid()); // corruption, not a clean end
  EXPECT_FALSE(Reader.error().empty());
}

TEST(TraceIO, CapturedModelStreamReplaysIdentically) {
  // The Sec 3.2 post-processing workflow: capture a model's stream to
  // a trace, then verify the trace replays the exact records.
  BenchmarkSpec Spec = getBenchmarkSpec("bzip2");
  ProgramModel Model(Spec, 99);
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  std::vector<TraceRecord> Reference;
  for (int I = 0; I != 20000; ++I) {
    TraceRecord Record = Model.next();
    Writer.append(Record);
    Reference.push_back(Record);
  }
  ASSERT_TRUE(Writer.finish());

  TraceReader Reader(Stream);
  ASSERT_TRUE(Reader.valid());
  ASSERT_EQ(Reader.numRecords(), Reference.size());
  TraceRecord Record;
  for (const TraceRecord &Expected : Reference) {
    ASSERT_TRUE(Reader.next(Record));
    ASSERT_EQ(Record.BlockPc, Expected.BlockPc);
    ASSERT_EQ(Record.BlockLength, Expected.BlockLength);
    ASSERT_EQ(Record.HasLoad, Expected.HasLoad);
    ASSERT_EQ(Record.LoadAddress, Expected.LoadAddress);
    ASSERT_EQ(Record.LoadValue, Expected.LoadValue);
    ASSERT_EQ(Record.NarrowOperand, Expected.NarrowOperand);
  }
  EXPECT_FALSE(Reader.next(Record));
}

TEST(TraceIO, PositionTracksConsumption) {
  std::stringstream Stream;
  TraceWriter Writer(Stream);
  for (int I = 0; I != 5; ++I)
    Writer.append(plainRecord(I));
  ASSERT_TRUE(Writer.finish());
  TraceReader Reader(Stream);
  TraceRecord Record;
  EXPECT_EQ(Reader.position(), 0u);
  ASSERT_TRUE(Reader.next(Record));
  ASSERT_TRUE(Reader.next(Record));
  EXPECT_EQ(Reader.position(), 2u);
}
