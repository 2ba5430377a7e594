//===- trace/TraceIO.h - Trace file reading and writing --------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary trace files of TraceRecords. The paper's software RAP "can
/// either be called from online analysis or to post process trace
/// files" (Sec 3.2); this module provides the trace-file half:
/// capture a synthetic (or externally produced) stream once, then
/// profile it repeatedly with different parameters.
///
/// Format (version 1, little-endian):
///   magic "RAPT", u32 version, u64 record count,
///   records: { u64 blockPc, u32 blockLength, u8 flags,
///              [u64 loadAddress, u64 loadValue] if flags & HasLoad }
///   flags: bit 0 = HasLoad, bit 1 = NarrowOperand.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_TRACE_TRACEIO_H
#define RAP_TRACE_TRACEIO_H

#include "trace/TraceRecord.h"

#include <cstdint>
#include <iosfwd>
#include <string>

namespace rap {

/// Streams TraceRecords to a binary file.
class TraceWriter {
public:
  /// Starts a trace on \p OS (must remain valid for the writer's
  /// lifetime). The header is finalized by finish().
  explicit TraceWriter(std::ostream &Out);

  /// Appends one record.
  void append(const TraceRecord &Record);

  /// Records written so far.
  uint64_t numRecords() const { return NumRecords; }

  /// Rewrites the header with the final record count and flushes.
  /// Must be called exactly once, after the last append; requires a
  /// seekable stream. Returns false if the stream failed at any point
  /// — the trace on disk is then truncated or has a wrong record
  /// count, and the caller must not report success.
  [[nodiscard]] bool finish();

private:
  std::ostream &OS;
  uint64_t NumRecords = 0;
  bool Finished = false;
};

/// Streams TraceRecords from a binary file.
class TraceReader {
public:
  /// Opens a trace on \p IS. Check valid() before reading; on failure
  /// error() describes the problem.
  explicit TraceReader(std::istream &In);

  /// True if the header parsed and reading can proceed.
  bool valid() const { return Valid; }

  /// Diagnostic for an invalid or truncated trace.
  const std::string &error() const { return Error; }

  /// Total records promised by the header.
  uint64_t numRecords() const { return NumRecords; }

  /// Records consumed so far.
  uint64_t position() const { return Position; }

  /// Reads the next record into \p Record. Returns false at the end of
  /// the trace or on corruption (valid() turns false and error() is
  /// set in the latter case).
  [[nodiscard]] bool next(TraceRecord &Record);

private:
  std::istream &IS;
  uint64_t NumRecords = 0;
  uint64_t Position = 0;
  bool Valid = false;
  std::string Error;
};

} // namespace rap

#endif // RAP_TRACE_TRACEIO_H
