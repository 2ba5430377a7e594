//===- trace/TraceIO.cpp - Trace file reading and writing ----------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include "support/FailPoint.h"

#include <cassert>
#include <cstring>
#include <istream>
#include <ostream>

using namespace rap;

namespace {

constexpr char Magic[4] = {'R', 'A', 'P', 'T'};
constexpr uint32_t FormatVersion = 1;
constexpr uint8_t FlagHasLoad = 1;
constexpr uint8_t FlagNarrowOperand = 2;

void writeU32(std::ostream &OS, uint32_t Value) {
  unsigned char Bytes[4];
  for (int I = 0; I != 4; ++I)
    Bytes[I] = static_cast<unsigned char>(Value >> (8 * I));
  OS.write(reinterpret_cast<const char *>(Bytes), 4);
}

void writeU64(std::ostream &OS, uint64_t Value) {
  unsigned char Bytes[8];
  for (int I = 0; I != 8; ++I)
    Bytes[I] = static_cast<unsigned char>(Value >> (8 * I));
  OS.write(reinterpret_cast<const char *>(Bytes), 8);
}

[[nodiscard]] bool readU32(std::istream &IS, uint32_t &Value) {
  unsigned char Bytes[4];
  if (!IS.read(reinterpret_cast<char *>(Bytes), 4))
    return false;
  Value = 0;
  for (int I = 3; I >= 0; --I)
    Value = (Value << 8) | Bytes[I];
  return true;
}

[[nodiscard]] bool readU64(std::istream &IS, uint64_t &Value) {
  unsigned char Bytes[8];
  if (!IS.read(reinterpret_cast<char *>(Bytes), 8))
    return false;
  Value = 0;
  for (int I = 7; I >= 0; --I)
    Value = (Value << 8) | Bytes[I];
  return true;
}

} // namespace

TraceWriter::TraceWriter(std::ostream &Out) : OS(Out) {
  OS.write(Magic, 4);
  writeU32(OS, FormatVersion);
  writeU64(OS, 0); // Record count placeholder, patched by finish().
}

void TraceWriter::append(const TraceRecord &Record) {
  assert(!Finished && "append after finish");
  // Injected write failure (rap_fuzz --faults): latches failbit like a
  // full disk would, which finish() then reports.
  if (RAP_FAILPOINT_HIT(failpoints::Fp::TraceWrite))
    OS.setstate(std::ios::failbit);
  writeU64(OS, Record.BlockPc);
  writeU32(OS, Record.BlockLength);
  uint8_t Flags = (Record.HasLoad ? FlagHasLoad : 0) |
                  (Record.NarrowOperand ? FlagNarrowOperand : 0);
  OS.put(static_cast<char>(Flags));
  if (Record.HasLoad) {
    writeU64(OS, Record.LoadAddress);
    writeU64(OS, Record.LoadValue);
  }
  ++NumRecords;
}

bool TraceWriter::finish() {
  assert(!Finished && "finish called twice");
  Finished = true;
  std::ostream::pos_type End = OS.tellp();
  OS.seekp(8); // past magic + version
  writeU64(OS, NumRecords);
  OS.seekp(End);
  OS.flush();
  // good() covers the whole stream history: a failed append (disk
  // full) latches failbit/badbit, so one check here is authoritative.
  return OS.good();
}

TraceReader::TraceReader(std::istream &In) : IS(In) {
  char MagicBuffer[4];
  if (!IS.read(MagicBuffer, 4) ||
      std::memcmp(MagicBuffer, Magic, 4) != 0) {
    Error = "not a RAP trace (bad magic)";
    return;
  }
  uint32_t Version;
  if (!readU32(IS, Version) || Version != FormatVersion) {
    Error = "unsupported trace format version";
    return;
  }
  if (!readU64(IS, NumRecords)) {
    Error = "truncated trace header";
    return;
  }
  Valid = true;
}

bool TraceReader::next(TraceRecord &Record) {
  if (!Valid || Position == NumRecords)
    return false;
  uint32_t BlockLength;
  int FlagsChar;
  if (!readU64(IS, Record.BlockPc) || !readU32(IS, BlockLength) ||
      (FlagsChar = IS.get()) < 0) {
    Valid = false;
    Error = "truncated trace record";
    return false;
  }
  Record.BlockLength = BlockLength;
  uint8_t Flags = static_cast<uint8_t>(FlagsChar);
  Record.HasLoad = (Flags & FlagHasLoad) != 0;
  Record.NarrowOperand = (Flags & FlagNarrowOperand) != 0;
  if (Record.HasLoad) {
    if (!readU64(IS, Record.LoadAddress) ||
        !readU64(IS, Record.LoadValue)) {
      Valid = false;
      Error = "truncated trace record";
      return false;
    }
  } else {
    Record.LoadAddress = 0;
    Record.LoadValue = 0;
  }
  ++Position;
  return true;
}
