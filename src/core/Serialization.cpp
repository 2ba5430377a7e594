//===- core/Serialization.cpp - RAP profile persistence ------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Serialization.h"

#include "support/Crc32.h"
#include "support/FailPoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

using namespace rap;

namespace {

constexpr char Magic[4] = {'R', 'A', 'P', 'P'};
constexpr char TailMagic[4] = {'P', 'R', 'A', 'R'};
constexpr uint32_t FormatVersion = 4;

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

void writeF64(std::ostream &OS, double Value) {
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  writeU64(OS, Bits);
}

void writeU8(std::ostream &OS, uint8_t Value) {
  OS.put(static_cast<char>(Value));
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

/// Wraps an istream and folds every byte read into a running CRC-32,
/// so readBinary can verify the version-3 footer without buffering
/// the whole stream.
class CrcIn {
public:
  explicit CrcIn(std::istream &Stream) : IS(Stream) {}

  [[nodiscard]] bool read(void *Buffer, size_t Size) {
    if (!IS.read(static_cast<char *>(Buffer),
                 static_cast<std::streamsize>(Size)))
      return false;
    Sum.update(Buffer, Size);
    return true;
  }

  uint32_t crc() const { return Sum.value(); }
  std::istream &stream() { return IS; }

private:
  std::istream &IS;
  Crc32 Sum;
};

[[nodiscard]] bool readU32(CrcIn &IS, uint32_t &Value) {
  unsigned char Bytes[4];
  if (!IS.read(Bytes, 4))
    return false;
  Value = 0;
  for (int I = 3; I >= 0; --I)
    Value = (Value << 8) | Bytes[I];
  return true;
}

[[nodiscard]] bool readU64(CrcIn &IS, uint64_t &Value) {
  unsigned char Bytes[8];
  if (!IS.read(Bytes, 8))
    return false;
  Value = 0;
  for (int I = 7; I >= 0; --I)
    Value = (Value << 8) | Bytes[I];
  return true;
}

[[nodiscard]] bool readF64(CrcIn &IS, double &Value) {
  uint64_t Bits;
  if (!readU64(IS, Bits))
    return false;
  std::memcpy(&Value, &Bits, sizeof(Value));
  return true;
}

[[nodiscard]] bool readU8(CrcIn &IS, uint8_t &Value) {
  return IS.read(&Value, 1);
}

void collectPreorder(const RapNode &Node,
                     std::vector<ProfileSnapshot::Node> &Out) {
  ProfileSnapshot::Node Entry;
  Entry.Lo = Node.lo();
  Entry.WidthBits = static_cast<uint8_t>(Node.widthBits());
  Entry.Count = Node.count();
  Out.push_back(Entry);
  for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
    if (std::optional<RapNode> Child = Node.child(Slot))
      collectPreorder(*Child, Out);
}

} // namespace

namespace rap {
/// Internal builder with access to ProfileSnapshot's private state.
class SnapshotBuilder {
public:
  static ProfileSnapshot make(const RapConfig &Config, uint64_t NumEvents,
                              uint64_t NextMergeAt,
                              std::vector<ProfileSnapshot::Node> Nodes,
                              uint64_t AdmissionRngState,
                              uint64_t AdmissionDeferredWeight,
                              uint64_t AdmissionDeniedSplits) {
    ProfileSnapshot Snapshot;
    Snapshot.Config = Config;
    Snapshot.NumEvents = NumEvents;
    Snapshot.NextMergeAt = NextMergeAt;
    Snapshot.AdmissionRngState = AdmissionRngState;
    Snapshot.AdmissionDeferredWeight = AdmissionDeferredWeight;
    Snapshot.AdmissionDeniedSplits = AdmissionDeniedSplits;
    Snapshot.Nodes = std::move(Nodes);
    return Snapshot;
  }
};
} // namespace rap

ProfileSnapshot ProfileSnapshot::capture(const RapTree &Tree) {
  std::vector<Node> Nodes;
  Nodes.reserve(Tree.numNodes());
  collectPreorder(Tree.root(), Nodes);
  return SnapshotBuilder::make(Tree.config(), Tree.numEvents(),
                               Tree.nextMergeAt(), std::move(Nodes),
                               Tree.admissionRngState(),
                               Tree.admissionDeferredWeight(),
                               Tree.numAdmissionDeniedSplits());
}

std::unique_ptr<RapTree> ProfileSnapshot::restore() const {
  std::vector<std::tuple<uint64_t, uint8_t, uint64_t>> Triples;
  Triples.reserve(Nodes.size());
  for (const Node &N : Nodes)
    Triples.emplace_back(N.Lo, N.WidthBits, N.Count);
  std::unique_ptr<RapTree> Tree = RapTree::fromNodeSet(
      Config, Triples, NumEvents, /*Error=*/nullptr, NextMergeAt);
  assert(Tree && "a captured snapshot must always restore");
  Tree->restoreAdmissionState(AdmissionRngState, AdmissionDeferredWeight,
                              AdmissionDeniedSplits);
  return Tree;
}

uint64_t ProfileSnapshot::estimateRange(uint64_t Lo, uint64_t Hi) const {
  return restore()->estimateRange(Lo, Hi);
}

std::vector<HotRange> ProfileSnapshot::extractHotRanges(double Phi) const {
  return restore()->extractHotRanges(Phi);
}

std::vector<int64_t> ProfileSnapshot::buildParents() const {
  std::vector<int64_t> Parents(Nodes.size(), -1);
  std::vector<size_t> Stack;
  for (size_t I = 0; I != Nodes.size(); ++I) {
    uint64_t Width = Nodes[I].WidthBits >= 64
                         ? ~uint64_t(0)
                         : (uint64_t(1) << Nodes[I].WidthBits) - 1;
    uint64_t Hi = Nodes[I].Lo + Width;
    auto Encloses = [&](size_t J) {
      uint64_t JWidth = Nodes[J].WidthBits >= 64
                            ? ~uint64_t(0)
                            : (uint64_t(1) << Nodes[J].WidthBits) - 1;
      return Nodes[J].Lo <= Nodes[I].Lo && Hi <= Nodes[J].Lo + JWidth;
    };
    while (!Stack.empty() && !Encloses(Stack.back()))
      Stack.pop_back();
    if (!Stack.empty())
      Parents[I] = static_cast<int64_t>(Stack.back());
    Stack.push_back(I);
  }
  return Parents;
}

bool ProfileSnapshot::writeBinary(std::ostream &OS) const {
  // Serialize the body first so the footer checksum covers exactly
  // the bytes on the wire, magic included.
  std::ostringstream Body;
  Body.write(Magic, 4);
  writeU32(Body, FormatVersion);
  writeU32(Body, Config.RangeBits);
  writeU32(Body, Config.BranchFactor);
  writeF64(Body, Config.Epsilon);
  writeF64(Body, Config.MergeRatio);
  writeU64(Body, Config.InitialMergeInterval);
  writeF64(Body, Config.MergeThresholdScale);
  writeU8(Body, Config.EnableMerges ? 1 : 0);
  writeU64(Body, Config.MaxNodes);
  writeU64(Body, Config.MaxMemoryBytes);
  writeU8(Body, Config.EnableAdmission ? 1 : 0);
  writeF64(Body, Config.AdmissionCoarseness);
  writeU64(Body, Config.AdmissionSeed);
  writeU64(Body, NumEvents);
  writeU64(Body, NextMergeAt);
  writeU64(Body, AdmissionRngState);
  writeU64(Body, AdmissionDeferredWeight);
  writeU64(Body, AdmissionDeniedSplits);
  writeU64(Body, Nodes.size());
  for (const Node &N : Nodes) {
    writeU64(Body, N.Lo);
    writeU8(Body, N.WidthBits);
    writeU64(Body, N.Count);
  }
  const std::string Bytes = Body.str();
  if (RAP_FAILPOINT_HIT(failpoints::Fp::SnapshotWrite)) {
    // Simulate a torn write: half the body reaches the stream, then
    // the device fails. No footer is ever written, so readers reject
    // the result.
    OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size() / 2));
    OS.setstate(std::ios::failbit);
    return false;
  }
  OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  writeU32(OS, crc32(Bytes.data(), Bytes.size()));
  OS.write(TailMagic, 4);
  return static_cast<bool>(OS);
}

std::unique_ptr<ProfileSnapshot>
ProfileSnapshot::readBinary(std::istream &IS, std::string *Error,
                            ProfileIoError *Kind) {
  if (RAP_FAILPOINT_HIT(failpoints::Fp::SnapshotRead))
    IS.setstate(std::ios::badbit);
  auto Fail = [Error, Kind, &IS](const char *Message) {
    if (Error)
      *Error = Message;
    if (Kind)
      *Kind = IS.bad() ? ProfileIoError::Io : ProfileIoError::Corrupt;
    return std::unique_ptr<ProfileSnapshot>();
  };
  CrcIn In(IS);
  char MagicBuffer[4];
  if (!In.read(MagicBuffer, 4) ||
      std::memcmp(MagicBuffer, Magic, 4) != 0)
    return Fail("not a RAP profile (bad magic)");
  uint32_t Version;
  if (!readU32(In, Version) || Version < 1 || Version > FormatVersion)
    return Fail("unsupported profile format version");

  RapConfig Config;
  uint32_t RangeBits;
  uint32_t BranchFactor;
  uint8_t EnableMerges;
  if (!readU32(In, RangeBits) || !readU32(In, BranchFactor) ||
      !readF64(In, Config.Epsilon) || !readF64(In, Config.MergeRatio) ||
      !readU64(In, Config.InitialMergeInterval) ||
      !readF64(In, Config.MergeThresholdScale) ||
      !readU8(In, EnableMerges))
    return Fail("truncated profile header");
  Config.RangeBits = RangeBits;
  Config.BranchFactor = BranchFactor;
  Config.EnableMerges = EnableMerges != 0;
  if (Version >= 3 &&
      (!readU64(In, Config.MaxNodes) || !readU64(In, Config.MaxMemoryBytes)))
    return Fail("truncated profile header");
  if (Version >= 4) {
    uint8_t EnableAdmission;
    if (!readU8(In, EnableAdmission) ||
        !readF64(In, Config.AdmissionCoarseness) ||
        !readU64(In, Config.AdmissionSeed))
      return Fail("truncated profile header");
    Config.EnableAdmission = EnableAdmission != 0;
  }
  if (!Config.validate(Error)) {
    if (Kind)
      *Kind = ProfileIoError::Corrupt;
    return nullptr;
  }

  uint64_t NumEvents;
  uint64_t NextMergeAt = 0; // v1 profiles: re-derive the schedule
  // Pre-v4 profiles recorded no admission state: start from the
  // configured seed, exactly like a freshly constructed tree.
  uint64_t AdmissionRngState = Config.AdmissionSeed;
  uint64_t AdmissionDeferredWeight = 0;
  uint64_t AdmissionDeniedSplits = 0;
  uint64_t NumNodes;
  if (!readU64(In, NumEvents))
    return Fail("truncated profile header");
  if (Version >= 2 && !readU64(In, NextMergeAt))
    return Fail("truncated profile header");
  if (Version >= 4 && (!readU64(In, AdmissionRngState) ||
                       !readU64(In, AdmissionDeferredWeight) ||
                       !readU64(In, AdmissionDeniedSplits)))
    return Fail("truncated profile header");
  if (!readU64(In, NumNodes))
    return Fail("truncated profile header");
  // Sanity cap: a node record is 17 bytes; reject sizes that cannot
  // possibly be backed by the stream (defends against corrupt counts).
  if (NumNodes == 0 || NumNodes > (uint64_t(1) << 32))
    return Fail("implausible node count");

  std::vector<Node> Nodes;
  // Grow incrementally: NumNodes is untrusted until the records have
  // actually been read, so never pre-reserve more than a small bound.
  Nodes.reserve(static_cast<size_t>(
      std::min<uint64_t>(NumNodes, uint64_t(1) << 16)));
  for (uint64_t I = 0; I != NumNodes; ++I) {
    Node N;
    if (!readU64(In, N.Lo) || !readU8(In, N.WidthBits) ||
        !readU64(In, N.Count))
      return Fail("truncated node list");
    if (N.WidthBits > 64)
      return Fail("corrupt node record (width out of range)");
    Nodes.push_back(N);
  }

  if (Version >= 3) {
    const uint32_t Expected = In.crc();
    uint32_t Stored;
    char TailBuffer[4];
    if (!readU32(IS, Stored) || !IS.read(TailBuffer, 4))
      return Fail("truncated profile footer");
    if (std::memcmp(TailBuffer, TailMagic, 4) != 0)
      return Fail("corrupt profile footer (bad tail magic)");
    if (Stored != Expected)
      return Fail("profile checksum mismatch");
  }

  // Validate structurally by round-tripping through the tree builder.
  std::vector<std::tuple<uint64_t, uint8_t, uint64_t>> Triples;
  Triples.reserve(Nodes.size());
  for (const Node &N : Nodes)
    Triples.emplace_back(N.Lo, N.WidthBits, N.Count);
  if (!RapTree::fromNodeSet(Config, Triples, NumEvents, Error, NextMergeAt)) {
    if (Kind)
      *Kind = ProfileIoError::Corrupt;
    return nullptr;
  }

  if (Kind)
    *Kind = ProfileIoError::None;
  return std::make_unique<ProfileSnapshot>(SnapshotBuilder::make(
      Config, NumEvents, NextMergeAt, std::move(Nodes), AdmissionRngState,
      AdmissionDeferredWeight, AdmissionDeniedSplits));
}

bool ProfileSnapshot::writeText(std::ostream &OS) const {
  char Buffer[320];
  std::snprintf(Buffer, sizeof(Buffer),
                "rap-profile v4 bits=%u b=%u eps=%.17g q=%.17g "
                "interval=%" PRIu64 " scale=%.17g merges=%d "
                "nextmerge=%" PRIu64 " maxnodes=%" PRIu64
                " maxbytes=%" PRIu64 " admit=%d coarse=%.17g "
                "aseed=%" PRIu64 " arng=%" PRIu64 " adeferred=%" PRIu64
                " adenied=%" PRIu64 "\n",
                Config.RangeBits, Config.BranchFactor, Config.Epsilon,
                Config.MergeRatio, Config.InitialMergeInterval,
                Config.MergeThresholdScale, Config.EnableMerges ? 1 : 0,
                NextMergeAt, Config.MaxNodes, Config.MaxMemoryBytes,
                Config.EnableAdmission ? 1 : 0, Config.AdmissionCoarseness,
                Config.AdmissionSeed, AdmissionRngState,
                AdmissionDeferredWeight, AdmissionDeniedSplits);
  OS << Buffer;
  std::snprintf(Buffer, sizeof(Buffer), "events=%" PRIu64 " nodes=%zu\n",
                NumEvents, Nodes.size());
  OS << Buffer;
  for (const Node &N : Nodes) {
    std::snprintf(Buffer, sizeof(Buffer), "%" PRIx64 " %u %" PRIu64 "\n",
                  N.Lo, static_cast<unsigned>(N.WidthBits), N.Count);
    OS << Buffer;
  }
  return static_cast<bool>(OS);
}

std::unique_ptr<ProfileSnapshot>
ProfileSnapshot::readText(std::istream &IS, std::string *Error,
                          ProfileIoError *Kind) {
  auto Fail = [Error, Kind, &IS](const char *Message) {
    if (Error)
      *Error = Message;
    if (Kind)
      *Kind = IS.bad() ? ProfileIoError::Io : ProfileIoError::Corrupt;
    return std::unique_ptr<ProfileSnapshot>();
  };
  std::string Line;
  if (!std::getline(IS, Line))
    return Fail("empty profile text");
  RapConfig Config;
  unsigned Merges;
  unsigned Admit = 0;
  uint64_t Interval;
  uint64_t NextMergeAt = 0;
  uint64_t AdmissionRngState = 0;
  uint64_t AdmissionDeferredWeight = 0;
  uint64_t AdmissionDeniedSplits = 0;
  bool IsV4 =
      std::sscanf(Line.c_str(),
                  "rap-profile v4 bits=%u b=%u eps=%lg q=%lg "
                  "interval=%" SCNu64 " scale=%lg merges=%u "
                  "nextmerge=%" SCNu64 " maxnodes=%" SCNu64
                  " maxbytes=%" SCNu64 " admit=%u coarse=%lg "
                  "aseed=%" SCNu64 " arng=%" SCNu64 " adeferred=%" SCNu64
                  " adenied=%" SCNu64,
                  &Config.RangeBits, &Config.BranchFactor, &Config.Epsilon,
                  &Config.MergeRatio, &Interval,
                  &Config.MergeThresholdScale, &Merges, &NextMergeAt,
                  &Config.MaxNodes, &Config.MaxMemoryBytes, &Admit,
                  &Config.AdmissionCoarseness, &Config.AdmissionSeed,
                  &AdmissionRngState, &AdmissionDeferredWeight,
                  &AdmissionDeniedSplits) == 16;
  if (!IsV4 &&
      std::sscanf(Line.c_str(),
                  "rap-profile v3 bits=%u b=%u eps=%lg q=%lg "
                  "interval=%" SCNu64 " scale=%lg merges=%u "
                  "nextmerge=%" SCNu64 " maxnodes=%" SCNu64
                  " maxbytes=%" SCNu64,
                  &Config.RangeBits, &Config.BranchFactor, &Config.Epsilon,
                  &Config.MergeRatio, &Interval,
                  &Config.MergeThresholdScale, &Merges, &NextMergeAt,
                  &Config.MaxNodes, &Config.MaxMemoryBytes) != 10 &&
      std::sscanf(Line.c_str(),
                  "rap-profile v2 bits=%u b=%u eps=%lg q=%lg "
                  "interval=%" SCNu64 " scale=%lg merges=%u "
                  "nextmerge=%" SCNu64,
                  &Config.RangeBits, &Config.BranchFactor, &Config.Epsilon,
                  &Config.MergeRatio, &Interval,
                  &Config.MergeThresholdScale, &Merges,
                  &NextMergeAt) != 8 &&
      std::sscanf(Line.c_str(),
                  "rap-profile v1 bits=%u b=%u eps=%lg q=%lg "
                  "interval=%" SCNu64 " scale=%lg merges=%u",
                  &Config.RangeBits, &Config.BranchFactor, &Config.Epsilon,
                  &Config.MergeRatio, &Interval,
                  &Config.MergeThresholdScale, &Merges) != 7)
    return Fail("malformed profile text header");
  Config.InitialMergeInterval = Interval;
  Config.EnableMerges = Merges != 0;
  Config.EnableAdmission = Admit != 0;
  if (!IsV4)
    AdmissionRngState = Config.AdmissionSeed;
  if (!Config.validate(Error)) {
    if (Kind)
      *Kind = ProfileIoError::Corrupt;
    return nullptr;
  }

  if (!std::getline(IS, Line))
    return Fail("missing events/nodes line");
  uint64_t NumEvents;
  size_t NumNodes;
  if (std::sscanf(Line.c_str(), "events=%" SCNu64 " nodes=%zu", &NumEvents,
                  &NumNodes) != 2)
    return Fail("malformed events/nodes line");
  if (NumNodes == 0 || NumNodes > (size_t(1) << 32))
    return Fail("implausible node count");

  std::vector<Node> Nodes;
  Nodes.reserve(std::min<size_t>(NumNodes, size_t(1) << 16));
  for (size_t I = 0; I != NumNodes; ++I) {
    if (!std::getline(IS, Line))
      return Fail("truncated node list");
    Node N;
    unsigned Width;
    if (std::sscanf(Line.c_str(), "%" SCNx64 " %u %" SCNu64, &N.Lo, &Width,
                    &N.Count) != 3 ||
        Width > 64)
      return Fail("malformed node line");
    N.WidthBits = static_cast<uint8_t>(Width);
    Nodes.push_back(N);
  }

  std::vector<std::tuple<uint64_t, uint8_t, uint64_t>> Triples;
  for (const Node &N : Nodes)
    Triples.emplace_back(N.Lo, N.WidthBits, N.Count);
  if (!RapTree::fromNodeSet(Config, Triples, NumEvents, Error, NextMergeAt)) {
    if (Kind)
      *Kind = ProfileIoError::Corrupt;
    return nullptr;
  }

  if (Kind)
    *Kind = ProfileIoError::None;
  return std::make_unique<ProfileSnapshot>(SnapshotBuilder::make(
      Config, NumEvents, NextMergeAt, std::move(Nodes), AdmissionRngState,
      AdmissionDeferredWeight, AdmissionDeniedSplits));
}

bool ProfileSnapshot::saveFileAtomic(const std::string &Path,
                                     std::string *Error,
                                     ProfileIoError *Kind) const {
  const std::string Temp = Path + ".tmp";
  auto Fail = [&](const char *Message) {
    std::remove(Temp.c_str());
    if (Error)
      *Error = Message;
    if (Kind)
      *Kind = ProfileIoError::Io;
    return false;
  };
  {
    std::ofstream OS(Temp, std::ios::binary | std::ios::trunc);
    if (!OS)
      return Fail("cannot create temporary profile file");
    if (!writeBinary(OS))
      return Fail("failed to write profile");
    OS.flush();
    if (!OS)
      return Fail("failed to flush profile");
  }
  if (std::rename(Temp.c_str(), Path.c_str()) != 0)
    return Fail("failed to rename profile into place");
  if (Kind)
    *Kind = ProfileIoError::None;
  return true;
}

std::unique_ptr<ProfileSnapshot>
ProfileSnapshot::loadFile(const std::string &Path, std::string *Error,
                          ProfileIoError *Kind) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS) {
    if (Error)
      *Error = "cannot open profile file";
    if (Kind)
      *Kind = ProfileIoError::Io;
    return nullptr;
  }
  std::unique_ptr<ProfileSnapshot> Snapshot = readBinary(IS, Error, Kind);
  if (Snapshot) {
    // Strict framing: nothing may follow a binary profile.
    IS.peek();
    if (!IS.eof()) {
      if (Error)
        *Error = "trailing bytes after profile";
      if (Kind)
        *Kind = ProfileIoError::Corrupt;
      return nullptr;
    }
    return Snapshot;
  }
  // A stream that starts with the binary magic is a binary profile:
  // propagate its error rather than reinterpreting corrupt bytes as
  // the text format.
  IS.clear();
  IS.seekg(0);
  char MagicBuffer[4];
  if (IS.read(MagicBuffer, 4) &&
      std::memcmp(MagicBuffer, Magic, 4) == 0)
    return nullptr;
  IS.clear();
  IS.seekg(0);
  return readText(IS, Error, Kind);
}

bool ProfileSnapshot::operator==(const ProfileSnapshot &Other) const {
  if (NumEvents != Other.NumEvents || NextMergeAt != Other.NextMergeAt ||
      Nodes.size() != Other.Nodes.size())
    return false;
  if (AdmissionRngState != Other.AdmissionRngState ||
      AdmissionDeferredWeight != Other.AdmissionDeferredWeight ||
      AdmissionDeniedSplits != Other.AdmissionDeniedSplits)
    return false;
  if (Config.RangeBits != Other.Config.RangeBits ||
      Config.BranchFactor != Other.Config.BranchFactor ||
      Config.Epsilon != Other.Config.Epsilon ||
      Config.MaxNodes != Other.Config.MaxNodes ||
      Config.MaxMemoryBytes != Other.Config.MaxMemoryBytes ||
      Config.EnableAdmission != Other.Config.EnableAdmission ||
      Config.AdmissionCoarseness != Other.Config.AdmissionCoarseness ||
      Config.AdmissionSeed != Other.Config.AdmissionSeed)
    return false;
  for (size_t I = 0; I != Nodes.size(); ++I)
    if (Nodes[I].Lo != Other.Nodes[I].Lo ||
        Nodes[I].WidthBits != Other.Nodes[I].WidthBits ||
        Nodes[I].Count != Other.Nodes[I].Count)
      return false;
  return true;
}
