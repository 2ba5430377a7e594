//===- core/Serialization.h - RAP profile persistence ----------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistence for RAP profiles. The paper's rap_finalize "dumps the
/// resulting RAP tree in ascii format for further processing such as
/// identifying hot-spots, range coverage, phase identification, and so
/// on" (Sec 3.2); this module provides the machine-readable version:
/// a compact little-endian binary format plus text round-tripping, so
/// profiles can be collected online and analyzed offline.
///
/// Binary layout (version 4):
///   magic "RAPP", u32 version,
///   config { u32 rangeBits, u32 branchFactor, f64 epsilon,
///            f64 mergeRatio, u64 initialMergeInterval,
///            f64 mergeThresholdScale, u8 enableMerges,
///            u64 maxNodes, u64 maxMemoryBytes,
///            u8 enableAdmission, f64 admissionCoarseness,
///            u64 admissionSeed },
///   u64 numEvents, u64 nextMergeAt,
///   admission state { u64 admissionRngState,
///                     u64 admissionDeferredWeight,
///                     u64 admissionDeniedSplits },
///   u64 numNodes,
///   nodes in preorder: { u64 lo, u8 widthBits, u64 count } — child
///   presence is reconstructed structurally from preorder + ranges,
///   footer { u32 crc32 of magic..last node byte, tail magic "PRAR" }.
///
/// The admission fields (new in version 4) carry the randomized split
/// admission gate across a save/load: the RNG position plus the two
/// deferred-split counters, so a restored tree continues the identical
/// admission decision stream and keeps its error accounting.
///
/// The CRC-32 footer makes torn or bit-flipped snapshots detectable:
/// readers reject any stream whose checksum or tail magic does not
/// match, so a crash mid-write can never be mistaken for a profile.
/// saveFileAtomic() additionally writes through a temp file and
/// renames, so an existing profile on disk is replaced atomically.
///
/// Version 1 streams (no nextMergeAt field), version 2 streams (no
/// budget fields, no footer), and version 3 streams (no admission
/// fields) are still read; v1 merge-schedule position is re-derived
/// from the configured initial interval, which matches the original
/// tree whenever every batched merge ran on schedule.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_CORE_SERIALIZATION_H
#define RAP_CORE_SERIALIZATION_H

#include "core/RapTree.h"

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace rap {

/// Failure class of a profile read or write, for callers that map
/// errors to exit codes or C API error enums.
enum class ProfileIoError {
  None = 0, ///< The operation succeeded.
  Io,       ///< The underlying stream or file failed (open/read/write).
  Corrupt,  ///< The bytes were read but are not a valid profile.
};

/// A detached, immutable copy of a profile: configuration, stream
/// length, and the node set. Snapshots support the offline half of the
/// paper's workflow — estimates, hot ranges and dumps without the live
/// tree — and are the unit of (de)serialization.
class ProfileSnapshot {
public:
  /// One node in preorder.
  struct Node {
    uint64_t Lo = 0;
    uint8_t WidthBits = 0;
    uint64_t Count = 0;
  };

  /// Captures the current state of \p Tree.
  static ProfileSnapshot capture(const RapTree &Tree);

  /// The configuration the profile was collected with.
  const RapConfig &config() const { return Config; }

  /// Stream length at capture time.
  uint64_t numEvents() const { return NumEvents; }

  /// Batched-merge schedule position at capture time (the event count
  /// at which the next merge will run), or 0 for version-1 profiles
  /// that did not record it.
  uint64_t nextMergeAt() const { return NextMergeAt; }

  /// Number of nodes.
  uint64_t numNodes() const { return Nodes.size(); }

  /// Admission RNG position at capture time (the configured seed for
  /// pre-version-4 profiles, which recorded no admission state).
  uint64_t admissionRngState() const { return AdmissionRngState; }

  /// Admission-deferred weight at capture time.
  uint64_t admissionDeferredWeight() const { return AdmissionDeferredWeight; }

  /// Admission-denied split count at capture time.
  uint64_t admissionDeniedSplits() const { return AdmissionDeniedSplits; }

  /// Preorder node list (parents before children, siblings by range).
  const std::vector<Node> &nodes() const { return Nodes; }

  /// Lower-bound estimate of the events in [Lo, Hi], identical to
  /// RapTree::estimateRange on the captured tree.
  uint64_t estimateRange(uint64_t Lo, uint64_t Hi) const;

  /// Hot ranges at fraction \p Phi, identical to the live tree's.
  std::vector<HotRange> extractHotRanges(double Phi) const;

  /// Writes the current (version-4) binary format, CRC footer
  /// included. Returns false if the stream failed; partial output may
  /// have been written, but its checksum will not verify.
  [[nodiscard]] bool writeBinary(std::ostream &OS) const;

  /// Reads any supported binary format version. Returns nullptr and
  /// sets \p Error (and \p Kind, when non-null) on a malformed stream:
  /// truncation, corruption, and checksum mismatches are all rejected.
  static std::unique_ptr<ProfileSnapshot>
  readBinary(std::istream &IS, std::string *Error = nullptr,
             ProfileIoError *Kind = nullptr);

  /// Writes a one-node-per-line text format (`lo width count`, hex lo).
  /// Returns false if the stream failed.
  [[nodiscard]] bool writeText(std::ostream &OS) const;

  /// Reads the text format written by writeText.
  static std::unique_ptr<ProfileSnapshot>
  readText(std::istream &IS, std::string *Error = nullptr,
           ProfileIoError *Kind = nullptr);

  /// Saves the binary format to \p Path crash-safely: the bytes are
  /// written to "<Path>.tmp", verified, and renamed over \p Path, so
  /// a crash or write failure never leaves a half-written profile
  /// under the final name. Returns false (removing the temp file) on
  /// any failure.
  [[nodiscard]] bool saveFileAtomic(const std::string &Path,
                                    std::string *Error = nullptr,
                                    ProfileIoError *Kind = nullptr) const;

  /// Loads a profile from \p Path, binary or text. Streams that begin
  /// with the binary magic are only parsed as binary — a corrupt
  /// binary profile is rejected, never reinterpreted as text — and
  /// trailing garbage after a valid binary profile is rejected.
  static std::unique_ptr<ProfileSnapshot>
  loadFile(const std::string &Path, std::string *Error = nullptr,
           ProfileIoError *Kind = nullptr);

  /// Rebuilds a live RapTree with exactly this snapshot's nodes and
  /// counts (for resuming profiling or re-querying with tree code).
  std::unique_ptr<RapTree> restore() const;

  /// Structural + content equality (used by round-trip tests).
  bool operator==(const ProfileSnapshot &Other) const;

private:
  friend class SnapshotBuilder;
  ProfileSnapshot() = default;

  /// Index of the last node whose range encloses Nodes[I], or -1.
  std::vector<int64_t> buildParents() const;

  RapConfig Config;
  uint64_t NumEvents = 0;
  uint64_t NextMergeAt = 0;
  uint64_t AdmissionRngState = 0;
  uint64_t AdmissionDeferredWeight = 0;
  uint64_t AdmissionDeniedSplits = 0;
  std::vector<Node> Nodes;
};

} // namespace rap

#endif // RAP_CORE_SERIALIZATION_H
