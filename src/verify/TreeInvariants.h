//===- verify/TreeInvariants.h - Structural + online auditors -*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-checkable statements of every invariant the paper implies
/// for a RAP tree (see docs/VERIFICATION.md for the invariant-to-paper
/// mapping). Two auditors cooperate:
///
///  - TreeInvariants walks a tree (or a raw node set, e.g. the hardware
///    engine's TCAM snapshot) and checks the *structural* invariants:
///    range geometry, conservation of stream weight, the subtree-sum
///    column behind every O(1) subtreeWeight(), node accounting,
///    and the worst-case node-count bound of Sec 3.1.
///
///  - OnlineAuditor wraps a live tree and checks the *transition*
///    invariants on every update: the split decision against the
///    eps*n/log(R) threshold of Sec 2.2 and the batched-merge schedule
///    (interval ratio q) of Sec 3.1.
///
/// Checks never assert: they return violation lists, so they work in
/// NDEBUG builds and the fuzz driver can minimize and report failures.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_VERIFY_TREEINVARIANTS_H
#define RAP_VERIFY_TREEINVARIANTS_H

#include "core/RapTree.h"

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

namespace rap {

/// One violated invariant: a stable identifier plus human-readable
/// context for the failure report.
struct InvariantViolation {
  std::string Invariant; ///< Stable id, e.g. "child-geometry".
  std::string Detail;    ///< What was observed vs expected.
};

/// Structural invariant auditor.
class TreeInvariants {
public:
  /// Audits \p Tree against every structural invariant. An empty
  /// result means all invariants hold.
  static std::vector<InvariantViolation> audit(const RapTree &Tree);

  /// Audits a raw (lo, widthBits, count) node set — in any order —
  /// against \p Config and \p NumEvents. This is the tree-free entry
  /// point used for ProfileSnapshot node lists and for the hardware
  /// engine's TCAM snapshot (which shares no code with RapTree).
  static std::vector<InvariantViolation>
  auditNodeSet(const RapConfig &Config,
               std::vector<std::tuple<uint64_t, uint8_t, uint64_t>> Nodes,
               uint64_t NumEvents);

  /// Formats violations one per line for logs and test messages.
  static std::string render(const std::vector<InvariantViolation> &Vs);
};

/// Online transition auditor: owns the update path of a tree and
/// validates every split/merge decision as it happens. Feed events
/// through addPoint (never mutate the tree directly while auditing).
class OnlineAuditor {
public:
  explicit OnlineAuditor(RapTree &T) : Tree(T) {}

  /// Forwards to RapTree::addPoint and checks the transition: event
  /// accounting, the split decision against the current threshold, and
  /// the batched-merge schedule.
  void addPoint(uint64_t X, uint64_t Weight = 1);

  /// All transition violations observed so far.
  const std::vector<InvariantViolation> &violations() const {
    return Violations;
  }

  /// The audited tree.
  const RapTree &tree() const { return Tree; }

private:
  RapTree &Tree;
  std::vector<InvariantViolation> Violations;
};

} // namespace rap

#endif // RAP_VERIFY_TREEINVARIANTS_H
