//===- lint/Lint.h - RAP-specific static-analysis rules --------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rap_lint rule engine. Each rule guards one invariant the paper
/// or DESIGN.md relies on but the compiler cannot check:
///
///   counter-arithmetic    event-weight counters in core/ must use the
///                         saturating helpers (BitUtils.h), never raw
///                         += / ++, so counts clamp instead of wrapping
///   capi-exception-tight  extern "C" functions must be noexcept or
///                         wrap their whole body in try/catch; a C
///                         caller cannot unwind a C++ exception
///   nondeterminism        core/, hw/ and verify/ may draw randomness
///                         and time only through support/Rng.h so every
///                         run replays bit-identically from its seed
///   hot-path-io           the per-event files (RapTree, PipelinedEngine,
///                         Tcam) must not touch stdio/iostream
///   include-guard         public headers carry the canonical
///                         RAP_<DIR>_<STEM>_H guard
///
/// Findings are suppressed per line with `// rap-lint: allow(<rule>)`.
/// See docs/STATIC_ANALYSIS.md for the full catalog and rationale.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_LINT_LINT_H
#define RAP_LINT_LINT_H

#include <set>
#include <string>
#include <vector>

namespace rap {
namespace lint {

/// One diagnostic produced by a rule.
struct Finding {
  std::string RuleId;
  std::string Path;  ///< Repo-relative path with forward slashes.
  unsigned Line = 0; ///< 1-based.
  std::string Message;
};

/// Static description of a rule, used for --list-rules and --explain,
/// for rejecting unknown names in allow() markers, and for SARIF rule
/// metadata.
struct RuleInfo {
  const char *Id;
  const char *Summary;
  /// Long-form rationale for `rap_lint --explain=<rule>`: what the
  /// rule guards, why the invariant matters for the paper's
  /// guarantees, and how to fix or suppress a finding.
  const char *Explanation;
};

/// All real rules (the reserved `unknown-rule` diagnostic is not
/// listed; it cannot be suppressed).
const std::vector<RuleInfo> &allRules();

/// Cross-file facts the driver gathers before linting individual
/// files, so flow rules see more than one translation unit.
struct LintContext {
  /// Names of functions declared in src/ headers whose return value
  /// is a status the caller must check (see isStatusReturn).
  std::set<std::string> StatusFunctions;
};

/// Lints one in-memory source file. \p Path must be repo-relative
/// (e.g. "src/core/RapTree.cpp"); it selects which rules apply.
/// Suppressed findings are removed; allow() markers naming a rule that
/// does not exist surface as `unknown-rule` findings.
std::vector<Finding> lintSource(const std::string &Path,
                                const std::string &Content);

/// Same, with cross-file context (status-function names collected
/// from headers by the driver).
std::vector<Finding> lintSource(const std::string &Path,
                                const std::string &Content,
                                const LintContext &Ctx);

/// Findings split against a baseline file (--baseline): Fresh ones
/// fail the run, Grandfathered ones only warn. Stale holds baseline
/// entries that matched no current finding — dead weight that would
/// otherwise silently grandfather a future regression — rendered as
/// "path: [rule] message" lines; the driver fails the run on them so
/// the baseline shrinks monotonically as findings are fixed.
struct BaselineSplit {
  std::vector<Finding> Fresh;
  std::vector<Finding> Grandfathered;
  std::vector<std::string> Stale;
};

/// Splits \p Findings against \p BaselineText, the saved renderText
/// output of an earlier run. Matching ignores line numbers — a
/// grandfathered finding keyed on (path, rule, message) survives
/// unrelated edits above it — and is multiset-aware, so adding a
/// second identical violation in the same file still fails, and N
/// baselined copies with fewer than N matches leave the excess in
/// Stale.
BaselineSplit applyBaseline(std::vector<Finding> Findings,
                            const std::string &BaselineText);

/// Renders findings as "path:line: [rule] message" lines.
std::string renderText(const std::vector<Finding> &Findings);

/// Renders findings as a JSON array.
std::string renderJson(const std::vector<Finding> &Findings);

/// Renders findings as a SARIF 2.1.0 log.
std::string renderSarif(const std::vector<Finding> &Findings);

} // namespace lint
} // namespace rap

#endif // RAP_LINT_LINT_H
