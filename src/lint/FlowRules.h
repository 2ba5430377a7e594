//===- lint/FlowRules.h - Flow-aware rap_lint rules -----------*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three CFG/dataflow rules of rap_lint v2 (see
/// docs/STATIC_ANALYSIS.md):
///
///   unchecked-status  a call whose bool/rap_status result is dropped,
///                     or stored in a local no path ever reads
///   use-after-move    a moved-from local read before reassignment
///                     (may-analysis over the CFG)
///   counter-escape    a value loaded from a saturating counter field
///                     reaching raw + / * arithmetic instead of the
///                     BitUtils.h helpers (core/ only; taint analysis)
///
/// All three run per function over lint::Cfg and respect the standard
/// `rap-lint: allow(...)` suppressions (applied by the engine).
///
//===----------------------------------------------------------------------===//

#ifndef RAP_LINT_FLOWRULES_H
#define RAP_LINT_FLOWRULES_H

#include "lint/Lexer.h"
#include "lint/Lint.h"
#include "lint/Parser.h"

#include <string>
#include <vector>

namespace rap {
namespace lint {

/// Whether \p Sig returns a status the caller must not drop: any
/// rap_status, or a non-pointer bool on a status-named function.
bool isStatusReturn(const Signature &Sig);

/// Runs the three flow rules over one parsed file. \p InCore gates
/// counter-escape. Findings are appended unsuppressed; the engine
/// applies allow() markers afterwards.
void runFlowRules(const std::string &Path, const LexedSource &Src,
                  const ParsedFile &Parsed, const LintContext &Ctx,
                  bool InCore, std::vector<Finding> &Out);

/// Registry entries for the flow rules, composed into allRules().
const std::vector<RuleInfo> &flowRuleInfos();

} // namespace lint
} // namespace rap

#endif // RAP_LINT_FLOWRULES_H
