//===- tools/rap_lint.cpp - RAP static-analysis driver -------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs the rap_lint rules (src/lint) over files and directory trees:
//
//   rap_lint --root=/path/to/repo src tools
//   rap_lint --api-audit --baseline=tools/lint_baseline.txt src tools
//   rap_lint --format=sarif --output=build/lint.sarif src
//   rap_lint --explain=unchecked-status
//
// Positional arguments are repo-relative files or directories;
// directories are scanned recursively for *.h / *.cpp. With
// --api-audit the cross-TU checks run over the same file set and
// their findings merge into the one report. With --baseline, findings
// recorded in the given file (saved renderText output) only warn;
// fresh findings still fail, and so do stale baseline entries that no
// longer match any finding (prune them as violations are fixed).
// Exit status: 0 no fresh findings and no stale entries, 1 otherwise,
// 2 bad usage.
// See docs/STATIC_ANALYSIS.md for the rule catalog and the per-line
// `// rap-lint: allow(<rule>)` suppression syntax.
//
//===----------------------------------------------------------------------===//

#include "lint/ApiAudit.h"
#include "lint/FlowRules.h"
#include "lint/Lexer.h"
#include "lint/Lint.h"
#include "lint/Parser.h"
#include "support/ArgParse.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace rap;
namespace fs = std::filesystem;

namespace {

bool isLintableFile(const fs::path &P) {
  std::string Ext = P.extension().string();
  return Ext == ".h" || Ext == ".cpp" || Ext == ".hpp" || Ext == ".cc";
}

/// Repo-relative path with forward slashes, for classification and
/// stable report output.
std::string relativePath(const fs::path &P, const fs::path &Root) {
  std::error_code EC;
  fs::path Rel = fs::relative(P, Root, EC);
  std::string Text = (EC || Rel.empty() ? P : Rel).generic_string();
  while (Text.rfind("./", 0) == 0)
    Text = Text.substr(2);
  return Text;
}

bool readFile(const fs::path &P, std::string &Out) {
  std::ifstream In(P, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Prints one rule's long-form rationale, paragraph-wrapped.
int explainRule(const std::string &Id) {
  for (const lint::RuleInfo &R : lint::allRules()) {
    if (Id != R.Id)
      continue;
    std::printf("%s\n  %s\n\n", R.Id, R.Summary);
    // Wrap the explanation at ~76 columns.
    std::istringstream Words(R.Explanation);
    std::string Word, Line;
    while (Words >> Word) {
      if (!Line.empty() && Line.size() + 1 + Word.size() > 74) {
        std::printf("  %s\n", Line.c_str());
        Line.clear();
      }
      Line += (Line.empty() ? "" : " ") + Word;
    }
    if (!Line.empty())
      std::printf("  %s\n", Line.c_str());
    return 0;
  }
  std::fprintf(stderr,
               "rap_lint: unknown rule '%s'; see rap_lint --list-rules\n",
               Id.c_str());
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args("rap_lint",
                "Project-specific static analysis for the RAP tree: "
                "saturating-counter discipline, exception-tight C API, "
                "determinism, hot-path IO, include-guard hygiene, and the "
                "v2 flow rules (unchecked-status, use-after-move, "
                "counter-escape).");
  Args.addString("root", ".",
                 "repository root; paths are reported relative to it");
  Args.addString("format", "text", "report format: text, json or sarif");
  Args.addString("output", "", "write the report here instead of stdout");
  Args.addString("baseline", "",
                 "grandfather the findings recorded in this file (saved "
                 "text-format output); only fresh findings fail the run");
  Args.addString("explain", "",
                 "print the long-form rationale for one rule and exit");
  Args.addBool("api-audit",
               "also run the cross-TU checks (api-odr, api-capi-coverage, "
               "api-include-drift) over the scanned set");
  Args.addBool("list-rules", "print the rule catalog and exit");
  Args.addBool("quiet", "suppress the summary line on stderr");
  Args.allowPositional("paths",
                       "repo-relative files or directories to scan "
                       "recursively for *.h / *.cpp");
  if (!Args.parse(Argc, Argv))
    return 2;

  if (Args.getBool("list-rules")) {
    for (const lint::RuleInfo &R : lint::allRules())
      std::printf("%-22s %s\n", R.Id, R.Summary);
    return 0;
  }
  if (!Args.getString("explain").empty())
    return explainRule(Args.getString("explain"));

  const std::string &Format = Args.getString("format");
  if (Format != "text" && Format != "json" && Format != "sarif") {
    std::fprintf(stderr, "rap_lint: unknown --format '%s'\n", Format.c_str());
    return 2;
  }

  fs::path Root = fs::path(Args.getString("root"));
  const std::vector<std::string> &Positional = Args.positional();
  if (Positional.empty()) {
    std::fprintf(stderr,
                 "rap_lint: no inputs; pass files or directories "
                 "(e.g. rap_lint --root=. src tools)\n");
    return 2;
  }

  // Collect the file set, sorted for deterministic reports.
  std::vector<fs::path> Files;
  for (const std::string &Arg : Positional) {
    fs::path P = fs::path(Arg).is_absolute() ? fs::path(Arg) : Root / Arg;
    std::error_code EC;
    if (fs::is_directory(P, EC)) {
      for (fs::recursive_directory_iterator It(P, EC), End; It != End;
           It.increment(EC)) {
        if (EC)
          break;
        if (It->is_regular_file(EC) && isLintableFile(It->path()))
          Files.push_back(It->path());
      }
    } else if (fs::is_regular_file(P, EC)) {
      Files.push_back(P);
    } else {
      std::fprintf(stderr, "rap_lint: no such file or directory: %s\n",
                   Arg.c_str());
      return 2;
    }
  }
  std::sort(Files.begin(), Files.end());

  struct Input {
    std::string Rel;
    std::string Content;
  };
  std::vector<Input> Inputs;
  Inputs.reserve(Files.size());
  for (const fs::path &File : Files) {
    Input In;
    In.Rel = relativePath(File, Root);
    if (!readFile(File, In.Content)) {
      std::fprintf(stderr, "rap_lint: cannot read %s\n",
                   File.string().c_str());
      return 2;
    }
    Inputs.push_back(std::move(In));
  }

  // Cross-file prescan: status-returning functions declared in src/
  // headers, so unchecked-status sees callees across TU boundaries.
  lint::LintContext Ctx;
  for (const Input &In : Inputs) {
    if (In.Rel.rfind("src/", 0) != 0 ||
        In.Rel.size() < 2 ||
        In.Rel.compare(In.Rel.size() - 2, 2, ".h") != 0)
      continue;
    lint::LexedSource Src = lint::lex(In.Content);
    lint::ParsedFile Parsed = lint::parseFile(Src);
    for (const lint::Signature &Sig : Parsed.Signatures)
      if (lint::isStatusReturn(Sig))
        Ctx.StatusFunctions.insert(Sig.Name);
  }

  std::vector<lint::Finding> Findings;
  for (const Input &In : Inputs) {
    std::vector<lint::Finding> FileFindings =
        lint::lintSource(In.Rel, In.Content, Ctx);
    Findings.insert(Findings.end(), FileFindings.begin(), FileFindings.end());
  }

  if (Args.getBool("api-audit")) {
    std::vector<lint::AuditFile> AuditInputs;
    AuditInputs.reserve(Inputs.size());
    for (const Input &In : Inputs)
      AuditInputs.push_back({In.Rel, In.Content});
    std::vector<lint::Finding> Audit = lint::runApiAudit(AuditInputs);
    Findings.insert(Findings.end(), Audit.begin(), Audit.end());
  }

  std::sort(Findings.begin(), Findings.end(),
            [](const lint::Finding &A, const lint::Finding &B) {
              if (A.Path != B.Path)
                return A.Path < B.Path;
              if (A.Line != B.Line)
                return A.Line < B.Line;
              return A.RuleId < B.RuleId;
            });

  // Baseline: grandfathered findings stay in the report (so SARIF
  // keeps the full record) but only fresh ones fail the run. Stale
  // baseline entries — lines matching no current finding — also fail:
  // left in place they would silently grandfather the next regression
  // that happens to produce the same message.
  size_t FreshCount = Findings.size();
  size_t GrandfatheredCount = 0;
  size_t StaleCount = 0;
  if (!Args.getString("baseline").empty()) {
    fs::path BaselinePath = fs::path(Args.getString("baseline"));
    if (BaselinePath.is_relative())
      BaselinePath = Root / BaselinePath;
    std::string BaselineText;
    if (!readFile(BaselinePath, BaselineText)) {
      std::fprintf(stderr, "rap_lint: cannot read baseline %s\n",
                   BaselinePath.string().c_str());
      return 2;
    }
    lint::BaselineSplit Split =
        lint::applyBaseline(Findings, BaselineText);
    FreshCount = Split.Fresh.size();
    GrandfatheredCount = Split.Grandfathered.size();
    StaleCount = Split.Stale.size();
    for (const lint::Finding &F : Split.Grandfathered)
      std::fprintf(stderr,
                   "rap_lint: warning: grandfathered by baseline: "
                   "%s:%u: [%s]\n",
                   F.Path.c_str(), F.Line, F.RuleId.c_str());
    for (const std::string &Entry : Split.Stale)
      std::fprintf(stderr,
                   "rap_lint: error: stale baseline entry (matches no "
                   "finding; remove it from %s): %s\n",
                   BaselinePath.string().c_str(), Entry.c_str());
  }

  std::string Report = Format == "sarif"  ? lint::renderSarif(Findings)
                       : Format == "json" ? lint::renderJson(Findings)
                                          : lint::renderText(Findings);
  const std::string &OutputPath = Args.getString("output");
  if (!OutputPath.empty()) {
    std::ofstream Out(OutputPath, std::ios::binary);
    if (!Out) {
      std::fprintf(stderr, "rap_lint: cannot write %s\n", OutputPath.c_str());
      return 2;
    }
    Out << Report;
  } else {
    std::fputs(Report.c_str(), stdout);
  }

  if (!Args.getBool("quiet")) {
    if (GrandfatheredCount || StaleCount)
      std::fprintf(stderr,
                   "rap_lint: %zu file(s), %zu finding(s) "
                   "(%zu grandfathered, %zu fresh, %zu stale baseline "
                   "entr%s)\n",
                   Inputs.size(), Findings.size(), GrandfatheredCount,
                   FreshCount, StaleCount, StaleCount == 1 ? "y" : "ies");
    else
      std::fprintf(stderr, "rap_lint: %zu file(s), %zu finding(s)\n",
                   Inputs.size(), Findings.size());
  }
  return FreshCount == 0 && StaleCount == 0 ? 0 : 1;
}
