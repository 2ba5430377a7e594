//===- tests/lint/LintTest.cpp - rap_lint rule engine tests --------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
// Each rule R1-R5 has one violating and one clean fixture under
// fixtures/; the violating ones are pinned to expected-findings golden
// files (fixtures/<name>.expected, renderText format), the clean ones
// must produce nothing. Fixtures are linted under a *virtual* repo
// path because rule applicability keys off the path (src/core/,
// hot-path stems, headers). The registry gate at the end keeps the
// rule catalog (--list-rules, --explain, allow() validation) in step
// with the ids the modules actually emit.
//
//===----------------------------------------------------------------------===//

#include "lint/ApiAudit.h"
#include "lint/Lexer.h"
#include "lint/Lint.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace rap::lint;

namespace {

std::string fixturePath(const std::string &Name) {
  return std::string(RAP_LINT_FIXTURE_DIR) + "/" + Name;
}

std::string readFixture(const std::string &Name) {
  std::ifstream In(fixturePath(Name), std::ios::binary);
  EXPECT_TRUE(In.good()) << "missing fixture " << Name;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<Finding> lintFixture(const std::string &Name,
                                 const std::string &VirtualPath) {
  return lintSource(VirtualPath, readFixture(Name));
}

/// The violating fixture for every rule, its virtual path, and the
/// golden file pinning the exact findings.
struct GoldenCase {
  const char *Fixture;
  const char *VirtualPath;
  const char *RuleId; ///< Every golden finding must be this rule.
};

const GoldenCase GoldenCases[] = {
    {"r1_violate.cpp", "src/core/r1_violate.cpp", "counter-arithmetic"},
    {"r2_violate.cpp", "tools/r2_violate.cpp", "capi-exception-tight"},
    {"r3_violate.cpp", "src/hw/r3_violate.cpp", "nondeterminism"},
    {"r4_violate.cpp", "src/core/RapTree.cpp", "hot-path-io"},
    {"r5_violate.h", "src/core/R5Violate.h", "include-guard"},
};

/// The clean twin of every rule's fixture, on the same kind of path.
struct CleanCase {
  const char *Fixture;
  const char *VirtualPath;
};

const CleanCase CleanCases[] = {
    {"r1_clean.cpp", "src/core/r1_clean.cpp"},
    {"r2_clean.cpp", "tools/r2_clean.cpp"},
    {"r3_clean.cpp", "src/hw/r3_clean.cpp"},
    {"r4_clean.cpp", "src/hw/Tcam.cpp"},
    {"r5_clean.h", "src/core/R5Clean.h"},
};

} // namespace

TEST(LintGolden, ViolatingFixturesMatchGoldenFindings) {
  for (const GoldenCase &C : GoldenCases) {
    std::vector<Finding> Findings = lintFixture(C.Fixture, C.VirtualPath);
    EXPECT_FALSE(Findings.empty())
        << C.Fixture << ": rule produced no findings";
    for (const Finding &F : Findings)
      EXPECT_EQ(F.RuleId, C.RuleId) << C.Fixture;
    std::string Golden =
        readFixture(std::string(C.Fixture) + ".expected");
    EXPECT_EQ(renderText(Findings), Golden)
        << C.Fixture << ": findings diverge from the golden file; if the "
        << "change is intended, update fixtures/" << C.Fixture
        << ".expected to the rendered text above";
  }
}

TEST(LintGolden, CleanFixturesProduceNoFindings) {
  for (const CleanCase &C : CleanCases) {
    std::vector<Finding> Findings = lintFixture(C.Fixture, C.VirtualPath);
    EXPECT_TRUE(Findings.empty())
        << C.Fixture << ":\n" << renderText(Findings);
  }
}

TEST(LintSuppression, AllowMarkersSilenceFindings) {
  std::vector<Finding> Findings =
      lintFixture("suppressed.cpp", "src/core/suppressed.cpp");
  EXPECT_TRUE(Findings.empty()) << renderText(Findings);
}

TEST(LintSuppression, SameLineMarkerOnlyCoversItsLine) {
  std::string Source = "struct T { unsigned long long NumEvents; };\n"
                       "void f(T &t) {\n"
                       "  t.NumEvents += 1; // rap-lint: allow(counter-arithmetic)\n"
                       "  t.NumEvents += 2;\n"
                       "}\n";
  std::vector<Finding> Findings = lintSource("src/core/x.cpp", Source);
  ASSERT_EQ(Findings.size(), 1u);
  EXPECT_EQ(Findings[0].Line, 4u);
}

TEST(LintSuppression, StandaloneMarkerCoversNextLine) {
  std::string Source = "struct T { unsigned long long NumEvents; };\n"
                       "void f(T &t) {\n"
                       "  // rap-lint: allow(counter-arithmetic)\n"
                       "  t.NumEvents += 1;\n"
                       "}\n";
  EXPECT_TRUE(lintSource("src/core/x.cpp", Source).empty());
}

TEST(LintSuppression, UnknownRuleNameIsRejected) {
  std::vector<Finding> Findings =
      lintFixture("unknown_rule.cpp", "src/core/unknown_rule.cpp");
  ASSERT_EQ(Findings.size(), 1u);
  EXPECT_EQ(Findings[0].RuleId, "unknown-rule");
  EXPECT_NE(Findings[0].Message.find("no-such-rule"), std::string::npos);
}

TEST(LintSuppression, ProseMentionOfAllowIsNotAMarker) {
  // Documentation writing "allow(<rule>)" must neither suppress nor
  // trip the unknown-rule check.
  std::string Source =
      "// Suppress with rap-lint: allow(<rule>) on the line.\n"
      "int x;\n";
  EXPECT_TRUE(lintSource("src/core/x.cpp", Source).empty());
}

//===----------------------------------------------------------------------===//
// Lexer behavior the rules depend on
//===----------------------------------------------------------------------===//

TEST(LintLexer, CommentsAndStringsDoNotProduceIdentifiers) {
  // 'rand' in comments and strings must not trip the nondeterminism
  // rule; only the real identifier does.
  std::string Source = "// rand()\n"
                       "const char *s = \"rand()\"; /* rand */\n"
                       "int x = rand();\n";
  std::vector<Finding> Findings = lintSource("src/core/x.cpp", Source);
  ASSERT_EQ(Findings.size(), 1u);
  EXPECT_EQ(Findings[0].Line, 3u);
  EXPECT_EQ(Findings[0].RuleId, "nondeterminism");
}

TEST(LintLexer, RawStringsAreSkippedWhole) {
  std::string Source = "const char *s = R\"(rand() time( ++NumEvents)\";\n"
                       "int y = 0;\n";
  EXPECT_TRUE(lintSource("src/core/x.cpp", Source).empty());
}

TEST(LintLexer, DigitSeparatorsAreNotCharLiterals) {
  // A digit separator must not open a char literal that would swallow
  // the rest of the line (and the violation after it).
  std::string Source = "struct T { unsigned long long NumEvents; };\n"
                       "void f(T &t) { int n = 1'000'000; t.NumEvents += n; }\n";
  std::vector<Finding> Findings = lintSource("src/core/x.cpp", Source);
  ASSERT_EQ(Findings.size(), 1u);
  EXPECT_EQ(Findings[0].RuleId, "counter-arithmetic");
}

TEST(LintLexer, DirectivesAreCanonicalized) {
  std::string Source = "#include   <iostream>\n";
  std::vector<Finding> Findings = lintSource("src/hw/Tcam.cpp", Source);
  ASSERT_EQ(Findings.size(), 1u);
  EXPECT_EQ(Findings[0].RuleId, "hot-path-io");
}

//===----------------------------------------------------------------------===//
// Report renderers
//===----------------------------------------------------------------------===//

TEST(LintReport, TextJsonSarifAgreeOnFindings) {
  std::vector<Finding> Findings =
      lintFixture("r1_violate.cpp", "src/core/r1_violate.cpp");
  ASSERT_FALSE(Findings.empty());

  std::string Text = renderText(Findings);
  EXPECT_NE(Text.find("src/core/r1_violate.cpp:"), std::string::npos);

  std::string Json = renderJson(Findings);
  EXPECT_NE(Json.find("\"rule\": \"counter-arithmetic\""),
            std::string::npos);

  std::string Sarif = renderSarif(Findings);
  EXPECT_NE(Sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(Sarif.find("\"ruleId\": \"counter-arithmetic\""),
            std::string::npos);
  // Every registered rule is described in the SARIF driver metadata.
  for (const RuleInfo &R : allRules())
    EXPECT_NE(Sarif.find(R.Id), std::string::npos) << R.Id;
}

TEST(LintReport, EmptyFindingsRenderAsEmptyCollections) {
  std::vector<Finding> None;
  EXPECT_EQ(renderText(None), "");
  EXPECT_EQ(renderJson(None), "[\n]\n");
  EXPECT_NE(renderSarif(None).find("\"results\": [\n    ]"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Baselines (--baseline): grandfathered findings warn, fresh ones fail
//===----------------------------------------------------------------------===//

namespace {

Finding finding(const char *Rule, const char *Path, unsigned Line,
                const char *Message) {
  Finding F;
  F.RuleId = Rule;
  F.Path = Path;
  F.Line = Line;
  F.Message = Message;
  return F;
}

} // namespace

TEST(LintBaseline, ExactMatchIsGrandfathered) {
  std::vector<Finding> Findings = {
      finding("counter-arithmetic", "src/core/a.cpp", 10, "raw add")};
  BaselineSplit Split =
      applyBaseline(Findings, renderText(Findings));
  EXPECT_TRUE(Split.Fresh.empty());
  ASSERT_EQ(Split.Grandfathered.size(), 1u);
}

TEST(LintBaseline, MatchingIgnoresLineNumbers) {
  // Edits above a grandfathered finding shift its line; it must stay
  // grandfathered on (path, rule, message) alone.
  std::vector<Finding> Old = {
      finding("counter-arithmetic", "src/core/a.cpp", 10, "raw add")};
  std::vector<Finding> Now = {
      finding("counter-arithmetic", "src/core/a.cpp", 42, "raw add")};
  BaselineSplit Split = applyBaseline(Now, renderText(Old));
  EXPECT_TRUE(Split.Fresh.empty());
  EXPECT_EQ(Split.Grandfathered.size(), 1u);
}

TEST(LintBaseline, SecondIdenticalViolationIsFresh) {
  // The baseline budget is a multiset: one grandfathered slot covers
  // one finding, not every future copy of it.
  std::vector<Finding> Old = {
      finding("counter-arithmetic", "src/core/a.cpp", 10, "raw add")};
  std::vector<Finding> Now = {
      finding("counter-arithmetic", "src/core/a.cpp", 10, "raw add"),
      finding("counter-arithmetic", "src/core/a.cpp", 90, "raw add")};
  BaselineSplit Split = applyBaseline(Now, renderText(Old));
  EXPECT_EQ(Split.Grandfathered.size(), 1u);
  ASSERT_EQ(Split.Fresh.size(), 1u);
}

TEST(LintBaseline, DifferentRuleOrPathIsFresh) {
  std::vector<Finding> Old = {
      finding("counter-arithmetic", "src/core/a.cpp", 10, "raw add")};
  std::vector<Finding> Now = {
      finding("hot-path-io", "src/core/a.cpp", 10, "raw add"),
      finding("counter-arithmetic", "src/core/b.cpp", 10, "raw add")};
  BaselineSplit Split = applyBaseline(Now, renderText(Old));
  EXPECT_TRUE(Split.Grandfathered.empty());
  EXPECT_EQ(Split.Fresh.size(), 2u);
}

TEST(LintBaseline, CommentsAndMalformedLinesNeverGrandfather) {
  std::vector<Finding> Now = {
      finding("counter-arithmetic", "src/core/a.cpp", 10, "raw add")};
  std::string Baseline = "# lint baseline, regenerate with ci.sh\n"
                         "\n"
                         "not a finding line\n";
  BaselineSplit Split = applyBaseline(Now, Baseline);
  EXPECT_TRUE(Split.Grandfathered.empty());
  EXPECT_EQ(Split.Fresh.size(), 1u);
}

TEST(LintBaseline, EmptyBaselinePassesEverythingThroughFresh) {
  std::vector<Finding> Now = {
      finding("counter-arithmetic", "src/core/a.cpp", 10, "raw add")};
  BaselineSplit Split = applyBaseline(Now, "");
  EXPECT_TRUE(Split.Grandfathered.empty());
  EXPECT_EQ(Split.Fresh.size(), 1u);
}

TEST(LintBaseline, UnmatchedEntryIsReportedStale) {
  // A baseline line whose finding was fixed must surface as stale —
  // silently ignoring it would leave a slot that grandfathers the
  // next regression with the same message.
  std::vector<Finding> Old = {
      finding("counter-arithmetic", "src/core/a.cpp", 10, "raw add"),
      finding("hot-path-io", "src/core/RapTree.cpp", 20, "printf")};
  std::vector<Finding> Now = {
      finding("counter-arithmetic", "src/core/a.cpp", 10, "raw add")};
  BaselineSplit Split = applyBaseline(Now, renderText(Old));
  EXPECT_EQ(Split.Grandfathered.size(), 1u);
  EXPECT_TRUE(Split.Fresh.empty());
  ASSERT_EQ(Split.Stale.size(), 1u);
  EXPECT_EQ(Split.Stale[0], "src/core/RapTree.cpp: [hot-path-io] printf");
}

TEST(LintBaseline, ExcessBudgetCopiesAreStale) {
  // Two baselined copies, one surviving finding: exactly one stale.
  std::vector<Finding> Old = {
      finding("counter-arithmetic", "src/core/a.cpp", 10, "raw add"),
      finding("counter-arithmetic", "src/core/a.cpp", 30, "raw add")};
  std::vector<Finding> Now = {
      finding("counter-arithmetic", "src/core/a.cpp", 10, "raw add")};
  BaselineSplit Split = applyBaseline(Now, renderText(Old));
  EXPECT_EQ(Split.Grandfathered.size(), 1u);
  EXPECT_EQ(Split.Stale.size(), 1u);
}

TEST(LintBaseline, FullyMatchedBaselineHasNoStaleEntries) {
  std::vector<Finding> Findings = {
      finding("counter-arithmetic", "src/core/a.cpp", 10, "raw add")};
  BaselineSplit Split = applyBaseline(Findings, renderText(Findings));
  EXPECT_TRUE(Split.Stale.empty());
}

TEST(LintBaseline, CommentsAreNeverStale) {
  // Comment and blank lines carry no budget, so they cannot go stale.
  BaselineSplit Split =
      applyBaseline({}, "# header comment\n\n# another\n");
  EXPECT_TRUE(Split.Stale.empty());
  EXPECT_TRUE(Split.Fresh.empty());
}

//===----------------------------------------------------------------------===//
// Registry coverage: every emitted rule id must be explainable
//===----------------------------------------------------------------------===//

TEST(LintRegistry, RuleIdsAreUniqueAndExplainable) {
  std::set<std::string> Seen;
  for (const RuleInfo &R : allRules()) {
    EXPECT_TRUE(Seen.insert(R.Id).second) << "duplicate rule id " << R.Id;
    EXPECT_NE(std::string(R.Summary), "") << R.Id;
    EXPECT_NE(std::string(R.Explanation), "") << R.Id;
  }
  // The v1 token rules, the v2 flow rules and the API audit, and
  // nothing else (docs/STATIC_ANALYSIS.md).
  const std::set<std::string> Catalog = {
      "counter-arithmetic", "capi-exception-tight", "nondeterminism",
      "hot-path-io",        "include-guard",        "unchecked-status",
      "use-after-move",     "counter-escape",       "api-odr",
      "api-capi-coverage",  "api-include-drift"};
  EXPECT_EQ(Seen, Catalog);
}

TEST(LintRegistry, EveryEmittedRuleIdHasARegistryEntry) {
  // Drive each module's reporting path on its violating fixtures and
  // check the produced ids against the registry: a rule that can emit
  // but is not listed would reject its own allow() marker as
  // unknown-rule and be invisible to --explain.
  std::set<std::string> Known;
  for (const RuleInfo &R : allRules())
    Known.insert(R.Id);

  std::vector<Finding> All;
  auto Add = [&All](const std::vector<Finding> &F) {
    All.insert(All.end(), F.begin(), F.end());
  };
  for (const GoldenCase &C : GoldenCases)
    Add(lintFixture(C.Fixture, C.VirtualPath));
  for (const char *Flow : {"src/trace/f1_unchecked_violate.cpp",
                           "src/support/f2_move_violate.cpp",
                           "src/core/f3_escape_violate.cpp"}) {
    std::string Path = Flow;
    Add(lintFixture(Path.substr(Path.rfind('/') + 1), Path));
  }
  Add(runApiAudit({{"src/core/Odr.h", "int f() { return 1; }\n"}}));

  ASSERT_FALSE(All.empty());
  std::set<std::string> Emitted;
  for (const Finding &F : All) {
    Emitted.insert(F.RuleId);
    EXPECT_TRUE(Known.count(F.RuleId))
        << F.RuleId << " emitted but absent from allRules()";
  }
  // Every fixture family reached its rule (all but the two api-audit
  // rules no fixture here drives).
  EXPECT_EQ(Emitted.size(), 9u);
}
