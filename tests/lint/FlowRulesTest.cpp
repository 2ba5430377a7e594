//===- tests/lint/FlowRulesTest.cpp - Flow-aware rule tests --------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
// The three CFG/dataflow rules each get a violating fixture pinned to
// a golden findings file and a clean twin that must stay silent. The
// violating fixtures deliberately include the failure modes the rules
// were built for.
//
//===----------------------------------------------------------------------===//

#include "lint/Lexer.h"
#include "lint/Lint.h"
#include "lint/Parser.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace rap::lint;

namespace {

std::string readFixture(const std::string &Name) {
  std::ifstream In(std::string(RAP_LINT_FIXTURE_DIR) + "/" + Name,
                   std::ios::binary);
  EXPECT_TRUE(In.good()) << "missing fixture " << Name;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<Finding> lintFixture(const std::string &Name,
                                 const std::string &VirtualPath) {
  return lintSource(VirtualPath, readFixture(Name));
}

struct FlowCase {
  const char *Fixture;
  const char *VirtualDir; ///< counter-escape only runs under src/core.
  const char *RuleId;
};

const FlowCase FlowCases[] = {
    {"f1_unchecked", "src/trace", "unchecked-status"},
    {"f2_move", "src/support", "use-after-move"},
    {"f3_escape", "src/core", "counter-escape"},
};

} // namespace

TEST(FlowRules, ViolatingFixturesMatchGoldenFindings) {
  for (const FlowCase &C : FlowCases) {
    std::string Fixture = std::string(C.Fixture) + "_violate.cpp";
    std::string Virtual = std::string(C.VirtualDir) + "/" + Fixture;
    std::vector<Finding> Findings = lintFixture(Fixture, Virtual);
    EXPECT_FALSE(Findings.empty())
        << Fixture << ": rule produced no findings";
    for (const Finding &F : Findings)
      EXPECT_EQ(F.RuleId, C.RuleId) << Fixture;
    EXPECT_EQ(renderText(Findings), readFixture(Fixture + ".expected"))
        << Fixture << ": findings diverge from the golden file; if the "
        << "change is intended, update fixtures/" << Fixture
        << ".expected to the rendered text above";
  }
}

TEST(FlowRules, CleanTwinsProduceNoFindings) {
  for (const FlowCase &C : FlowCases) {
    std::string Fixture = std::string(C.Fixture) + "_clean.cpp";
    std::string Virtual = std::string(C.VirtualDir) + "/" + Fixture;
    std::vector<Finding> Findings = lintFixture(Fixture, Virtual);
    EXPECT_TRUE(Findings.empty())
        << Fixture << ":\n" << renderText(Findings);
  }
}

TEST(FlowRules, CounterEscapeOnlyRunsUnderCore) {
  // The same source that trips counter-escape in src/core is exempt
  // elsewhere: only core code handles saturating event counters.
  std::string Body = readFixture("f3_escape_violate.cpp");
  EXPECT_FALSE(lintSource("src/core/x.cpp", Body).empty());
  EXPECT_TRUE(lintSource("tools/x.cpp", Body).empty());
}

TEST(FlowRules, SuppressionAppliesToFlowRules) {
  std::string Source =
      "void sink(int);\n"
      "bool tryOpen(int);\n"
      "void f(int fd) {\n"
      "  tryOpen(fd); // rap-lint: allow(unchecked-status)\n"
      "}\n";
  EXPECT_TRUE(lintSource("src/trace/x.cpp", Source).empty());
}

TEST(FlowRules, SnapshotAndRestoreApisAreStatusNames) {
  // The crash-safety surface returns bool/status codes whose silent
  // loss is exactly the torn-write bug class: snapshot, restore,
  // recover, and configure prefixes must all count as status names.
  std::string Source = "bool snapshotTree(int);\n"
                       "bool restoreTree(int);\n"
                       "bool recoverFromDisk(int);\n"
                       "bool configureFailpoints(int);\n"
                       "void f(int x) {\n"
                       "  snapshotTree(x);\n"
                       "  restoreTree(x);\n"
                       "  recoverFromDisk(x);\n"
                       "  configureFailpoints(x);\n"
                       "}\n";
  std::vector<Finding> Findings = lintSource("src/core/x.cpp", Source);
  ASSERT_EQ(Findings.size(), 4u) << renderText(Findings);
  for (const Finding &F : Findings)
    EXPECT_EQ(F.RuleId, "unchecked-status");
}

TEST(FlowRules, StatusFunctionsFromContextAreHonored) {
  // Cross-file knowledge: the driver prescans headers and passes the
  // status functions in via LintContext; the callee needs no local
  // declaration.
  LintContext Ctx;
  Ctx.StatusFunctions.insert("tryRemoteFlush");
  std::string Source = "void f(int fd) { tryRemoteFlush(fd); }\n";
  std::vector<Finding> Findings =
      lintSource("src/trace/x.cpp", Source, Ctx);
  ASSERT_EQ(Findings.size(), 1u);
  EXPECT_EQ(Findings[0].RuleId, "unchecked-status");
}
