//===- tests/lint/DataflowTest.cpp - Worklist solver stress tests --------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
// The forward solver underpins every flow rule, so its convergence
// on ugly graphs is load-bearing. These tests target the shapes reducible-
// loop intuition gets wrong: goto jumping into the middle of a loop
// body (two loop entries — an irreducible region), switch
// fallthrough chains inside loops, and goto-formed back edges. Each
// case checks the union (may) join at a probe statement: it should
// see facts from ANY inbound path, and the worklist must reach a
// fixed point.
//
// The transfer function is a deliberately tiny gen/kill scheme over
// the probe sources: a call to set_a() generates fact "a", clr_a()
// kills it. That keeps the lattice transparent so the assertions are
// about the solver, not about any particular rule's semantics.
//
//===----------------------------------------------------------------------===//

#include "lint/Cfg.h"
#include "lint/Dataflow.h"
#include "lint/Lexer.h"
#include "lint/Parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace rap::lint;

namespace {

struct Built {
  LexedSource Lexed;
  ParsedFile Parsed;
  Cfg G;
};

Built build(const std::string &Source) {
  Built B;
  B.Lexed = lex(Source);
  B.Parsed = parseFile(B.Lexed);
  EXPECT_FALSE(B.Parsed.Functions.empty());
  B.G = buildCfg(*B.Parsed.Functions.front());
  return B;
}

/// set_<x>() generates fact "x"; clr_<x>() kills it.
DataflowResult solve(const Built &B) {
  const std::vector<Token> &T = B.Lexed.Tokens;
  return solveForward(
      B.G, {},
      [&T](const BasicBlock &Blk, FactSet In) {
        for (const Action &A : Blk.Actions)
          for (size_t I = A.Begin; I < A.End; ++I) {
            if (T[I].TokenKind != Token::Kind::Identifier)
              continue;
            if (T[I].Text.rfind("set_", 0) == 0)
              In.insert(T[I].Text.substr(4));
            else if (T[I].Text.rfind("clr_", 0) == 0)
              In.erase(T[I].Text.substr(4));
          }
        return In;
      });
}

/// Id of the (unique) reachable block whose actions mention \p Ident.
size_t probeBlock(const Built &B, const DataflowResult &R,
                  const std::string &Ident) {
  size_t Found = Cfg::Exit;
  int Hits = 0;
  for (const BasicBlock &Blk : B.G.Blocks)
    for (const Action &A : Blk.Actions)
      for (size_t I = A.Begin; I < A.End; ++I)
        if (B.Lexed.Tokens[I].TokenKind == Token::Kind::Identifier &&
            B.Lexed.Tokens[I].Text == Ident) {
          Found = Blk.Id;
          ++Hits;
          I = A.End;
        }
  EXPECT_EQ(Hits, 1) << "probe '" << Ident << "' not unique";
  EXPECT_TRUE(R.Reached[Found]) << "probe '" << Ident << "' unreached";
  return Found;
}

} // namespace

TEST(Dataflow, GotoIntoLoopBodyJoinsBothEntries) {
  // The goto enters the while body without passing set_a, making the
  // loop irreducible: the labelled block has the goto edge, the
  // loop-header edge, and the iteration back edge as predecessors.
  Built B = build("void f(int n) {\n"
                  "  if (n > 9) goto inside;\n"
                  "  set_a();\n"
                  "  while (n > 0) {\n"
                  "  inside:\n"
                  "    probe();\n"
                  "    --n;\n"
                  "  }\n"
                  "}\n");
  DataflowResult May = solve(B);
  size_t P = probeBlock(B, May, "probe");
  EXPECT_EQ(May.EntryState[P].count("a"), 1u)
      << "union join must keep facts arriving via the normal entry";
}

TEST(Dataflow, SwitchFallthroughCycleConverges) {
  // case 0 falls through into case 1, the default arm kills the
  // fact, and the whole switch sits inside a loop — so the
  // fallthrough chain participates in a cycle through the loop back
  // edge. The probe in case 1 is reachable both with the fact (via
  // the case-0 fallthrough) and without it (direct dispatch).
  Built B = build("void g(int n) {\n"
                  "  while (n > 0) {\n"
                  "    switch (n & 3) {\n"
                  "    case 0:\n"
                  "      set_a();\n"
                  "    case 1:\n"
                  "      probe();\n"
                  "      break;\n"
                  "    default:\n"
                  "      clr_a();\n"
                  "      break;\n"
                  "    }\n"
                  "    --n;\n"
                  "  }\n"
                  "}\n");
  DataflowResult May = solve(B);
  size_t P = probeBlock(B, May, "probe");
  EXPECT_EQ(May.EntryState[P].count("a"), 1u)
      << "fallthrough edge from case 0 must feed case 1";
}

TEST(Dataflow, GotoBackEdgePropagatesAroundCycle) {
  // A loop formed purely by goto: on the second trip through the
  // label the fact generated later in the body has wrapped around,
  // so may-analysis sees it at the probe (though the first trip
  // arrives without it).
  Built B = build("void h(int n) {\n"
                  "top:\n"
                  "  probe();\n"
                  "  set_a();\n"
                  "  if (n-- > 0) goto top;\n"
                  "}\n");
  DataflowResult May = solve(B);
  size_t P = probeBlock(B, May, "probe");
  EXPECT_EQ(May.EntryState[P].count("a"), 1u)
      << "fact must ride the goto back edge to the label";
}

TEST(Dataflow, KillInsideLoopDrainsMustFactAtExit) {
  // clr_a on the loop body makes the fact path-dependent after the
  // loop: zero iterations keep it, one or more kill it. The may-join
  // at the post-loop probe keeps it.
  Built B = build("void m(int n) {\n"
                  "  set_a();\n"
                  "  while (n > 0) {\n"
                  "    clr_a();\n"
                  "    --n;\n"
                  "  }\n"
                  "  probe();\n"
                  "}\n");
  DataflowResult May = solve(B);
  size_t P = probeBlock(B, May, "probe");
  EXPECT_EQ(May.EntryState[P].count("a"), 1u);
}

TEST(Dataflow, UnreachableBlocksStayUnreached) {
  // Dead code after an unconditional return must not contribute to
  // any join — Reached is the contract the concurrency pass relies
  // on when it skips unreached blocks.
  Built B = build("int q(int n) {\n"
                  "  set_a();\n"
                  "  return n;\n"
                  "  clr_a();\n"
                  "}\n");
  DataflowResult May = solve(B);
  bool SawUnreached = false;
  for (const BasicBlock &Blk : B.G.Blocks)
    for (const Action &A : Blk.Actions)
      for (size_t I = A.Begin; I < A.End; ++I)
        if (B.Lexed.Tokens[I].Text == "clr_a") {
          SawUnreached = true;
          EXPECT_FALSE(May.Reached[Blk.Id])
              << "code after return leaked into the reachable region";
        }
  EXPECT_TRUE(SawUnreached) << "fixture lost its dead statement";
  EXPECT_TRUE(May.Reached[Cfg::Exit]);
}
