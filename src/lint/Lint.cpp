//===- lint/Lint.cpp - RAP-specific static-analysis rules ----------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include "lint/ApiAudit.h"
#include "lint/FlowRules.h"
#include "lint/Lexer.h"
#include "lint/Parser.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

using namespace rap;
using namespace rap::lint;

namespace {

//===----------------------------------------------------------------------===//
// File classification
//===----------------------------------------------------------------------===//

/// What a repo-relative path is, for rule applicability.
struct FileClass {
  bool InCore = false;     ///< src/core/
  bool InDetSubsys = false; ///< src/core/, src/hw/, src/verify/
  bool IsHotPath = false;  ///< RapTree.*, PipelinedEngine.*, Tcam.*
  bool IsHeader = false;   ///< *.h
  bool IsPublicHeader = false; ///< *.h under src/
  bool IsRngHeader = false; ///< support/Rng.h, the one sanctioned source
};

bool hasPrefix(const std::string &S, const char *Prefix) {
  return S.rfind(Prefix, 0) == 0;
}

bool hasSuffix(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

/// Path stem: "src/core/RapTree.cpp" -> "RapTree".
std::string stemOf(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Base = Slash == std::string::npos ? Path : Path.substr(Slash + 1);
  size_t Dot = Base.find_last_of('.');
  return Dot == std::string::npos ? Base : Base.substr(0, Dot);
}

FileClass classify(const std::string &Path) {
  FileClass FC;
  FC.InCore = hasPrefix(Path, "src/core/");
  FC.InDetSubsys = FC.InCore || hasPrefix(Path, "src/hw/") ||
                   hasPrefix(Path, "src/verify/");
  std::string Stem = stemOf(Path);
  FC.IsHotPath =
      Stem == "RapTree" || Stem == "PipelinedEngine" || Stem == "Tcam";
  FC.IsHeader = hasSuffix(Path, ".h");
  FC.IsPublicHeader = FC.IsHeader && hasPrefix(Path, "src/");
  FC.IsRngHeader = hasSuffix(Path, "support/Rng.h");
  return FC;
}

//===----------------------------------------------------------------------===//
// Shared token helpers
//===----------------------------------------------------------------------===//

bool isIdent(const Token &T, const char *Name) {
  return T.TokenKind == Token::Kind::Identifier && T.Text == Name;
}

bool isPunct(const Token &T, const char *Spelling) {
  return T.TokenKind == Token::Kind::Punct && T.Text == Spelling;
}

//===----------------------------------------------------------------------===//
// counter-arithmetic (R1)
//===----------------------------------------------------------------------===//

/// Event-weight counter fields: everything in core/ that accumulates
/// stream weight, where a wrap would silently break the monotone
/// lower-bound guarantee. Structural statistics (NumNodes, NumSplits,
/// ...) are bounded by memory and exempt.
const std::set<std::string> &counterFields() {
  static const std::set<std::string> Fields = {
      "Count",     "TotalCount", "Weight",            "SubtreeWeight",
      "ExclusiveWeight", "NumEvents",  "NumOffered", "NodeCountIntegral"};
  return Fields;
}

void runCounterArithmetic(const std::string &Path, const LexedSource &Src,
                          std::vector<Finding> &Out) {
  const std::vector<Token> &Toks = Src.Tokens;
  auto Flag = [&](const Token &At, const std::string &Field,
                  const std::string &Op) {
    Out.push_back(
        {"counter-arithmetic", Path, At.Line,
         "raw '" + Op + "' on counter field '" + Field +
             "'; use the saturating helpers in support/BitUtils.h so the "
             "count clamps at 2^64-1 instead of wrapping"});
  };
  for (size_t I = 0; I != Toks.size(); ++I) {
    const Token &T = Toks[I];
    if (T.TokenKind != Token::Kind::Punct)
      continue;
    bool Compound = T.Text == "+=" || T.Text == "-=";
    bool IncDec = T.Text == "++" || T.Text == "--";
    if (!Compound && !IncDec)
      continue;
    // Postfix / compound: the field is the identifier right before the
    // operator (the tail of any member-access chain).
    if (I > 0 && Toks[I - 1].TokenKind == Token::Kind::Identifier &&
        counterFields().count(Toks[I - 1].Text)) {
      Flag(T, Toks[I - 1].Text, T.Text);
      continue;
    }
    // Prefix ++/--: walk the following chain of identifiers joined by
    // :: . -> and test its final component.
    if (IncDec) {
      size_t J = I + 1;
      std::string Last;
      while (J < Toks.size()) {
        if (Toks[J].TokenKind == Token::Kind::Identifier) {
          Last = Toks[J].Text;
          ++J;
          continue;
        }
        if (isPunct(Toks[J], "::") || isPunct(Toks[J], ".") ||
            isPunct(Toks[J], "->")) {
          ++J;
          continue;
        }
        break;
      }
      if (!Last.empty() && counterFields().count(Last))
        Flag(T, Last, T.Text);
    }
  }
}

//===----------------------------------------------------------------------===//
// capi-exception-tight (R2)
//===----------------------------------------------------------------------===//

/// Finds the index of the matching closer for the opener at \p Open
/// (whose text is \p OpenText / \p CloseText), or Toks.size().
size_t matchDelim(const std::vector<Token> &Toks, size_t Open,
                  const char *OpenText, const char *CloseText) {
  unsigned Depth = 0;
  for (size_t I = Open; I < Toks.size(); ++I) {
    if (isPunct(Toks[I], OpenText))
      ++Depth;
    else if (isPunct(Toks[I], CloseText) && --Depth == 0)
      return I;
  }
  return Toks.size();
}

/// Checks the extern "C" function whose tokens start at \p Begin
/// (just past the linkage specifier). Appends a finding if it is a
/// definition that is neither noexcept nor whole-body try/catch(...).
/// Returns the index just past the construct.
size_t checkExternCFunction(const std::string &Path,
                            const std::vector<Token> &Toks, size_t Begin,
                            std::vector<Finding> &Out) {
  // Find the parameter list: the first '(' before any ';' or '{'.
  size_t Paren = Begin;
  while (Paren < Toks.size() && !isPunct(Toks[Paren], "(") &&
         !isPunct(Toks[Paren], ";") && !isPunct(Toks[Paren], "{"))
    ++Paren;
  if (Paren >= Toks.size() || !isPunct(Toks[Paren], "("))
    return Paren + 1; // Not a function; a variable or odd construct.

  std::string Name;
  unsigned NameLine = Toks[Paren].Line;
  if (Paren > Begin && Toks[Paren - 1].TokenKind == Token::Kind::Identifier) {
    Name = Toks[Paren - 1].Text;
    NameLine = Toks[Paren - 1].Line;
  }

  size_t CloseParen = matchDelim(Toks, Paren, "(", ")");
  // Scan the trailing specifiers for noexcept until the body or ';'.
  bool Noexcept = false;
  size_t I = CloseParen + 1;
  while (I < Toks.size() && !isPunct(Toks[I], "{") && !isPunct(Toks[I], ";")) {
    if (isIdent(Toks[I], "noexcept"))
      Noexcept = true;
    ++I;
  }
  if (I >= Toks.size() || isPunct(Toks[I], ";"))
    return I + 1; // Declaration only; nothing can escape from it.

  size_t BodyOpen = I;
  size_t BodyClose = matchDelim(Toks, BodyOpen, "{", "}");
  if (Noexcept)
    return BodyClose + 1;

  // Whole-body try/catch(...): first statement is `try`, and a
  // catch-all handler exists in the function.
  bool BodyIsTry =
      BodyOpen + 1 < Toks.size() && isIdent(Toks[BodyOpen + 1], "try");
  bool HasCatchAll = false;
  for (size_t J = BodyOpen; J < BodyClose && J + 2 < Toks.size(); ++J)
    if (isIdent(Toks[J], "catch") && isPunct(Toks[J + 1], "(") &&
        isPunct(Toks[J + 2], "..."))
      HasCatchAll = true;
  if (!(BodyIsTry && HasCatchAll))
    Out.push_back(
        {"capi-exception-tight", Path, NameLine,
         "extern \"C\" function '" + (Name.empty() ? "<unnamed>" : Name) +
             "' is not exception-tight: mark it noexcept or wrap the whole "
             "body in try/catch(...) returning an error code; an exception "
             "crossing the C boundary is undefined behavior"});
  return BodyClose + 1;
}

void runCApiExceptionTight(const std::string &Path, const LexedSource &Src,
                           std::vector<Finding> &Out) {
  const std::vector<Token> &Toks = Src.Tokens;
  for (size_t I = 0; I + 1 < Toks.size(); ++I) {
    if (!isIdent(Toks[I], "extern") ||
        Toks[I + 1].TokenKind != Token::Kind::String ||
        Toks[I + 1].Text != "C")
      continue;
    if (I + 2 < Toks.size() && isPunct(Toks[I + 2], "{")) {
      // extern "C" { ... }: check every function inside the block.
      size_t End = matchDelim(Toks, I + 2, "{", "}");
      size_t J = I + 3;
      while (J < End)
        J = checkExternCFunction(Path, Toks, J, Out);
      I = End;
    } else {
      checkExternCFunction(Path, Toks, I + 2, Out);
    }
  }
}

//===----------------------------------------------------------------------===//
// nondeterminism (R3)
//===----------------------------------------------------------------------===//

void runNondeterminism(const std::string &Path, const LexedSource &Src,
                       std::vector<Finding> &Out) {
  static const std::set<std::string> BannedIdents = {
      "rand",          "srand",
      "rand_r",        "random",
      "drand48",       "random_device",
      "mt19937",       "mt19937_64",
      "minstd_rand",   "default_random_engine",
      "system_clock",  "steady_clock",
      "high_resolution_clock", "gettimeofday",
      "clock_gettime", "timespec_get"};
  static const std::set<std::string> BannedCalls = {"time", "clock"};
  static const std::set<std::string> BannedIncludes = {
      "#include <random>", "#include <chrono>", "#include <ctime>",
      "#include <time.h>"};

  const std::vector<Token> &Toks = Src.Tokens;
  for (size_t I = 0; I != Toks.size(); ++I) {
    const Token &T = Toks[I];
    if (T.TokenKind == Token::Kind::Directive) {
      if (BannedIncludes.count(T.Text))
        Out.push_back({"nondeterminism", Path, T.Line,
                       "'" + T.Text +
                           "' in a deterministic subsystem; all randomness "
                           "and time must come from support/Rng.h seeds so "
                           "runs replay bit-identically"});
      continue;
    }
    if (T.TokenKind != Token::Kind::Identifier)
      continue;
    bool Banned = BannedIdents.count(T.Text) != 0;
    if (!Banned && BannedCalls.count(T.Text) && I + 1 < Toks.size() &&
        isPunct(Toks[I + 1], "("))
      Banned = true;
    if (Banned)
      Out.push_back({"nondeterminism", Path, T.Line,
                     "nondeterminism source '" + T.Text +
                         "'; use rap::Rng (support/Rng.h) with an explicit "
                         "seed so the differential oracle can replay the "
                         "exact stream"});
  }
}

//===----------------------------------------------------------------------===//
// hot-path-io (R4)
//===----------------------------------------------------------------------===//

void runHotPathIo(const std::string &Path, const LexedSource &Src,
                  std::vector<Finding> &Out) {
  // snprintf/vsnprintf format into caller buffers and stay exempt; the
  // banned set is stream/terminal IO that stalls the per-event path.
  static const std::set<std::string> BannedIdents = {
      "cout", "cerr",  "clog",    "printf", "fprintf",
      "puts", "fputs", "putchar", "fputc",  "scanf"};

  for (const Token &T : Src.Tokens) {
    if (T.TokenKind == Token::Kind::Directive) {
      if (T.Text == "#include <iostream>" || T.Text == "#include <stdio.h>")
        Out.push_back({"hot-path-io", Path, T.Line,
                       "'" + T.Text +
                           "' in a per-event hot-path file; format into "
                           "caller-provided buffers/streams outside the "
                           "update path instead"});
      continue;
    }
    if (T.TokenKind == Token::Kind::Identifier && BannedIdents.count(T.Text))
      Out.push_back({"hot-path-io", Path, T.Line,
                     "stdio in per-event hot path ('" + T.Text +
                         "'); the paper's engine sustains one event per "
                         "cycle — IO belongs in callers or dump paths"});
  }
}

//===----------------------------------------------------------------------===//
// include-guard (R5)
//===----------------------------------------------------------------------===//

/// "src/core/RapTree.h" -> "RAP_CORE_RAPTREE_H".
std::string expectedGuard(const std::string &Path) {
  std::string Rel = Path;
  if (hasPrefix(Rel, "src/"))
    Rel = Rel.substr(4);
  std::string Guard = "RAP_";
  for (char C : Rel) {
    if (C == '/')
      Guard += '_';
    else if (C == '.')
      break;
    else
      Guard += static_cast<char>(
          std::toupper(static_cast<unsigned char>(C)));
  }
  return Guard + "_H";
}

void runIncludeGuard(const std::string &Path, const LexedSource &Src,
                     std::vector<Finding> &Out) {
  std::string Want = expectedGuard(Path);
  const std::vector<Token> &Toks = Src.Tokens;
  auto Fail = [&](unsigned Line, const std::string &Detail) {
    Out.push_back({"include-guard", Path, Line,
                   Detail + " (expected guard '" + Want +
                       "'; see docs/STATIC_ANALYSIS.md)"});
  };
  if (Toks.empty()) {
    Fail(1, "empty header");
    return;
  }
  for (const Token &T : Toks)
    if (T.TokenKind == Token::Kind::Directive && T.Text == "#pragma once") {
      Fail(T.Line, "#pragma once instead of the canonical include guard");
      return;
    }
  const Token &First = Toks.front();
  if (First.TokenKind != Token::Kind::Directive ||
      First.Text != "#ifndef " + Want) {
    Fail(First.Line, "header does not open with its include guard");
    return;
  }
  if (Toks.size() < 2 || Toks[1].TokenKind != Token::Kind::Directive ||
      Toks[1].Text != "#define " + Want) {
    Fail(First.Line, "#ifndef is not followed by the matching #define");
    return;
  }
  const Token &Last = Toks.back();
  if (Last.TokenKind != Token::Kind::Directive ||
      !hasPrefix(Last.Text, "#endif"))
    Fail(Last.Line, "header does not close with #endif");
}

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

bool isKnownRule(const std::string &Id) {
  for (const RuleInfo &R : allRules())
    if (Id == R.Id)
      return true;
  return false;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace

/// The five token-level rules implemented in this file.
const std::vector<RuleInfo> &tokenRuleInfos() {
  static const std::vector<RuleInfo> Rules = {
      {"counter-arithmetic",
       "core/ event-weight counters must use the saturating helpers in "
       "support/BitUtils.h, never raw +=/++/--",
       "The paper's eps*n accuracy bound is an inequality over exact event "
       "counts. A uint64_t wrap silently turns a huge count into a small "
       "one, and every range estimate derived from it goes wrong with no "
       "error signal. The saturating helpers clamp at 2^64-1, which keeps "
       "the estimate a valid lower bound. Fix: X = saturatingAdd(X, W). "
       "Structural statistics bounded by memory (NumNodes, ...) are "
       "exempt by name; token-level rule, src/core/ only."},
      {"capi-exception-tight",
       "extern \"C\" functions must be noexcept or whole-body "
       "try/catch(...) returning an error code",
       "A C++ exception unwinding through a C caller is undefined "
       "behavior. Every extern \"C\" entry point must either be noexcept "
       "(terminate is defined behavior) or catch everything and translate "
       "to an error code. Fix: wrap the whole body in try/catch(...) and "
       "return RAP_ERR, or add noexcept."},
      {"nondeterminism",
       "core/, hw/ and verify/ must draw randomness and time only from "
       "support/Rng.h with explicit seeds",
       "The differential oracle replays recorded streams and expects "
       "bit-identical results. Any rand()/clock()/random_device call "
       "makes a run irreproducible and a fuzz failure undebuggable. Fix: "
       "take a rap::Rng (or a seed) as a parameter."},
      {"hot-path-io",
       "per-event hot-path files (RapTree, PipelinedEngine, Tcam) must "
       "not use stdio/iostream",
       "The paper's engine sustains one event per cycle; a printf on the "
       "update path is a 10^4x stall and skews every benchmark in "
       "baselines/. Fix: format into caller-provided buffers, or move "
       "the IO to a dump/debug path outside the per-event files."},
      {"include-guard",
       "public headers under src/ carry the canonical RAP_<DIR>_<STEM>_H "
       "include guard",
       "Generated self-containment TUs and the api-audit include checks "
       "key on the canonical guard spelling; #pragma once is not "
       "portable to all shipped toolchains. Fix: open the header with "
       "#ifndef RAP_<DIR>_<STEM>_H / #define, close with #endif."},
  };
  return Rules;
}

const std::vector<RuleInfo> &rap::lint::allRules() {
  // Composed from the per-module registries (FlowRules.cpp,
  // ApiAudit.cpp) so a module cannot emit a rule id
  // that --list-rules, --explain and the allow()-marker validation do
  // not know about.
  static const std::vector<RuleInfo> Rules = [] {
    std::vector<RuleInfo> R = tokenRuleInfos();
    for (const std::vector<RuleInfo> *Part :
         {&flowRuleInfos(), &apiAuditRuleInfos()})
      R.insert(R.end(), Part->begin(), Part->end());
    return R;
  }();
  return Rules;
}

std::vector<Finding> rap::lint::lintSource(const std::string &Path,
                                           const std::string &Content) {
  return lintSource(Path, Content, LintContext());
}

std::vector<Finding> rap::lint::lintSource(const std::string &Path,
                                           const std::string &Content,
                                           const LintContext &Ctx) {
  LexedSource Src = lex(Content);
  FileClass FC = classify(Path);

  std::vector<Finding> Raw;
  if (FC.InCore)
    runCounterArithmetic(Path, Src, Raw);
  runCApiExceptionTight(Path, Src, Raw); // Triggered by extern "C" anywhere.
  if (FC.InDetSubsys && !FC.IsRngHeader)
    runNondeterminism(Path, Src, Raw);
  if (FC.IsHotPath)
    runHotPathIo(Path, Src, Raw);
  if (FC.IsPublicHeader)
    runIncludeGuard(Path, Src, Raw);

  // Flow-aware rules share one parse of the file.
  ParsedFile Parsed = parseFile(Src);
  runFlowRules(Path, Src, Parsed, Ctx, FC.InCore, Raw);

  std::vector<Finding> Out;
  for (Finding &F : Raw) {
    auto At = Src.AllowedRules.find(F.Line);
    if (At != Src.AllowedRules.end() && At->second.count(F.RuleId))
      continue;
    Out.push_back(std::move(F));
  }

  // Reject unknown rule names in allow() markers: a typo would
  // otherwise silently suppress nothing forever.
  for (const auto &[Line, Id] : Src.AllowMarkers)
    if (!isKnownRule(Id))
      Out.push_back({"unknown-rule", Path, Line,
                     "rap-lint: allow() names unknown rule '" + Id +
                         "'; known rules are listed by rap_lint "
                         "--list-rules"});

  std::sort(Out.begin(), Out.end(), [](const Finding &A, const Finding &B) {
    if (A.Line != B.Line)
      return A.Line < B.Line;
    return A.RuleId < B.RuleId;
  });
  return Out;
}

BaselineSplit rap::lint::applyBaseline(std::vector<Finding> Findings,
                                       const std::string &BaselineText) {
  // The baseline is saved renderText output; the key deliberately
  // drops the line number so grandfathered findings survive edits
  // elsewhere in the file. Multiset semantics: N baselined copies
  // grandfather at most N identical findings.
  std::map<std::string, unsigned> Budget;
  std::istringstream IS(BaselineText);
  std::string Line;
  while (std::getline(IS, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    // path:line: [rule] message
    size_t Bracket = Line.find(" [");
    size_t CloseBracket =
        Bracket == std::string::npos ? Bracket : Line.find("] ", Bracket);
    size_t FirstColon = Line.find(':');
    if (Bracket == std::string::npos || CloseBracket == std::string::npos ||
        FirstColon == std::string::npos || FirstColon > Bracket)
      continue; // Malformed line; never grandfather by accident.
    std::string Path = Line.substr(0, FirstColon);
    std::string Rule = Line.substr(Bracket + 2, CloseBracket - Bracket - 2);
    std::string Message = Line.substr(CloseBracket + 2);
    ++Budget[Path + "\x1f" + Rule + "\x1f" + Message];
  }

  BaselineSplit Split;
  for (Finding &F : Findings) {
    auto It = Budget.find(F.Path + "\x1f" + F.RuleId + "\x1f" + F.Message);
    if (It != Budget.end() && It->second > 0) {
      --It->second;
      Split.Grandfathered.push_back(std::move(F));
    } else {
      Split.Fresh.push_back(std::move(F));
    }
  }

  // Leftover budget is a stale entry: the finding it grandfathers no
  // longer exists. Surface each remaining copy so the driver can fail
  // the run until the baseline is pruned.
  for (const auto &[Key, Remaining] : Budget) {
    if (Remaining == 0)
      continue;
    size_t S1 = Key.find('\x1f');
    size_t S2 = Key.find('\x1f', S1 + 1);
    std::string Rendered = Key.substr(0, S1) + ": [" +
                           Key.substr(S1 + 1, S2 - S1 - 1) + "] " +
                           Key.substr(S2 + 1);
    for (unsigned I = 0; I != Remaining; ++I)
      Split.Stale.push_back(Rendered);
  }
  return Split;
}

std::string rap::lint::renderText(const std::vector<Finding> &Findings) {
  std::ostringstream OS;
  for (const Finding &F : Findings)
    OS << F.Path << ':' << F.Line << ": [" << F.RuleId << "] " << F.Message
       << '\n';
  return OS.str();
}

std::string rap::lint::renderJson(const std::vector<Finding> &Findings) {
  std::ostringstream OS;
  OS << "[\n";
  for (size_t I = 0; I != Findings.size(); ++I) {
    const Finding &F = Findings[I];
    OS << "  {\"rule\": \"" << jsonEscape(F.RuleId) << "\", \"path\": \""
       << jsonEscape(F.Path) << "\", \"line\": " << F.Line
       << ", \"message\": \"" << jsonEscape(F.Message) << "\"}"
       << (I + 1 == Findings.size() ? "\n" : ",\n");
  }
  OS << "]\n";
  return OS.str();
}

std::string rap::lint::renderSarif(const std::vector<Finding> &Findings) {
  std::ostringstream OS;
  OS << "{\n"
     << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [{\n"
     << "    \"tool\": {\"driver\": {\n"
     << "      \"name\": \"rap_lint\",\n"
     << "      \"informationUri\": \"docs/STATIC_ANALYSIS.md\",\n"
     << "      \"rules\": [\n";
  const std::vector<RuleInfo> &Rules = allRules();
  for (size_t I = 0; I != Rules.size(); ++I)
    OS << "        {\"id\": \"" << jsonEscape(Rules[I].Id)
       << "\", \"shortDescription\": {\"text\": \""
       << jsonEscape(Rules[I].Summary) << "\"}}"
       << (I + 1 == Rules.size() ? "\n" : ",\n");
  OS << "      ]\n"
     << "    }},\n"
     << "    \"results\": [\n";
  for (size_t I = 0; I != Findings.size(); ++I) {
    const Finding &F = Findings[I];
    OS << "      {\"ruleId\": \"" << jsonEscape(F.RuleId)
       << "\", \"level\": \"error\", \"message\": {\"text\": \""
       << jsonEscape(F.Message)
       << "\"}, \"locations\": [{\"physicalLocation\": "
          "{\"artifactLocation\": {\"uri\": \""
       << jsonEscape(F.Path) << "\"}, \"region\": {\"startLine\": " << F.Line
       << "}}}]}" << (I + 1 == Findings.size() ? "\n" : ",\n");
  }
  OS << "    ]\n"
     << "  }]\n"
     << "}\n";
  return OS.str();
}
