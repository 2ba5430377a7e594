//===- lint/FlowRules.cpp - Flow-aware rap_lint rules --------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lint/FlowRules.h"

#include "lint/Cfg.h"
#include "lint/Dataflow.h"

#include <cctype>
#include <set>
#include <string>
#include <vector>

using namespace rap;
using namespace rap::lint;

namespace {

bool isIdent(const Token &T, const char *Name) {
  return T.TokenKind == Token::Kind::Identifier && T.Text == Name;
}

bool isPunct(const Token &T, const char *Spelling) {
  return T.TokenKind == Token::Kind::Punct && T.Text == Spelling;
}

/// Mirrors the counter-arithmetic field list (Lint.cpp): event-weight
/// accumulators where a wrap breaks the monotone lower-bound argument.
const std::set<std::string> &counterFields() {
  static const std::set<std::string> Fields = {
      "Count",     "TotalCount", "Weight",            "SubtreeWeight",
      "ExclusiveWeight", "NumEvents",  "NumOffered", "NodeCountIntegral"};
  return Fields;
}

/// Accessors whose return value is a live counter.
const std::set<std::string> &counterGetters() {
  static const std::set<std::string> Getters = {
      "count", "numEvents", "subtreeWeight", "totalCount",
      "exclusiveWeight", "weight"};
  return Getters;
}

/// Functions whose result stays in the saturating-counter domain.
const std::set<std::string> &counterDomainFns() {
  static const std::set<std::string> Fns = {"saturatingAdd", "saturatingMul",
                                            "estimateRange"};
  return Fns;
}

size_t matchDelim(const std::vector<Token> &T, size_t Open, size_t End,
                  const char *OpenText, const char *CloseText) {
  unsigned Depth = 0;
  for (size_t I = Open; I < End; ++I) {
    if (isPunct(T[I], OpenText))
      ++Depth;
    else if (isPunct(T[I], CloseText) && --Depth == 0)
      return I;
  }
  return End;
}

/// Backward matcher: index of the `(` matching the `)` at \p Close,
/// or SIZE_MAX.
size_t matchDelimBack(const std::vector<Token> &T, size_t Close,
                      const char *OpenText, const char *CloseText) {
  unsigned Depth = 0;
  for (size_t I = Close + 1; I-- > 0;) {
    if (isPunct(T[I], CloseText))
      ++Depth;
    else if (isPunct(T[I], OpenText) && --Depth == 0)
      return I;
  }
  return SIZE_MAX;
}

/// Masks tokens that belong to a nested lambda body out of scans over
/// an enclosing statement (the lambda runs later, as its own CFG).
class LambdaMask {
public:
  explicit LambdaMask(const ParsedFile &Parsed)
      : Bodies(Parsed.LambdaBodies) {}

  /// True if token \p I should be skipped for an action whose tokens
  /// start at \p ActionBegin.
  bool skip(size_t I, size_t ActionBegin) const {
    for (const auto &[B, E] : Bodies)
      if (I > B && I < E && !(ActionBegin > B && ActionBegin < E))
        return true;
    return false;
  }

private:
  const std::vector<std::pair<size_t, size_t>> &Bodies;
};

/// Whether the identifier at \p I is a fresh name use rather than the
/// tail of a member/qualifier chain (`o.x`, `o->x`, `N::x`). `this->x`
/// still counts: it names the same member.
bool isDirectUse(const std::vector<Token> &T, size_t I, size_t Begin) {
  if (I == Begin)
    return true;
  const Token &Prev = T[I - 1];
  if (isPunct(Prev, ".") || isPunct(Prev, "::"))
    return false;
  if (isPunct(Prev, "->"))
    return I >= 2 && isIdent(T[I - 2], "this");
  return true;
}

/// Resolves the callee of the call starting at token \p I: walks a
/// qualifier/member chain and returns the identifier directly before
/// a `(`, or empty. \p Next receives the index of that `(`.
std::string calleeAt(const std::vector<Token> &T, size_t I, size_t End,
                     size_t &Next) {
  std::string Callee;
  size_t J = I;
  while (J < End) {
    if (T[J].TokenKind == Token::Kind::Identifier) {
      Callee = T[J].Text;
      ++J;
      if (J < End && isPunct(T[J], "(")) {
        Next = J;
        return Callee;
      }
      continue;
    }
    if (isPunct(T[J], "::") || isPunct(T[J], ".") || isPunct(T[J], "->")) {
      ++J;
      continue;
    }
    break;
  }
  return std::string();
}

/// Whether \p Name reads like a fallible operation, so a bool return
/// is a status code rather than a predicate (isEmpty, hasNode, ...).
bool looksLikeStatusName(const std::string &Name) {
  static const std::vector<std::string> Prefixes = {
      "try",      "init",    "open",     "close",    "flush",
      "finish",   "write",   "read",     "load",     "save",
      "verify",   "check",   "parse",    "apply",    "commit",
      "validate", "serialize", "deserialize", "start", "stop",
      "finalize", "run",     "snapshot", "restore",  "recover",
      "configure"};
  std::string Lower;
  for (char C : Name)
    Lower += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  for (const std::string &P : Prefixes)
    if (Lower.rfind(P, 0) == 0)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// unchecked-status
//===----------------------------------------------------------------------===//

/// Searches forward from action \p StartAction of block \p StartBlock
/// for a read of \p Var. A plain reassignment (`Var =`) kills the
/// path. Returns true if any path reads the value.
bool anyPathReads(const Cfg &G, const std::vector<Token> &T,
                  size_t StartBlock, size_t StartAction,
                  const std::string &Var) {
  // Scans one action; returns true on read, sets Killed on overwrite.
  auto ScanAction = [&](const Action &A, bool &Killed) {
    bool Read = false;
    for (size_t I = A.Begin; I < A.End; ++I) {
      if (T[I].TokenKind != Token::Kind::Identifier || T[I].Text != Var)
        continue;
      if (!isDirectUse(T, I, A.Begin))
        continue;
      if (I + 1 < A.End && isPunct(T[I + 1], "=")) {
        Killed = true; // Overwritten; the RHS was scanned separately.
        continue;
      }
      Read = true;
    }
    return Read;
  };

  std::vector<bool> Visited(G.Blocks.size(), false);
  std::vector<std::pair<size_t, size_t>> Work{{StartBlock, StartAction + 1}};
  while (!Work.empty()) {
    auto [B, From] = Work.back();
    Work.pop_back();
    bool Killed = false;
    const BasicBlock &Block = G.Blocks[B];
    for (size_t A = From; A < Block.Actions.size() && !Killed; ++A)
      if (ScanAction(Block.Actions[A], Killed))
        return true;
    if (Killed)
      continue;
    for (size_t Succ : Block.Succs)
      if (!Visited[Succ]) {
        Visited[Succ] = true;
        Work.emplace_back(Succ, 0);
      }
  }
  return false;
}

void runUncheckedStatus(const std::string &Path, const LexedSource &Src,
                        const ParsedFile &Parsed,
                        const std::set<std::string> &StatusFns,
                        const Cfg &G, std::vector<Finding> &Out) {
  const std::vector<Token> &T = Src.Tokens;
  LambdaMask Mask(Parsed);
  for (const BasicBlock &B : G.Blocks) {
    for (size_t AI = 0; AI < B.Actions.size(); ++AI) {
      const Action &A = B.Actions[AI];
      if (A.ActionKind == Action::Kind::Expr) {
        // Bare call statement: `f(...)` / `obj.f(...)` with nothing
        // else. `(void)f(...)` and static_cast<void>(...) are the
        // sanctioned explicit discards.
        size_t I = A.Begin;
        if (I < A.End && isPunct(T[I], "(") && I + 2 < A.End &&
            isIdent(T[I + 1], "void") && isPunct(T[I + 2], ")"))
          continue;
        if (I < A.End && isIdent(T[I], "static_cast"))
          continue;
        size_t Paren = A.End;
        std::string Callee = calleeAt(T, I, A.End, Paren);
        if (Callee.empty() || !StatusFns.count(Callee))
          continue;
        size_t Close = matchDelim(T, Paren, A.End, "(", ")");
        if (Close + 1 != A.End)
          continue; // Part of a larger expression; the result is used.
        Out.push_back(
            {"unchecked-status", Path, A.Line,
             "result of status function '" + Callee +
                 "' is dropped; check it (or cast to (void) with a reason) "
                 "— a silently ignored failure here voids the eps*n "
                 "accuracy contract downstream"});
        continue;
      }
      if (A.ActionKind != Action::Kind::Decl)
        continue;
      // `auto Ok = f(...)` where no path reads Ok afterwards. Tokens
      // inside a nested lambda body are the lambda CFG's business.
      for (size_t I = A.Begin; I + 1 < A.End; ++I) {
        if (Mask.skip(I, A.Begin))
          continue;
        if (!isPunct(T[I + 1], "=") ||
            T[I].TokenKind != Token::Kind::Identifier)
          continue;
        size_t Paren = A.End;
        std::string Callee = calleeAt(T, I + 2, A.End, Paren);
        if (Callee.empty() || !StatusFns.count(Callee))
          continue;
        const std::string &Var = T[I].Text;
        if (!anyPathReads(G, T, B.Id, AI, Var))
          Out.push_back(
              {"unchecked-status", Path, A.Line,
               "status of '" + Callee + "' is stored in '" + Var +
                   "' but no path ever reads it; check the result or "
                   "discard it explicitly with (void)"});
        break; // One initializer per declaration statement.
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// use-after-move
//===----------------------------------------------------------------------===//

/// Matches `std::move(x)` / `move(x)` with a single-identifier
/// operand at token \p I (pointing at `move`).
bool isMoveCallAt(const std::vector<Token> &T, size_t I, size_t End,
                  std::string &Var) {
  if (!isIdent(T[I], "move") || I + 3 >= End + 1)
    return false;
  if (I + 3 >= T.size() || I + 3 >= End)
    return false;
  if (!isPunct(T[I + 1], "(") ||
      T[I + 2].TokenKind != Token::Kind::Identifier ||
      !isPunct(T[I + 3], ")"))
    return false;
  // Reject member calls `obj.move(...)`; `std::move` and bare `move`
  // (via using-declaration) are accepted.
  if (I > 0 && (isPunct(T[I - 1], ".") || isPunct(T[I - 1], "->")))
    return false;
  Var = T[I + 2].Text;
  return true;
}

/// Walks one action, updating the moved-from set; emits findings when
/// \p Path is non-null (final pass).
void transferMove(const std::vector<Token> &T, const Action &A,
                  const LambdaMask &Mask, FactSet &Moved,
                  const std::string *Path, std::vector<Finding> *Out) {
  static const std::set<std::string> ReviveCalls = {"clear", "reset",
                                                    "assign", "emplace"};
  for (size_t I = A.Begin; I < A.End; ++I) {
    if (Mask.skip(I, A.Begin))
      continue;
    std::string MovedVar;
    if (isMoveCallAt(T, I, A.End, MovedVar)) {
      if (Moved.count(MovedVar) && Path && Out)
        Out->push_back({"use-after-move", *Path, T[I].Line,
                        "'" + MovedVar +
                            "' is moved from again after an earlier "
                            "std::move; the first move left it "
                            "valid-but-unspecified"});
      Moved.insert(MovedVar);
      I += 3;
      continue;
    }
    const Token &Tok = T[I];
    if (Tok.TokenKind != Token::Kind::Identifier || !Moved.count(Tok.Text))
      continue;
    if (!isDirectUse(T, I, A.Begin))
      continue;
    const Token *Next = I + 1 < A.End ? &T[I + 1] : nullptr;
    if (Next && isPunct(*Next, "=")) {
      Moved.erase(Tok.Text); // Reassigned; the name is fresh again.
      continue;
    }
    if (Next && (isPunct(*Next, ".") || isPunct(*Next, "->")) &&
        I + 3 < A.End && T[I + 2].TokenKind == Token::Kind::Identifier &&
        ReviveCalls.count(T[I + 2].Text) && isPunct(T[I + 3], "(")) {
      Moved.erase(Tok.Text); // x.clear() etc. re-establishes a state.
      I += 2;
      continue;
    }
    // A declaration re-introducing the name: `T x(...)` / `T x;` —
    // the previous token is the type tail, and we are in a Decl.
    if (A.ActionKind == Action::Kind::Decl && I > A.Begin) {
      const Token &Prev = T[I - 1];
      bool TypeTail = Prev.TokenKind == Token::Kind::Identifier ||
                      isPunct(Prev, ">") || isPunct(Prev, "*") ||
                      isPunct(Prev, "&") || isPunct(Prev, "&&");
      if (TypeTail) {
        Moved.erase(Tok.Text);
        continue;
      }
    }
    if (Path && Out)
      Out->push_back({"use-after-move", *Path, Tok.Line,
                      "'" + Tok.Text +
                          "' is used after being moved from; reassign or "
                          "re-initialize it before reading"});
    Moved.erase(Tok.Text); // Report each lost value once.
  }
}

void runUseAfterMove(const std::string &Path, const LexedSource &Src,
                     const ParsedFile &Parsed, const Cfg &G,
                     std::vector<Finding> &Out) {
  const std::vector<Token> &T = Src.Tokens;
  LambdaMask Mask(Parsed);
  auto Transfer = [&](const BasicBlock &B, FactSet State) {
    for (const Action &A : B.Actions)
      transferMove(T, A, Mask, State, nullptr, nullptr);
    return State;
  };
  DataflowResult R = solveForward(G, {}, Transfer);

  std::set<std::pair<unsigned, std::string>> Seen;
  std::vector<Finding> Raw;
  for (const BasicBlock &B : G.Blocks) {
    if (!R.Reached[B.Id])
      continue;
    FactSet State = R.EntryState[B.Id];
    for (const Action &A : B.Actions)
      transferMove(T, A, Mask, State, &Path, &Raw);
  }
  for (Finding &F : Raw)
    if (Seen.emplace(F.Line, F.Message).second)
      Out.push_back(std::move(F));
}

//===----------------------------------------------------------------------===//
// counter-escape
//===----------------------------------------------------------------------===//

/// True if the identifier at \p I loads a counter: a counter field
/// (member access or bare member use) or a counter getter call.
/// True if the identifier at \p I reads a counter field. A bare use
/// counts only when the name is not shadowed by a parameter or local
/// of the enclosing function (a parameter named `Weight` is the
/// caller's plain integer, not the node field); explicit member
/// accesses (`.` / `->`) are always counter loads.
bool isCounterFieldAt(const std::vector<Token> &T, size_t I,
                      const FactSet &Shadowed) {
  if (!counterFields().count(T[I].Text))
    return false;
  if (I > 0 && (isPunct(T[I - 1], ".") || isPunct(T[I - 1], "->")))
    return true;
  return !Shadowed.count(T[I].Text);
}

bool isCounterLoadAt(const std::vector<Token> &T, size_t I, size_t End,
                     const FactSet &Shadowed) {
  if (T[I].TokenKind != Token::Kind::Identifier)
    return false;
  if (isCounterFieldAt(T, I, Shadowed))
    return true;
  return counterGetters().count(T[I].Text) && I + 1 < End &&
         isPunct(T[I + 1], "(");
}

/// True if any token in [Begin, End) loads a counter or names a
/// tainted local / counter-domain call.
bool rangeTainted(const std::vector<Token> &T, size_t Begin, size_t End,
                  const FactSet &Tainted, const FactSet &Shadowed) {
  for (size_t I = Begin; I < End; ++I) {
    if (isCounterLoadAt(T, I, End, Shadowed))
      return true;
    if (T[I].TokenKind == Token::Kind::Identifier &&
        (Tainted.count(T[I].Text) ||
         (counterDomainFns().count(T[I].Text) && I + 1 < End &&
          isPunct(T[I + 1], "("))))
      return true;
  }
  return false;
}

/// Collects the operand chain to the LEFT of the operator at \p Op
/// and reports whether it is counter-tainted.
bool leftOperandTainted(const std::vector<Token> &T, size_t Op, size_t Begin,
                        const FactSet &Tainted, const FactSet &Shadowed) {
  size_t I = Op;
  while (I > Begin) {
    const Token &Prev = T[I - 1];
    if (isPunct(Prev, ")")) {
      size_t OpenP = matchDelimBack(T, I - 1, "(", ")");
      if (OpenP == SIZE_MAX || OpenP < Begin)
        return false;
      // A call result: counter-domain callee or counter getter.
      if (OpenP > Begin && T[OpenP - 1].TokenKind == Token::Kind::Identifier &&
          (counterDomainFns().count(T[OpenP - 1].Text) ||
           counterGetters().count(T[OpenP - 1].Text)))
        return true;
      I = OpenP;
      continue;
    }
    if (Prev.TokenKind == Token::Kind::Identifier) {
      if (isCounterFieldAt(T, I - 1, Shadowed) || Tainted.count(Prev.Text))
        return true;
      --I;
      continue;
    }
    if (isPunct(Prev, ".") || isPunct(Prev, "->") || isPunct(Prev, "::") ||
        isPunct(Prev, "]") || Prev.TokenKind == Token::Kind::Number) {
      --I;
      continue;
    }
    return false;
  }
  return false;
}

/// Same for the operand chain to the RIGHT of the operator.
bool rightOperandTainted(const std::vector<Token> &T, size_t Op, size_t End,
                         const FactSet &Tainted, const FactSet &Shadowed) {
  size_t I = Op + 1;
  while (I < End) {
    const Token &Tok = T[I];
    if (Tok.TokenKind == Token::Kind::Identifier) {
      if (isCounterFieldAt(T, I, Shadowed) || Tainted.count(Tok.Text))
        return true;
      if (I + 1 < End && isPunct(T[I + 1], "(")) {
        // A call: taint only flows out of the counter domain/getters.
        return counterDomainFns().count(Tok.Text) ||
               counterGetters().count(Tok.Text);
      }
      ++I;
      continue;
    }
    if (isPunct(Tok, ".") || isPunct(Tok, "->") || isPunct(Tok, "::")) {
      ++I;
      continue;
    }
    if (isPunct(Tok, "[")) {
      I = matchDelim(T, I, End, "[", "]") + 1;
      continue;
    }
    return false;
  }
  return false;
}

/// Index of the first top-level `=` in [Begin, End), or End. `==` and
/// friends lex as single tokens, so a bare `=` is an assignment.
size_t topLevelAssign(const std::vector<Token> &T, size_t Begin, size_t End) {
  unsigned Depth = 0;
  for (size_t I = Begin; I < End; ++I) {
    if (isPunct(T[I], "(") || isPunct(T[I], "[") || isPunct(T[I], "{"))
      ++Depth;
    else if (isPunct(T[I], ")") || isPunct(T[I], "]") || isPunct(T[I], "}")) {
      if (Depth > 0)
        --Depth;
    } else if (Depth == 0 && isPunct(T[I], "="))
      return I;
  }
  return End;
}

/// Whether the operator token at \p I is a binary use (has a value on
/// its left), as opposed to unary plus / pointer-declarator star.
bool isBinaryUse(const std::vector<Token> &T, size_t I, size_t Begin) {
  if (I == Begin)
    return false;
  const Token &Prev = T[I - 1];
  return Prev.TokenKind == Token::Kind::Identifier ||
         Prev.TokenKind == Token::Kind::Number || isPunct(Prev, ")") ||
         isPunct(Prev, "]");
}

void transferCounter(const std::vector<Token> &T, const Action &A,
                     const LambdaMask &Mask, const FactSet &Shadowed,
                     FactSet &Tainted, const std::string *Path,
                     std::vector<Finding> *Out) {
  // Findings: raw + / * / += / *= with a counter-tainted operand. In
  // Decl actions only the initializer (after the top-level `=`) is an
  // expression; everything before it is type/declarator syntax.
  size_t ExprFrom = A.Begin;
  size_t Assign = topLevelAssign(T, A.Begin, A.End);
  if (A.ActionKind == Action::Kind::Decl)
    ExprFrom = Assign == A.End ? A.End : Assign + 1;
  if (Path && Out) {
    for (size_t I = ExprFrom; I < A.End; ++I) {
      if (Mask.skip(I, A.Begin) || T[I].TokenKind != Token::Kind::Punct)
        continue;
      const std::string &Op = T[I].Text;
      bool Compound = Op == "*=";
      bool Plain = Op == "+" || Op == "*";
      if (!Compound && !Plain)
        continue;
      if (Plain && !isBinaryUse(T, I, A.Begin))
        continue;
      // `field += x` is counter-arithmetic's finding; this rule owns
      // the escaped-value cases.
      bool L = leftOperandTainted(T, I, A.Begin, Tainted, Shadowed);
      bool R = rightOperandTainted(T, I, A.End, Tainted, Shadowed);
      if (L || R)
        Out->push_back(
            {"counter-escape", *Path, T[I].Line,
             "counter-derived value reaches raw '" + Op +
                 "'; route it through saturatingAdd/saturatingMul "
                 "(support/BitUtils.h) so event weights clamp at 2^64-1 "
                 "instead of wrapping"});
    }
    // `local += <counter>`: += on non-fields escapes the domain too.
    for (size_t I = ExprFrom; I < A.End; ++I) {
      if (Mask.skip(I, A.Begin) || !isPunct(T[I], "+="))
        continue;
      bool FieldTarget = I > A.Begin &&
                         T[I - 1].TokenKind == Token::Kind::Identifier &&
                         counterFields().count(T[I - 1].Text);
      if (FieldTarget)
        continue; // counter-arithmetic already flags this exactly.
      if (leftOperandTainted(T, I, A.Begin, Tainted, Shadowed) ||
          rightOperandTainted(T, I, A.End, Tainted, Shadowed))
        Out->push_back(
            {"counter-escape", *Path, T[I].Line,
             "counter-derived value reaches raw '+='; use "
             "X = saturatingAdd(X, ...) (support/BitUtils.h) so the "
             "accumulator clamps instead of wrapping"});
    }
  }

  // Taint update: `x = RHS` / `type x = RHS`.
  if (A.ActionKind != Action::Kind::Decl &&
      A.ActionKind != Action::Kind::Expr)
    return;
  if (Assign == A.End || Assign == A.Begin)
    return;
  const Token &Target = T[Assign - 1];
  if (Target.TokenKind != Token::Kind::Identifier)
    return;
  bool Rhs = rangeTainted(T, Assign + 1, A.End, Tainted, Shadowed);
  // Casting into the float domain leaves the saturating discipline on
  // purpose (ratios, percentages); such locals are not counters.
  bool FloatDecl = false;
  if (A.ActionKind == Action::Kind::Decl)
    for (size_t I = A.Begin; I < Assign; ++I)
      if (isIdent(T[I], "double") || isIdent(T[I], "float"))
        FloatDecl = true;
  if (Rhs && !FloatDecl)
    Tainted.insert(Target.Text);
  else
    Tainted.erase(Target.Text);
}

/// Names bound inside \p Fn: its parameters plus every locally
/// declared variable. A bare use of such a name is that binding, not
/// a namespace-scope variable or class field of the same name.
FactSet collectShadowedNames(const std::vector<Token> &T, const Function &Fn,
                             const Cfg &G) {
  FactSet Shadowed;
  // Parameters: each declarator name is the identifier right before
  // a top-level `,`, `=`, or the closing paren.
  unsigned Depth = 0;
  for (size_t I = Fn.ParamBegin; I < Fn.ParamEnd; ++I) {
    if (isPunct(T[I], "(") || isPunct(T[I], "[") || isPunct(T[I], "{") ||
        isPunct(T[I], "<"))
      ++Depth;
    else if (isPunct(T[I], ")") || isPunct(T[I], "]") ||
             isPunct(T[I], "}") || isPunct(T[I], ">")) {
      if (Depth > 0)
        --Depth;
    }
    if (Depth != 0 || T[I].TokenKind != Token::Kind::Identifier)
      continue;
    bool AtEnd = I + 1 == Fn.ParamEnd;
    if (AtEnd || isPunct(T[I + 1], ",") || isPunct(T[I + 1], "=") ||
        isPunct(T[I + 1], "["))
      Shadowed.insert(T[I].Text);
  }
  // Locals: the declarator of every Decl action (first declarator of
  // a multi-declaration; the rest are rare enough to miss).
  for (const BasicBlock &B : G.Blocks)
    for (const Action &A : B.Actions) {
      if (A.ActionKind != Action::Kind::Decl)
        continue;
      size_t Assign = topLevelAssign(T, A.Begin, A.End);
      size_t NameAt = Assign;
      if (Assign == A.End) {
        // No initializer: the declarator is the last identifier
        // (type tokens all precede it).
        for (size_t I = A.Begin; I < A.End; ++I)
          if (T[I].TokenKind == Token::Kind::Identifier)
            NameAt = I + 1;
      }
      if (NameAt > A.Begin && NameAt <= A.End &&
          T[NameAt - 1].TokenKind == Token::Kind::Identifier)
        Shadowed.insert(T[NameAt - 1].Text);
    }
  return Shadowed;
}

void runCounterEscape(const std::string &Path, const LexedSource &Src,
                      const ParsedFile &Parsed, const Function &Fn,
                      const Cfg &G, std::vector<Finding> &Out) {
  const std::vector<Token> &T = Src.Tokens;
  LambdaMask Mask(Parsed);
  FactSet Shadowed = collectShadowedNames(T, Fn, G);
  auto Transfer = [&](const BasicBlock &B, FactSet State) {
    for (const Action &A : B.Actions)
      transferCounter(T, A, Mask, Shadowed, State, nullptr, nullptr);
    return State;
  };
  DataflowResult R = solveForward(G, {}, Transfer);

  std::set<std::pair<unsigned, std::string>> Seen;
  std::vector<Finding> Raw;
  for (const BasicBlock &B : G.Blocks) {
    if (!R.Reached[B.Id])
      continue;
    FactSet State = R.EntryState[B.Id];
    for (const Action &A : B.Actions)
      transferCounter(T, A, Mask, Shadowed, State, &Path, &Raw);
  }
  for (Finding &F : Raw)
    if (Seen.emplace(F.Line, F.Message).second)
      Out.push_back(std::move(F));
}

} // namespace

bool rap::lint::isStatusReturn(const Signature &Sig) {
  if (Sig.Name.rfind("operator", 0) == 0)
    return false;
  const std::string &RT = Sig.ReturnType;
  if (RT.find('*') != std::string::npos)
    return false;
  auto hasWord = [&](const char *W) {
    size_t Pos = 0;
    std::string Word(W);
    while ((Pos = RT.find(Word, Pos)) != std::string::npos) {
      bool LeftOk = Pos == 0 || RT[Pos - 1] == ' ';
      size_t After = Pos + Word.size();
      bool RightOk = After == RT.size() || RT[After] == ' ';
      if (LeftOk && RightOk)
        return true;
      Pos = After;
    }
    return false;
  };
  if (hasWord("rap_status"))
    return true;
  return hasWord("bool") && looksLikeStatusName(Sig.Name);
}

void rap::lint::runFlowRules(const std::string &Path, const LexedSource &Src,
                             const ParsedFile &Parsed, const LintContext &Ctx,
                             bool InCore, std::vector<Finding> &Out) {
  std::set<std::string> StatusFns = Ctx.StatusFunctions;
  for (const Signature &Sig : Parsed.Signatures)
    if (isStatusReturn(Sig))
      StatusFns.insert(Sig.Name);

  for (const auto &Fn : Parsed.Functions) {
    Cfg G = buildCfg(*Fn);
    runUncheckedStatus(Path, Src, Parsed, StatusFns, G, Out);
    runUseAfterMove(Path, Src, Parsed, G, Out);
    if (InCore)
      runCounterEscape(Path, Src, Parsed, *Fn, G, Out);
  }
}

/// Registry entries for the per-function flow rules, composed into
/// allRules() so --explain and allow()-marker validation see them.
const std::vector<RuleInfo> &rap::lint::flowRuleInfos() {
  static const std::vector<RuleInfo> Rules = {
      {"unchecked-status",
       "a call returning rap_status/bool-error must have its result "
       "checked on some path",
       "Flow rule (CFG + def-use). Flags a bare call statement to a "
       "status-returning function, and a status stored in a local that "
       "no CFG path ever reads before it dies or is overwritten. A "
       "dropped failure from serialization or trace IO silently voids "
       "the eps*n contract for every consumer downstream. Status "
       "functions: anything returning rap_status, plus bool functions "
       "with fallible names (write*/read*/init*/finish*/try*/...). "
       "Fix: branch on the result, or document the discard with "
       "(void)call()."},
      {"use-after-move",
       "a moved-from local must not be read before reassignment",
       "Flow rule (may-analysis over the CFG). After std::move(x) the "
       "value of x is valid-but-unspecified; a later read on ANY path "
       "is a logic bug even when it happens to work today. Reassignment "
       "(x = ...), re-declaration, or x.clear()/reset()/assign() "
       "re-establish a known state and clear the fact. Fix: reorder the "
       "uses, or re-initialize before reading."},
      {"counter-escape",
       "a value loaded from a saturating counter must not flow into raw "
       "+ / * arithmetic (core/ only)",
       "Flow rule (taint analysis over the CFG). counter-arithmetic "
       "catches direct += on counter fields; this rule tracks counter "
       "values that escape into locals (W = N.Count) and flags raw "
       "+ / * / += / *= on them, which reintroduces the wrap the "
       "saturating helpers exist to prevent. Differences and ratios are "
       "deliberately exempt (deltas are bounded), as are locals cast "
       "into double/float. Fix: saturatingAdd/saturatingMul from "
       "support/BitUtils.h."},
  };
  return Rules;
}
