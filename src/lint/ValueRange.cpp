//===- lint/ValueRange.cpp - Interval abstract interpretation ------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Layout of this file:
//
//   1. Lattice operations (join/meet/widen/leq/text) and saturating
//      i64 arithmetic clamped to the +/-Inf sentinels.
//   2. A small integer-type table (parseTypeTokens/typeRange) shared
//      by the declarator parser, cast handling and refinement.
//   3. The expression evaluator: a precedence-climbing parser over
//      lexed token ranges producing abstract Values, mutating an
//      abstract environment on assignments, and reporting rule events
//      through an optional sink (null while the fixpoint iterates,
//      live during the post-fixpoint replay pass).
//   4. Branch-condition refinement applied to CFG edges and to the
//      arms of conditional expressions.
//   5. The per-function worklist fixpoint with delayed widening, the
//      replay pass, and the public entry points (runValueRangeRules,
//      collectParamIntervals, intervalsAtExit).
//
// Soundness stance: every imprecision degrades to Untracked, and the
// four rules only fire on tracked intervals, so a construct the
// evaluator cannot model costs a rule a match — never a fabricated
// finding. The one deliberate exception is documented at convert():
// an out-of-range conversion *result* is re-tracked at the full
// destination range, because wraparound provably lands there.
//
//===----------------------------------------------------------------------===//

#include "lint/ValueRange.h"

#include "lint/Cfg.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <set>
#include <sstream>

namespace rap {
namespace lint {

//===----------------------------------------------------------------------===//
// 1. Lattice operations and saturating arithmetic
//===----------------------------------------------------------------------===//

Interval join(const Interval &A, const Interval &B) {
  if (A.isBottom())
    return B;
  if (B.isBottom())
    return A;
  if (A.isUntracked() || B.isUntracked())
    return Interval::untracked();
  return Interval::of(std::min(A.Lo, B.Lo), std::max(A.Hi, B.Hi));
}

Interval meet(const Interval &A, const Interval &B) {
  if (A.isUntracked())
    return B;
  if (B.isUntracked())
    return A;
  if (A.isBottom() || B.isBottom())
    return Interval::bottom();
  long long Lo = std::max(A.Lo, B.Lo);
  long long Hi = std::min(A.Hi, B.Hi);
  if (Lo > Hi)
    return Interval::bottom();
  return Interval::of(Lo, Hi);
}

Interval widen(const Interval &Prev, const Interval &Next) {
  if (Prev.isBottom())
    return Next;
  if (Next.isBottom())
    return Prev;
  if (Prev.isUntracked() || Next.isUntracked())
    return Interval::untracked();
  return Interval::of(Next.Lo < Prev.Lo ? -Interval::Inf : Prev.Lo,
                      Next.Hi > Prev.Hi ? Interval::Inf : Prev.Hi);
}

bool intervalLeq(const Interval &A, const Interval &B) {
  if (A.isBottom() || B.isUntracked())
    return true;
  if (A.isUntracked() || B.isBottom())
    return false;
  return B.Lo <= A.Lo && A.Hi <= B.Hi;
}

std::string intervalText(const Interval &I) {
  if (I.isBottom())
    return "bottom";
  if (I.isUntracked())
    return "untracked";
  std::ostringstream OS;
  OS << '[';
  if (I.Lo <= -Interval::Inf)
    OS << "-inf";
  else
    OS << I.Lo;
  OS << ", ";
  if (I.Hi >= Interval::Inf)
    OS << "+inf";
  else
    OS << I.Hi;
  OS << ']';
  return OS.str();
}

namespace {

constexpr long long Inf = Interval::Inf;

/// Clamps into the sentinel band so no later i64 operation can
/// overflow (|value| <= 2^62 always).
long long satClamp(long long V) {
  return V > Inf ? Inf : (V < -Inf ? -Inf : V);
}

long long satAdd(long long A, long long B) {
  if (A > 0 && B > Inf - A)
    return Inf;
  if (A < 0 && B < -Inf - A)
    return -Inf;
  return satClamp(A + B);
}

long long satNeg(long long A) { return satClamp(-A); }

long long satMul(long long A, long long B) {
  if (A == 0 || B == 0)
    return 0;
  long long AbsA = A < 0 ? -A : A, AbsB = B < 0 ? -B : B;
  bool Neg = (A < 0) != (B < 0);
  if (AbsA > Inf / AbsB)
    return Neg ? -Inf : Inf;
  return satClamp(A * B);
}

/// Division used for bound candidates; both operands finite, D != 0.
long long satDiv(long long A, long long D) { return A / D; }

/// Left shift of a non-negative base by a non-negative amount <= 62.
long long satShl(long long A, long long S) {
  if (A == 0)
    return 0;
  if (S >= 62 || A > (Inf >> S))
    return Inf;
  return A << S;
}

//===----------------------------------------------------------------------===//
// 2. Integer type table
//===----------------------------------------------------------------------===//

/// What the declarator/cast parsers recover about a type spelling.
/// Width 0 means "integer of unknown width". The model is LP64.
struct IntType {
  int Width = 0;
  bool Signed = true;
  bool IsInt = false;
  bool IsRef = false;
  bool IsFloat = false;
  bool IsAuto = false;
};

bool isTypeQualifier(const std::string &T) {
  return T == "const" || T == "volatile" || T == "constexpr" ||
         T == "static" || T == "inline" || T == "mutable" ||
         T == "register" || T == "thread_local" || T == "typename" ||
         T == "extern";
}

/// Fixed-width and aliased integer spellings. Returns width, sets
/// Signedness; width 0 means "not a known base type".
bool namedIntType(const std::string &T, int &Width, bool &Signed) {
  struct Entry {
    const char *Name;
    int W;
    bool S;
  };
  static const Entry Table[] = {
      {"bool", 1, false},       {"char", 8, true},
      {"wchar_t", 32, true},    {"char8_t", 8, false},
      {"char16_t", 16, false},  {"char32_t", 32, false},
      {"int8_t", 8, true},      {"uint8_t", 8, false},
      {"int16_t", 16, true},    {"uint16_t", 16, false},
      {"int32_t", 32, true},    {"uint32_t", 32, false},
      {"int64_t", 64, true},    {"uint64_t", 64, false},
      {"size_t", 64, false},    {"ssize_t", 64, true},
      {"ptrdiff_t", 64, true},  {"intptr_t", 64, true},
      {"uintptr_t", 64, false}, {"streamsize", 64, true},
      {"streamoff", 64, true},
  };
  for (const Entry &E : Table)
    if (T == E.Name) {
      Width = E.W;
      Signed = E.S;
      return true;
    }
  return false;
}

/// Parses a token range as a type spelling. Consumes the whole range;
/// an unrecognized identifier (a class name) yields IsInt = false.
IntType parseTypeTokens(const LexedSource &Src, size_t B, size_t E) {
  IntType T;
  bool SawUnsigned = false, SawSigned = false;
  int Longs = 0;
  bool SawShort = false, SawIntKw = false;
  bool SawNamed = false;
  int NamedW = 0;
  bool NamedS = true;
  for (size_t I = B; I < E; ++I) {
    const Token &Tok = Src.Tokens[I];
    if (Tok.TokenKind == Token::Kind::Punct) {
      if (Tok.Text == "::")
        continue;
      if (Tok.Text == "&" || Tok.Text == "&&") {
        T.IsRef = true;
        continue;
      }
      // Pointer, template args, array — not a plain integer.
      return IntType{};
    }
    if (Tok.TokenKind != Token::Kind::Identifier)
      return IntType{};
    const std::string &S = Tok.Text;
    if (isTypeQualifier(S) || S == "std")
      continue;
    if (S == "unsigned") {
      SawUnsigned = true;
      continue;
    }
    if (S == "signed") {
      SawSigned = true;
      continue;
    }
    if (S == "short") {
      SawShort = true;
      continue;
    }
    if (S == "long") {
      ++Longs;
      continue;
    }
    if (S == "int") {
      SawIntKw = true;
      continue;
    }
    if (S == "auto") {
      T.IsAuto = true;
      continue;
    }
    if (S == "float" || S == "double") {
      T.IsFloat = true;
      continue;
    }
    int W;
    bool Sg;
    if (namedIntType(S, W, Sg)) {
      if (SawNamed)
        return IntType{}; // Two base types — misparse, bail.
      SawNamed = true;
      NamedW = W;
      NamedS = Sg;
      continue;
    }
    return IntType{}; // Class type or something we do not model.
  }
  if (T.IsFloat || T.IsAuto)
    return T;
  if (SawNamed) {
    T.IsInt = true;
    T.Width = Longs ? 64 : NamedW; // "long double" filtered above.
    T.Signed = SawUnsigned ? false : (SawSigned ? true : NamedS);
    return T;
  }
  if (SawShort || SawIntKw || Longs || SawUnsigned || SawSigned) {
    T.IsInt = true;
    T.Width = SawShort ? 16 : (Longs ? 64 : 32);
    T.Signed = !SawUnsigned;
    return T;
  }
  return IntType{};
}

/// The value range a declared type admits, as a tracked interval.
/// 64-bit types map to sentinel bounds (the lattice cannot represent
/// their exact extremes, and does not need to).
Interval typeRange(const IntType &T) {
  if (!T.IsInt || T.Width == 0)
    return Interval::untracked();
  if (T.Width >= 63)
    return T.Signed ? Interval::of(-Inf, Inf) : Interval::of(0, Inf);
  long long Span = 1LL << T.Width;
  if (T.Signed)
    return Interval::of(-(Span / 2), Span / 2 - 1);
  return Interval::of(0, Span - 1);
}

//===----------------------------------------------------------------------===//
// 3. Abstract environment and expression evaluator
//===----------------------------------------------------------------------===//

/// Abstract state at one program point. Keys are local variable /
/// parameter names plus normalized member-chain spellings (e.g.
/// "N.WidthBits") introduced by refinement or direct assignment.
/// A missing key is Untracked, except at joins: a key present on one
/// side only is kept verbatim when it names a declared local (the
/// other path is outside the variable's scope), and dropped (to
/// Untracked) when it is a chain key (the other path may have gone
/// through code that mutated the underlying object).
struct Env {
  bool Reachable = false;
  std::map<std::string, Interval> V;
};

bool isChainKey(const std::string &K) {
  return K.find('.') != std::string::npos ||
         K.find('[') != std::string::npos ||
         K.find(':') != std::string::npos;
}

Env joinEnv(const Env &A, const Env &B, const std::set<std::string> &Locals) {
  if (!A.Reachable)
    return B;
  if (!B.Reachable)
    return A;
  Env R;
  R.Reachable = true;
  for (const auto &KV : A.V) {
    auto It = B.V.find(KV.first);
    if (It != B.V.end()) {
      Interval J = join(KV.second, It->second);
      if (!J.isUntracked())
        R.V.emplace(KV.first, J);
    } else if (!isChainKey(KV.first) && Locals.count(KV.first)) {
      R.V.insert(KV);
    }
  }
  for (const auto &KV : B.V)
    if (!A.V.count(KV.first) && !isChainKey(KV.first) &&
        Locals.count(KV.first))
      R.V.insert(KV);
  return R;
}

bool envEqual(const Env &A, const Env &B) {
  return A.Reachable == B.Reachable && A.V == B.V;
}

/// Where replayed rule events land. Null while the fixpoint iterates.
struct Sink {
  const std::string *Path = nullptr;
  std::vector<Finding> *Out = nullptr;
  std::set<std::string> Seen; ///< Dedup across replayed blocks.

  void emit(const char *Rule, unsigned Line, const std::string &Msg) {
    std::string Key = std::string(Rule) + '#' + std::to_string(Line) + '#' +
                      Msg;
    if (!Seen.insert(Key).second)
      return;
    Finding F;
    F.RuleId = Rule;
    F.Path = *Path;
    F.Line = Line;
    F.Message = Msg;
    Out->push_back(F);
  }
};

/// One abstract value flowing through the evaluator. LV names the
/// environment key the value was loaded from (empty when the
/// expression is not assignable); Width/Sign carry the declared type
/// when known (Width 0 / Sign -1 otherwise) so shifts and narrowing
/// checks know the operand's width without re-resolving it.
struct Value {
  Interval I = Interval::untracked();
  int Width = 0;
  int Sign = -1; ///< 1 signed, 0 unsigned, -1 unknown.
  std::string LV;
};

Value untrackedValue() { return Value{}; }

/// Everything the evaluator needs besides the cursor: source, the
/// mutable environment, per-name declared types, the names that are
/// genuinely local (for join semantics), names whose address escaped
/// (never tracked), and the optional finding sink.
struct EvalCtx {
  const LexedSource *Src = nullptr;
  Env *E = nullptr;
  const std::map<std::string, IntType> *DeclTypes = nullptr;
  const std::set<std::string> *Locals = nullptr;
  const std::set<std::string> *AliasKilled = nullptr;
  Sink *S = nullptr;
};

/// Callees that neither retain nor mutate their by-value arguments,
/// so a call does not invalidate the argument variables' intervals.
bool isPureCallee(const std::string &Tail) {
  return Tail == "min" || Tail == "max" || Tail == "abs" ||
         Tail == "llabs" || Tail == "clamp" || Tail == "size" ||
         Tail == "empty" || Tail == "count" || Tail == "length" ||
         Tail == "data" || Tail == "c_str" || Tail == "begin" ||
         Tail == "end";
}

/// Conversion into a destination type: witnesses survive when they
/// fit; a provably-escaping witness reports narrowing-truncation and
/// the result re-tracks at the full destination range (wraparound
/// provably lands inside it). Untracked stays untracked — a type is
/// a constraint on the *stored* value, not a witness for it.
Interval convertValue(EvalCtx &C, const Value &V, const IntType &T,
                      bool ExplicitCast, unsigned Ln);

class ExprParser {
public:
  ExprParser(EvalCtx &Ctx, size_t Begin, size_t End)
      : C(Ctx), Toks(Ctx.Src->Tokens), P(Begin), E(End) {}

  /// Entry point: full expression including top-level commas.
  Value parseComma() {
    Value V = parseAssign();
    while (at(",")) {
      ++P;
      V = parseAssign();
    }
    return V;
  }

  Value parseAssign();

  size_t pos() const { return P; }

private:
  EvalCtx &C;
  const std::vector<Token> &Toks;
  size_t P, E;

  bool done() const { return P >= E; }
  const Token &tok() const { return Toks[P]; }
  bool at(const char *T) const {
    return P < E && Toks[P].TokenKind == Token::Kind::Punct &&
           Toks[P].Text == T;
  }
  bool atIdent(const char *T) const {
    return P < E && Toks[P].TokenKind == Token::Kind::Identifier &&
           Toks[P].Text == T;
  }
  unsigned line() const {
    return P < E ? Toks[P].Line : (E > 0 ? Toks[E - 1].Line : 0);
  }

  /// Skips a balanced (), [], {} or <> group starting at P (which must
  /// sit on the opener). Leaves P just past the closer.
  void skipBalanced(const char *Open, const char *Close) {
    int Depth = 0;
    while (P < E) {
      if (at(Open))
        ++Depth;
      else if (at(Close)) {
        if (--Depth == 0) {
          ++P;
          return;
        }
      }
      ++P;
    }
  }

  IntType declTypeOf(const std::string &Name) const {
    auto It = C.DeclTypes->find(Name);
    return It == C.DeclTypes->end() ? IntType{} : It->second;
  }

  Value loadKey(const std::string &Key) {
    Value V;
    V.LV = Key;
    if (!isChainKey(Key)) {
      if (C.AliasKilled->count(Key))
        return V; // Untracked forever, still assignable.
      IntType T = declTypeOf(Key);
      if (T.IsInt) {
        V.Width = T.Width;
        V.Sign = T.Signed ? 1 : 0;
      }
    }
    auto It = C.E->V.find(Key);
    if (It != C.E->V.end())
      V.I = It->second;
    return V;
  }

  /// Erases chain keys that mention \p Name as a whole identifier —
  /// storing to `I` invalidates the meaning of "Nodes[I].Width".
  void killChainsMentioning(const std::string &Name) {
    for (auto It = C.E->V.begin(); It != C.E->V.end();) {
      const std::string &K = It->first;
      bool Mention = false;
      if (isChainKey(K)) {
        size_t Pos = 0;
        while ((Pos = K.find(Name, Pos)) != std::string::npos) {
          bool L = Pos == 0 || (!isalnum((unsigned char)K[Pos - 1]) &&
                                K[Pos - 1] != '_');
          size_t After = Pos + Name.size();
          bool R = After >= K.size() || (!isalnum((unsigned char)K[After]) &&
                                         K[After] != '_');
          if (L && R) {
            Mention = true;
            break;
          }
          ++Pos;
        }
      }
      if (Mention)
        It = C.E->V.erase(It);
      else
        ++It;
    }
  }

  void store(const std::string &Key, const Interval &I) {
    if (Key.empty())
      return;
    if (!isChainKey(Key)) {
      killChainsMentioning(Key);
      if (C.AliasKilled->count(Key)) {
        C.E->V.erase(Key);
        return;
      }
    } else if (Key.find('[') != std::string::npos) {
      // A store through a subscript may alias any other subscripted
      // chain; drop them all, including this one.
      for (auto It = C.E->V.begin(); It != C.E->V.end();)
        if (It->first.find('[') != std::string::npos)
          It = C.E->V.erase(It);
        else
          ++It;
      return;
    }
    if (I.isUntracked())
      C.E->V.erase(Key);
    else
      C.E->V[Key] = I;
  }

  Interval convert(const Value &V, const IntType &T, bool ExplicitCast) {
    return convertValue(C, V, T, ExplicitCast, line());
  }

  Value makeResult(const Interval &I, int Width, int Sign) {
    Value V;
    V.I = I;
    V.Width = Width;
    V.Sign = Sign;
    return V;
  }

  /// Common arithmetic type of a binary operation, usual-promotions
  /// flavored: at least int, widest wins, unsigned wins on ties.
  void commonType(const Value &A, const Value &B, int &W, int &Sg) {
    if (A.Width == 0 || B.Width == 0) {
      W = 0;
      Sg = -1;
      return;
    }
    W = std::max(32, std::max(A.Width, B.Width));
    if (A.Sign < 0 || B.Sign < 0)
      Sg = -1;
    else if (A.Width == B.Width)
      Sg = (A.Sign && B.Sign) ? 1 : 0;
    else
      Sg = A.Width > B.Width ? A.Sign : B.Sign;
  }

  /// Clamps an arithmetic result to the common type: a result the
  /// type can hold passes through; one that provably overflows
  /// degrades to the full type range (still tracked) when the type is
  /// known, and to Untracked when it is not.
  Interval fitResult(const Interval &R, int W, int Sg) {
    if (!R.isRange())
      return R;
    if (W == 0 || Sg < 0) {
      if (R.Lo <= -Inf || R.Hi >= Inf)
        return (R.Lo > -Inf && R.Lo >= 0) ? Interval::of(R.Lo, Inf)
                                          : Interval::untracked();
      return R;
    }
    IntType T;
    T.IsInt = true;
    T.Width = W;
    T.Signed = Sg == 1;
    Interval Range = typeRange(T);
    return intervalLeq(R, Range) ? R : Range;
  }

  Value applyBinary(const std::string &Op, const Value &A, const Value &B,
                    unsigned Line);

  Value parseTernary();
  Value parseLor();
  Value parseLand();
  Value parseBitOr();
  Value parseBitXor();
  Value parseBitAnd();
  Value parseEq();
  Value parseRel();
  Value parseShift();
  Value parseAdd();
  Value parseMul();
  Value parseUnary();
  Value parsePostfix();
  Value parsePrimary();

  friend Env refineEnv(EvalCtx &C, const Env &In, size_t B, size_t End,
                       bool Assume);
};

/// Smallest all-ones mask covering \p H (e.g. 5 -> 7, 8 -> 15).
long long onesCover(long long H) {
  long long M = 1;
  while (M < H && M < Inf)
    M = M * 2 + 1;
  return M;
}

long long divBound(long long A, long long D) {
  if (A <= -Inf || A >= Inf)
    return ((A > 0) == (D > 0)) ? Inf : -Inf;
  if (D <= -Inf || D >= Inf)
    return 0;
  return satDiv(A, D);
}

/// Whether the given bound of \p V's interval merely restates the
/// extreme of V's own declared type. Such a bound is a constraint the
/// type imposes, not a derived witness that the value reaches it, so
/// the sinks do not fire on it: an unsigned clamped to [0, UINT_MAX]
/// by an assignment conversion proves nothing about the shift below.
bool typeExtremeBound(const Value &V, bool HiSide) {
  if (V.Width <= 0 || V.Sign < 0 || !V.I.isRange())
    return false;
  IntType ST;
  ST.IsInt = true;
  ST.Width = V.Width;
  ST.Signed = V.Sign == 1;
  Interval TR = typeRange(ST);
  return HiSide ? V.I.Hi == TR.Hi : V.I.Lo == TR.Lo;
}

Value ExprParser::applyBinary(const std::string &Op, const Value &A,
                              const Value &B, unsigned Ln) {
  int W, Sg;
  commonType(A, B, W, Sg);
  bool BothR = A.I.isRange() && B.I.isRange();

  // Bottom absorbs (and suppresses the sinks below): an operand with
  // no value yet — a bottom-seeded parameter during the ascending
  // interprocedural iteration — makes the whole expression valueless
  // rather than unknown, so `Size + 4` in a forwarding wrapper still
  // contributes nothing to the callee's summary on round one.
  if (A.I.isBottom() || B.I.isBottom()) {
    Value R;
    R.I = Interval::bottom();
    R.Width = W;
    R.Sign = Sg;
    return R;
  }

  if (Op == "+" ) {
    if (!BothR)
      return untrackedValue();
    return makeResult(
        fitResult(Interval::of(satAdd(A.I.Lo, B.I.Lo), satAdd(A.I.Hi, B.I.Hi)),
                  W, Sg),
        W, Sg);
  }
  if (Op == "-") {
    if (!BothR)
      return untrackedValue();
    return makeResult(fitResult(Interval::of(satAdd(A.I.Lo, satNeg(B.I.Hi)),
                                             satAdd(A.I.Hi, satNeg(B.I.Lo))),
                                W, Sg),
                      W, Sg);
  }
  if (Op == "*") {
    if (!BothR)
      return untrackedValue();
    long long C1 = satMul(A.I.Lo, B.I.Lo), C2 = satMul(A.I.Lo, B.I.Hi);
    long long C3 = satMul(A.I.Hi, B.I.Lo), C4 = satMul(A.I.Hi, B.I.Hi);
    long long Lo = std::min(std::min(C1, C2), std::min(C3, C4));
    long long Hi = std::max(std::max(C1, C2), std::max(C3, C4));
    return makeResult(fitResult(Interval::of(Lo, Hi), W, Sg), W, Sg);
  }
  if (Op == "/" || Op == "%") {
    bool IntDividend = A.I.isRange() || A.Width > 0;
    bool TypeOnly = typeExtremeBound(B, false) && typeExtremeBound(B, true);
    if (C.S && IntDividend && B.I.isRange() && B.I.contains(0) && !TypeOnly) {
      if (B.I.Lo == 0 && B.I.Hi == 0)
        C.S->emit("div-by-zero", Ln, "divisor is provably zero");
      else
        C.S->emit("div-by-zero", Ln,
                  "divisor interval " + intervalText(B.I) +
                      " contains zero on some path");
    }
    if (!BothR || B.I.contains(0))
      return untrackedValue();
    if (Op == "%") {
      long long AbsLo = B.I.Lo < 0 ? satNeg(B.I.Lo) : B.I.Lo;
      long long AbsHi = B.I.Hi < 0 ? satNeg(B.I.Hi) : B.I.Hi;
      long long M = std::max(AbsLo, AbsHi);
      if (M >= Inf)
        return untrackedValue();
      if (A.I.Lo >= 0)
        return makeResult(Interval::of(0, std::min(M - 1, A.I.Hi)), W, Sg);
      return makeResult(Interval::of(satNeg(M - 1), M - 1), W, Sg);
    }
    std::vector<long long> Cand;
    if (B.I.Hi >= 1) { // Positive divisor part [max(1,Lo), Hi].
      long long P1 = std::max(1LL, B.I.Lo), P2 = B.I.Hi;
      Cand.push_back(divBound(A.I.Lo, P1));
      Cand.push_back(divBound(A.I.Lo, P2));
      Cand.push_back(divBound(A.I.Hi, P1));
      Cand.push_back(divBound(A.I.Hi, P2));
    }
    if (B.I.Lo <= -1) { // Negative divisor part [Lo, min(-1,Hi)].
      long long N1 = B.I.Lo, N2 = std::min(-1LL, B.I.Hi);
      Cand.push_back(divBound(A.I.Lo, N1));
      Cand.push_back(divBound(A.I.Lo, N2));
      Cand.push_back(divBound(A.I.Hi, N1));
      Cand.push_back(divBound(A.I.Hi, N2));
    }
    if (Cand.empty())
      return untrackedValue();
    long long Lo = *std::min_element(Cand.begin(), Cand.end());
    long long Hi = *std::max_element(Cand.begin(), Cand.end());
    return makeResult(Interval::of(Lo, Hi), W, Sg);
  }
  if (Op == "<<" || Op == ">>") {
    // Only treat as an arithmetic shift when the left side is
    // provably integer-like (tracked, or of known integer type) —
    // `os << X` is an iostream insertion, not a shift.
    bool IntLhs = A.I.isRange() || A.Width > 0;
    if (C.S && IntLhs && B.I.isRange()) {
      long long Wd = A.Width ? std::max(32, A.Width) : 64;
      if (B.I.Lo < 0 && B.I.Lo > -Inf && !typeExtremeBound(B, false))
        C.S->emit("shift-width", Ln,
                  "shift amount " + intervalText(B.I) + " may be negative");
      else if (B.I.Hi >= Wd && !typeExtremeBound(B, true))
        C.S->emit("shift-width", Ln,
                  "shift amount " + intervalText(B.I) +
                      " is not provably below the operand width " +
                      std::to_string(Wd));
    }
    if (!BothR || A.I.Lo < 0 || B.I.Lo < 0 || B.I.Hi > 62)
      return untrackedValue();
    if (Op == "<<")
      return makeResult(fitResult(Interval::of(satShl(A.I.Lo, B.I.Lo),
                                               satShl(A.I.Hi, B.I.Hi)),
                                  A.Width ? std::max(32, A.Width) : 0,
                                  A.Width ? A.Sign : -1),
                        A.Width, A.Sign);
    long long Lo = A.I.Lo >> std::min(B.I.Hi, 62LL);
    long long Hi = A.I.Hi >= Inf ? Inf : (A.I.Hi >> B.I.Lo);
    return makeResult(Interval::of(Lo, Hi), A.Width, A.Sign);
  }
  if (Op == "&") {
    long long Cap = -1;
    if (A.I.isRange() && A.I.Lo >= 0 && A.I.Hi < Inf)
      Cap = A.I.Hi;
    if (B.I.isRange() && B.I.Lo >= 0 && B.I.Hi < Inf)
      Cap = Cap < 0 ? B.I.Hi : std::min(Cap, B.I.Hi);
    if (Cap < 0)
      return untrackedValue();
    return makeResult(Interval::of(0, Cap), W, Sg);
  }
  if (Op == "|" || Op == "^") {
    if (!BothR || A.I.Lo < 0 || B.I.Lo < 0 || A.I.Hi >= Inf ||
        B.I.Hi >= Inf)
      return untrackedValue();
    long long Hi = onesCover(std::max(A.I.Hi, B.I.Hi));
    long long Lo = Op == "|" ? std::max(A.I.Lo, B.I.Lo) : 0;
    return makeResult(Interval::of(Lo, Hi), W, Sg);
  }
  if (Op == "==" || Op == "!=" || Op == "<" || Op == "<=" || Op == ">" ||
      Op == ">=") {
    int Truth = -1; // -1 unknown, 0 false, 1 true.
    if (BothR) {
      bool Lt = A.I.Hi < B.I.Lo, Gt = A.I.Lo > B.I.Hi;
      bool EqOnly = A.I.Lo == A.I.Hi && B.I.Lo == B.I.Hi &&
                    A.I.Lo == B.I.Lo && A.I.Lo > -Inf && A.I.Hi < Inf;
      if (Op == "==")
        Truth = EqOnly ? 1 : ((Lt || Gt) ? 0 : -1);
      else if (Op == "!=")
        Truth = EqOnly ? 0 : ((Lt || Gt) ? 1 : -1);
      else if (Op == "<")
        Truth = Lt ? 1 : (A.I.Lo >= B.I.Hi ? 0 : -1);
      else if (Op == "<=")
        Truth = A.I.Hi <= B.I.Lo ? 1 : (Gt ? 0 : -1);
      else if (Op == ">")
        Truth = Gt ? 1 : (A.I.Hi <= B.I.Lo ? 0 : -1);
      else
        Truth = A.I.Lo >= B.I.Hi ? 1 : (Lt ? 0 : -1);
    }
    Interval R = Truth < 0 ? Interval::of(0, 1)
                           : Interval::constant(Truth);
    return makeResult(R, 1, 0);
  }
  return untrackedValue(); // "<=>" and anything unmodeled.
}

Value ExprParser::parseAssign() {
  Value L = parseTernary();
  if (done() || tok().TokenKind != Token::Kind::Punct)
    return L;
  const std::string &T = tok().Text;
  bool Plain = T == "=";
  bool Compound = T == "+=" || T == "-=" || T == "*=" || T == "/=" ||
                  T == "%=" || T == "<<=" || T == ">>=" || T == "&=" ||
                  T == "|=" || T == "^=";
  if (!Plain && !Compound)
    return L;
  unsigned Ln = tok().Line;
  ++P;
  Value R = parseAssign();
  Value Res = Plain ? R : applyBinary(T.substr(0, T.size() - 1), L, R, Ln);
  Interval St = Res.I;
  if (!L.LV.empty() && !isChainKey(L.LV)) {
    IntType DT = declTypeOf(L.LV);
    if (DT.IsInt)
      St = convert(Res, DT, false);
  }
  store(L.LV, St);
  Value Out;
  Out.I = St;
  Out.Width = L.Width;
  Out.Sign = L.Sign;
  Out.LV = L.LV;
  return Out;
}

Env refineEnv(EvalCtx &C, const Env &In, size_t B, size_t End, bool Assume);

Value ExprParser::parseTernary() {
  size_t CondB = P;
  Value Cond = parseLor();
  if (!at("?"))
    return Cond;
  size_t CondE = P;
  ++P;
  Env Base = *C.E;
  Env TrueEnv = refineEnv(C, Base, CondB, CondE, true);
  Env FalseEnv = refineEnv(C, Base, CondB, CondE, false);
  bool KnownTrue =
      (Cond.I.isRange() && !Cond.I.contains(0)) || !FalseEnv.Reachable;
  bool KnownFalse =
      (Cond.I.isRange() && Cond.I.Lo == 0 && Cond.I.Hi == 0) ||
      !TrueEnv.Reachable;
  Sink *SavedS = C.S;
  if (KnownFalse)
    C.S = nullptr; // Dead arm: evaluate for position only, no findings.
  *C.E = TrueEnv;
  Value VT = parseAssign();
  Env AfterTrue = *C.E;
  C.S = SavedS;
  if (!at(":")) {
    // Misparse (e.g. a comma expression arm). Recover: skip to the
    // matching ':' and give up on precision.
    int Depth = 0;
    while (P < E) {
      if (at("(") || at("[") || at("{"))
        ++Depth;
      else if (at(")") || at("]") || at("}"))
        --Depth;
      else if (at("?"))
        ++Depth;
      else if (at(":") && Depth == 0)
        break;
      ++P;
    }
    if (!at(":")) {
      *C.E = joinEnv(AfterTrue, Base, *C.Locals);
      return untrackedValue();
    }
  }
  ++P;
  if (KnownTrue)
    C.S = nullptr;
  *C.E = FalseEnv;
  Value VF = parseAssign();
  Env AfterFalse = *C.E;
  C.S = SavedS;
  if (KnownTrue && !KnownFalse) {
    *C.E = AfterTrue;
    return VT;
  }
  if (KnownFalse && !KnownTrue) {
    *C.E = AfterFalse;
    return VF;
  }
  *C.E = joinEnv(AfterTrue, AfterFalse, *C.Locals);
  Value R;
  R.I = join(VT.I, VF.I);
  if (VT.Width == VF.Width && VT.Sign == VF.Sign) {
    R.Width = VT.Width;
    R.Sign = VT.Sign;
  }
  return R;
}

Value ExprParser::parseLor() {
  Value L = parseLand();
  while (at("||")) {
    ++P;
    Value R = parseLand();
    bool LT = L.I.isRange() && !L.I.contains(0);
    bool RT = R.I.isRange() && !R.I.contains(0);
    bool LF = L.I.isRange() && L.I.Lo == 0 && L.I.Hi == 0;
    bool RF = R.I.isRange() && R.I.Lo == 0 && R.I.Hi == 0;
    Interval I = (LT || RT) ? Interval::constant(1)
                 : (LF && RF) ? Interval::constant(0)
                              : Interval::of(0, 1);
    L = makeResult(I, 1, 0);
  }
  return L;
}

Value ExprParser::parseLand() {
  Value L = parseBitOr();
  while (at("&&")) {
    ++P;
    Value R = parseBitOr();
    bool LT = L.I.isRange() && !L.I.contains(0);
    bool RT = R.I.isRange() && !R.I.contains(0);
    bool LF = L.I.isRange() && L.I.Lo == 0 && L.I.Hi == 0;
    bool RF = R.I.isRange() && R.I.Lo == 0 && R.I.Hi == 0;
    Interval I = (LF || RF) ? Interval::constant(0)
                 : (LT && RT) ? Interval::constant(1)
                              : Interval::of(0, 1);
    L = makeResult(I, 1, 0);
  }
  return L;
}

Value ExprParser::parseBitOr() {
  Value L = parseBitXor();
  while (at("|")) {
    unsigned Ln = line();
    ++P;
    L = applyBinary("|", L, parseBitXor(), Ln);
  }
  return L;
}

Value ExprParser::parseBitXor() {
  Value L = parseBitAnd();
  while (at("^")) {
    unsigned Ln = line();
    ++P;
    L = applyBinary("^", L, parseBitAnd(), Ln);
  }
  return L;
}

Value ExprParser::parseBitAnd() {
  Value L = parseEq();
  while (at("&")) {
    unsigned Ln = line();
    ++P;
    L = applyBinary("&", L, parseEq(), Ln);
  }
  return L;
}

Value ExprParser::parseEq() {
  Value L = parseRel();
  while (at("==") || at("!=")) {
    std::string Op = tok().Text;
    unsigned Ln = line();
    ++P;
    L = applyBinary(Op, L, parseRel(), Ln);
  }
  return L;
}

Value ExprParser::parseRel() {
  Value L = parseShift();
  while (at("<") || at("<=") || at(">") || at(">=") || at("<=>")) {
    std::string Op = tok().Text;
    unsigned Ln = line();
    ++P;
    L = applyBinary(Op, L, parseShift(), Ln);
  }
  return L;
}

Value ExprParser::parseShift() {
  Value L = parseAdd();
  while (at("<<") || at(">>")) {
    std::string Op = tok().Text;
    unsigned Ln = line();
    ++P;
    L = applyBinary(Op, L, parseAdd(), Ln);
  }
  return L;
}

Value ExprParser::parseAdd() {
  Value L = parseMul();
  while (at("+") || at("-")) {
    std::string Op = tok().Text;
    unsigned Ln = line();
    ++P;
    L = applyBinary(Op, L, parseMul(), Ln);
  }
  return L;
}

Value ExprParser::parseMul() {
  Value L = parseUnary();
  while (at("*") || at("/") || at("%")) {
    std::string Op = tok().Text;
    unsigned Ln = line();
    ++P;
    L = applyBinary(Op, L, parseUnary(), Ln);
  }
  return L;
}

Value ExprParser::parseUnary() {
  if (done())
    return untrackedValue();
  if (at("-")) {
    ++P;
    Value V = parseUnary();
    if (!V.I.isRange())
      return untrackedValue();
    return makeResult(Interval::of(satNeg(V.I.Hi), satNeg(V.I.Lo)), V.Width,
                      V.Sign);
  }
  if (at("+")) {
    ++P;
    return parseUnary();
  }
  if (at("!")) {
    ++P;
    Value V = parseUnary();
    if (V.I.isRange() && !V.I.contains(0))
      return makeResult(Interval::constant(0), 1, 0);
    if (V.I.isRange() && V.I.Lo == 0 && V.I.Hi == 0)
      return makeResult(Interval::constant(1), 1, 0);
    return makeResult(Interval::of(0, 1), 1, 0);
  }
  if (at("~") || at("*") || at("&")) {
    ++P;
    parseUnary();
    return untrackedValue();
  }
  if (at("++") || at("--")) {
    bool Up = tok().Text == "++";
    ++P;
    Value V = parseUnary();
    if (V.LV.empty())
      return untrackedValue();
    Interval NI = Interval::untracked();
    if (V.I.isRange())
      NI = Interval::of(satAdd(V.I.Lo, Up ? 1 : -1),
                        satAdd(V.I.Hi, Up ? 1 : -1));
    if (!V.LV.empty() && !isChainKey(V.LV)) {
      IntType DT = declTypeOf(V.LV);
      if (DT.IsInt && NI.isRange() && !intervalLeq(NI, typeRange(DT)))
        NI = typeRange(DT);
    }
    store(V.LV, NI);
    Value Out = V;
    Out.I = NI;
    return Out;
  }
  return parsePostfix();
}

/// Index just past the token matching the opener at \p From, or \p E.
size_t matchCloseIdx(const std::vector<Token> &Toks, size_t From, size_t E,
                     const char *Open, const char *Close) {
  int Depth = 0;
  for (size_t I = From; I < E; ++I) {
    if (Toks[I].TokenKind != Token::Kind::Punct)
      continue;
    if (Toks[I].Text == Open)
      ++Depth;
    else if (Toks[I].Text == Close && --Depth == 0)
      return I;
  }
  return E;
}

std::string textOf(const std::vector<Token> &Toks, size_t B, size_t E) {
  std::string R;
  for (size_t I = B; I < E; ++I)
    R += Toks[I].Text;
  return R;
}

Value ExprParser::parsePostfix() {
  size_t Start = P;
  Value V = parsePrimary();
  while (P < E) {
    if (at(".") || at("->")) {
      ++P;
      if (P < E && tok().TokenKind == Token::Kind::Identifier) {
        std::string Name = tok().Text;
        ++P;
        if (!V.LV.empty()) {
          V = loadKey(V.LV + "." + Name);
        } else {
          V = untrackedValue();
        }
      } else {
        return untrackedValue();
      }
      continue;
    }
    if (at("::")) {
      ++P;
      if (P < E && tok().TokenKind == Token::Kind::Identifier) {
        std::string Name = tok().Text;
        ++P;
        V = V.LV.empty() ? untrackedValue() : loadKey(V.LV + "::" + Name);
      } else {
        return untrackedValue();
      }
      continue;
    }
    if (at("[")) {
      size_t Close = matchCloseIdx(Toks, P, E, "[", "]");
      if (Close >= E)
        return untrackedValue();
      {
        ExprParser Inner(C, P + 1, Close);
        if (P + 1 < Close)
          Inner.parseComma();
      }
      std::string Sub = textOf(Toks, P + 1, Close);
      P = Close + 1;
      V = V.LV.empty() ? untrackedValue()
                       : loadKey(V.LV + "[" + Sub + "]");
      continue;
    }
    if (at("(") || at("{")) {
      bool Brace = at("{");
      // A chain that spells an integer type is a functional cast:
      // uint32_t(X), std::int16_t{X}.
      IntType CastT;
      if (!V.LV.empty())
        CastT = parseTypeTokens(*C.Src, Start, P);
      size_t Close = Brace ? matchCloseIdx(Toks, P, E, "{", "}")
                           : matchCloseIdx(Toks, P, E, "(", ")");
      if (Close >= E) {
        P = E;
        return untrackedValue();
      }
      unsigned CallLine = tok().Line;
      size_t ArgB = P + 1;
      std::vector<Value> Args;
      std::vector<std::pair<size_t, size_t>> ArgRanges;
      if (ArgB < Close) {
        ExprParser Sub(C, ArgB, Close);
        while (true) {
          size_t AB = Sub.P;
          Args.push_back(Sub.parseAssign());
          ArgRanges.emplace_back(AB, Sub.P);
          if (Sub.at(",")) {
            ++Sub.P;
            continue;
          }
          break;
        }
      }
      P = Close + 1;
      if (CastT.IsInt && Args.size() == 1) {
        Interval CI = convert(Args[0], CastT, true);
        V = makeResult(CI, CastT.Width, CastT.Signed ? 1 : 0);
        continue;
      }
      if (Brace && !CastT.IsInt) {
        // Braced list on a non-type chain — aggregate init, opaque.
        V = untrackedValue();
        continue;
      }
      std::string Tail = V.LV;
      size_t SepDot = Tail.rfind('.');
      size_t SepCol = Tail.rfind(':');
      size_t Sep = SepDot == std::string::npos
                       ? SepCol
                       : (SepCol == std::string::npos
                              ? SepDot
                              : std::max(SepDot, SepCol));
      if (Sep != std::string::npos)
        Tail = Tail.substr(Sep + 1);
      if (C.S && C.E->Reachable && Tail == "read" && Args.size() == 2) {
        const Interval &Len = Args[1].I;
        if (!(Len.isRange() && Len.Lo >= 0 && Len.Hi < Inf))
          C.S->emit("unbounded-read", CallLine,
                    "read length is not provably bounded (" +
                        intervalText(Len) + ")");
      }
      if (!isPureCallee(Tail)) {
        // The callee may mutate by-reference arguments and any object
        // reachable from elsewhere: drop tracked chains, and drop any
        // argument passed as a bare variable name.
        for (auto It = C.E->V.begin(); It != C.E->V.end();)
          if (isChainKey(It->first))
            It = C.E->V.erase(It);
          else
            ++It;
        for (const auto &RG : ArgRanges)
          if (RG.second - RG.first == 1 &&
              Toks[RG.first].TokenKind == Token::Kind::Identifier)
            C.E->V.erase(Toks[RG.first].Text);
      }
      V = untrackedValue();
      continue;
    }
    if (at("++") || at("--")) {
      bool Up = tok().Text == "++";
      ++P;
      if (V.LV.empty()) {
        V = untrackedValue();
        continue;
      }
      Interval NI = Interval::untracked();
      if (V.I.isRange())
        NI = Interval::of(satAdd(V.I.Lo, Up ? 1 : -1),
                          satAdd(V.I.Hi, Up ? 1 : -1));
      if (!isChainKey(V.LV)) {
        IntType DT = declTypeOf(V.LV);
        if (DT.IsInt && NI.isRange() && !intervalLeq(NI, typeRange(DT)))
          NI = typeRange(DT);
      }
      store(V.LV, NI);
      Value Old = V; // Post-inc yields the pre-update value.
      Old.LV.clear();
      V = Old;
      continue;
    }
    break;
  }
  return V;
}

Value ExprParser::parsePrimary() {
  if (done())
    return untrackedValue();
  const Token &T = tok();
  if (T.TokenKind == Token::Kind::Number) {
    std::string S;
    for (char Ch : T.Text)
      if (Ch != '\'')
        S += Ch;
    ++P;
    if (S.find('.') != std::string::npos)
      return untrackedValue();
    int BaseN = 10;
    size_t Off = 0;
    if (S.size() > 2 && S[0] == '0' && (S[1] == 'x' || S[1] == 'X')) {
      BaseN = 16;
      Off = 2;
    } else if (S.size() > 2 && S[0] == '0' && (S[1] == 'b' || S[1] == 'B')) {
      BaseN = 2;
      Off = 2;
    } else if (S.size() > 1 && S[0] == '0' && isdigit((unsigned char)S[1])) {
      BaseN = 8;
      Off = 1;
    }
    if (BaseN == 10 && (S.find('e') != std::string::npos ||
                        S.find('E') != std::string::npos))
      return untrackedValue();
    unsigned long long Acc = 0;
    bool Any = false;
    for (size_t I = Off; I < S.size(); ++I) {
      char Ch = S[I];
      int D;
      if (Ch >= '0' && Ch <= '9')
        D = Ch - '0';
      else if (BaseN == 16 && Ch >= 'a' && Ch <= 'f')
        D = Ch - 'a' + 10;
      else if (BaseN == 16 && Ch >= 'A' && Ch <= 'F')
        D = Ch - 'A' + 10;
      else
        break; // Suffix (u, l, z, ull...).
      if (D >= BaseN)
        return untrackedValue();
      Any = true;
      if (Acc > (unsigned long long)Inf / (unsigned)BaseN)
        return untrackedValue(); // Beyond the sentinel band.
      Acc = Acc * (unsigned)BaseN + (unsigned)D;
      if (Acc > (unsigned long long)Inf)
        return untrackedValue();
    }
    if (!Any)
      return untrackedValue();
    return makeResult(Interval::constant((long long)Acc), 0, -1);
  }
  if (T.TokenKind == Token::Kind::String ||
      T.TokenKind == Token::Kind::CharLit ||
      T.TokenKind == Token::Kind::Directive) {
    ++P;
    return untrackedValue();
  }
  if (T.TokenKind == Token::Kind::Punct) {
    if (at("(")) {
      size_t Close = matchCloseIdx(Toks, P, E, "(", ")");
      if (Close >= E) {
        P = E;
        return untrackedValue();
      }
      IntType CastT = parseTypeTokens(*C.Src, P + 1, Close);
      if (CastT.IsInt && Close + 1 < E) {
        const Token &Nx = Toks[Close + 1];
        bool StartsExpr =
            Nx.TokenKind == Token::Kind::Identifier ||
            Nx.TokenKind == Token::Kind::Number ||
            (Nx.TokenKind == Token::Kind::Punct &&
             (Nx.Text == "(" || Nx.Text == "-" || Nx.Text == "+" ||
              Nx.Text == "~" || Nx.Text == "!" || Nx.Text == "*" ||
              Nx.Text == "&"));
        if (StartsExpr) {
          P = Close + 1;
          Value V = parseUnary();
          Interval CI = convert(V, CastT, true);
          return makeResult(CI, CastT.Width, CastT.Signed ? 1 : 0);
        }
      }
      ++P;
      Value V = parseComma();
      if (at(")"))
        ++P;
      else
        P = Close + 1;
      return V;
    }
    if (at("[")) {
      // Lambda introducer (or an attribute): skip the whole closure.
      skipBalanced("[", "]");
      if (at("("))
        skipBalanced("(", ")");
      while (atIdent("mutable") || atIdent("constexpr") ||
             atIdent("noexcept"))
        ++P;
      if (at("->")) {
        ++P;
        while (P < E && (tok().TokenKind == Token::Kind::Identifier ||
                         at("::") || at("<") || at(">") || at("*") ||
                         at("&")))
          ++P;
      }
      if (at("{"))
        skipBalanced("{", "}");
      return untrackedValue();
    }
    if (at("{")) {
      skipBalanced("{", "}");
      return untrackedValue();
    }
    ++P; // Unexpected punctuation: step over it, stay robust.
    return untrackedValue();
  }
  // Identifier.
  const std::string &S = T.Text;
  if (S == "true") {
    ++P;
    return makeResult(Interval::constant(1), 1, 0);
  }
  if (S == "false") {
    ++P;
    return makeResult(Interval::constant(0), 1, 0);
  }
  if (S == "nullptr" || S == "this") {
    ++P;
    return untrackedValue();
  }
  if (S == "sizeof" || S == "alignof") {
    ++P;
    if (at("("))
      skipBalanced("(", ")");
    else
      parseUnary();
    // sizeof is compile-time constant but type-model dependent; the
    // idiom sizeof(a)/sizeof(a[0]) must stay silent, so: untracked.
    return untrackedValue();
  }
  if (S == "static_cast" || S == "const_cast" || S == "reinterpret_cast" ||
      S == "dynamic_cast") {
    ++P;
    IntType CastT;
    if (at("<")) {
      size_t Close = P;
      int Depth = 0;
      for (; Close < E; ++Close) {
        if (Toks[Close].TokenKind != Token::Kind::Punct)
          continue;
        if (Toks[Close].Text == "<")
          ++Depth;
        else if (Toks[Close].Text == ">" && --Depth == 0)
          break;
      }
      if (Close < E) {
        CastT = parseTypeTokens(*C.Src, P + 1, Close);
        P = Close + 1;
      } else {
        P = E;
        return untrackedValue();
      }
    }
    Value V = untrackedValue();
    if (at("(")) {
      size_t Close = matchCloseIdx(Toks, P, E, "(", ")");
      if (Close >= E) {
        P = E;
        return untrackedValue();
      }
      if (P + 1 < Close) {
        ExprParser Inner(C, P + 1, Close);
        V = Inner.parseComma();
      }
      P = Close + 1;
    }
    if (!CastT.IsInt)
      return untrackedValue();
    Interval CI = convert(V, CastT, true);
    return makeResult(CI, CastT.Width, CastT.Signed ? 1 : 0);
  }
  if (S == "throw" || S == "new" || S == "delete" || S == "co_await" ||
      S == "co_yield") {
    ++P;
    if (!done())
      parseAssign();
    return untrackedValue();
  }
  ++P;
  return loadKey(S);
}

//===----------------------------------------------------------------------===//
// 4. Branch-condition refinement
//===----------------------------------------------------------------------===//

/// Returns the normalized chain key if [B, End) is exactly one
/// lvalue chain (ident, then any mix of .member, ->member, ::member,
/// [subscript]); "" otherwise.
std::string chainKeyOf(const LexedSource &Src, size_t B, size_t End) {
  const std::vector<Token> &Toks = Src.Tokens;
  if (B >= End || Toks[B].TokenKind != Token::Kind::Identifier)
    return "";
  const std::string &Head = Toks[B].Text;
  if (Head == "true" || Head == "false" || Head == "nullptr" ||
      Head == "sizeof" || Head == "this")
    return "";
  std::string Key = Head;
  size_t I = B + 1;
  while (I < End) {
    if (Toks[I].TokenKind != Token::Kind::Punct)
      return "";
    const std::string &Pn = Toks[I].Text;
    if (Pn == "." || Pn == "->" || Pn == "::") {
      if (I + 1 >= End || Toks[I + 1].TokenKind != Token::Kind::Identifier)
        return "";
      Key += (Pn == "::" ? "::" : ".") + Toks[I + 1].Text;
      I += 2;
      continue;
    }
    if (Pn == "[") {
      size_t Close = matchCloseIdx(Toks, I, End, "[", "]");
      if (Close >= End)
        return "";
      Key += "[" + textOf(Toks, I + 1, Close) + "]";
      I = Close + 1;
      continue;
    }
    return "";
  }
  return Key;
}

std::string negateOp(const std::string &Op) {
  if (Op == "<")
    return ">=";
  if (Op == "<=")
    return ">";
  if (Op == ">")
    return "<=";
  if (Op == ">=")
    return "<";
  if (Op == "==")
    return "!=";
  return "==";
}

std::string mirrorOp(const std::string &Op) {
  if (Op == "<")
    return ">";
  if (Op == "<=")
    return ">=";
  if (Op == ">")
    return "<";
  if (Op == ">=")
    return "<=";
  return Op; // == and != are symmetric.
}

void refineKey(EvalCtx &C, Env &R, const std::string &Key,
               const std::string &Op, const Interval &K) {
  if (!K.isRange())
    return;
  if (!isChainKey(Key) && C.AliasKilled->count(Key))
    return;
  Interval Base = Interval::of(-Inf, Inf);
  auto It = R.V.find(Key);
  bool Witnessed = It != R.V.end() && It->second.isRange();
  if (Witnessed) {
    Base = It->second;
  } else if (!isChainKey(Key)) {
    auto DT = C.DeclTypes->find(Key);
    if (DT != C.DeclTypes->end()) {
      Interval TR = typeRange(DT->second);
      if (TR.isRange())
        Base = TR;
    }
  }
  Interval New = Base;
  if (Op == "<" && K.Hi < Inf)
    New = meet(Base, Interval::of(-Inf, K.Hi - 1));
  else if (Op == "<=" && K.Hi < Inf)
    New = meet(Base, Interval::of(-Inf, K.Hi));
  else if (Op == ">" && K.Lo > -Inf)
    New = meet(Base, Interval::of(K.Lo + 1, Inf));
  else if (Op == ">=" && K.Lo > -Inf)
    New = meet(Base, Interval::of(K.Lo, Inf));
  else if (Op == "==")
    New = meet(Base, K);
  else if (Op == "!=" && K.Lo == K.Hi) {
    // Only an endpoint hit gains precision (the lattice has no holes).
    if (Base.Lo == K.Lo && Base.Hi == K.Lo)
      New = Interval::bottom();
    else if (Base.Lo == K.Lo)
      New = Interval::of(K.Lo + 1, Base.Hi);
    else if (Base.Hi == K.Lo)
      New = Interval::of(Base.Lo, K.Lo - 1);
  }
  if (New.isBottom()) {
    R.Reachable = false;
    return;
  }
  // A predicate that did not actually narrow an unwitnessed base adds
  // no information: `Width != 64` on an untracked unsigned must not
  // materialize [0, UINT_MAX] as if it were a proven range.
  if (New.isRange() && !(New.Lo <= -Inf && New.Hi >= Inf) &&
      (Witnessed || New != Base))
    R.V[Key] = New;
}

Interval evalRangeValue(EvalCtx &C, const Env &In, size_t B, size_t End) {
  if (B >= End)
    return Interval::untracked();
  Env Tmp = In;
  EvalCtx C2 = C;
  C2.E = &Tmp;
  C2.S = nullptr;
  ExprParser Pr(C2, B, End);
  return Pr.parseComma().I;
}

/// Refines \p In under the assumption that the condition tokens
/// [B, End) evaluate to Assume. Contradictions mark the result
/// unreachable, which is how dead branch arms get pruned.
Env refineEnv(EvalCtx &C, const Env &In, size_t B, size_t End, bool Assume) {
  Env R = In;
  if (!R.Reachable || B >= End)
    return R;
  const std::vector<Token> &Toks = C.Src->Tokens;
  // Strip a full set of outer parentheses.
  while (B < End && Toks[B].TokenKind == Token::Kind::Punct &&
         Toks[B].Text == "(" &&
         matchCloseIdx(Toks, B, End, "(", ")") == End - 1) {
    ++B;
    --End;
  }
  if (B >= End)
    return R;
  if (Toks[B].TokenKind == Token::Kind::Punct && Toks[B].Text == "!")
    return refineEnv(C, In, B + 1, End, !Assume);
  // Locate the lowest-precedence top-level connective.
  size_t OrIdx = End, AndIdx = End, CmpIdx = End;
  std::string CmpOp;
  int Depth = 0;
  for (size_t I = B; I < End; ++I) {
    const Token &T = Toks[I];
    if (T.TokenKind != Token::Kind::Punct)
      continue;
    if (T.Text == "(" || T.Text == "[" || T.Text == "{" || T.Text == "?") {
      ++Depth;
      continue;
    }
    if (T.Text == ")" || T.Text == "]" || T.Text == "}" ||
        (T.Text == ":" && Depth > 0)) {
      --Depth;
      continue;
    }
    if (Depth != 0)
      continue;
    if (T.Text == "||" && OrIdx == End)
      OrIdx = I;
    else if (T.Text == "&&" && AndIdx == End)
      AndIdx = I;
    else if (CmpIdx == End &&
             (T.Text == "==" || T.Text == "!=" || T.Text == "<" ||
              T.Text == "<=" || T.Text == ">" || T.Text == ">=")) {
      CmpIdx = I;
      CmpOp = T.Text;
    }
  }
  if (OrIdx < End) {
    if (Assume)
      return R; // x || y true: no single fact holds.
    Env Lhs = refineEnv(C, R, B, OrIdx, false);
    return refineEnv(C, Lhs, OrIdx + 1, End, false);
  }
  if (AndIdx < End) {
    if (!Assume)
      return R;
    Env Lhs = refineEnv(C, R, B, AndIdx, true);
    return refineEnv(C, Lhs, AndIdx + 1, End, true);
  }
  if (CmpIdx < End) {
    std::string Op = Assume ? CmpOp : negateOp(CmpOp);
    std::string LK = chainKeyOf(*C.Src, B, CmpIdx);
    std::string RK = chainKeyOf(*C.Src, CmpIdx + 1, End);
    if (!LK.empty()) {
      Interval RV = evalRangeValue(C, In, CmpIdx + 1, End);
      refineKey(C, R, LK, Op, RV);
    }
    if (!RK.empty()) {
      Interval LVV = evalRangeValue(C, In, B, CmpIdx);
      refineKey(C, R, RK, mirrorOp(Op), LVV);
    }
    return R;
  }
  // Bare truthiness test on a single chain.
  std::string CK = chainKeyOf(*C.Src, B, End);
  if (!CK.empty()) {
    if (Assume)
      refineKey(C, R, CK, "!=", Interval::constant(0));
    else
      refineKey(C, R, CK, "==", Interval::constant(0));
  }
  return R;
}

Interval convertValue(EvalCtx &C, const Value &V, const IntType &T,
                      bool ExplicitCast, unsigned Ln) {
  if (!T.IsInt || T.Width == 0)
    return T.IsAuto ? V.I : Interval::untracked();
  // Bottom flows through unchanged: during the interprocedural
  // ascending iteration a not-yet-summarized parameter is bottom, and
  // a cast of it (`(long)Size` in a forwarding wrapper) must stay
  // "contributes nothing", not decay to untracked and poison the join.
  if (V.I.isBottom())
    return V.I;
  if (!V.I.isRange())
    return Interval::untracked();
  Interval Dest = typeRange(T);
  if (intervalLeq(V.I, Dest))
    return V.I;
  // Only flag 16/32-bit destinations: 8-bit truncation is the
  // ubiquitous byte-extraction idiom, and 64-bit cannot lose bits
  // this lattice can see.
  if (C.S && C.E->Reachable && (T.Width == 16 || T.Width == 32)) {
    // A bound that merely restates the source type's own extreme is
    // not a witness of an out-of-range value: `int D` refined only
    // above by `D < 16` still carries Lo == INT_MIN, and flagging
    // `(unsigned)D` on that would indict every int-to-unsigned cast.
    Interval SrcT = Interval::of(-Inf, Inf);
    if (V.Width > 0 && V.Sign >= 0) {
      IntType ST;
      ST.IsInt = true;
      ST.Width = V.Width;
      ST.Signed = V.Sign == 1;
      SrcT = typeRange(ST);
    }
    bool FiniteEscape =
        (V.I.Lo > -Inf && V.I.Lo < Dest.Lo && V.I.Lo != SrcT.Lo) ||
        (V.I.Hi < Inf && V.I.Hi > Dest.Hi && V.I.Hi != SrcT.Hi);
    if (FiniteEscape)
      C.S->emit("narrowing-truncation", Ln,
                std::string("value ") + intervalText(V.I) +
                    " does not fit the " + std::to_string(T.Width) +
                    "-bit " + (T.Signed ? "signed" : "unsigned") +
                    " destination " + (ExplicitCast ? "cast " : "type ") +
                    intervalText(Dest));
  }
  return Dest;
}

//===----------------------------------------------------------------------===//
// 5. Declarations, function prepass, fixpoint, entry points
//===----------------------------------------------------------------------===//

struct Declarator {
  size_t NameIdx = 0;
  size_t InitB = 0, InitE = 0;
  char Kind = 'n'; ///< n one, e "= init", p "(args)", b "{args}", a array.
};

struct DeclInfo {
  bool Valid = false;
  bool RangeFor = false;
  size_t LoopVarIdx = 0;               ///< RangeFor only.
  size_t RangeExprB = 0, RangeExprE = 0; ///< RangeFor only.
  size_t TypeB = 0, TypeE = 0;
  std::vector<Declarator> Ds;
};

bool isPunctAt(const std::vector<Token> &Toks, size_t I, size_t E,
               const char *T) {
  return I < E && Toks[I].TokenKind == Token::Kind::Punct &&
         Toks[I].Text == T;
}

/// Structure of one declaration statement's token range: type prefix,
/// then declarators. Range-based for loop headers (a top-level ':'
/// with no preceding top-level '?') are classified separately.
DeclInfo parseDeclRange(const std::vector<Token> &Toks, size_t B,
                        size_t End) {
  DeclInfo D;
  while (End > B && isPunctAt(Toks, End - 1, End, ";"))
    --End;
  if (B >= End)
    return D;
  int Depth = 0, Quest = 0;
  for (size_t I = B; I < End; ++I) {
    if (Toks[I].TokenKind != Token::Kind::Punct)
      continue;
    const std::string &T = Toks[I].Text;
    if (T == "(" || T == "[" || T == "{")
      ++Depth;
    else if (T == ")" || T == "]" || T == "}")
      --Depth;
    else if (Depth == 0 && T == "?")
      ++Quest;
    else if (Depth == 0 && T == ":") {
      if (Quest > 0) {
        --Quest;
        continue;
      }
      D.Valid = true;
      D.RangeFor = true;
      D.RangeExprB = I + 1;
      D.RangeExprE = End;
      for (size_t J = I; J > B; --J)
        if (Toks[J - 1].TokenKind == Token::Kind::Identifier) {
          D.LoopVarIdx = J - 1;
          break;
        }
      return D;
    }
  }
  // First declarator: the first top-level identifier followed by
  // = , ( { [ or the end of the range.
  Depth = 0;
  size_t Name = End;
  for (size_t I = B; I < End; ++I) {
    const Token &T = Toks[I];
    if (T.TokenKind == Token::Kind::Punct) {
      if (T.Text == "(" || T.Text == "[" || T.Text == "{")
        ++Depth;
      else if (T.Text == ")" || T.Text == "]" || T.Text == "}")
        --Depth;
      continue;
    }
    if (Depth != 0 || T.TokenKind != Token::Kind::Identifier)
      continue;
    if (I + 1 >= End) {
      Name = I;
      break;
    }
    const Token &N = Toks[I + 1];
    if (N.TokenKind == Token::Kind::Punct &&
        (N.Text == "=" || N.Text == "," || N.Text == "(" ||
         N.Text == "{" || N.Text == "[" || N.Text == ";")) {
      Name = I;
      break;
    }
  }
  if (Name >= End)
    return D;
  D.Valid = true;
  D.TypeB = B;
  D.TypeE = Name;
  size_t I = Name;
  while (I < End) {
    Declarator Dc;
    Dc.NameIdx = I;
    ++I;
    if (isPunctAt(Toks, I, End, "[")) {
      size_t Close = matchCloseIdx(Toks, I, End, "[", "]");
      Dc.Kind = 'a';
      I = Close < End ? Close + 1 : End;
      if (isPunctAt(Toks, I, End, "=")) {
        ++I;
        while (I < End && !isPunctAt(Toks, I, End, ",")) {
          if (isPunctAt(Toks, I, End, "(") || isPunctAt(Toks, I, End, "[") ||
              isPunctAt(Toks, I, End, "{"))
            I = matchCloseIdx(Toks, I, End,
                              Toks[I].Text == "(" ? "("
                              : Toks[I].Text == "[" ? "[" : "{",
                              Toks[I].Text == "(" ? ")"
                              : Toks[I].Text == "[" ? "]" : "}");
          if (I < End)
            ++I;
        }
      }
    } else if (isPunctAt(Toks, I, End, "=")) {
      ++I;
      Dc.Kind = 'e';
      Dc.InitB = I;
      int D2 = 0;
      while (I < End) {
        const Token &T = Toks[I];
        if (T.TokenKind == Token::Kind::Punct) {
          if (T.Text == "(" || T.Text == "[" || T.Text == "{")
            ++D2;
          else if (T.Text == ")" || T.Text == "]" || T.Text == "}")
            --D2;
          else if (T.Text == "," && D2 == 0)
            break;
        }
        ++I;
      }
      Dc.InitE = I;
    } else if (isPunctAt(Toks, I, End, "(") || isPunctAt(Toks, I, End, "{")) {
      bool Brace = Toks[I].Text == "{";
      size_t Close = Brace ? matchCloseIdx(Toks, I, End, "{", "}")
                           : matchCloseIdx(Toks, I, End, "(", ")");
      Dc.Kind = Brace ? 'b' : 'p';
      Dc.InitB = I + 1;
      Dc.InitE = Close < End ? Close : End;
      I = Close < End ? Close + 1 : End;
    }
    D.Ds.push_back(Dc);
    if (isPunctAt(Toks, I, End, ",")) {
      ++I;
      while (I < End && Toks[I].TokenKind == Token::Kind::Punct &&
             (Toks[I].Text == "*" || Toks[I].Text == "&" ||
              Toks[I].Text == "&&"))
        ++I;
      if (I >= End || Toks[I].TokenKind != Token::Kind::Identifier)
        break;
      continue;
    }
    break;
  }
  return D;
}

/// Splits a call-argument or init token range at top-level commas.
std::vector<std::pair<size_t, size_t>>
splitArgs(const std::vector<Token> &Toks, size_t B, size_t End) {
  std::vector<std::pair<size_t, size_t>> R;
  if (B >= End)
    return R;
  int Depth = 0;
  size_t Start = B;
  for (size_t I = B; I < End; ++I) {
    const Token &T = Toks[I];
    if (T.TokenKind != Token::Kind::Punct)
      continue;
    if (T.Text == "(" || T.Text == "[" || T.Text == "{")
      ++Depth;
    else if (T.Text == ")" || T.Text == "]" || T.Text == "}")
      --Depth;
    else if (T.Text == "," && Depth == 0) {
      R.emplace_back(Start, I);
      Start = I + 1;
    }
  }
  R.emplace_back(Start, End);
  return R;
}

void transferDecl(EvalCtx &C, size_t B, size_t End) {
  const std::vector<Token> &Toks = C.Src->Tokens;
  DeclInfo D = parseDeclRange(Toks, B, End);
  if (!D.Valid) {
    // A misclassified declaration: evaluate as a plain expression so
    // assignments and rule events are still seen.
    ExprParser Pr(C, B, End);
    Pr.parseComma();
    return;
  }
  if (D.RangeFor) {
    if (D.RangeExprB < D.RangeExprE) {
      ExprParser Pr(C, D.RangeExprB, D.RangeExprE);
      Pr.parseComma();
    }
    C.E->V.erase(Toks[D.LoopVarIdx].Text);
    return;
  }
  IntType T = parseTypeTokens(*C.Src, D.TypeB, D.TypeE);
  for (const Declarator &Dc : D.Ds) {
    const std::string &Name = Toks[Dc.NameIdx].Text;
    Interval St = Interval::untracked();
    if (Dc.Kind == 'e') {
      Value V = untrackedValue();
      if (Dc.InitB < Dc.InitE) {
        ExprParser Pr(C, Dc.InitB, Dc.InitE);
        V = Pr.parseAssign();
      }
      if (!T.IsRef)
        St = convertValue(C, V, T, false, Toks[Dc.NameIdx].Line);
    } else if (Dc.Kind == 'p' || Dc.Kind == 'b') {
      std::vector<std::pair<size_t, size_t>> Args =
          Dc.InitB < Dc.InitE
              ? splitArgs(Toks, Dc.InitB, Dc.InitE)
              : std::vector<std::pair<size_t, size_t>>();
      std::vector<Value> Vals;
      for (const auto &A : Args) {
        if (A.first >= A.second)
          continue;
        ExprParser Pr(C, A.first, A.second);
        Vals.push_back(Pr.parseAssign());
      }
      if (!T.IsRef && T.IsInt) {
        if (Vals.size() == 1)
          St = convertValue(C, Vals[0], T, false, Toks[Dc.NameIdx].Line);
        else if (Vals.empty() && Dc.Kind == 'b')
          St = Interval::constant(0); // T{} value-initializes.
      }
    }
    // A reference target is tracked by the alias-kill prepass; the
    // reference name itself is never tracked.
    if (T.IsRef)
      St = Interval::untracked();
    if (C.E->V.count(Name) || St.isRange()) {
      if (St.isRange())
        C.E->V[Name] = St;
      else
        C.E->V.erase(Name);
    }
  }
}

void transferAction(EvalCtx &C, const Action &A) {
  switch (A.ActionKind) {
  case Action::Kind::Decl:
    if (A.Begin < A.End)
      transferDecl(C, A.Begin, A.End);
    break;
  case Action::Kind::Expr:
  case Action::Kind::Cond:
  case Action::Kind::Return:
    if (A.Begin < A.End) {
      ExprParser Pr(C, A.Begin, A.End);
      Pr.parseComma();
    }
    break;
  case Action::Kind::ScopeEnd:
    break;
  }
}

/// One parameter as recovered from a parameter-list token range.
struct ParamDecl {
  std::string Name; ///< Empty for unnamed parameters.
  IntType Type;
  size_t DefB = 0, DefE = 0; ///< Default-argument tokens, if any.
};

std::vector<ParamDecl> parseParams(const LexedSource &Src, size_t B,
                                   size_t End) {
  const std::vector<Token> &Toks = Src.Tokens;
  std::vector<ParamDecl> R;
  if (B >= End)
    return R;
  // Split at top-level commas, counting <> as nesting too (template
  // arguments appear in parameter types, never comparisons).
  std::vector<std::pair<size_t, size_t>> Parts;
  int Depth = 0;
  size_t Start = B;
  for (size_t I = B; I < End; ++I) {
    const Token &T = Toks[I];
    if (T.TokenKind != Token::Kind::Punct)
      continue;
    if (T.Text == "(" || T.Text == "[" || T.Text == "{" || T.Text == "<")
      ++Depth;
    else if (T.Text == ")" || T.Text == "]" || T.Text == "}" ||
             T.Text == ">")
      --Depth;
    else if (T.Text == ">>")
      Depth -= 2;
    else if (T.Text == "," && Depth == 0) {
      Parts.emplace_back(Start, I);
      Start = I + 1;
    }
  }
  Parts.emplace_back(Start, End);
  for (const auto &Pt : Parts) {
    ParamDecl P;
    size_t PB = Pt.first, PE = Pt.second;
    size_t Eq = PE;
    Depth = 0;
    for (size_t I = PB; I < PE; ++I) {
      const Token &T = Toks[I];
      if (T.TokenKind != Token::Kind::Punct)
        continue;
      if (T.Text == "(" || T.Text == "[" || T.Text == "{")
        ++Depth;
      else if (T.Text == ")" || T.Text == "]" || T.Text == "}")
        --Depth;
      else if (T.Text == "=" && Depth == 0) {
        Eq = I;
        break;
      }
    }
    if (Eq < PE) {
      P.DefB = Eq + 1;
      P.DefE = PE;
    }
    size_t NameIdx = PE;
    for (size_t I = Eq; I > PB; --I)
      if (Toks[I - 1].TokenKind == Token::Kind::Identifier) {
        NameIdx = I - 1;
        break;
      }
    if (NameIdx < PE) {
      const std::string &Cand = Toks[NameIdx].Text;
      int W;
      bool Sg;
      bool TypeWord = isTypeQualifier(Cand) || Cand == "int" ||
                      Cand == "long" || Cand == "short" ||
                      Cand == "unsigned" || Cand == "signed" ||
                      Cand == "auto" || Cand == "void" || Cand == "float" ||
                      Cand == "double" || namedIntType(Cand, W, Sg);
      if (!TypeWord) {
        P.Name = Cand;
        P.Type = parseTypeTokens(Src, PB, NameIdx);
      }
    }
    if (P.Name.empty() && PB < PE)
      P.Type = parseTypeTokens(Src, PB, PE);
    R.push_back(P);
  }
  return R;
}

/// Per-function facts the fixpoint needs: the declared locals (for
/// join scoping), their types, parameters in order, and the names
/// whose value can change through an alias the evaluator cannot see
/// (address taken, bound to a reference, touched inside a lambda).
struct FnInfo {
  std::set<std::string> Locals;
  std::map<std::string, IntType> DeclTypes;
  std::set<std::string> AliasKilled;
  std::vector<ParamDecl> Params;
};

bool isCallKeyword(const std::string &S) {
  return S == "return" || S == "case" || S == "throw" || S == "if" ||
         S == "while" || S == "for" || S == "switch" || S == "do" ||
         S == "else" || S == "goto" || S == "co_return";
}

FnInfo collectFnInfo(const LexedSource &Src, const Function &Fn,
                     const Cfg &G,
                     const std::vector<std::pair<size_t, size_t>> *Lambdas) {
  FnInfo Info;
  const std::vector<Token> &Toks = Src.Tokens;
  Info.Params = parseParams(Src, Fn.ParamBegin, Fn.ParamEnd);
  for (const ParamDecl &P : Info.Params) {
    if (P.Name.empty())
      continue;
    Info.Locals.insert(P.Name);
    Info.DeclTypes[P.Name] = P.Type;
    if (P.Type.IsRef)
      Info.AliasKilled.insert(P.Name); // Callers alias the referent.
  }
  size_t SpanB = Toks.size(), SpanE = 0;
  for (const BasicBlock &BB : G.Blocks)
    for (const Action &A : BB.Actions) {
      SpanB = std::min(SpanB, A.Begin);
      SpanE = std::max(SpanE, A.End);
      if (A.ActionKind != Action::Kind::Decl || A.Begin >= A.End)
        continue;
      DeclInfo D = parseDeclRange(Toks, A.Begin, A.End);
      if (!D.Valid)
        continue;
      if (D.RangeFor) {
        Info.Locals.insert(Toks[D.LoopVarIdx].Text);
        continue;
      }
      IntType T = parseTypeTokens(Src, D.TypeB, D.TypeE);
      for (const Declarator &Dc : D.Ds) {
        const std::string &Name = Toks[Dc.NameIdx].Text;
        Info.Locals.insert(Name);
        Info.DeclTypes[Name] = T;
        if (T.IsRef && Dc.Kind == 'e') {
          std::string Key = chainKeyOf(Src, Dc.InitB, Dc.InitE);
          if (!Key.empty()) {
            size_t Sep = Key.find_first_of(".[:");
            Info.AliasKilled.insert(Sep == std::string::npos
                                        ? Key
                                        : Key.substr(0, Sep));
          }
        }
      }
    }
  // Address-of: `&x` where the & cannot be a binary operator.
  for (const BasicBlock &BB : G.Blocks)
    for (const Action &A : BB.Actions)
      for (size_t I = A.Begin; I + 1 < A.End && I + 1 < Toks.size(); ++I) {
        if (Toks[I].TokenKind != Token::Kind::Punct ||
            Toks[I].Text != "&" ||
            Toks[I + 1].TokenKind != Token::Kind::Identifier)
          continue;
        bool Binary = false;
        if (I > A.Begin) {
          const Token &Pv = Toks[I - 1];
          if (Pv.TokenKind == Token::Kind::Number ||
              (Pv.TokenKind == Token::Kind::Identifier &&
               !isCallKeyword(Pv.Text)) ||
              (Pv.TokenKind == Token::Kind::Punct &&
               (Pv.Text == ")" || Pv.Text == "]")))
            Binary = true;
        }
        if (!Binary)
          Info.AliasKilled.insert(Toks[I + 1].Text);
      }
  // Any local named inside a nested lambda body may be captured by
  // reference and mutated there; stop tracking it entirely.
  if (Lambdas)
    for (const auto &LB : *Lambdas) {
      if (LB.first < SpanB || LB.second > SpanE)
        continue;
      for (size_t I = LB.first; I < LB.second && I < Toks.size(); ++I)
        if (Toks[I].TokenKind == Token::Kind::Identifier &&
            Info.Locals.count(Toks[I].Text))
          Info.AliasKilled.insert(Toks[I].Text);
    }
  return Info;
}

constexpr unsigned WidenDelay = 20; ///< Env changes before widening.
constexpr unsigned HardCap = 160;   ///< Absolute per-block backstop.

/// Runs the interval fixpoint over one function; emits findings
/// through \p S (replay pass) when non-null, and returns the exit
/// environment when \p ExitOut is non-null.
void analyzeFunction(const LexedSource &Src, const Function &Fn,
                     const std::vector<std::pair<size_t, size_t>> *Lambdas,
                     const LintContext &Ctx, Sink *S, Env *ExitOut) {
  if (!Fn.Body)
    return;
  Cfg G = buildCfg(Fn);
  FnInfo Info = collectFnInfo(Src, Fn, G, Lambdas);

  Env Entry;
  Entry.Reachable = true;
  auto FIt = Ctx.ParamIntervals.find(Fn.Name);
  if (FIt != Ctx.ParamIntervals.end())
    for (const auto &IdxIv : FIt->second) {
      if (IdxIv.first >= Info.Params.size())
        continue;
      const ParamDecl &P = Info.Params[IdxIv.first];
      if (P.Name.empty() || Info.AliasKilled.count(P.Name))
        continue;
      Interval I = meet(Interval::of(IdxIv.second.Lo, IdxIv.second.Hi),
                        typeRange(P.Type));
      if (I.isRange())
        Entry.V[P.Name] = I;
    }

  size_t N = G.Blocks.size();
  std::vector<Env> In(N);
  std::vector<unsigned> Visits(N, 0);
  std::vector<char> Queued(N, 0);
  In[Cfg::Entry] = Entry;

  // Reverse-postorder worklist: every forward predecessor of a join
  // contributes before the join is processed, so the widening-delay
  // counter only ticks on genuine loop cycling. A plain LIFO worklist
  // can spin a loop to the widening threshold before an unprocessed
  // if-arm ever reaches the head, widening loop-invariant keys
  // against a stale pre-join value.
  std::vector<unsigned> RpoIdx(N, 0);
  {
    std::vector<size_t> Post;
    std::vector<char> Seen(N, 0);
    std::vector<std::pair<size_t, size_t>> Stack{{Cfg::Entry, 0}};
    Seen[Cfg::Entry] = 1;
    while (!Stack.empty()) {
      auto &[B, NextSucc] = Stack.back();
      if (NextSucc < G.Blocks[B].Succs.size()) {
        size_t Sc = G.Blocks[B].Succs[NextSucc++];
        if (!Seen[Sc]) {
          Seen[Sc] = 1;
          Stack.emplace_back(Sc, 0);
        }
      } else {
        Post.push_back(B);
        Stack.pop_back();
      }
    }
    for (size_t I = 0; I < Post.size(); ++I)
      RpoIdx[Post[I]] = (unsigned)(Post.size() - 1 - I);
  }

  std::set<std::pair<unsigned, size_t>> WL{{RpoIdx[Cfg::Entry], Cfg::Entry}};
  Queued[Cfg::Entry] = 1;
  while (!WL.empty()) {
    size_t B = WL.begin()->second;
    WL.erase(WL.begin());
    Queued[B] = 0;
    if (!In[B].Reachable)
      continue;
    Env Out = In[B];
    EvalCtx EC;
    EC.Src = &Src;
    EC.E = &Out;
    EC.DeclTypes = &Info.DeclTypes;
    EC.Locals = &Info.Locals;
    EC.AliasKilled = &Info.AliasKilled;
    EC.S = nullptr;
    for (const Action &A : G.Blocks[B].Actions)
      transferAction(EC, A);
    const BasicBlock &BB = G.Blocks[B];
    bool Refine = !BB.Actions.empty() &&
                  BB.Actions.back().ActionKind == Action::Kind::Cond &&
                  BB.Succs.size() == 2 && BB.Actions.back().S &&
                  BB.Actions.back().S->Kind != StmtKind::Switch;
    Interval CondV = Interval::untracked();
    if (Refine) {
      const Action &CA = BB.Actions.back();
      CondV = evalRangeValue(EC, Out, CA.Begin, CA.End);
    }
    for (size_t SI = 0; SI < BB.Succs.size(); ++SI) {
      Env Edge = Out;
      if (Refine) {
        const Action &CA = BB.Actions.back();
        // Succs[0] is the true/body edge, Succs[1] the false/after
        // edge (verified against the CFG builder's emission order).
        bool Assume = SI == 0;
        if (CondV.isRange() && !CondV.contains(0) && !Assume)
          Edge.Reachable = false;
        else if (CondV.isRange() && CondV.Lo == 0 && CondV.Hi == 0 &&
                 Assume)
          Edge.Reachable = false;
        else
          Edge = refineEnv(EC, Out, CA.Begin, CA.End, Assume);
      }
      if (!Edge.Reachable)
        continue;
      size_t Tg = BB.Succs[SI];
      Env NewIn = joinEnv(In[Tg], Edge, Info.Locals);
      if (Visits[Tg] > WidenDelay && In[Tg].Reachable) {
        Env Wd;
        Wd.Reachable = true;
        for (const auto &KV : NewIn.V) {
          auto Old = In[Tg].V.find(KV.first);
          Interval W = widen(Old != In[Tg].V.end() ? Old->second
                                                   : Interval::bottom(),
                             KV.second);
          if (W.isRange())
            Wd.V[KV.first] = W;
        }
        NewIn = Wd;
      }
      if (Visits[Tg] > HardCap)
        NewIn.V.clear();
      if (!envEqual(NewIn, In[Tg])) {
        In[Tg] = NewIn;
        ++Visits[Tg];
        if (!Queued[Tg]) {
          Queued[Tg] = 1;
          WL.insert({RpoIdx[Tg], Tg});
        }
      }
    }
  }

  if (S)
    for (size_t B = 0; B < N; ++B) {
      if (!In[B].Reachable)
        continue;
      Env Cur = In[B];
      EvalCtx EC;
      EC.Src = &Src;
      EC.E = &Cur;
      EC.DeclTypes = &Info.DeclTypes;
      EC.Locals = &Info.Locals;
      EC.AliasKilled = &Info.AliasKilled;
      EC.S = S;
      for (const Action &A : G.Blocks[B].Actions)
        transferAction(EC, A);
    }
  if (ExitOut)
    *ExitOut = In[Cfg::Exit];
}

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

const std::vector<RuleInfo> &valueRangeRuleInfos() {
  static const std::vector<RuleInfo> Rules = {
      {"shift-width",
       "shift amounts must be provably below the operand width",
       "Shifting by an amount >= the promoted operand width (or by a "
       "negative amount) is undefined behavior, and the RAP hot path is "
       "full of range-bits shifts ((1 << RangeBits), prefix masks) "
       "where a miscomputed width silently corrupts every range "
       "boundary afterwards. The rule fires only when the interval "
       "engine TRACKS the amount (from literals, declared types, "
       "branch refinement or interprocedural argument ranges) and "
       "cannot prove it below the width; an unbounded amount of "
       "unknown provenance stays silent. Fix by clamping or guarding "
       "the amount (`if (Bits < 64)`) so the refined interval proves "
       "the bound, or suppress with // rap-lint: allow(shift-width) "
       "and a comment citing the external invariant."},
      {"narrowing-truncation",
       "provably-lossy integer conversions to 16/32-bit types",
       "A conversion whose tracked source interval has a finite bound "
       "outside the destination type's range provably wraps for some "
       "reachable value — exactly how a 64-bit event count silently "
       "truncates into a 32-bit counter field. Unlike -Wconversion "
       "this is value-based: a guarded conversion (`if (N < 65536)`) "
       "refines the interval and is clean. 8-bit destinations are "
       "exempt (byte extraction is idiomatic) and 64-bit ones cannot "
       "lose tracked bits. Fix by widening the destination, masking "
       "explicitly, or guarding the range; suppress with "
       "// rap-lint: allow(narrowing-truncation) when wraparound is "
       "intended."},
      {"unbounded-read",
       "serialization read lengths must be provably bounded",
       "A two-argument read(buffer, length) whose length operand is "
       "not a tracked non-negative finite interval can be driven past "
       "the buffer by corrupt or adversarial snapshot input — the "
       "classic deserialization overflow. The interprocedural prescan "
       "propagates literal-fed argument ranges, so a helper that "
       "always receives read(ptr, 4..8) from the v1-v4 snapshot "
       "readers is clean without annotations. Fix by clamping the "
       "length against the remaining-input bound before reading, or "
       "suppress with // rap-lint: allow(unbounded-read) citing the "
       "validated framing that bounds it."},
      {"div-by-zero",
       "divisors whose interval contains zero on some path",
       "An integer division or remainder whose tracked divisor "
       "interval contains 0 divides by zero on at least one reachable "
       "path — undefined behavior that UBSan only catches if the "
       "fuzzer finds the path first. Eps/log budget math in the "
       "admission controller divides by derived quantities that are "
       "zero until the tree warms up, so the guard must dominate the "
       "division. Fix by guarding (`if (Q) X / Q`) or restructuring so "
       "the divisor's refined interval excludes zero; suppress with "
       "// rap-lint: allow(div-by-zero) only with an argument why the "
       "value cannot be zero at runtime."},
  };
  return Rules;
}

void runValueRangeRules(const std::string &Path, const LexedSource &Src,
                        const ParsedFile &Parsed, const LintContext &Ctx,
                        std::vector<Finding> &Out) {
  Sink S;
  S.Path = &Path;
  S.Out = &Out;
  for (const auto &Fn : Parsed.Functions)
    analyzeFunction(Src, *Fn, &Parsed.LambdaBodies, Ctx, &S, nullptr);
}

std::map<std::string, Interval>
intervalsAtExit(const LexedSource &Src, const Function &Fn,
                const LintContext &Ctx) {
  Env Exit;
  analyzeFunction(Src, Fn, nullptr, Ctx, nullptr, &Exit);
  return Exit.V;
}

void collectParamIntervals(const std::vector<AuditFile> &Files,
                           LintContext &Ctx) {
  struct FileData {
    LexedSource Src;
    ParsedFile Parsed;
    /// (function, straight-line action token ranges) pairs.
    std::vector<std::pair<const Function *,
                          std::vector<std::pair<size_t, size_t>>>>
        FnActions;
  };
  std::vector<FileData> FD;
  FD.reserve(Files.size());
  for (const AuditFile &F : Files) {
    FileData D;
    D.Src = lex(F.Content);
    D.Parsed = parseFile(D.Src);
    for (const auto &FnP : D.Parsed.Functions) {
      if (!FnP->Body)
        continue;
      Cfg G = buildCfg(*FnP);
      D.FnActions.emplace_back(FnP.get(),
                               std::vector<std::pair<size_t, size_t>>());
      std::vector<std::pair<size_t, size_t>> &Ranges = D.FnActions.back().second;
      for (const BasicBlock &BB : G.Blocks)
        for (const Action &A : BB.Actions)
          if (A.Begin < A.End)
            Ranges.emplace_back(A.Begin, A.End);
    }
    FD.push_back(std::move(D));
  }

  // Function definitions by unqualified name. A name defined twice
  // (overloads, same-named methods of different classes) would make
  // index-wise joining meaningless, so it is excluded outright.
  struct DefnInfo {
    std::vector<ParamDecl> Params;
    const LexedSource *Src = nullptr;
  };
  std::map<std::string, DefnInfo> Defns;
  std::set<std::string> Unsafe;
  for (const auto &D : FD)
    for (const auto &FnA : D.FnActions) {
      const Function *Fn = FnA.first;
      if (Fn->IsLambda)
        continue;
      if (Defns.count(Fn->Name)) {
        Unsafe.insert(Fn->Name);
        continue;
      }
      DefnInfo DI;
      DI.Params = parseParams(D.Src, Fn->ParamBegin, Fn->ParamEnd);
      DI.Src = &D.Src;
      Defns.emplace(Fn->Name, std::move(DI));
    }

  // A defined function's name appearing anywhere NOT followed by '('
  // means its address may be taken (callback, member pointer, type
  // mention) — the observed call graph is incomplete for it.
  for (const auto &D : FD) {
    const std::vector<Token> &Toks = D.Src.Tokens;
    for (size_t I = 0; I < Toks.size(); ++I) {
      if (Toks[I].TokenKind != Token::Kind::Identifier ||
          !Defns.count(Toks[I].Text))
        continue;
      if (!isPunctAt(Toks, I + 1, Toks.size(), "("))
        Unsafe.insert(Toks[I].Text);
    }
  }

  // One matching rule for call sites, used both for the called-at-all
  // prescan and the per-round argument joins: identifier followed by
  // '(' whose previous token is not a plain (non-keyword) identifier
  // and not * or & — those spell declarations and address-taking.
  auto isCallSite = [](const std::vector<Token> &Toks, size_t I,
                       size_t RgB) {
    if (I > RgB) {
      const Token &Pv = Toks[I - 1];
      if (Pv.TokenKind == Token::Kind::Identifier && !isCallKeyword(Pv.Text))
        return false;
      if (Pv.TokenKind == Token::Kind::Punct &&
          (Pv.Text == "*" || Pv.Text == "&" || Pv.Text == "~"))
        return false;
    }
    return true;
  };

  // Functions observed called at least once. A defined function with
  // NO observed site is an entry point (main, registered test) whose
  // parameters must stay unconstrained — and with one observed site
  // its summary starts ascending from bottom instead.
  std::set<std::string> Called;
  for (const auto &D : FD) {
    const std::vector<Token> &Toks = D.Src.Tokens;
    for (const auto &FnA : D.FnActions)
      for (const auto &Rg : FnA.second)
        for (size_t I = Rg.first; I + 1 < Rg.second; ++I)
          if (Toks[I].TokenKind == Token::Kind::Identifier &&
              isPunctAt(Toks, I + 1, Rg.second, "(") &&
              Defns.count(Toks[I].Text) && isCallSite(Toks, I, Rg.first))
            Called.insert(Toks[I].Text);
  }

  // Ascending Kleene iteration: argument intervals are joined over
  // every observed site, evaluating each argument under the CALLER's
  // current parameter summary (bottom-started, so a forwarded length
  // contributes nothing until its own summary materializes). Only a
  // reached fixpoint is sound, so if the round cap trips (it does not
  // on real trees — literal-fed chains are shallow) everything is
  // discarded rather than exported half-converged.
  std::map<std::string, std::map<unsigned, Interval>> Sum;
  bool Converged = false;
  for (int Round = 0; Round < 24 && !Converged; ++Round) {
    std::map<std::string, std::map<unsigned, Interval>> Next;
    for (const auto &D : FD) {
      const std::vector<Token> &Toks = D.Src.Tokens;
      for (const auto &FnA : D.FnActions) {
        const Function *Caller = FnA.first;
        std::vector<ParamDecl> CallerParams =
            parseParams(D.Src, Caller->ParamBegin, Caller->ParamEnd);
        Env E;
        E.Reachable = true;
        std::map<std::string, IntType> DTypes;
        std::set<std::string> Locals;
        std::set<std::string> NoAlias;
        bool Eligible = !Caller->IsLambda && Defns.count(Caller->Name) &&
                        !Unsafe.count(Caller->Name) &&
                        Called.count(Caller->Name);
        for (size_t Pi = 0; Pi < CallerParams.size(); ++Pi) {
          const ParamDecl &P = CallerParams[Pi];
          if (P.Name.empty())
            continue;
          Locals.insert(P.Name);
          DTypes[P.Name] = P.Type;
          if (!Eligible || P.Type.IsRef)
            continue;
          Interval I = Interval::bottom();
          auto SIt = Sum.find(Caller->Name);
          if (SIt != Sum.end()) {
            auto PIt = SIt->second.find((unsigned)Pi);
            if (PIt != SIt->second.end())
              I = PIt->second;
          }
          E.V[P.Name] = I;
        }
        EvalCtx EC;
        EC.Src = &D.Src;
        EC.E = &E;
        EC.DeclTypes = &DTypes;
        EC.Locals = &Locals;
        EC.AliasKilled = &NoAlias;
        EC.S = nullptr;
        for (const auto &Rg : FnA.second)
          for (size_t I = Rg.first; I + 1 < Rg.second; ++I) {
            if (Toks[I].TokenKind != Token::Kind::Identifier ||
                !isPunctAt(Toks, I + 1, Rg.second, "("))
              continue;
            auto DIt = Defns.find(Toks[I].Text);
            if (DIt == Defns.end() || Unsafe.count(Toks[I].Text) ||
                !isCallSite(Toks, I, Rg.first))
              continue;
            size_t Close = matchCloseIdx(Toks, I + 1, Rg.second, "(", ")");
            if (Close >= Rg.second)
              continue;
            std::vector<std::pair<size_t, size_t>> Args;
            if (I + 2 < Close)
              Args = splitArgs(Toks, I + 2, Close);
            const DefnInfo &DI = DIt->second;
            auto &Slot = Next[Toks[I].Text];
            for (size_t Ai = 0; Ai < DI.Params.size(); ++Ai) {
              Interval AV = Interval::untracked();
              if (Ai < Args.size() && Args[Ai].first < Args[Ai].second) {
                Env Tmp = E;
                EvalCtx EC2 = EC;
                EC2.E = &Tmp;
                ExprParser Pr(EC2, Args[Ai].first, Args[Ai].second);
                AV = Pr.parseAssign().I;
              } else if (DI.Params[Ai].DefB < DI.Params[Ai].DefE) {
                Env Tmp;
                Tmp.Reachable = true;
                std::map<std::string, IntType> DT2;
                std::set<std::string> L2, A2;
                EvalCtx EC3;
                EC3.Src = DI.Src;
                EC3.E = &Tmp;
                EC3.DeclTypes = &DT2;
                EC3.Locals = &L2;
                EC3.AliasKilled = &A2;
                EC3.S = nullptr;
                ExprParser Pr(EC3, DI.Params[Ai].DefB, DI.Params[Ai].DefE);
                AV = Pr.parseAssign().I;
              }
              auto SlotIt = Slot.find((unsigned)Ai);
              if (SlotIt == Slot.end())
                Slot.emplace((unsigned)Ai, AV);
              else
                SlotIt->second = join(SlotIt->second, AV);
            }
          }
      }
    }
    // Plain joins for the first rounds (exact literal-fed chains
    // converge there), then per-slot widening: a summary still
    // climbing after that many rounds is growing through arithmetic
    // (f(n + 1)-style recursion) and jumps to its sentinel bound, so
    // the iteration always terminates inside the round cap instead of
    // discarding the whole tree's summaries.
    if (Round >= 7)
      for (auto &FnKV : Next)
        for (auto &IdxKV : FnKV.second) {
          Interval Prev = Interval::bottom();
          auto SIt = Sum.find(FnKV.first);
          if (SIt != Sum.end()) {
            auto PIt = SIt->second.find(IdxKV.first);
            if (PIt != SIt->second.end())
              Prev = PIt->second;
          }
          IdxKV.second = widen(Prev, IdxKV.second);
        }
    Converged = Next == Sum;
    Sum.swap(Next);
  }
  if (!Converged)
    return;

  for (const auto &FnKV : Sum) {
    if (Unsafe.count(FnKV.first))
      continue;
    auto DIt = Defns.find(FnKV.first);
    if (DIt == Defns.end())
      continue;
    for (const auto &IdxKV : FnKV.second) {
      if (!IdxKV.second.isRange() || IdxKV.first >= DIt->second.Params.size())
        continue;
      const ParamDecl &P = DIt->second.Params[IdxKV.first];
      if (P.Type.IsRef)
        continue;
      Interval I = meet(IdxKV.second, typeRange(P.Type));
      if (!I.isRange() || (I.Lo <= -Inf && I.Hi >= Inf))
        continue;
      Ctx.ParamIntervals[FnKV.first][IdxKV.first] =
          ParamInterval{I.Lo, I.Hi};
    }
  }
}

} // namespace lint
} // namespace rap
