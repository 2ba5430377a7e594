//===- lint/Parser.h - Statement parser for the RAP linter ----*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight C++ statement parser on top of lint::Lexer. It
/// recovers just enough structure for flow-aware rules: function
/// definitions (including lambdas and class methods), the statement
/// tree inside each body (compounds, branches, loops, switch labels,
/// goto/label, try/catch), and per-file function signatures.
///
/// Like the lexer it is not a compiler front end: declarations it
/// cannot classify degrade to opaque expression statements, and a
/// construct it misparses costs a rule a match, never a false finding
/// fabricated from thin air. Statements reference tokens by index
/// into the LexedSource they were parsed from, which must outlive the
/// ParsedFile.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_LINT_PARSER_H
#define RAP_LINT_PARSER_H

#include "lint/Lexer.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace rap {
namespace lint {

/// Statement kinds the parser distinguishes.
enum class StmtKind {
  Compound,  ///< { ... }; Children are the statements in order.
  If,        ///< Expr = condition; Children[0] then, Children[1] else?
  While,     ///< Expr = condition; Children[0] body.
  DoWhile,   ///< Children[0] body; Expr = condition.
  For,       ///< Init/Expr(cond)/Inc header ranges; Children[0] body.
  Switch,    ///< Expr = condition; Children[0] body compound.
  CaseLabel, ///< `case X:` / `default:` marker; Name is the spelling.
  Return,    ///< Expr = returned expression (may be empty).
  Break,     ///< No payload.
  Continue,  ///< No payload.
  Goto,      ///< Name = target label.
  Label,     ///< `name:` marker; Name = label.
  Try,       ///< Children[0] body, Children[1..] Catch handlers.
  Catch,     ///< Expr = exception declaration; Children[0] body.
  Expr,      ///< Expression statement; Expr = full token range.
  Decl,      ///< Declaration statement; Expr = full token range.
};

/// One parsed statement. Token positions are half-open index ranges
/// into the LexedSource's token vector.
struct Stmt {
  StmtKind Kind;
  unsigned Line = 0; ///< Line of the statement's first token.
  size_t ExprBegin = 0, ExprEnd = 0; ///< Condition / full expression.
  size_t InitBegin = 0, InitEnd = 0; ///< `for` init (or range decl).
  size_t IncBegin = 0, IncEnd = 0;   ///< `for` increment.
  /// Range-based for: Init is the loop declaration, which re-binds on
  /// EVERY iteration (the CFG emits it inside the loop body).
  bool RangeFor = false;
  std::string Name; ///< Label / goto target / case spelling.
  std::vector<std::unique_ptr<Stmt>> Children;
};

/// One function definition with a parsed body.
struct Function {
  std::string Name; ///< Unqualified; lambdas get "<lambda@LINE>".
  unsigned Line = 0;
  size_t ParamBegin = 0, ParamEnd = 0; ///< Tokens inside the parens.
  bool IsLambda = false;
  std::unique_ptr<Stmt> Body; ///< Always a Compound.
};

/// A function signature (declaration or definition) seen at namespace
/// or class scope, for per-file return-type lookups.
struct Signature {
  std::string Name;
  std::string ReturnType; ///< Leading type tokens joined by spaces.
  unsigned Line = 0;
  bool IsDefinition = false;
  bool AtClassScope = false; ///< Defined/declared inside a class body.
  bool MarkedInline = false; ///< inline/constexpr/static/template/...
};

/// Everything the parser recovers from one file.
struct ParsedFile {
  std::vector<std::unique_ptr<Function>> Functions; ///< Incl. lambdas.
  std::vector<Signature> Signatures;
  /// Token ranges of lambda bodies, so expression scans over an
  /// enclosing statement can mask out nested-function tokens.
  std::vector<std::pair<size_t, size_t>> LambdaBodies;
};

/// Parses \p Src. Never fails; unparseable regions produce no
/// functions rather than bogus ones.
ParsedFile parseFile(const LexedSource &Src);

} // namespace lint
} // namespace rap

#endif // RAP_LINT_PARSER_H
