//===- lint/Parser.cpp - Statement parser for the RAP linter -------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lint/Parser.h"

#include <set>

using namespace rap;
using namespace rap::lint;

namespace {

bool isPunct(const Token &T, const char *Spelling) {
  return T.TokenKind == Token::Kind::Punct && T.Text == Spelling;
}

bool isIdent(const Token &T, const char *Name) {
  return T.TokenKind == Token::Kind::Identifier && T.Text == Name;
}

bool isKeyword(const std::string &Name) {
  static const std::set<std::string> Keywords = {
      "if",       "else",     "while",   "do",        "for",
      "switch",   "case",     "default", "return",    "break",
      "continue", "goto",     "try",     "catch",     "throw",
      "new",      "delete",   "sizeof",  "alignof",   "typeid",
      "class",    "struct",   "union",   "enum",      "namespace",
      "template", "typename", "using",   "typedef",   "operator",
      "public",   "private",  "protected", "friend",  "static_assert",
      "int",      "unsigned", "signed",  "long",      "short",
      "char",     "bool",     "float",   "double",    "void",
      "auto",     "const",    "volatile", "constexpr", "consteval",
      "constinit", "static",  "inline",  "extern",    "mutable",
      "virtual",  "explicit", "noexcept", "decltype", "requires",
      "co_return", "co_await", "co_yield", "this",    "nullptr",
      "true",     "false",    "and",     "or",        "not"};
  return Keywords.count(Name) != 0;
}

/// Specifier keywords that may precede a declaration without being
/// part of the return type proper.
bool isDeclSpecifier(const std::string &Name) {
  static const std::set<std::string> Specifiers = {
      "static",   "inline",   "constexpr", "consteval", "constinit",
      "virtual",  "explicit", "extern",    "friend",    "typedef",
      "mutable",  "RAP_NOEXCEPT"};
  return Specifiers.count(Name) != 0;
}

/// Type keywords that make a statement-position token sequence a
/// declaration head.
bool isTypeKeyword(const std::string &Name) {
  static const std::set<std::string> Types = {
      "int",    "unsigned", "signed", "long",  "short",   "char",
      "bool",   "float",    "double", "void",  "auto",    "const",
      "volatile"};
  return Types.count(Name) != 0;
}

class ParserImpl {
public:
  explicit ParserImpl(const LexedSource &Source)
      : Src(Source), T(Source.Tokens) {}

  ParsedFile run() {
    scanDeclScope(0, T.size(), /*AtClassScope=*/false);
    return std::move(Out);
  }

private:
  const LexedSource &Src;
  const std::vector<Token> &T;
  ParsedFile Out;

  //===--------------------------------------------------------------===//
  // Token utilities
  //===--------------------------------------------------------------===//

  /// Index of the token past the close matching the opener at \p I
  /// (which must be the opener), or \p End if unbalanced.
  size_t skipMatched(size_t I, size_t End, const char *Open,
                     const char *Close) const {
    unsigned Depth = 0;
    for (; I < End; ++I) {
      if (isPunct(T[I], Open))
        ++Depth;
      else if (isPunct(T[I], Close) && --Depth == 0)
        return I + 1;
    }
    return End;
  }

  /// Skips a template argument block starting at `<`. Treats `>>` as
  /// two closers; gives up (returns \p I + 1) if no closer is found
  /// within the statement, so comparison operators cannot derail us.
  size_t skipAngles(size_t I, size_t End) const {
    unsigned Depth = 0;
    for (size_t J = I; J < End; ++J) {
      if (isPunct(T[J], "<"))
        ++Depth;
      else if (isPunct(T[J], ">")) {
        if (--Depth == 0)
          return J + 1;
      } else if (isPunct(T[J], ">>")) {
        if (Depth <= 2)
          return J + 1;
        Depth -= 2;
      } else if (isPunct(T[J], ";") || isPunct(T[J], "{")) {
        break; // Not template args after all.
      }
    }
    return I + 1;
  }

  //===--------------------------------------------------------------===//
  // Declaration-scope scanning (namespace / class bodies)
  //===--------------------------------------------------------------===//

  void scanDeclScope(size_t Begin, size_t End, bool AtClassScope) {
    size_t I = Begin;
    while (I < End) {
      const Token &Tok = T[I];
      if (Tok.TokenKind == Token::Kind::Directive) {
        ++I;
        continue;
      }
      if (isIdent(Tok, "namespace")) {
        size_t J = I + 1;
        while (J < End && !isPunct(T[J], "{") && !isPunct(T[J], ";") &&
               !isPunct(T[J], "="))
          ++J;
        if (J < End && isPunct(T[J], "{")) {
          size_t Close = skipMatched(J, End, "{", "}");
          scanDeclScope(J + 1, Close - 1, /*AtClassScope=*/false);
          I = Close;
        } else {
          I = J + 1; // Alias or malformed; skip to next construct.
        }
        continue;
      }
      if (isIdent(Tok, "extern") && I + 2 < End &&
          T[I + 1].TokenKind == Token::Kind::String &&
          isPunct(T[I + 2], "{")) {
        size_t Close = skipMatched(I + 2, End, "{", "}");
        scanDeclScope(I + 3, Close - 1, AtClassScope);
        I = Close;
        continue;
      }
      if (isIdent(Tok, "template")) {
        I = I + 1 < End && isPunct(T[I + 1], "<") ? skipAngles(I + 1, End)
                                                  : I + 1;
        // The declaration that follows is scanned normally; its
        // Signature records MarkedInline (templates are exempt from
        // ODR concerns).
        scanOneDeclaration(I, End, AtClassScope, /*AfterTemplate=*/true);
        continue;
      }
      if (isIdent(Tok, "class") || isIdent(Tok, "struct") ||
          isIdent(Tok, "union") || isIdent(Tok, "enum")) {
        size_t J = I + 1;
        // Find the body or the end of a forward declaration; base
        // clauses may contain template args but no braces/semicolons.
        while (J < End && !isPunct(T[J], "{") && !isPunct(T[J], ";"))
          ++J;
        if (J < End && isPunct(T[J], "{")) {
          size_t Close = skipMatched(J, End, "{", "}");
          if (!isIdent(Tok, "enum"))
            scanDeclScope(J + 1, Close - 1, /*AtClassScope=*/true);
          // Skip any trailing declarator list (`} x, y;`).
          I = Close;
          while (I < End && !isPunct(T[I], ";"))
            ++I;
          ++I;
        } else {
          I = J + 1;
        }
        continue;
      }
      if (isPunct(Tok, ";") || isPunct(Tok, ":")) {
        ++I; // Stray semicolon or access specifier's colon.
        continue;
      }
      scanOneDeclaration(I, End, AtClassScope, /*AfterTemplate=*/false);
    }
  }

  /// Scans one declaration starting at \p I (advanced past it on
  /// return). Emits a Function if it turns out to be a definition
  /// with a body, and a Signature when it looks like a function.
  void scanOneDeclaration(size_t &I, size_t End, bool AtClassScope,
                          bool AfterTemplate) {
    size_t DeclBegin = I;
    size_t ParamOpen = T.size(); // First plausible parameter list.
    unsigned Paren = 0;
    bool SawAssign = false;
    size_t J = I;
    for (; J < End; ++J) {
      const Token &Tok = T[J];
      if (Tok.TokenKind == Token::Kind::Directive)
        continue;
      if (isPunct(Tok, "(")) {
        if (Paren == 0 && ParamOpen == T.size() && J > DeclBegin &&
            T[J - 1].TokenKind == Token::Kind::Identifier &&
            !isKeyword(T[J - 1].Text))
          ParamOpen = J;
        ++Paren;
        continue;
      }
      if (isPunct(Tok, ")")) {
        if (Paren > 0)
          --Paren;
        continue;
      }
      if (Paren > 0)
        continue;
      if (isPunct(Tok, "="))
        SawAssign = true;
      if (isPunct(Tok, ";"))
        break;
      if (isPunct(Tok, "{")) {
        if (SawAssign) { // Brace initializer: skip it, keep scanning.
          J = skipMatched(J, End, "{", "}") - 1;
          continue;
        }
        break;
      }
    }

    if (J >= End || isPunct(T[J], ";")) {
      // Declaration only. Record a signature if it had a param list.
      if (ParamOpen != T.size())
        recordSignature(DeclBegin, ParamOpen, AtClassScope, AfterTemplate,
                        /*IsDefinition=*/false);
      I = J + 1;
      return;
    }

    // A top-level `{`. A function definition needs a parameter list;
    // anything else (weird aggregate, misparse) is skipped opaquely.
    size_t BodyOpen = J;
    size_t Close = skipMatched(BodyOpen, End, "{", "}");
    if (ParamOpen == T.size()) {
      I = Close;
      // Skip a trailing `;` if present.
      if (I < End && isPunct(T[I], ";"))
        ++I;
      return;
    }

    size_t ParamClose = skipMatched(ParamOpen, End, "(", ")") - 1;
    Signature Sig = recordSignature(DeclBegin, ParamOpen, AtClassScope,
                                    AfterTemplate, /*IsDefinition=*/true);

    auto Fn = std::make_unique<Function>();
    Fn->Name = Sig.Name;
    Fn->Line = T[ParamOpen].Line;
    Fn->ParamBegin = ParamOpen + 1;
    Fn->ParamEnd = ParamClose;
    size_t BodyCursor = BodyOpen;
    Fn->Body = parseCompound(BodyCursor, End);
    Out.Functions.push_back(std::move(Fn));

    I = Close;
    // Function-try-blocks: consume trailing catch clauses opaquely.
    while (I < End && isIdent(T[I], "catch")) {
      size_t P = I + 1 < End && isPunct(T[I + 1], "(")
                     ? skipMatched(I + 1, End, "(", ")")
                     : I + 1;
      I = P < End && isPunct(T[P], "{") ? skipMatched(P, End, "{", "}") : P;
    }
  }

  Signature recordSignature(size_t DeclBegin, size_t ParamOpen,
                            bool AtClassScope, bool AfterTemplate,
                            bool IsDefinition) {
    Signature Sig;
    Sig.Name = T[ParamOpen - 1].Text;
    Sig.Line = T[ParamOpen - 1].Line;
    Sig.IsDefinition = IsDefinition;
    Sig.AtClassScope = AtClassScope;
    Sig.MarkedInline = AfterTemplate;
    // Return type: declaration tokens up to the declarator name,
    // minus specifiers and the qualifying `A::B::` chain.
    size_t TypeEnd = ParamOpen - 1;
    while (TypeEnd >= 2 && isPunct(T[TypeEnd - 1], "::"))
      TypeEnd -= 2; // Drop `Qualifier ::` pairs before the name.
    for (size_t K = DeclBegin; K < TypeEnd; ++K) {
      if (T[K].TokenKind == Token::Kind::Directive)
        continue;
      const std::string &Text = T[K].Text;
      if (T[K].TokenKind == Token::Kind::Identifier &&
          isDeclSpecifier(Text)) {
        if (Text == "inline" || Text == "constexpr" ||
            Text == "consteval" || Text == "static" || Text == "friend")
          Sig.MarkedInline = true;
        continue;
      }
      if (isPunct(T[K], "[") && K + 1 < TypeEnd && isPunct(T[K + 1], "[")) {
        K = skipMatched(K + 1, TypeEnd, "[", "]");
        continue; // [[attributes]]
      }
      if (!Sig.ReturnType.empty())
        Sig.ReturnType += ' ';
      Sig.ReturnType += Text;
    }
    Out.Signatures.push_back(Sig);
    return Sig;
  }

  //===--------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------===//

  std::unique_ptr<Stmt> makeStmt(StmtKind Kind, size_t At) {
    auto S = std::make_unique<Stmt>();
    S->Kind = Kind;
    S->Line = At < T.size() ? T[At].Line : 0;
    return S;
  }

  /// Parses the compound whose `{` is at \p I; advances \p I past the
  /// matching `}`.
  std::unique_ptr<Stmt> parseCompound(size_t &I, size_t End) {
    auto S = makeStmt(StmtKind::Compound, I);
    size_t Close = skipMatched(I, End, "{", "}") - 1;
    ++I;
    while (I < Close)
      S->Children.push_back(parseStmt(I, Close));
    I = Close + 1;
    return S;
  }

  /// Parses the parenthesized head at \p I (must be `(`); stores the
  /// contents as [ExprBegin, ExprEnd) and advances past `)`.
  void parseParenInto(size_t &I, size_t End, Stmt &S) {
    if (I >= End || !isPunct(T[I], "(")) {
      S.ExprBegin = S.ExprEnd = I;
      return;
    }
    size_t Close = skipMatched(I, End, "(", ")") - 1;
    S.ExprBegin = I + 1;
    S.ExprEnd = Close;
    I = Close + 1;
  }

  std::unique_ptr<Stmt> parseStmt(size_t &I, size_t End) {
    if (I >= End)
      return makeStmt(StmtKind::Expr, I);
    const Token &Tok = T[I];

    if (Tok.TokenKind == Token::Kind::Directive) {
      auto S = makeStmt(StmtKind::Expr, I);
      S->ExprBegin = S->ExprEnd = I;
      ++I;
      return S;
    }
    if (isPunct(Tok, "{"))
      return parseCompound(I, End);
    if (isPunct(Tok, ";")) {
      auto S = makeStmt(StmtKind::Expr, I);
      S->ExprBegin = S->ExprEnd = I;
      ++I;
      return S;
    }
    if (isIdent(Tok, "if")) {
      auto S = makeStmt(StmtKind::If, I);
      ++I;
      if (I < End && isIdent(T[I], "constexpr"))
        ++I;
      parseParenInto(I, End, *S);
      S->Children.push_back(parseStmt(I, End));
      if (I < End && isIdent(T[I], "else")) {
        ++I;
        S->Children.push_back(parseStmt(I, End));
      }
      return S;
    }
    if (isIdent(Tok, "while")) {
      auto S = makeStmt(StmtKind::While, I);
      ++I;
      parseParenInto(I, End, *S);
      S->Children.push_back(parseStmt(I, End));
      return S;
    }
    if (isIdent(Tok, "do")) {
      auto S = makeStmt(StmtKind::DoWhile, I);
      ++I;
      S->Children.push_back(parseStmt(I, End));
      if (I < End && isIdent(T[I], "while")) {
        ++I;
        parseParenInto(I, End, *S);
      }
      if (I < End && isPunct(T[I], ";"))
        ++I;
      return S;
    }
    if (isIdent(Tok, "for")) {
      auto S = makeStmt(StmtKind::For, I);
      ++I;
      if (I < End && isPunct(T[I], "(")) {
        size_t Close = skipMatched(I, End, "(", ")") - 1;
        splitForHeader(I + 1, Close, *S);
        I = Close + 1;
      }
      S->Children.push_back(parseStmt(I, End));
      return S;
    }
    if (isIdent(Tok, "switch")) {
      auto S = makeStmt(StmtKind::Switch, I);
      ++I;
      parseParenInto(I, End, *S);
      S->Children.push_back(parseStmt(I, End));
      return S;
    }
    if (isIdent(Tok, "case") || isIdent(Tok, "default")) {
      auto S = makeStmt(StmtKind::CaseLabel, I);
      S->Name = Tok.Text;
      ++I;
      while (I < End && !isPunct(T[I], ":")) {
        if (Tok.Text == "case" && T[I].TokenKind != Token::Kind::Directive)
          S->Name += " " + T[I].Text;
        ++I;
      }
      ++I; // ':'
      return S;
    }
    if (isIdent(Tok, "return") || isIdent(Tok, "co_return")) {
      auto S = makeStmt(StmtKind::Return, I);
      ++I;
      S->ExprBegin = I;
      I = scanExprStatement(I, End);
      S->ExprEnd = I;
      if (I < End && isPunct(T[I], ";"))
        ++I;
      return S;
    }
    if (isIdent(Tok, "break") || isIdent(Tok, "continue")) {
      auto S = makeStmt(
          Tok.Text == "break" ? StmtKind::Break : StmtKind::Continue, I);
      ++I;
      if (I < End && isPunct(T[I], ";"))
        ++I;
      return S;
    }
    if (isIdent(Tok, "goto")) {
      auto S = makeStmt(StmtKind::Goto, I);
      ++I;
      if (I < End && T[I].TokenKind == Token::Kind::Identifier)
        S->Name = T[I++].Text;
      if (I < End && isPunct(T[I], ";"))
        ++I;
      return S;
    }
    if (isIdent(Tok, "try")) {
      auto S = makeStmt(StmtKind::Try, I);
      ++I;
      if (I < End && isPunct(T[I], "{"))
        S->Children.push_back(parseCompound(I, End));
      while (I < End && isIdent(T[I], "catch")) {
        auto Handler = makeStmt(StmtKind::Catch, I);
        ++I;
        parseParenInto(I, End, *Handler);
        if (I < End && isPunct(T[I], "{"))
          Handler->Children.push_back(parseCompound(I, End));
        S->Children.push_back(std::move(Handler));
      }
      return S;
    }
    // `name:` label (never confused with `::`, which lexes as one
    // token, or with ternaries, which cannot start a statement).
    if (Tok.TokenKind == Token::Kind::Identifier && !isKeyword(Tok.Text) &&
        I + 1 < End && isPunct(T[I + 1], ":")) {
      auto S = makeStmt(StmtKind::Label, I);
      S->Name = Tok.Text;
      I += 2;
      return S;
    }

    // Expression or declaration statement.
    size_t Begin = I;
    I = scanExprStatement(I, End);
    auto S = makeStmt(classifyExprOrDecl(Begin, I), Begin);
    S->ExprBegin = Begin;
    S->ExprEnd = I;
    if (I < End && isPunct(T[I], ";"))
      ++I;
    return S;
  }

  /// Splits a `for` header [Begin, End) into init / cond / inc at
  /// top-level semicolons; a range-for (top-level `:`) stores the
  /// declaration as Init and the range expression as the condition.
  void splitForHeader(size_t Begin, size_t End, Stmt &S) {
    std::vector<size_t> Semis;
    size_t RangeColon = End;
    unsigned Depth = 0;
    for (size_t I = Begin; I < End; ++I) {
      if (isPunct(T[I], "(") || isPunct(T[I], "[") || isPunct(T[I], "{"))
        ++Depth;
      else if (isPunct(T[I], ")") || isPunct(T[I], "]") ||
               isPunct(T[I], "}")) {
        if (Depth > 0)
          --Depth;
      } else if (Depth == 0 && isPunct(T[I], ";"))
        Semis.push_back(I);
      else if (Depth == 0 && isPunct(T[I], ":") && Semis.empty() &&
               RangeColon == End)
        RangeColon = I;
    }
    if (Semis.size() >= 2) {
      S.InitBegin = Begin;
      S.InitEnd = Semis[0];
      S.ExprBegin = Semis[0] + 1;
      S.ExprEnd = Semis[1];
      S.IncBegin = Semis[1] + 1;
      S.IncEnd = End;
    } else if (RangeColon != End) {
      S.RangeFor = true;
      S.InitBegin = Begin;
      S.InitEnd = RangeColon;
      S.ExprBegin = RangeColon + 1;
      S.ExprEnd = End;
    } else {
      S.InitBegin = Begin;
      S.InitEnd = End;
      S.ExprBegin = S.ExprEnd = End;
    }
  }

  /// Advances from \p I to the terminating top-level `;` of an
  /// expression/declaration statement (returning its index), parsing
  /// and registering any lambda bodies encountered on the way.
  size_t scanExprStatement(size_t I, size_t End) {
    unsigned Depth = 0;
    while (I < End) {
      // The lambda check must run before the bracket bookkeeping:
      // parseLambda consumes the whole introducer and body, so its
      // `[` must not count toward Depth (the matching `]` is never
      // seen here).
      if (isLambdaIntro(I, End)) {
        size_t Next = parseLambda(I, End);
        if (Next != I + 1) {
          I = Next;
          continue;
        }
        // Not a lambda after all: fall through and treat the `[`
        // like any other bracket.
      }
      const Token &Tok = T[I];
      if (isPunct(Tok, ";") && Depth == 0)
        return I;
      if (isPunct(Tok, "(") || isPunct(Tok, "["))
        ++Depth;
      else if (isPunct(Tok, ")") || isPunct(Tok, "]")) {
        if (Depth == 0)
          return I; // Statement ended by an enclosing construct.
        --Depth;
      } else if (isPunct(Tok, "{")) {
        // Either a brace initializer or a misparse; skip matched.
        I = skipMatched(I, End, "{", "}");
        continue;
      } else if (isPunct(Tok, "}")) {
        return I;
      }
      ++I;
    }
    return I;
  }

  /// True if the `[` at \p I plausibly begins a lambda-introducer: it
  /// does not follow a value (subscript) and is not an attribute.
  bool isLambdaIntro(size_t I, size_t End) const {
    if (I >= End || !isPunct(T[I], "["))
      return false;
    if (I + 1 < End && isPunct(T[I + 1], "["))
      return false; // [[attribute]]
    if (I == 0)
      return true;
    const Token &Prev = T[I - 1];
    if (Prev.TokenKind == Token::Kind::Identifier)
      return isKeyword(Prev.Text) && Prev.Text != "this";
    if (Prev.TokenKind == Token::Kind::Number ||
        Prev.TokenKind == Token::Kind::String)
      return false;
    return !isPunct(Prev, ")") && !isPunct(Prev, "]");
  }

  /// Parses the lambda whose `[` is at \p I: registers its body as a
  /// nested Function and returns the index past the body's `}`. If it
  /// turns out not to be a lambda, returns \p I + 1.
  size_t parseLambda(size_t I, size_t End) {
    size_t CaptureClose = skipMatched(I, End, "[", "]");
    if (CaptureClose >= End)
      return I + 1;
    size_t J = CaptureClose;
    size_t ParamBegin = J, ParamEnd = J;
    if (J < End && isPunct(T[J], "(")) {
      size_t Close = skipMatched(J, End, "(", ")");
      ParamBegin = J + 1;
      ParamEnd = Close - 1;
      J = Close;
    }
    // Trailing specifiers up to the body: mutable/noexcept/->type/
    // attributes. Anything that ends the expression means "not a
    // lambda after all".
    while (J < End && !isPunct(T[J], "{")) {
      const Token &Tok = T[J];
      if (isPunct(Tok, ";") || isPunct(Tok, ",") || isPunct(Tok, ")") ||
          isPunct(Tok, "]") || isPunct(Tok, "}") || isPunct(Tok, "="))
        return I + 1;
      if (isPunct(Tok, "(")) {
        J = skipMatched(J, End, "(", ")");
        continue;
      }
      if (isPunct(Tok, "<")) {
        J = skipAngles(J, End);
        continue;
      }
      ++J;
    }
    if (J >= End)
      return I + 1;

    auto Fn = std::make_unique<Function>();
    Fn->Name = "<lambda@" + std::to_string(T[I].Line) + ">";
    Fn->Line = T[I].Line;
    Fn->ParamBegin = ParamBegin;
    Fn->ParamEnd = ParamEnd;
    Fn->IsLambda = true;
    size_t BodyOpen = J;
    size_t BodyCursor = BodyOpen;
    Fn->Body = parseCompound(BodyCursor, End);
    Out.Functions.push_back(std::move(Fn));
    size_t BodyClose = skipMatched(BodyOpen, End, "{", "}");
    Out.LambdaBodies.emplace_back(BodyOpen, BodyClose);
    return BodyClose;
  }

  /// Decl vs Expr: a declaration shows two adjacent "name-position"
  /// tokens (type tail then declarator) before the initializer.
  StmtKind classifyExprOrDecl(size_t Begin, size_t End) const {
    if (Begin >= End)
      return StmtKind::Expr;
    if (T[Begin].TokenKind == Token::Kind::Identifier &&
        (isTypeKeyword(T[Begin].Text) || isDeclSpecifier(T[Begin].Text) ||
         T[Begin].Text == "using"))
      return StmtKind::Decl;
    unsigned Depth = 0;
    for (size_t I = Begin; I + 1 < End; ++I) {
      if (isPunct(T[I], "(") || isPunct(T[I], "[") || isPunct(T[I], "{"))
        ++Depth;
      else if (isPunct(T[I], ")") || isPunct(T[I], "]") ||
               isPunct(T[I], "}")) {
        if (Depth > 0)
          --Depth;
      }
      if (Depth != 0)
        continue;
      bool TypeTail = (T[I].TokenKind == Token::Kind::Identifier &&
                       !isKeyword(T[I].Text)) ||
                      isPunct(T[I], ">") || isPunct(T[I], "*") ||
                      isPunct(T[I], "&");
      bool DeclName = T[I + 1].TokenKind == Token::Kind::Identifier &&
                      !isKeyword(T[I + 1].Text);
      if (!TypeTail || !DeclName)
        continue;
      // The token after the candidate declarator must close or
      // initialize the declaration.
      if (I + 2 >= End)
        return StmtKind::Decl;
      const Token &After = T[I + 2];
      if (isPunct(After, "=") || isPunct(After, ";") ||
          isPunct(After, ",") || isPunct(After, "(") ||
          isPunct(After, "{") || isPunct(After, "[") ||
          After.TokenKind == Token::Kind::Identifier)
        return StmtKind::Decl;
    }
    return StmtKind::Expr;
  }
};

} // namespace

ParsedFile rap::lint::parseFile(const LexedSource &Src) {
  return ParserImpl(Src).run();
}
