//===- tests/lint/LexerTest.cpp - rap_lint lexer unit tests --------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
// Direct token-level tests for the two translation-phase features the
// lexer gained for the flow rules: backslash line continuations
// (phase 2 splicing) and C++14 digit separators. The rule-level tests
// in LintTest.cpp cover the lexer only indirectly.
//
//===----------------------------------------------------------------------===//

#include "lint/Lexer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace rap::lint;

namespace {

/// Tokens of \p Source as "<kind>:<text>" strings, for terse matching.
std::vector<std::string> spellings(const std::string &Source) {
  std::vector<std::string> Out;
  for (const Token &T : lex(Source).Tokens) {
    const char *Kind = "?";
    switch (T.TokenKind) {
    case Token::Kind::Identifier:
      Kind = "id";
      break;
    case Token::Kind::Number:
      Kind = "num";
      break;
    case Token::Kind::String:
      Kind = "str";
      break;
    case Token::Kind::CharLit:
      Kind = "char";
      break;
    case Token::Kind::Punct:
      Kind = "punct";
      break;
    case Token::Kind::Directive:
      Kind = "pp";
      break;
    }
    Out.push_back(std::string(Kind) + ":" + T.Text);
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Backslash line continuations (translation phase 2)
//===----------------------------------------------------------------------===//

TEST(LintLexerSplice, IdentifierSplitAcrossContinuation) {
  // Phase 2 deletes backslash-newline before tokenization, so one
  // identifier may span physical lines.
  std::vector<std::string> Tokens = spellings("NumEv\\\nents += 1;");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[0], "id:NumEvents");
  EXPECT_EQ(Tokens[1], "punct:+=");
}

TEST(LintLexerSplice, ContinuationInsideOperator) {
  std::vector<std::string> Tokens = spellings("a +\\\n= b;");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[1], "punct:+=");
}

TEST(LintLexerSplice, DirectiveContinuationIsOneLogicalLine) {
  LexedSource Src = lex("#define ADD(x) \\\n  ((x) + 1)\nint y;\n");
  ASSERT_GE(Src.Tokens.size(), 1u);
  EXPECT_EQ(Src.Tokens[0].TokenKind, Token::Kind::Directive);
  // The macro body must be inside the directive, not leak out as
  // expression tokens for rules to trip on.
  EXPECT_NE(Src.Tokens[0].Text.find("(x) + 1"), std::string::npos);
  ASSERT_EQ(Src.Tokens.size(), 4u); // directive, int, y, ;
  EXPECT_EQ(Src.Tokens[1].Text, "int");
  EXPECT_EQ(Src.Tokens[1].Line, 3u); // physical line is preserved
}

TEST(LintLexerSplice, LineCommentContinuationSwallowsNextLine) {
  // A // comment ending in a backslash continues onto the next
  // physical line (a classic source of invisible dead code).
  std::vector<std::string> Tokens =
      spellings("// comment \\\nrand(); still comment\nint x;");
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0], "id:int");
}

TEST(LintLexerSplice, AllowMarkerInContinuedCommentCoversNextLine) {
  // The "marker on its own line covers the following line" rule keys
  // off the line the comment *ends* on, so a spliced marker comment
  // still reaches the first code line after it.
  LexedSource Src = lex("// rap-lint: allow(counter-arithmetic) \\\n"
                        "continued\n"
                        "NumEvents += 1;\n");
  ASSERT_EQ(Src.AllowedRules.count(3u), 1u);
  EXPECT_EQ(Src.AllowedRules.at(3u).count("counter-arithmetic"), 1u);
}

TEST(LintLexerSplice, BackslashInsideRawStringIsLiteral) {
  // Raw string bodies revert phase-2 splicing: the backslash-newline
  // stays part of the contents.
  LexedSource Src = lex("const char *s = R\"(a\\\nb)\";\n");
  bool Found = false;
  for (const Token &T : Src.Tokens)
    if (T.TokenKind == Token::Kind::String) {
      Found = true;
      EXPECT_NE(T.Text.find('\\'), std::string::npos);
    }
  EXPECT_TRUE(Found);
}

TEST(LintLexerSplice, TokenLineIsFirstCharacterLine) {
  LexedSource Src = lex("int\n\nNumEv\\\nents;\n");
  ASSERT_EQ(Src.Tokens.size(), 3u);
  EXPECT_EQ(Src.Tokens[1].Text, "NumEvents");
  EXPECT_EQ(Src.Tokens[1].Line, 3u);
}

//===----------------------------------------------------------------------===//
// C++14 digit separators
//===----------------------------------------------------------------------===//

TEST(LintLexerDigits, SeparatorStaysInsideOneNumber) {
  std::vector<std::string> Tokens = spellings("x = 1'000'000;");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[2], "num:1'000'000");
}

TEST(LintLexerDigits, HexSeparators) {
  std::vector<std::string> Tokens = spellings("x = 0xFF'FF;");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[2], "num:0xFF'FF");
}

TEST(LintLexerDigits, QuoteNotFollowedByDigitOpensCharLiteral) {
  // `1' '` is the number 1 followed by a space char literal — the
  // quote only extends the number when an identifier-body character
  // follows it.
  std::vector<std::string> Tokens = spellings("f(1, ' ');");
  ASSERT_EQ(Tokens.size(), 7u);
  EXPECT_EQ(Tokens[2], "num:1");
  EXPECT_EQ(Tokens[4].substr(0, 4), "char");
}

TEST(LintLexerDigits, CharLiteralAfterNumberArgument) {
  std::vector<std::string> Tokens = spellings("pad(1,'x');");
  ASSERT_EQ(Tokens.size(), 7u);
  EXPECT_EQ(Tokens[2], "num:1");
  EXPECT_EQ(Tokens[4].substr(0, 4), "char");
}

TEST(LintLexerDigits, SeparatorSpansContinuation) {
  // Phase 2 runs before number lexing, so a separator may sit right
  // at a spliced line break.
  std::vector<std::string> Tokens = spellings("x = 1'\\\n000;");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[2], "num:1'000");
}

//===----------------------------------------------------------------------===//
// C++17 hexadecimal floating literals
//===----------------------------------------------------------------------===//

TEST(LintLexerHexFloat, BasicHexFloatIsOneNumber) {
  std::vector<std::string> Tokens = spellings("double d = 0x1.8p3;");
  ASSERT_EQ(Tokens.size(), 5u);
  EXPECT_EQ(Tokens[3], "num:0x1.8p3");
}

TEST(LintLexerHexFloat, SignedExponents) {
  std::vector<std::string> Tokens = spellings("a = 0x1.fp+2; b = 0xA.p-1;");
  ASSERT_EQ(Tokens.size(), 8u);
  EXPECT_EQ(Tokens[2], "num:0x1.fp+2");
  EXPECT_EQ(Tokens[6], "num:0xA.p-1");
}

TEST(LintLexerHexFloat, NoFractionAndSuffix) {
  // 0x1p4f: binary exponent without a fraction, plus a float suffix.
  std::vector<std::string> Tokens = spellings("x = 0x1p4f;");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[2], "num:0x1p4f");
}

TEST(LintLexerHexFloat, PlusAfterNonExponentStaysOperator) {
  // The 'p'/'e' sign rule must not swallow a real addition.
  std::vector<std::string> Tokens = spellings("x = 0x10 + 3;");
  ASSERT_EQ(Tokens.size(), 6u);
  EXPECT_EQ(Tokens[2], "num:0x10");
  EXPECT_EQ(Tokens[3], "punct:+");
  EXPECT_EQ(Tokens[4], "num:3");
}

//===----------------------------------------------------------------------===//
// Encoding prefixes on string and character literals
//===----------------------------------------------------------------------===//

TEST(LintLexerPrefix, U8StringIsOneStringToken) {
  std::vector<std::string> Tokens = spellings("auto s = u8\"text\";");
  ASSERT_EQ(Tokens.size(), 5u);
  EXPECT_EQ(Tokens[3], "str:text");
}

TEST(LintLexerPrefix, UAndCapitalUStrings) {
  std::vector<std::string> Tokens =
      spellings("f(u\"one\", U\"two\", L\"three\");");
  ASSERT_EQ(Tokens.size(), 9u);
  EXPECT_EQ(Tokens[2], "str:one");
  EXPECT_EQ(Tokens[4], "str:two");
  EXPECT_EQ(Tokens[6], "str:three");
}

TEST(LintLexerPrefix, PrefixedRawString) {
  std::vector<std::string> Tokens = spellings("auto s = u8R\"(a\"b)\";");
  ASSERT_EQ(Tokens.size(), 5u);
  EXPECT_EQ(Tokens[3], "str:a\"b");
}

TEST(LintLexerPrefix, PrefixedCharLiteralsAreNotIdentifiers) {
  // u8'c' / u'c' / U'c' / L'c' must not leak a bogus identifier token
  // in front of the literal (the flow rules match callees by
  // identifier, so strays corrupt their input).
  std::vector<std::string> Tokens =
      spellings("g(u8'a', u'b', U'c', L'd');");
  ASSERT_EQ(Tokens.size(), 11u);
  EXPECT_EQ(Tokens[2].substr(0, 4), "char");
  EXPECT_EQ(Tokens[4].substr(0, 4), "char");
  EXPECT_EQ(Tokens[6].substr(0, 4), "char");
  EXPECT_EQ(Tokens[8].substr(0, 4), "char");
}

//===----------------------------------------------------------------------===//
// C++20 spaceship and pointer-to-member operators
//===----------------------------------------------------------------------===//

TEST(LintLexerOperators, SpaceshipIsOneToken) {
  // `a <=> b` must not split into `<=` `>`: the value-range branch
  // refinement parses comparisons by operator token, and a phantom
  // `<=` would fabricate a bound that was never written.
  std::vector<std::string> Tokens = spellings("auto c = a <=> b;");
  ASSERT_EQ(Tokens.size(), 7u);
  EXPECT_EQ(Tokens[4], "punct:<=>");
}

TEST(LintLexerOperators, LessEqualThenGreaterStaysTwoTokens) {
  // No spaceship here: `x <= y` followed by `> z` in a template-ish
  // context keeps its real shape when whitespace separates the chars.
  std::vector<std::string> Tokens = spellings("b = x <= -1;");
  ASSERT_EQ(Tokens.size(), 7u);
  EXPECT_EQ(Tokens[3], "punct:<=");
  EXPECT_EQ(Tokens[4], "punct:-");
}

TEST(LintLexerOperators, ArrowStarIsOneToken) {
  std::vector<std::string> Tokens = spellings("(obj->*fn)(1);");
  ASSERT_EQ(Tokens.size(), 9u);
  EXPECT_EQ(Tokens[2], "punct:->*");
}

TEST(LintLexerOperators, ShiftAssignStillWinsOverSpaceshipPrefix) {
  // `<<=` shares a two-char prefix with nothing spaceship-like, but
  // keep the longest-match ordering pinned while the table grows.
  std::vector<std::string> Tokens = spellings("x <<= 2;");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[1], "punct:<<=");
}

TEST(LintLexerPrefix, NonPrefixIdentifierBeforeStringStaysIdentifier) {
  // An arbitrary identifier abutting a string is two tokens (macro
  // call styles like NAME"..." are not encoding prefixes).
  std::vector<std::string> Tokens = spellings("x = prefix\"s\";");
  ASSERT_EQ(Tokens.size(), 5u);
  EXPECT_EQ(Tokens[2], "id:prefix");
  EXPECT_EQ(Tokens[3], "str:s");
}
