//===- support/MiniJson.cpp - Minimal JSON reader/writer ------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/MiniJson.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace rap;
using namespace rap::json;

Value Value::boolean(bool Flag) {
  Value V;
  V.K = Kind::Bool;
  V.B = Flag;
  return V;
}

Value Value::number(double N) {
  Value V;
  V.K = Kind::Number;
  V.Num = N;
  return V;
}

Value Value::number(uint64_t N) {
  return number(static_cast<double>(N));
}

Value Value::string(std::string S) {
  Value V;
  V.K = Kind::String;
  V.Str = std::move(S);
  return V;
}

Value Value::array() {
  Value V;
  V.K = Kind::Array;
  return V;
}

Value Value::object() {
  Value V;
  V.K = Kind::Object;
  return V;
}

uint64_t Value::asUint(uint64_t Fallback) const {
  if (K != Kind::Number || Num < 0.0 || Num > 9007199254740992.0 ||
      Num != std::floor(Num))
    return Fallback;
  return static_cast<uint64_t>(Num);
}

Value &Value::push(Value Element) {
  Arr.push_back(std::move(Element));
  return Arr.back();
}

const Value *Value::get(const std::string &Name) const {
  for (const auto &[Key, Field] : Obj)
    if (Key == Name)
      return &Field;
  return nullptr;
}

Value &Value::set(const std::string &Name, Value Field) {
  for (auto &[Key, Existing] : Obj)
    if (Key == Name) {
      Existing = std::move(Field);
      return Existing;
    }
  Obj.emplace_back(Name, std::move(Field));
  return Obj.back().second;
}

namespace {

/// Recursive-descent parser over a byte range. Depth-bounded so a
/// hostile input degrades to a parse error, not a stack overflow.
class Parser {
public:
  Parser(const std::string &Input, std::string *ErrorOut)
      : Text(Input), Error(ErrorOut) {}

  Value run() {
    Value V = parseValue(0);
    skipSpace();
    if (!Failed && Pos != Text.size()) {
      fail("trailing characters after the JSON value");
      return Value();
    }
    return Failed ? Value() : V;
  }

private:
  static constexpr unsigned MaxDepth = 64;

  void fail(const char *Message) {
    if (!Failed && Error) {
      char Buffer[160];
      std::snprintf(Buffer, sizeof(Buffer), "offset %zu: %s", Pos, Message);
      *Error = Buffer;
    }
    Failed = true;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(const char *Word) {
    size_t Len = 0;
    while (Word[Len])
      ++Len;
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  Value parseValue(unsigned Depth) {
    if (Depth > MaxDepth) {
      fail("value nested too deeply");
      return Value();
    }
    skipSpace();
    if (Pos >= Text.size()) {
      fail("unexpected end of input");
      return Value();
    }
    char C = Text[Pos];
    if (C == '{')
      return parseObject(Depth);
    if (C == '[')
      return parseArray(Depth);
    if (C == '"')
      return Value::string(parseString());
    if (C == 't') {
      if (literal("true"))
        return Value::boolean(true);
      fail("bad literal");
      return Value();
    }
    if (C == 'f') {
      if (literal("false"))
        return Value::boolean(false);
      fail("bad literal");
      return Value();
    }
    if (C == 'n') {
      if (literal("null"))
        return Value();
      fail("bad literal");
      return Value();
    }
    return parseNumber();
  }

  Value parseObject(unsigned Depth) {
    ++Pos; // '{'
    Value V = Value::object();
    skipSpace();
    if (consume('}'))
      return V;
    while (!Failed) {
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != '"') {
        fail("expected a field name");
        return Value();
      }
      std::string Name = parseString();
      if (!consume(':')) {
        fail("expected ':' after a field name");
        return Value();
      }
      V.set(Name, parseValue(Depth + 1));
      if (consume(','))
        continue;
      if (consume('}'))
        return V;
      fail("expected ',' or '}' in an object");
      return Value();
    }
    return Value();
  }

  Value parseArray(unsigned Depth) {
    ++Pos; // '['
    Value V = Value::array();
    skipSpace();
    if (consume(']'))
      return V;
    while (!Failed) {
      V.push(parseValue(Depth + 1));
      if (consume(','))
        continue;
      if (consume(']'))
        return V;
      fail("expected ',' or ']' in an array");
      return Value();
    }
    return Value();
  }

  std::string parseString() {
    ++Pos; // '"'
    std::string Out;
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return Out;
      if (C != '\\') {
        Out.push_back(C);
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out.push_back(E);
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'u': {
        if (Pos + 4 > Text.size()) {
          fail("truncated \\u escape");
          return Out;
        }
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= unsigned(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= unsigned(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= unsigned(H - 'A' + 10);
          else {
            fail("bad hex digit in \\u escape");
            return Out;
          }
        }
        // UTF-8 encode the BMP code point (surrogate pairs are passed
        // through as two 3-byte sequences — report files are ASCII).
        if (Code < 0x80) {
          Out.push_back(static_cast<char>(Code));
        } else if (Code < 0x800) {
          Out.push_back(static_cast<char>(0xc0 | (Code >> 6)));
          Out.push_back(static_cast<char>(0x80 | (Code & 0x3f)));
        } else {
          Out.push_back(static_cast<char>(0xe0 | (Code >> 12)));
          Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3f)));
          Out.push_back(static_cast<char>(0x80 | (Code & 0x3f)));
        }
        break;
      }
      default:
        fail("unknown escape");
        return Out;
      }
    }
    fail("unterminated string");
    return Out;
  }

  Value parseNumber() {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           ((Text[Pos] >= '0' && Text[Pos] <= '9') || Text[Pos] == '.' ||
            Text[Pos] == 'e' || Text[Pos] == 'E' || Text[Pos] == '+' ||
            Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start) {
      fail("expected a value");
      return Value();
    }
    std::string Token = Text.substr(Start, Pos - Start);
    char *End = nullptr;
    double N = std::strtod(Token.c_str(), &End);
    if (End != Token.c_str() + Token.size()) {
      fail("malformed number");
      return Value();
    }
    return Value::number(N);
  }

  const std::string &Text;
  std::string *Error;
  size_t Pos = 0;
  bool Failed = false;
};

void writeString(std::string &Out, const std::string &S) {
  Out.push_back('"');
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buffer[8];
        std::snprintf(Buffer, sizeof(Buffer), "\\u%04x", unsigned(C));
        Out += Buffer;
      } else {
        Out.push_back(C);
      }
    }
  }
  Out.push_back('"');
}

void writeNumber(std::string &Out, double N) {
  char Buffer[40];
  if (N == std::floor(N) && std::fabs(N) < 9007199254740992.0) {
    std::snprintf(Buffer, sizeof(Buffer), "%.0f", N);
  } else {
    // Shortest representation that round-trips is overkill here; 17
    // significant digits always round-trip a double.
    std::snprintf(Buffer, sizeof(Buffer), "%.17g", N);
  }
  Out += Buffer;
}

void writeValue(std::string &Out, const Value &V, unsigned Indent) {
  auto NewlineIndent = [&Out](unsigned Levels) {
    Out.push_back('\n');
    Out.append(size_t(Levels) * 2, ' ');
  };
  switch (V.kind()) {
  case Value::Kind::Null:
    Out += "null";
    return;
  case Value::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    return;
  case Value::Kind::Number:
    writeNumber(Out, V.asNumber());
    return;
  case Value::Kind::String:
    writeString(Out, V.asString());
    return;
  case Value::Kind::Array: {
    if (V.elements().empty()) {
      Out += "[]";
      return;
    }
    // Scalar-only arrays stay on one line (merge_events would
    // otherwise dominate the report's line count).
    bool AllScalar = true;
    for (const Value &E : V.elements())
      if (E.isArray() || E.isObject())
        AllScalar = false;
    Out.push_back('[');
    bool First = true;
    for (const Value &E : V.elements()) {
      if (!First)
        Out.push_back(',');
      if (AllScalar) {
        if (!First)
          Out.push_back(' ');
      } else {
        NewlineIndent(Indent + 1);
      }
      First = false;
      writeValue(Out, E, Indent + 1);
    }
    if (!AllScalar)
      NewlineIndent(Indent);
    Out.push_back(']');
    return;
  }
  case Value::Kind::Object: {
    if (V.fields().empty()) {
      Out += "{}";
      return;
    }
    Out.push_back('{');
    bool First = true;
    for (const auto &[Name, Field] : V.fields()) {
      if (!First)
        Out.push_back(',');
      First = false;
      NewlineIndent(Indent + 1);
      writeString(Out, Name);
      Out += ": ";
      writeValue(Out, Field, Indent + 1);
    }
    NewlineIndent(Indent);
    Out.push_back('}');
    return;
  }
  }
}

} // namespace

Value rap::json::parse(const std::string &Text, std::string *Error) {
  return Parser(Text, Error).run();
}

std::string rap::json::serialize(const Value &V) {
  std::string Out;
  writeValue(Out, V, 0);
  Out.push_back('\n');
  return Out;
}
