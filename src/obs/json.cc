#include "obs/json.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace qimap {
namespace obs {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    QIMAP_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber();
    }
    JsonValue value;
    if (ConsumeWord("true")) {
      value.type = JsonValue::Type::kBool;
      value.bool_value = true;
      return value;
    }
    if (ConsumeWord("false")) {
      value.type = JsonValue::Type::kBool;
      return value;
    }
    if (ConsumeWord("null")) return value;
    return Error(std::string("unexpected character '") + c + "'");
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return value;
    while (true) {
      SkipWhitespace();
      QIMAP_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' in object");
      QIMAP_ASSIGN_OR_RETURN(JsonValue member, ParseValue());
      value.members.emplace_back(std::move(key.string_value),
                                 std::move(member));
      SkipWhitespace();
      if (Consume('}')) return value;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return value;
    while (true) {
      QIMAP_ASSIGN_OR_RETURN(JsonValue item, ParseValue());
      value.items.push_back(std::move(item));
      SkipWhitespace();
      if (Consume(']')) return value;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  /// Reads exactly four hex digits at pos_ into `out`. False (without
  /// consuming) when fewer than four remain or any is not a hex digit.
  bool ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return false;
    uint32_t code = 0;
    for (size_t i = 0; i < 4; ++i) {
      char c = text_[pos_ + i];
      uint32_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint32_t>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint32_t>(c - 'A') + 10;
      } else {
        return false;
      }
      code = (code << 4) | digit;
    }
    pos_ += 4;
    *out = code;
    return true;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  /// Decodes a `\uXXXX` escape (the `\u` already consumed) to UTF-8,
  /// including surrogate pairs: a high surrogate must be followed by a
  /// `\u`-escaped low surrogate, and unpaired surrogates are rejected.
  Status ParseUnicodeEscape(std::string* out) {
    uint32_t code;
    if (!ParseHex4(&code)) {
      return Error("\\u escape needs four hex digits");
    }
    if (code >= 0xDC00 && code <= 0xDFFF) {
      return Error("unpaired low surrogate in \\u escape");
    }
    if (code >= 0xD800 && code <= 0xDBFF) {
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        return Error("high surrogate not followed by \\u escape");
      }
      pos_ += 2;
      uint32_t low;
      if (!ParseHex4(&low)) {
        return Error("\\u escape needs four hex digits");
      }
      if (low < 0xDC00 || low > 0xDFFF) {
        return Error("high surrogate not followed by low surrogate");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    AppendUtf8(code, out);
    return Status::OK();
  }

  Result<JsonValue> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    JsonValue value;
    value.type = JsonValue::Type::kString;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return value;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        value.string_value.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          value.string_value.push_back(esc);
          break;
        case 'n':
          value.string_value.push_back('\n');
          break;
        case 't':
          value.string_value.push_back('\t');
          break;
        case 'r':
          value.string_value.push_back('\r');
          break;
        case 'b':
          value.string_value.push_back('\b');
          break;
        case 'f':
          value.string_value.push_back('\f');
          break;
        case 'u': {
          QIMAP_RETURN_IF_ERROR(ParseUnicodeEscape(&value.string_value));
          break;
        }
        default:
          return Error("invalid escape sequence");
      }
    }
    return Error("unterminated string");
  }

  /// RFC 8259 number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  /// strtod alone accepts a superset ("1.", "01", ".5", "0x1", "inf"), so
  /// the token is validated against the grammar before conversion.
  static bool IsStrictJsonNumber(std::string_view token) {
    size_t i = 0;
    auto digit = [&](size_t at) {
      return at < token.size() &&
             std::isdigit(static_cast<unsigned char>(token[at]));
    };
    if (i < token.size() && token[i] == '-') ++i;
    if (!digit(i)) return false;
    if (token[i] == '0') {
      ++i;  // a leading zero must stand alone
    } else {
      while (digit(i)) ++i;
    }
    if (i < token.size() && token[i] == '.') {
      ++i;
      if (!digit(i)) return false;
      while (digit(i)) ++i;
    }
    if (i < token.size() && (token[i] == 'e' || token[i] == 'E')) {
      ++i;
      if (i < token.size() && (token[i] == '+' || token[i] == '-')) ++i;
      if (!digit(i)) return false;
      while (digit(i)) ++i;
    }
    return i == token.size();
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    (void)Consume('-');
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    std::string token(text_.substr(start, pos_ - start));
    if (!IsStrictJsonNumber(token)) {
      return Error("malformed number '" + token + "'");
    }
    char* end = nullptr;
    double parsed = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      return Error("malformed number '" + token + "'");
    }
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.number_value = parsed;
    return value;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

namespace {

Result<std::string> ReadText(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  std::string contents;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return Status::Internal("cannot read " + path);
  return contents;
}

}  // namespace

Result<JsonValue> ParseJsonFile(const std::string& path) {
  QIMAP_ASSIGN_OR_RETURN(std::string text, ReadText(path));
  return ParseJson(text);
}

Result<std::vector<std::pair<size_t, JsonValue>>> ParseJsonLinesFile(
    const std::string& path) {
  QIMAP_ASSIGN_OR_RETURN(std::string text, ReadText(path));
  std::vector<std::pair<size_t, JsonValue>> lines;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    Result<JsonValue> value = ParseJson(line);
    if (!value.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": " + value.status().message());
    }
    lines.emplace_back(line_no, std::move(value).value());
  }
  return lines;
}

}  // namespace obs
}  // namespace qimap
