#include "src/telemetry/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace affsched {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[40];
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      std::fabs(value) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  return buf;
}

std::string ExactDouble(double value) {
  return value == 0.0 && std::signbit(value) ? "-0" : JsonNumber(value);
}

bool WriteJsonDocument(const std::string& path, const std::string& json) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) {
    return false;
  }
  out << json << "\n";
  return out.good();
}

const JsonValue* JsonValue::Get(const std::string& key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  // Last occurrence wins, matching how lenient parsers treat duplicates.
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) {
      found = &value;
    }
  }
  return found;
}

double JsonValue::AsDouble(double fallback) const {
  if (kind != Kind::kNumber) {
    return fallback;
  }
  return std::strtod(number.c_str(), nullptr);
}

int64_t JsonValue::AsInt64(int64_t fallback) const {
  if (kind != Kind::kNumber) {
    return fallback;
  }
  return std::strtoll(number.c_str(), nullptr, 10);
}

uint64_t JsonValue::AsUint64(uint64_t fallback) const {
  if (kind != Kind::kNumber || number.empty() || number[0] == '-') {
    return fallback;
  }
  return std::strtoull(number.c_str(), nullptr, 10);
}

const std::string& JsonValue::AsString(const std::string& fallback) const {
  return kind == Kind::kString ? string_value : fallback;
}

bool JsonValue::AsBool(bool fallback) const {
  return kind == Kind::kBool ? bool_value : fallback;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out, 0)) {
      return false;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail("trailing garbage after JSON value");
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const char* message) {
    *error_ = std::string(message) + " at byte " + std::to_string(pos_);
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
        return ParseLiteral("true", out, JsonValue::Kind::kBool, true);
      case 'f':
        return ParseLiteral("false", out, JsonValue::Kind::kBool, false);
      case 'n':
        return ParseLiteral("null", out, JsonValue::Kind::kNull, false);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseLiteral(const char* literal, JsonValue* out, JsonValue::Kind kind, bool value) {
    for (const char* p = literal; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return Fail("bad literal");
      }
    }
    out->kind = kind;
    out->bool_value = value;
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Fail("bad number");
    }
    const bool leading_zero = text_[pos_] == '0';
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (leading_zero && pos_ - start > (text_[start] == '-' ? 2u : 1u)) {
      return Fail("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Fail("bad number fraction");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Fail("bad number exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = text_.substr(start, pos_ - start);
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) {
        return Fail("unterminated string");
      }
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) {
        return Fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by any writer in this repo; reject them as malformed
          // rather than emitting broken UTF-8).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Fail("surrogate \\u escape unsupported");
          }
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      SkipSpace();
      if (!ParseValue(&element, depth + 1)) {
        return false;
      }
      out->array.push_back(std::move(element));
      SkipSpace();
      if (pos_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key string");
      }
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) {
        return false;
      }
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  std::string scratch;
  Parser parser(text, error != nullptr ? error : &scratch);
  *out = JsonValue();
  return parser.Parse(out);
}

bool IsValidJson(const std::string& text) {
  JsonValue value;
  return ParseJson(text, &value, nullptr);
}

}  // namespace affsched
