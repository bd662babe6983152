#include "obs/json.h"

#include <cmath>
#include <cstdlib>

#include "util/error.h"

namespace acp::obs {

namespace {

/// Nesting bound: the artifacts read here nest three levels deep at most,
/// and the recursive descent must not be driven into a stack overflow.
constexpr int kMaxDepth = 64;

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }
bool is_digit(char c) { return c >= '0' && c <= '9'; }

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void append_utf8(std::string& out, unsigned code) {
  if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
  } else {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
  }
  out += static_cast<char>(0x80 | (code & 0x3F));
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw PreconditionError("json: " + why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() && is_space(s_[pos_])) ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void expect_word(const char* word) {
    for (const char* w = word; *w != '\0'; ++w, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *w) fail("bad literal");
    }
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    JsonValue v;
    switch (peek()) {
      case '{': parse_object(v, depth); break;
      case '[': parse_array(v, depth); break;
      case '"':
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        break;
      case 't':
        expect_word("true");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        break;
      case 'f':
        expect_word("false");
        v.kind = JsonValue::Kind::kBool;
        break;
      case 'n': expect_word("null"); break;
      default:
        v.kind = JsonValue::Kind::kNumber;
        v.number = parse_number();
    }
    return v;
  }

  void parse_object(JsonValue& v, int depth) {
    expect('{');
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      std::string key = parse_string();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value(depth + 1));
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(JsonValue& v, int depth) {
    expect('[');
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      v.array.push_back(parse_value(depth + 1));
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      switch (s_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int k = 0; k < 4; ++k, ++pos_) {
            const int h = pos_ < s_.size() ? hex_value(s_[pos_]) : -1;
            if (h < 0) fail("bad \\u escape");
            code = code * 16 + static_cast<unsigned>(h);
          }
          if (code <= 0xFF) {
            out += static_cast<char>(code);
          } else {
            append_utf8(out, code);
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  /// RFC 8259 number grammar, then strtod over exactly that span: the
  /// token must be consumed whole and the value must be finite.
  double parse_number() {
    const std::size_t start = pos_;
    const auto digits = [this] {
      const std::size_t from = pos_;
      while (pos_ < s_.size() && is_digit(s_[pos_])) ++pos_;
      return pos_ > from;
    };
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '0') {
      ++pos_;
    } else if (!digits()) {
      fail("expected a value");
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("bad number: digits expected after '.'");
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digits()) fail("bad number: exponent digits expected");
    }
    char* end = nullptr;
    const double v = std::strtod(s_.c_str() + start, &end);
    if (end != s_.c_str() + pos_) fail("bad number");
    if (!std::isfinite(v)) fail("number out of range");
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::num_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->kind == Kind::kNumber) ? v->number : fallback;
}

std::string JsonValue::str_or(const std::string& key, const std::string& fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->kind == Kind::kString) ? v->string : fallback;
}

JsonValue parse_json(const std::string& text) { return JsonParser(text).parse_document(); }

}  // namespace acp::obs
