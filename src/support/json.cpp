#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "support/parse_error.hpp"

namespace tvnep {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double x) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = x;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::string& source, long line)
      : text_(text), source_(source), line_(line) {}

  JsonValue run() {
    skip_ws();
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(source_, line_, static_cast<long>(pos_) + 1, message);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        // Past kMaxJsonDepth the parser refuses rather than recursing
        // toward a stack overflow.
        if (++depth_ > kMaxJsonDepth)
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
               " levels");
        JsonValue v = text_[pos_] == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"':
        return JsonValue::make_string(string());
      case 't':
        literal("true");
        return JsonValue::make_bool(true);
      case 'f':
        literal("false");
        return JsonValue::make_bool(false);
      case 'n':
        literal("null");
        return JsonValue::make_null();
      default:
        return number();
    }
  }

  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (peek() != *p) fail(std::string("invalid literal, expected ") + word);
      ++pos_;
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a JSON value");
    double out = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, out);
    if (ec != std::errc() || end != last) {
      pos_ = start;
      fail("malformed number");
    }
    return JsonValue::make_number(out);
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::uint32_t hex4() {
    std::uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      std::uint32_t digit = 0;
      if (c >= '0' && c <= '9')
        digit = static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        digit = static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        digit = static_cast<std::uint32_t>(c - 'A' + 10);
      else
        fail("invalid \\u escape");
      cp = (cp << 4) | digit;
      ++pos_;
    }
    return cp;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          std::uint32_t cp = hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00-\uDFFF.
            if (peek() != '\\') fail("lone high surrogate");
            ++pos_;
            if (peek() != 'u') fail("lone high surrogate");
            ++pos_;
            const std::uint32_t low = hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid surrogate pair");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          fail("invalid escape character");
      }
    }
  }

  JsonValue array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      skip_ws();
      items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::make_array(std::move(items));
    }
  }

  JsonValue object() {
    expect('{');
    std::map<std::string, JsonValue> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = string();
      skip_ws();
      expect(':');
      skip_ws();
      members[std::move(key)] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue::make_object(std::move(members));
    }
  }

  const std::string& text_;
  const std::string& source_;
  long line_ = 1;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text, const std::string& source,
                     long line) {
  return Parser(text, source, line).run();
}

int require_index(const JsonValue& value, const std::string& what,
                  long long limit, const std::string& source, long line) {
  const double x = value.is_number() ? value.as_number() : -1.0;
  if (!(x >= 0.0) || x >= static_cast<double>(limit) || std::floor(x) != x)
    throw ParseError(source, line, 0, what + " out of range");
  return static_cast<int>(x);
}

std::string json_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_quote(const std::string& value) {
  return "\"" + json_escape(value) + "\"";
}

std::string exact_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace tvnep
