#include "common/json.h"

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace vc::json {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  // Containers recurse one C++ stack frame per nesting level, so depth must
  // be bounded or "[[[[..." overflows the stack instead of throwing. 256 is
  // far beyond any report this repo emits and far below any stack limit.
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json parse error at byte " + std::to_string(pos_) + ": " + what);
  }

  struct DepthGuard {
    explicit DepthGuard(Parser& p) : parser(p) {
      if (++parser.depth_ > kMaxDepth) parser.fail("nesting too deep");
    }
    ~DepthGuard() { --parser.depth_; }
    Parser& parser;
  };

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Value v;
        v.type = Value::Type::kString;
        v.string_value = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        {
          Value v;
          v.type = Value::Type::kBool;
          v.bool_value = true;
          return v;
        }
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        {
          Value v;
          v.type = Value::Type::kBool;
          return v;
        }
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      default: return parse_number();
    }
  }

  Value parse_object() {
    const DepthGuard guard{*this};
    expect('{');
    Value v;
    v.type = Value::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') fail("object key must be a string");
      std::string key = parse_string();
      expect(':');
      v.object_items.emplace_back(std::move(key), parse_value());
      char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    const DepthGuard guard{*this};
    expect('[');
    Value v;
    v.type = Value::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_items.push_back(parse_value());
      char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      // RFC 8259 §7: control characters inside a string must be escaped.
      if (static_cast<unsigned char>(c) < 0x20) fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = parse_hex4();
          // UTF-16 surrogate pair: a high half must be followed by an
          // escaped low half; together they name one supplementary-plane
          // code point. A lone half is not a character — substitute U+FFFD
          // rather than emitting ill-formed UTF-8.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 2 <= text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
              const std::size_t rewind = pos_;
              pos_ += 2;
              const unsigned low = parse_hex4();
              if (low >= 0xDC00 && low <= 0xDFFF) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
              } else {
                pos_ = rewind;  // the next escape stands alone; re-parse it
                code = 0xFFFD;
              }
            } else {
              code = 0xFFFD;
            }
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            code = 0xFFFD;  // low half with no preceding high half
          }
          append_utf8(out, code);
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Value parse_number() {
    // std::from_chars, not strtod: strtod honors LC_NUMERIC, so a host
    // locale with decimal commas would silently truncate "1.5" to 1.
    const char* start = text_.c_str() + pos_;
    const char* end = text_.c_str() + text_.size();
    double d = 0.0;
    const auto [ptr, ec] = std::from_chars(start, end, d);
    if (ptr == start || ec == std::errc::invalid_argument) fail("expected a value");
    if (ec == std::errc::result_out_of_range) {
      // from_chars leaves `d` untouched here, which would silently read
      // "1e400" as 0. Match strtod semantics instead: overflow saturates to
      // ±infinity, underflow flushes to zero — told apart by the exponent's
      // sign (out-of-range decimal literals always carry an exponent).
      const std::string_view token{start, static_cast<std::size_t>(ptr - start)};
      const std::size_t e = token.find_first_of("eE");
      const bool underflow = e != std::string_view::npos && e + 1 < token.size() &&
                             token[e + 1] == '-';
      d = underflow ? 0.0 : std::numeric_limits<double>::infinity();
      if (token.front() == '-') d = -d;
    }
    pos_ += static_cast<std::size_t>(ptr - start);
    Value v;
    v.type = Value::Type::kNumber;
    v.number_value = d;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object_items) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) throw std::runtime_error("json: missing key \"" + key + "\"");
  return *v;
}

Value parse(const std::string& text) { return Parser(text).parse_document(); }

namespace {

std::string to_chars_string(double v, std::chars_format fmt, int precision) {
  // 64 bytes covers every %.17g; fixed rendering of huge magnitudes (up to
  // ~310 digits for 1e308) grows the buffer instead of truncating.
  char stack_buf[64];
  auto [ptr, ec] = std::to_chars(stack_buf, stack_buf + sizeof(stack_buf), v, fmt, precision);
  if (ec == std::errc{}) return std::string(stack_buf, ptr);
  std::string buf(352 + static_cast<std::size_t>(precision), '\0');
  const auto [p2, e2] = std::to_chars(buf.data(), buf.data() + buf.size(), v, fmt, precision);
  buf.resize(e2 == std::errc{} ? static_cast<std::size_t>(p2 - buf.data()) : 0);
  return buf;
}

}  // namespace

std::string format_number(double v, int precision) {
  // std::to_chars(general, precision) is specified to match printf "%.*g" in
  // the C locale — byte-identical to the old snprintf path there, but immune
  // to LC_NUMERIC.
  return to_chars_string(v, std::chars_format::general, precision);
}

std::string format_fixed(double v, int precision) {
  return to_chars_string(v, std::chars_format::fixed, precision);
}

void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xF];
        } else {
          out += ch;
        }
    }
  }
}

}  // namespace vc::json
