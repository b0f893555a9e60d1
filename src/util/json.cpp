#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "util/error.hpp"
#include "util/number.hpp"

namespace hepex::util::json {

namespace {

[[noreturn]] void kind_error(const char* wanted, Kind got) {
  fail_assert(std::string("JSON value is ") + kind_name(got) + ", not " +
              wanted);
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "unknown";
}

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool", kind_);
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("number", kind_);
  return number_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) kind_error("string", kind_);
  return string_;
}

const Array& Value::as_array() const {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return array_;
}

Array& Value::as_array() {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return array_;
}

const Members& Value::members() const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return members_;
}

Members& Value::members() {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return members_;
}

const Value* Value::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Value::set(const std::string& key, Value v) {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

void Value::push_back(Value v) {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  array_.push_back(std::move(v));
}

bool Value::operator==(const Value& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return bool_ == other.bool_;
    case Kind::kNumber: return number_ == other.number_;
    case Kind::kString: return string_ == other.string_;
    case Kind::kArray: return array_ == other.array_;
    case Kind::kObject: return members_ == other.members_;
  }
  return false;
}

namespace {

/// Longest text `write_number` writes: "-0.0001" plus 17 digits, or
/// "-d." plus 16 digits plus "e-308".
constexpr std::size_t kNumberChars = 32;

/// A decimal d.ddd x 10^exp split out of `to_chars` scientific text.
struct Decimal {
  bool neg = false;
  char digits[20] = {};
  int count = 0;  // significant digits, trailing zeros dropped
  int exp = 0;
};

Decimal split_scientific(const char* p, const char* end) {
  Decimal d;
  if (*p == '-') {
    d.neg = true;
    ++p;
  }
  for (; *p != 'e'; ++p) {
    if (*p != '.') d.digits[d.count++] = *p;
  }
  while (d.count > 1 && d.digits[d.count - 1] == '0') --d.count;
  ++p;
  const bool neg_exp = *p++ == '-';
  for (; p != end; ++p) d.exp = 10 * d.exp + (*p - '0');
  if (neg_exp) d.exp = -d.exp;
  return d;
}

/// Writes `v` the way printf's `%.{P}g` does in the C locale, for the
/// smallest P in {15, 16, 17} whose text parses back to `v`. That is the
/// layout every HEPEX artifact has always used; this reaches it without
/// printf or strtod.
///
/// The digits are the shortest round-trip digits from `to_chars`, and
/// P = max(15, their count). With at most 15 digits, `%.15g` rounds to
/// those same digits: two 15-digit decimals lie further apart than one
/// double ulp, so only one fits `v`'s rounding interval. With 16 or 17,
/// `%.{P}g` is the nearest P-digit decimal, which `to_chars` also picks
/// among its shortest candidates. Two kinds of doubles break that
/// argument and run printf's precision loop on `to_chars` instead
/// (`to_chars` with a precision is specified as printf): subnormals,
/// whose shortest digits can be fewer than the 15 `%.15g` prints, and
/// powers of two, whose rounding interval is half as wide below `v`, so
/// the nearest 16-digit decimal can miss it while a farther one above
/// fits.
char* write_number(char* out, double v) {
  char sci[kNumberChars];
  Decimal d = split_scientific(
      sci, std::to_chars(sci, sci + sizeof(sci), v,
                         std::chars_format::scientific)
               .ptr);
  int precision = std::max(15, d.count);
  int exp2 = 0;
  if (std::fpclassify(v) == FP_SUBNORMAL ||
      (d.count > 15 && std::frexp(std::fabs(v), &exp2) == 0.5)) {
    for (precision = 15;; ++precision) {
      char* end = std::to_chars(sci, sci + sizeof(sci), v,
                                std::chars_format::scientific, precision - 1)
                      .ptr;
      double back = 0.0;
      std::from_chars(sci, end, back);
      if (back == v || precision == 17) {
        d = split_scientific(sci, end);
        break;
      }
    }
  }

  if (d.neg) *out++ = '-';
  if (d.exp >= -4 && d.exp < precision) {
    if (d.exp < 0) {
      *out++ = '0';
      *out++ = '.';
      out = std::fill_n(out, -d.exp - 1, '0');
      return std::copy_n(d.digits, d.count, out);
    }
    const int whole = d.exp + 1;
    if (d.count <= whole) {
      out = std::copy_n(d.digits, d.count, out);
      return std::fill_n(out, whole - d.count, '0');
    }
    out = std::copy_n(d.digits, whole, out);
    *out++ = '.';
    return std::copy_n(d.digits + whole, d.count - whole, out);
  }
  *out++ = d.digits[0];
  if (d.count > 1) {
    *out++ = '.';
    out = std::copy_n(d.digits + 1, d.count - 1, out);
  }
  *out++ = 'e';
  *out++ = d.exp < 0 ? '-' : '+';
  const int x = std::abs(d.exp);
  if (x >= 100) *out++ = static_cast<char>('0' + x / 100);
  *out++ = static_cast<char>('0' + x / 10 % 10);
  *out++ = static_cast<char>('0' + x % 10);
  return out;
}

void append_number(std::string& out, double v) {
  HEPEX_ASSERT(std::isfinite(v), "JSON cannot represent a non-finite number");
  char buf[kNumberChars];
  out.append(buf, write_number(buf, v));
}

void append_quoted(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  std::size_t run = 0;  // start of the pending verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(esc, sizeof(esc));
      }
    }
  }
  out.append(s, run, s.size() - run);
  out.push_back('"');
}

}  // namespace

std::string number_to_string(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

std::string quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_quoted(out, s);
  return out;
}

// --- parser ---------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::string& source,
         const ParseLimits& limits)
      : text_(text), source_(source), limits_(limits) {}

  Value run() {
    if (text_.size() > limits_.max_bytes) {
      fail("document is " + std::to_string(text_.size()) +
           " bytes, exceeds the " + std::to_string(limits_.max_bytes) +
           "-byte limit");
    }
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    // hepex-lint: allow(bare-throw) parser fail-helper IS the input-validation layer; prefixes source:line context fail_require cannot
    throw std::invalid_argument(source_ + ": line " + std::to_string(line) +
                                ", column " + std::to_string(col) + ": " +
                                why);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'" +
           (pos_ < text_.size()
                ? std::string(", got '") + text_[pos_] + "'"
                : std::string(", got end of input")));
    }
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
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value();
        fail("invalid literal");
      case '\0': fail("unexpected end of input");
      default: return parse_number();
    }
  }

  /// Container-entry depth guard: the parser recurses per nesting level,
  /// so adversarial depth is both a stack-exhaustion and a CPU vector.
  void enter_container() {
    if (++depth_ > limits_.max_depth) {
      fail("nesting depth exceeds the limit of " +
           std::to_string(limits_.max_depth));
    }
  }

  Value parse_object() {
    enter_container();
    expect('{');
    Value obj = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected a quoted object key");
      std::string key = parse_string();
      if (obj.find(key) != nullptr) fail("duplicate key \"" + key + "\"");
      skip_ws();
      expect(':');
      skip_ws();
      obj.members().emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      --depth_;
      return obj;
    }
  }

  Value parse_array() {
    enter_container();
    expect('[');
    Value arr = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return arr;
    }
    while (true) {
      skip_ws();
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      --depth_;
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run of plain bytes up to the next quote, escape or
      // control byte in one append.
      std::size_t end = pos_;
      while (end < text_.size()) {
        const auto b = static_cast<unsigned char>(text_[end]);
        if (b < 0x20 || b == '"' || b == '\\') break;
        ++end;
      }
      out.append(text_, pos_, end - pos_);
      pos_ = end;
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("raw control character in string (use \\u escapes)");
      }
      if (pos_ >= text_.size()) fail("unterminated escape sequence");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("invalid hex digit in \\u escape");
          }
          // HEPEX artifacts only escape control bytes; encode the code
          // point as UTF-8 for generality.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail(std::string("invalid escape '\\") + e + "'");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() < '0' || peek() > '9') {
      pos_ = start;
      fail("invalid value");
    }
    while (peek() >= '0' && peek() <= '9') ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (peek() < '0' || peek() > '9') fail("digit expected after '.'");
      while (peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (peek() < '0' || peek() > '9') fail("digit expected in exponent");
      while (peek() >= '0' && peek() <= '9') ++pos_;
    }
    // Below a double's range reads as ±0, as strtod always has.
    const ReadDouble r =
        read_double(std::string_view(text_).substr(start, pos_ - start));
    if (r.out_of_range && r.value != 0.0) fail("number out of double range");
    return Value(r.value);
  }

  const std::string& text_;
  const std::string& source_;
  ParseLimits limits_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

void dump_into(const Value& v, std::string& out, int depth, bool pretty) {
  const auto newline_pad = [&out, pretty](int level) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(2 * level), ' ');
  };
  switch (v.kind()) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Kind::kNumber: append_number(out, v.as_number()); break;
    case Kind::kString: append_quoted(out, v.as_string()); break;
    case Kind::kArray: {
      const auto& a = v.as_array();
      if (a.empty()) {
        out += "[]";
        break;
      }
      // Scalar-only arrays stay on one line (frequency lists, node
      // counts); nested structures get one element per line.
      bool scalar = true;
      for (const auto& e : a) {
        if (e.is_array() || e.is_object()) {
          scalar = false;
          break;
        }
      }
      out.push_back('[');
      if (scalar || !pretty) {
        for (std::size_t i = 0; i < a.size(); ++i) {
          if (i > 0) out += pretty ? ", " : ",";
          dump_into(a[i], out, depth, pretty);
        }
      } else {
        for (std::size_t i = 0; i < a.size(); ++i) {
          if (i > 0) out.push_back(',');
          newline_pad(depth + 1);
          dump_into(a[i], out, depth + 1, pretty);
        }
        newline_pad(depth);
      }
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      const auto& m = v.members();
      if (m.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < m.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_pad(depth + 1);
        append_quoted(out, m[i].first);
        out += pretty ? ": " : ":";
        dump_into(m[i].second, out, depth + 1, pretty);
      }
      newline_pad(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

Value parse(const std::string& text, const std::string& source,
            const ParseLimits& limits) {
  return Parser(text, source, limits).run();
}

std::string dump(const Value& v) {
  std::string out;
  dump_into(v, out, 0, true);
  out += "\n";
  return out;
}

std::string dump_compact(const Value& v) {
  std::string out;
  dump_into(v, out, 0, false);
  return out;
}

}  // namespace hepex::util::json
