#pragma once
/// \file json.hpp
/// \brief Tiny dependency-free JSON reader/writer.
///
/// This is the one JSON implementation in HEPEX: `cfg::Scenario` files,
/// characterization files (schema v2), the metrics-registry snapshot and
/// the bench artifact writers all go through it. Design constraints:
///
///  - **Deterministic**: objects preserve insertion order, the writer is a
///    pure function of the value, and numbers are emitted with the
///    shortest representation that round-trips the exact double — so
///    load→save→load of any HEPEX artifact is bit-identical.
///  - **Error positions**: the parser reports `line N, column M` in every
///    failure, and callers layer field paths on top (see cfg/scenario).
///  - **Small**: strict JSON (RFC 8259) minus surrogate-pair decoding —
///    HEPEX artifacts are ASCII; non-ASCII bytes pass through verbatim.

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace hepex::util::json {

class Value;

/// Object member list; insertion order is preserved (determinism).
using Members = std::vector<std::pair<std::string, Value>>;
using Array = std::vector<Value>;

enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

/// One JSON value. Copyable; arrays/objects own their children.
class Value {
 public:
  Value() : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}                // NOLINT
  Value(double v) : kind_(Kind::kNumber), number_(v) {}          // NOLINT
  Value(int v) : kind_(Kind::kNumber), number_(v) {}             // NOLINT
  Value(const char* s) : kind_(Kind::kString), string_(s) {}     // NOLINT
  Value(std::string s)                                           // NOLINT
      : kind_(Kind::kString), string_(std::move(s)) {}
  Value(Array a) : kind_(Kind::kArray), array_(std::move(a)) {}  // NOLINT
  Value(Members m)                                               // NOLINT
      : kind_(Kind::kObject), members_(std::move(m)) {}

  static Value object() { return Value(Members{}); }
  static Value array() { return Value(Array{}); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::logic_error on a kind mismatch (callers
  /// are expected to check `kind()` / `is_*` first).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Members& members() const;
  Members& members();

  /// Object lookup; null when absent (or when not an object).
  const Value* find(const std::string& key) const;

  /// Append/overwrite an object member (keeps first-insertion order).
  void set(const std::string& key, Value v);

  /// Append an array element.
  void push_back(Value v);

  bool operator==(const Value& other) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Members members_;
};

/// Human-readable kind name ("number", "object", ...) for error messages.
const char* kind_name(Kind k);

/// Hard input limits the parser enforces — the first line of defense
/// when the bytes come from an untrusted peer (the `hepexd` socket).
/// The defaults are far above anything a legitimate HEPEX artifact
/// reaches, so ordinary callers never see them; the service passes a
/// much tighter budget (svc::framing caps the frame first, then parses
/// with limits matched to the frame cap).
struct ParseLimits {
  /// Maximum container nesting (objects + arrays). The parser is
  /// recursive; this bounds its stack as well as adversarial depth.
  std::size_t max_depth = 128;
  /// Maximum document size in bytes, checked before parsing starts.
  std::size_t max_bytes = 64u << 20;  // 64 MiB
};

/// Parse strict JSON. Numbers read as `std::from_chars` reads them, so
/// independently of `LC_NUMERIC`; one below the double range reads as
/// ±0, one above it is an error. Throws std::invalid_argument with
/// `"<source>: line L, column C: <why>"` on malformed input (`source`
/// defaults to "json") — including a document that exceeds `limits`
/// (total size, container nesting depth). Trailing non-whitespace is an
/// error.
Value parse(const std::string& text, const std::string& source = "json",
            const ParseLimits& limits = {});

/// Serialize with two-space indentation and a trailing newline.
/// Deterministic: dump(parse(dump(v))) == dump(v) for any finite value.
std::string dump(const Value& v);

/// Serialize without insignificant whitespace (single line, no newline).
std::string dump_compact(const Value& v);

/// `v` as printf's `%.{P}g` prints it in the C locale, for the smallest
/// P in {15, 16, 17} that parses back to exactly `v` — built from the
/// shortest round-trip digits of `std::to_chars`, so the text is the
/// same under any `LC_NUMERIC`. Integral values print without a point.
/// Non-finite values are a precondition violation (JSON cannot carry
/// them); callers validate finiteness first.
std::string number_to_string(double v);

/// `s` as a quoted JSON string literal ('"' '\\' '\n' '\t' escaped,
/// other control bytes as \u00XX, everything else verbatim).
std::string quote(const std::string& s);

}  // namespace hepex::util::json
