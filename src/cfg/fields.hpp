#pragma once
/// \file fields.hpp
/// \brief The field-table engine every HEPEX document loads and saves
///        through: scenarios (cfg), characterizations (model) and chaos
///        plans (svc).
///
/// Each spec struct has one field list, a `visit` function template that
/// names every key once, with its kind:
///
///   template <class V, cfg::Of<ChaosPlan>... S>
///   void visit(V& v, S&... s) {
///     v.integer("burst_size", s.burst_size...);
///   }
///
/// `Reader` walks the list over one struct to load it; `Writer` walks it
/// over a (value, base) pair to save it. The engine calls `visit`
/// unqualified, so argument-dependent lookup finds each list: in
/// hepex::cfg through the Reader/Writer argument (the platform, workload,
/// fault and scenario lists in scenario.cpp), or in the namespace of the
/// struct it lists (model's Characterization, svc's ChaosPlan).
///
/// Every error names the document and the full field path:
/// `source: path: why`.

#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/number.hpp"
#include "util/quantity.hpp"
#include "workload/program.hpp"

namespace hepex::cfg {

namespace jn = util::json;

// --- error plumbing -------------------------------------------------------

[[noreturn]] inline void fail_at(const std::string& source,
                                 const std::string& path,
                                 const std::string& why) {
  // hepex-lint: allow(bare-throw) parser fail-helper IS the input-validation layer; prefixes source/path context fail_require cannot
  throw std::invalid_argument(source + ": " + path + ": " + why);
}

/// Re-raise a registry or range error at `path`, without its `hepex: `
/// prefix (the source/path prefix replaces it).
[[noreturn]] inline void rethrow_at(const std::invalid_argument& e,
                                    const std::string& source,
                                    const std::string& path) {
  std::string msg = e.what();
  const std::string prefix = "hepex: ";
  if (msg.rfind(prefix, 0) == 0) msg.erase(0, prefix.size());
  fail_at(source, path, msg);
}

/// Compact rendering of a JSON value for "got ..." clauses.
inline std::string repr(const jn::Value& v) { return jn::dump_compact(v); }

// --- typed leaf readers ---------------------------------------------------

inline std::string read_string(const jn::Value& v, const std::string& path,
                               const std::string& source) {
  if (!v.is_string()) {
    fail_at(source, path, "expected a string, got " + repr(v));
  }
  return v.as_string();
}

inline bool read_bool(const jn::Value& v, const std::string& path,
                      const std::string& source) {
  if (!v.is_bool()) {
    fail_at(source, path, "expected true or false, got " + repr(v));
  }
  return v.as_bool();
}

inline double read_number(const jn::Value& v, const std::string& path,
                          const std::string& source) {
  if (!v.is_number()) {
    fail_at(source, path, "expected a number, got " + repr(v));
  }
  return v.as_number();
}

/// The range is checked on the double: casting one outside int's range is
/// undefined behaviour.
inline int read_int(const jn::Value& v, const std::string& path,
                    const std::string& source) {
  const double d = read_number(v, path, source);
  if (std::floor(d) != d || d < std::numeric_limits<int>::min() ||
      d > std::numeric_limits<int>::max()) {
    fail_at(source, path, "expected an integer, got " + repr(v));
  }
  return static_cast<int>(d);
}

inline std::uint64_t read_seed(const jn::Value& v, const std::string& path,
                               const std::string& source) {
  const double d = read_number(v, path, source);
  if (std::floor(d) != d || d < 0.0 || d > 9007199254740992.0 /* 2^53 */) {
    fail_at(source, path,
            "expected a non-negative integer seed (< 2^53), got " + repr(v));
  }
  return static_cast<std::uint64_t>(d);
}

/// Check `v` is an array of `noun` and hand each element and its indexed
/// path to `each`.
template <class Each>
void read_array(const jn::Value& v, const char* noun, const std::string& path,
                const std::string& source, Each each) {
  if (!v.is_array()) {
    fail_at(source, path,
            std::string("expected an array of ") + noun + ", got " + repr(v));
  }
  std::size_t i = 0;
  for (const auto& e : v.as_array()) {
    each(e, path + "[" + std::to_string(i) + "]");
    ++i;
  }
}

// --- unit quantities ------------------------------------------------------
//
// Scenarios spell every dimensioned value as a string with a unit suffix.
// Quantities are written as "<shortest-round-trip-number><base unit>";
// every base-unit suffix parses back with an exact 1.0 multiplier, which
// is what makes load→save→load bit-identical. (Measurement records such as
// the characterization write plain numbers in base units: `num`.)

template <class Q>
struct Unit {
  const char* what;    ///< noun in errors: "expected <what> with unit suffix"
  const char* suffix;  ///< base-unit suffix written on save
  Q (*parse)(const std::string&);
};

inline const Unit<q::Hertz> kFrequency{"a frequency", "Hz",
                                       util::parse_frequency};
inline const Unit<q::Seconds> kDuration{"a duration", "s",
                                        util::parse_duration};
inline const Unit<q::Bytes> kSize{"a size", "B", util::parse_size};
inline const Unit<q::BitsPerSec> kBandwidth{"bandwidth", "bit/s",
                                            util::parse_bandwidth};
inline const Unit<q::BytesPerSec> kByteRate{"a byte rate", "B/s",
                                            util::parse_byte_rate};
inline const Unit<q::Watts> kPower{"power", "W", util::parse_power};

/// A number field is stored either as a q type or as a raw double in base
/// units (the fault plan and a few hw/workload fields).
inline double magnitude(double d) { return d; }
template <class D>
double magnitude(q::Quantity<D> x) {
  return x.value();
}

template <class Q>
std::string quantity_text(double magnitude, const Unit<Q>& u) {
  return jn::number_to_string(magnitude) + u.suffix;
}

/// True when the whole (space-trimmed) text parses as a plain number —
/// i.e. the unit suffix is missing.
inline bool is_plain_number(const std::string& text) {
  const std::size_t used = util::read_double(text).used;
  return used != 0 && text.find_first_not_of(' ', used) == std::string::npos;
}

/// Bare numbers (with or without quotes) are rejected: scenarios must
/// spell the unit.
template <class Q>
Q read_quantity(const jn::Value& v, const Unit<Q>& u, const std::string& path,
                const std::string& source) {
  if (!v.is_string()) {
    fail_at(source, path, std::string("expected ") + u.what +
                              " with unit suffix, got " + repr(v));
  }
  const std::string& text = v.as_string();
  if (is_plain_number(text)) {
    fail_at(source, path, std::string("expected ") + u.what +
                              " with unit suffix, got \"" + text + "\"");
  }
  try {
    return u.parse(text);
  } catch (const std::invalid_argument& e) {
    rethrow_at(e, source, path);
  }
}

// --- enumerations ---------------------------------------------------------

template <class E, std::size_t N>
struct Enum {
  const char* what;  ///< noun in errors: "unknown <what> 'x' (use <hint>)"
  const char* hint;
  std::pair<const char*, E> names[N];

  const char* name_of(E value) const {
    for (const auto& [name, v] : names) {
      if (v == value) return name;
    }
    fail_assert(std::string(what) + " value has no name");
  }
};

inline const Enum<workload::InputClass, 5> kInputClass{
    "input class",
    "S, W, A, B or C",
    {{"S", workload::InputClass::kS},
     {"W", workload::InputClass::kW},
     {"A", workload::InputClass::kA},
     {"B", workload::InputClass::kB},
     {"C", workload::InputClass::kC}}};

inline const Enum<workload::CommPattern, 4> kCommPattern{
    "comm pattern",
    "halo-3d, wavefront, all-to-all or ring",
    {{"halo-3d", workload::CommPattern::kHalo3D},
     {"wavefront", workload::CommPattern::kWavefront},
     {"all-to-all", workload::CommPattern::kAllToAll},
     {"ring", workload::CommPattern::kRing}}};

// --- the two visitors -----------------------------------------------------

/// A field's key. Required keys must be present on load and are written
/// on save even when they equal the base.
struct Key {
  /// Implicit, so a field list spells a plain key as a string literal.
  constexpr Key(const char* n, bool req = false) : name(n), required(req) {}
  const char* name;
  bool required;
};

constexpr Key required(const char* name) { return Key(name, true); }

/// A field list's parameter: `S` is `T`, const or not.
template <class S, class T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

/// Load visitor over one JSON object: claims each key it is asked for,
/// type-checks it with its full field path, and stores it in the field.
/// reject_unknown() then fails on any member no field claimed.
class Reader {
 public:
  Reader(const jn::Value& v, std::string path, const std::string& source)
      : value_(v), path_(std::move(path)), source_(source) {
    if (!v.is_object()) {
      fail_at(source_, path_.empty() ? "(document)" : path_,
              std::string("expected an object, got ") + repr(v));
    }
  }

  /// The reader keeps references to `v` and `source`, so neither may be a
  /// temporary.
  Reader(jn::Value&& v, std::string path, const std::string& source) = delete;
  Reader(const jn::Value& v, std::string path, std::string&& source) = delete;

  /// Read the object at `v` into `out` through its field list.
  template <class T>
  static void read(const jn::Value& v, const std::string& path,
                   const std::string& source, T& out) {
    Reader r(v, path, source);
    visit(r, out);
    r.reject_unknown();
  }

  /// Claim `key`; null when absent.
  const jn::Value* get(const std::string& key) {
    claimed_.insert(key);
    return value_.find(key);
  }

  /// Claim `key`; error when absent.
  const jn::Value& require(const std::string& key) {
    const jn::Value* v = get(key);
    if (v == nullptr) fail_at(source_, sub(key), "missing required key");
    return *v;
  }

  /// Reject any member no field claimed. Call after all get()s.
  void reject_unknown() const {
    for (const auto& [key, v] : value_.members()) {
      (void)v;
      if (claimed_.count(key) == 0) fail_at(source_, sub(key), "unknown key");
    }
  }

  /// The document's "schema" tag, which must be `tag`.
  void schema(const char* tag) {
    const std::string path = sub("schema");
    const std::string got = read_string(require("schema"), path, source_);
    if (got != tag) {
      fail_at(source_, path,
              std::string("expected \"") + tag + "\", got \"" + got + "\"");
    }
  }

  void str(Key k, std::string& f) {
    if (const auto* v = claim(k)) f = read_string(*v, sub(k.name), source_);
  }
  void boolean(Key k, bool& f) {
    if (const auto* v = claim(k)) f = read_bool(*v, sub(k.name), source_);
  }
  /// A plain number: a double, or a quantity in its base unit.
  template <class T>
  void num(Key k, T& f) {
    if (const auto* v = claim(k)) f = T{read_number(*v, sub(k.name), source_)};
  }
  void integer(Key k, int& f) {
    if (const auto* v = claim(k)) f = read_int(*v, sub(k.name), source_);
  }
  void seed(Key k, std::uint64_t& f) {
    if (const auto* v = claim(k)) f = read_seed(*v, sub(k.name), source_);
  }

  template <class Q, class T>
  void unit(Key k, const Unit<Q>& u, T& f) {
    if (const auto* v = claim(k)) {
      const Q x = read_quantity(*v, u, sub(k.name), source_);
      if constexpr (std::is_same_v<T, double>) {
        f = x.value();
      } else {
        f = x;
      }
    }
  }

  template <class E, std::size_t N>
  void choice(Key k, const Enum<E, N>& e, E& f) {
    const auto* v = claim(k);
    if (v == nullptr) return;
    const std::string path = sub(k.name);
    const std::string s = read_string(*v, path, source_);
    for (const auto& [name, value] : e.names) {
      if (s == name) {
        f = value;
        return;
      }
    }
    fail_at(source_, path, std::string("unknown ") + e.what + " '" + s +
                               "' (use " + e.hint + ")");
  }

  /// An array of plain numbers (of integers when T is int).
  template <class T>
  void nums(Key k, std::vector<T>& f) {
    const auto* v = claim(k);
    if (v == nullptr) return;
    f.clear();
    read_array(*v, std::is_same_v<T, int> ? "integers" : "numbers",
               sub(k.name), source_,
               [&](const jn::Value& e, const std::string& p) {
                 if constexpr (std::is_same_v<T, int>) {
                   f.push_back(read_int(e, p, source_));
                 } else {
                   f.push_back(T{read_number(e, p, source_)});
                 }
               });
  }

  /// A non-empty number axis: a present-but-empty axis would be
  /// indistinguishable from an absent one after save, so it is rejected
  /// to keep canonical emission a fixed point.
  void axis(Key k, std::vector<double>& f) {
    const jn::Value* v = value_.find(k.name);
    if (v != nullptr && v->is_array() && v->as_array().empty()) {
      fail_at(source_, sub(k.name), "axis is empty (omit the key instead)");
    }
    nums(k, f);
  }

  void freqs(Key k, std::vector<q::Hertz>& f) {
    const auto* v = claim(k);
    if (v == nullptr) return;
    f.clear();
    read_array(*v, "frequencies", sub(k.name), source_,
               [&](const jn::Value& e, const std::string& p) {
                 f.push_back(read_quantity(e, kFrequency, p, source_));
               });
  }

  template <class T>
  void obj(Key k, T& f) {
    if (const auto* v = claim(k)) read(*v, sub(k.name), source_, f);
  }

  /// A nested object whose keys `fields(reader)` claims: one section that
  /// holds fields of more than one struct.
  template <class F>
  void section(Key k, F fields) {
    if (const auto* v = claim(k)) {
      Reader r(*v, sub(k.name), source_);
      fields(r);
      r.reject_unknown();
    }
  }

  /// An array of objects; `noun` names the elements in type errors.
  template <class T>
  void objs(Key k, const char* noun, std::vector<T>& f) {
    const auto* v = claim(k);
    if (v == nullptr) return;
    f.clear();
    read_array(*v, noun, sub(k.name), source_,
               [&](const jn::Value& e, const std::string& p) {
                 read(e, p, source_, f.emplace_back());
               });
  }

 private:
  /// Child path ("platform" + "network" -> "platform.network").
  std::string sub(const std::string& key) const {
    return path_.empty() ? key : path_ + "." + key;
  }

  const jn::Value* claim(Key k) {
    return k.required ? &require(k.name) : get(k.name);
  }

  const jn::Value& value_;
  std::string path_;
  const std::string& source_;
  std::set<std::string> claimed_;
};

/// Save visitor over a (value, base) pair: writes a key when the value
/// differs from the base (`!(a == b)`), when the key is required, or
/// always in full mode. Nested objects that come out empty are dropped,
/// and so are empty arrays of objects and empty axes (both spell
/// "absent").
class Writer {
 public:
  explicit Writer(bool full) : full_(full) {}

  /// `value` through its field list, diffed against `base` (or in full
  /// when `full`).
  template <class T>
  static jn::Value write(const T& value, const T& base, bool full) {
    Writer w(full);
    visit(w, value, base);
    return w.take();
  }

  jn::Value take() { return std::move(out_); }

  /// A key outside the field lists (a registry reference, a table).
  void set(const std::string& key, jn::Value v) {
    out_.set(key, std::move(v));
  }

  void schema(const char* tag) { out_.set("schema", jn::Value(tag)); }

  void str(Key k, const std::string& a, const std::string& b) {
    if (differs(k, a, b)) out_.set(k.name, jn::Value(a));
  }
  void boolean(Key k, bool a, bool b) {
    if (differs(k, a, b)) out_.set(k.name, jn::Value(a));
  }
  template <class T>
  void num(Key k, const T& a, const T& b) {
    if (differs(k, magnitude(a), magnitude(b))) {
      out_.set(k.name, jn::Value(magnitude(a)));
    }
  }
  void integer(Key k, int a, int b) {
    if (differs(k, a, b)) out_.set(k.name, jn::Value(a));
  }
  void seed(Key k, std::uint64_t a, std::uint64_t b) {
    if (differs(k, a, b)) out_.set(k.name, jn::Value(static_cast<double>(a)));
  }

  template <class Q, class T>
  void unit(Key k, const Unit<Q>& u, const T& a, const T& b) {
    if (differs(k, magnitude(a), magnitude(b))) {
      out_.set(k.name, jn::Value(quantity_text(magnitude(a), u)));
    }
  }

  template <class E, std::size_t N>
  void choice(Key k, const Enum<E, N>& e, E a, E b) {
    if (differs(k, a, b)) out_.set(k.name, jn::Value(e.name_of(a)));
  }

  template <class T>
  void nums(Key k, const std::vector<T>& a, const std::vector<T>& b) {
    if (!differs(k, a, b)) return;
    jn::Value arr = jn::Value::array();
    for (const T& x : a) arr.push_back(jn::Value(magnitude(x)));
    out_.set(k.name, std::move(arr));
  }

  void axis(Key k, const std::vector<double>& a,
            const std::vector<double>& b) {
    if (!a.empty()) nums(k, a, b);
  }

  void freqs(Key k, const std::vector<q::Hertz>& a,
             const std::vector<q::Hertz>& b) {
    if (!differs(k, a, b)) return;
    jn::Value arr = jn::Value::array();
    for (q::Hertz f : a) arr.push_back(quantity_text(f.value(), kFrequency));
    out_.set(k.name, std::move(arr));
  }

  template <class T>
  void obj(Key k, const T& a, const T& b) {
    section(k, [&](Writer& w) { visit(w, a, b); });
  }

  template <class F>
  void section(Key k, F fields) {
    Writer w(full_);
    fields(w);
    jn::Value child = w.take();
    if (!child.members().empty()) out_.set(k.name, std::move(child));
  }

  /// Each element is diffed against a default-constructed one, so only
  /// its required and non-default keys are written.
  template <class T>
  void objs(Key k, const char* /*noun*/, const std::vector<T>& a,
            const std::vector<T>& /*base*/) {
    if (a.empty()) return;
    jn::Value arr = jn::Value::array();
    for (const T& e : a) arr.push_back(write(e, T{}, full_));
    out_.set(k.name, std::move(arr));
  }

 private:
  template <class T>
  bool differs(Key k, const T& a, const T& b) const {
    return full_ || k.required || !(a == b);
  }

  bool full_;
  jn::Value out_ = jn::Value::object();
};

}  // namespace hepex::cfg
