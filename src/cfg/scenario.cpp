#include "cfg/scenario.hpp"

#include <cmath>
#include <concepts>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>

#include "hw/presets.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "workload/programs.hpp"

namespace hepex::cfg {
namespace {

namespace jn = util::json;

// --- error plumbing -------------------------------------------------------

[[noreturn]] void fail_at(const std::string& source, const std::string& path,
                          const std::string& why) {
  // hepex-lint: allow(bare-throw) parser fail-helper IS the input-validation layer; prefixes source/path context fail_require cannot
  throw std::invalid_argument(source + ": " + path + ": " + why);
}

/// Re-raise a registry or range error at `path`, without its `hepex: `
/// prefix (the source/path prefix replaces it).
[[noreturn]] void rethrow_at(const std::invalid_argument& e,
                             const std::string& source,
                             const std::string& path) {
  std::string msg = e.what();
  const std::string prefix = "hepex: ";
  if (msg.rfind(prefix, 0) == 0) msg.erase(0, prefix.size());
  fail_at(source, path, msg);
}

/// Compact rendering of a JSON value for "got ..." clauses.
std::string repr(const jn::Value& v) { return jn::dump_compact(v); }

// --- typed leaf readers ---------------------------------------------------

std::string read_string(const jn::Value& v, const std::string& path,
                        const std::string& source) {
  if (!v.is_string()) {
    fail_at(source, path, "expected a string, got " + repr(v));
  }
  return v.as_string();
}

bool read_bool(const jn::Value& v, const std::string& path,
               const std::string& source) {
  if (!v.is_bool()) {
    fail_at(source, path, "expected true or false, got " + repr(v));
  }
  return v.as_bool();
}

double read_number(const jn::Value& v, const std::string& path,
                   const std::string& source) {
  if (!v.is_number()) {
    fail_at(source, path, "expected a number, got " + repr(v));
  }
  return v.as_number();
}

int read_int(const jn::Value& v, const std::string& path,
             const std::string& source) {
  const double d = read_number(v, path, source);
  if (std::floor(d) != d || d < std::numeric_limits<int>::min() ||
      d > std::numeric_limits<int>::max()) {
    fail_at(source, path, "expected an integer, got " + repr(v));
  }
  return static_cast<int>(d);
}

std::uint64_t read_seed(const jn::Value& v, const std::string& path,
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
// is what makes load→save→load bit-identical.

template <class Q>
struct Unit {
  const char* what;    ///< noun in errors: "expected <what> with unit suffix"
  const char* suffix;  ///< base-unit suffix written on save
  Q (*parse)(const std::string&);
};

const Unit<q::Hertz> kFrequency{"a frequency", "Hz", util::parse_frequency};
const Unit<q::Seconds> kDuration{"a duration", "s", util::parse_duration};
const Unit<q::Bytes> kSize{"a size", "B", util::parse_size};
const Unit<q::BitsPerSec> kBandwidth{"bandwidth", "bit/s",
                                     util::parse_bandwidth};
const Unit<q::BytesPerSec> kByteRate{"a byte rate", "B/s",
                                     util::parse_byte_rate};
const Unit<q::Watts> kPower{"power", "W", util::parse_power};

/// A quantity field is stored either as its q type or as a raw double in
/// base units (the fault plan and a few hw/workload fields).
double magnitude(double d) { return d; }
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
bool is_plain_number(const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double d = std::strtod(begin, &end);
  (void)d;
  if (end == begin) return false;
  while (*end == ' ') ++end;
  return *end == '\0';
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

const Enum<hw::IsaFamily, 2> kIsaFamily{
    "ISA family",
    "x86_64 or armv7a",
    {{"x86_64", hw::IsaFamily::kX86_64}, {"armv7a", hw::IsaFamily::kArmV7A}}};

const Enum<workload::CommPattern, 4> kCommPattern{
    "comm pattern",
    "halo-3d, wavefront, all-to-all or ring",
    {{"halo-3d", workload::CommPattern::kHalo3D},
     {"wavefront", workload::CommPattern::kWavefront},
     {"all-to-all", workload::CommPattern::kAllToAll},
     {"ring", workload::CommPattern::kRing}}};

const Enum<fault::RecoveryMode, 2> kRecoveryMode{
    "recovery mode",
    "abort or restart",
    {{"abort", fault::RecoveryMode::kAbort},
     {"restart", fault::RecoveryMode::kCheckpointRestart}}};

// --- the two visitors -----------------------------------------------------
//
// Each spec struct has one field list (`visit`, below) naming every key
// once, with its kind. Reader walks it over one struct to load; Writer
// walks it over a (value, base) pair to save.

/// A field's key. Required keys must be present on load and are written
/// on save even when they equal the base.
struct Key {
  /// Implicit, so a field list spells a plain key as a string literal.
  constexpr Key(const char* n, bool req = false) : name(n), required(req) {}
  const char* name;
  bool required;
};

constexpr Key required(const char* name) { return Key(name, true); }

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

  /// Read the object at `v` into `out` through its field list.
  template <class T>
  static void read(const jn::Value& v, const std::string& path,
                   const std::string& source, T& out) {
    Reader r(v, path, source);
    visit(r, out);
    r.reject_unknown();
  }

  /// Child path ("platform" + "network" -> "platform.network").
  std::string sub(const std::string& key) const {
    return path_.empty() ? key : path_ + "." + key;
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

  void str(Key k, std::string& f) {
    if (const auto* v = claim(k)) f = read_string(*v, sub(k.name), source_);
  }
  void boolean(Key k, bool& f) {
    if (const auto* v = claim(k)) f = read_bool(*v, sub(k.name), source_);
  }
  void num(Key k, double& f) {
    if (const auto* v = claim(k)) f = read_number(*v, sub(k.name), source_);
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

  void ints(Key k, std::vector<int>& f) {
    const auto* v = claim(k);
    if (v == nullptr) return;
    f.clear();
    read_array(*v, "integers", sub(k.name), source_,
               [&](const jn::Value& e, const std::string& p) {
                 f.push_back(read_int(e, p, source_));
               });
  }

  /// A non-empty number axis: a present-but-empty axis would be
  /// indistinguishable from an absent one after save, so it is rejected
  /// to keep canonical emission a fixed point.
  void axis(Key k, std::vector<double>& f) {
    const auto* v = claim(k);
    if (v == nullptr) return;
    if (v->is_array() && v->as_array().empty()) {
      fail_at(source_, sub(k.name), "axis is empty (omit the key instead)");
    }
    f.clear();
    read_array(*v, "numbers", sub(k.name), source_,
               [&](const jn::Value& e, const std::string& p) {
                 f.push_back(read_number(e, p, source_));
               });
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

  /// A key outside the field lists (a registry reference, a section).
  void set(const std::string& key, jn::Value v) {
    out_.set(key, std::move(v));
  }

  void str(Key k, const std::string& a, const std::string& b) {
    if (differs(k, a, b)) out_.set(k.name, jn::Value(a));
  }
  void boolean(Key k, bool a, bool b) {
    if (differs(k, a, b)) out_.set(k.name, jn::Value(a));
  }
  void num(Key k, double a, double b) {
    if (differs(k, a, b)) out_.set(k.name, jn::Value(a));
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

  void ints(Key k, const std::vector<int>& a, const std::vector<int>& b) {
    if (!differs(k, a, b)) return;
    jn::Value arr = jn::Value::array();
    for (int n : a) arr.push_back(jn::Value(n));
    out_.set(k.name, std::move(arr));
  }

  void axis(Key k, const std::vector<double>& a,
            const std::vector<double>& b) {
    if (a.empty() || !differs(k, a, b)) return;
    jn::Value arr = jn::Value::array();
    for (double v : a) arr.push_back(jn::Value(v));
    out_.set(k.name, std::move(arr));
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
    jn::Value child = write(a, b, full_);
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

// --- field lists ----------------------------------------------------------
//
// One per spec struct, one line per key. `visit(reader, x)` loads x;
// `visit(writer, value, base)` saves it. Adding a line here adds the key
// to scenario load, canonical save, the machine embedded in a
// characterization and `hepex workload show`.

template <class S, class T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

template <class V, Of<hw::Isa>... S>
void visit(V& v, S&... s) {
  v.choice("family", kIsaFamily, s.family...);
  v.str("name", s.name...);
  v.num("work_cpi", s.work_cpi...);
  v.num("pipeline_stall_per_work_cycle", s.pipeline_stall_per_work_cycle...);
  v.num("memory_overlap", s.memory_overlap...);
  v.num("memory_level_parallelism", s.memory_level_parallelism...);
  v.num("message_software_cycles", s.message_software_cycles...);
}

template <class V, Of<hw::DvfsRange>... S>
void visit(V& v, S&... s) {
  v.freqs("frequencies", s.frequencies_hz...);
  v.num("v_min", s.v_min...);
  v.num("v_max", s.v_max...);
}

template <class V, Of<hw::CacheSpec>... S>
void visit(V& v, S&... s) {
  v.unit("l1_per_core", kSize, s.l1_per_core_bytes...);
  v.unit("l2_shared", kSize, s.l2_shared_bytes...);
  v.unit("l3_shared", kSize, s.l3_shared_bytes...);
  v.num("cold_miss_fraction", s.cold_miss_fraction...);
  v.num("knee", s.knee...);
}

template <class V, Of<hw::MemorySpec>... S>
void visit(V& v, S&... s) {
  v.unit("bandwidth", kByteRate, s.bandwidth_bytes_per_s...);
  v.unit("latency", kDuration, s.latency_s...);
  v.unit("capacity", kSize, s.capacity_bytes...);
  v.unit("line", kSize, s.line_bytes...);
}

template <class V, Of<hw::PowerSpec>... S>
void visit(V& v, S&... s) {
  v.num("core_active_coeff", s.core.active_coeff...);
  v.num("core_stall_fraction", s.core.stall_fraction...);
  v.unit("mem_active", kPower, s.mem_active_w...);
  v.unit("net_active", kPower, s.net_active_w...);
  v.unit("sys_idle", kPower, s.sys_idle_w...);
  v.unit("meter_offset_sigma", kPower, s.meter_offset_sigma_w...);
}

template <class V, Of<hw::NodeSpec>... S>
void visit(V& v, S&... s) {
  v.integer("cores", s.cores...);
  v.obj("isa", s.isa...);
  v.obj("dvfs", s.dvfs...);
  v.obj("cache", s.cache...);
  v.obj("memory", s.memory...);
  v.obj("power", s.power...);
}

template <class V, Of<hw::NetworkSpec>... S>
void visit(V& v, S&... s) {
  v.unit("bandwidth", kBandwidth, s.link_bits_per_s...);
  v.unit("switch_latency", kDuration, s.switch_latency_s...);
  v.unit("header_bytes_per_frame", kSize, s.header_bytes_per_frame...);
  v.unit("payload_bytes_per_frame", kSize, s.payload_bytes_per_frame...);
}

/// The platform's machine keys ("preset" is the caller's).
template <class V, Of<hw::MachineSpec>... S>
void visit(V& v, S&... s) {
  v.str("name", s.name...);
  v.integer("nodes_available", s.nodes_available...);
  v.ints("model_node_counts", s.model_node_counts...);
  v.obj("node", s.node...);
  v.obj("network", s.network...);
}

template <class V, Of<workload::ComputeSpec>... S>
void visit(V& v, S&... s) {
  v.num("instructions_per_iter", s.instructions_per_iter...);
  v.num("cpi_factor", s.cpi_factor...);
  v.num("stall_factor", s.stall_factor...);
  v.num("bytes_per_instruction", s.bytes_per_instruction...);
  v.num("reuse_bytes_per_instruction", s.reuse_bytes_per_instruction...);
  v.unit("reuse_window", kSize, s.reuse_window_bytes...);
  v.unit("working_set", kSize, s.working_set_bytes...);
  v.num("serial_fraction", s.serial_fraction...);
  v.num("imbalance", s.imbalance...);
  v.num("node_imbalance", s.node_imbalance...);
}

template <class V, Of<workload::CommSpec>... S>
void visit(V& v, S&... s) {
  v.choice("pattern", kCommPattern, s.pattern...);
  v.unit("base_bytes", kSize, s.base_bytes...);
  v.integer("rounds", s.rounds...);
  v.num("size_cv", s.size_cv...);
}

template <class V, Of<workload::SyncSpec>... S>
void visit(V& v, S&... s) {
  v.num("base_cycles", s.base_cycles...);
  v.num("cycles_per_total_core", s.cycles_per_total_core...);
}

/// The workload's program keys ("program", "class" and "grid" are the
/// caller's).
template <class V, Of<workload::ProgramSpec>... S>
void visit(V& v, S&... s) {
  v.str("name", s.name...);
  v.str("suite", s.suite...);
  v.str("language", s.language...);
  v.str("domain", s.domain...);
  v.integer("iterations", s.iterations...);
  v.obj("compute", s.compute...);
  v.obj("comm", s.comm...);
  v.obj("sync", s.sync...);
}

template <class V, Of<workload::SyntheticGrid>... S>
void visit(V& v, S&... s) {
  v.axis("ai", s.arithmetic_intensity...);
  v.axis("bpi", s.bytes_per_instruction...);
  v.axis("mi", s.message_intensity...);
  v.axis("imb", s.imbalance...);
  v.axis("sf", s.serial_fraction...);
  v.seed("seed", s.seed...);
}

template <class V, Of<fault::NodeCrash>... S>
void visit(V& v, S&... s) {
  v.integer(required("node"), s.node...);
  v.unit(required("at"), kDuration, s.at_s...);
}

template <class V, Of<fault::Straggler>... S>
void visit(V& v, S&... s) {
  v.integer(required("node"), s.node...);
  v.unit(required("start"), kDuration, s.start_s...);
  v.unit(required("duration"), kDuration, s.duration_s...);
  v.num(required("slowdown"), s.slowdown...);
}

template <class V, Of<fault::Throttle>... S>
void visit(V& v, S&... s) {
  v.integer(required("node"), s.node...);
  v.unit(required("start"), kDuration, s.start_s...);
  v.unit(required("duration"), kDuration, s.duration_s...);
  v.unit(required("f_cap"), kFrequency, s.f_cap_hz...);
}

template <class V, Of<fault::NetworkDegradation>... S>
void visit(V& v, S&... s) {
  v.unit(required("start"), kDuration, s.start_s...);
  v.unit(required("duration"), kDuration, s.duration_s...);
  v.num("latency_mult", s.latency_mult...);
  v.num("bandwidth_mult", s.bandwidth_mult...);
  v.num("drop_prob", s.drop_prob...);
}

template <class V, Of<fault::JitterStorm>... S>
void visit(V& v, S&... s) {
  v.unit(required("start"), kDuration, s.start_s...);
  v.unit(required("duration"), kDuration, s.duration_s...);
  v.num(required("jitter_cv"), s.jitter_cv...);
}

template <class V, Of<fault::RecoverySpec>... S>
void visit(V& v, S&... s) {
  v.choice("mode", kRecoveryMode, s.mode...);
  v.unit("barrier_timeout", kDuration, s.barrier_timeout_s...);
  v.unit("checkpoint_interval", kDuration, s.checkpoint_interval_s...);
  v.unit("checkpoint_write", kDuration, s.checkpoint_write_s...);
  v.unit("restart_cost", kDuration, s.restart_s...);
  v.integer("spare_nodes", s.spare_nodes...);
}

template <class V, Of<fault::Plan>... S>
void visit(V& v, S&... s) {
  v.seed("seed", s.seed...);
  v.unit("node_mtbf", kDuration, s.random_failures.node_mtbf_s...);
  v.objs("crashes", "crashes", s.crashes...);
  v.objs("stragglers", "stragglers", s.stragglers...);
  v.objs("throttles", "throttles", s.throttles...);
  v.objs("network_degradations", "degradation windows",
         s.net_degradations...);
  v.objs("jitter_storms", "jitter storms", s.jitter_storms...);
  v.obj("recovery", s.recovery...);
  v.unit("retransmit_timeout", kDuration, s.retransmit_timeout_s...);
  v.integer("max_retransmits", s.max_retransmits...);
}

template <class V, Of<SweepSpec>... S>
void visit(V& v, S&... s) {
  v.ints("nodes", s.nodes...);
  v.ints("cores", s.cores...);
  v.freqs("frequencies", s.frequencies...);
}

template <class V, Of<hw::ClusterConfig>... S>
void visit(V& v, S&... s) {
  v.integer("n", s.nodes...);
  v.integer("c", s.cores...);
  v.unit("f", kFrequency, s.f_hz...);
}

template <class V, Of<SimSettings>... S>
void visit(V& v, S&... s) {
  v.integer("chunks_per_iteration", s.chunks_per_iteration...);
  v.num("jitter_cv", s.jitter_cv...);
  v.seed("seed", s.seed...);
  v.integer("replicas", s.replicas...);
}

template <class V, Of<ObsSettings>... S>
void visit(V& v, S&... s) {
  v.str("log_level", s.log_level...);
  v.str("trace", s.trace_path...);
  v.str("metrics", s.metrics_path...);
  v.str("report", s.report_path...);
  v.boolean("profile", s.profile...);
}

// --- known log levels (mirrors obs::log_level_from_string; cfg sits
// below obs in the library stack) ------------------------------------------

bool known_log_level(const std::string& s) {
  return s.empty() || s == "off" || s == "error" || s == "warn" ||
         s == "info" || s == "debug" || s == "trace";
}

[[noreturn]] void fail_log_level(const std::string& source,
                                 const std::string& level) {
  fail_at(source, "obs.log_level",
          "unknown log level '" + level +
              "' (use off, error, warn, info, debug or trace)");
}

}  // namespace

// --- Scenario methods -----------------------------------------------------

std::vector<hw::ClusterConfig> Scenario::sweep_configs() const {
  const std::vector<int>& nodes =
      sweep.nodes.empty() ? machine.model_node_counts : sweep.nodes;
  std::vector<int> cores = sweep.cores;
  if (cores.empty()) {
    for (int c = 1; c <= machine.node.cores; ++c) cores.push_back(c);
  }
  const std::vector<q::Hertz>& freqs = sweep.frequencies.empty()
                                           ? machine.node.dvfs.frequencies_hz
                                           : sweep.frequencies;
  std::vector<hw::ClusterConfig> out;
  out.reserve(nodes.size() * cores.size() * freqs.size());
  for (int n : nodes) {
    for (int c : cores) {
      for (q::Hertz f : freqs) {
        out.push_back(hw::ClusterConfig{n, c, f});
      }
    }
  }
  return out;
}

hw::ClusterConfig Scenario::single_config() const {
  if (config) return *config;
  return hw::ClusterConfig{1, machine.node.cores, machine.node.dvfs.f_max()};
}

std::vector<workload::ProgramSpec> Scenario::workload_programs() const {
  if (!workload_grid) return {program};
  std::vector<workload::ProgramSpec> out;
  const std::vector<workload::SyntheticSpec> points = workload_grid->expand();
  out.reserve(points.size());
  for (const workload::SyntheticSpec& pt : points) {
    out.push_back(workload::make_synthetic(pt, input));
  }
  return out;
}

void Scenario::validate() const {
  hw::validate_machine(machine);
  program.validate();
  HEPEX_REQUIRE(!program_name.empty() || !program.name.empty(),
                "scenario names no program");
  if (workload_grid) {
    // Hand-built scenarios reach here without the load-time expansion;
    // every point must be in range and under the cap.
    try {
      (void)workload_grid->expand();
    } catch (const std::invalid_argument& e) {
      rethrow_at(e, "scenario", "workload.grid");
    }
  }
  for (int n : sweep.nodes) {
    if (n < 1) fail_at("scenario", "sweep.nodes", "node counts must be >= 1");
  }
  for (int c : sweep.cores) {
    if (c < 1 || c > machine.node.cores) {
      fail_at("scenario", "sweep.cores",
              "core counts must be in [1, " +
                  std::to_string(machine.node.cores) + "]");
    }
  }
  for (q::Hertz f : sweep.frequencies) {
    if (!machine.node.dvfs.supports(f)) {
      fail_at("scenario", "sweep.frequencies",
              "frequency " + jn::number_to_string(f.value()) +
                  "Hz is not one of the machine's DVFS points");
    }
  }
  if (config) {
    try {
      hw::validate_config(machine, *config, /*require_physical=*/false);
    } catch (const std::invalid_argument& e) {
      fail_at("scenario", "config", e.what());
    }
  }
  if (faults) faults->validate(single_config().nodes);
  if (sim.chunks_per_iteration < 1) {
    fail_at("scenario", "sim.chunks_per_iteration", "must be >= 1");
  }
  if (!(sim.jitter_cv >= 0.0) || !std::isfinite(sim.jitter_cv)) {
    fail_at("scenario", "sim.jitter_cv", "must be finite and >= 0");
  }
  if (sim.replicas < 1) {
    fail_at("scenario", "sim.replicas", "must be >= 1");
  }
  if (jobs < 0 || jobs > 512) {
    fail_at("scenario", "jobs", "must be in [0, 512] (0 = all cores)");
  }
  if (!known_log_level(obs.log_level)) fail_log_level("scenario", obs.log_level);
}

Scenario default_scenario() {
  Scenario s;
  s.platform_preset = "xeon";
  s.machine = hw::machine_by_name(s.platform_preset);
  s.program_name = "SP";
  s.input = workload::InputClass::kA;
  s.program = workload::program_by_name(s.program_name, s.input);
  return s;
}

// --- load -----------------------------------------------------------------

Scenario load_scenario(const std::string& text, const std::string& source) {
  return load_scenario(jn::parse(text, source), source);
}

Scenario load_scenario(const jn::Value& doc, const std::string& source) {
  Reader top(doc, "", source);

  {
    const jn::Value& schema = top.require("schema");
    const std::string got = read_string(schema, "schema", source);
    if (got != kScenarioSchema) {
      fail_at(source, "schema",
              std::string("expected \"") + kScenarioSchema + "\", got \"" +
                  got + "\"");
    }
  }

  Scenario s;
  top.str("name", s.name);

  // Platform: preset reference (default xeon) with field overrides.
  s.platform_preset = "xeon";
  if (const auto* v = top.get("platform")) {
    Reader po(*v, "platform", source);
    if (const auto* p = po.get("preset")) {
      const std::string key = read_string(*p, "platform.preset", source);
      try {
        s.machine = hw::machine_by_name(key);
      } catch (const std::invalid_argument& e) {
        rethrow_at(e, source, "platform.preset");
      }
      s.platform_preset = key;
    } else {
      // Fully inline machine: start from an empty spec; validate() will
      // reject anything incomplete.
      s.platform_preset.clear();
      s.machine = hw::MachineSpec{};
      s.machine.model_node_counts.clear();
      s.machine.node.dvfs.frequencies_hz.clear();
    }
    visit(po, s.machine);
    po.reject_unknown();
  } else {
    s.machine = hw::machine_by_name(s.platform_preset);
  }

  // Workload: program reference (default SP at class A) with overrides,
  // or a synthetic signature-space grid.
  s.program_name = "SP";
  s.input = workload::InputClass::kA;
  if (const auto* v = top.get("workload")) {
    Reader wo(*v, "workload", source);
    const jn::Value* prog = wo.get("program");
    const jn::Value* grid = wo.get("grid");
    if (prog != nullptr && grid != nullptr) {
      fail_at(source, "workload.grid",
              "cannot combine 'program' with 'grid' (a grid scenario "
              "generates its programs)");
    }
    if (prog != nullptr) {
      s.program_name = read_string(*prog, "workload.program", source);
    }
    if (const auto* c = wo.get("class")) {
      const std::string cls = read_string(*c, "workload.class", source);
      try {
        s.input = workload::input_class_from_string(cls);
      } catch (const std::invalid_argument&) {
        fail_at(source, "workload.class",
                "unknown input class '" + cls + "' (use S, W, A, B or C)");
      }
    }
    if (grid != nullptr) {
      workload::SyntheticGrid& g = s.workload_grid.emplace();
      Reader::read(*grid, "workload.grid", source, g);
      s.program_name.clear();
      // Expand immediately: the point cap and per-point range checks fire
      // at load time with the grid's field path, not at first use. The
      // resolved program is the first grid point; consumers that fan the
      // whole grid go through workload_programs(). Field overrides make
      // no sense against generated programs; reject_unknown below
      // rejects them.
      std::vector<workload::SyntheticSpec> points;
      try {
        points = g.expand();
      } catch (const std::invalid_argument& e) {
        rethrow_at(e, source, "workload.grid");
      }
      s.program = workload::make_synthetic(points.front(), s.input);
    } else {
      try {
        s.program = workload::program_by_name(s.program_name, s.input);
      } catch (const std::invalid_argument& e) {
        rethrow_at(e, source, "workload.program");
      }
      visit(wo, s.program);
    }
    wo.reject_unknown();
  } else {
    s.program = workload::program_by_name(s.program_name, s.input);
  }

  top.obj("sweep", s.sweep);

  if (const auto* v = top.get("config")) {
    // Keys left out default to one full node at f_max.
    hw::ClusterConfig& cc = s.config.emplace();
    cc.nodes = 1;
    cc.cores = s.machine.node.cores;
    cc.f_hz = s.machine.node.dvfs.frequencies_hz.empty()
                  ? q::Hertz{0.0}
                  : s.machine.node.dvfs.f_max();
    Reader::read(*v, "config", source, cc);
  }

  if (const auto* v = top.get("faults")) {
    Reader::read(*v, "faults", source, s.faults.emplace());
  }

  top.obj("sim", s.sim);
  top.obj("obs", s.obs);
  if (!known_log_level(s.obs.log_level)) {
    fail_log_level(source, s.obs.log_level);
  }
  top.integer("jobs", s.jobs);

  top.reject_unknown();
  s.validate();
  return s;
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("hepex: cannot open '" + path + "' for reading");
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  return load_scenario(ss.str(), path);
}

// --- save -----------------------------------------------------------------

std::string save_scenario(const Scenario& s) {
  return jn::dump(scenario_to_json(s));
}

jn::Value scenario_to_json(const Scenario& s) {
  Writer top(/*full=*/false);
  top.set("schema", jn::Value(kScenarioSchema));
  top.str("name", s.name, "");

  {
    // A preset platform is written as the preset plus the keys that
    // differ from it; an inline one in full.
    std::optional<hw::MachineSpec> preset;
    if (!s.platform_preset.empty()) {
      preset = hw::machine_by_name(s.platform_preset);
    }
    Writer w(/*full=*/!preset);
    if (preset) w.set("preset", jn::Value(s.platform_preset));
    visit(w, s.machine, preset ? *preset : s.machine);
    top.set("platform", w.take());
  }

  {
    Writer w(/*full=*/false);
    if (s.workload_grid) {
      w.set("class", jn::Value(workload::to_string(s.input)));
      w.set("grid", Writer::write(*s.workload_grid, workload::SyntheticGrid{},
                                  /*full=*/false));
    } else {
      w.set("program", jn::Value(s.program_name));
      w.set("class", jn::Value(workload::to_string(s.input)));
      const workload::ProgramSpec base =
          workload::program_by_name(s.program_name, s.input);
      visit(w, s.program, base);
    }
    top.set("workload", w.take());
  }

  top.obj("sweep", s.sweep, SweepSpec{});
  if (s.config) {
    top.set("config", Writer::write(*s.config, *s.config, /*full=*/true));
  }
  if (s.faults) {
    top.set("faults", Writer::write(*s.faults, fault::Plan{}, /*full=*/false));
  }
  top.obj("sim", s.sim, SimSettings{});
  top.obj("obs", s.obs, ObsSettings{});
  top.integer("jobs", s.jobs, 0);

  return top.take();
}

void save_scenario_file(const Scenario& s, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("hepex: cannot open '" + path + "' for writing");
  }
  os << save_scenario(s);
  if (!os) {
    throw std::runtime_error("hepex: write to '" + path + "' failed");
  }
}

// --- machine/program JSON for external formats ---------------------------

util::json::Value machine_to_json(const hw::MachineSpec& m) {
  return Writer::write(m, m, /*full=*/true);
}

util::json::Value program_to_json(const workload::ProgramSpec& p) {
  return Writer::write(p, p, /*full=*/true);
}

hw::MachineSpec machine_from_json(const util::json::Value& v,
                                  hw::MachineSpec base,
                                  const std::string& path,
                                  const std::string& source) {
  Reader::read(v, path, source, base);
  return base;
}

}  // namespace hepex::cfg
