#include "workload/synthetic.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/number.hpp"
#include "util/rng.hpp"

namespace hepex::workload {
namespace {

namespace jn = util::json;

void check_range(const std::string& context, const char* key, double v,
                 double lo, double hi, bool hi_open) {
  const bool ok = std::isfinite(v) && v >= lo && (hi_open ? v < hi : v <= hi);
  if (!ok) {
    fail_require(context + ": " + key + " = " + jn::number_to_string(v) +
                 " out of range [" + jn::number_to_string(lo) + ", " +
                 jn::number_to_string(hi) + (hi_open ? ")" : "]"));
  }
}

double parse_axis_number(const std::string& context, const std::string& key,
                         const std::string& text) {
  const util::ReadDouble r = util::read_double(text);
  if (r.used == 0 || r.used != text.size() || !std::isfinite(r.value)) {
    fail_require(context + ": " + key + ": expected a finite number, got '" +
                 text + "'");
  }
  return r.value;
}

std::uint64_t parse_seed(const std::string& context, const std::string& text) {
  if (text.empty()) fail_require(context + ": seed: empty value");
  std::uint64_t v = 0;
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec == std::errc::result_out_of_range) {
    fail_require(context + ": seed: value '" + text + "' overflows 64 bits");
  }
  if (ec != std::errc{} || end != last) {
    fail_require(context + ": seed: expected an unsigned integer, got '" +
                 text + "'");
  }
  return v;
}

}  // namespace

void SyntheticSpec::validate() const {
  const std::string ctx = "synthetic spec";
  check_range(ctx, "ai", arithmetic_intensity, 1.0, 1e6, false);
  check_range(ctx, "bpi", bytes_per_instruction, 0.0, 64.0, false);
  check_range(ctx, "mi", message_intensity, 0.0, 1e9, false);
  check_range(ctx, "imb", imbalance, 0.0, 1.0, true);
  check_range(ctx, "sf", serial_fraction, 0.0, 1.0, false);
}

std::string synthetic_ref(const SyntheticSpec& s) {
  std::string out;
  out += "ai=" + jn::number_to_string(s.arithmetic_intensity);
  out += ",bpi=" + jn::number_to_string(s.bytes_per_instruction);
  out += ",mi=" + jn::number_to_string(s.message_intensity);
  out += ",imb=" + jn::number_to_string(s.imbalance);
  out += ",sf=" + jn::number_to_string(s.serial_fraction);
  out += ",seed=" + std::to_string(s.seed);
  return out;
}

SyntheticSpec synthetic_from_ref(const std::string& ref,
                                 const std::string& context) {
  SyntheticSpec s;
  bool seen[6] = {false, false, false, false, false, false};
  static constexpr const char* kKeys[6] = {"ai",  "bpi", "mi",
                                           "imb", "sf",  "seed"};
  std::size_t pos = 0;
  while (pos <= ref.size()) {
    const std::size_t comma = ref.find(',', pos);
    const std::size_t end = comma == std::string::npos ? ref.size() : comma;
    const std::string pair = ref.substr(pos, end - pos);
    pos = end + 1;
    if (pair.empty()) {
      if (ref.empty()) break;  // empty reference -> all defaults
      fail_require(context + ": empty key=value pair in '" + ref + "'");
    }
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      fail_require(context + ": expected key=value, got '" + pair + "'");
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    int idx = -1;
    for (int i = 0; i < 6; ++i) {
      if (key == kKeys[i]) idx = i;
    }
    if (idx < 0) {
      fail_require(context + ": unknown key '" + key +
                   "' (use ai, bpi, mi, imb, sf or seed)");
    }
    if (seen[idx]) {
      fail_require(context + ": duplicate key '" + key + "'");
    }
    seen[idx] = true;
    switch (idx) {
      case 0:
        s.arithmetic_intensity = parse_axis_number(context, key, value);
        break;
      case 1:
        s.bytes_per_instruction = parse_axis_number(context, key, value);
        break;
      case 2:
        s.message_intensity = parse_axis_number(context, key, value);
        break;
      case 3:
        s.imbalance = parse_axis_number(context, key, value);
        break;
      case 4:
        s.serial_fraction = parse_axis_number(context, key, value);
        break;
      case 5:
        s.seed = parse_seed(context, value);
        break;
    }
    if (comma == std::string::npos) break;
  }
  try {
    s.validate();
  } catch (const std::invalid_argument& e) {
    // Re-pin the range error to the caller's context (CLI flag, scenario
    // path) instead of the generic "synthetic spec".
    std::string why = e.what();
    const std::string prefix = "hepex: synthetic spec: ";
    if (why.rfind(prefix, 0) == 0) why = why.substr(prefix.size());
    else if (why.rfind("hepex: ", 0) == 0) why = why.substr(7);
    fail_require(context + ": " + why);
  }
  return s;
}

ProgramSpec make_synthetic(const SyntheticSpec& s, InputClass cls) {
  s.validate();
  const std::string ref = synthetic_ref(s);

  // Secondary demands co-vary with the seed: one SplitMix64 stream, a
  // fixed draw order, so (spec, cls) -> ProgramSpec is pure. The ranges
  // bracket what the analytic factories use (programs.cpp).
  util::SplitMix64 sm(s.seed);
  auto uniform = [&sm]() {
    return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  };
  const double u_cpi = uniform();
  const double u_stall = uniform();
  const double u_reuse = uniform();
  const double u_window = uniform();
  const double u_wset = uniform();
  const double u_rounds = uniform();
  const double u_sync_base = uniform();
  const double u_sync_grow = uniform();

  const double dim = static_cast<double>(grid_dimension(cls));
  const double cells = dim * dim * dim;
  const double surface = dim * dim;

  ProgramSpec p;
  char tag[12];
  std::snprintf(tag, sizeof(tag), "%08llx",
                static_cast<unsigned long long>(util::fnv1a64(ref) &
                                                0xffffffffull));
  p.name = std::string("SYN-") + tag;
  p.suite = "hepex-synthetic";
  p.language = "synthetic";
  p.domain = "signature-space";
  p.input = cls;
  p.iterations = iteration_count(cls);

  p.compute.instructions_per_iter = s.arithmetic_intensity * 1e3 * cells;
  p.compute.cpi_factor = 0.90 + 0.25 * u_cpi;
  p.compute.stall_factor = 0.90 + 0.40 * u_stall;
  p.compute.bytes_per_instruction = s.bytes_per_instruction;
  p.compute.reuse_bytes_per_instruction = 0.30 + 0.40 * u_reuse;
  p.compute.reuse_window_bytes = (1.8 + 1.0 * u_window) * 1e6;
  p.compute.working_set_bytes = (800.0 + 1000.0 * u_wset) * cells;
  p.compute.serial_fraction = s.serial_fraction;
  p.compute.imbalance = s.imbalance;
  p.compute.node_imbalance = 0.0;

  p.comm.pattern = CommPattern::kHalo3D;
  p.comm.base_bytes = s.message_intensity * surface;
  p.comm.rounds = 1 + static_cast<int>(3.0 * u_rounds);
  p.comm.size_cv = 0.2;

  p.sync.base_cycles = (20.0 + 20.0 * u_sync_base) * 1e3;
  p.sync.cycles_per_total_core = 300.0 + 900.0 * u_sync_grow;

  p.validate();
  return p;
}

std::size_t SyntheticGrid::points() const {
  auto dim = [](const std::vector<double>& axis) {
    return axis.empty() ? std::size_t{1} : axis.size();
  };
  return dim(arithmetic_intensity) * dim(bytes_per_instruction) *
         dim(message_intensity) * dim(imbalance) * dim(serial_fraction);
}

std::vector<SyntheticSpec> SyntheticGrid::expand() const {
  constexpr std::size_t kMaxPoints = 4096;
  const std::size_t n = points();
  HEPEX_REQUIRE(n <= kMaxPoints,
                "synthetic grid expands to " + std::to_string(n) +
                    " points, above the " + std::to_string(kMaxPoints) +
                    "-point cap");

  const SyntheticSpec defaults;
  auto axis_or = [](const std::vector<double>& axis, double fallback) {
    return axis.empty() ? std::vector<double>{fallback} : axis;
  };
  const std::vector<double> ai =
      axis_or(arithmetic_intensity, defaults.arithmetic_intensity);
  const std::vector<double> bpi =
      axis_or(bytes_per_instruction, defaults.bytes_per_instruction);
  const std::vector<double> mi =
      axis_or(message_intensity, defaults.message_intensity);
  const std::vector<double> imb = axis_or(imbalance, defaults.imbalance);
  const std::vector<double> sf =
      axis_or(serial_fraction, defaults.serial_fraction);

  std::vector<SyntheticSpec> out;
  out.reserve(n);
  for (double a : ai) {
    for (double b : bpi) {
      for (double m : mi) {
        for (double i : imb) {
          for (double f : sf) {
            SyntheticSpec s;
            s.arithmetic_intensity = a;
            s.bytes_per_instruction = b;
            s.message_intensity = m;
            s.imbalance = i;
            s.serial_fraction = f;
            s.seed = seed;
            s.validate();
            out.push_back(s);
          }
        }
      }
    }
  }
  return out;
}

}  // namespace hepex::workload
