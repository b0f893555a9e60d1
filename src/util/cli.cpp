#include "util/cli.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/number.hpp"

namespace hepex::util {

CliArgs CliArgs::parse(int argc, const char* const* argv) {
  CliArgs out;
  int i = 1;
  if (i < argc && std::string(argv[i]).rfind("--", 0) != 0) {
    out.command_ = argv[i];
    ++i;
    if (i < argc && std::string(argv[i]).rfind("--", 0) != 0) {
      out.subcommand_ = argv[i];
      ++i;
      // Further leading non-flag tokens are positional operands (file
      // paths for `report show A` / `report diff A B`). Whether a
      // command accepts any is the dispatcher's decision.
      while (i < argc && std::string(argv[i]).rfind("--", 0) != 0) {
        out.positionals_.emplace_back(argv[i]);
        ++i;
      }
    }
  }
  for (; i < argc; ++i) {
    const std::string tok = argv[i];
    HEPEX_REQUIRE(tok.rfind("--", 0) == 0,
                  "unexpected positional argument '" + tok + "'");
    const std::string name = tok.substr(2);
    HEPEX_REQUIRE(!name.empty(), "empty flag name");
    // `--flag=value` binds inline and never consumes the next token.
    if (const auto eq = name.find('='); eq != std::string::npos) {
      HEPEX_REQUIRE(eq > 0, "empty flag name");
      HEPEX_REQUIRE(eq + 1 < name.size(),
                    "flag --" + name.substr(0, eq) +
                        " has an empty value (drop the '=' for a switch)");
      HEPEX_REQUIRE(out.flags_.count(name.substr(0, eq)) == 0,
                    "duplicate flag --" + name.substr(0, eq));
      out.flags_[name.substr(0, eq)] = name.substr(eq + 1);
      continue;
    }
    HEPEX_REQUIRE(out.flags_.count(name) == 0, "duplicate flag --" + name);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      out.flags_[name] = argv[i + 1];
      ++i;
    } else {
      out.flags_[name] = "";
    }
  }
  return out;
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::optional<std::string> CliArgs::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& name,
                            const std::string& fallback) const {
  const auto v = get(name);
  return v ? *v : fallback;
}

double CliArgs::get_double_or(const std::string& name,
                              double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  const ReadDouble r = read_double(*v);
  if (r.used != 0 && r.out_of_range) {
    fail_require("flag --" + name + " value out of range: '" + *v + "'");
  }
  if (r.used == 0 || r.used != v->size()) {
    fail_require("flag --" + name + " expects a number, got '" + *v + "'");
  }
  return r.value;
}

int CliArgs::get_int_or(const std::string& name, int fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const int d = std::stoi(*v, &pos);
    HEPEX_REQUIRE(pos == v->size(), "trailing characters in integer");
    return d;
  } catch (const std::invalid_argument&) {
    fail_require("flag --" + name + " expects an integer, got '" + *v +
                 "'");
  } catch (const std::out_of_range&) {
    fail_require("flag --" + name + " value out of range: '" + *v +
                 "'");
  }
}

namespace {

/// Split "1.8GHz" into magnitude and suffix. Throws when the leading
/// number is missing or malformed; the (possibly empty) suffix is
/// returned with surrounding spaces trimmed for the caller to match.
double split_magnitude(const std::string& text, const char* what,
                       std::string* suffix) {
  const ReadDouble r = read_double(text);
  if (r.used == 0 || r.out_of_range) {
    fail_require(std::string("expected a ") + what + ", got '" + text +
                 "'");
  }
  std::size_t pos = r.used;
  while (pos < text.size() && text[pos] == ' ') ++pos;
  std::size_t end = text.size();
  while (end > pos && text[end - 1] == ' ') --end;
  *suffix = text.substr(pos, end - pos);
  return r.value;
}

[[noreturn]] void bad_suffix(const std::string& text, const char* what,
                             const char* expected) {
  fail_require(std::string("bad ") + what + " '" + text + "' (use " +
               expected + ")");
}

}  // namespace

q::Hertz parse_frequency(const std::string& text) {
  std::string sfx;
  const double mag = split_magnitude(text, "frequency", &sfx);
  if (sfx.empty() || sfx == "GHz") return q::Hertz{mag * 1e9};
  if (sfx == "MHz") return q::Hertz{mag * 1e6};
  if (sfx == "kHz") return q::Hertz{mag * 1e3};
  if (sfx == "Hz") return q::Hertz{mag};
  bad_suffix(text, "frequency", "Hz, kHz, MHz or GHz; bare numbers are GHz");
}

q::Seconds parse_duration(const std::string& text) {
  std::string sfx;
  const double mag = split_magnitude(text, "duration", &sfx);
  if (sfx.empty() || sfx == "s") return q::Seconds{mag};
  if (sfx == "ms") return q::Seconds{mag * 1e-3};
  if (sfx == "us") return q::Seconds{mag * 1e-6};
  if (sfx == "ns") return q::Seconds{mag * 1e-9};
  if (sfx == "min") return q::Seconds{mag * 60.0};
  if (sfx == "h") return q::Seconds{mag * 3600.0};
  bad_suffix(text, "duration", "ns, us, ms, s, min or h; bare numbers are s");
}

q::Bytes parse_size(const std::string& text) {
  std::string sfx;
  const double mag = split_magnitude(text, "size", &sfx);
  if (sfx.empty() || sfx == "B") return q::Bytes{mag};
  if (sfx == "kB" || sfx == "KB") return q::Bytes{mag * 1e3};
  if (sfx == "MB") return q::Bytes{mag * 1e6};
  if (sfx == "GB") return q::Bytes{mag * 1e9};
  if (sfx == "KiB") return q::Bytes{mag * 1024.0};
  if (sfx == "MiB") return q::Bytes{mag * 1024.0 * 1024.0};
  if (sfx == "GiB") return q::Bytes{mag * 1024.0 * 1024.0 * 1024.0};
  bad_suffix(text, "size", "B, kB, MB, GB, KiB, MiB or GiB; bare is bytes");
}

q::BitsPerSec parse_bandwidth(const std::string& text) {
  std::string sfx;
  const double mag = split_magnitude(text, "bandwidth", &sfx);
  if (sfx.empty() || sfx == "bit/s" || sfx == "bps") return q::BitsPerSec{mag};
  if (sfx == "kbit/s" || sfx == "kbps") return q::BitsPerSec{mag * 1e3};
  if (sfx == "Mbit/s" || sfx == "Mbps") return q::BitsPerSec{mag * 1e6};
  if (sfx == "Gbit/s" || sfx == "Gbps") return q::BitsPerSec{mag * 1e9};
  bad_suffix(text, "bandwidth",
             "bit/s, kbit/s, Mbit/s, Gbit/s (or *bps); bare is bit/s");
}

q::Joules parse_energy(const std::string& text) {
  std::string sfx;
  const double mag = split_magnitude(text, "energy", &sfx);
  if (sfx.empty() || sfx == "J") return q::Joules{mag};
  if (sfx == "kJ") return q::Joules{mag * 1e3};
  if (sfx == "MJ") return q::Joules{mag * 1e6};
  bad_suffix(text, "energy", "J, kJ or MJ; bare numbers are J");
}

q::Watts parse_power(const std::string& text) {
  std::string sfx;
  const double mag = split_magnitude(text, "power", &sfx);
  if (sfx.empty() || sfx == "W") return q::Watts{mag};
  if (sfx == "mW") return q::Watts{mag * 1e-3};
  if (sfx == "kW") return q::Watts{mag * 1e3};
  bad_suffix(text, "power", "mW, W or kW; bare numbers are W");
}

q::BytesPerSec parse_byte_rate(const std::string& text) {
  std::string sfx;
  const double mag = split_magnitude(text, "byte rate", &sfx);
  if (sfx.empty() || sfx == "B/s") return q::BytesPerSec{mag};
  if (sfx == "kB/s") return q::BytesPerSec{mag * 1e3};
  if (sfx == "MB/s") return q::BytesPerSec{mag * 1e6};
  if (sfx == "GB/s") return q::BytesPerSec{mag * 1e9};
  bad_suffix(text, "byte rate", "B/s, kB/s, MB/s or GB/s; bare is bytes/s");
}

int parse_jobs(const std::string& text) {
  int jobs = 0;
  std::size_t pos = 0;
  try {
    jobs = std::stoi(text, &pos);
  } catch (const std::exception&) {
    fail_require("expected a job count, got '" + text + "'");
  }
  if (pos != text.size()) {
    fail_require("bad job count '" + text +
                 "' (use a plain integer; 0 = all cores)");
  }
  if (jobs < 0 || jobs > 512) {
    fail_require("job count " + std::to_string(jobs) +
                 " out of range [0, 512] (0 = all cores)");
  }
  return jobs;
}

void CliArgs::require_known(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      fail_require("unknown flag --" + name);
    }
  }
}

}  // namespace hepex::util
