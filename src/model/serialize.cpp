#include "model/serialize.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "cfg/scenario.hpp"
#include "util/json.hpp"
#include "util/schemas.hpp"

namespace hepex::model {
namespace {

namespace jn = util::json;

constexpr const char* kSchema = util::schemas::kCharacterizationV2;
constexpr const char* kSource = "characterization";

[[noreturn]] void fail_at(const std::string& path, const std::string& why) {
  // hepex-lint: allow(bare-throw) parser fail-helper IS the input-validation layer; prefixes artifact path context fail_require cannot
  throw std::invalid_argument(std::string(kSource) + ": " + path + ": " +
                              why);
}

/// Field path of `key` inside `path` ("" is the document).
std::string join(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

const jn::Value& require(const jn::Value& obj, const std::string& path,
                         const std::string& key) {
  const jn::Value* v = obj.find(key);
  if (v == nullptr) fail_at(join(path, key), "missing required key");
  return *v;
}

/// `key` of `obj`, which must be of the kind `is` tests for (`what`).
const jn::Value& get_kind(const jn::Value& obj, const std::string& path,
                          const std::string& key,
                          bool (jn::Value::*is)() const, const char* what) {
  const jn::Value& v = require(obj, path, key);
  if (!(v.*is)()) {
    fail_at(join(path, key),
            std::string("expected ") + what + ", got " + jn::dump_compact(v));
  }
  return v;
}

double get_number(const jn::Value& obj, const std::string& path,
                  const std::string& key) {
  return get_kind(obj, path, key, &jn::Value::is_number, "a number")
      .as_number();
}

/// A number that must be an int: casting a double outside int's range is
/// undefined behaviour, so the range is checked first.
int to_int(const jn::Value& v, const std::string& path) {
  const double d = v.as_number();
  if (std::floor(d) != d || d < std::numeric_limits<int>::min() ||
      d > std::numeric_limits<int>::max()) {
    fail_at(path, "expected an integer, got " + jn::dump_compact(v));
  }
  return static_cast<int>(d);
}

int get_int(const jn::Value& obj, const std::string& path,
            const std::string& key) {
  return to_int(get_kind(obj, path, key, &jn::Value::is_number, "a number"),
                join(path, key));
}

std::string get_string(const jn::Value& obj, const std::string& path,
                       const std::string& key) {
  return get_kind(obj, path, key, &jn::Value::is_string, "a string")
      .as_string();
}

const jn::Value& get_object(const jn::Value& obj, const std::string& path,
                            const std::string& key) {
  return get_kind(obj, path, key, &jn::Value::is_object, "an object");
}

const jn::Array& get_array(const jn::Value& obj, const std::string& path,
                           const std::string& key) {
  return get_kind(obj, path, key, &jn::Value::is_array, "an array")
      .as_array();
}

std::vector<q::Watts> get_watt_array(const jn::Value& obj,
                                     const std::string& path,
                                     const std::string& key) {
  std::vector<q::Watts> out;
  for (const jn::Value& e : get_array(obj, path, key)) {
    if (!e.is_number()) {
      fail_at(join(path, key), "expected an array of numbers");
    }
    out.push_back(q::Watts{e.as_number()});
  }
  return out;
}

Characterization parse(const std::string& text) {
  const jn::Value doc = jn::parse(text, kSource);
  if (!doc.is_object()) fail_at("(document)", "expected an object");
  {
    const std::string schema = get_string(doc, "", "schema");
    if (schema != kSchema) {
      fail_at("schema", std::string("expected \"") + kSchema +
                            "\", got \"" + schema + "\"");
    }
  }

  Characterization ch;
  ch.machine = cfg::machine_from_json(get_object(doc, "", "machine"),
                                      hw::MachineSpec{}, "machine", kSource);
  if (ch.machine.node.dvfs.frequencies_hz.empty()) {
    fail_at("machine.node.dvfs.frequencies", "empty DVFS frequency list");
  }
  ch.program_name = get_string(doc, "", "program");

  {
    const jn::Value& b = get_object(doc, "", "baseline");
    ch.baseline_class =
        workload::input_class_from_string(get_string(b, "baseline", "class"));
    ch.baseline_iterations = get_int(b, "baseline", "iterations");
    ch.baseline_cells = get_number(b, "baseline", "cells");
  }
  {
    const jn::Value& c = get_object(doc, "", "comm");
    ch.comm.n_probe = get_int(c, "comm", "n_probe");
    ch.comm.eta = get_number(c, "comm", "eta");
    ch.comm.nu = q::Bytes{get_number(c, "comm", "nu")};
    ch.comm.size_cv = get_number(c, "comm", "size_cv");
    const std::string p = get_string(c, "comm", "pattern");
    try {
      ch.pattern = workload::comm_pattern_from_string(p);
    } catch (const std::invalid_argument&) {
      fail_at("comm.pattern", "unknown comm pattern '" + p + "'");
    }
  }
  {
    const jn::Value& n = get_object(doc, "", "network");
    ch.network.achievable_bps =
        q::BitsPerSec{get_number(n, "network", "achievable_bps")};
    ch.network.base_latency_s =
        q::Seconds{get_number(n, "network", "base_latency_s")};
    ch.msg_software_s_at_fmax =
        q::Seconds{get_number(n, "network", "msg_software_s_at_fmax")};
  }
  {
    const jn::Value& p = get_object(doc, "", "power");
    ch.power.sys_idle_w = q::Watts{get_number(p, "power", "sys_idle_w")};
    ch.power.mem_active_w = q::Watts{get_number(p, "power", "mem_active_w")};
    ch.power.net_active_w = q::Watts{get_number(p, "power", "net_active_w")};
    ch.power.core_active_w = get_watt_array(p, "power", "core_active_w");
    ch.power.core_stall_w = get_watt_array(p, "power", "core_stall_w");
  }
  const std::size_t n_freqs = ch.machine.node.dvfs.frequencies_hz.size();
  if (ch.power.core_active_w.size() != n_freqs ||
      ch.power.core_stall_w.size() != n_freqs) {
    fail_at("power", "power vectors do not match the DVFS frequency count");
  }

  // Baseline counter table: rows of [c, f_index, work_cycles,
  // nonmem_stalls, mem_stalls, utilization, instructions].
  ch.baseline.assign(static_cast<std::size_t>(ch.machine.node.cores),
                     std::vector<BaselinePoint>(n_freqs));
  std::size_t filled = 0;
  std::size_t i = 0;
  for (const jn::Value& row : get_array(doc, "", "baseline_table")) {
    const std::string path = "baseline_table[" + std::to_string(i) + "]";
    if (!row.is_array() || row.as_array().size() != 7) {
      fail_at(path, "expected a row of 7 numbers");
    }
    const jn::Array& cells = row.as_array();
    double raw[7];
    for (std::size_t k = 0; k < 7; ++k) {
      if (!cells[k].is_number()) fail_at(path, "expected a row of 7 numbers");
      raw[k] = cells[k].as_number();
    }
    const int c = to_int(cells[0], path + "[0]");
    const int fi = to_int(cells[1], path + "[1]");
    if (c < 1 || c > ch.machine.node.cores || fi < 0 ||
        static_cast<std::size_t>(fi) >= n_freqs) {
      fail_at(path, "(c=" + std::to_string(c) + ", fi=" + std::to_string(fi) +
                        ") out of range");
    }
    BaselinePoint pt;
    pt.work_cycles = raw[2];
    pt.nonmem_stalls = raw[3];
    pt.mem_stalls = raw[4];
    pt.utilization = raw[5];
    pt.instructions = raw[6];
    ch.baseline[static_cast<std::size_t>(c - 1)]
               [static_cast<std::size_t>(fi)] = pt;
    ++filled;
    ++i;
  }
  if (filled !=
      static_cast<std::size_t>(ch.machine.node.cores) * n_freqs) {
    fail_at("baseline_table",
            "incomplete: " + std::to_string(filled) + " rows for " +
                std::to_string(ch.machine.node.cores) + " cores x " +
                std::to_string(n_freqs) + " frequencies");
  }
  return ch;
}

}  // namespace

void save_characterization(const Characterization& ch, std::ostream& os) {
  jn::Value doc = jn::Value::object();
  doc.set("schema", jn::Value(kSchema));
  doc.set("machine", cfg::machine_to_json(ch.machine));
  doc.set("program", jn::Value(ch.program_name));

  {
    jn::Value b = jn::Value::object();
    b.set("class", jn::Value(workload::to_string(ch.baseline_class)));
    b.set("iterations", jn::Value(ch.baseline_iterations));
    b.set("cells", jn::Value(ch.baseline_cells));
    doc.set("baseline", std::move(b));
  }
  {
    jn::Value c = jn::Value::object();
    c.set("n_probe", jn::Value(ch.comm.n_probe));
    c.set("eta", jn::Value(ch.comm.eta));
    c.set("nu", jn::Value(ch.comm.nu.value()));
    c.set("size_cv", jn::Value(ch.comm.size_cv));
    c.set("pattern", jn::Value(workload::to_string(ch.pattern)));
    doc.set("comm", std::move(c));
  }
  {
    jn::Value n = jn::Value::object();
    n.set("achievable_bps", jn::Value(ch.network.achievable_bps.value()));
    n.set("base_latency_s", jn::Value(ch.network.base_latency_s.value()));
    n.set("msg_software_s_at_fmax",
          jn::Value(ch.msg_software_s_at_fmax.value()));
    doc.set("network", std::move(n));
  }
  {
    jn::Value p = jn::Value::object();
    p.set("sys_idle_w", jn::Value(ch.power.sys_idle_w.value()));
    p.set("mem_active_w", jn::Value(ch.power.mem_active_w.value()));
    p.set("net_active_w", jn::Value(ch.power.net_active_w.value()));
    jn::Value active = jn::Value::array();
    for (q::Watts w : ch.power.core_active_w) active.push_back(w.value());
    jn::Value stall = jn::Value::array();
    for (q::Watts w : ch.power.core_stall_w) stall.push_back(w.value());
    p.set("core_active_w", std::move(active));
    p.set("core_stall_w", std::move(stall));
    doc.set("power", std::move(p));
  }
  {
    jn::Value table = jn::Value::array();
    for (std::size_t c = 0; c < ch.baseline.size(); ++c) {
      for (std::size_t fi = 0; fi < ch.baseline[c].size(); ++fi) {
        const BaselinePoint& pt = ch.baseline[c][fi];
        jn::Value row = jn::Value::array();
        row.push_back(static_cast<int>(c + 1));
        row.push_back(static_cast<int>(fi));
        row.push_back(pt.work_cycles);
        row.push_back(pt.nonmem_stalls);
        row.push_back(pt.mem_stalls);
        row.push_back(pt.utilization);
        row.push_back(pt.instructions);
        table.push_back(std::move(row));
      }
    }
    doc.set("baseline_table", std::move(table));
  }
  os << jn::dump(doc);
}

void save_characterization_file(const Characterization& ch,
                                const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("hepex: cannot open '" + path + "' for writing");
  }
  save_characterization(ch, os);
  if (!os) {
    throw std::runtime_error("hepex: write to '" + path + "' failed");
  }
}

Characterization load_characterization(std::istream& is) {
  std::ostringstream ss;
  ss << is.rdbuf();
  return parse(ss.str());
}

Characterization load_characterization_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("hepex: cannot open '" + path + "' for reading");
  }
  return load_characterization(is);
}

}  // namespace hepex::model
