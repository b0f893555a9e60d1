#include "model/serialize.hpp"

#include <fstream>
#include <sstream>

#include "cfg/fields.hpp"
#include "cfg/scenario.hpp"
#include "util/json.hpp"
#include "util/schemas.hpp"

namespace hepex::model {
namespace {

namespace jn = util::json;
using cfg::required;

const std::string kSource = "characterization";
constexpr const char* kTable = "baseline_table";

/// The baseline counter table: rows of [c, f_index, work_cycles,
/// nonmem_stalls, mem_stalls, utilization, instructions]. It is indexed by
/// (c, f) rather than keyed, so it is read and written here instead of
/// through the field list.
void read_table(const jn::Value& table, Characterization& ch) {
  const std::size_t n_freqs = ch.machine.node.dvfs.frequencies_hz.size();
  ch.baseline.assign(static_cast<std::size_t>(ch.machine.node.cores),
                     std::vector<BaselinePoint>(n_freqs));
  std::size_t filled = 0;
  cfg::read_array(
      table, "rows", kTable, kSource,
      [&](const jn::Value& row, const std::string& path) {
        if (!row.is_array() || row.as_array().size() != 7) {
          cfg::fail_at(kSource, path, "expected a row of 7 numbers");
        }
        const jn::Array& cells = row.as_array();
        for (const jn::Value& cell : cells) {
          if (!cell.is_number()) {
            cfg::fail_at(kSource, path, "expected a row of 7 numbers");
          }
        }
        const int c = cfg::read_int(cells[0], path + "[0]", kSource);
        const int fi = cfg::read_int(cells[1], path + "[1]", kSource);
        if (c < 1 || c > ch.machine.node.cores || fi < 0 ||
            static_cast<std::size_t>(fi) >= n_freqs) {
          cfg::fail_at(kSource, path,
                       "(c=" + std::to_string(c) + ", fi=" +
                           std::to_string(fi) + ") out of range");
        }
        BaselinePoint& pt = ch.baseline[static_cast<std::size_t>(c - 1)]
                                       [static_cast<std::size_t>(fi)];
        pt.work_cycles = cells[2].as_number();
        pt.nonmem_stalls = cells[3].as_number();
        pt.mem_stalls = cells[4].as_number();
        pt.utilization = cells[5].as_number();
        pt.instructions = cells[6].as_number();
        ++filled;
      });
  if (filled != static_cast<std::size_t>(ch.machine.node.cores) * n_freqs) {
    cfg::fail_at(kSource, kTable,
                 "incomplete: " + std::to_string(filled) + " rows for " +
                     std::to_string(ch.machine.node.cores) + " cores x " +
                     std::to_string(n_freqs) + " frequencies");
  }
}

jn::Value table_json(const Characterization& ch) {
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
  return table;
}

}  // namespace

/// The characterization's field list (cfg/fields.hpp); the `comm` and
/// `network` sections also hold the fields the pass derives from them.
template <class V, cfg::Of<Characterization>... S>
void visit(V& v, S&... s) {
  v.schema(util::schemas::kCharacterizationV2);
  v.obj(required("machine"), s.machine...);
  v.str(required("program"), s.program_name...);
  v.section(required("baseline"), [&](auto& b) {
    b.choice(required("class"), cfg::kInputClass, s.baseline_class...);
    b.integer(required("iterations"), s.baseline_iterations...);
    b.num(required("cells"), s.baseline_cells...);
  });
  v.section(required("comm"), [&](auto& c) {
    c.integer(required("n_probe"), s.comm.n_probe...);
    c.num(required("eta"), s.comm.eta...);
    c.num(required("nu"), s.comm.nu...);
    c.num(required("size_cv"), s.comm.size_cv...);
    c.choice(required("pattern"), cfg::kCommPattern, s.pattern...);
  });
  v.section(required("network"), [&](auto& n) {
    n.num(required("achievable_bps"), s.network.achievable_bps...);
    n.num(required("base_latency_s"), s.network.base_latency_s...);
    n.num(required("msg_software_s_at_fmax"), s.msg_software_s_at_fmax...);
  });
  v.section(required("power"), [&](auto& p) {
    p.num(required("sys_idle_w"), s.power.sys_idle_w...);
    p.num(required("mem_active_w"), s.power.mem_active_w...);
    p.num(required("net_active_w"), s.power.net_active_w...);
    p.nums(required("core_active_w"), s.power.core_active_w...);
    p.nums(required("core_stall_w"), s.power.core_stall_w...);
  });
}

void save_characterization(const Characterization& ch, std::ostream& os) {
  cfg::Writer w(/*full=*/true);
  visit(w, ch, ch);
  w.set(kTable, table_json(ch));
  os << jn::dump(w.take());
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
  const jn::Value doc = jn::parse(ss.str(), kSource);
  cfg::Reader r(doc, "", kSource);
  Characterization ch;
  visit(r, ch);
  const std::size_t n_freqs = ch.machine.node.dvfs.frequencies_hz.size();
  if (n_freqs == 0) {
    cfg::fail_at(kSource, "machine.node.dvfs.frequencies",
                 "empty DVFS frequency list");
  }
  if (ch.power.core_active_w.size() != n_freqs ||
      ch.power.core_stall_w.size() != n_freqs) {
    cfg::fail_at(kSource, "power",
                 "power vectors do not match the DVFS frequency count");
  }
  read_table(r.require(kTable), ch);
  r.reject_unknown();
  return ch;
}

Characterization load_characterization_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("hepex: cannot open '" + path + "' for reading");
  }
  return load_characterization(is);
}

}  // namespace hepex::model
