#include "obs/run_report.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/error.hpp"

namespace hepex::obs {
namespace jn = util::json;

namespace {

[[noreturn]] void fail_at(const std::string& source, const std::string& path,
                          const std::string& why) {
  fail_require(source + ": " + path + ": " + why);
}

double read_num(const jn::Value& v, const std::string& source,
                const std::string& path) {
  if (!v.is_number()) fail_at(source, path, "expected a number");
  return v.as_number();
}

std::string read_str(const jn::Value& v, const std::string& source,
                     const std::string& path) {
  if (!v.is_string()) fail_at(source, path, "expected a string");
  return v.as_string();
}

double num_or(const jn::Value& obj, const std::string& key, double fallback,
              const std::string& source, const std::string& path) {
  const jn::Value* v = obj.find(key);
  return v != nullptr ? read_num(*v, source, path + "." + key) : fallback;
}

/// `key` of `obj` as a whole number in [lo, hi]. The range is checked on
/// the double: casting one outside the target type is undefined
/// behaviour.
double whole_or(const jn::Value& obj, const std::string& key,
                double fallback, double lo, double hi,
                const std::string& source, const std::string& path) {
  const double d = num_or(obj, key, fallback, source, path);
  if (std::floor(d) != d || d < lo || d > hi) {
    fail_at(source, path + "." + key,
            "expected an integer in [" + jn::number_to_string(lo) + ", " +
                jn::number_to_string(hi) + "], got " +
                jn::number_to_string(d));
  }
  return d;
}

/// `key` of `obj` as an int.
int int_or(const jn::Value& obj, const std::string& key, int fallback,
           const std::string& source, const std::string& path) {
  return static_cast<int>(whole_or(obj, key, fallback,
                                   std::numeric_limits<int>::min(),
                                   std::numeric_limits<int>::max(), source,
                                   path));
}

std::string str_or(const jn::Value& obj, const std::string& key,
                   const std::string& fallback, const std::string& source,
                   const std::string& path) {
  const jn::Value* v = obj.find(key);
  return v != nullptr ? read_str(*v, source, path + "." + key) : fallback;
}

}  // namespace

double RunReport::attribution_energy_total() const {
  double total = 0.0;
  for (const Category& c : attribution) total += c.energy_j;
  return total;
}

util::json::Value RunReport::to_json_value() && {
  jn::Value doc = jn::Value::object();
  doc.set("schema", jn::Value(kRunReportSchema));
  doc.set("command", jn::Value(command));
  if (!name.empty()) doc.set("name", jn::Value(name));

  jn::Value prov = jn::Value::object();
  prov.set("scenario_fingerprint", jn::Value(scenario_fingerprint));
  prov.set("platform_preset", jn::Value(platform_preset));
  prov.set("machine", jn::Value(machine));
  prov.set("program", jn::Value(program));
  prov.set("input_class", jn::Value(input_class));
  if (nodes > 0) {
    prov.set("nodes", jn::Value(nodes));
    prov.set("cores", jn::Value(cores));
    prov.set("f_ghz", jn::Value(f_ghz));
  }
  prov.set("seed", jn::Value(static_cast<double>(seed)));
  if (replicas != 1) prov.set("replicas", jn::Value(replicas));
  if (jobs != 0) prov.set("jobs", jn::Value(jobs));
  if (scenario.is_object()) prov.set("scenario", std::move(scenario));
  doc.set("provenance", std::move(prov));

  if (has_results) {
    jn::Value res = jn::Value::object();
    res.set("time_s", jn::Value(time_s));
    res.set("energy_j", jn::Value(energy_j));
    res.set("ucr", jn::Value(ucr));
    res.set("cpu_utilization", jn::Value(cpu_utilization));
    res.set("iterations", jn::Value(iterations));
    res.set("events_processed", jn::Value(events_processed));
    res.set("events_per_virtual_s", jn::Value(events_per_virtual_s));
    if (!outcome.empty()) res.set("outcome", jn::Value(outcome));
    doc.set("results", std::move(res));
  }

  if (!attribution.empty() || per_node.size() > 0 || spans.is_object()) {
    jn::Value att = jn::Value::object();
    if (!attribution.empty()) {
      jn::Value energy = jn::Value::object();
      jn::Value time = jn::Value::object();
      for (const Category& c : attribution) {
        energy.set(c.name, jn::Value(c.energy_j));
        time.set(c.name, jn::Value(c.time_s));
      }
      energy.set("total", jn::Value(attribution_energy_total()));
      att.set("energy_j", std::move(energy));
      att.set("time_s", std::move(time));
    }
    if (!per_node.empty()) {
      jn::Value rows = jn::Value::array();
      for (const NodeRow& r : per_node) {
        jn::Value row = jn::Value::object();
        row.set("node", jn::Value(r.node));
        row.set("compute_s", jn::Value(r.compute_s));
        row.set("memory_s", jn::Value(r.memory_s));
        row.set("network_s", jn::Value(r.network_s));
        row.set("barrier_s", jn::Value(r.barrier_s));
        row.set("energy_j", jn::Value(r.energy_j));
        rows.push_back(std::move(row));
      }
      att.set("per_node", std::move(rows));
    }
    if (spans.is_object()) att.set("spans", std::move(spans));
    doc.set("attribution", std::move(att));
  }

  if (metrics.is_object()) doc.set("metrics", std::move(metrics));
  if (summary.is_object()) doc.set("summary", std::move(summary));

  if (has_host) {
    jn::Value host = jn::Value::object();
    host.set("wall_s", jn::Value(host_wall_s));
    host.set("events_per_host_s", jn::Value(host_events_per_s));
    if (!host_profile.empty()) {
      jn::Value timers = jn::Value::array();
      for (const HostTimer& t : host_profile) {
        jn::Value row = jn::Value::object();
        row.set("name", jn::Value(t.name));
        row.set("calls", jn::Value(t.calls));
        row.set("total_s", jn::Value(t.total_s));
        row.set("max_s", jn::Value(t.max_s));
        timers.push_back(std::move(row));
      }
      host.set("profile", std::move(timers));
    }
    doc.set("host", std::move(host));
  }

  return doc;
}

RunReport RunReport::from_json_value(const util::json::Value& doc,
                                     const std::string& source) {
  if (!doc.is_object()) fail_at(source, "$", "expected a JSON object");
  const jn::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kRunReportSchema) {
    fail_at(source, "schema",
            std::string("expected \"") + kRunReportSchema + "\", got " +
                (schema != nullptr ? jn::dump_compact(*schema) : "nothing"));
  }

  RunReport r;
  r.command = str_or(doc, "command", "", source, "$");
  r.name = str_or(doc, "name", "", source, "$");

  if (const jn::Value* prov = doc.find("provenance")) {
    if (!prov->is_object()) fail_at(source, "provenance", "expected object");
    r.scenario_fingerprint =
        str_or(*prov, "scenario_fingerprint", "", source, "provenance");
    r.platform_preset =
        str_or(*prov, "platform_preset", "", source, "provenance");
    r.machine = str_or(*prov, "machine", "", source, "provenance");
    r.program = str_or(*prov, "program", "", source, "provenance");
    r.input_class = str_or(*prov, "input_class", "", source, "provenance");
    r.nodes = int_or(*prov, "nodes", 0, source, "provenance");
    r.cores = int_or(*prov, "cores", 0, source, "provenance");
    r.f_ghz = num_or(*prov, "f_ghz", 0.0, source, "provenance");
    // Seeds are exact doubles: a scenario seed is at most 2^53.
    r.seed = static_cast<std::uint64_t>(whole_or(
        *prov, "seed", 0, 0, 9007199254740992.0, source, "provenance"));
    r.replicas = int_or(*prov, "replicas", 1, source, "provenance");
    r.jobs = int_or(*prov, "jobs", 0, source, "provenance");
    if (const jn::Value* sc = prov->find("scenario")) {
      if (!sc->is_object()) {
        fail_at(source, "provenance.scenario", "expected object");
      }
      r.scenario = *sc;
    }
  }

  if (const jn::Value* res = doc.find("results")) {
    if (!res->is_object()) fail_at(source, "results", "expected object");
    r.has_results = true;
    r.time_s = num_or(*res, "time_s", 0.0, source, "results");
    r.energy_j = num_or(*res, "energy_j", 0.0, source, "results");
    r.ucr = num_or(*res, "ucr", 0.0, source, "results");
    r.cpu_utilization =
        num_or(*res, "cpu_utilization", 0.0, source, "results");
    r.iterations = num_or(*res, "iterations", 0.0, source, "results");
    r.events_processed =
        num_or(*res, "events_processed", 0.0, source, "results");
    r.events_per_virtual_s =
        num_or(*res, "events_per_virtual_s", 0.0, source, "results");
    r.outcome = str_or(*res, "outcome", "", source, "results");
  }

  if (const jn::Value* att = doc.find("attribution")) {
    if (!att->is_object()) fail_at(source, "attribution", "expected object");
    const jn::Value* energy = att->find("energy_j");
    const jn::Value* time = att->find("time_s");
    if (energy != nullptr) {
      if (!energy->is_object()) {
        fail_at(source, "attribution.energy_j", "expected object");
      }
      for (const auto& [key, val] : energy->members()) {
        if (key == "total") continue;  // derived; recomputed on save
        Category c;
        c.name = key;
        c.energy_j = read_num(val, source, "attribution.energy_j." + key);
        if (time != nullptr && time->is_object()) {
          c.time_s = num_or(*time, key, 0.0, source, "attribution.time_s");
        }
        r.attribution.push_back(std::move(c));
      }
    }
    if (const jn::Value* rows = att->find("per_node")) {
      if (!rows->is_array()) {
        fail_at(source, "attribution.per_node", "expected array");
      }
      for (const jn::Value& row : rows->as_array()) {
        if (!row.is_object()) {
          fail_at(source, "attribution.per_node[]", "expected object");
        }
        NodeRow nr;
        nr.node = int_or(row, "node", 0, source, "per_node");
        nr.compute_s = num_or(row, "compute_s", 0.0, source, "per_node");
        nr.memory_s = num_or(row, "memory_s", 0.0, source, "per_node");
        nr.network_s = num_or(row, "network_s", 0.0, source, "per_node");
        nr.barrier_s = num_or(row, "barrier_s", 0.0, source, "per_node");
        nr.energy_j = num_or(row, "energy_j", 0.0, source, "per_node");
        r.per_node.push_back(nr);
      }
    }
    if (const jn::Value* spans = att->find("spans")) {
      if (!spans->is_object()) {
        fail_at(source, "attribution.spans", "expected object");
      }
      r.spans = *spans;
    }
  }

  if (const jn::Value* m = doc.find("metrics")) {
    if (!m->is_object()) fail_at(source, "metrics", "expected object");
    r.metrics = *m;
  }
  if (const jn::Value* s = doc.find("summary")) {
    if (!s->is_object()) fail_at(source, "summary", "expected object");
    r.summary = *s;
  }

  if (const jn::Value* host = doc.find("host")) {
    if (!host->is_object()) fail_at(source, "host", "expected object");
    r.has_host = true;
    r.host_wall_s = num_or(*host, "wall_s", 0.0, source, "host");
    r.host_events_per_s =
        num_or(*host, "events_per_host_s", 0.0, source, "host");
    if (const jn::Value* timers = host->find("profile")) {
      if (!timers->is_array()) {
        fail_at(source, "host.profile", "expected array");
      }
      for (const jn::Value& row : timers->as_array()) {
        if (!row.is_object()) {
          fail_at(source, "host.profile[]", "expected object");
        }
        HostTimer t;
        t.name = str_or(row, "name", "", source, "host.profile");
        t.calls = num_or(row, "calls", 0.0, source, "host.profile");
        t.total_s = num_or(row, "total_s", 0.0, source, "host.profile");
        t.max_s = num_or(row, "max_s", 0.0, source, "host.profile");
        r.host_profile.push_back(std::move(t));
      }
    }
  }

  return r;
}

RunReport RunReport::load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("hepex: cannot open '" + path +
                             "' for reading");
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return from_json_value(jn::parse(buf.str(), path), path);
}

void RunReport::save_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("hepex: cannot open '" + path +
                             "' for writing");
  }
  os << jn::dump(to_json_value());
  if (!os) {
    throw std::runtime_error("hepex: write to '" + path + "' failed");
  }
}

// --- diff ------------------------------------------------------------------

namespace {

double rel_delta(double a, double b) {
  if (a == b) return 0.0;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return scale > 0.0 ? std::fabs(b - a) / scale : 0.0;
}

void diff_walk(const jn::Value& a, const jn::Value& b,
               const std::string& path, std::vector<ReportDelta>& out);

void leaf_only(const jn::Value& v, const std::string& path, bool in_a,
               std::vector<ReportDelta>& out) {
  ReportDelta d;
  d.path = path;
  d.only_a = in_a;
  d.only_b = !in_a;
  d.numeric = v.is_number();
  if (d.numeric) {
    (in_a ? d.a : d.b) = v.as_number();
  } else {
    (in_a ? d.text_a : d.text_b) = jn::dump_compact(v);
  }
  out.push_back(std::move(d));
}

void diff_walk(const jn::Value& a, const jn::Value& b,
               const std::string& path, std::vector<ReportDelta>& out) {
  if (a == b) return;
  if (a.is_object() && b.is_object()) {
    for (const auto& [key, av] : a.members()) {
      const std::string sub = path.empty() ? key : path + "." + key;
      if (const jn::Value* bv = b.find(key)) {
        diff_walk(av, *bv, sub, out);
      } else {
        leaf_only(av, sub, /*in_a=*/true, out);
      }
    }
    for (const auto& [key, bv] : b.members()) {
      if (a.find(key) == nullptr) {
        leaf_only(bv, path.empty() ? key : path + "." + key, /*in_a=*/false,
                  out);
      }
    }
    return;
  }
  if (a.is_array() && b.is_array()) {
    const auto& aa = a.as_array();
    const auto& ba = b.as_array();
    const std::size_t both = std::min(aa.size(), ba.size());
    for (std::size_t i = 0; i < both; ++i) {
      diff_walk(aa[i], ba[i], path + "[" + std::to_string(i) + "]", out);
    }
    for (std::size_t i = both; i < aa.size(); ++i) {
      leaf_only(aa[i], path + "[" + std::to_string(i) + "]", true, out);
    }
    for (std::size_t i = both; i < ba.size(); ++i) {
      leaf_only(ba[i], path + "[" + std::to_string(i) + "]", false, out);
    }
    return;
  }
  ReportDelta d;
  d.path = path;
  if (a.is_number() && b.is_number()) {
    d.numeric = true;
    d.a = a.as_number();
    d.b = b.as_number();
    d.rel = rel_delta(d.a, d.b);
  } else {
    d.text_a = jn::dump_compact(a);
    d.text_b = jn::dump_compact(b);
  }
  out.push_back(std::move(d));
}

}  // namespace

std::vector<ReportDelta> diff_reports(const RunReport& a,
                                      const RunReport& b) {
  std::vector<ReportDelta> out;
  diff_walk(a.to_json_value(), b.to_json_value(), "", out);
  return out;
}

// --- check -----------------------------------------------------------------

namespace {

void gate_two_sided(std::vector<CheckItem>& items, const std::string& metric,
                    double baseline, double candidate, double rtol) {
  CheckItem it;
  it.metric = metric;
  it.baseline = baseline;
  it.candidate = candidate;
  it.rel = rel_delta(baseline, candidate);
  it.limit = rtol;
  it.pass = it.rel <= rtol;
  items.push_back(std::move(it));
}

}  // namespace

CheckResult check_reports(const RunReport& baseline,
                          const RunReport& candidate,
                          const CheckOptions& opts) {
  CheckResult res;

  if (!baseline.scenario_fingerprint.empty() &&
      !candidate.scenario_fingerprint.empty() &&
      baseline.scenario_fingerprint != candidate.scenario_fingerprint) {
    res.pass = false;
    res.note = "scenario fingerprint mismatch: baseline " +
               baseline.scenario_fingerprint + " vs candidate " +
               candidate.scenario_fingerprint +
               " — these reports describe different runs";
    return res;
  }

  if (baseline.has_results && candidate.has_results) {
    gate_two_sided(res.items, "results.time_s", baseline.time_s,
                   candidate.time_s, opts.rtol);
    gate_two_sided(res.items, "results.energy_j", baseline.energy_j,
                   candidate.energy_j, opts.rtol);
    gate_two_sided(res.items, "results.ucr", baseline.ucr, candidate.ucr,
                   opts.rtol);
    gate_two_sided(res.items, "results.cpu_utilization",
                   baseline.cpu_utilization, candidate.cpu_utilization,
                   opts.rtol);
    gate_two_sided(res.items, "results.iterations", baseline.iterations,
                   candidate.iterations, opts.rtol);
    gate_two_sided(res.items, "results.events_processed",
                   baseline.events_processed, candidate.events_processed,
                   opts.rtol);
    gate_two_sided(res.items, "results.events_per_virtual_s",
                   baseline.events_per_virtual_s,
                   candidate.events_per_virtual_s, opts.rtol);
  }

  for (const RunReport::Category& bc : baseline.attribution) {
    double candidate_j = 0.0;
    for (const RunReport::Category& cc : candidate.attribution) {
      if (cc.name == bc.name) {
        candidate_j = cc.energy_j;
        break;
      }
    }
    gate_two_sided(res.items, "attribution.energy_j." + bc.name, bc.energy_j,
                   candidate_j, opts.rtol);
  }

  if (opts.check_host && baseline.has_host && candidate.has_host &&
      baseline.host_events_per_s > 0.0) {
    CheckItem it;
    it.metric = "host.events_per_host_s";
    it.baseline = baseline.host_events_per_s;
    it.candidate = candidate.host_events_per_s;
    it.one_sided = true;
    it.limit = opts.throughput_tolerance;
    // Only a slowdown counts; faster than baseline is rel 0.
    it.rel = std::max(0.0, (baseline.host_events_per_s -
                            candidate.host_events_per_s) /
                               baseline.host_events_per_s);
    it.pass = it.rel <= it.limit;
    res.items.push_back(std::move(it));
  }

  for (const CheckItem& it : res.items) {
    if (!it.pass) res.pass = false;
  }
  return res;
}

}  // namespace hepex::obs
