#include "svc/chaos.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cfg/fields.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace hepex::svc {

/// The chaos plan's field list (cfg/fields.hpp); `validate` holds the
/// range checks.
template <class V, cfg::Of<ChaosPlan>... S>
void visit(V& v, S&... s) {
  v.schema(kChaosSchema);
  v.seed("seed", s.seed...);
  v.num("slow_loris_prob", s.slow_loris_prob...);
  v.integer("slow_loris_stall_ms", s.slow_loris_stall_ms...);
  v.num("disconnect_prob", s.disconnect_prob...);
  v.num("malformed_prob", s.malformed_prob...);
  v.num("oversize_prob", s.oversize_prob...);
  v.integer("burst_every", s.burst_every...);
  v.integer("burst_size", s.burst_size...);
}

void ChaosPlan::validate() const {
  auto check_prob = [](double p, const char* name) {
    if (!(p >= 0.0 && p <= 1.0)) {
      fail_require(std::string("chaos plan: ") + name +
                   " must be in [0, 1]");
    }
  };
  check_prob(slow_loris_prob, "slow_loris_prob");
  check_prob(disconnect_prob, "disconnect_prob");
  check_prob(malformed_prob, "malformed_prob");
  check_prob(oversize_prob, "oversize_prob");
  // One cumulative draw picks each request's behavior, so the branch
  // probabilities must leave room (possibly zero) for clean traffic.
  const double sum =
      slow_loris_prob + disconnect_prob + malformed_prob + oversize_prob;
  if (sum > 1.0) {
    fail_require("chaos plan: behavior probabilities sum to " +
                 std::to_string(sum) + ", must be <= 1");
  }
  if (slow_loris_stall_ms < 1) {
    fail_require("chaos plan: slow_loris_stall_ms must be >= 1");
  }
  if (burst_every < 0) fail_require("chaos plan: burst_every must be >= 0");
  if (burst_size < 1) fail_require("chaos plan: burst_size must be >= 1");
}

ChaosPlan load_chaos_plan(const std::string& text,
                          const std::string& source) {
  ChaosPlan plan;
  cfg::Reader::read(util::json::parse(text, source), "", source, plan);
  plan.validate();
  return plan;
}

ChaosPlan load_chaos_plan_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("hepex: cannot open '" + path + "' for reading");
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  return load_chaos_plan(ss.str(), path);
}

std::string save_chaos_plan(const ChaosPlan& plan) {
  return util::json::dump(cfg::Writer::write(plan, plan, /*full=*/true));
}

}  // namespace hepex::svc
