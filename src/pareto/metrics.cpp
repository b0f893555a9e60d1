#include "pareto/metrics.hpp"

#include "util/error.hpp"

namespace hepex::pareto {

TimeShares time_shares(const model::Prediction& p) {
  HEPEX_REQUIRE(p.time_s > q::Seconds{}, "prediction has zero time");
  TimeShares s;
  s.cpu = p.t_cpu_s / p.time_s;
  s.memory = p.t_mem_s / p.time_s;
  s.net_wait = p.t_w_net_s / p.time_s;
  s.net_serve = p.t_s_net_s / p.time_s;
  return s;
}

}  // namespace hepex::pareto
