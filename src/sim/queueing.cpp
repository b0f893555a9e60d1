#include "sim/queueing.hpp"

#include <limits>

#include "util/error.hpp"

namespace hepex::sim::queueing {

double offered_load(q::Hertz lambda, q::Seconds mean_service) {
  HEPEX_REQUIRE(lambda.value() >= 0.0, "arrival rate must be non-negative");
  HEPEX_REQUIRE(mean_service.value() >= 0.0,
                "service time must be non-negative");
  return lambda * mean_service;
}

q::Seconds mg1_mean_wait(q::Hertz lambda, q::Seconds mean_service,
                         q::SecondsSq second_moment) {
  HEPEX_REQUIRE(second_moment.value() >= 0.0,
                "second moment must be non-negative");
  const double rho = offered_load(lambda, mean_service);
  if (rho >= 1.0) {
    return q::Seconds{std::numeric_limits<double>::infinity()};
  }
  return lambda * second_moment / (2.0 * (1.0 - rho));
}

}  // namespace hepex::sim::queueing
