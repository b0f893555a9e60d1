#pragma once
/// \file queueing.hpp
/// \brief The closed-form queueing formula the analytical model uses.
///
/// The paper models network contention at the switch as an M/G/1 queue
/// (Eq. 5), whose mean wait is the Pollaczek–Khinchine formula. Rates are
/// `q::Hertz`, service times `q::Seconds` and second moments
/// `q::SecondsSq`, so transposing lambda and E[S] — dimensionally inverse
/// quantities — is a compile error rather than a subtly wrong wait.

#include <limits>

#include "util/error.hpp"
#include "util/quantity.hpp"

namespace hepex::sim::queueing {

/// Offered load rho = lambda * E[S]. Valid queues require rho < 1.
inline double offered_load(q::Hertz lambda, q::Seconds mean_service) {
  HEPEX_REQUIRE(lambda.value() >= 0.0, "arrival rate must be non-negative");
  HEPEX_REQUIRE(mean_service.value() >= 0.0,
                "service time must be non-negative");
  return lambda * mean_service;
}

/// M/G/1 mean waiting time (Pollaczek–Khinchine):
///   W = lambda * E[S^2] / (2 * (1 - rho)).
/// \param lambda           mean arrival rate
/// \param mean_service     E[S]
/// \param second_moment    E[S^2]
/// Returns +inf when the queue is unstable (rho >= 1). Inline, like
/// `offered_load`, so the model's network-wait solver
/// (`model::equations::t_wait_net_it_s`) evaluates it without a call.
inline q::Seconds mg1_mean_wait(q::Hertz lambda, q::Seconds mean_service,
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
