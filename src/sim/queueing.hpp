#pragma once
/// \file queueing.hpp
/// \brief The closed-form queueing formula the analytical model uses.
///
/// The paper models network contention at the switch as an M/G/1 queue
/// (Eq. 5), whose mean wait is the Pollaczek–Khinchine formula. Rates are
/// `q::Hertz`, service times `q::Seconds` and second moments
/// `q::SecondsSq`, so transposing lambda and E[S] — dimensionally inverse
/// quantities — is a compile error rather than a subtly wrong wait.

#include "util/quantity.hpp"

namespace hepex::sim::queueing {

/// Offered load rho = lambda * E[S]. Valid queues require rho < 1.
double offered_load(q::Hertz lambda, q::Seconds mean_service);

/// M/G/1 mean waiting time (Pollaczek–Khinchine):
///   W = lambda * E[S^2] / (2 * (1 - rho)).
/// \param lambda           mean arrival rate
/// \param mean_service     E[S]
/// \param second_moment    E[S^2]
/// Returns +inf when the queue is unstable (rho >= 1).
q::Seconds mg1_mean_wait(q::Hertz lambda, q::Seconds mean_service,
                         q::SecondsSq second_moment);

}  // namespace hepex::sim::queueing
