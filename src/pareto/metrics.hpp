#pragma once
/// \file metrics.hpp
/// \brief Where a predicted execution's wall time goes.
///
/// The paper's §V-B introduces UCR = T_useful / T (Eq. 13; the model
/// computes it as `model::Prediction::ucr`, a measurement as
/// `trace::Measurement::ucr()`). `time_shares` splits the rest of T into
/// memory and network shares, the breakdown that explains a UCR.
///
/// UCR reads system balance, not efficiency: the paper shows Pareto-
/// optimal configurations often have *low* UCR, so a high UCR must not be
/// used to pick configurations (see `bench_fig10_ucr_xeon`).

#include "model/predictor.hpp"

namespace hepex::pareto {

/// Decomposition of where a predicted execution's wall time goes,
/// normalized to fractions of T (sums to 1).
struct TimeShares {
  double cpu = 0.0;       ///< useful computation (incl. overlap)
  double memory = 0.0;    ///< shared-memory contention + service
  double net_wait = 0.0;  ///< network queueing
  double net_serve = 0.0; ///< non-overlapped network service
};
TimeShares time_shares(const model::Prediction& p);

}  // namespace hepex::pareto
