#pragma once
/// \file bounds.hpp
/// \brief The Amdahl speedup bound.
///
/// The paper's related work (§II-A) cites "simple and fundamental
/// formulae that describe the interplay between program parallelism,
/// speedup and energy consumption" (Cho & Melhem; Woo & Lee's
/// energy-aware Amdahl extensions) and argues HEPEX's measurement-driven
/// model is more accurate. The naive baseline model (model/naive.hpp)
/// scales compute time by the Amdahl speedup, the one closed form the
/// library keeps.

namespace hepex::model {

/// Amdahl speedup on p processors with serial fraction s (0 <= s <= 1).
double amdahl_speedup(double serial_fraction, int processors);

}  // namespace hepex::model
