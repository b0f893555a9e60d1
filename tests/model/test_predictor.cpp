// Tests for the analytical time-energy model (Eqs. 1-12) including the
// headline property: predictions track simulated measurements.

#include "model/predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "hw/presets.hpp"
#include "model/characterization.hpp"
#include "trace/execution_engine.hpp"
#include "util/statistics.hpp"
#include "workload/programs.hpp"

namespace hepex::model {
namespace {

using hw::ClusterConfig;
using workload::InputClass;

CharacterizationOptions fast_options() {
  CharacterizationOptions o;
  o.baseline_class = InputClass::kW;
  o.sim.chunks_per_iteration = 8;
  return o;
}

const Characterization& xeon_sp_ch() {
  static const Characterization ch = characterize(
      hw::xeon_cluster(), workload::make_sp(InputClass::kA), fast_options());
  return ch;
}

TargetInfo sp_target() {
  return target_of(workload::make_sp(InputClass::kA));
}

TEST(Predictor, TargetOfReadsPublicMetadata) {
  const auto p = workload::make_lu(InputClass::kB);
  const TargetInfo t = target_of(p);
  EXPECT_EQ(t.input, InputClass::kB);
  EXPECT_EQ(t.iterations, p.iterations);
}

TEST(Predictor, TcpuScalesInverselyWithNodesCoresFrequency) {
  const auto& ch = xeon_sp_ch();
  const TargetInfo t = sp_target();
  const Prediction base = predict(ch, t, {1, 4, q::Hertz{1.2e9}});
  const Prediction more_nodes = predict(ch, t, {4, 4, q::Hertz{1.2e9}});
  EXPECT_NEAR(base.t_cpu_s / more_nodes.t_cpu_s, 4.0, 0.01);
  const Prediction faster = predict(ch, t, {1, 4, q::Hertz{1.8e9}});
  // Same (c, f-indexed) baseline cell is not reused across f, so the
  // ratio is close to but not exactly 1.5 (counters differ slightly).
  EXPECT_NEAR(base.t_cpu_s / faster.t_cpu_s, 1.5, 0.1);
}

TEST(Predictor, SingleNodeHasNoNetworkTerms) {
  const Prediction p = predict(xeon_sp_ch(), sp_target(), {1, 8, q::Hertz{1.8e9}});
  EXPECT_EQ(p.t_w_net_s.value(), 0.0);
  EXPECT_EQ(p.t_s_net_s.value(), 0.0);
}

TEST(Predictor, MultiNodeHasNetworkTerms) {
  const Prediction p = predict(xeon_sp_ch(), sp_target(), {8, 8, q::Hertz{1.8e9}});
  EXPECT_GT(p.t_s_net_s.value(), 0.0);
  EXPECT_GT(p.t_w_net_s.value(), 0.0);
}

TEST(Predictor, TimeIsSumOfComponents) {
  const Prediction p = predict(xeon_sp_ch(), sp_target(), {4, 4, q::Hertz{1.5e9}});
  EXPECT_NEAR(p.time_s.value(),
              (p.t_cpu_s + p.t_mem_s + p.t_w_net_s + p.t_s_net_s).value(),
              1e-9);
}

TEST(Predictor, EnergyIsSumOfParts) {
  const Prediction p = predict(xeon_sp_ch(), sp_target(), {4, 4, q::Hertz{1.5e9}});
  EXPECT_NEAR(p.energy_j.value(), p.energy_parts.total().value(), 1e-9);
  EXPECT_GT(p.energy_parts.idle_j.value(), 0.0);
  EXPECT_GT(p.energy_parts.cpu_active_j.value(), 0.0);
}

TEST(Predictor, UcrIsTcpuOverT) {
  const Prediction p = predict(xeon_sp_ch(), sp_target(), {2, 8, q::Hertz{1.8e9}});
  EXPECT_NEAR(p.ucr, p.t_cpu_s / p.time_s, 1e-12);
  EXPECT_GT(p.ucr, 0.0);
  EXPECT_LE(p.ucr, 1.0);
}

TEST(Predictor, UcrPeaksAtSingleCoreLowestFrequency) {
  // §V-B: the UCR upper bound of a program is at (1, 1, f_min).
  const auto& ch = xeon_sp_ch();
  const TargetInfo t = sp_target();
  const double best = predict(ch, t, {1, 1, q::Hertz{1.2e9}}).ucr;
  for (const ClusterConfig cfg :
       {ClusterConfig{1, 8, q::Hertz{1.2e9}}, ClusterConfig{1, 1, q::Hertz{1.8e9}},
        ClusterConfig{8, 8, q::Hertz{1.8e9}}, ClusterConfig{4, 2, q::Hertz{1.5e9}}}) {
    EXPECT_GE(best, predict(ch, t, cfg).ucr);
  }
}

TEST(Predictor, RejectsOutOfRangeConfigsAndTargets) {
  const auto& ch = xeon_sp_ch();
  EXPECT_THROW(predict(ch, sp_target(), {1, 99, q::Hertz{1.2e9}}),
               std::invalid_argument);
  EXPECT_THROW(predict(ch, sp_target(), {1, 1, q::Hertz{9.9e9}}),
               std::invalid_argument);
  TargetInfo bad = sp_target();
  bad.iterations = 0;
  EXPECT_THROW(predict(ch, bad, {1, 1, q::Hertz{1.2e9}}), std::invalid_argument);
}

TEST(Predictor, ModelSpaceConfigsBeyondPhysicalNodesWork) {
  // The model explores n = 256 even though only 8 nodes exist (Fig. 8).
  const Prediction p = predict(xeon_sp_ch(), sp_target(), {256, 8, q::Hertz{1.8e9}});
  EXPECT_GT(p.time_s.value(), 0.0);
  EXPECT_GT(p.energy_j.value(), 0.0);
  EXPECT_LT(p.ucr, 0.3);  // heavily contention-bound, per the paper
}

TEST(Predictor, InputScalingFollowsProblemSize) {
  // Same characterization, bigger target: time scales by the cell and
  // iteration ratio on a fixed configuration.
  const auto& ch = xeon_sp_ch();
  const Prediction a =
      predict(ch, target_of(workload::make_sp(InputClass::kA)), {1, 4, q::Hertz{1.8e9}});
  const Prediction b =
      predict(ch, target_of(workload::make_sp(InputClass::kB)), {1, 4, q::Hertz{1.8e9}});
  const double cells_a = 64.0 * 64.0 * 64.0 * 60.0;
  const double cells_b = 102.0 * 102.0 * 102.0 * 80.0;
  EXPECT_NEAR(b.t_cpu_s / a.t_cpu_s, cells_b / cells_a, 1e-6);
}

TEST(CommScalingRatios, MatchPatternAlgebra) {
  using workload::CommPattern;
  const CommScaling halo = comm_scaling(CommPattern::kHalo3D, 16, 2);
  EXPECT_DOUBLE_EQ(halo.message_ratio, 1.0);
  EXPECT_NEAR(halo.volume_ratio, std::pow(2.0 / 16.0, 2.0 / 3.0), 1e-12);

  const CommScaling a2a = comm_scaling(CommPattern::kAllToAll, 8, 2);
  EXPECT_DOUBLE_EQ(a2a.message_ratio, 7.0);
  EXPECT_DOUBLE_EQ(a2a.volume_ratio, 4.0 / 64.0);

  const CommScaling ring = comm_scaling(CommPattern::kRing, 20, 2);
  EXPECT_DOUBLE_EQ(ring.message_ratio, 1.0);
  EXPECT_DOUBLE_EQ(ring.volume_ratio, 1.0);

  const CommScaling wf = comm_scaling(CommPattern::kWavefront, 8, 2);
  EXPECT_NEAR(wf.volume_ratio, std::sqrt(0.25), 1e-12);

  EXPECT_THROW(comm_scaling(CommPattern::kRing, 1, 2), std::invalid_argument);
}

/// The reproduction's headline property (Table 2): the model tracks the
/// simulated measurement within the paper's error bounds on sampled
/// configurations for every program on both clusters.
/// The program name is held inline, not as a pointer: gtest prints this
/// struct as its raw bytes and the ctest name carries that print-out, so
/// a pointer (or padding) would make the name change from run to run.
/// 15 + 1 bytes keep the struct at the 16 bytes those names have always
/// shown.
struct AccuracyCase {
  char program[15];
  bool xeon;
};

class ModelAccuracyTest : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(ModelAccuracyTest, TracksMeasurementWithinBounds) {
  const auto& pc = GetParam();
  const hw::MachineSpec m = pc.xeon ? hw::xeon_cluster() : hw::arm_cluster();
  const auto program =
      workload::program_by_name(pc.program, InputClass::kA);
  const Characterization ch = characterize(m, program, fast_options());
  const TargetInfo t = target_of(program);

  util::Summary time_err, energy_err;
  trace::SimOptions sim_opt;
  sim_opt.chunks_per_iteration = 8;
  const q::Hertz f_hi = m.node.dvfs.f_max();
  const q::Hertz f_lo = m.node.dvfs.f_min();
  for (const ClusterConfig cfg :
       {ClusterConfig{1, 1, f_lo}, ClusterConfig{2, m.node.cores, f_hi},
        ClusterConfig{4, 2, f_hi}, ClusterConfig{8, m.node.cores, f_hi},
        ClusterConfig{8, 1, f_lo}}) {
    const trace::Measurement meas = trace::simulate(m, program, cfg, sim_opt);
    const Prediction pred = predict(ch, t, cfg);
    time_err.add(util::absolute_percentage_error(pred.time_s.value(),
                                                 meas.time_s.value()));
    energy_err.add(util::absolute_percentage_error(
        pred.energy_j.value(), meas.energy.total().value()));
  }
  EXPECT_LT(time_err.mean(), 15.0) << "program " << pc.program;
  EXPECT_LT(energy_err.mean(), 15.0) << "program " << pc.program;
  EXPECT_LT(time_err.max(), 30.0);
  EXPECT_LT(energy_err.max(), 30.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllProgramsBothMachines, ModelAccuracyTest,
    ::testing::Values(AccuracyCase{"BT", true}, AccuracyCase{"LU", true},
                      AccuracyCase{"SP", true}, AccuracyCase{"CP", true},
                      AccuracyCase{"LB", true}, AccuracyCase{"BT", false},
                      AccuracyCase{"LU", false}, AccuracyCase{"SP", false},
                      AccuracyCase{"CP", false}, AccuracyCase{"LB", false}),
    [](const ::testing::TestParamInfo<AccuracyCase>& info) {
      return std::string(info.param.program) +
             (info.param.xeon ? "_Xeon" : "_ARM");
    });

// --- PredictionCache: memoization + LRU bound (hepexd's per-advisor
// cross-request cache) ----------------------------------------------------

TEST(PredictionCache, MemoizesAndCounts) {
  const auto& ch = xeon_sp_ch();
  const TargetInfo t = sp_target();
  PredictionCache cache;
  const ClusterConfig a{2, 4, q::Hertz{1.8e9}};
  const Prediction first = cache.at(ch, t, a);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  const Prediction again = cache.at(ch, t, a);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_DOUBLE_EQ(first.time_s.value(), again.time_s.value());
  EXPECT_DOUBLE_EQ(first.energy_j.value(), again.energy_j.value());
  // The cached value is bit-identical to a fresh evaluation.
  const Prediction fresh = predict(ch, t, a);
  EXPECT_DOUBLE_EQ(again.time_s.value(), fresh.time_s.value());
}

TEST(PredictionCache, UnboundedByDefault) {
  const auto& ch = xeon_sp_ch();
  const TargetInfo t = sp_target();
  PredictionCache cache;
  EXPECT_EQ(cache.capacity(), 0u);
  for (int n = 1; n <= 16; ++n) {
    (void)cache.at(ch, t, {n, 4, q::Hertz{1.8e9}});
  }
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(PredictionCache, EvictsLeastRecentlyUsedAtCapacity) {
  const auto& ch = xeon_sp_ch();
  const TargetInfo t = sp_target();
  PredictionCache cache;
  cache.set_capacity(2);
  const ClusterConfig a{1, 4, q::Hertz{1.8e9}};
  const ClusterConfig b{2, 4, q::Hertz{1.8e9}};
  const ClusterConfig c{4, 4, q::Hertz{1.8e9}};
  (void)cache.at(ch, t, a);  // miss: {a}
  (void)cache.at(ch, t, b);  // miss: {a, b}
  (void)cache.at(ch, t, a);  // hit, a becomes hottest
  (void)cache.at(ch, t, c);  // miss, evicts b (coldest): {a, c}
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  const auto hits_before = cache.hits();
  (void)cache.at(ch, t, a);  // still resident
  EXPECT_EQ(cache.hits(), hits_before + 1);
  (void)cache.at(ch, t, b);  // was evicted: a fresh miss
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(PredictionCache, ShrinkingCapacityEvictsImmediately) {
  const auto& ch = xeon_sp_ch();
  const TargetInfo t = sp_target();
  PredictionCache cache;
  for (int n = 1; n <= 8; ++n) {
    (void)cache.at(ch, t, {n, 4, q::Hertz{1.8e9}});
  }
  EXPECT_EQ(cache.size(), 8u);
  cache.set_capacity(3);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 5u);
  // The three hottest (most recently inserted) survive.
  const auto hits_before = cache.hits();
  (void)cache.at(ch, t, {8, 4, q::Hertz{1.8e9}});
  (void)cache.at(ch, t, {7, 4, q::Hertz{1.8e9}});
  (void)cache.at(ch, t, {6, 4, q::Hertz{1.8e9}});
  EXPECT_EQ(cache.hits(), hits_before + 3);
}

TEST(PredictionCache, ClearResetsContentsAndCounters) {
  const auto& ch = xeon_sp_ch();
  const TargetInfo t = sp_target();
  PredictionCache cache;
  (void)cache.at(ch, t, {2, 4, q::Hertz{1.8e9}});
  (void)cache.at(ch, t, {2, 4, q::Hertz{1.8e9}});
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  (void)cache.at(ch, t, {2, 4, q::Hertz{1.8e9}});
  EXPECT_EQ(cache.misses(), 1u);  // re-evaluated after clear
}

}  // namespace
}  // namespace hepex::model
