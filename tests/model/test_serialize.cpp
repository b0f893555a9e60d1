// Tests for characterization persistence (save/load round trip).

#include "model/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "hw/presets.hpp"
#include "model/predictor.hpp"
#include "util/json.hpp"
#include "workload/programs.hpp"

namespace hepex::model {
namespace {

using workload::InputClass;

const Characterization& sample_ch() {
  static const Characterization ch = [] {
    CharacterizationOptions o;
    o.baseline_class = InputClass::kW;
    o.sim.chunks_per_iteration = 8;
    return characterize(hw::arm_cluster(), workload::make_cp(InputClass::kA),
                        o);
  }();
  return ch;
}

TEST(Serialize, RoundTripPreservesEveryModelInput) {
  std::stringstream ss;
  save_characterization(sample_ch(), ss);
  const Characterization loaded = load_characterization(ss);

  const auto& a = sample_ch();
  EXPECT_EQ(loaded.machine.name, a.machine.name);
  EXPECT_EQ(loaded.machine.node.cores, a.machine.node.cores);
  EXPECT_EQ(loaded.machine.model_node_counts, a.machine.model_node_counts);
  EXPECT_EQ(loaded.machine.node.dvfs.frequencies_hz,
            a.machine.node.dvfs.frequencies_hz);
  EXPECT_EQ(loaded.program_name, a.program_name);
  EXPECT_EQ(loaded.baseline_class, a.baseline_class);
  EXPECT_EQ(loaded.baseline_iterations, a.baseline_iterations);
  EXPECT_DOUBLE_EQ(loaded.baseline_cells, a.baseline_cells);
  EXPECT_EQ(loaded.pattern, a.pattern);
  EXPECT_DOUBLE_EQ(loaded.comm.eta, a.comm.eta);
  EXPECT_DOUBLE_EQ(loaded.comm.nu.value(), a.comm.nu.value());
  EXPECT_DOUBLE_EQ(loaded.network.achievable_bps.value(),
                   a.network.achievable_bps.value());
  EXPECT_DOUBLE_EQ(loaded.msg_software_s_at_fmax.value(),
                   a.msg_software_s_at_fmax.value());
  EXPECT_EQ(loaded.power.core_active_w, a.power.core_active_w);
  EXPECT_EQ(loaded.power.core_stall_w, a.power.core_stall_w);
  ASSERT_EQ(loaded.baseline.size(), a.baseline.size());
  for (std::size_t c = 0; c < a.baseline.size(); ++c) {
    for (std::size_t f = 0; f < a.baseline[c].size(); ++f) {
      EXPECT_DOUBLE_EQ(loaded.baseline[c][f].work_cycles,
                       a.baseline[c][f].work_cycles);
      EXPECT_DOUBLE_EQ(loaded.baseline[c][f].mem_stalls,
                       a.baseline[c][f].mem_stalls);
      EXPECT_DOUBLE_EQ(loaded.baseline[c][f].utilization,
                       a.baseline[c][f].utilization);
    }
  }
}

TEST(Serialize, LoadedCharacterizationPredictsIdentically) {
  std::stringstream ss;
  save_characterization(sample_ch(), ss);
  const Characterization loaded = load_characterization(ss);

  const TargetInfo t = target_of(workload::make_cp(InputClass::kA));
  for (const hw::ClusterConfig cfg :
       {hw::ClusterConfig{1, 1, q::Hertz{0.2e9}},
        hw::ClusterConfig{8, 4, q::Hertz{1.4e9}},
        hw::ClusterConfig{20, 3, q::Hertz{0.8e9}}}) {
    const Prediction p1 = predict(sample_ch(), t, cfg);
    const Prediction p2 = predict(loaded, t, cfg);
    EXPECT_DOUBLE_EQ(p1.time_s.value(), p2.time_s.value());
    EXPECT_DOUBLE_EQ(p1.energy_j.value(), p2.energy_j.value());
    EXPECT_DOUBLE_EQ(p1.ucr, p2.ucr);
  }
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/hepex_ch_test.txt";
  save_characterization_file(sample_ch(), path);
  const Characterization loaded = load_characterization_file(path);
  EXPECT_EQ(loaded.program_name, sample_ch().program_name);
  std::remove(path.c_str());
}

TEST(Serialize, UnopenableFileThrows) {
  EXPECT_THROW(load_characterization_file("/nonexistent/dir/x.txt"),
               std::runtime_error);
  EXPECT_THROW(
      save_characterization_file(sample_ch(), "/nonexistent/dir/x.txt"),
      std::runtime_error);
}

TEST(Serialize, MissingHeaderRejected) {
  std::stringstream ss("not a characterization\n");
  EXPECT_THROW(load_characterization(ss), std::invalid_argument);
}

/// The canonical test of the v2 writer: a saved characterization reloads
/// and re-saves to the exact same bytes.
TEST(Serialize, SaveLoadSaveIsByteIdentical) {
  std::stringstream first;
  save_characterization(sample_ch(), first);
  std::stringstream in(first.str());
  const Characterization loaded = load_characterization(in);
  std::stringstream second;
  save_characterization(loaded, second);
  EXPECT_EQ(first.str(), second.str());
}

/// Helper: save the sample, apply `mutate` to the JSON document, reload.
Characterization reload_mutated(
    const std::function<void(util::json::Value&)>& mutate) {
  std::stringstream out;
  save_characterization(sample_ch(), out);
  util::json::Value doc = util::json::parse(out.str());
  mutate(doc);
  std::stringstream in(util::json::dump(doc));
  return load_characterization(in);
}

/// Mutable object-member lookup (Value::find is const-only).
util::json::Value& member(util::json::Value& doc, const std::string& key) {
  for (auto& [k, v] : doc.members()) {
    if (k == key) return v;
  }
  throw std::logic_error("test document is missing key " + key);
}

TEST(Serialize, MissingKeyRejected) {
  try {
    reload_mutated([](util::json::Value& doc) {
      auto& m = doc.members();
      for (auto it = m.begin(); it != m.end(); ++it) {
        if (it->first == "program") {
          m.erase(it);
          break;
        }
      }
    });
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("program"), std::string::npos);
  }
}

TEST(Serialize, SchemaMismatchRejected) {
  try {
    reload_mutated([](util::json::Value& doc) {
      doc.set("schema", util::json::Value("hepex-characterization/9"));
    });
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("characterization: schema:"),
              std::string::npos);
  }
}

TEST(Serialize, MalformedTableRowRejected) {
  EXPECT_THROW(reload_mutated([](util::json::Value& doc) {
                 util::json::Value bad = util::json::Value::array();
                 bad.push_back(util::json::Value(1));
                 auto& table = member(doc, "baseline_table").as_array();
                 table.insert(table.begin(), std::move(bad));
               }),
               std::invalid_argument);
}

TEST(Serialize, IncompleteTableRejected) {
  EXPECT_THROW(reload_mutated([](util::json::Value& doc) {
                 member(doc, "baseline_table").as_array().pop_back();
               }),
               std::invalid_argument);
}

/// Only the JSON format loads: the pre-JSON v1 `key = value` text is
/// rejected by the JSON parser at its first byte.
TEST(Serialize, LegacyV1TextFormatIsRejected) {
  std::stringstream in(
      "hepex-characterization v1\n"
      "machine.name = legacy\n");
  try {
    (void)load_characterization(in);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "characterization: line 1, column 1: invalid value");
  }
}

/// Error message of reloading the sample after `mutate`.
std::string error_of(const std::function<void(util::json::Value&)>& mutate) {
  try {
    (void)reload_mutated(mutate);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "no error";
  return "";
}

TEST(Serialize, TopLevelErrorPathsHaveNoLeadingDot) {
  EXPECT_EQ(error_of([](util::json::Value& doc) {
              doc.set("schema", util::json::Value(2));
            }),
            "characterization: schema: expected a string, got 2");
  EXPECT_EQ(error_of([](util::json::Value& doc) {
              doc.set("program", util::json::Value(2));
            }),
            "characterization: program: expected a string, got 2");
}

TEST(Serialize, OutOfRangeIntegersAreRejectedWithTheirPath) {
  EXPECT_EQ(error_of([](util::json::Value& doc) {
              member(doc, "baseline").set("iterations",
                                          util::json::Value(1e300));
            }),
            "characterization: baseline.iterations: expected an integer, "
            "got 1e+300");
  EXPECT_EQ(error_of([](util::json::Value& doc) {
              auto& row = member(doc, "baseline_table").as_array()[0];
              row.as_array()[0] = util::json::Value(-1e300);
            }),
            "characterization: baseline_table[0][0]: expected an integer, "
            "got -1e+300");
}

/// Every key is claimed by the field list, so an unknown one fails with
/// its path: at the top, inside a section and inside the machine.
TEST(Serialize, UnknownKeysAreRejectedWithTheirPath) {
  EXPECT_EQ(error_of([](util::json::Value& doc) {
              member(doc, "comm").set("etaa", util::json::Value(1));
            }),
            "characterization: comm.etaa: unknown key");
  EXPECT_EQ(error_of([](util::json::Value& doc) {
              member(doc, "power").set("idle_w", util::json::Value(1));
            }),
            "characterization: power.idle_w: unknown key");
  EXPECT_EQ(error_of([](util::json::Value& doc) {
              member(member(doc, "machine"), "node")
                  .set("corez", util::json::Value(1));
            }),
            "characterization: machine.node.corez: unknown key");
  EXPECT_EQ(error_of([](util::json::Value& doc) {
              doc.set("notes", util::json::Value("hand-edited"));
            }),
            "characterization: notes: unknown key");
}

TEST(Serialize, SectionFieldErrorsCarryTheirPath) {
  EXPECT_EQ(error_of([](util::json::Value& doc) {
              member(doc, "comm").set("pattern", util::json::Value("mesh"));
            }),
            "characterization: comm.pattern: unknown comm pattern 'mesh' "
            "(use halo-3d, wavefront, all-to-all or ring)");
  EXPECT_EQ(error_of([](util::json::Value& doc) {
              member(doc, "network").set("achievable_bps",
                                         util::json::Value("1Gbit/s"));
            }),
            "characterization: network.achievable_bps: expected a number, "
            "got \"1Gbit/s\"");
  EXPECT_EQ(error_of([](util::json::Value& doc) {
              auto& m = member(doc, "power").members();
              for (auto it = m.begin(); it != m.end(); ++it) {
                if (it->first == "core_stall_w") {
                  m.erase(it);
                  break;
                }
              }
            }),
            "characterization: power.core_stall_w: missing required key");
}

}  // namespace
}  // namespace hepex::model
