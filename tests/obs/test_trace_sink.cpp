#include "obs/trace_sink.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "hw/presets.hpp"
#include "mini_json.hpp"
#include "trace/execution_engine.hpp"
#include "workload/programs.hpp"

namespace hepex {
namespace {

testjson::JValue dump(const obs::TraceSink& sink) {
  std::ostringstream os;
  sink.write_json(os);
  return testjson::parse(os.str());
}

TEST(TraceSink, EmptySinkWritesValidEmptyDocument) {
  obs::TraceSink sink;
  EXPECT_TRUE(sink.empty());
  const auto doc = dump(sink);
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  EXPECT_TRUE(doc.at("traceEvents").array.empty());
}

TEST(TraceSink, CompleteEventCarriesMicrosecondTimes) {
  obs::TraceSink sink;
  sink.complete(/*pid=*/0, /*tid=*/2, "compute", "cpu",
                /*start_s=*/1.5, /*dur_s=*/0.25);
  EXPECT_EQ(sink.size(), 1u);
  const auto doc = dump(sink);
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 1u);
  const auto& e = events[0];
  EXPECT_EQ(e.at("ph").str, "X");
  EXPECT_EQ(e.at("name").str, "compute");
  EXPECT_EQ(e.at("cat").str, "cpu");
  EXPECT_DOUBLE_EQ(e.at("pid").number, 0.0);
  EXPECT_DOUBLE_EQ(e.at("tid").number, 2.0);
  EXPECT_DOUBLE_EQ(e.at("ts").number, 1.5e6);
  EXPECT_DOUBLE_EQ(e.at("dur").number, 0.25e6);
}

TEST(TraceSink, NegativeDurationClampedToZero) {
  obs::TraceSink sink;
  sink.complete(0, 0, "span", "c", 1.0, -0.5);
  const auto doc = dump(sink);
  const auto& e = doc.at("traceEvents").array[0];
  EXPECT_DOUBLE_EQ(e.at("dur").number, 0.0);
}

TEST(TraceSink, InstantAndCounterShapes) {
  obs::TraceSink sink;
  sink.instant(3, 7, "dvfs", "power", 0.125);
  sink.counter(3, "f [GHz]", 0.125, 1.8);
  const auto doc = dump(sink);
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  const auto& inst = events[0];
  EXPECT_EQ(inst.at("ph").str, "i");
  EXPECT_EQ(inst.at("s").str, "t");  // thread scope
  EXPECT_DOUBLE_EQ(inst.at("ts").number, 0.125e6);
  const auto& ctr = events[1];
  EXPECT_EQ(ctr.at("ph").str, "C");
  EXPECT_EQ(ctr.at("name").str, "f [GHz]");
  EXPECT_DOUBLE_EQ(ctr.at("args").at("value").number, 1.8);
}

TEST(TraceSink, MetadataFirstThenEventsSortedByTimestamp) {
  obs::TraceSink sink;
  sink.complete(0, 0, "late", "c", 2.0, 0.1);
  sink.complete(0, 0, "early", "c", 0.5, 0.1);
  sink.set_process_name(0, "node0");
  sink.set_thread_name(0, 0, "core0");
  const auto doc = dump(sink);
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].at("ph").str, "M");
  EXPECT_EQ(events[1].at("ph").str, "M");
  EXPECT_EQ(events[0].at("name").str, "process_name");
  EXPECT_EQ(events[1].at("name").str, "thread_name");
  EXPECT_EQ(events[0].at("args").at("name").str, "node0");
  EXPECT_EQ(events[1].at("args").at("name").str, "core0");
  EXPECT_EQ(events[2].at("name").str, "early");
  EXPECT_EQ(events[3].at("name").str, "late");
}

TEST(TraceSink, EscapesSpecialCharactersInNames) {
  obs::TraceSink sink;
  sink.complete(0, 0, "quote \" backslash \\ tab \t", "c\n", 0.0, 1.0);
  const auto doc = dump(sink);
  const auto& e = doc.at("traceEvents").array[0];
  EXPECT_EQ(e.at("name").str, "quote \" backslash \\ tab \t");
  EXPECT_EQ(e.at("cat").str, "c\n");
}

TEST(TraceSink, WriteFileRoundTrips) {
  obs::TraceSink sink;
  sink.complete(1, 2, "span", "c", 0.0, 1.0);
  const std::string path =
      ::testing::TempDir() + "/hepex_trace_sink_test.json";
  ASSERT_TRUE(sink.write_file(path));
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::ostringstream buf;
  buf << is.rdbuf();
  const auto doc = testjson::parse(buf.str());
  EXPECT_EQ(doc.at("traceEvents").array.size(), 1u);
  std::remove(path.c_str());
}

TEST(TraceSink, WriteFileFailsOnBadPath) {
  obs::TraceSink sink;
  EXPECT_FALSE(sink.write_file("/nonexistent-dir/x/y/trace.json"));
}

/// Integration: a real engine run must produce a well-formed trace with
/// the documented lanes — compute on core lanes, memory-controller
/// service, messaging-stack spans, wire spans on the cluster
/// pseudo-process, barrier waits — and per-lane monotone, non-overlapping
/// "X" spans. This is the ISSUE acceptance criterion for --trace output.
TEST(TraceSink, EngineRunProducesWellFormedLanes) {
  obs::TraceSink sink;
  trace::SimOptions opt;
  opt.chunks_per_iteration = 6;
  opt.trace = &sink;
  const auto machine = hw::xeon_cluster();
  const auto program =
      workload::program_by_name("SP", workload::InputClass::kS);
  const hw::ClusterConfig cfg{2, 2, q::Hertz{1.5e9}};
  trace::simulate(machine, program, cfg, opt);
  ASSERT_FALSE(sink.empty());

  const auto doc = dump(sink);
  const auto& events = doc.at("traceEvents").array;

  std::set<std::string> span_names;
  // (pid, tid) -> end time of the previous 'X' span on that lane.
  std::map<std::pair<int, int>, double> lane_end_us;
  double prev_ts = -1.0;
  bool metadata_done = false;
  for (const auto& e : events) {
    const std::string ph = e.at("ph").str;
    if (ph == "M") {
      EXPECT_FALSE(metadata_done) << "metadata after timeline events";
      continue;
    }
    metadata_done = true;
    const double ts = e.at("ts").number;
    EXPECT_GE(ts, prev_ts) << "global timestamp order violated";
    prev_ts = ts;
    if (ph != "X") continue;
    span_names.insert(e.at("name").str);
    const auto lane = std::make_pair(static_cast<int>(e.at("pid").number),
                                     static_cast<int>(e.at("tid").number));
    const auto it = lane_end_us.find(lane);
    if (it != lane_end_us.end()) {
      // Spans on one lane must not overlap (1 ns slop for fp rounding).
      EXPECT_GE(ts, it->second - 1e-3)
          << "overlap on lane pid=" << lane.first << " tid=" << lane.second;
    }
    lane_end_us[lane] = ts + e.at("dur").number;
  }

  EXPECT_TRUE(span_names.count("compute"));
  EXPECT_TRUE(span_names.count("dram service"));
  EXPECT_TRUE(span_names.count("mem stall"));
  EXPECT_TRUE(span_names.count("msg stack"));
  EXPECT_TRUE(span_names.count("wire"));
  EXPECT_TRUE(span_names.count("barrier wait"));
}

}  // namespace
}  // namespace hepex
