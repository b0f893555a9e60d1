#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "mini_json.hpp"

namespace hepex {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  obs::Registry reg;
  auto& c = reg.counter("jobs");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name -> same instrument.
  EXPECT_EQ(&reg.counter("jobs"), &c);
  EXPECT_EQ(reg.counter("jobs").value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  obs::Registry reg;
  auto& g = reg.gauge("util");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(0.5);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);
  g.set(-1.0);  // gauges may go negative
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Histogram, BucketsByUpperBoundInclusive) {
  obs::Registry reg;
  auto& h = reg.histogram("lat", {1.0, 2.0, 4.0});
  h.observe(0.5);   // le 1
  h.observe(1.0);   // le 1 (bounds are inclusive)
  h.observe(1.5);   // le 2
  h.observe(4.0);   // le 4
  h.observe(100.0); // +Inf
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 107.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 107.0 / 5.0);
}

TEST(Histogram, RejectsUnsortedBounds) {
  obs::Registry reg;
  EXPECT_THROW(reg.histogram("bad", {2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("dup", {1.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, SecondRegistrationReturnsExisting) {
  obs::Registry reg;
  auto& h = reg.histogram("x", {1.0});
  h.observe(0.5);
  auto& again = reg.histogram("x", {99.0, 100.0});  // bounds ignored
  EXPECT_EQ(&again, &h);
  EXPECT_EQ(again.count(), 1u);
  ASSERT_EQ(again.bounds().size(), 1u);
  EXPECT_DOUBLE_EQ(again.bounds()[0], 1.0);
}

TEST(Registry, FindDoesNotCreate) {
  obs::Registry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
  EXPECT_EQ(reg.size(), 0u);
  reg.counter("a");
  reg.gauge("b");
  reg.histogram("c", {1.0});
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_NE(reg.find_counter("a"), nullptr);
}

/// The snapshot must parse as JSON and reproduce every instrument's state
/// exactly — the round trip the metrics file consumers depend on.
TEST(Registry, JsonSnapshotRoundTrip) {
  obs::Registry reg;
  reg.counter("events").add(12345);
  reg.counter("msgs \"quoted\"").add(7);  // name needing escapes
  reg.gauge("utilization").set(0.123456789012345);
  auto& h = reg.histogram("wait_s", {0.001, 0.1});
  h.observe(0.0005);
  h.observe(0.05);
  h.observe(3.25);

  const auto doc = testjson::parse(reg.to_json());
  EXPECT_DOUBLE_EQ(doc.at("counters").at("events").number, 12345.0);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("msgs \"quoted\"").number, 7.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("utilization").number,
                   0.123456789012345);

  const auto& hj = doc.at("histograms").at("wait_s");
  EXPECT_DOUBLE_EQ(hj.at("count").number, 3.0);
  EXPECT_DOUBLE_EQ(hj.at("sum").number, 0.0005 + 0.05 + 3.25);
  EXPECT_DOUBLE_EQ(hj.at("min").number, 0.0005);
  EXPECT_DOUBLE_EQ(hj.at("max").number, 3.25);
  const auto& buckets = hj.at("buckets").array;
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets[0].at("le").number, 0.001);
  EXPECT_DOUBLE_EQ(buckets[0].at("count").number, 1.0);
  EXPECT_DOUBLE_EQ(buckets[1].at("le").number, 0.1);
  EXPECT_DOUBLE_EQ(buckets[1].at("count").number, 1.0);
  EXPECT_TRUE(buckets[2].at("le").is_string());
  EXPECT_EQ(buckets[2].at("le").str, "+Inf");
  EXPECT_DOUBLE_EQ(buckets[2].at("count").number, 1.0);
}

/// Byte-level golden pin: the snapshot format is consumed by external
/// tooling (`--metrics` files, CI artifacts), so its exact shape —
/// insertion-ordered keys, 2-space indent, shortest round-trip numbers,
/// trailing newline — is a contract, not an implementation detail.
TEST(Registry, JsonSnapshotBytesArePinned) {
  obs::Registry reg;
  reg.counter("events").add(3);
  reg.gauge("util").set(0.5);
  auto& h = reg.histogram("wait_s", {0.1});
  h.observe(0.05);
  h.observe(2.0);
  EXPECT_EQ(reg.to_json(),
            "{\n"
            "  \"counters\": {\n"
            "    \"events\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"util\": 0.5\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"wait_s\": {\n"
            "      \"count\": 2,\n"
            "      \"sum\": 2.05,\n"
            "      \"min\": 0.05,\n"
            "      \"max\": 2,\n"
            "      \"buckets\": [\n"
            "        {\n"
            "          \"le\": 0.1,\n"
            "          \"count\": 1\n"
            "        },\n"
            "        {\n"
            "          \"le\": \"+Inf\",\n"
            "          \"count\": 1\n"
            "        }\n"
            "      ]\n"
            "    }\n"
            "  }\n"
            "}\n");
}

TEST(Registry, SnapshotPreservesInsertionOrderNotAlphabetical) {
  // Registration order is the report order: a metric registered first
  // appears first even when it sorts last. Pinned at the byte level so a
  // switch to a sorted map cannot slip through.
  obs::Registry reg;
  reg.counter("zz.last_alphabetically").add(1);
  reg.counter("aa.first_alphabetically").add(2);
  reg.gauge("z_gauge").set(1.0);
  reg.gauge("a_gauge").set(2.0);
  EXPECT_EQ(reg.to_json(),
            "{\n"
            "  \"counters\": {\n"
            "    \"zz.last_alphabetically\": 1,\n"
            "    \"aa.first_alphabetically\": 2\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"z_gauge\": 1,\n"
            "    \"a_gauge\": 2\n"
            "  },\n"
            "  \"histograms\": {}\n"
            "}\n");
}

TEST(Registry, EmptySnapshotIsValidJson) {
  obs::Registry reg;
  const auto doc = testjson::parse(reg.to_json());
  EXPECT_TRUE(doc.at("counters").is_object());
  EXPECT_TRUE(doc.at("gauges").is_object());
  EXPECT_TRUE(doc.at("histograms").is_object());
  EXPECT_TRUE(doc.at("counters").object.empty());
}

TEST(Registry, EmptyHistogramSnapshotsNullMinMax) {
  obs::Registry reg;
  reg.histogram("empty", {1.0});
  const auto doc = testjson::parse(reg.to_json());
  EXPECT_TRUE(doc.at("histograms").at("empty").at("min").is_null());
  EXPECT_TRUE(doc.at("histograms").at("empty").at("max").is_null());
}

}  // namespace
}  // namespace hepex
