// Tests for the streaming span aggregator: folding through recorders,
// log-bucketing and the JSON snapshot shape.

#include "obs/span_agg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "mini_json.hpp"
#include "util/json.hpp"

namespace hepex {
namespace {

using obs::SpanAggregator;

TEST(SpanAgg, StartsEmpty) {
  SpanAggregator agg;
  EXPECT_TRUE(agg.empty());
  EXPECT_TRUE(agg.categories().empty());
  EXPECT_EQ(agg.find("compute"), nullptr);
  EXPECT_EQ(agg.find_node("compute", 0), nullptr);
}

TEST(SpanAgg, FoldsCountTotalMinMax) {
  SpanAggregator agg;
  agg.recorder("compute").record(0, 2.0);
  agg.recorder("compute").record(0, 0.5);
  agg.recorder("compute").record(1, 1.0);
  const auto* s = agg.find("compute");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 3u);
  EXPECT_DOUBLE_EQ(s->total_s, 3.5);
  EXPECT_DOUBLE_EQ(s->min_s, 0.5);
  EXPECT_DOUBLE_EQ(s->max_s, 2.0);
  EXPECT_DOUBLE_EQ(s->mean_s(), 3.5 / 3.0);

  const auto* n0 = agg.find_node("compute", 0);
  ASSERT_NE(n0, nullptr);
  EXPECT_EQ(n0->count, 2u);
  EXPECT_DOUBLE_EQ(n0->total_s, 2.5);
  const auto* n1 = agg.find_node("compute", 1);
  ASSERT_NE(n1, nullptr);
  EXPECT_EQ(n1->count, 1u);
  EXPECT_EQ(agg.find_node("compute", 2), nullptr);
}

TEST(SpanAgg, ClusterSpansHaveNoNodeRows) {
  SpanAggregator agg;
  agg.recorder("iteration").record(SpanAggregator::kClusterNode, 1.0);
  ASSERT_NE(agg.find("iteration"), nullptr);
  EXPECT_EQ(agg.find("iteration")->count, 1u);
  EXPECT_EQ(agg.find_node("iteration", 0), nullptr);
  EXPECT_EQ(agg.find_node("iteration", SpanAggregator::kClusterNode), nullptr);
}

TEST(SpanAgg, CategoriesKeepFirstRecordOrder) {
  SpanAggregator agg;
  // A recorder registers its category on first record, not on creation.
  (void)agg.recorder("unused");
  SpanAggregator::Recorder alpha = agg.recorder("alpha");
  EXPECT_TRUE(agg.empty());
  agg.recorder("zeta").record(0, 1.0);
  alpha.record(0, 1.0);
  agg.recorder("zeta").record(0, 1.0);  // re-record must not move it
  ASSERT_EQ(agg.categories().size(), 2u);
  EXPECT_EQ(agg.categories()[0], "zeta");
  EXPECT_EQ(agg.categories()[1], "alpha");
}

TEST(SpanAgg, BucketOfIsTheBinaryExponent) {
  // Bucket i covers [2^(kMinPow2+i), 2^(kMinPow2+i+1)).
  constexpr int kMin = SpanAggregator::kMinPow2;
  EXPECT_EQ(SpanAggregator::bucket_of(1.0), -kMin);      // [1, 2)
  EXPECT_EQ(SpanAggregator::bucket_of(1.999), -kMin);
  EXPECT_EQ(SpanAggregator::bucket_of(2.0), -kMin + 1);  // [2, 4)
  EXPECT_EQ(SpanAggregator::bucket_of(0.5), -kMin - 1);  // [0.5, 1)
  // Underflow and non-positive durations clamp to bucket 0.
  EXPECT_EQ(SpanAggregator::bucket_of(0.0), 0);
  EXPECT_EQ(SpanAggregator::bucket_of(-1.0), 0);
  EXPECT_EQ(SpanAggregator::bucket_of(std::ldexp(1.0, kMin - 5)), 0);
  // Overflow clamps to the last bucket.
  EXPECT_EQ(SpanAggregator::bucket_of(std::ldexp(1.0, 60)),
            SpanAggregator::kBuckets - 1);
}

TEST(SpanAgg, JsonSnapshotShape) {
  SpanAggregator agg;
  agg.recorder("compute").record(0, 1.0);
  agg.recorder("compute").record(0, 1.5);
  agg.recorder("iteration").record(SpanAggregator::kClusterNode, 2.5);

  const auto doc = testjson::parse(util::json::dump(agg.to_json_value()));
  const auto& compute = doc.at("compute");
  EXPECT_DOUBLE_EQ(compute.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(compute.at("total_s").number, 2.5);
  EXPECT_DOUBLE_EQ(compute.at("min_s").number, 1.0);
  EXPECT_DOUBLE_EQ(compute.at("max_s").number, 1.5);
  // 1.0 and 1.5 share the [1,2) bucket: exactly one bucket entry.
  ASSERT_EQ(compute.at("buckets").array.size(), 1u);
  EXPECT_DOUBLE_EQ(compute.at("buckets").array[0].at("pow2").number, 0.0);
  EXPECT_DOUBLE_EQ(compute.at("buckets").array[0].at("count").number, 2.0);
  ASSERT_EQ(compute.at("per_node").array.size(), 1u);
  EXPECT_DOUBLE_EQ(compute.at("per_node").array[0].at("node").number, 0.0);
  EXPECT_DOUBLE_EQ(compute.at("per_node").array[0].at("count").number, 2.0);
  // Cluster-only categories omit per_node entirely.
  EXPECT_FALSE(doc.at("iteration").has("per_node"));
}

TEST(SpanAgg, JsonBytesArePinned) {
  // The snapshot feeds RunReport golden pins, so its exact bytes are a
  // contract: first-record category order, empty buckets omitted.
  SpanAggregator agg;
  agg.recorder("compute").record(0, 1.0);
  EXPECT_EQ(util::json::dump(agg.to_json_value()),
            "{\n"
            "  \"compute\": {\n"
            "    \"count\": 1,\n"
            "    \"total_s\": 1,\n"
            "    \"min_s\": 1,\n"
            "    \"max_s\": 1,\n"
            "    \"buckets\": [\n"
            "      {\n"
            "        \"pow2\": 0,\n"
            "        \"count\": 1\n"
            "      }\n"
            "    ],\n"
            "    \"per_node\": [\n"
            "      {\n"
            "        \"node\": 0,\n"
            "        \"count\": 1,\n"
            "        \"total_s\": 1,\n"
            "        \"min_s\": 1,\n"
            "        \"max_s\": 1\n"
            "      }\n"
            "    ]\n"
            "  }\n"
            "}\n");
}

}  // namespace
}  // namespace hepex
