// Tests for the Amdahl speedup bound.

#include "model/bounds.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hepex::model {
namespace {

TEST(Amdahl, KnownValues) {
  EXPECT_DOUBLE_EQ(amdahl_speedup(0.0, 8), 8.0);
  EXPECT_DOUBLE_EQ(amdahl_speedup(1.0, 64), 1.0);
  // s = 0.1, p -> inf: ceiling is 10.
  EXPECT_NEAR(amdahl_speedup(0.1, 1000000), 10.0, 0.01);
  EXPECT_DOUBLE_EQ(amdahl_speedup(0.5, 2), 1.0 / 0.75);
}

TEST(Amdahl, RejectsBadArguments) {
  EXPECT_THROW(amdahl_speedup(-0.1, 4), std::invalid_argument);
  EXPECT_THROW(amdahl_speedup(1.1, 4), std::invalid_argument);
  EXPECT_THROW(amdahl_speedup(0.1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace hepex::model
