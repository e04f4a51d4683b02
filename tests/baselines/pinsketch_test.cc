// PinSketch [13] through the scheme registry (Sections 7, 8.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "pbs/sim/workload.h"
#include "test_util.h"

namespace pbs {
namespace {

bool Matches(std::vector<uint64_t> got, std::vector<uint64_t> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return got == want;
}

TEST(PinSketch, IdenticalSets) {
  SetPair pair = GenerateSetPair(2000, 0, 32, 1);
  auto out = ReconcileSized("pinsketch", pair, {}, 1, 5);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(out.difference.empty());
}

class PinSketchSweep : public ::testing::TestWithParam<int> {};

TEST_P(PinSketchSweep, ExactRecoveryWithinCapacity) {
  const int d = GetParam();
  SetPair pair = GenerateSetPair(std::max(2000, 3 * d), d, 32, 10 + d);
  const int t = static_cast<int>(std::ceil(1.38 * d));
  auto out = ReconcileSized("pinsketch", pair, {}, d, t);
  ASSERT_TRUE(out.success);
  EXPECT_TRUE(Matches(out.difference, pair.truth_diff));
}

INSTANTIATE_TEST_SUITE_P(Ds, PinSketchSweep,
                         ::testing::Values(1, 3, 10, 50, 200));

TEST(PinSketch, WireSizeIsTLogU) {
  SetPair pair = GenerateSetPair(1000, 10, 32, 3);
  auto out = ReconcileSized("pinsketch", pair, {}, 3, 14);
  EXPECT_EQ(out.data_bytes, 14u * 32 / 8);
}

TEST(PinSketch, OverCapacityDetected) {
  SetPair pair = GenerateSetPair(2000, 40, 32, 5);
  auto out = ReconcileSized("pinsketch", pair, {}, 5, 10);
  EXPECT_FALSE(out.success);
}

TEST(PinSketch, CommunicationNearOptimal) {
  // 1.38x the minimum: the paper's Figure 1b observation.
  const int d = 100;
  SetPair pair = GenerateSetPair(5000, d, 32, 7);
  const int t = static_cast<int>(std::ceil(1.38 * d));
  auto out = ReconcileSized("pinsketch", pair, {}, 7, t);
  ASSERT_TRUE(out.success);
  const double ratio = static_cast<double>(out.data_bytes) / (d * 4.0);
  EXPECT_NEAR(ratio, 1.38, 0.02);
}

TEST(PinSketch, TwoSidedDifference) {
  SetPair pair = GenerateTwoSidedPair(1500, 12, 9, 32, 9);
  auto out = ReconcileSized("pinsketch", pair, {}, 9, 30);
  ASSERT_TRUE(out.success);
  EXPECT_TRUE(Matches(out.difference, pair.truth_diff));
}

}  // namespace
}  // namespace pbs
