// Difference Digest [15] through the scheme registry (Sections 7, 8.1).

#include <gtest/gtest.h>

#include <algorithm>

#include "pbs/sim/workload.h"
#include "test_util.h"

namespace pbs {
namespace {

bool Matches(std::vector<uint64_t> got, std::vector<uint64_t> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return got == want;
}

TEST(DDigest, IdenticalSets) {
  SetPair pair = GenerateSetPair(2000, 0, 32, 1);
  auto out = ReconcileSized("ddigest", pair, {}, 1, 1);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(out.difference.empty());
}

class DDigestSweep : public ::testing::TestWithParam<int> {};

TEST_P(DDigestSweep, UsuallyRecoversAtPaperSizing) {
  const int d = GetParam();
  int ok = 0;
  constexpr int kTrials = 10;
  for (int trial = 0; trial < kTrials; ++trial) {
    SetPair pair =
        GenerateSetPair(std::max(2000, 3 * d), d, 32, 100 * d + trial);
    auto out = ReconcileSized("ddigest", pair, {}, trial, d);
    if (out.success && Matches(out.difference, pair.truth_diff)) ++ok;
  }
  EXPECT_GE(ok, 8) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Ds, DDigestSweep,
                         ::testing::Values(10, 50, 300, 1000));

TEST(DDigest, WireSizeRoughlySixTimesMinimum) {
  const int d = 100;
  SetPair pair = GenerateSetPair(2000, d, 32, 3);
  auto out = ReconcileSized("ddigest", pair, {}, 3, d);
  const double ratio = static_cast<double>(out.data_bytes) / (d * 4.0);
  EXPECT_NEAR(ratio, 6.0, 0.3);
}

TEST(DDigest, UndersizedFilterFailsHonestly) {
  SetPair pair = GenerateSetPair(3000, 200, 32, 5);
  auto out = ReconcileSized("ddigest", pair, {}, 5, 20);
  EXPECT_FALSE(out.success);
}

TEST(DDigest, TwoSidedDifference) {
  SetPair pair = GenerateTwoSidedPair(2000, 15, 10, 32, 7);
  auto out = ReconcileSized("ddigest", pair, {}, 7, 25);
  ASSERT_TRUE(out.success);
  EXPECT_TRUE(Matches(out.difference, pair.truth_diff));
}

}  // namespace
}  // namespace pbs
