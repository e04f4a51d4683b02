// PinSketch/WP (Section 8.3) through the scheme registry.

#include <gtest/gtest.h>

#include <algorithm>

#include "pbs/core/set_reconciler.h"
#include "pbs/sim/workload.h"
#include "test_util.h"

namespace pbs {
namespace {

bool Matches(std::vector<uint64_t> got, std::vector<uint64_t> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return got == want;
}

// ReconcileSized sizes the partitioned PinSketch for exactly d_hat
// differences (gamma = 1; g = ceil(d_hat / 5), t from the PBS plan).
constexpr const char* kScheme = "pinsketch-wp";

TEST(PinSketchWp, IdenticalSets) {
  SetPair pair = GenerateSetPair(2000, 0, 32, 1);
  auto out = ReconcileSized(kScheme, pair, PbsConfig{}, 1, 0);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(out.difference.empty());
}

class PinSketchWpSweep : public ::testing::TestWithParam<int> {};

TEST_P(PinSketchWpSweep, RecoversDifference) {
  const int d = GetParam();
  int ok = 0;
  constexpr int kTrials = 8;
  for (int trial = 0; trial < kTrials; ++trial) {
    SetPair pair =
        GenerateSetPair(std::max(2000, 4 * d), d, 32, 13 * d + trial);
    auto out = ReconcileSized(kScheme, pair, PbsConfig{}, trial, d);
    if (out.success) {
      EXPECT_TRUE(Matches(out.difference, pair.truth_diff)) << "d=" << d;
      ++ok;
    }
  }
  EXPECT_GE(ok, kTrials - 1) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(Ds, PinSketchWpSweep,
                         ::testing::Values(5, 25, 100, 500));

TEST(PinSketchWp, CommunicationExceedsPbsMarginRatio) {
  // Per-group overhead: sketch t*32 bits vs PBS's t*log n. PinSketch/WP
  // ships g = d/5 sketches at the PBS plan's t, so with t >= 13 it costs
  // at least g * 13 * 32 bits.
  const int d = 250;
  SetPair pair = GenerateSetPair(5000, d, 32, 3);
  auto out = ReconcileSized(kScheme, pair, PbsConfig{}, 3, d);
  ASSERT_TRUE(out.success);
  EXPECT_GE(out.data_bytes, static_cast<size_t>(d / 5) * 13 * 32 / 8);
}

TEST(PinSketchWp, ReportSigBitsScalesAccounting) {
  const int d = 100;
  SetPair pair = GenerateSetPair(3000, d, 32, 5);
  auto out32 = ReconcileSized(kScheme, pair, PbsConfig{}, 5, d, 0);
  auto out256 = ReconcileSized(kScheme, pair, PbsConfig{}, 5, d, 256);
  ASSERT_TRUE(out32.success);
  ASSERT_TRUE(out256.success);
  // Appendix J.3: at 256-bit signatures everything scales by ~8x.
  EXPECT_NEAR(static_cast<double>(out256.data_bytes) / out32.data_bytes, 8.0,
              0.5);
}

TEST(PinSketchWp, SplitsHandleOverloadedGroups) {
  // Underestimate d so several groups exceed t; splits must still converge
  // given enough rounds.
  SetPair pair = GenerateSetPair(4000, 120, 32, 7);
  PbsConfig config;
  config.max_rounds = 8;
  auto out = ReconcileSized(kScheme, pair, config, 7, 30);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(Matches(out.difference, pair.truth_diff));
}

}  // namespace
}  // namespace pbs
