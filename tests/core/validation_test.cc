#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "pbs/core/pbs_endpoints.h"
#include "test_util.h"

namespace pbs {
namespace {

TEST(Validation, ZeroElementRejected) {
  PbsConfig config;
  EXPECT_THROW(PbsAlice({1, 0, 3}, config, 1), std::invalid_argument);
  EXPECT_THROW(PbsBob({0}, config, 1), std::invalid_argument);
}

TEST(Validation, OverWidthElementRejected) {
  PbsConfig config;
  config.sig_bits = 32;
  EXPECT_THROW(PbsAlice({uint64_t{1} << 33}, config, 1),
               std::invalid_argument);
}

TEST(Validation, ExactWidthElementAccepted) {
  PbsConfig config;
  config.sig_bits = 32;
  EXPECT_NO_THROW(PbsAlice({0xFFFFFFFFull}, config, 1));
}

TEST(Validation, WideSignaturesAccepted) {
  PbsConfig config;
  config.sig_bits = 63;
  EXPECT_NO_THROW(PbsBob({(uint64_t{1} << 63) - 1}, config, 1));
}

TEST(Validation, SubuniverseCheckTogglePreservesCorrectness) {
  // With the Procedure-3 check disabled the protocol still converges
  // (fakes are caught by the checksum loop), possibly using extra rounds.
  PbsConfig on;
  PbsConfig off = on;
  off.subuniverse_check = false;
  off.max_rounds = 8;
  std::vector<uint64_t> a, b;
  for (uint64_t i = 1; i <= 3000; ++i) a.push_back(i * 2654435761u % 0xFFFFFFFF + 1);
  b.assign(a.begin() + 50, a.end());
  PbsAlice alice(a, off, 3);
  PbsBob bob(b, off, 3);
  alice.SetDifferenceEstimate(50);
  bob.SetDifferenceEstimate(50);
  bool finished = false;
  for (int r = 0; r < off.max_rounds && !finished; ++r) {
    finished = PbsRound(&alice, &bob);
  }
  EXPECT_TRUE(finished);
  EXPECT_EQ(alice.Difference().size(), 50u);
}

}  // namespace
}  // namespace pbs
