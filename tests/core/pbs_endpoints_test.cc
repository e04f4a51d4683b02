#include "pbs/core/pbs_endpoints.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "pbs/core/wire_session.h"
#include "pbs/sim/workload.h"
#include "test_util.h"

namespace pbs {
namespace {

TEST(Endpoints, ManualMessageLoop) {
  SetPair pair = GenerateSetPair(2000, 20, 32, 1);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 99);
  PbsBob bob(pair.b, config, 99);
  alice.SetDifferenceEstimate(20);
  bob.SetDifferenceEstimate(20);

  bool finished = false;
  int rounds = 0;
  while (!finished && rounds < config.max_rounds) {
    finished = PbsRound(&alice, &bob);
    ++rounds;
  }
  ASSERT_TRUE(finished);
  EXPECT_TRUE(alice.finished());
  auto diff = alice.Difference();
  std::sort(diff.begin(), diff.end());
  std::sort(pair.truth_diff.begin(), pair.truth_diff.end());
  EXPECT_EQ(diff, pair.truth_diff);
}

TEST(Endpoints, EstimateExchangeAgreesOnPlan) {
  // Without an exact d the session layer's ToW exchange hands both
  // endpoints the same estimate; a plan mismatch would leave units
  // unsettled, so a successful exact recovery shows the plans agreed.
  SetPair pair = GenerateSetPair(3000, 64, 32, 2);
  SessionConfig config;
  config.scheme_name = "pbs";
  config.seed = 7;
  const SessionResult session = RunLoopbackSession(config, pair.a, pair.b);
  ASSERT_TRUE(session.ok) << session.error;
  ASSERT_TRUE(session.outcome.success);
  auto diff = session.outcome.difference;
  std::sort(diff.begin(), diff.end());
  std::sort(pair.truth_diff.begin(), pair.truth_diff.end());
  EXPECT_EQ(diff, pair.truth_diff);
  // gamma-inflated estimate should (usually) cover the true d.
  EXPECT_GE(InflateEstimate(session.d_hat, config.options.pbs.gamma), 40);
}

TEST(Endpoints, RoundRequestSizeMatchesPlan) {
  SetPair pair = GenerateSetPair(2000, 100, 32, 3);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 11);
  alice.SetDifferenceEstimate(100);
  const auto& p = alice.plan().params;
  std::vector<uint8_t> request;
  alice.MakeRoundRequest(&request);
  // Round 1: g sketches of t*m bits, no flag bits.
  const size_t expected_bits =
      static_cast<size_t>(p.g) * p.t * p.m;
  EXPECT_EQ(request.size(), (expected_bits + 7) / 8);
}

TEST(Endpoints, FinishedFalseBeforeAnyRound) {
  PbsConfig config;
  PbsAlice alice({1, 2, 3}, config, 1);
  alice.SetDifferenceEstimate(1);
  EXPECT_FALSE(alice.finished());
}

TEST(Endpoints, TimersAccumulate) {
  SetPair pair = GenerateSetPair(20000, 200, 32, 4);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 13);
  PbsBob bob(pair.b, config, 13);
  alice.SetDifferenceEstimate(200);
  bob.SetDifferenceEstimate(200);
  PbsRound(&alice, &bob);
  EXPECT_GT(alice.timers().encode_seconds, 0.0);
  EXPECT_GT(bob.timers().encode_seconds, 0.0);
  EXPECT_GT(bob.timers().decode_seconds, 0.0);
}

TEST(Endpoints, MismatchedSeedsFailGracefully) {
  // Different seeds -> different hash partitions -> protocol cannot settle
  // (but must not produce a false positive).
  SetPair pair = GenerateSetPair(1000, 10, 32, 5);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 100);
  PbsBob bob(pair.b, config, 200);
  alice.SetDifferenceEstimate(10);
  bob.SetDifferenceEstimate(10);
  bool finished = false;
  for (int r = 0; r < config.max_rounds && !finished; ++r) {
    finished = PbsRound(&alice, &bob);
  }
  EXPECT_FALSE(finished);
}

}  // namespace
}  // namespace pbs
