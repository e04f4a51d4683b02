// Adversarial-input robustness: the endpoints must survive corrupted,
// truncated, or garbage protocol messages without crashing, and must never
// turn such input into a false "success".

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "pbs/common/rng.h"
#include "pbs/core/messages.h"
#include "pbs/core/pbs_endpoints.h"
#include "pbs/core/session_engine.h"
#include "pbs/sim/workload.h"
#include "test_util.h"

namespace pbs {
namespace {

std::vector<uint8_t> Corrupt(std::vector<uint8_t> bytes, Xoshiro256* rng) {
  if (bytes.empty()) return bytes;
  const int flips = 1 + static_cast<int>(rng->NextBounded(8));
  for (int i = 0; i < flips; ++i) {
    bytes[rng->NextBounded(bytes.size())] ^=
        static_cast<uint8_t>(1u << rng->NextBounded(8));
  }
  return bytes;
}

class MessageCorruption : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MessageCorruption, CorruptedRoundReplyNeverFalselySucceeds) {
  Xoshiro256 rng(GetParam());
  SetPair pair = GenerateSetPair(1500, 20, 32, GetParam());
  PbsConfig config;
  config.max_rounds = 4;
  PbsAlice alice(pair.a, config, 5);
  PbsBob bob(pair.b, config, 5);
  alice.SetDifferenceEstimate(20);
  bob.SetDifferenceEstimate(20);

  bool finished = false;
  for (int round = 0; round < config.max_rounds && !finished; ++round) {
    std::vector<uint8_t> request, reply;
    alice.MakeRoundRequest(&request);
    bob.HandleRoundRequest(request, &reply);
    if (!alice.HandleRoundReply(Corrupt(std::move(reply), &rng))) break;
    finished = alice.finished();
  }
  if (finished) {
    // Success claims survive corruption only if the recovered difference is
    // still checksum-consistent; it must then actually be correct.
    auto diff = alice.Difference();
    std::sort(diff.begin(), diff.end());
    std::sort(pair.truth_diff.begin(), pair.truth_diff.end());
    EXPECT_EQ(diff, pair.truth_diff);
  }
}

TEST_P(MessageCorruption, CorruptedRequestDoesNotCrashBob) {
  Xoshiro256 rng(GetParam() ^ 0xB0B);
  SetPair pair = GenerateSetPair(1500, 20, 32, GetParam());
  PbsConfig config;
  PbsAlice alice(pair.a, config, 7);
  PbsBob bob(pair.b, config, 7);
  alice.SetDifferenceEstimate(20);
  bob.SetDifferenceEstimate(20);
  std::vector<uint8_t> request, reply;
  alice.MakeRoundRequest(&request);
  bob.HandleRoundRequest(Corrupt(std::move(request), &rng),
                         &reply);  // Must not crash.
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageCorruption,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(Robustness, TruncatedReplyHandled) {
  SetPair pair = GenerateSetPair(1500, 20, 32, 77);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 9);
  PbsBob bob(pair.b, config, 9);
  alice.SetDifferenceEstimate(20);
  bob.SetDifferenceEstimate(20);
  std::vector<uint8_t> request, reply;
  alice.MakeRoundRequest(&request);
  bob.HandleRoundRequest(request, &reply);
  reply.resize(reply.size() / 2);
  alice.HandleRoundReply(reply);  // Must not crash.
  SUCCEED();
}

TEST(Robustness, EmptyMessagesHandled) {
  SetPair pair = GenerateSetPair(500, 5, 32, 78);
  PbsConfig config;
  PbsAlice alice(pair.a, config, 11);
  PbsBob bob(pair.b, config, 11);
  alice.SetDifferenceEstimate(5);
  bob.SetDifferenceEstimate(5);
  std::vector<uint8_t> request, reply;
  alice.MakeRoundRequest(&request);
  alice.HandleRoundReply({});           // Empty reply.
  bob.HandleRoundRequest({}, &reply);   // Empty request.
  SUCCEED();
}

TEST(Robustness, GarbageEstimateRequestHandled) {
  // The session layer owns the estimate exchange: a responder past HELLO
  // that receives a garbage ESTIMATE_REQ payload must fail with a
  // diagnostic instead of crashing or answering with an estimate.
  SetPair pair = GenerateSetPair(500, 5, 32, 79);
  SessionEngine initiator = SessionEngine::Initiator(SessionConfig{}, pair.a);
  SessionEngine responder = SessionEngine::Responder(pair.b);
  std::vector<uint8_t> hello(initiator.outbound_size());
  initiator.Poll(hello.data(), hello.size());
  responder.Feed(hello.data(), hello.size());
  uint8_t sink[4096];
  while (responder.Status() == SessionStatus::kWantWrite) {
    responder.Poll(sink, sizeof(sink));  // HELLO_ACK.
  }
  ASSERT_EQ(responder.Status(), SessionStatus::kWantRead);

  Xoshiro256 rng(80);
  wire::WireFrame frame;
  frame.type = wire::FrameType::kEstimateRequest;
  frame.payload.resize(64);
  for (auto& b : frame.payload) b = static_cast<uint8_t>(rng.Next());
  const std::vector<uint8_t> garbage = wire::EncodeFrame(frame);
  responder.Feed(garbage.data(), garbage.size());  // Must not crash.
  while (responder.Status() == SessionStatus::kWantWrite) {
    responder.Poll(sink, sizeof(sink));  // ERROR frame.
  }
  EXPECT_EQ(responder.Status(), SessionStatus::kError);
  EXPECT_NE(responder.result().error.find("malformed estimate request"),
            std::string::npos)
      << responder.result().error;
}

TEST(Robustness, ZeroLengthSetsReconcile) {
  PbsConfig config;
  PbsAlice alice({}, config, 15);
  PbsBob bob({}, config, 15);
  alice.SetDifferenceEstimate(0);
  bob.SetDifferenceEstimate(0);
  const bool finished = PbsRound(&alice, &bob);
  EXPECT_TRUE(finished);
  EXPECT_TRUE(alice.Difference().empty());
}

TEST(Robustness, OneSidedEmptySet) {
  SetPair pair = GenerateSetPair(60, 60, 32, 81);  // B is empty.
  ASSERT_TRUE(pair.b.empty());
  PbsConfig config;
  config.max_rounds = 5;
  PbsAlice alice(pair.a, config, 17);
  PbsBob bob(pair.b, config, 17);
  alice.SetDifferenceEstimate(60);
  bob.SetDifferenceEstimate(60);
  bool finished = false;
  for (int r = 0; r < config.max_rounds && !finished; ++r) {
    finished = PbsRound(&alice, &bob);
  }
  ASSERT_TRUE(finished);
  auto diff = alice.Difference();
  std::sort(diff.begin(), diff.end());
  std::sort(pair.truth_diff.begin(), pair.truth_diff.end());
  EXPECT_EQ(diff, pair.truth_diff);
}

}  // namespace
}  // namespace pbs
