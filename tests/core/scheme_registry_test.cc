// Conformance suite for the SetReconciler interface and SchemeRegistry:
// every registered scheme, iterated by name, must recover the exact
// difference over the sim/workload shapes with sane byte/round accounting.
// The per-scheme pinned outcomes live in scheme_golden_test.cc.

#include "pbs/core/set_reconciler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "pbs/sim/workload.h"

namespace pbs {
namespace {

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(SchemeRegistry, AllBuiltinsRegistered) {
  const auto names = SchemeRegistry::Instance().Names();
  for (const char* expected :
       {"pbs", "pinsketch", "pinsketch-wp", "ddigest", "graphene"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
    EXPECT_TRUE(SchemeRegistry::Instance().Contains(expected));
  }
}

TEST(SchemeRegistry, UnknownNameYieldsNull) {
  EXPECT_EQ(SchemeRegistry::Instance().Create("nope", SchemeOptions{}),
            nullptr);
  EXPECT_FALSE(SchemeRegistry::Instance().Contains("nope"));
  EXPECT_EQ(SchemeRegistry::Instance().DisplayName("nope"), "");
}

TEST(SchemeRegistry, DuplicateRegistrationRejected) {
  auto& registry = SchemeRegistry::Instance();
  EXPECT_FALSE(registry.Register("pbs", "Imposter", nullptr));
  EXPECT_EQ(registry.DisplayName("pbs"), "PBS");
}

TEST(SchemeRegistry, SelfDescription) {
  const SchemeOptions options;
  auto& registry = SchemeRegistry::Instance();
  for (const std::string& name : registry.Names()) {
    const auto scheme = registry.Create(name, options);
    ASSERT_NE(scheme, nullptr) << name;
    EXPECT_EQ(scheme->name(), name);
    EXPECT_EQ(scheme->display_name(), registry.DisplayName(name)) << name;
    EXPECT_TRUE(scheme->needs_estimate()) << name;
  }
  EXPECT_TRUE(registry.Create("pbs", options)->supports_rounds());
  EXPECT_TRUE(registry.Create("pinsketch-wp", options)->supports_rounds());
  EXPECT_FALSE(registry.Create("pinsketch", options)->supports_rounds());
}

// Every registered scheme must exactly recover the difference on the
// workload generator's shapes (subset divergence and two-sided divergence)
// when handed the exact d, and must report non-zero communication.
class SchemeConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(SchemeConformance, ExactRecoveryOnWorkloadShapes) {
  const std::string name = GetParam();
  const auto scheme =
      SchemeRegistry::Instance().Create(name, SchemeOptions{});
  ASSERT_NE(scheme, nullptr);

  const SetPair shapes[] = {
      GenerateSetPair(2000, 25, 32, 0xC0F1),
      GenerateTwoSidedPair(1500, 15, 12, 32, 0xC0F2),
  };
  int shape = 0;
  for (const SetPair& pair : shapes) {
    SCOPED_TRACE(name + " shape " + std::to_string(shape++));
    const double d_hat = static_cast<double>(pair.truth_diff.size());
    const ReconcileOutcome r =
        scheme->Reconcile(pair.a, pair.b, d_hat, 0x5EED);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(Sorted(r.difference), Sorted(pair.truth_diff));
    EXPECT_GT(r.data_bytes, 0u);
    EXPECT_GE(r.rounds, 1);
    EXPECT_GE(r.encode_seconds, 0.0);
    EXPECT_GE(r.decode_seconds, 0.0);
    EXPECT_FALSE(r.params_summary.empty());
  }
}

// Reconcile() holds d_hat to the wire session's bound and says so, instead
// of letting a responder reject the oversized first request silently.
TEST_P(SchemeConformance, OutOfRangeEstimateFailsWithReason) {
  const std::string name = GetParam();
  const auto scheme =
      SchemeRegistry::Instance().Create(name, SchemeOptions{});
  ASSERT_NE(scheme, nullptr);
  const SetPair pair = GenerateSetPair(500, 5, 32, 0xB16);
  for (const double d_hat :
       {2 * kMaxDifferenceEstimate, kMaxDifferenceEstimate + 1, -1.0,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(name + " d_hat " + std::to_string(d_hat));
    EXPECT_FALSE(ValidDifferenceEstimate(d_hat));
    const ReconcileOutcome r = scheme->Reconcile(pair.a, pair.b, d_hat, 3);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.data_bytes, 0u);
    EXPECT_TRUE(r.difference.empty());
    EXPECT_NE(r.params_summary.find("d_hat out of range"), std::string::npos)
        << r.params_summary;
    EXPECT_NE(r.params_summary.find("2^19"), std::string::npos)
        << r.params_summary;
  }
}

// Pumps the session to its end. False when either side rejects a message
// or the session does not settle; otherwise `*outcome` is the result.
bool PumpToEnd(ReconcileInitiator& initiator, ReconcileResponder& responder,
               ReconcileOutcome* outcome) {
  std::vector<uint8_t> request, reply;
  for (int exchange = 0; exchange < 64 && !initiator.done(); ++exchange) {
    initiator.NextRequestInto(&request);
    if (!responder.HandleRequest(request, &reply)) return false;
    if (!initiator.HandleReply(reply)) return false;
  }
  if (!initiator.done()) return false;
  *outcome = initiator.TakeOutcome();
  return true;
}

// Fail-closed on truncation: a strict prefix of a real round-1 reply (fed
// to the initiator) or request (fed to the responder) is either rejected
// or leads to an outcome that is not a success with a wrong difference.
// A = {} makes every unit's checksum 0, the value a reply read past its
// end produces.
TEST_P(SchemeConformance, TruncatedMessagesNeverYieldAWrongSuccess) {
  const std::string name = GetParam();
  const auto scheme =
      SchemeRegistry::Instance().Create(name, SchemeOptions{});
  ASSERT_NE(scheme, nullptr);
  const SetPair pair = GenerateTwoSidedPair(0, 0, 20, 32, 0x7A11);
  ASSERT_TRUE(pair.a.empty());
  const std::vector<uint64_t> truth = Sorted(pair.truth_diff);
  const double d_hat = 20.0;
  const uint64_t seed = 0x5EED;
  const auto expect_no_wrong_success = [&](ReconcileInitiator& initiator,
                                           ReconcileResponder& responder,
                                           const std::string& what) {
    ReconcileOutcome outcome;
    if (!PumpToEnd(initiator, responder, &outcome) || !outcome.success) {
      return;
    }
    EXPECT_EQ(Sorted(outcome.difference), truth) << name << ": " << what;
  };

  std::vector<uint8_t> request, reply;
  scheme->CreateInitiator(pair.a, d_hat, seed)->NextRequestInto(&request);
  ASSERT_TRUE(scheme->CreateResponder(pair.b, d_hat, seed)
                  ->HandleRequest(request, &reply));

  for (size_t len = 0; len < reply.size(); ++len) {
    const std::vector<uint8_t> prefix(reply.begin(), reply.begin() + len);
    auto initiator = scheme->CreateInitiator(pair.a, d_hat, seed);
    std::vector<uint8_t> unused;
    initiator->NextRequestInto(&unused);
    if (!initiator->HandleReply(prefix)) continue;
    auto responder = scheme->CreateResponder(pair.b, d_hat, seed);
    ASSERT_TRUE(responder->HandleRequest(request, &unused));
    expect_no_wrong_success(*initiator, *responder,
                            std::to_string(len) + "-byte reply prefix");
  }
  for (size_t len = 0; len < request.size(); ++len) {
    const std::vector<uint8_t> prefix(request.begin(), request.begin() + len);
    auto initiator = scheme->CreateInitiator(pair.a, d_hat, seed);
    auto responder = scheme->CreateResponder(pair.b, d_hat, seed);
    std::vector<uint8_t> unused, prefix_reply;
    initiator->NextRequestInto(&unused);
    if (!responder->HandleRequest(prefix, &prefix_reply)) continue;
    if (!initiator->HandleReply(prefix_reply)) continue;
    expect_no_wrong_success(*initiator, *responder,
                            std::to_string(len) + "-byte request prefix");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeConformance,
    ::testing::ValuesIn(SchemeRegistry::Instance().Names()),
    [](const auto& info) {
      std::string n = info.param;
      for (char& c : n) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

// Appendix J.3 accounting through the interface: wide-signature reporting
// must add (report_sig_bits - sig_bits)/8 bytes per signature-width field
// to PBS.
TEST(SchemeAdapterParity, WideSignatureAccounting) {
  const SetPair pair = GenerateSetPair(2000, 30, 32, 0xF00D);
  const double d_hat = static_cast<double>(pair.truth_diff.size());
  const uint64_t seed = 0xBEEF;

  SchemeOptions narrow;
  SchemeOptions wide = narrow;
  wide.report_sig_bits = 256;
  auto& registry = SchemeRegistry::Instance();

  const auto narrow_out =
      registry.Create("pbs", narrow)->Reconcile(pair.a, pair.b, d_hat, seed);
  const auto wide_out =
      registry.Create("pbs", wide)->Reconcile(pair.a, pair.b, d_hat, seed);
  ASSERT_TRUE(narrow_out.success);
  ASSERT_TRUE(wide_out.success);
  // Same protocol run, strictly more accounted bytes.
  EXPECT_EQ(Sorted(wide_out.difference), Sorted(narrow_out.difference));
  EXPECT_GT(wide_out.data_bytes, narrow_out.data_bytes);
  const size_t extra = wide_out.data_bytes - narrow_out.data_bytes;
  // At least the difference's XOR sums must have been widened.
  EXPECT_GE(extra, (256 - 32) / 8 * narrow_out.difference.size());
}

}  // namespace
}  // namespace pbs
