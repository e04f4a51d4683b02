// Helpers shared by the test suites.

#ifndef PBS_TESTS_TEST_UTIL_H_
#define PBS_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <vector>

#include "pbs/core/pbs_endpoints.h"
#include "pbs/core/set_reconciler.h"
#include "pbs/sim/workload.h"

namespace pbs {

/// Runs registry scheme `scheme` on `pair` with `config` and gamma = 1, so
/// a scheme that inflates its estimate is sized for exactly `d_hat` (PBS:
/// d_used = d_hat; PinSketch: t = d_hat). A nonzero `report_sig_bits`
/// turns on the Appendix J.3 wide-signature accounting.
inline ReconcileOutcome ReconcileSized(const char* scheme, const SetPair& pair,
                                       PbsConfig config, uint64_t seed,
                                       int d_hat, int report_sig_bits = 0) {
  SchemeOptions options;
  config.gamma = 1.0;
  options.sig_bits = config.sig_bits;
  options.report_sig_bits = report_sig_bits;
  options.pbs = config;
  return SchemeRegistry::Instance().Create(scheme, options)->Reconcile(
      pair.a, pair.b, d_hat, seed);
}

/// One PBS round through the endpoints: Alice's request, Bob's reply,
/// Alice's verdict (true once every unit settled).
inline bool PbsRound(PbsAlice* alice, PbsBob* bob) {
  std::vector<uint8_t> request, reply;
  alice->MakeRoundRequest(&request);
  return bob->HandleRoundRequest(request, &reply) &&
         alice->HandleRoundReply(reply) && alice->finished();
}

}  // namespace pbs

#endif  // PBS_TESTS_TEST_UTIL_H_
