// Section 5.3 / Appendix G: expected fraction of the d distinct elements
// reconciled in each round ("piecewise reconciliability"), both from the
// Markov model and measured empirically.
//
// Paper reference (d=1000, n=127, t=13, delta=5, p0=0.99):
// 0.962 / 0.0380 / 3.61e-4 / 2.86e-6 for rounds 1-4.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "pbs/core/pbs_endpoints.h"
#include "pbs/markov/piecewise.h"
#include "pbs/sim/metrics.h"
#include "pbs/sim/workload.h"

using namespace pbs;

int main() {
  std::printf("== Section 5.3: piecewise reconciliability ==\n\n");

  std::printf("Analytical (d=1000, n=127, t=13, g=200):\n");
  const auto fractions = ExpectedRoundFractions(127, 13, 1000, 200, 4);
  bench::Recorder analytic("sec53_piecewise_analytic",
                           {"round", "expected_fraction", "paper"});
  const char* paper[] = {"0.962", "0.0380", "3.61e-04", "2.86e-06"};
  for (int k = 0; k < 4; ++k) {
    analytic.AddRow({std::to_string(k + 1),
                     FormatScientific(fractions[k], 3), paper[k]});
  }
  analytic.Print();

  // Empirical: drive the endpoints round by round and count how many truth
  // elements have been recovered after each round.
  const int instances = bench::FullMode() ? 200 : 30;
  const size_t set_size = bench::FullMode() ? 1000000 : 100000;
  std::printf("\nEmpirical (|A|=%zu, %d instances, d=1000, d known):\n",
              set_size, instances);
  std::vector<double> recovered_by_round(5, 0.0);
  for (int i = 0; i < instances; ++i) {
    SetPair pair = GenerateSetPair(set_size, 1000, 32, 0x5EC53 + i);
    PbsConfig config;
    config.max_rounds = 4;
    PbsAlice alice(pair.a, config, 100 + i);
    PbsBob bob(pair.b, config, 100 + i);
    alice.SetDifferenceEstimate(1000);
    bob.SetDifferenceEstimate(1000);
    std::unordered_set<uint64_t> truth(pair.truth_diff.begin(),
                                       pair.truth_diff.end());
    std::vector<uint8_t> request, reply;
    bool finished = false;
    for (int round = 1; round <= 4 && !finished; ++round) {
      alice.MakeRoundRequest(&request);
      bob.HandleRoundRequest(request, &reply);
      finished = alice.HandleRoundReply(reply);
      size_t correct = 0;
      for (uint64_t e : alice.Difference()) {
        if (truth.count(e)) ++correct;
      }
      recovered_by_round[round] += static_cast<double>(correct) / 1000.0;
      if (finished) {
        for (int rest = round + 1; rest <= 4; ++rest) {
          recovered_by_round[rest] += static_cast<double>(correct) / 1000.0;
        }
      }
    }
  }
  bench::Recorder empirical("sec53_piecewise_empirical",
                            {"round", "measured_fraction_in_round"});
  double prev = 0.0;
  for (int round = 1; round <= 4; ++round) {
    const double cum = recovered_by_round[round] / instances;
    empirical.AddRow({std::to_string(round), FormatScientific(cum - prev, 3)});
    prev = cum;
  }
  empirical.Print();
  std::printf(
      "\nNote: the plan used here is the optimizer's (n=127, t=13); the "
      "empirical round-1 fraction should sit near the analytical 0.96.\n");
  return 0;
}
