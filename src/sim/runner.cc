#include "pbs/sim/runner.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "pbs/common/parallel.h"
#include "pbs/estimator/tow.h"

namespace pbs {

namespace {

bool DifferenceMatches(std::vector<uint64_t> got,
                       std::vector<uint64_t> truth) {
  std::sort(got.begin(), got.end());
  std::sort(truth.begin(), truth.end());
  return got == truth;
}

std::unique_ptr<SetReconciler> CreateOrThrow(const std::string& scheme,
                                             const ExperimentConfig& config) {
  auto reconciler =
      SchemeRegistry::Instance().Create(scheme, SchemeOptionsFrom(config));
  if (!reconciler) {
    std::string known;
    for (const std::string& name : SchemeRegistry::Instance().Names()) {
      known += known.empty() ? name : ", " + name;
    }
    throw std::invalid_argument("unknown scheme '" + scheme +
                                "' (registered: " + known + ")");
  }
  return reconciler;
}

}  // namespace

SchemeOptions SchemeOptionsFrom(const ExperimentConfig& config) {
  SchemeOptions options;
  options.sig_bits = config.sig_bits;
  options.report_sig_bits = config.report_sig_bits;
  options.pbs = config.pbs;
  return options;
}

InstanceOutcome RunInstance(const SetReconciler& reconciler,
                            const ExperimentConfig& config,
                            const SetPair& pair, uint64_t seed) {
  // Estimation phase, shared across schemes (Section 6.2). The shortcut is
  // statistically identical to the full exchange; see runner.h.
  double d_hat = static_cast<double>(pair.truth_diff.size());
  if (config.use_estimator && reconciler.needs_estimate()) {
    d_hat = TowEstimateFromDifference(pair.truth_diff, config.pbs.ell,
                                      seed ^ 0xE571A70Eull);
  }

  const ReconcileOutcome r = reconciler.Reconcile(pair.a, pair.b, d_hat, seed);

  InstanceOutcome outcome;
  outcome.correct =
      r.success && DifferenceMatches(r.difference, pair.truth_diff);
  outcome.bytes = r.data_bytes;
  outcome.encode_seconds = r.encode_seconds;
  outcome.decode_seconds = r.decode_seconds;
  outcome.rounds = r.rounds;
  return outcome;
}

RunStats RunSchemeWithCallback(
    const std::string& scheme, const ExperimentConfig& config,
    const std::function<void(const InstanceOutcome&)>& callback) {
  const std::unique_ptr<SetReconciler> reconciler =
      CreateOrThrow(scheme, config);

  RunStats stats;
  stats.instances = config.instances;

  auto run_one = [&](int i) {
    const uint64_t instance_seed =
        config.seed * 0x9E3779B97F4A7C15ull + 0xABCDEFull * (i + 1);
    const SetPair pair = GenerateSetPair(config.set_size, config.d,
                                         config.sig_bits, instance_seed);
    return RunInstance(*reconciler, config, pair, instance_seed ^ 0x5CE1E);
  };
  auto accumulate = [&stats](const InstanceOutcome& outcome) {
    stats.success_rate += outcome.correct ? 1.0 : 0.0;
    stats.mean_bytes += static_cast<double>(outcome.bytes);
    stats.mean_encode_seconds += outcome.encode_seconds;
    stats.mean_decode_seconds += outcome.decode_seconds;
    stats.mean_rounds += outcome.rounds;
  };

  // Outcomes are stored per index and folded in order, so the results are
  // identical for every thread count.
  std::vector<InstanceOutcome> outcomes(std::max(config.instances, 0));
  ParallelFor pool(std::min(ParallelFor::ResolveThreads(config.threads),
                            std::max(1, config.instances)));
  pool.Run(outcomes.size(), [&](size_t i, int) {
    outcomes[i] = run_one(static_cast<int>(i));
  });
  for (const InstanceOutcome& outcome : outcomes) {
    accumulate(outcome);
    if (callback) callback(outcome);
  }
  const double n = std::max(config.instances, 1);
  stats.success_rate /= n;
  stats.mean_bytes /= n;
  stats.mean_encode_seconds /= n;
  stats.mean_decode_seconds /= n;
  stats.mean_rounds /= n;
  const int effective_sig =
      config.report_sig_bits > 0 ? config.report_sig_bits : config.sig_bits;
  const double minimum =
      static_cast<double>(config.d) * effective_sig / 8.0;
  stats.overhead_ratio = minimum > 0 ? stats.mean_bytes / minimum : 0.0;
  return stats;
}

RunStats RunScheme(const std::string& scheme,
                   const ExperimentConfig& config) {
  return RunSchemeWithCallback(scheme, config, nullptr);
}

}  // namespace pbs
