// PBS configuration and parameter planning.
//
// A PbsConfig captures the knobs the paper exposes: delta (average distinct
// elements per group, fixed at 5 in the paper, swept in Appendix J.2), the
// round target r and success target p0 (Section 3.3), the signature width
// log|U|, and estimator settings (Section 6). PlanFor() turns a
// (conservatively inflated) difference estimate into concrete (g, n, t)
// via the Section 5.1 optimizer.

#ifndef PBS_CORE_PARAMS_H_
#define PBS_CORE_PARAMS_H_

#include <cstdint>

#include "pbs/estimator/tow.h"
#include "pbs/markov/optimizer.h"

namespace pbs {

/// Tunable parameters of a PBS deployment.
struct PbsConfig {
  /// Average number of distinct elements per group (paper: 5).
  int delta = 5;
  /// Target number of rounds r in the guarantee Pr[R <= r] >= p0.
  int target_rounds = 3;
  /// Target overall success probability p0.
  double p0 = 0.99;
  /// Signature width log|U| in bits (paper: 32).
  int sig_bits = 32;
  /// Hard cap on protocol rounds before reporting failure. Experiments use
  /// target_rounds; Appendix J.1 lets the protocol run to completion.
  int max_rounds = 3;
  /// Number of ToW sketches for estimating d (Section 6).
  int ell = kTowDefaultSketches;
  /// Conservative inflation factor on the ToW estimate.
  double gamma = kTowGamma;
  /// Defensive cap on recursive three-way splits.
  int max_split_depth = 16;
  /// Ablation switch (the ablation_procedure3 experiment): disables the
  /// Procedure-3 sub-universe check that discards fake distinct elements
  /// produced by type (II) exceptions. Production code leaves this on; turning it off
  /// quantifies the no-cost protection the paper describes in Section 2.3.
  bool subuniverse_check = true;
  /// Section 2.2.3's belt-and-braces option for mission-critical uses:
  /// after the checksum loop settles, Bob additionally ships a 192-bit
  /// one-way multiset hash of B (common/mset_hash.h) and Alice verifies
  /// H(A /\triangle D-hat) == H(B), driving the false-verification
  /// probability from O(10^-12) to practically zero for constant extra
  /// communication and O(|A| + d) extra hashing.
  bool strong_verification = false;
  /// Search ranges / calibration for the (n, t) optimizer.
  OptimizerOptions optimizer;
};

/// A fully resolved parameterization for one reconciliation session.
struct PbsPlan {
  int d_used = 0;  ///< The inflated difference bound the plan is sized for.
  PbsPlanParams params;  ///< g groups, n bins, m = log2(n+1), capacity t.
};

/// Runs the Section 5.1 optimization for `d_used` expected distinct
/// elements. Falls back to the widest-n / largest-t cell if no cell in the
/// configured range meets p0 (never fails outright: the protocol's checksum
/// loop still guarantees eventual correctness, just without the p0 bound).
PbsPlan PlanFor(const PbsConfig& config, int d_used);

/// Applies the gamma inflation of Section 6.2 to a raw ToW estimate.
int InflateEstimate(double d_hat, double gamma);

}  // namespace pbs

#endif  // PBS_CORE_PARAMS_H_
