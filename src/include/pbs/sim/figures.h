// The paper's evaluation as one experiment table.
//
// Every figure, table and study this repo reproduces (Figures 1-5, Tables
// 1-2, Sections 5.2, 5.3, 6 and 7, and the Section 2.3 Procedure-3
// ablation) is one Figure entry: an id, a run function over a Scale that
// returns the result tables, and the paper's shape claims as predicates
// over those tables, each next to the sentence it comes from.
//
// bench/bench_paper_figures.cc prints the tables and the claim verdicts;
// tests/sim/paper_figures_test.cc runs every entry at a reduced scale, pins
// its seed-determined totals and asserts its claims.

#ifndef PBS_SIM_FIGURES_H_
#define PBS_SIM_FIGURES_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "pbs/sim/metrics.h"

namespace pbs {

/// Mode-dependent experiment sizes.
struct Scale {
  bool full = false;                ///< The paper's scale.
  size_t set_size = 0;              ///< |A| of the scheme sweeps.
  int instances = 0;                ///< Set pairs per sweep point.
  std::vector<size_t> d_grid;       ///< Sweep d values; also the ToW study.
  std::vector<size_t> slow_d_grid;  ///< For O(d^2) schemes (PinSketch).
  size_t delta_sweep_d = 0;         ///< Figure 4's fixed d.
  std::vector<int> delta_grid;      ///< Figure 4's delta values.
  int piecewise_instances = 0;      ///< Section 5.3 empirical runs.
  size_t related_set_size = 0;      ///< Section 7 study |A|.
  int related_instances = 0;        ///< Section 7 study pairs per d.
  int ablation_instances = 0;       ///< Procedure-3 ablation pairs.
  int tow_trials = 0;               ///< Section 6 estimates per d.
};

/// The quick scale (minutes), or the paper's (hours) when PBS_BENCH_FULL=1.
Scale DefaultScale();

/// Instance count for schemes with O(d^2) (or worse) per-instance cost;
/// reduced scales trade success-rate resolution for wall-clock time there.
int SlowSchemeInstances(const Scale& scale);

/// Prints the "== what ==" banner with the scale's mode and sizes.
void PrintHeader(const char* what, const Scale& scale);

/// A shape claim of the paper, checked against a figure's tables.
struct Claim {
  std::string paper;  ///< The paper's sentence (or figure values) it checks.
  std::string check;  ///< What the predicate tests, with its tolerance.
  std::function<bool(const std::vector<Table>&, const Scale&)> holds;
  /// Wall-clock claims are printed, never asserted: timings depend on the
  /// machine, not the seed.
  bool wall_clock = false;
  /// A deviation from the paper recorded in docs/BENCHMARKS.md. The claim
  /// still prints FAILED while it reproduces, but does not fail the run.
  std::string finding = {};
};

/// One experiment: the tables it produces at a scale and its claims.
struct Figure {
  std::string id;     ///< Names it on bench_paper_figures' command line.
  std::string title;  ///< Printed banner.
  std::function<std::vector<Table>(const Scale&)> run;
  std::vector<Claim> claims;
};

/// Every experiment, in the paper's order.
const std::vector<Figure>& PaperFigures();

/// The entry with this id, or nullptr.
const Figure* FindFigure(const std::string& id);

}  // namespace pbs

#endif  // PBS_SIM_FIGURES_H_
