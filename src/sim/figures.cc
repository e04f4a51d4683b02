#include "pbs/sim/figures.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <unordered_set>

#include "pbs/baselines/approx_filter.h"
#include "pbs/baselines/recursive_cpi.h"
#include "pbs/common/rng.h"
#include "pbs/core/params.h"
#include "pbs/core/pbs_endpoints.h"
#include "pbs/estimator/minwise.h"
#include "pbs/estimator/strata.h"
#include "pbs/estimator/tow.h"
#include "pbs/markov/optimizer.h"
#include "pbs/markov/piecewise.h"
#include "pbs/markov/success_probability.h"
#include "pbs/sim/metrics.h"
#include "pbs/sim/runner.h"
#include "pbs/sim/workload.h"

namespace pbs {

Scale DefaultScale() {
  const std::vector<int> deltas = {3, 6, 9, 12, 15, 18, 21, 24, 27, 30};
  const char* env = std::getenv("PBS_BENCH_FULL");
  if (env != nullptr && env[0] == '1') {
    return {true,  1000000, 1000, {10, 100, 1000, 10000, 100000},
            {10, 100, 1000, 10000, 30000},
            10000, deltas,  200,  1000000, 100, 400, 5000};
  }
  return {false, 100000, 10, {10, 100, 1000, 10000}, {10, 100, 1000},
          3000,  deltas, 30, 50000, 10, 60, 800};
}

int SlowSchemeInstances(const Scale& scale) {
  return scale.full ? scale.instances : std::max(4, scale.instances / 4);
}

void PrintHeader(const char* what, const Scale& scale) {
  std::printf("== %s ==\n", what);
  std::printf("mode=%s |A|=%zu instances=%d\n", scale.full ? "FULL" : "quick",
              scale.set_size, scale.instances);
  std::printf(
      "(set PBS_BENCH_FULL=1 for the paper's scale: |A|=1e6, 1000 "
      "instances)\n\n");
}

namespace {

using Tables = std::vector<Table>;

Cell Text(std::string text) { return {std::move(text)}; }
Cell Fixed(double v, int precision) { return {FormatDouble(v, precision), v}; }
Cell Sci(double v, int precision) {
  return {FormatScientific(v, precision), v};
}
Cell Integer(double v) { return {FormatDouble(v, 0), v}; }

// A stochastic claim fails only if its run is less likely than kAlpha under
// the paper's value.
constexpr double kAlpha = 1e-3;
constexpr double kZ = 3.29;  // Two-sided normal quantile for kAlpha.

// P[X <= k] for X ~ Binomial(n, p).
double BinomialCdf(int k, int n, double p) {
  if (k < 0) return 0.0;
  if (k >= n || p <= 0.0) return 1.0;
  double sum = 0.0;
  for (int i = 0; i <= k; ++i) {
    sum += std::exp(std::lgamma(n + 1.0) - std::lgamma(i + 1.0) -
                    std::lgamma(n - i + 1.0) + i * std::log(p) +
                    (n - i) * std::log1p(-p));
  }
  return std::min(sum, 1.0);
}

int Count(double share, int n) {
  return static_cast<int>(std::llround(share * n));
}

// Every share (of n trials) is plausible for a success rate >= p.
bool Rates(const std::vector<double>& shares, int n, double p) {
  return !shares.empty() &&
         std::all_of(shares.begin(), shares.end(), [&](double share) {
           return BinomialCdf(Count(share, n), n, p) >= kAlpha;
         });
}

// The share of n trials is plausible for a rate of exactly p.
bool PlausibleShare(double share, int n, double p) {
  const int count = Count(share, n);
  return BinomialCdf(count, n, p) >= kAlpha / 2 &&
         1.0 - BinomialCdf(count - 1, n, p) >= kAlpha / 2;
}

// PinSketch and D.Digest size their sketches from gamma * d-hat, so their
// xMin is proportional to the ToW estimate, whose relative sd is at most
// sqrt(2 / ell) (Appendix A). A mean over n instances then matches the
// paper's value to within kZ sqrt(2 / ell / n).
bool NearPaper(const std::vector<double>& xmin, double paper, int n) {
  const double tol = kZ * std::sqrt(2.0 / kTowDefaultSketches / n);
  return !xmin.empty() && std::all_of(xmin.begin(), xmin.end(), [&](double x) {
    return std::fabs(x / paper - 1.0) <= tol;
  });
}

// `column` of `t` on the rows whose "scheme" reads `label` (every row when
// label is empty), in row order.
std::vector<double> Series(const Table& t, const std::string& column,
                           const std::string& label = "") {
  std::vector<double> out;
  for (size_t i = 0; i < t.rows.size(); ++i) {
    if (label.empty() || t.At(i, "scheme").text == label) {
      out.push_back(t.Value(i, column));
    }
  }
  return out;
}

bool InRange(const std::vector<double>& v, double lo, double hi) {
  return !v.empty() && std::all_of(v.begin(), v.end(), [&](double x) {
    return x >= lo && x <= hi;
  });
}

bool Falls(const std::vector<double>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] >= v[i - 1]) return false;
  }
  return v.size() >= 2;
}

// a above b at every point of their shared d grid.
bool Above(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.empty() || a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] > b[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------- sweeps --
//
// Figures 1, 2, 3, 5, Table 2 and the Procedure-3 ablation are one
// RunScheme per (variant, d) point and one row per point. They differ only
// in schemes, grid, seed base, target p0 and a few ExperimentConfig fields.

struct Point {
  size_t d;
  std::string label;
  RunStats stats;
  std::map<int, int> pmf;  // Instances by rounds taken.
};
using Column = std::pair<const char*, Cell (*)(const Point&)>;

Cell D(const Point& p) { return Integer(static_cast<double>(p.d)); }
Cell Label(const Point& p) { return Text(p.label); }
Cell Success3(const Point& p) { return Fixed(p.stats.success_rate, 3); }
Cell Success4(const Point& p) { return Fixed(p.stats.success_rate, 4); }
Cell KB(const Point& p) { return Fixed(p.stats.mean_bytes / 1024.0, 3); }
Cell XMin(const Point& p) { return Fixed(p.stats.overhead_ratio, 2); }
Cell Encode(const Point& p) { return Fixed(p.stats.mean_encode_seconds, 4); }
Cell Decode(const Point& p) { return Fixed(p.stats.mean_decode_seconds, 5); }
Cell Rounds(const Point& p) { return Fixed(p.stats.mean_rounds, 2); }
// Share of instances that took r rounds (r or more when `tail`).
template <int r, bool tail = false>
Cell Share(const Point& p) {
  int count = 0;
  for (const auto& [rounds, k] : p.pmf) {
    if (rounds == r || (tail && rounds > r)) count += k;
  }
  return Fixed(count / static_cast<double>(p.stats.instances), 3);
}

const std::vector<Column> kTimedColumns = {
    {"d", D},         {"scheme", Label},     {"success", Success3},
    {"KB", KB},       {"xMin", XMin},        {"encode_s", Encode},
    {"decode_s", Decode}, {"rounds", Rounds}};

struct Variant {
  const char* scheme;
  const char* label = nullptr;  // Row label; default the display name.
  bool slow = false;  // O(d^2) decode: slow_d_grid, SlowSchemeInstances.
  bool subuniverse_check = true;  // PbsConfig::subuniverse_check.
};

struct Sweep {
  const char* bench;  // Also the figure id.
  std::vector<Variant> variants;
  std::vector<Column> columns;
  uint64_t seed_base;  // A point's seed is seed_base + d.
  // Target success rate: sets PbsConfig::p0 and adds the success claim.
  double p0 = 0.0;
  // Further knobs, applied last (may override any field).
  void (*configure)(ExperimentConfig&, const Scale&) = nullptr;
  size_t fixed_d = 0;  // One point at this d instead of the scale's grid.

  std::vector<size_t> Grid(const Variant& v, const Scale& s) const {
    if (fixed_d > 0) return {fixed_d};
    return v.slow ? s.slow_d_grid : s.d_grid;
  }
};

int Instances(const Variant& v, const Scale& s) {
  return v.slow ? SlowSchemeInstances(s) : s.instances;
}

Table RunSweep(const Sweep& sweep, const Scale& scale) {
  Table table{sweep.bench, "", {}, {}};
  for (const Column& c : sweep.columns) table.columns.push_back(c.first);
  for (const Variant& v : sweep.variants) {
    for (size_t d : sweep.Grid(v, scale)) {
      ExperimentConfig config;
      config.set_size = scale.set_size;
      config.d = d;
      config.instances = Instances(v, scale);
      config.threads = 0;
      config.seed = sweep.seed_base + d;
      if (sweep.p0 > 0) config.pbs.p0 = sweep.p0;
      config.pbs.subuniverse_check = v.subuniverse_check;
      if (sweep.configure != nullptr) sweep.configure(config, scale);
      Point p{d, v.label ? v.label : SchemeRegistry::Instance().DisplayName(
                                         v.scheme),
              {}, {}};
      p.stats = RunSchemeWithCallback(
          v.scheme, config,
          [&p](const InstanceOutcome& outcome) { ++p.pmf[outcome.rounds]; });
      std::vector<Cell> row;
      for (const Column& c : sweep.columns) row.push_back(c.second(p));
      table.rows.push_back(std::move(row));
    }
  }
  return table;
}

Figure SweepFigure(const char* title, Sweep sweep, std::vector<Claim> claims) {
  if (sweep.p0 > 0) {
    claims.push_back(
        {"every scheme is tuned to the target success rate p0",
         "success plausible for a rate >= " + FormatDouble(sweep.p0, 4) +
             " at every row",
         [sweep](const Tables& t, const Scale& s) {
           return std::all_of(
               sweep.variants.begin(), sweep.variants.end(),
               [&](const Variant& v) {
                 const std::string label =
                     SchemeRegistry::Instance().DisplayName(v.scheme);
                 return Rates(Series(t[0], "success", label), Instances(v, s),
                              sweep.p0);
               });
         }});
  }
  return {sweep.bench, title,
          [sweep](const Scale& s) { return Tables{RunSweep(sweep, s)}; },
          std::move(claims)};
}

// ------------------------------------------------------- Figures 1-3, 5 --

Figure Fig1() {
  return SweepFigure(
      "Figure 1: PBS vs PinSketch vs D.Digest (p0 = 0.99)",
      {"fig1_pinsketch_ddigest",
       {{"pbs"}, {"pinsketch", nullptr, true}, {"ddigest"}},
       kTimedColumns, 0xF161, 0.99},
      {{"PBS's communication overhead is 2.13-2.87x the minimum",
        "PBS xMin in [2.1, 2.9] at every d",
        [](auto& t, auto&) {
          return InRange(Series(t[0], "xMin", "PBS"), 2.1, 2.9);
        }},
       {"D.Digest's communication overhead is ~6x the minimum",
        "D.Digest xMin within ToW noise of 6 at every d",
        [](auto& t, auto& s) {
          return NearPaper(Series(t[0], "xMin", "D.Digest"), 6, s.instances);
        }},
       {"PinSketch's communication overhead is 1.38x the minimum",
        "PinSketch xMin within ToW noise of 1.38 at every d",
        [](auto& t, auto& s) {
          return NearPaper(Series(t[0], "xMin", "PinSketch"), 1.38,
                           SlowSchemeInstances(s));
        }},
       {"PinSketch decoding blows up as O(d^2)",
        "PinSketch decode_s grows faster than d",
        [](auto& t, auto&) {
          const auto d = Series(t[0], "d", "PinSketch");
          const auto sec = Series(t[0], "decode_s", "PinSketch");
          return d.size() >= 2 && sec.back() / sec.front() > d.back() / d[0];
        },
        true}});
}

Figure Fig2() {
  return SweepFigure(
      "Figure 2: PBS vs Graphene (p0 = 239/240, B in A)",
      {"fig2_graphene",
       {{"pbs"}, {"graphene"}},
       {{"d", D}, {"scheme", Label}, {"success", Success4}, {"KB", KB},
        {"xMin", XMin}, {"encode_s", Encode}, {"decode_s", Decode}},
       0xF162, 239.0 / 240.0},
      {{"PBS communicates 1.2-7.4x less than Graphene until d approaches "
        "|A| (breakeven between d = 10^4 and 1.6*10^4 at |A| = 10^6)",
        "Graphene KB / PBS KB in [1.2, 7.4] at every d <= |A|/100, below 1 "
        "at d = |A|/10",
        [](auto& t, auto& s) {
          const auto d = Series(t[0], "d", "PBS");
          const auto pbs = Series(t[0], "KB", "PBS");
          const auto graphene = Series(t[0], "KB", "Graphene");
          bool past_breakeven = false;
          for (size_t i = 0; i < d.size() && i < graphene.size(); ++i) {
            const double ratio = graphene[i] / pbs[i];
            if (d[i] * 100 <= s.set_size && (ratio < 1.2 || ratio > 7.4)) {
              return false;
            }
            if (d[i] * 10 == s.set_size) past_breakeven = ratio < 1;
          }
          return past_breakeven;
        }},
       {"Graphene's per-element cost drops as d grows",
        "Graphene xMin falls at every d step",
        [](auto& t, auto&) {
          return Falls(Series(t[0], "xMin", "Graphene"));
        }}});
}

Figure Fig3() {
  return SweepFigure(
      "Figure 3: PBS vs PinSketch/WP (p0 = 0.99)",
      {"fig3_pinsketch_wp", {{"pbs"}, {"pinsketch-wp"}}, kTimedColumns,
       0xF163, 0.99},
      {{"PinSketch/WP's per-group safety margin costs (t - delta) log|U| "
        "instead of PBS's (t - delta) log n, so PBS wins on communication",
        "PinSketch/WP KB > PBS KB at every d",
        [](auto& t, auto&) {
          return Above(Series(t[0], "KB", "PinSketch/WP"),
                       Series(t[0], "KB", "PBS"));
        }}});
}

Figure Fig5() {
  return SweepFigure(
      "Figure 5: PBS vs PinSketch/WP at log|U| = 256 (simulated)",
      {"fig5_signature256",
       {{"pbs"}, {"pinsketch-wp"}},
       {{"d", D}, {"scheme", Label}, {"KB@256", KB}, {"xMin", XMin},
        {"success", Success3}},
       0xF165, 0.99,
       [](ExperimentConfig& c, const Scale&) { c.report_sig_bits = 256; }},
      {{"PBS's advantage widens: its BCH codewords stay at t log n bits "
        "while PinSketch/WP's grow to t log|U| = 256 t",
        "PinSketch/WP KB@256 > PBS KB@256, and PBS xMin below its 32-bit "
        "floor of 2.13 (Figure 1), at every d",
        [](auto& t, auto&) {
          return Above(Series(t[0], "KB@256", "PinSketch/WP"),
                       Series(t[0], "KB@256", "PBS")) &&
                 InRange(Series(t[0], "xMin", "PBS"), 0, 2.13);
        }}});
}

// ------------------------------------------------------------- Figure 4 --

Tables RunDeltaSweep(const Scale& scale) {
  const size_t d = scale.delta_sweep_d;
  Table table{"fig4_delta_sweep", "d = " + std::to_string(d) + "\n",
              {"delta", "success", "KB", "xMin", "encode_s", "decode_s", "n",
               "t"},
              {}};
  for (int delta : scale.delta_grid) {
    ExperimentConfig config;
    config.set_size = scale.set_size;
    config.d = d;
    config.instances = scale.instances;
    config.threads = 0;
    config.seed = 0xF164 + delta;
    config.pbs.delta = delta;
    config.pbs.optimizer.max_m = 13;  // Wide bitmaps pay off at large delta.
    const RunStats stats = RunScheme("pbs", config);
    // Sized for the d_used the sessions plan with.
    const PbsPlan plan = PlanFor(
        config.pbs, InflateEstimate(static_cast<double>(d), config.pbs.gamma));
    table.rows.push_back(
        {Integer(delta), Fixed(stats.success_rate, 3),
         Fixed(stats.mean_bytes / 1024.0, 3), Fixed(stats.overhead_ratio, 2),
         Fixed(stats.mean_encode_seconds, 4),
         Fixed(stats.mean_decode_seconds, 5), Integer(plan.params.n),
         Integer(plan.params.t)});
  }
  return {table};
}

Figure Fig4() {
  return {
      "fig4_delta_sweep",
      "Figure 4: PBS delta sweep (p0 = 0.99)",
      RunDeltaSweep,
      {{"communication overhead generally decreases with delta",
        "KB falls at every delta step",
        [](auto& t, auto&) { return Falls(Series(t[0], "KB")); }, false,
        "KB stops falling past delta ~ 15: 25.27 KB at delta = 18 vs 26.08 "
        "KB at delta = 30"},
       {"the target success rate is p0 = 0.99",
        "success plausible for a rate >= 0.99 at every delta",
        [](auto& t, auto& s) {
          return Rates(Series(t[0], "success"), s.instances, 0.99);
        }},
       {"encoding and decoding times increase with delta",
        "encode_s and decode_s higher at the largest delta than the smallest",
        [](auto& t, auto&) {
          const auto enc = Series(t[0], "encode_s");
          const auto dec = Series(t[0], "decode_s");
          return enc.size() >= 2 && enc.back() > enc[0] && dec.back() > dec[0];
        },
        true}}};
}

// -------------------------------------------------------------- Table 1 --

const int kTable1N[] = {63, 127, 255, 511, 1023, 2047};

// One model's bound 1 - 2(1 - alpha^g) over the (n, t) grid at d = 1000,
// delta = 5 (g = 200), r = 3. One JSON bench name per model, so identical
// cells across models do not dedupe away in BENCH_pbs.json.
Table ParamGrid(const char* caption, const char* model,
                double (*bound)(int n, int t, int r, int d, int g)) {
  Table table{std::string("table1_param_grid_") + model, caption, {"t"}, {}};
  for (int n : kTable1N) table.columns.push_back("n=" + std::to_string(n));
  for (int t = 8; t <= 17; ++t) {
    std::vector<Cell> row = {Integer(t)};
    for (int n : kTable1N) {
      const double v = bound(n, t, 3, 1000, 200);
      row.push_back(v <= 0 ? Cell{"0", 0.0}
                           : Cell{FormatDouble(100 * v, 2) + "%", v});
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

double Calibrated(int n, int t, int r, int d, int g) {
  return SuccessLowerBoundCalibrated(n, t, r, d, g);
}

Figure Table1() {
  return {
      "table1_param_grid",
      "Table 1: success-probability lower bound grid",
      [](const Scale&) {
        return Tables{
            ParamGrid("d=1000, delta=5 (g=200), r=3\n\nCalibrated model "
                      "(reproduces the paper's Table 1):",
                      "calibrated", Calibrated),
            ParamGrid("\nRaw split-aware model:", "splits",
                      SuccessLowerBoundWithSplits),
            ParamGrid("\nAppendix-D truncated model (Pr[x->0]=0 for x>t):",
                      "truncated", SuccessLowerBound)};
      },
      {{"Table 1 row t = 13: 93.9% 99.1% 99.8% >99.9% (n = 63 ... 511)",
        "calibrated t = 13 row equals the paper's to the printed digit",
        [](auto& t, auto&) {
          const Table& g = t[0];  // Row 5 is t = 13.
          return std::fabs(g.Value(5, "n=63") - 0.939) <= 5e-4 &&
                 std::fabs(g.Value(5, "n=127") - 0.991) <= 5e-4 &&
                 std::fabs(g.Value(5, "n=255") - 0.998) <= 5e-4 &&
                 g.Value(5, "n=511") > 0.999;
        },
        false,
        "calibrated t = 13 row is 93.57% / 99.02% / 99.82% / 99.96%: n = 63 "
        "and n = 127 miss the paper's 93.9% / 99.1%"},
       {"the optimization procedure picks (n = 127, t = 13)",
        "t = 13 is the smallest t at which the calibrated n = 127 bound "
        "reaches p0 = 0.99",
        [](auto& t, auto&) {
          return t[0].Value(5, "n=127") >= 0.99 &&
                 t[0].Value(4, "n=127") < 0.99;
        }}}};
}

// -------------------------------------------------------------- Table 2 --

// Table 2's shares at r = 1, 2, 3 (|A| = 10^6, 1000 instances).
const std::map<double, std::vector<double>> kTable2Paper = {
    {10, {0.804, 0.188, 0.008}}, {100, {0.217, 0.760, 0.023}},
    {1000, {0, 0.957, 0.043}},   {10000, {0, 0.907, 0.093}},
    {100000, {0, 0.818, 0.182}}};

Figure Table2() {
  return SweepFigure(
      "Table 2: rounds-to-completion PMF (unbounded rounds)",
      {"table2_rounds_pmf",
       {{"pbs"}},
       {{"d", D}, {"r=1", Share<1>}, {"r=2", Share<2>}, {"r=3", Share<3>},
        {"r>=4", Share<4, true>}, {"mean_rounds", Rounds},
        {"success", Success3}},
       0x7AB2E, 0.0,
       [](ExperimentConfig& c, const Scale&) {
         c.pbs.max_rounds = 64;  // Run to completion.
       }},
      {{"Table 2 (r = 1/2/3): d=10: 0.804/0.188/0.008, d=100: "
        "0.217/0.760/0.023, d=1000: 0/0.957/0.043, d=10^4: 0/0.907/0.093, "
        "d=10^5: 0/0.818/0.182",
        "r = 1, 2, 3 shares plausible under Binomial(instances, paper share) "
        "at each listed d; none at r >= 4",
        [](auto& t, auto& s) {
          for (size_t i = 0; i < t[0].rows.size(); ++i) {
            const auto paper = kTable2Paper.find(t[0].Value(i, "d"));
            if (paper == kTable2Paper.end()) continue;
            for (int r = 1; r <= 3; ++r) {
              if (!PlausibleShare(t[0].Value(i, "r=" + std::to_string(r)),
                                  s.instances, paper->second[r - 1])) {
                return false;
              }
            }
            if (t[0].Value(i, "r>=4") != 0) return false;
          }
          return true;
        }},
       {"mass shifts from r = 1 toward r = 2..3 as d grows (average rounds "
        "1.20 / 1.81 / 2.04 / 2.09 / 2.18)",
        "r = 1 share never rises and mean_rounds never falls as d grows",
        [](auto& t, auto&) {
          const auto one = Series(t[0], "r=1");
          const auto mean = Series(t[0], "mean_rounds");
          return std::is_sorted(one.rbegin(), one.rend()) &&
                 std::is_sorted(mean.begin(), mean.end());
        }},
       {"with the round cap lifted PBS reconciles everything",
        "success = 1 at every d",
        [](auto& t, auto&) {
          return InRange(Series(t[0], "success"), 1, 1);
        }}});
}

// ---------------------------------------------------------- Section 5.2 --

Tables RunRoundTradeoff(const Scale&) {
  Table table{"sec52_round_tradeoff",
              "d=1000, delta=5, p0=0.99 (paper: 591/402/318/288 bits)\n",
              {"r", "n", "t", "bits_per_group", "bound"},
              {}};
  for (int r = 1; r <= 4; ++r) {
    OptimizerOptions options;
    options.d = 1000;
    options.r = r;
    // r = 1 needs the ideal case in all 200 groups at once: a far larger
    // bitmap than the production n-range, as the paper implicitly uses.
    options.max_m = r == 1 ? 22 : 13;
    options.t_high = r == 1 ? 5.0 : 3.5;
    const auto plan = OptimizeParams(options);
    if (!plan.has_value()) {
      table.rows.push_back({Integer(r), Text("-"), Text("-"),
                            Text("infeasible"), Text("-")});
      continue;
    }
    table.rows.push_back({Integer(r), Integer(plan->n), Integer(plan->t),
                          Fixed(plan->bits_per_group, 0),
                          Fixed(plan->lower_bound, 4)});
  }
  return {table};
}

Figure Sec52() {
  return {
      "sec52_round_tradeoff",
      "Section 5.2: optimal comm/group vs round target r",
      RunRoundTradeoff,
      {{"591 / 402 / 318 / 288 bits for r = 1 / 2 / 3 / 4",
        "bits_per_group equals the paper's at every r",
        [](auto& t, auto&) {
          return Series(t[0], "bits_per_group") ==
                 std::vector<double>{591, 402, 318, 288};
        },
        false,
        "672 / 412 / 318 / 276 bits: only r = 3 matches; r = 1 needs 672 "
        "bits vs the paper's 591"},
       {"r = 3 is the sweet spot: the optimal cell is n = 127, t = 13 (318 "
        "bits/group)",
        "r = 3 plans n = 127, t = 13 at 318 bits",
        [](auto& t, auto&) {
          return t[0].rows.size() >= 3 && t[0].Value(2, "n") == 127 &&
                 t[0].Value(2, "t") == 13 &&
                 t[0].Value(2, "bits_per_group") == 318;
        }},
       {"steep drops from r = 1 to 2 to 3, marginal gain at r = 4",
        "each extra round saves bits, and fewer than the round before",
        [](auto& t, auto&) {
          const auto bits = Series(t[0], "bits_per_group");
          std::vector<double> saving;
          for (size_t r = 1; r < bits.size(); ++r) {
            saving.push_back(bits[r - 1] - bits[r]);
          }
          return bits.size() == 4 && saving.back() > 0 && Falls(saving);
        }}}};
}

// ---------------------------------------------------------- Section 5.3 --

constexpr int kPiecewiseD = 1000;
constexpr int kPiecewiseGroups = 200;

Tables RunPiecewise(const Scale& scale) {
  const auto fractions =
      ExpectedRoundFractions(127, 13, kPiecewiseD, kPiecewiseGroups, 4);
  Table analytic{"sec53_piecewise_analytic",
                 "Analytical (d=1000, n=127, t=13, g=200):",
                 {"round", "expected_fraction", "paper"},
                 {}};
  const Cell paper[] = {{"0.962", 0.962}, {"0.0380", 0.0380},
                        {"3.61e-04", 3.61e-4}, {"2.86e-06", 2.86e-6}};
  for (int k = 0; k < 4; ++k) {
    analytic.rows.push_back({Integer(k + 1), Sci(fractions[k], 3), paper[k]});
  }

  // Empirical: drive the endpoints round by round (d known) and count the
  // truth elements recovered after each round.
  const int instances = scale.piecewise_instances;
  std::vector<double> recovered_by_round(5, 0.0);
  for (int i = 0; i < instances; ++i) {
    SetPair pair =
        GenerateSetPair(scale.set_size, kPiecewiseD, 32, 0x5EC53 + i);
    PbsConfig config;
    config.max_rounds = 4;
    PbsAlice alice(pair.a, config, 100 + i);
    PbsBob bob(pair.b, config, 100 + i);
    alice.SetDifferenceEstimate(kPiecewiseD);
    bob.SetDifferenceEstimate(kPiecewiseD);
    const std::unordered_set<uint64_t> truth(pair.truth_diff.begin(),
                                             pair.truth_diff.end());
    std::vector<uint8_t> request, reply;
    bool finished = false;
    for (int round = 1; round <= 4 && !finished; ++round) {
      alice.MakeRoundRequest(&request);
      bob.HandleRoundRequest(request, &reply);
      alice.HandleRoundReply(reply);
      finished = alice.finished();
      size_t correct = 0;
      for (uint64_t e : alice.Difference()) correct += truth.count(e);
      // A finished instance keeps its count for the remaining rounds.
      for (int rest = round; rest <= (finished ? 4 : round); ++rest) {
        recovered_by_round[rest] += static_cast<double>(correct) / kPiecewiseD;
      }
    }
  }
  Table empirical{"sec53_piecewise_empirical",
                  "\nEmpirical (|A|=" + std::to_string(scale.set_size) +
                      ", " + std::to_string(instances) +
                      " instances, d=1000, d known):",
                  {"round", "measured_fraction_in_round"},
                  {}};
  double prev = 0.0;
  for (int round = 1; round <= 4; ++round) {
    const double cum = recovered_by_round[round] / instances;
    empirical.rows.push_back({Integer(round), Sci(cum - prev, 3)});
    prev = cum;
  }
  return {analytic, empirical};
}

Figure Sec53() {
  return {
      "sec53_piecewise",
      "Section 5.3: piecewise reconciliability",
      RunPiecewise,
      {{"expected fractions reconciled in rounds 1-4: 0.962 / 0.0380 / "
        "3.61e-4 / 2.86e-6 (d = 1000, n = 127, t = 13, delta = 5)",
        "the Markov model's fractions equal the paper's to its three "
        "printed digits",
        [](auto& t, auto&) {
          for (size_t i = 0; i < t[0].rows.size(); ++i) {
            const double paper = t[0].Value(i, "paper");
            if (std::fabs(t[0].Value(i, "expected_fraction") - paper) >
                0.5 * std::pow(10.0, std::floor(std::log10(paper)) - 2)) {
              return false;
            }
          }
          return true;
        },
        false,
        "round 1 is 0.9597 vs the paper's 0.962 (rounds 2-4 match); the "
        "model's fractions sum to 0.998, the paper's to 1.0004"},
       {"the empirical round-1 fraction sits near the analytical 0.96",
        "measured rounds 1-2 within z sqrt(p(1-p) / (instances * 200 "
        "groups)) of the model",
        [](auto& t, auto& s) {
          const double groups = 1.0 * s.piecewise_instances * kPiecewiseGroups;
          for (size_t i = 0; i < 2; ++i) {
            const double p = t[0].Value(i, "expected_fraction");
            if (std::fabs(t[1].Value(i, "measured_fraction_in_round") - p) >
                kZ * std::sqrt(p * (1 - p) / groups)) {
              return false;
            }
          }
          return true;
        }}}};
}

// ------------------------------------------------------------ Section 6 --

Tables RunTow(const Scale& scale) {
  const int trials = scale.tow_trials;
  Table accuracy{"estimator_tow_accuracy",
                 "ell = 128, " + std::to_string(trials) + " trials\n",
                 {"d", "mean_dhat", "rel_bias", "var", "var_theory",
                  "P[d<=1.38dhat]"},
                 {}};
  SplitMix64 seeds(0xE57);
  for (size_t d : scale.d_grid) {
    std::vector<uint64_t> diff;
    for (size_t i = 0; i < d; ++i) diff.push_back(0x1000 + 37 * i);
    const double dd = static_cast<double>(d);
    double sum = 0, sum_sq = 0;
    int covered = 0;
    for (int trial = 0; trial < trials; ++trial) {
      const double est = TowEstimateFromDifference(diff, 128, seeds.Next());
      sum += est;
      sum_sq += est * est;
      if (dd <= kTowGamma * est) ++covered;
    }
    const double mean = sum / trials;
    accuracy.rows.push_back(
        {Integer(dd), Fixed(mean, 1), Fixed((mean - dd) / dd, 4),
         Sci(sum_sq / trials - mean * mean, 2),
         Sci((2.0 * dd * dd - 2.0 * dd) / 128.0, 2),
         Fixed(static_cast<double>(covered) / trials, 4)});
  }
  const StrataEstimator strata(kStrataDefaultLevels, kStrataDefaultCells, 1,
                               32);
  Table space{"estimator_tow_space",
              "\nEstimator space at |S| = 10^6 (bytes on the wire):",
              {"estimator", "bytes"},
              {{Text("ToW (ell=128)"),
                Integer(TowSketch::BitSize(128, 1000000) / 8)},
               {Text("Strata (32x80 cells)"),
                Integer(static_cast<double>(strata.bit_size() / 8))},
               {Text("Min-wise (k=1024)"),
                Integer(static_cast<double>(
                    MinwiseEstimator::BitSize(1024, 32) / 8))}}};
  return {accuracy, space};
}

Figure Tow() {
  return {
      "estimator_tow",
      "Section 6: ToW estimator",
      RunTow,
      {{"the ToW estimate is unbiased (Appendix A)",
        "|mean_dhat - d| <= z sqrt(var_theory / trials) at every d",
        [](auto& t, auto& s) {
          for (size_t i = 0; i < t[0].rows.size(); ++i) {
            if (std::fabs(t[0].Value(i, "mean_dhat") - t[0].Value(i, "d")) >
                kZ * std::sqrt(t[0].Value(i, "var_theory") / s.tow_trials)) {
              return false;
            }
          }
          return true;
        }},
       {"Var[d-hat] = (2d^2 - 2d) / ell (Appendix A)",
        "|var / var_theory - 1| <= z sqrt(2 / (trials - 1)) at every d",
        [](auto& t, auto& s) {
          const double tol = kZ * std::sqrt(2.0 / (s.tow_trials - 1));
          for (size_t i = 0; i < t[0].rows.size(); ++i) {
            const double ratio =
                t[0].Value(i, "var") / t[0].Value(i, "var_theory");
            if (std::fabs(ratio - 1.0) > tol) return false;
          }
          return true;
        }},
       {"Pr[d <= 1.38 d-hat] >= 99% at ell = 128 (Section 6.2)",
        "coverage plausible for a rate >= 0.99 at every d",
        [](auto& t, auto& s) {
          return Rates(Series(t[0], "P[d<=1.38dhat]"), s.tow_trials, 0.99);
        }},
       {"ToW takes 336 bytes at |S| = 10^6, less than Strata or min-wise "
        "(Appendix B)",
        "ToW row is 336 bytes and the smallest",
        [](auto& t, auto&) {
          const auto bytes = Series(t[1], "bytes");
          return bytes.size() == 3 && bytes[0] == 336 && bytes[0] < bytes[1] &&
                 bytes[0] < bytes[2];
        }}}};
}

// ------------------------------------------------------------ Section 7 --

Tables RunRelated(const Scale& scale) {
  const size_t set_size = scale.related_set_size;
  const int n = scale.related_instances;
  Table rounds{"related_rounds",
               "|A|=" + std::to_string(set_size) +
                   " instances=" + std::to_string(n) +
                   "\n\n(1) Rounds of message exchange: PBS vs recursive "
                   "bisection",
               {"d", "scheme", "mean_rounds", "KB", "success"},
               {}};
  for (size_t d : {size_t{10}, size_t{100}, size_t{1000}}) {
    const auto add = [&](const char* label, double mean_rounds,
                         double mean_bytes, double success) {
      rounds.rows.push_back({Integer(static_cast<double>(d)), Text(label),
                             Fixed(mean_rounds, 2),
                             Fixed(mean_bytes / 1024.0, 3),
                             Fixed(success, 3)});
    };
    ExperimentConfig config;
    config.set_size = set_size;
    config.d = d;
    config.instances = n;
    config.threads = 0;
    config.seed = 0x5EC7 + d;
    const RunStats pbs = RunScheme("pbs", config);
    add("PBS", pbs.mean_rounds, pbs.mean_bytes, pbs.success_rate);
    double cpi_rounds = 0, cpi_bytes = 0, cpi_success = 0;
    for (int i = 0; i < n; ++i) {
      SetPair pair = GenerateSetPair(set_size, d, 32, 0xAB5 + d * 31 + i);
      const auto out = RecursiveCpiReconcile(pair.a, pair.b, 5, 32, 48, i);
      cpi_rounds += out.rounds;
      cpi_bytes += static_cast<double>(out.data_bytes);
      cpi_success += out.success ? 1 : 0;
    }
    add("RecursiveCPI", cpi_rounds / n, cpi_bytes / n, cpi_success / n);
  }

  Table approx{"related_approx_filters",
               "\n(2) Approximate filter exchange: recall vs budget",
               {"filter", "fpr", "KB", "recall"},
               {}};
  const SetPair pair = GenerateTwoSidedPair(set_size / 2, 300, 300, 32, 99);
  for (FilterKind kind : {FilterKind::kBloom, FilterKind::kCuckoo}) {
    for (double fpr : {0.05, 0.01, 0.001}) {
      const auto out = ApproxFilterReconcile(pair.a, pair.b, kind, fpr, 7);
      approx.rows.push_back(
          {Text(kind == FilterKind::kBloom ? "Bloom" : "Cuckoo"),
           Fixed(fpr, 3), Fixed(out.data_bytes / 1024.0, 1),
           Fixed(EvaluateRecall(out, pair.truth_diff), 4)});
    }
  }
  return {rounds, approx};
}

Figure Related() {
  return {
      "related_rounds",
      "Section 7 related-work study",
      RunRelated,
      {{"recursive bisection completes in O(log d) rounds, generally much "
        "larger than that in PBS",
        "RecursiveCPI takes more rounds than PBS at every d, and more at "
        "each larger d",
        [](auto& t, auto&) {
          auto cpi = Series(t[0], "mean_rounds", "RecursiveCPI");
          const bool above = Above(cpi, Series(t[0], "mean_rounds", "PBS"));
          std::reverse(cpi.begin(), cpi.end());
          return above && Falls(cpi);
        }},
       {"PBS completes in <= 3 rounds at p0 = 0.99",
        "PBS success within its 3-round cap plausible for a rate >= 0.99",
        [](auto& t, auto& s) {
          return Rates(Series(t[0], "success", "PBS"), s.related_instances,
                       0.99);
        }},
       {"BF/cuckoo filter exchange is cheap but inexact: its cost scales "
        "with |A| + |B| and recall stays below 1 at practical budgets",
        "recall < 1 for both filters at fpr >= 0.01",
        [](auto& t, auto&) {
          for (size_t i = 0; i < t[1].rows.size(); ++i) {
            if (t[1].Value(i, "fpr") >= 0.01 && t[1].Value(i, "recall") >= 1) {
              return false;
            }
          }
          return !t[1].rows.empty();
        }}}};
}

// ---------------------------------------------- Procedure 3 (Section 2.3) --

Figure Procedure3() {
  Figure figure = SweepFigure(
      "Ablation: Procedure-3 sub-universe check",
      {"ablation_procedure3",
       {{"pbs", "on"}, {"pbs", "off", false, false}},
       {{"check", Label}, {"success@r<=8", Success3},
        {"mean_rounds", Rounds}, {"KB", KB}},
       0xAB1A7E - 60, 0.0,
       [](ExperimentConfig& c, const Scale& s) {
         // Forced collision pressure: one group with a deliberately small
         // bitmap (n = 63) so type (I)/(II) exceptions abound, and d known
         // so only the exception path differs.
         c.set_size = 3000;
         c.instances = s.ablation_instances;
         c.use_estimator = false;
         c.pbs.max_rounds = 8;
         c.pbs.optimizer.min_m = 6;
         c.pbs.optimizer.max_m = 6;
         c.pbs.optimizer.t_high = 13.0;  // t up to 65 covers d = 60.
       },
       60},
      {{"fakes poison the checksum and are unwound in later rounds: the "
        "checksum loop, not Procedure 3, guarantees correctness",
        "success@r<=8 equal with the check on and off",
        [](auto& t, auto&) {
          const auto success = Series(t[0], "success@r<=8");
          return success.size() == 2 && success[0] == success[1];
        }},
       {"the check h(s) == i discards fakes at zero communication cost",
        "KB with the check on <= KB with it off",
        [](auto& t, auto&) {
          const auto kb = Series(t[0], "KB");
          return kb.size() == 2 && kb[0] <= kb[1];
        }}});
  figure.run = [run = figure.run](const Scale& s) {
    Tables tables = run(s);
    tables[0].caption = "forced collision pressure: d=60 known, one group "
                        "(n=63 bitmap), " +
                        std::to_string(s.ablation_instances) + " instances\n";
    return tables;
  };
  return figure;
}

}  // namespace

const std::vector<Figure>& PaperFigures() {
  static const std::vector<Figure> figures = {
      Fig1(),   Fig2(),  Fig3(),  Fig4(),    Fig5(),       Table1(),
      Table2(), Sec52(), Sec53(), Related(), Procedure3(), Tow()};
  return figures;
}

const Figure* FindFigure(const std::string& id) {
  for (const Figure& figure : PaperFigures()) {
    if (figure.id == id) return &figure;
  }
  return nullptr;
}

}  // namespace pbs
