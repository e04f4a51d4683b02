#!/usr/bin/env python3
"""Compares runs of pbs_e2e recorded with run.py --jsonl.

Gain/regression rule for a change (parent and change runs paired in file
order per workload: run them alternately, same seeds, same --seconds):

    python3 bench/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Per (workload, metric) it prints each side's median and quartiles, the
fraction of pairs the change won (ties count for neither) and a verdict:
  improved       the change won >= 90% of at least 10 pairs and the medians
                 differ by more than the parent's quartile spread;
  within bound   the change's median is no worse than the parent's by more
                 than the metric's bound;
  regressed      worse by more than the bound, with the parent's spread
                 inside the bound;
  unresolved     worse by more than the bound but the parent's spread is
                 wider than the bound (unless every change run beats every
                 parent run);
  identical / changed   for the metrics gates.json pins exactly, compared
                 within pairs that ran the same seed.
It exits non-zero on any regression, any changed exact metric, or a
failure rate (failed / attempted) that rose or is not zero.

Repeatability of one build (two sets of runs of the same code):

    python3 bench/e2e/compare.py --same A.jsonl B.jsonl

checks that each set's quartile spread stays within every metric's bound
(setup_s excepted), that B's median is not worse than A's by more than the
bound, that exact metrics agree per seed, and that nothing failed. It
marks spreads above a third of the bound, the steadiness target.

Bounds and directions come from BENCHMARK.json (end_to_end) and
gates.json: "extra" holds the churn update latencies, which only one
workload has, and "exact" the metrics pinned per seed on the workloads
named there, decode_miss_rate among them.
Only untraced runs (--trace 0) are compared.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_records(path):
    by_workload = defaultdict(list)
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("trace", 0) == 0:
                by_workload[record["workload"]].append(record)
    return by_workload


def load_gates():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "gates.json")) as f:
        gates = json.load(f)
    metrics = []  # (name, better, bound, workloads or None = all)
    for m in bench["end_to_end"]:
        metrics.append((m["name"], m["better"], m["bound"], None))
    for m in gates["extra"]:
        metrics.append((m["name"], m["better"], m["bound"], m["workloads"]))
    # An exact pin on a metric no bound lists is checked on its workloads
    # alone, seed by seed; it has no bound (None).
    listed = {m[0] for m in metrics}
    for name, workloads in sorted(gates["exact"].items()):
        if name not in listed:
            metrics.append((name, "lower", None, workloads))
    return metrics, gates["exact"]


def value(record, name):
    m = record["metrics"].get(name)
    return None if m is None else m["value"]


def fail_rate(record):
    return record["failed"] / max(1, record["attempted"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(base, other, better):
    """Relative amount by which `other` is worse than `base` (< 0: better)."""
    if base == 0:
        return 0.0 if other == base else float("inf")
    rel = (other - base) / abs(base)
    return rel if better == "lower" else -rel


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def fmt(q):
    return "%.6g [%.6g, %.6g]" % (q[1], q[0], q[2])


def compare_gain(parent, change):
    metrics, exact = load_gates()
    bad = False
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        pairs = min(len(p_runs), len(c_runs))
        print("== %s: %d pairs%s" % (workload, pairs,
                                     "" if pairs >= 10 else
                                     " (the rule needs at least 10)"))
        if pairs == 0:
            bad = True
            continue
        p_runs, c_runs = p_runs[:pairs], c_runs[:pairs]
        p_fail = max(fail_rate(r) for r in p_runs)
        c_fail = max(fail_rate(r) for r in c_runs)
        if c_fail > 0 or c_fail > p_fail:
            print("  fail_rate: parent %.6g, change %.6g  REGRESSED"
                  % (p_fail, c_fail))
            bad = True
        for name, better, bound, only in metrics:
            if only is not None and workload not in only:
                continue
            p = [value(r, name) for r in p_runs]
            c = [value(r, name) for r in c_runs]
            if None in p or None in c:
                print("  %-20s missing" % name)
                bad = True
                continue
            pq, cq = quartiles(p), quartiles(c)
            wins = sum(is_better(cv, pv, better) for pv, cv in zip(p, c))
            win_frac = wins / pairs
            worse = worse_by(pq[1], cq[1], better)
            if workload in exact.get(name, []):
                seeded = [(pv, cv) for pv, cv, pr, cr
                          in zip(p, c, p_runs, c_runs)
                          if pr["seed"] == cr["seed"]]
                same = all(pv == cv for pv, cv in seeded)
                verdict = ("no same-seed pairs" if not seeded else
                           "identical" if same else "changed")
                bad = bad or not same
            else:
                spread = (pq[2] - pq[0]) / abs(pq[1]) if pq[1] else 0.0
                all_better = all(is_better(cv, pv, better)
                                 for pv in p for cv in c)
                gain = (pairs >= 10 and win_frac >= 0.9 and worse < 0 and
                        abs(cq[1] - pq[1]) > (pq[2] - pq[0]))
                if gain:
                    verdict = "improved"
                elif worse <= bound or all_better:
                    verdict = "within bound"
                elif spread > bound:
                    verdict = "unresolved"
                else:
                    verdict = "regressed"
                    bad = True
            print("  %-20s parent %s  change %s  won %.2f  %+.1f%%  %s"
                  % (name, fmt(pq), fmt(cq), win_frac, -100 * worse,
                     verdict))
    return 1 if bad else 0


def compare_same(first, second):
    metrics, exact = load_gates()
    bad = False
    for workload in sorted(set(first) | set(second)):
        a_runs, b_runs = first.get(workload, []), second.get(workload, [])
        print("== %s: %d and %d runs" % (workload, len(a_runs), len(b_runs)))
        if not a_runs or not b_runs:
            bad = True
            continue
        if any(r["failed"] or not r["correct"] for r in a_runs + b_runs):
            print("  a run failed or was wrong")
            bad = True
        for name, better, bound, only in metrics:
            if only is not None and workload not in only:
                continue
            a = [value(r, name) for r in a_runs]
            b = [value(r, name) for r in b_runs]
            if None in a or None in b:
                print("  %-20s missing" % name)
                bad = True
                continue
            aq, bq = quartiles(a), quartiles(b)
            spreads = [(q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
                       for q in (aq, bq)]
            worse = worse_by(aq[1], bq[1], better)
            notes = []
            pinned = workload in exact.get(name, [])
            if pinned:
                by_seed = {r["seed"]: value(r, name) for r in a_runs}
                common = [r for r in b_runs if r["seed"] in by_seed]
                mismatch = [r["seed"] for r in common
                            if by_seed[r["seed"]] != value(r, name)]
                if not common:
                    notes.append("no seed in both sets")
                elif mismatch:
                    notes.append("differs on seeds %s" % mismatch)
            # A pinned metric's spread is between seeds, and its medians
            # agree whenever its values do seed by seed.
            checked = bound is not None and name != "setup_s"
            if checked and max(spreads) > bound:
                notes.append("spread over bound")
            if bound is not None and not pinned and worse > bound:
                notes.append("second median worse by %.1f%%" % (100 * worse))
            bad = bad or bool(notes)
            if not notes and checked and max(spreads) > bound / 3:
                notes.append("steady: no (spread > bound/3)")
            print("  %-20s %s | %s  spread %.3f/%.3f  bound %s  %s"
                  % (name, fmt(aq), fmt(bq), spreads[0], spreads[1],
                     "exact" if bound is None else "%.2f" % bound,
                     "; ".join(notes) if notes else "ok"))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(
        description="Compare pbs_e2e runs (see the module docstring).")
    parser.add_argument("--same", action="store_true",
                        help="both files are runs of one build")
    parser.add_argument("first")
    parser.add_argument("second")
    args = parser.parse_args()
    first, second = load_records(args.first), load_records(args.second)
    if args.same:
        sys.exit(compare_same(first, second))
    sys.exit(compare_gain(first, second))


if __name__ == "__main__":
    main()
