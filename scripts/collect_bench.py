#!/usr/bin/env python3
"""Merge PBS_BENCH_JSON runs into the repo's recorded perf trajectory.

Each bench binary, when run with PBS_BENCH_JSON=<path>, appends one JSON
object per result row to <path> (JSON lines). This script folds one or
more such files into BENCH_pbs.json, the cumulative machine-readable
record benches are tracked by (see docs/BENCHMARKS.md):

    PBS_BENCH_JSON=/tmp/run.jsonl build/bench_hotpath
    scripts/collect_bench.py /tmp/run.jsonl            # merge into BENCH_pbs.json

Records are deduplicated exactly (identical JSON objects collapse), so
re-merging the same run is idempotent. Pass --run-id to tag the records
of this merge (e.g. a git SHA or CI run number).

Comparison mode: --compare <baseline_run_id> additionally matches every
just-merged ns_per_op or sessions_per_s record against the trajectory
records tagged with that baseline run id (same bench, same identity
fields -- kernel, path, n, t, ...; fields missing on either side, such as
columns added after the baseline was recorded, are ignored) and prints
per-record speedup ratios (> 1 is faster: baseline/new for ns_per_op,
new/baseline for sessions_per_s). Any record worse than baseline by more
than --regression-tolerance (default 10%) fails the script, so CI can
gate on kernel AND server-throughput regressions. wire_B (framed session
bytes) is exact whatever the tolerance: any increase fails, and a decrease
is flagged "changed, re-pin" so the baseline gets re-recorded:

    scripts/collect_bench.py run.jsonl --run-id pr5 --compare pr3 \\
        --report bench_delta.txt
"""

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

SCHEMA = 1

# Fields that carry measurements or merge metadata rather than identity:
# two records describing the same kernel configuration differ only here.
MEASUREMENT_KEYS = {
    "ns_per_op", "Mops", "wall_ms", "sessions_per_s", "p50_ms", "p99_ms",
    "wire_B_per_session", "parity", "run_id",
    # Sharded-session economics (bench_sharded_sync): wire_B is the
    # deterministic gated metric, the rest are machine-dependent
    # observations riding on the same row.
    "wire_B", "frames", "rounds", "rss_mb",
    # Derived ratio (simd vs scalar ns_per_op): a measurement like its
    # inputs, never part of a record's identity.
    "speedup",
    # Fault-recovery economics (bench_fault_recovery): reconnect attempt
    # counts and cross-attempt byte totals are observations, not identity.
    "attempts", "resumed", "wire_total_B",
    # Hardware-capability tag (cpu::FeatureString()): metadata, not
    # identity, so records stay comparable across machines.
    "cpu",
}

# Metrics --compare gates on, and which direction is better. A record is
# compared on its first metric present in this order.
COMPARE_METRICS = (
    ("ns_per_op", "lower"),
    ("sessions_per_s", "higher"),
    # Framed session bytes (bench_sharded_sync, bench_fault_recovery):
    # fully determined by the seeds, so any drift at all is a protocol
    # change. Gated exactly (EXACT_METRICS), never with the tolerance.
    ("wire_B", "lower"),
)

# Seed-determined metrics: any increase is a regression whatever the
# tolerance, and any decrease must be re-pinned in the baseline.
EXACT_METRICS = {"wire_B"}


def compare_metric(record):
    for key, direction in COMPARE_METRICS:
        if key in record:
            return key, direction
    return None, None


def load_jsonl(path):
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as err:
                print(f"{path}:{lineno}: skipping malformed line ({err})",
                      file=sys.stderr)
    return records


def identity(record):
    return {k: v for k, v in record.items() if k not in MEASUREMENT_KEYS}


def matches(new, base):
    """Same kernel configuration: every identity field present on BOTH
    sides must agree (columns only one side has -- e.g. added after the
    baseline was recorded -- do not block the match)."""
    new_id, base_id = identity(new), identity(base)
    shared = set(new_id) & set(base_id)
    return bool(shared) and all(new_id[k] == base_id[k] for k in shared)


def describe(record):
    parts = [str(record.get("bench", "?"))]
    for key in ("kernel", "path", "scheme", "scenario", "m", "n", "t", "d",
                "size",
                "sessions", "window", "shards", "identical_pct", "threads",
                "mode"):
        if key in record:
            parts.append(f"{key}={record[key]}")
    return " ".join(parts)


def compare(new_records, trajectory, baseline_run_id, tolerance, report_path):
    baseline = [r for r in trajectory
                if r.get("run_id") == baseline_run_id
                and compare_metric(r)[0] is not None]
    if not baseline:
        available = sorted({str(r["run_id"]) for r in trajectory
                            if r.get("run_id") is not None})
        print(f"--compare: no comparable records with run_id "
              f"'{baseline_run_id}' in the trajectory", file=sys.stderr)
        if available:
            print("available run_ids: " + ", ".join(available),
                  file=sys.stderr)
        else:
            print("the trajectory has no tagged records at all "
                  "(merge with --run-id first)", file=sys.stderr)
        return 1

    lines = [f"speedups vs run_id '{baseline_run_id}' "
             f"(ratio > 1 is faster, "
             f"regression threshold {tolerance:.0%}; "
             f"{', '.join(sorted(EXACT_METRICS))} exact):", ""]
    regressions = []
    changed = []
    compared = 0
    matched_baseline_ids = set()
    for new in new_records:
        metric, direction = compare_metric(new)
        if metric is None:
            continue
        candidates = [b for b in baseline
                      if metric in b and matches(new, b)]
        if not candidates:
            continue
        matched_baseline_ids.update(id(b) for b in candidates)
        # Ambiguity (a baseline predating a new identity column) resolves
        # to the strictest bar for the new record: the fastest baseline.
        if direction == "lower":
            base = min(candidates, key=lambda r: float(r[metric]))
        else:
            base = max(candidates, key=lambda r: float(r[metric]))
        new_val = float(new[metric])
        base_val = float(base[metric])
        exact = metric in EXACT_METRICS
        slack = 0.0 if exact else tolerance
        if direction == "lower":
            ratio = base_val / new_val if new_val > 0 else float("inf")
            regressed = new_val > base_val * (1.0 + slack)
        else:
            ratio = new_val / base_val if base_val > 0 else float("inf")
            regressed = new_val < base_val * (1.0 - slack)
        flag = ""
        if regressed:
            flag = "  << REGRESSION"
            regressions.append(describe(new))
        elif exact and new_val != base_val:
            flag = "  << changed, re-pin"
            changed.append(describe(new))
        lines.append(f"  {describe(new):<60} {base_val:>12.1f} -> "
                     f"{new_val:>12.1f} {metric}   x{ratio:5.2f}{flag}")
        compared += 1

    # A baseline kernel the new run never produced would otherwise vanish
    # from the report silently -- exactly how a dropped bench or a renamed
    # identity column slips past CI. Warn loudly (but do not fail: the
    # baseline may legitimately contain benches this run did not execute).
    missing = [b for b in baseline if id(b) not in matched_baseline_ids]
    if missing:
        lines.append("")
        lines.append(f"WARNING: {len(missing)} baseline record(s) matched "
                     f"no record of this run (bench not run, kernel "
                     f"removed, or identity fields renamed):")
        for b in missing:
            lines.append(f"  {describe(b)}")
        print(f"--compare: WARNING: {len(missing)} baseline record(s) "
              f"from run_id '{baseline_run_id}' matched nothing in this "
              f"run", file=sys.stderr)

    lines.append("")
    lines.append(f"{compared} record(s) compared, "
                 f"{len(regressions)} regression(s)"
                 + (f", {len(changed)} exact record(s) changed (re-pin "
                    f"the baseline)" if changed else ""))
    text = "\n".join(lines)
    print(text)
    if report_path:
        Path(report_path).write_text(text + "\n", encoding="utf-8")
        print(f"delta report written to {report_path}")
    if regressions:
        print("FAIL: regression(s) beyond tolerance:", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        return 1
    if compared == 0:
        print("--compare: no new record matched the baseline",
              file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+",
                        help="JSON-lines files written via PBS_BENCH_JSON")
    parser.add_argument("--out", default="BENCH_pbs.json",
                        help="merged trajectory file (default: %(default)s)")
    parser.add_argument("--run-id", default=None,
                        help="optional tag stored on this merge's records")
    parser.add_argument("--compare", metavar="BASELINE_RUN_ID", default=None,
                        help="compare the merged records against the "
                             "trajectory records with this run_id and fail "
                             "on regressions")
    parser.add_argument("--regression-tolerance", type=float, default=0.10,
                        help="fractional slowdown vs baseline that counts "
                             "as a regression; wire_B is always exact "
                             "(default: %(default)s)")
    parser.add_argument("--report", default=None,
                        help="also write the --compare delta report to this "
                             "file")
    args = parser.parse_args()

    out_path = Path(args.out)
    merged = {"schema": SCHEMA, "updated": None, "records": []}
    if out_path.exists():
        with open(out_path, "r", encoding="utf-8") as fh:
            existing = json.load(fh)
        if isinstance(existing, dict) and "records" in existing:
            merged["records"] = existing["records"]
        elif isinstance(existing, list):  # Tolerate a bare-array seed file.
            merged["records"] = existing

    seen = {json.dumps(r, sort_keys=True) for r in merged["records"]}
    added = 0
    new_records = []
    for path in args.inputs:
        for record in load_jsonl(path):
            if args.run_id is not None:
                record.setdefault("run_id", args.run_id)
            new_records.append(record)
            key = json.dumps(record, sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            merged["records"].append(record)
            added += 1

    merged["updated"] = datetime.now(timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")
    merged["records"].sort(key=lambda r: (str(r.get("bench", "")),
                                          json.dumps(r, sort_keys=True)))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=1)
        fh.write("\n")
    print(f"{out_path}: {added} new record(s), "
          f"{len(merged['records'])} total")

    if args.compare is not None:
        return compare(new_records, merged["records"], args.compare,
                       args.regression_tolerance, args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
