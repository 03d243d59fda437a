#!/usr/bin/env python3
"""Perf regression gate over the host benchmark's result line.

Reads the last line of `python3 hostbench/run.py --workload all`'s
stdout: one JSON object with keys correct, attempted, failed and
metrics (name -> {value, unit}). Fails when the run was not correct
(a missed reference fingerprint, repeats or shard counts that disagree,
a broken conservation identity), when arabic-filter's CPU throughput,
1e9 / arabic-filter.runtime.ns_per_idx idxs per CPU second, falls more
than 20% below the baseline in bench/perf_baseline.json, or when
stokes-cache's peak RSS rises more than 10% (BENCHMARK.json's
rss_peak_mb bound) above that file's rss_peak_mb. Peak RSS repeats
within a fraction of a MB, so unlike time it is gated tightly even on
shared runners. Moving a baseline after a genuine improvement is a
one-line reviewed edit of that file.

Usage:
    check_perf_regression.py HOSTBENCH_OUT [--delta-out FILE]

Exit codes: 0 pass, 1 regression or incorrect run, 2 bad input.
"""

import argparse
import json
import os
import sys

METRIC = "arabic-filter.runtime.ns_per_idx"
TOLERANCE = 0.20
RSS_METRIC = "stokes-cache.rss_peak_mb"
RSS_TOLERANCE = 0.10
BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "bench", "perf_baseline.json")


def bad_input(msg):
    print(f"check_perf_regression: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("result", help="hostbench/run.py's stdout")
    ap.add_argument("--delta-out", help="write the gate summary as JSON here")
    args = ap.parse_args()

    try:
        with open(args.result) as f:
            result = json.loads(f.read().splitlines()[-1])
        with open(BASELINE) as f:
            baseline = json.load(f)
        reference = float(baseline["idxs_per_cpu_s"])
        rss_reference = float(baseline["rss_peak_mb"])
    except (OSError, ValueError, IndexError, KeyError, TypeError) as e:
        bad_input(f"cannot read the result or the baseline: {e!r}")
    try:
        measured = 1e9 / float(result["metrics"][METRIC]["value"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        bad_input(f"{args.result} has no usable {METRIC}")
    try:
        rss = float(result["metrics"][RSS_METRIC]["value"])
    except (KeyError, TypeError, ValueError):
        bad_input(f"{args.result} has no usable {RSS_METRIC}")

    floor = reference * (1.0 - TOLERANCE)
    ceiling = rss_reference * (1.0 + RSS_TOLERANCE)
    failures = []
    if result.get("correct") is not True:
        failures.append(
            f"the run was not correct ({result.get('failed')} of "
            f"{result.get('attempted')} simulations failed a check)")
    if measured < floor:
        failures.append(
            f"{measured:.0f} idxs per CPU second is below the floor "
            f"{floor:.0f} ({reference:.0f} * (1 - {TOLERANCE:g}))")
    if rss > ceiling:
        failures.append(
            f"stokes-cache's peak RSS {rss:.1f} MB is above the ceiling "
            f"{ceiling:.1f} MB ({rss_reference:g} * (1 + {RSS_TOLERANCE:g}))")

    if args.delta_out:
        with open(args.delta_out, "w") as f:
            json.dump({"metric": METRIC,
                       "idxs_per_cpu_s": measured,
                       "baseline_idxs_per_cpu_s": reference,
                       "ratio_vs_baseline": measured / reference,
                       "tolerance": TOLERANCE,
                       "rss_metric": RSS_METRIC,
                       "rss_peak_mb": rss,
                       "baseline_rss_peak_mb": rss_reference,
                       "rss_tolerance": RSS_TOLERANCE,
                       "correct": result.get("correct") is True,
                       "pass": not failures}, f, indent=2)
            f.write("\n")

    print(f"arabic-filter: {measured:.0f} idxs per CPU second "
          f"({measured / reference:.2f}x of the baseline, floor {floor:.0f})")
    print(f"stokes-cache: {rss:.1f} MB peak RSS "
          f"({rss / rss_reference:.2f}x of the baseline, ceiling {ceiling:.1f})")
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    print("perf regression gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
