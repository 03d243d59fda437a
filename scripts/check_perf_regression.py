#!/usr/bin/env python3
"""Perf regression gate over bench_perf's BENCH_perf.json.

Compares the measured sequential throughput (events_per_second, the
CPU-time-based metric chosen for its robustness to runner noise) against
the committed baseline in bench/perf_baseline.json and fails when it
drops more than the allowed fraction below it, or when the run was
non-deterministic, and writes the gate's summary to a small JSON
artifact for CI upload.

The committed baseline records the reference container's numbers;
heterogeneous runners can scale the floor with
NETSPARSE_PERF_BASELINE_SCALE (e.g. 0.5 halves the required
throughput) or point NETSPARSE_PERF_BASELINE at a different baseline
file. Raising the baseline after a genuine improvement is a one-line
edit to bench/perf_baseline.json reviewed like any other change.

Usage:
    check_perf_regression.py BENCH_perf.json [--baseline FILE]
        [--tolerance 0.20] [--delta-out FILE]

Exit codes: 0 pass, 1 regression or non-determinism, 2 bad input.
"""

import argparse
import json
import os
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_perf_regression: cannot read {path}: {e}",
              file=sys.stderr)
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("result", help="BENCH_perf.json from bench_perf")
    ap.add_argument("--baseline",
                    default=os.environ.get(
                        "NETSPARSE_PERF_BASELINE",
                        os.path.join(os.path.dirname(__file__), "..",
                                     "bench", "perf_baseline.json")))
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional drop below baseline")
    ap.add_argument("--delta-out", default=None,
                    help="write the gate summary as JSON here")
    args = ap.parse_args()

    result = load(args.result)
    baseline = load(args.baseline)

    schema = result.get("schema", "")
    if not schema.startswith("netsparse-perf-"):
        print(f"check_perf_regression: unexpected schema {schema!r}",
              file=sys.stderr)
        sys.exit(2)

    measured = result.get("events_per_second")
    reference = baseline.get("events_per_second")
    if not measured or not reference:
        print("check_perf_regression: missing events_per_second",
              file=sys.stderr)
        sys.exit(2)

    try:
        scale = float(
            os.environ.get("NETSPARSE_PERF_BASELINE_SCALE", "1.0"))
    except ValueError:
        print("check_perf_regression: NETSPARSE_PERF_BASELINE_SCALE "
              "is not a number", file=sys.stderr)
        sys.exit(2)
    if scale <= 0:
        print(f"check_perf_regression: baseline scale {scale:g} must "
              "be positive", file=sys.stderr)
        sys.exit(2)

    # The scale knob exists to move the FAILURE floor for slower (or
    # faster) runners; it must apply symmetrically to every derived
    # number, or a regression on a fast runner (scale < 1) reads as an
    # "improvement" against the unscaled reference. So the ratio and
    # the improvement watermark use the same scaled baseline the floor
    # does.
    scaled_reference = reference * scale
    floor = scaled_reference * (1.0 - args.tolerance)
    ratio = measured / scaled_reference
    improvement_mark = scaled_reference * (1.0 + args.tolerance)
    improved = measured > improvement_mark

    failures = []
    if measured < floor:
        failures.append(
            f"events_per_second {measured:.0f} is below the baseline "
            f"floor {floor:.0f} ({reference:.0f} * scale {scale:g} * "
            f"(1 - {args.tolerance:g}))")

    if not result.get("deterministic", False):
        failures.append("run was non-deterministic")

    summary = {
        "events_per_second": measured,
        "baseline_events_per_second": reference,
        "baseline_scale": scale,
        "ratio_vs_baseline": ratio,
        "tolerance": args.tolerance,
        "improved_vs_baseline": improved,
        "pass": not failures,
    }
    if args.delta_out:
        with open(args.delta_out, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")

    print(f"throughput : {measured:.0f} events/s "
          f"({ratio:.2f}x of scaled baseline, floor {floor:.0f})")
    if improved and scale == 1.0:
        print(f"note       : throughput beats the baseline by more than "
              f"{args.tolerance:.0%}; consider raising "
              f"bench/perf_baseline.json")
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print("perf regression gate: PASS")


if __name__ == "__main__":
    main()
