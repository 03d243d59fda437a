#!/usr/bin/env python3
"""Plot a netsparse-telemetry-v1 timeline as small multiples.

One panel per metric class, all sharing the simulated-time axis: link
utilization, switch output backlog, Property-Cache activity, in-flight
PRs and simulator event throughput. Panels with many entities (links,
switches) draw every series as a thin gray context line and highlight
only the top few bottlenecks - ranked the same way as
examples/telemetry_report - with direct labels, so the plot answers
"where and when did the run saturate" at a glance.

    python3 scripts/plot_telemetry.py telemetry.json -o telemetry.png

Needs matplotlib; everything else is stdlib.
"""

import argparse
import json
import sys

# Categorical palette, first three slots only (validated for
# any-pair-adjacent use, light mode; see docs/observability.md).
SERIES_COLORS = ["#2a78d6", "#eb6834", "#1baf7a"]
CONTEXT = "#c8c7c2"  # de-emphasized non-highlighted series
TEXT = "#0b0b0b"
TEXT_MUTED = "#52514e"
GRID = "#e4e3de"
SURFACE = "#fcfcfb"


def load_run(path, run_index):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "netsparse-telemetry-v1":
        sys.exit(f"{path}: not a netsparse-telemetry-v1 document")
    try:
        return doc["runs"][run_index]
    except (KeyError, IndexError):
        sys.exit(f"{path}: no run {run_index}")


def by_kind(run, kind):
    return [e for e in run["entities"] if e["kind"] == kind]


def saturation_rank(entity):
    """Links rank by time at >= 90% utilization, then by peak."""
    util = entity["series"]["utilization"]
    above = sum(1 for u in util if u >= 0.9)
    return (above, max(util, default=0.0))


def plot_ranked(ax, t_us, entities, series, rank_key, top, scale=1.0):
    """Gray context lines plus direct-labeled top-N highlights."""
    ranked = sorted(entities, key=rank_key, reverse=True)
    highlights = [e for e in ranked[:top] if rank_key(e) > (0, 0.0)]
    for e in ranked[len(highlights):]:
        ax.plot(t_us, [v * scale for v in e["series"][series]],
                color=CONTEXT, linewidth=0.8, zorder=1)
    for i, e in enumerate(reversed(highlights)):
        color = SERIES_COLORS[len(highlights) - 1 - i]
        vals = [v * scale for v in e["series"][series]]
        ax.plot(t_us, vals, color=color, linewidth=1.8, zorder=3)
        ax.annotate(e["id"], (t_us[-1], vals[-1]),
                    xytext=(4, 0), textcoords="offset points",
                    color=color, fontsize=8, va="center")


def style(ax, title, ylabel):
    ax.set_title(title, loc="left", fontsize=9, color=TEXT)
    ax.set_ylabel(ylabel, fontsize=8, color=TEXT_MUTED)
    ax.set_facecolor(SURFACE)
    ax.grid(True, color=GRID, linewidth=0.6, zorder=0)
    ax.tick_params(labelsize=8, colors=TEXT_MUTED)
    for side in ("top", "right"):
        ax.spines[side].set_visible(False)
    for side in ("left", "bottom"):
        ax.spines[side].set_color(GRID)
    ax.margins(x=0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("telemetry", help="netsparse-telemetry-v1 JSON file")
    ap.add_argument("-o", "--out", default="telemetry.png",
                    help="output image (default telemetry.png)")
    ap.add_argument("--run", type=int, default=0,
                    help="run index to plot (default 0)")
    ap.add_argument("--top", type=int, default=3,
                    help="highlighted series per panel (default 3, max 3)")
    args = ap.parse_args()

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("plot_telemetry.py needs matplotlib "
                 "(the validator scripts/validate_outputs.py does not)")

    run = load_run(args.telemetry, args.run)
    t_us = [t / 1e6 for t in run["sampleTicks"]]  # ticks (ps) -> us
    if not t_us:
        sys.exit(f"{args.telemetry}: run {args.run} has no samples")
    top = max(1, min(args.top, len(SERIES_COLORS)))

    fig, axes = plt.subplots(5, 1, figsize=(9, 11), sharex=True)
    fig.patch.set_facecolor(SURFACE)
    links, switches = by_kind(run, "link"), by_kind(run, "switch")
    rigs, sims = by_kind(run, "rig"), by_kind(run, "sim")

    ax = axes[0]
    plot_ranked(ax, t_us, links, "utilization", saturation_rank, top,
                scale=100.0)
    ax.axhline(90.0, color=TEXT_MUTED, linewidth=0.8, linestyle=":",
               zorder=2)
    ax.set_ylim(0, 105)
    style(ax, f"Link utilization (top {top} by time at >= 90%, dotted)",
          "%")

    ax = axes[1]
    plot_ranked(ax, t_us, switches, "outQueueBytes",
                lambda e: (0, max(e["series"]["outQueueBytes"],
                                  default=0.0)),
                top, scale=1e-3)
    style(ax, f"Switch output backlog (top {top} by peak)", "KB")

    ax = axes[2]
    cache_series = ["cacheHits", "cacheMisses", "cacheInserts"]
    for i, name in enumerate(cache_series):
        total = [sum(sw["series"][name][k] for sw in switches)
                 for k in range(len(t_us))]
        ax.plot(t_us, total, color=SERIES_COLORS[i], linewidth=1.8,
                label=name, zorder=3)
    ax.legend(loc="upper right", fontsize=8, frameon=False,
              labelcolor=TEXT_MUTED)
    style(ax, "Property-Cache activity, all switches", "per interval")

    ax = axes[3]
    inflight = [sum(r["series"]["inflightPrs"][k] for r in rigs)
                for k in range(len(t_us))]
    ax.plot(t_us, inflight, color=SERIES_COLORS[0], linewidth=1.8,
            zorder=3)
    style(ax, "In-flight PRs, all nodes", "PRs")

    ax = axes[4]
    for sim in sims:
        ax.plot(t_us, sim["series"]["events"], color=SERIES_COLORS[0],
                linewidth=1.8, zorder=3)
    style(ax, "Simulator event throughput", "events/interval")
    ax.set_xlabel("simulated time (us)", fontsize=8, color=TEXT_MUTED)

    label = run.get("label", f"run {args.run}")
    fig.suptitle(f"NetSparse telemetry: {label}", x=0.01, ha="left",
                 fontsize=11, color=TEXT)
    fig.tight_layout(rect=(0, 0, 1, 0.98))
    fig.savefig(args.out, dpi=150, facecolor=SURFACE)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
