#!/usr/bin/env python3
"""Validate NetSparse observability documents (stdlib only).

Schema-sniffs each input file and checks the structural contract
documented in docs/observability.md:

  netsparse-telemetry-v1  interval timelines (--telemetry-out)
  netsparse-spans-v1      per-PR causal span trees (--spans-out)

Spans get the deep checks the span consumers rely on: hex span ids,
events in causal order, component ids that resolve against the run's
name table, and parent indices that reference an earlier event of the
same span (a dangling parent id is a hard error). Exits nonzero with
one message per violation, so CI can gate on it:

    python3 scripts/validate_outputs.py telemetry.json spans.json
"""

import json
import re
import sys

TELEMETRY_SCHEMA = "netsparse-telemetry-v1"
SPANS_SCHEMA = "netsparse-spans-v1"
TELEMETRY_KINDS = {"link", "switch", "rig", "sim", "tenant"}
SPAN_STAGES = {
    "issue",
    "retransmit",
    "nicEgress",
    "linkTx",
    "switchPipe",
    "cacheHit",
    "cacheMiss",
    "cacheBypass",
    "fetch",
    "retire",
}
HEX_ID = re.compile(r"^[0-9a-f]{16}$")


def is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_telemetry(doc, errors):
    runs = doc.get("runs")
    if not isinstance(runs, list):
        errors.append("runs is not an array")
        return
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not isinstance(run, dict):
            errors.append(f"{where} is not an object")
            continue
        if run.get("run") != i:
            errors.append(f"{where}.run is {run.get('run')!r}, want {i}")
        if not isinstance(run.get("label"), str):
            errors.append(f"{where}.label is not a string")
        for field in ("intervalTicks", "finalTick"):
            if not is_count(run.get(field)):
                errors.append(f"{where}.{field} is not a tick count")
        ticks = run.get("sampleTicks")
        if not isinstance(ticks, list) or not all(
            is_count(t) for t in ticks
        ):
            errors.append(f"{where}.sampleTicks is not an integer array")
            continue
        if ticks != sorted(ticks):
            errors.append(f"{where}.sampleTicks is not sorted")
        n = len(ticks)
        entities = run.get("entities")
        if not isinstance(entities, list):
            errors.append(f"{where}.entities is not an array")
            continue
        seen_ids = set()
        for j, ent in enumerate(entities):
            ewhere = f"{where}.entities[{j}]"
            if not isinstance(ent, dict):
                errors.append(f"{ewhere} is not an object")
                continue
            eid = ent.get("id")
            if not isinstance(eid, str) or not eid:
                errors.append(f"{ewhere}.id is not a non-empty string")
            elif eid in seen_ids:
                errors.append(f"{ewhere}.id {eid!r} is duplicated")
            else:
                seen_ids.add(eid)
            if ent.get("kind") not in TELEMETRY_KINDS:
                errors.append(
                    f"{ewhere}.kind is {ent.get('kind')!r}, "
                    f"want one of {sorted(TELEMETRY_KINDS)}"
                )
            series = ent.get("series")
            if not isinstance(series, dict):
                errors.append(f"{ewhere}.series is not an object")
                continue
            for name, vals in series.items():
                if not isinstance(vals, list) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in vals
                ):
                    errors.append(
                        f"{ewhere}.series[{name!r}] is not a numeric array"
                    )
                elif len(vals) != n:
                    errors.append(
                        f"{ewhere}.series[{name!r}] has {len(vals)} "
                        f"values for {n} sampleTicks"
                    )


def check_span(span, ncomponents, where, errors):
    sid = span.get("spanId")
    if not isinstance(sid, str) or not HEX_ID.match(sid):
        errors.append(f"{where}.spanId is not a 16-digit hex string")
    for field in ("tenant", "src", "srcTid", "reqId", "issueTick",
                  "retireTick", "totalTicks", "retransmits"):
        if not is_count(span.get(field)):
            errors.append(f"{where}.{field} is not a non-negative int")
            return
    if span["retireTick"] < span["issueTick"]:
        errors.append(f"{where} retires before it issues")
    if span["totalTicks"] != span["retireTick"] - span["issueTick"]:
        errors.append(f"{where}.totalTicks does not match issue/retire")
    if not isinstance(span.get("servedByCache"), bool):
        errors.append(f"{where}.servedByCache is not a bool")
    if span.get("kept") not in ("sampled", "tail", "finisher"):
        errors.append(f"{where}.kept is {span.get('kept')!r}")
    if not isinstance(span.get("finisher"), bool):
        errors.append(f"{where}.finisher is not a bool")
    events = span.get("events")
    if not isinstance(events, list) or not events:
        errors.append(f"{where}.events is not a non-empty array")
        return
    prev_tick = None
    for k, ev in enumerate(events):
        vwhere = f"{where}.events[{k}]"
        if not isinstance(ev, dict):
            errors.append(f"{vwhere} is not an object")
            continue
        if ev.get("stage") not in SPAN_STAGES:
            errors.append(
                f"{vwhere}.stage is {ev.get('stage')!r}, want one of "
                f"{sorted(SPAN_STAGES)}"
            )
        for field in ("tick", "durTicks", "comp", "detail"):
            if not is_count(ev.get(field)):
                errors.append(f"{vwhere}.{field} is not a non-negative "
                              "int")
                return
        if ev["comp"] >= ncomponents:
            errors.append(
                f"{vwhere}.comp {ev['comp']} is outside the component "
                f"table ({ncomponents} entries)"
            )
        if prev_tick is not None and ev["tick"] < prev_tick:
            errors.append(f"{vwhere} is out of causal (tick) order")
        prev_tick = ev["tick"]
        parent = ev.get("parent")
        # The dangling-parent check: a parent must be an earlier event
        # of the same span (-1 marks the root), or the tree the
        # critical-path analyzer walks is broken.
        if (
            not isinstance(parent, int)
            or isinstance(parent, bool)
            or parent < -1
            or parent >= k
        ):
            errors.append(
                f"{vwhere}.parent {parent!r} dangles (want -1 or an "
                f"index below {k})"
            )


def check_spans(doc, errors):
    runs = doc.get("runs")
    if not isinstance(runs, list):
        errors.append("runs is not an array")
        return
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not isinstance(run, dict):
            errors.append(f"{where} is not an object")
            continue
        if run.get("run") != i:
            errors.append(f"{where}.run is {run.get('run')!r}, want {i}")
        if not isinstance(run.get("label"), str):
            errors.append(f"{where}.label is not a string")
        for field in ("sampleEvery", "tailKeep", "tailThresholdTicks",
                      "finalTick", "recordedSpans"):
            if not is_count(run.get(field)):
                errors.append(f"{where}.{field} is not a non-negative "
                              "int")
        seed = run.get("seed")
        if not isinstance(seed, str) or not HEX_ID.match(seed):
            errors.append(f"{where}.seed is not a 16-digit hex string")
        if not isinstance(run.get("fidelity"), str):
            errors.append(f"{where}.fidelity is not a string")
        components = run.get("components")
        if not isinstance(components, list) or not all(
            isinstance(c, str) for c in components
        ):
            errors.append(f"{where}.components is not a string array")
            continue
        spans = run.get("spans")
        if not isinstance(spans, list):
            errors.append(f"{where}.spans is not an array")
            continue
        if is_count(run.get("recordedSpans")) and len(spans) > run[
            "recordedSpans"
        ]:
            errors.append(
                f"{where} keeps {len(spans)} spans but records only "
                f"{run['recordedSpans']}"
            )
        seen = set()
        order = []
        for j, span in enumerate(spans):
            swhere = f"{where}.spans[{j}]"
            if not isinstance(span, dict):
                errors.append(f"{swhere} is not an object")
                continue
            check_span(span, len(components), swhere, errors)
            sid = span.get("spanId")
            if isinstance(sid, str):
                if sid in seen:
                    errors.append(f"{swhere}.spanId {sid} is duplicated")
                seen.add(sid)
            if is_count(span.get("totalTicks")) and isinstance(sid, str):
                order.append((-span["totalTicks"], sid))
        if order != sorted(order):
            errors.append(
                f"{where}.spans is not sorted by (total desc, id asc)"
            )


def validate_file(path):
    """Returns a list of violation messages (empty = valid)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [str(e)]
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    schema = doc.get("schema")
    errors = []
    if schema == TELEMETRY_SCHEMA:
        check_telemetry(doc, errors)
    elif schema == SPANS_SCHEMA:
        check_spans(doc, errors)
    else:
        errors.append(
            f"schema is {schema!r}, want {TELEMETRY_SCHEMA!r} or "
            f"{SPANS_SCHEMA!r}"
        )
    if not errors:
        runs = doc["runs"]
        if schema == TELEMETRY_SCHEMA:
            samples = sum(len(r["sampleTicks"]) for r in runs)
            print(
                f"{path}: valid {schema}: {len(runs)} run(s), "
                f"{samples} sample(s)"
            )
        else:
            kept = sum(len(r["spans"]) for r in runs)
            recorded = sum(r["recordedSpans"] for r in runs)
            print(
                f"{path}: valid {schema}: {len(runs)} run(s), "
                f"{recorded} span(s) recorded, {kept} kept"
            )
    return errors


def main(argv):
    if len(argv) < 2:
        print(f"usage: {argv[0]} DOCUMENT.json...", file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        for e in validate_file(path):
            print(f"{path}: {e}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
