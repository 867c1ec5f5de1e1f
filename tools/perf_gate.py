#!/usr/bin/env python3
"""Perf-smoke gate: compare a bench JSON against the committed baseline.

Each --gate NAME:MIN_RATIO asserts that scenario NAME's events_per_sec in the
current run is at least MIN_RATIO times the committed baseline's. Ratios are
deliberately generous (CI runners are noisy and heterogeneous): the gate exists
to catch order-of-magnitude regressions of the kind that motivated it — the
max-min fabric shipping at 4.8x below the legacy model — not 10% wobble.
Scenarios without a --gate are printed for trend inspection but never fail.

A gated scenario's deterministic fields (DETERMINISTIC_FIELDS: events, queue
peak, digest, the fabric solver's work counters and the fluid servers' work
counters) must also equal the baseline's exactly. They are noise-free, so any difference is an algorithmic
change: the gate names the field, and the baseline must be re-recorded with a
reason.

Each --pair NAME:OTHER:MIN_RATIO[:MAX_RATIO] compares two scenarios *within
the current run* (immune to runner speed): NAME's events_per_sec must be at
least MIN_RATIO times OTHER's. This is the telemetry-overhead gate: the
always-on instrumentation build must stay within 5% of its telemetry-off twin.

Pairs are also checked for *inversion*: NAME (the instrumented side) measuring
faster than OTHER (the stripped side) beyond MAX_RATIO is not a speedup, it is
a broken measurement — unwarmed sides, cold-start costs landing on one side of
the ratio, or mislabeled scenarios — and once such a measurement is committed
as the baseline it silently devalues every later comparison against it.
MAX_RATIO defaults to 1/MIN_RATIO (a symmetric noise band). The committed
baseline's own pair ratio is checked against the same band, so a run that
would freeze an inverted pair into bench/baselines/ fails before it can.

Usage:
  perf_gate.py --baseline bench/baselines/BENCH_simcore.json \
               --current BENCH_simcore.json \
               --gate fabric_churn_maxmin:0.35 \
               --gate fabric_churn_maxmin_audit:0.35 \
               --gate fluid_churn:0.35 \
               --pair fabric_churn_maxmin:fabric_churn_maxmin_telemetry_off:0.95
"""

import argparse
import json
import sys


DETERMINISTIC_FIELDS = (
    "events",
    "max_queue",
    "digest",
    "solves",
    "flows_touched",
    "rate_changes",
    "epochs_flushed",
    "batched_changes",
    "patched_arrivals",
    "patched_departures",
    "timer_rearms",
    "completions",
)


def counter_mismatches(name, current, baseline):
    """One failure line per deterministic field that differs from the baseline."""
    failures = []
    for field in DETERMINISTIC_FIELDS:
        if field not in current and field not in baseline:
            continue
        now, then = current.get(field), baseline.get(field)
        if now != then:
            failures.append(
                f"{name}: {field} is {now} but the baseline records {then}; "
                f"the algorithm changed, re-record with a reason"
            )
    return failures


def load_scenarios(path):
    with open(path) as f:
        doc = json.load(f)
    return {s["name"]: s for s in doc.get("scenarios", [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument(
        "--gate",
        action="append",
        default=[],
        metavar="NAME:MIN_RATIO",
        help=(
            "fail if current events_per_sec < MIN_RATIO * baseline's, or if "
            "any deterministic field differs from the baseline's"
        ),
    )
    parser.add_argument(
        "--pair",
        action="append",
        default=[],
        metavar="NAME:OTHER:MIN_RATIO[:MAX_RATIO]",
        help=(
            "fail if current NAME's events_per_sec < MIN_RATIO * current "
            "OTHER's, or > MAX_RATIO * OTHER's (inverted pair; default "
            "MAX_RATIO = 1/MIN_RATIO). The baseline's pair is checked too."
        ),
    )
    args = parser.parse_args()

    baseline = load_scenarios(args.baseline)
    current = load_scenarios(args.current)

    gates = {}
    for spec in args.gate:
        name, _, ratio = spec.rpartition(":")
        if not name:
            parser.error(f"--gate {spec!r} is not NAME:MIN_RATIO")
        gates[name] = float(ratio)

    failures = []
    width = max((len(n) for n in current), default=0)
    for name, scenario in current.items():
        eps = scenario["events_per_sec"]
        base = baseline.get(name)
        if base is None:
            print(f"{name:<{width}}  {eps:>12,.0f} ev/s  (no baseline entry)")
            continue
        base_eps = base["events_per_sec"]
        ratio = eps / base_eps if base_eps else float("inf")
        line = f"{name:<{width}}  {eps:>12,.0f} ev/s  {ratio:6.2f}x baseline"
        if name in gates:
            floor = gates[name]
            mismatches = counter_mismatches(name, scenario, base)
            failures.extend(mismatches)
            verdict = "ok" if ratio >= floor and not mismatches else "FAIL"
            line += f"  [gate >= {floor:.2f}x: {verdict}]"
            if ratio < floor:
                failures.append(
                    f"{name}: {eps:,.0f} ev/s is {ratio:.2f}x the baseline "
                    f"{base_eps:,.0f} ev/s (gate requires >= {floor:.2f}x)"
                )
        print(line)

    missing = sorted(set(gates) - set(current))
    for name in missing:
        failures.append(f"{name}: gated scenario missing from {args.current}")

    for spec in args.pair:
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            parser.error(f"--pair {spec!r} is not NAME:OTHER:MIN_RATIO[:MAX_RATIO]")
        name, other, floor = parts[0], parts[1], float(parts[2])
        ceiling = float(parts[3]) if len(parts) == 4 else 1.0 / floor
        if ceiling < floor:
            parser.error(f"--pair {spec!r}: MAX_RATIO {ceiling} < MIN_RATIO {floor}")
        for label, scenarios, path in (
            ("current", current, args.current),
            ("baseline", baseline, args.baseline),
        ):
            if name not in scenarios or other not in scenarios:
                if label == "baseline":
                    # A baseline may legitimately predate a scenario; only the
                    # current run is required to carry both sides.
                    continue
                absent = name if name not in scenarios else other
                failures.append(f"{absent}: paired scenario missing from {path}")
                continue
            eps = scenarios[name]["events_per_sec"]
            other_eps = scenarios[other]["events_per_sec"]
            ratio = eps / other_eps if other_eps else float("inf")
            if ratio < floor:
                verdict = "FAIL"
                failures.append(
                    f"{name} ({label}): {eps:,.0f} ev/s is {ratio:.2f}x of "
                    f"{other}'s {other_eps:,.0f} ev/s "
                    f"(pair gate requires >= {floor:.2f}x)"
                )
            elif ratio > ceiling:
                verdict = "FAIL (inverted)"
                failures.append(
                    f"{name} ({label}): {eps:,.0f} ev/s is {ratio:.2f}x of "
                    f"{other}'s {other_eps:,.0f} ev/s — the stripped variant "
                    f"measured slower than the instrumented one (pair gate "
                    f"allows <= {ceiling:.2f}x); this is a measurement "
                    f"artifact (cold start / run ordering), not a speedup"
                )
            else:
                verdict = "ok"
            print(
                f"{name} vs {other} ({label})  {ratio:6.2f}x  "
                f"[pair gate {floor:.2f}x..{ceiling:.2f}x: {verdict}]"
            )

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
