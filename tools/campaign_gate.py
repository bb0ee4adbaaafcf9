#!/usr/bin/env python3
"""Regression gate over BENCH_*.json snapshots (DESIGN.md §17).

Diffs a freshly generated benchmark snapshot against the committed
baseline, field by field, under configurable tolerance bands:

    campaign_gate.py --baseline BENCH_faults.json --candidate new.json
    campaign_gate.py --baseline BENCH_sim.json --candidate new.json \\
        --band '*events_per_s=10'

Every leaf value is flattened to a dotted path ("crash_rate_2.prr",
"campus_1100.median_events_per_s").  Numeric leaves compare under the first
matching band (fnmatch glob -> max relative deviation); non-numeric leaves
and structure (missing / extra paths) must match exactly.

Default bands encode what the snapshots promise: deterministic fields
(events, nodes, counters, prr, throughput) hold tight bands, because the
engine is bit-reproducible and only a real behaviour change can move them;
wall-time fields (events_per_s, construct_ms, speedup) hold a band wide
enough for a quiet machine but tight enough that a genuine slowdown — the
acceptance criterion is a 20 % events/s regression — still fails; peak
memory (peak_rss_mb) holds about 10 %, so a 20 % rise fails.  CI passes
explicitly wide --band overrides for the wall-time and memory fields on
shared runners; the defaults are tuned for like-for-like hardware.

Exit codes: 0 in tolerance, 1 regression (every violation listed),
2 usage/IO error.  `--self-test` checks the gate against itself: the
baseline must pass against itself, and a synthetic 20 % events/s
regression, a 20 % peak-RSS rise and a 5 % prr drift must each fail under
default bands.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path

# (glob, max relative deviation).  First match wins; '*' catches the rest.
# Order: most specific first.
DEFAULT_BANDS = [
    ("*events_per_s", 0.15),  # wall-time: noisy, but a 20% loss must fail
    ("*construct_ms", 0.15),  # wall-time of the engine's set-up alone
    ("*peak_rss_mb", 0.10),   # process VmHWM: a 20% rise must fail
    ("*speedup", 0.25),       # ratio of two wall-times: noisier
    ("*prr", 0.02),           # deterministic given (config, seed)
    ("*throughput_kbps", 0.02),
    ("*", 0.0),               # everything else: exact (events, counts, ...)
]


def flatten(value, prefix=""):
    """Leaves of a JSON tree as {dotted_path: value}."""
    out = {}
    if isinstance(value, dict):
        for key, child in value.items():
            path = f"{prefix}.{key}" if prefix else key
            out.update(flatten(child, path))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            out.update(flatten(child, f"{prefix}[{i}]"))
    else:
        out[prefix] = value
    return out


def parse_band(spec: str):
    """'glob=percent' -> (glob, fraction); 10 means 10% allowed deviation."""
    if "=" not in spec:
        raise ValueError(f"--band '{spec}': expected GLOB=PERCENT")
    glob, _, pct = spec.rpartition("=")
    try:
        frac = float(pct) / 100.0
    except ValueError as err:
        raise ValueError(f"--band '{spec}': bad percent '{pct}'") from err
    if not glob or frac < 0:
        raise ValueError(f"--band '{spec}': expected GLOB=PERCENT >= 0")
    return glob, frac


def band_for(path: str, bands) -> float:
    for glob, frac in bands:
        if fnmatch.fnmatch(path, glob):
            return frac
    return 0.0


def compare(baseline: dict, candidate: dict, bands, only=None) -> list[str]:
    """Every violated path, humanly described.  Empty means in tolerance.
    `only` (a list of globs) restricts the comparison to matching paths —
    how CI gates a smoke-sized candidate against the full baseline."""
    base = flatten(baseline)
    cand = flatten(candidate)
    if only:
        base = {p: v for p, v in base.items()
                if any(fnmatch.fnmatch(p, g) for g in only)}
        cand = {p: v for p, v in cand.items()
                if any(fnmatch.fnmatch(p, g) for g in only)}
    problems = []
    for path in sorted(base.keys() - cand.keys()):
        problems.append(f"{path}: missing from candidate")
    for path in sorted(cand.keys() - base.keys()):
        problems.append(f"{path}: not in baseline (new field)")
    for path in sorted(base.keys() & cand.keys()):
        b, c = base[path], cand[path]
        numeric = isinstance(b, (int, float)) and isinstance(c, (int, float)) \
            and not isinstance(b, bool) and not isinstance(c, bool)
        if not numeric:
            if b != c:
                problems.append(f"{path}: {b!r} != {c!r}")
            continue
        tol = band_for(path, bands)
        if b == c:
            continue
        denom = max(abs(b), abs(c), 1e-12)
        dev = abs(c - b) / denom
        if dev > tol:
            problems.append(
                f"{path}: {b} -> {c} ({dev * 100.0:+.1f}% deviation, "
                f"band {tol * 100.0:.0f}%)")
    return problems


def load(path: Path) -> dict:
    with path.open(encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")
    return doc


def self_test(baseline_path: Path, bands) -> int:
    """The gate's own acceptance: identity passes, injected regressions
    fail.  Uses the real committed snapshot so the check covers the same
    paths CI gates on."""
    baseline = load(baseline_path)
    failures = 0

    if compare(baseline, baseline, bands):
        print("self-test: baseline does not pass against itself")
        failures += 1

    # Each injected regression scales one kind of field in every cell and
    # must fail under default bands: a 20% events/s loss (the throughput
    # acceptance criterion), a 20% peak-RSS rise and a 5% prr drift on a
    # deterministic field.
    for suffix, factor, what in (("events_per_s", 0.8,
                                  "20% events/s regression"),
                                 ("peak_rss_mb", 1.2, "20% peak-RSS rise"),
                                 ("prr", 0.95, "5% prr drift")):
        injected = json.loads(json.dumps(baseline))
        touched = 0
        for cell in injected.values():
            if isinstance(cell, dict):
                for key in cell:
                    if key.endswith(suffix):
                        cell[key] = cell[key] * factor
                        touched += 1
        if touched and not compare(baseline, injected, bands):
            print(f"self-test: {what} NOT caught")
            failures += 1

    if failures:
        print(f"self-test FAILED: {failures} mismatch(es)")
        return 1
    print(f"self-test OK against {baseline_path.name} "
          f"(identity passes, injected regressions fail)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed snapshot (the contract)")
    parser.add_argument("--candidate", type=Path, default=None,
                        help="freshly generated snapshot to check")
    parser.add_argument("--band", action="append", default=[],
                        metavar="GLOB=PERCENT",
                        help="tolerance override, first match wins "
                             "(e.g. '*events_per_s=10'); may repeat")
    parser.add_argument("--default-band", type=float, default=None,
                        metavar="PERCENT",
                        help="replace the catch-all exact band")
    parser.add_argument("--only", action="append", default=[],
                        metavar="GLOB",
                        help="restrict the comparison to matching dotted "
                             "paths (e.g. 'grid_*'); may repeat")
    parser.add_argument("--self-test", action="store_true",
                        help="check the gate against the baseline itself "
                             "plus injected synthetic regressions")
    args = parser.parse_args()

    try:
        bands = [parse_band(spec) for spec in args.band]
    except ValueError as err:
        print(f"campaign_gate: {err}", file=sys.stderr)
        return 2
    bands += DEFAULT_BANDS
    if args.default_band is not None:
        bands = [(g, f) for g, f in bands if g != "*"]
        bands.append(("*", args.default_band / 100.0))

    try:
        if args.self_test:
            return self_test(args.baseline, bands)
        if args.candidate is None:
            print("campaign_gate: --candidate required (or --self-test)",
                  file=sys.stderr)
            return 2
        baseline = load(args.baseline)
        candidate = load(args.candidate)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"campaign_gate: {err}", file=sys.stderr)
        return 2

    problems = compare(baseline, candidate, bands, only=args.only)
    for p in problems:
        print(f"REGRESSION {p}")
    if problems:
        print(f"campaign_gate: {len(problems)} field(s) out of tolerance "
              f"({args.baseline.name} vs {args.candidate.name})")
        return 1
    print(f"campaign_gate: {args.candidate.name} within tolerance of "
          f"{args.baseline.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
