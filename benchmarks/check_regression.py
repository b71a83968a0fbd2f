"""CI perf-regression gate over the benchmark JSON artefacts.

Compares a freshly measured benchmark JSON (``bench_backends.py`` /
``bench_sweeps.py`` output) against a committed baseline and fails when
any *speedup ratio* degrades below ``tolerance * baseline``.  Gating on
speedup ratios rather than absolute seconds makes the check robust to
the (very different, very noisy) CI machines: a ratio like
"sparse kernel vs dense" or "fused kernel vs numpy" is a property of
the code, not of the host.

Usage (as wired into the ``bench-smoke`` CI job)::

    python benchmarks/check_regression.py \
        --pair benchmarks/baselines/BENCH_backends.quick.json BENCH_backends.json \
        --pair benchmarks/baselines/BENCH_sweeps.quick.json BENCH_sweeps.json \
        --tolerance 0.5

Exit status 0 when every speedup is at least ``tolerance`` times its
baseline value, 1 otherwise.  Speedup keys present only in the baseline
(a benchmark was removed) also fail; keys present only in the current
run (a benchmark was added) are reported informationally.  Only stdlib
is used, so the gate runs before any project dependency is installed.

**Hard floors** (``--floor KEY:MIN[:MINCPUS]``) gate a speedup key in
the *current* artefacts against an absolute minimum, independent of any
baseline — e.g. ``--floor sharded_sweep.speedup_jobs4_vs_jobs1:1.0:4``
demands that sharding actually pays on machines with at least 4 cores.
When the artefact's recorded ``platform.cpu_count`` (fallback: this
host's) is below ``MINCPUS``, the floor is skipped with a loud note
instead of failing — a 1-core runner cannot show a parallel speedup,
and pretending it did would be worse than not checking.  A floor whose
key is missing from every current artefact fails: a silently dropped
benchmark must not disable its gate.

**Hard ceilings** (``--ceiling KEY:MAX[:MINCPUS]``) are the mirror
image for absolute budgets: any numeric key, not only a speedup, must
stay at or below ``MAX`` — e.g. ``--ceiling
stepper.n32_r16.stepper_us_per_rhs:7`` caps the compiled stepper's µs
per RHS evaluation.  Ratio gates alone miss a fixed per-call cost that
both sides of the ratio pay.  The ``MINCPUS`` skip and the missing-key
failure work as for floors.

On failure the report names, per offending key, the committed baseline
file and the exact command that refreshes it — so a PR that
*legitimately* shifts a ratio (a faster kernel changes the denominator,
say) can update ``benchmarks/baselines/*.quick.json`` without spelunking
through CI logs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator

#: numeric fields treated as regression-gated speedup ratios
SPEEDUP_PREFIX = "speedup_"


def iter_numbers(obj, path: str = "") -> Iterator[tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every numeric field in ``obj``."""
    if isinstance(obj, dict):
        for key, value in sorted(obj.items()):
            sub = f"{path}.{key}" if path else str(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                yield sub, float(value)
            else:
                yield from iter_numbers(value, sub)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from iter_numbers(value, f"{path}[{i}]")


def iter_speedups(obj) -> Iterator[tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every speedup field in ``obj``."""
    for key, value in iter_numbers(obj):
        if key.rsplit(".", 1)[-1].startswith(SPEEDUP_PREFIX):
            yield key, value


def refresh_command(baseline: dict, baseline_path: str) -> str:
    """The exact command that re-measures and overwrites a baseline.

    The ``benchmark`` field of the artefact names the producing script
    (``bench_<name>.py`` — the convention every benchmark follows).
    """
    name = baseline.get("benchmark", "<name>")
    quick = " --quick" if baseline.get("quick") else ""
    return (
        f"PYTHONPATH=src python benchmarks/bench_{name}.py{quick} "
        f"--out {baseline_path}"
    )


def parse_bound(arg: str, option: str) -> tuple[str, float, int | None]:
    """Parse a ``KEY:LIMIT[:MINCPUS]`` hard-bound argument of ``option``."""
    usage = f"bad {option} {arg!r}; expected KEY:LIMIT[:MINCPUS]"
    parts = arg.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(usage)
    try:
        limit = float(parts[1])
        min_cpus = int(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise ValueError(usage) from None
    return parts[0], limit, min_cpus


def parse_floor(arg: str) -> tuple[str, float, int | None]:
    """Parse a ``KEY:MIN[:MINCPUS]`` hard-floor argument."""
    return parse_bound(arg, "--floor")


def parse_ceiling(arg: str) -> tuple[str, float, int | None]:
    """Parse a ``KEY:MAX[:MINCPUS]`` hard-ceiling argument."""
    return parse_bound(arg, "--ceiling")


def check_bounds(bounds, currents, ceiling: bool = False) -> list[str]:
    """Apply hard floors (or ceilings) to the current artefacts.

    ``currents`` is a list of ``(label, artefact_dict)``; returns the
    failures.  Bounds with a ``MINCPUS`` limit are skipped (loudly) for
    artefacts measured on hosts with fewer cores.
    """
    if ceiling:
        name, op, limit_name, side = "ceiling", "<=", "maximum", "above"
    else:
        name, op, limit_name, side = "floor", ">=", "minimum", "below"
    failures = []
    for key, limit, min_cpus in bounds:
        found = False
        for label, current in currents:
            values = dict(iter_numbers(current))
            if key not in values:
                continue
            found = True
            cpus = current.get("platform", {}).get("cpu_count") or os.cpu_count() or 1
            if min_cpus is not None and cpus < min_cpus:
                print(
                    f"{label}: hard {name} {key} {op} {limit:.2f} SKIPPED "
                    f"(measured on {cpus} cpu(s); needs >= {min_cpus})"
                )
                continue
            value = values[key]
            ok = value <= limit if ceiling else value >= limit
            status = "ok" if ok else f"{side} {name}".upper()
            print(
                f"{label}: hard {name} {key}: {value:.2f} vs {limit_name} "
                f"{limit:.2f} -> {status}"
            )
            if not ok:
                failures.append(
                    f"{label}: {key} = {value:.2f} is {side} the hard "
                    f"{name} {limit:.2f}"
                )
        if not found:
            failures.append(
                f"hard {name} {key}: key missing from every current artefact"
            )
    return failures


def compare(baseline: dict, current: dict, tolerance: float, label: str) -> list[str]:
    """Return a list of failure messages (empty when the gate passes)."""
    base = dict(iter_speedups(baseline))
    cur = dict(iter_speedups(current))
    failures = []
    for key, base_val in base.items():
        cur_val = cur.get(key)
        if cur_val is None:
            failures.append(
                f"{label}: {key} missing from current run "
                f"(baseline {base_val:.2f}x)"
            )
            continue
        floor = tolerance * base_val
        status = "ok" if cur_val >= floor else "REGRESSION"
        print(
            f"{label}: {key}: baseline {base_val:.2f}x, "
            f"current {cur_val:.2f}x, floor {floor:.2f}x -> {status}"
        )
        if cur_val < floor:
            failures.append(
                f"{label}: {key} degraded to {cur_val:.2f}x "
                f"(baseline {base_val:.2f}x, floor {floor:.2f}x)"
            )
    for key in sorted(set(cur) - set(base)):
        print(f"{label}: {key}: new (no baseline), {cur[key]:.2f}x")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pair",
        nargs=2,
        action="append",
        metavar=("BASELINE", "CURRENT"),
        required=True,
        help="baseline JSON and freshly measured JSON to compare "
        "(repeatable)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="minimum allowed fraction of the baseline speedup "
        "(default 0.5)",
    )
    parser.add_argument(
        "--floor",
        action="append",
        default=[],
        metavar="KEY:MIN[:MINCPUS]",
        help="hard absolute floor for a speedup key in the current "
        "artefacts, skipped loudly when the artefact was measured on "
        "fewer than MINCPUS cores (repeatable)",
    )
    parser.add_argument(
        "--ceiling",
        action="append",
        default=[],
        metavar="KEY:MAX[:MINCPUS]",
        help="hard absolute ceiling for any numeric key (an absolute "
        "budget such as µs per RHS evaluation) in the current artefacts, "
        "skipped loudly like --floor (repeatable)",
    )
    args = parser.parse_args(argv)
    if not (0.0 < args.tolerance <= 1.0):
        parser.error("tolerance must be in (0, 1]")
    try:
        floors = [parse_floor(f) for f in args.floor]
        ceilings = [parse_ceiling(c) for c in args.ceiling]
    except ValueError as exc:
        parser.error(str(exc))

    failures: list[str] = []
    hints: list[str] = []
    currents: list[tuple[str, dict]] = []
    for baseline_path, current_path in args.pair:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        with open(current_path) as fh:
            current = json.load(fh)
        label = current.get("benchmark", current_path)
        currents.append((label, current))
        if baseline.get("quick") != current.get("quick"):
            print(
                f"{label}: warning: comparing quick={current.get('quick')} "
                f"against baseline quick={baseline.get('quick')}"
            )
        pair_failures = compare(baseline, current, args.tolerance, label)
        if pair_failures:
            hints.append(
                f"{label}: committed baseline: {baseline_path}\n"
                f"    if this PR legitimately shifts the ratio, refresh "
                f"it with:\n"
                f"    {refresh_command(baseline, baseline_path)}"
            )
        failures.extend(pair_failures)

    failures.extend(check_bounds(floors, currents))
    failures.extend(check_bounds(ceilings, currents, ceiling=True))

    if failures:
        print(f"\n{len(failures)} perf regression(s):", file=sys.stderr)
        for msg in failures:
            print(f"  - {msg}", file=sys.stderr)
        for hint in hints:
            print(hint, file=sys.stderr)
        return 1
    print("\nperf-regression gate: all speedups within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
