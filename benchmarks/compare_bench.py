"""Diff two ``BENCH_*.json`` artifacts and gate on headline regressions.

CI regenerates a benchmark artifact on every run; this tool compares it
against the committed baseline and exits non-zero when a *headline*
metric regressed beyond tolerance — turning a silent perf cliff into a
red check with the offending numbers in the log.

Usage::

    python benchmarks/compare_bench.py BASELINE CURRENT \
        [--tolerance PCT] [--metric PATH[:DIRECTION[:PCT]] ...]

Both artifacts must carry the same ``schema`` tag and the same
``quick`` flag (quick and full runs use different corpora, so their
numbers are not comparable; ``--allow-scale-mismatch`` overrides when
you really mean it).

Each known schema ships a registry of headline metrics — dotted paths
with ``*`` wildcards, a direction, and a per-metric tolerance.  Exact
metrics (``divergences``, extent counts) fail on *any* unfavourable
change; ratio metrics (modeled speedups) fail when the current value
falls below ``baseline * (1 - tolerance)``.  Wall-clock throughput is
deliberately not gated by default: runner-to-runner wall noise would
make the check cry wolf, and every bench already enforces its own
full-scale wall bars.  ``--metric`` adds ad-hoc paths on top of (or,
for unknown schemas, instead of) the registry.

Metrics present in the baseline but missing from the current artifact
fail the gate (a deleted headline is a regression in itself); metrics
new in the current artifact are ignored — the next baseline refresh
picks them up.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: direction → (is_regression(baseline, current, tolerance), phrasing)
HIGHER = "higher"
LOWER = "lower"
EXACT = "exact"

#: headline metrics per artifact schema: (path, direction, tolerance)
#: — tolerance is a fraction, ignored for ``exact``
REGISTRY: dict[str, list[tuple[str, str, float]]] = {
    "bench_sched/1": [
        # the paper-critical invariant: both gates stay at zero
        ("schedulers.divergences", EXACT, 0.0),
        ("extent_split.divergences", EXACT, 0.0),
        # the split must keep engaging (a planner regression shows up
        # here as a fallback long before any wall number moves)
        ("extent_split.binaries.*.extents", EXACT, 0.0),
        # modeled speedups are dispatch/critical-path accounting, far
        # steadier than wall — but still timing-derived, so the
        # tolerance absorbs runner noise while catching collapse
        ("schedulers.profiles.*.model.modeled_speedup", HIGHER, 0.5),
        ("extent_split.binaries.*.modeled_speedup", HIGHER, 0.5),
    ],
    "bench_pipeline/1": [
        # optimized and reference pipelines must agree on every case
        ("differential.divergences", EXACT, 0.0),
        # column scan vs frozen decoder, optimized vs reference inspect:
        # same-run ratios, so host speed cancels; the tolerance absorbs
        # quick-mode noise while catching a collapse of the hot path
        ("decode.speedup", HIGHER, 0.5),
        ("inspect.*.speedup", HIGHER, 0.5),
    ],
    "bench_slo/1": [
        ("executor.divergences", EXACT, 0.0),
        ("executor.profiles.*.shm_vs_pickle_speedup", HIGHER, 0.5),
    ],
}


def _walk(payload, path: list[str], prefix: list[str]):
    """Yield ``(dotted_path, value)`` for every match of *path*."""
    if not path:
        yield ".".join(prefix), payload
        return
    head, rest = path[0], path[1:]
    if isinstance(payload, list):
        # list elements are addressed by index ("*" matches every one)
        keys = (range(len(payload)) if head == "*"
                else [int(head)] if head.isdigit() and int(head) < len(payload)
                else [])
        for key in keys:
            yield from _walk(payload[key], rest, prefix + [str(key)])
        return
    if not isinstance(payload, dict):
        return
    keys = list(payload) if head == "*" else ([head] if head in payload else [])
    for key in keys:
        yield from _walk(payload[key], rest, prefix + [key])


def compare(
    baseline: dict,
    current: dict,
    metrics: list[tuple[str, str, float]],
) -> list[str]:
    """Return one problem string per regressed headline metric."""
    problems: list[str] = []
    for path, direction, tolerance in metrics:
        base_values = dict(_walk(baseline, path.split("."), []))
        cur_values = dict(_walk(current, path.split("."), []))
        if not base_values:
            problems.append(f"{path}: not present in baseline")
            continue
        for where, base in sorted(base_values.items()):
            if where not in cur_values:
                problems.append(f"{where}: present in baseline, missing now")
                continue
            cur = cur_values[where]
            if not isinstance(base, (int, float)) or isinstance(base, bool):
                continue
            if direction == EXACT:
                if cur != base:
                    problems.append(f"{where}: was {base}, now {cur}")
            elif direction == HIGHER:
                floor = base * (1.0 - tolerance)
                if cur < floor:
                    problems.append(
                        f"{where}: {cur} fell below {floor:.4g} "
                        f"(baseline {base}, tolerance {tolerance:.0%})"
                    )
            elif direction == LOWER:
                ceiling = base * (1.0 + tolerance)
                if cur > ceiling:
                    problems.append(
                        f"{where}: {cur} rose above {ceiling:.4g} "
                        f"(baseline {base}, tolerance {tolerance:.0%})"
                    )
    return problems


def _parse_metric(spec: str, default_tolerance: float) -> tuple[str, str, float]:
    parts = spec.split(":")
    path = parts[0]
    direction = parts[1] if len(parts) > 1 else HIGHER
    if direction not in (HIGHER, LOWER, EXACT):
        raise SystemExit(
            f"bad --metric direction {direction!r} "
            f"(use {HIGHER}/{LOWER}/{EXACT})"
        )
    tolerance = (
        float(parts[2]) / 100.0 if len(parts) > 2 else default_tolerance
    )
    return path, direction, tolerance


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument(
        "--tolerance", type=float, default=None, metavar="PCT",
        help="override every ratio metric's tolerance (percent)",
    )
    parser.add_argument(
        "--metric", action="append", default=[],
        metavar="PATH[:DIRECTION[:PCT]]",
        help="extra dotted metric path (wildcards allowed), e.g. "
        "schedulers.profiles.*.wall_speedup:higher:30",
    )
    parser.add_argument(
        "--allow-scale-mismatch", action="store_true",
        help="compare artifacts whose quick flags differ (numbers from "
        "different corpus scales are normally not comparable)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = json.loads(args.baseline.read_text())
        current = json.loads(args.current.read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot load artifacts: {exc}", file=sys.stderr)
        return 2

    schema = baseline.get("schema")
    if schema != current.get("schema"):
        print(
            f"schema mismatch: baseline {schema!r} vs "
            f"current {current.get('schema')!r}",
            file=sys.stderr,
        )
        return 2
    if (
        baseline.get("quick") != current.get("quick")
        and not args.allow_scale_mismatch
    ):
        print(
            f"scale mismatch: baseline quick={baseline.get('quick')} vs "
            f"current quick={current.get('quick')} "
            "(--allow-scale-mismatch to override)",
            file=sys.stderr,
        )
        return 2

    metrics = list(REGISTRY.get(schema, []))
    if args.tolerance is not None:
        metrics = [
            (path, direction, args.tolerance / 100.0)
            if direction != EXACT else (path, direction, tolerance)
            for path, direction, tolerance in metrics
        ]
    default_tol = (args.tolerance or 10.0) / 100.0
    metrics += [_parse_metric(spec, default_tol) for spec in args.metric]
    if not metrics:
        print(
            f"no headline metrics known for schema {schema!r}; "
            "name some with --metric",
            file=sys.stderr,
        )
        return 2

    problems = compare(baseline, current, metrics)
    checked = sum(
        len(dict(_walk(baseline, path.split("."), [])))
        for path, _, _ in metrics
    )
    if problems:
        print(
            f"{len(problems)} headline regression(s) vs "
            f"{args.baseline} ({checked} metric(s) checked):"
        )
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"no headline regressions vs {args.baseline} "
        f"({checked} metric(s) checked)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
