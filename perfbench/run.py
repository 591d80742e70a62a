"""The repo's benchmark: one command, two named workloads.

    python3 perfbench/run.py --workload provision-apps --seed 1 --seconds 40 --trace 0

Runs one workload through the public entry points tenants use, checks
every outcome against ``expected.json``, prints each metric by name
with its unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Every time is calibrated to a reference host speed (``hostspeed``);
the raw figures are on the ``# details`` line.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs half
the time untraced and half with spans in the generator and the daemon
child, and reports the per-layer metrics, the tracing overhead and the
unattributed remainder.  ``--profile`` also writes cProfile ``.prof``
files (generator and daemon child) under ``.perfbench_out/profile``.
Exits non-zero when any outcome differs from the expectation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import daemon_child
import expect
import inputs
import spans
import workloads
from stats import percentile, quantile_summary

#: end-to-end metrics, in report order, with units
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("throughput_per_s", "ops/s"),
    ("goodput_mib_per_s", "MiB/s"),
    ("session_open_p50_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _positive(kind):
    def parse(text):
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value
    return parse


def calibrated(ops) -> list[float]:
    """Operation latencies divided by their host speed factors."""
    return [op.latency / op.speed for op in ops]


def end_to_end(result) -> dict:
    phase = result.phase
    good = [op for op in phase.ops if op.ok]
    latencies = calibrated(phase.ops)
    return {
        "setup_s": statistics.median(result.setups),
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": percentile(latencies, 0.9),
        "throughput_per_s": len(good) / phase.wall,
        "goodput_mib_per_s": sum(op.nbytes for op in good) / phase.wall / inputs.MIB,
        "session_open_p50_s": statistics.median(result.open_samples),
        "peak_rss_mib": result.peak_rss_mib,
    }


def per_layer(result) -> dict:
    base, traced = result.phase, result.traced
    base_p50 = percentile(calibrated(base.ops), 0.5)
    traced_p50 = percentile(calibrated(traced.ops), 0.5)
    base_tput = sum(op.ok for op in base.ops) / base.wall
    traced_tput = sum(op.ok for op in traced.ops) / traced.wall
    extra = dict(traced.extra)
    extra["trace.overhead_p50"] = traced_p50 / base_p50 - 1.0
    extra["trace.overhead_throughput"] = base_tput / traced_tput - 1.0
    return spans.layer_metrics(
        traced.spans,
        ops=len(traced.ops),
        e2e_s=sum(op.latency for op in traced.ops),
        lag_s=sum(op.lag or 0.0 for op in traced.ops),
        daemon=traced.daemon_delta,
        extra=extra,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=_positive(float), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    inputs.use_source_tree()
    from repro.core.provisioning import expected_mrenclave
    from repro.toolchain import build_libc

    out_dir = inputs.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    profile_dir = None
    if args.profile:
        profile_dir = out_dir / "profile"
        profile_dir.mkdir(exist_ok=True)
    ctx = workloads.Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        profile_dir=str(profile_dir) if profile_dir else None,
        out_dir=str(out_dir), expectations=expect.Expectations.load(),
    )
    # generator-side preparation, outside every timed region: the
    # policies the tenant reviewed and the measurement it expects
    libc = build_libc()
    policies = inputs.build_policies(libc)
    expected_mrenclave(policies, **daemon_child.GEOMETRY)

    result = workloads.WORKLOADS[args.workload](ctx, libc, policies)

    ops = result.phase.ops + (result.traced.ops if result.traced else [])
    failed = [op.error for op in ops if not op.ok] + result.failures
    attempted = len(ops) + len(result.failures)
    e2e = end_to_end(result)
    lat = quantile_summary(calibrated(result.phase.ops))
    raw = [op.latency for op in result.phase.ops]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "latency_samples": lat["n"],
        "p90_samples_beyond": lat["p90_beyond"],
        "p90_meets_ten_beyond": lat["p90_ten_beyond"],
        "session_open_samples": len(result.open_samples),
        "setup_samples": len(result.setups),
        "failed_share": len(failed) / attempted,
        "host_factor_p50": statistics.median(op.speed for op in result.phase.ops),
        "raw_latency_p50_s": percentile(raw, 0.5),
        "raw_latency_p90_s": percentile(raw, 0.9),
        **result.notes,
    }
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, unit in END_TO_END:
        print(f"{name:28s} {e2e[name]:14.6g} {unit}")
    print(f"{'failed_share':28s} {details['failed_share']:14.6g} ratio "
          f"({len(failed)} of {attempted})")
    print(f"# latency percentiles over {lat['n']} operations; p90 has "
          f"{lat['p90_beyond']} beyond it"
          + ("" if lat["p90_ten_beyond"] else " (fewer than ten: below the ten-beyond rule)"))
    for error in failed[:10]:
        print(f"# FAILED: {error}")

    if args.trace:
        metrics = per_layer(result)
        units = dict(spans.PER_LAYER)
        for name, unit in spans.PER_LAYER:
            print(f"{name:34s} {metrics[name]:14.6g} {unit}")
        payload = {name: {"value": metrics[name], "unit": units[name]}
                   for name, _unit in spans.PER_LAYER}
    else:
        payload = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print("# details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": payload,
    }))
    sys.stdout.flush()
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
