"""Self-tests for the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/test_selftest.py -q

Fast tests cover nested-span self time, the ten-beyond percentile rule,
the unattributed remainder, the open-loop arrival schedule, the
popularity draw, host-speed calibration and the expectation check; the smoke tests
run each workload briefly (traced, so both halves run) and the bare
directory refusal.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402
from stats import (  # noqa: E402
    beyond, interval_union, percentile, self_times, ten_beyond, unattributed,
)


def test_nested_span_self_time():
    # root 0..10; children overlap each other (1..4, 3..6) and one runs
    # past the root's end (8..12, clipped to 8..10); a grandchild sits
    # inside the first child
    tree = [
        (1, 0.0, 10.0, None),
        (2, 1.0, 4.0, 1),
        (3, 3.0, 6.0, 1),
        (4, 8.0, 12.0, 1),
        (5, 2.0, 3.0, 2),
    ]
    selfs = self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)
    assert interval_union([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_ten_beyond_rule():
    samples = list(range(1, 101))
    assert percentile(samples, 0.9) == 90
    assert percentile(samples, 0.5) == 50
    assert beyond(100, 0.9) == 10 and ten_beyond(100, 0.9)
    assert beyond(99, 0.9) == 9 and not ten_beyond(99, 0.9)
    assert beyond(49, 0.9) == 4
    assert percentile([7.0], 0.9) == 7.0


def test_unattributed_remainder():
    assert unattributed(10.0, [3.0, 2.0, 4.0]) == pytest.approx(1.0)
    # client op 0..1.0 waits on TCP 0.1..0.9 while the daemon inspects
    # 0.2..0.8: attributed = client self 0.2 + daemon 0.6, the TCP wait
    # is covered by the daemon's spans and not counted twice
    trace = [
        (1, "client.submit", 0.0, 1.0, None, "1", 100, None),
        (2, "net.recv_tcp", 0.1, 0.9, 1, "1", 100, {"bytes": 10}),
        (3, "batch.inspect", 0.2, 0.8, None, "1", 200, None),
    ]
    out = spans.layer_metrics(trace, ops=1, e2e_s=1.0, lag_s=0.0,
                              daemon=None, extra={})
    assert out["unattributed_s"] == pytest.approx(0.2)
    assert out["unattributed_share"] == pytest.approx(0.2)
    assert out["net.recv_wait_s"] == pytest.approx(0.8)
    assert out["net.bytes"] == 10
    assert set(out) == {name for name, _unit in spans.PER_LAYER}


def test_churn_schedule_pairs_every_fifth_tenant():
    import random

    import workloads

    times = workloads._schedule(random.Random(4), 30.0)
    assert times == workloads._schedule(random.Random(4), 30.0)
    assert times == sorted(times) and 0.0 <= times[0] and times[-1] < 30.0
    singles = sorted(set(times))
    assert min(b - a for a, b in zip(singles, singles[1:])) >= workloads.CHURN_MIN_GAP_S
    pairs = sum(a == b for a, b in zip(times, times[1:]))
    assert pairs == len(singles) // 5
    assert 300 < len(times) < 420  # mean rate 12/s


def test_zipf_draw_gives_every_seed_the_same_shares():
    import collections
    import random

    import workloads

    weights = [1.0 / (r + 1) ** workloads.CHURN_SKEW for r in range(50)]
    for seed in range(5):
        draw = workloads._zipf_draw(random.Random(seed), 50, 400)
        for count in (150, 200, 400):  # any prefix, as a run's length varies
            got = collections.Counter(draw[:count])
            for i, w in enumerate(weights):
                assert abs(got[i] - count * w / sum(weights)) <= 2.0
    assert workloads._zipf_draw(random.Random(1), 50, 200) != \
        workloads._zipf_draw(random.Random(2), 50, 200)


def test_times_are_divided_by_host_speed():
    import hostspeed
    import run
    import workloads

    ops = [workloads.Op(latency=0.2 * k, ok=True, nbytes=inputs.MIB, speed=2.0)
           for k in (1, 2, 3)]
    phase = workloads.Phase(ops=ops, wall=sum(op.latency / op.speed for op in ops))
    result = workloads.RunResult(phase, setups=[1.0], open_samples=[0.05],
                                 peak_rss_mib=1.0, notes={})
    e2e = run.end_to_end(result)
    assert e2e["latency_p50_s"] == pytest.approx(0.2)
    assert e2e["latency_p90_s"] == pytest.approx(0.3)
    assert e2e["throughput_per_s"] == pytest.approx(3 / 0.6)
    assert e2e["goodput_mib_per_s"] == pytest.approx(3 / 0.6)
    bracket = hostspeed.Bracket()
    assert bracket.last > 0 and bracket.around() > 0


def test_one_changed_byte_in_a_verdict_is_caught():
    inputs.use_source_tree()
    import expect
    from repro.core import EnGarde
    from repro.toolchain import build_libc

    libc = build_libc()
    policies = inputs.build_policies(libc)
    table = expect.Expectations.load()
    label = "pb-7"
    checked = 0
    for _vlabel, kind, raw in inputs.variant_pool(libc)[:9]:
        if kind == "duplicate":
            continue
        wire = EnGarde(policies).inspect(raw, benchmark=label).report.serialize()
        dig = inputs.digest(raw)
        assert table.check_verdict("variants", dig, label, wire, None) is None
        for pos in (0, len(wire) // 2, len(wire) - 1):
            bad = bytearray(wire)
            bad[pos] ^= 0x01
            assert table.check_verdict("variants", dig, label, bytes(bad), None)
        assert table.check_verdict("variants", dig, "pb-8", wire, None)
        checked += 1
    assert checked >= 5


def test_expectations_cross_check_kinds():
    import expect

    doc = json.loads(expect.PATH.read_text())
    expect.Expectations(doc)
    compliant = next(d for d, e in doc["variants"].items() if "compliant" in e["kinds"])
    doc["variants"][compliant]["outcome"] = "reject"
    with pytest.raises(ValueError):
        expect.Expectations(doc)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["provision-apps", "tenant-churn"])
def test_smoke_traced(workload):
    proc = _run(inputs.ROOT, "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {name for name, _unit in spans.PER_LAYER}


def test_bare_directory_refuses():
    bare = inputs.ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(inputs.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(bare, "--workload", "tenant-churn", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
