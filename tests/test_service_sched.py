"""Adaptive scheduler: plan selection and wire-exact dispatch.

The contract: the pooled modes' adaptive dispatch may change *how*
verdicts are produced (inline / micro-batch / extent-split) but never
*what* they are — every report wire and terminal error class matches
the ``mode="serial"`` oracle, and all dispatch activity surfaces in the
always-present ``BatchSummary.dispatch`` block (``ZERO_SCHED`` schema,
pinned here like ``ZERO_RESILIENCE`` / ``ZERO_SHARD``).
"""

from __future__ import annotations

import json
import time

import pytest

import repro.service.sched as sched_mod
from repro.faults import FakeClock, FaultPlan, FaultSpec, injected
from repro.service import BatchInspector
from repro.service.corpus import generate_variant_corpus
from repro.service.sched import (
    DEFAULT_MICROBATCH_BYTES,
    DEFAULT_SPLIT_BYTES,
    ZERO_SCHED,
    AdaptiveScheduler,
)

from tests.conftest import compile_demo


@pytest.fixture(scope="module")
def good_elf(libc):
    return compile_demo(libc, stack_protector=True, ifcc=True, name="sched").elf


@pytest.fixture(scope="module")
def big_elf(libc):
    """A binary large enough to clear the extent planner's 4KiB-per-
    extent floor, so the split lane actually dispatches scan tasks."""
    from repro.toolchain.workloads import build_workload

    return build_workload(
        "bzip2", scale=1.0, libc=libc, stack_protector=True, ifcc=True
    ).elf


@pytest.fixture(scope="module")
def small_corpus(libc):
    return generate_variant_corpus(12, libc=libc)


def _force_split(monkeypatch, raw):
    """Lower the split threshold so *raw* takes the extent-split lane."""
    monkeypatch.setattr(sched_mod, "DEFAULT_SPLIT_BYTES", len(raw))


def _wires(report):
    return [
        (r.label, r.report.serialize() if r.report else None, r.error)
        for r in report.results
    ]


# -------------------------------------------------------- plan selection


def test_single_worker_inlines_everything():
    sched = AdaptiveScheduler(workers=1)
    plan = sched.plan([
        ("a", 100), ("b", 50_000), ("c", 200_000), ("d", DEFAULT_SPLIT_BYTES),
    ])
    # dispatching can never pay for itself with nobody to parallelize to
    assert plan.inline == ["a", "b", "c", "d"]
    assert not plan.groups and not plan.split


def test_huge_binaries_route_to_extent_split():
    sched = AdaptiveScheduler(workers=4)
    plan = sched.plan([("big", DEFAULT_SPLIT_BYTES), ("small", 8_192)])
    assert plan.split == ["big"]
    assert "big" not in [k for g in plan.groups for k in g]


def test_micro_batches_target_payload_bytes():
    sched = AdaptiveScheduler(workers=4)
    item_bytes = DEFAULT_MICROBATCH_BYTES // 4
    sized = [(f"k{i}", item_bytes) for i in range(12)]
    plan = sched.plan(sized)
    assert not plan.split
    # groups pack up to the target (except possibly the last)
    assert all(len(g) == 4 for g in plan.groups[:-1])
    assert [k for g in plan.groups for k in g] + plan.inline == [
        k for k, _ in sized
    ]


def test_micro_batch_never_packs_past_the_target():
    """A binary bigger than the remaining room starts a new group: two
    mid-size binaries and a large one (the sizes of bzip2, mcf and
    graph500 at scale 1.0) become two futures, not one."""
    sched = AdaptiveScheduler(workers=2)
    plan = sched.plan([("a", 122_536), ("b", 68_128), ("c", 525_192)])
    assert plan.groups == [["a", "b"], ["c"]]


def test_cost_feedback_moves_the_break_even():
    sched = AdaptiveScheduler(workers=4)
    before = sched.break_even_seconds
    sched.observe_dispatch(overhead=10 * before, queue_wait=0.001)
    assert sched.break_even_seconds > before
    # and a very cheap measured cost makes small items inline-eligible
    for _ in range(50):
        sched.observe_work(1_000_000, 1e-6)
    assert sched.should_inline(10_000)


# ------------------------------------------------- differential battery


@pytest.fixture(scope="module")
def serial_oracle(all_policies, small_corpus, big_elf):
    """Serial wires for the variant corpus plus the huge binary."""
    corpus = small_corpus + [("huge", big_elf)]
    with BatchInspector(all_policies, mode="serial", cache=False) as serial:
        return corpus, _wires(serial.inspect_batch(corpus))


@pytest.mark.parametrize("mode", ["process", "thread"])
def test_pooled_modes_match_serial_oracle(
    monkeypatch, all_policies, serial_oracle, big_elf, mode
):
    """Full variant corpus plus a forced-split huge binary through each
    pooled mode: report wires are byte-identical to the serial oracle
    and error labels agree."""
    corpus, expected = serial_oracle
    _force_split(monkeypatch, big_elf)
    with BatchInspector(
        all_policies, mode=mode, workers=2, cache=False,
    ) as pooled:
        report = pooled.inspect_batch(corpus)
    assert _wires(report) == expected
    d = report.summary.dispatch
    assert d["inlined"] + d["micro_batched"] > 0
    assert d["extent_split"] >= 1


def test_adaptive_split_lane_matches_oracle(
    monkeypatch, all_policies, big_elf
):
    """Force the extent-split lane (tiny split threshold) and hold the
    verdict wire identical to the serial oracle."""
    with BatchInspector(all_policies, mode="serial", cache=False) as serial:
        expected = _wires(serial.inspect_batch([("x", big_elf)]))
    _force_split(monkeypatch, big_elf)
    with BatchInspector(
        all_policies, mode="process", workers=2, cache=False,
    ) as adaptive:
        report = adaptive.inspect_batch([("x", big_elf)])
    assert _wires(report) == expected
    d = report.summary.dispatch
    assert d["extent_split"] == 1
    assert d["extents_scanned"] >= 2


def test_dispatch_overhead_excludes_the_callers_inline_work(
    monkeypatch, all_policies, good_elf
):
    """A group finishes while the caller is still busy on the inline
    lane.  That wait is not dispatch overhead: folded into the
    break-even it would push every later miss inline for good, since
    inlined work never measures a future again."""
    from repro.core.engarde import EnGarde

    tiny = b"\x7fELF" + bytes(60)  # rejected fast; inlines at the seed
    original = EnGarde.inspect

    def slow_tiny(self, raw_elf, *, benchmark="client"):
        if bytes(raw_elf) == tiny:
            time.sleep(0.3)
        return original(self, raw_elf, benchmark=benchmark)

    monkeypatch.setattr(EnGarde, "inspect", slow_tiny)
    with BatchInspector(
        all_policies, mode="thread", workers=2, cache=False,
    ) as inspector:
        report = inspector.inspect_batch([("g", good_elf), ("t", tiny)])
        d = report.summary.dispatch
        assert d["micro_batches"] == 1 and d["inlined"] == 1
        assert inspector._sched.break_even_seconds < 0.03


# --------------------------------------------------- timeouts / zombies


def test_timed_out_micro_batch_zombies_every_ticket(all_policies, libc):
    """A hung micro-batch worker may still be attached to *every* slot
    in its group: all tickets park on the zombie list (bytes stay in
    use), and close() reclaims them safely."""
    corpus = [
        (f"t{i}", compile_demo(libc, stack_protector=True, name=f"zb{i}").elf)
        for i in range(3)
    ]
    inspector = BatchInspector(
        all_policies, mode="process", workers=2, cache=False,
        timeout=1e-6,
    )
    report = inspector.inspect_batch(corpus)
    for item in report.results:
        assert item.report is None
        assert "timeout" in (item.error or "")
    stats = inspector.arena_stats()
    assert stats is not None and stats["bytes_in_use"] > 0
    inspector.close()
    assert inspector.arena_stats() is None

    # the inspector recovers once the rush is off
    inspector.timeout = None
    again = inspector.inspect_batch(corpus)
    assert all(r.report is not None for r in again.results)
    inspector.close()


# ----------------------------------------------------- fault-plan drills


def test_extent_worker_fault_fails_the_verdict_closed(
    monkeypatch, all_policies, big_elf
):
    """Seeded drill: a crash while scanning ONE extent of a split binary
    must fail the whole verdict with a typed error — never a partial or
    silently-recomputed verdict.  Reuses the existing
    ``service.batch.worker`` hook; no new fault points."""
    _force_split(monkeypatch, big_elf)
    clock = FakeClock()
    plan = FaultPlan(
        [FaultSpec(hook="service.batch.worker", kind="raise",
                   after=1, max_triggers=1)],
        clock=clock,
    )
    inspector = BatchInspector(
        all_policies, mode="thread", workers=2, cache=False, clock=clock,
    )
    with injected(plan):
        report = inspector.inspect_batch([("x", big_elf)])
    inspector.close()
    item = report.results[0]
    assert item.report is None
    assert item.error is not None
    assert item.error.startswith("WorkerCrashError:")
    assert report.summary.errors == 1
    assert report.summary.dispatch["futures_submitted"] >= 2


def test_group_crash_reruns_members_per_item(all_policies, libc):
    """A whole-group worker crash re-runs its members one future each —
    one transient fault costs an extra round-trip, not a batch of
    errors."""
    corpus = [
        (f"g{i}", compile_demo(libc, stack_protector=True, name=f"gc{i}").elf)
        for i in range(3)
    ]
    clock = FakeClock()
    plan = FaultPlan(
        [FaultSpec(hook="service.batch.worker", kind="raise",
                   after=0, max_triggers=1)],
        clock=clock,
    )
    inspector = BatchInspector(
        all_policies, mode="thread", workers=2, cache=False, clock=clock,
    )
    with injected(plan):
        report = inspector.inspect_batch(corpus)
    inspector.close()
    assert all(r.report is not None for r in report.results)
    assert report.summary.errors == 0


def test_inline_lane_honors_retries(all_policies, good_elf):
    """The inline lane goes through the same retry/backoff machinery as
    the serial driver — a transient crash recovers on retry with the
    exact backoff schedule."""
    clock = FakeClock()
    plan = FaultPlan(
        [FaultSpec(hook="service.batch.worker", kind="raise",
                   after=0, max_triggers=1)],
        clock=clock,
    )
    inspector = BatchInspector(
        all_policies, mode="process", workers=1, cache=False,
        retries=1, backoff_base=0.05, clock=clock,
    )
    with injected(plan):
        report = inspector.inspect_batch([("a", good_elf)])
    inspector.close()
    item = report.results[0]
    assert item.report is not None
    assert report.summary.dispatch["inlined"] == 1
    assert report.summary.resilience["retry_attempts"] == 1
    assert clock.sleeps == [0.05]


# --------------------------------------------------------- schema pins


def test_dispatch_schema_is_stable(all_policies, good_elf):
    """``summary.dispatch`` is ALWAYS present with the full ZERO_SCHED
    key set — zeroed on the serial path, live on the pooled ones — so
    STATUS/METRICS consumers never branch on key presence."""
    serial = BatchInspector(all_policies, mode="serial")
    payload = json.loads(serial.inspect_batch([("a", good_elf)]).to_json())
    assert payload["summary"]["dispatch"] == ZERO_SCHED

    with BatchInspector(
        all_policies, mode="process", workers=2, cache=False,
    ) as pooled:
        block = pooled.inspect_batch([("a", good_elf)]).summary.dispatch
    assert set(block) == set(ZERO_SCHED)
    assert block["inlined"] + block["futures_submitted"] == 1

    schema = {
        "futures_submitted": int, "inlined": int,
        "micro_batched": int, "micro_batches": int,
        "extent_split": int, "extents_scanned": int, "split_fallbacks": int,
        "queue_wait_seconds": (int, float),
        "break_even_seconds": (int, float),
    }
    for candidate in (block, ZERO_SCHED):
        assert set(candidate) == set(schema)
        for key, types in schema.items():
            assert isinstance(candidate[key], types), key


def test_daemon_status_and_metrics_grow_sched_block(all_policies):
    from tests.conftest import small_daemon

    daemon = small_daemon(all_policies)
    try:
        assert daemon.status()["sched"] == ZERO_SCHED
        assert daemon.metrics_snapshot()["sched"] == ZERO_SCHED
    finally:
        daemon.stop()

    pooled = small_daemon(all_policies, inspector_mode="thread", workers=2)
    try:
        assert set(pooled.status()["sched"]) == set(ZERO_SCHED)
    finally:
        pooled.stop()
        pooled.inspector.close()
