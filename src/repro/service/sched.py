"""Adaptive dispatch planning for the batch inspection service.

``BatchInspector`` historically submitted **one executor future per
binary** regardless of size.  That is the right shape only in the
middle of the size spectrum:

* **tiny binaries** pay more for the submit/pickle/wake round-trip than
  for their own inspection — the dispatch overhead dominates;
* **huge binaries** serialize the whole batch behind one worker while
  the other workers idle — the critical path is a single decode+scan.

:class:`AdaptiveScheduler` picks a dispatch plan per submission from a
running size/cost model:

``inline``
    run on the caller thread when the *parallel saving* of dispatching
    (estimated cost × (workers-1)/workers) is below the measured
    dispatch-overhead break-even.  With one worker every miss inlines —
    dispatching can only lose.
``micro-batch``
    pack many small binaries into one executor task targeting
    :data:`DEFAULT_MICROBATCH_BYTES` of payload per task; tickets stay
    per-binary in the :class:`~repro.service.shm.SharedArena` and one
    task returns a vector of frozen report wires.
``extent-split``
    partition one huge binary's text section (at least
    :data:`DEFAULT_SPLIT_BYTES`) along its function-extent table and
    decode+scan extents on separate workers (:mod:`repro.core.extent`),
    merging to a bit-identical verdict.

The cost model is deliberately simple and observable: two EMAs (seconds
per payload byte; seconds of per-future overhead, seeded from
:data:`DEFAULT_BREAKEVEN_US`) updated from completed futures.  All
estimates, decisions, and measurements surface in the always-present
``BatchSummary.dispatch`` block (schema :data:`ZERO_SCHED`), so the
daemon's STATUS/METRICS consumers never need schema probes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = [
    "AdaptiveScheduler",
    "DispatchPlan",
    "ZERO_SCHED",
    "DEFAULT_MICROBATCH_BYTES",
    "DEFAULT_SPLIT_BYTES",
    "DEFAULT_BREAKEVEN_US",
]

#: payload target per micro-batch task
DEFAULT_MICROBATCH_BYTES = 256 * 1024
#: size at or above which a binary is considered for extent-splitting
DEFAULT_SPLIT_BYTES = 1024 * 1024
#: seed estimate of per-future dispatch overhead, in microseconds,
#: before any measurement exists
DEFAULT_BREAKEVEN_US = 500

#: seed for the seconds-per-byte cost EMA before any observation
#: (~2 MB/s of inspection throughput, deliberately conservative so the
#: first decisions lean toward dispatching rather than inlining)
_SEED_COST_PER_BYTE = 5e-7
#: EMA smoothing factor for runtime feedback
_ALPHA = 0.2

#: the always-present ``BatchSummary.dispatch`` schema.  Consumers
#: (daemon STATUS/METRICS, fleet aggregation, benchmarks) rely on every
#: key existing in every summary, zeroed when the scheduler did nothing
#: — the same contract as ``ZERO_RESILIENCE`` / ``ZERO_SHARD``.
ZERO_SCHED = {
    "futures_submitted": 0,
    "inlined": 0,
    "micro_batched": 0,
    "micro_batches": 0,
    "extent_split": 0,
    "extents_scanned": 0,
    "split_fallbacks": 0,
    "queue_wait_seconds": 0.0,
    "break_even_seconds": 0.0,
}


@dataclass
class DispatchPlan:
    """One batch's dispatch decision, keyed by cache key."""

    inline: list = field(default_factory=list)
    #: groups of keys; a singleton group is an ordinary per-item future
    groups: list = field(default_factory=list)
    split: list = field(default_factory=list)

    @property
    def futures(self) -> int:
        return len(self.groups)


class AdaptiveScheduler:
    """Per-submission dispatch planner with runtime cost feedback.

    Thread-safe: daemon handler threads share one inspector, so plan
    requests and observations may interleave.
    """

    def __init__(self, *, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._lock = threading.Lock()
        self._cost_per_byte = _SEED_COST_PER_BYTE
        self._overhead = DEFAULT_BREAKEVEN_US * 1e-6
        self._queue_wait_total = 0.0
        self._observations = 0

    # ------------------------------------------------------------ planning

    def estimate_cost(self, nbytes: int) -> float:
        """Estimated inspection seconds for an *nbytes* submission."""
        with self._lock:
            return nbytes * self._cost_per_byte

    @property
    def break_even_seconds(self) -> float:
        """Current estimate of one future's dispatch overhead."""
        with self._lock:
            return self._overhead

    def should_inline(self, nbytes: int) -> bool:
        """True when dispatching *nbytes* cannot pay for its overhead.

        Dispatching wins only when the parallel saving — the work the
        caller thread sheds, ``cost * (workers-1)/workers`` — exceeds
        the per-future overhead.  With one worker the saving is zero
        and every submission inlines.
        """
        with self._lock:
            saving = nbytes * self._cost_per_byte
            saving *= (self.workers - 1) / self.workers
            return saving < self._overhead

    def plan(self, sized: list) -> DispatchPlan:
        """Partition ``[(key, nbytes), ...]`` misses into a dispatch plan.

        Submission order is preserved within each lane so verdict
        fan-out stays deterministic.  With one worker nothing splits
        either: every miss inlines.  A micro-batch closes before the
        member that would take it past the payload target, so a binary
        at or above the target travels alone instead of serializing
        its group-mates behind it on one worker.
        """
        plan = DispatchPlan()
        batchable: list = []
        for key, nbytes in sized:
            if nbytes >= DEFAULT_SPLIT_BYTES and self.workers > 1:
                plan.split.append(key)
            elif self.should_inline(nbytes):
                plan.inline.append(key)
            else:
                batchable.append((key, nbytes))
        group: list = []
        group_bytes = 0
        for key, nbytes in batchable:
            if group and group_bytes + nbytes > DEFAULT_MICROBATCH_BYTES:
                plan.groups.append(group)
                group, group_bytes = [], 0
            group.append(key)
            group_bytes += nbytes
        if group:
            plan.groups.append(group)
        return plan

    # ----------------------------------------------------------- feedback

    def observe_work(self, nbytes: int, seconds: float) -> None:
        """Fold one completed inspection into the cost-per-byte EMA."""
        if nbytes <= 0 or seconds <= 0:
            return
        with self._lock:
            sample = seconds / nbytes
            self._cost_per_byte += _ALPHA * (sample - self._cost_per_byte)
            self._observations += 1

    def observe_dispatch(self, overhead: float, queue_wait: float) -> None:
        """Fold one measured per-future overhead sample into the EMA."""
        with self._lock:
            if overhead > 0:
                self._overhead += _ALPHA * (overhead - self._overhead)
            if queue_wait > 0:
                self._queue_wait_total += queue_wait
            self._observations += 1

    # ------------------------------------------------------------ exports

    def snapshot(self) -> dict:
        """Model state for the ``dispatch`` accounting block."""
        with self._lock:
            return {
                "break_even_seconds": self._overhead,
                "queue_wait_seconds": self._queue_wait_total,
                "cost_per_byte": self._cost_per_byte,
                "observations": self._observations,
                "microbatch_bytes": DEFAULT_MICROBATCH_BYTES,
                "split_bytes": DEFAULT_SPLIT_BYTES,
                "workers": self.workers,
            }
