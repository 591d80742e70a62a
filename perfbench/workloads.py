"""The two workloads: what a tenant pays to get a checked enclave.

* ``provision-apps`` — closed loop, one client: the seven paper apps,
  each provisioned end to end with :func:`repro.core.provisioning.provision`
  against one long-lived :class:`~repro.core.provisioning.CloudProvider`.
  The only path that runs the loader, EADD/EEXTEND measurement and the
  EPC; decode and policies dominate it.
* ``tenant-churn`` — open loop at a fixed arrival rate, two sender
  threads (the main one and one for pair partners): every arrival is a new tenant (TCP connect, HELLO, ATTEST,
  handshake, one SUBMIT, BYE) with a small variant binary drawn with
  skewed popularity.  Per-session and per-request overhead does the work.

The daemon runs in a child process (``daemon_child.py``) and is driven
over loopback TCP through :class:`~repro.service.InspectionClient`.

Every timed piece of work is bracketed by host-speed probes
(``hostspeed``): each operation, set-up and open-loop arrival carries
the factor its times are divided by when they are reported.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import json
import os
import random
import resource
import selectors
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import hostspeed
import inputs
import spans
from spans import LABEL_PREFIX

perf = time.perf_counter

#: set-ups per run (daemon spawns; provider constructions); ``setup_s``
#: is their median
SETUP_REPEATS = 6
PROVIDER_SETUPS = 9
#: reference blocks per host-speed probe around a set-up (a probe
#: between operations takes one block in each process it covers)
PROBE_BLOCKS = 2
#: provision-apps: SGX machine shape of the provisioning benchmark
APP_EPC_PAGES = 8192
APP_HEAP_PAGES = 512
#: tenant-churn: gaps between arrivals (reference seconds), a minimum
#: plus an exponential, and a longer minimum after a pair; the mean
#: arrival rate, pair partners included, is 6 / (5 * CHURN_MEAN_GAP_S +
#: CHURN_PAIR_GAP_S) = 12/s.  A session takes 3-5 ms to open and
#: ~12 ms in all when it has the daemon to itself; a pair's partner
#: builds an enclave inline (~100 ms).  The gaps leave room for that
#: and for the host-speed probe after each arrival, so a send is
#: seldom late
CHURN_MEAN_GAP_S = 0.08
CHURN_MIN_GAP_S = 0.05
CHURN_PAIR_GAP_S = 0.10
CHURN_WARMUP_S = 2.0
#: Zipf exponent of the variant popularity draw.  No trace of
#: inspection-service traffic exists to fit it to; it is borrowed from
#: web-request popularity, which follows a Zipf-like law with exponent
#: 0.64-0.83 across proxy traces (Breslau et al., "Web Caching and
#: Zipf-like Distributions: Evidence and Implications", INFOCOM 1999),
#: taking the top of that range.  Rank is the corpus order, which cycles
#: through the variant kinds, so every kind has a popular entry.  The
#: resulting kind mix and cache hit ratio are printed on the details line
CHURN_SKEW = 0.83
CHILD_START_TIMEOUT = 120.0


@dataclass
class Op:
    """One operation: a provision, or one SUBMIT -> verdict."""

    latency: float
    ok: bool
    nbytes: int
    open_s: float | None = None
    lag: float | None = None
    error: str | None = None
    #: open loop: the scheduled send, and the variant kind submitted
    start: float = 0.0
    kind: str | None = None
    #: host speed factor around the operation; the times above are raw
    #: and are divided by it when reported
    speed: float = 1.0


@dataclass
class Phase:
    """Everything one measured phase produced."""

    ops: list = field(default_factory=list)
    #: the clock throughput is measured on: the time some operation was
    #: in progress (the union of the operation intervals), calibrated
    wall: float = 0.0
    spans: list = field(default_factory=list)
    daemon_delta: dict | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class RunResult:
    phase: Phase
    #: calibrated set-up times
    setups: list
    open_samples: list
    peak_rss_mib: float
    notes: dict
    traced: Phase | None = None
    #: run-level checks that failed (not tied to one operation)
    failures: list = field(default_factory=list)


class Context:
    """Per-run settings shared by the workloads."""

    def __init__(self, *, seed: int, seconds: float, trace: bool,
                 profile_dir: str | None, out_dir: str, expectations) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.profile_dir = profile_dir
        self.out_dir = out_dir
        self.expect = expectations
        self.rng = random.Random(seed)


# ---------------------------------------------------------------- daemon

class DaemonChild:
    """The daemon child process, from spawn to drained exit."""

    def __init__(self, ctx: Context, name: str, *, trace: bool) -> None:
        self.trace_path = (
            os.path.join(ctx.out_dir, f"spans-{name}-daemon.jsonl") if trace else None
        )
        argv = [sys.executable, os.path.join(inputs.HERE, "daemon_child.py")]
        if self.trace_path:
            argv += ["--trace", self.trace_path]
        if ctx.profile_dir:
            argv += ["--profile", os.path.join(ctx.profile_dir, f"{name}-daemon.prof")]
        self.t_spawn = perf()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=str(inputs.ROOT), text=True,
        )
        self.announce = json.loads(self._readline(CHILD_START_TIMEOUT))
        self.exit_info: dict = {}

    def _readline(self, timeout: float) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                self.kill()
                raise RuntimeError("daemon child did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            code = self.proc.wait(10)
            raise RuntimeError(f"daemon child exited with {code} before answering")
        return line

    def client(self, policies, tenant: int):
        from repro.crypto import HmacDrbg
        from repro.net import tcp
        from repro.service import InspectionClient, device_key_from_announce

        host, port = self.announce["host"], self.announce["port"]
        return InspectionClient(
            policies, device_key_from_announce(self.announce),
            # module attribute, so a traced run's wrapper is the one called
            lambda: tcp.connect_tcp(host, port, timeout=30.0),
            rng=HmacDrbg(b"perfbench-tenant-%d" % tenant), timeout=30.0,
        )

    def metrics(self, policies) -> dict:
        return self.client(policies, -1).metrics()

    def probe(self, blocks: int) -> float:
        """Host-speed factor where a session runs: probed in the child,
        then in the generator (one after the other, while no operation
        is in flight), the mean of the two."""
        self.proc.stdin.write(f"probe {blocks}\n")
        self.proc.stdin.flush()
        there = json.loads(self._readline(30.0))["factor"]
        return (there + hostspeed.factor(blocks)) / 2.0


    def stop(self) -> dict:
        """Close stdin (the child drains and exits); returns its exit
        record (peak RSS, free EPC pages)."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                line = self._readline(60.0)
                self.exit_info = json.loads(line)
            finally:
                self.proc.wait(60)
        return self.exit_info

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(10)


def daemon_delta(before: dict, after: dict) -> dict:
    """STATUS/METRICS counters over the measured phase (counts only)."""

    def diff(path):
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    return {
        "pool.checkouts": diff(("pool", "checkouts")),
        "pool.misses": diff(("pool", "misses")),
        # the closing METRICS probe's own connection is already open
        "connections": diff(("counters", "connections.opened")) - 1,
        "refused": diff(("counters", "connections.refused")),
        "request_s": diff(("latency", "request", "sum_seconds")),
        "cache.hits": diff(("cache", "hits")),
        "cache.misses": diff(("cache", "misses")),
        "sched.inline": diff(("sched", "inlined")),
        "sched.microbatch": diff(("sched", "micro_batched")),
        "sched.split": diff(("sched", "extent_split")),
    }


def spawn_daemons(ctx: Context, name: str, policies, count: int, *, trace=False):
    """Spawn *count* daemons one after another, each timed from spawn to
    its first attested session; all but the last are stopped at once.

    Returns ``(calibrated setup times, raw setup times, live daemon)``.
    """
    setups, raws = [], []
    daemon = None
    for i in range(count):
        if daemon is not None:
            daemon.stop()
        before = hostspeed.factor(PROBE_BLOCKS)
        daemon = DaemonChild(ctx, name, trace=trace and i == count - 1)
        try:
            client = daemon.client(policies, 1_000_000 + i)
            client.open()
            end = perf()
            client.close()
        except BaseException:
            daemon.kill()
            raise
        raws.append(end - daemon.t_spawn)
        setups.append(raws[-1] / ((before + hostspeed.factor(PROBE_BLOCKS)) / 2.0))
    return setups, raws, daemon


# ---------------------------------------------------------- provisioning

def _provision_apps(ctx: Context, libc, policies) -> RunResult:
    from repro.core.provisioning import CloudProvider, EnclaveClient, provision
    from repro.crypto import HmacDrbg
    from repro.sgx import SgxParams

    apps = inputs.app_pool(libc)
    digests = {name: inputs.digest(raw) for name, raw, _pages in apps}

    class StampedClient(EnclaveClient):
        """Marks when the attested channel is up (session open)."""

        opened_at = 0.0

        def send_content(self) -> None:
            self.opened_at = perf()
            super().send_content()

    setups, raws = [], []
    provider = None
    bracket = hostspeed.Bracket(lambda: hostspeed.factor(PROBE_BLOCKS))
    for i in range(PROVIDER_SETUPS):
        t0 = perf()
        provider = CloudProvider(
            policies,
            params=SgxParams(epc_pages=APP_EPC_PAGES,
                             heap_initial_pages=APP_HEAP_PAGES),
            rng=HmacDrbg(b"perfbench-provider-%d" % i),
        )
        raws.append(perf() - t0)
        setups.append(raws[-1] / bracket.around())
    machine = provider.machine
    epc_start = machine.epc.free_pages
    submissions = itertools.count(1)

    def one(name: str, raw: bytes, pages: int, tracer) -> Op:
        sub = next(submissions)
        label = f"{LABEL_PREFIX}{sub}"
        if tracer is not None:
            tracer.set_submission(str(sub))
        client = StampedClient(
            raw, policies=policies, benchmark=label,
            rng=HmacDrbg(b"perfbench-client-%d" % sub),
        )
        provider.client_pages = pages
        t0 = perf()
        result = provision(provider, client)
        latency = perf() - t0
        reason = ctx.expect.check_provision(digests[name], label, result)
        # a departing tenant's host tears the enclave down
        if result.runtime is not None:
            machine.eexit(result.runtime.enclave)
            machine.destroy(result.runtime.enclave)
        opened = client.opened_at - t0 if client.opened_at > 0 else None
        return Op(latency, reason is None, len(raw), open_s=opened, error=reason)

    def rotations(seconds: float, tracer=None) -> Phase:
        """Whole rotations of the seven apps until their summed raw
        time reaches *seconds* (one rotation at least), each operation
        bracketed by host-speed probes."""
        phase = Phase()
        elapsed = 0.0
        bracket = hostspeed.Bracket()
        while not phase.ops or elapsed < seconds:
            order = list(apps)
            ctx.rng.shuffle(order)
            for name, raw, pages in order:
                op = one(name, raw, pages, tracer)
                op.speed = bracket.around()
                phase.ops.append(op)
                elapsed += op.latency
                phase.wall += op.latency / op.speed
        return phase

    rotations(0.0)  # warm-up: one untimed rotation
    profiler = _start_profile(ctx)
    if ctx.trace:
        half = ctx.seconds / 2
        phase = rotations(half)
        tracer = spans.install(spans.Tracer())
        try:
            traced = rotations(half, tracer)
        finally:
            tracer.uninstall()
        traced.spans = tracer.spans
        spans.dump_spans(_spans_path(ctx, "provision-apps"), traced.spans)
    else:
        phase = rotations(ctx.seconds)
        traced = None
    _stop_profile(ctx, profiler, "provision-apps")
    epc_end = machine.epc.free_pages
    notes = {"epc_free_pages_start": epc_start, "epc_free_pages_end": epc_end}
    failures = []
    if epc_end != epc_start:
        failures.append(f"EPC leak: {epc_start} free pages at start, {epc_end} at end")
    for p in (phase, traced):
        if p is not None:
            p.extra["sgx.epc_free_pages_end"] = float(epc_end)
    notes["setup_raw_p50_s"] = statistics.median(raws)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    opens = [op.open_s / op.speed for op in phase.ops if op.open_s is not None]
    return RunResult(phase, setups, opens, rss, notes, traced, failures)


# ------------------------------------------------------------ tenant-churn

def _schedule(rng: random.Random, seconds: float) -> list[float]:
    """Arrival times over ``[0, seconds)``.

    Single tenants arrive with gaps of ``CHURN_MIN_GAP_S`` plus an
    exponential (mean gap ``CHURN_MEAN_GAP_S``); every fifth brings a
    partner at the same instant, who finds the size-1 enclave pool
    checked out and pays an inline enclave build, and the gap after a
    pair is ``CHURN_PAIR_GAP_S`` longer.  So one in six sessions is a
    pool miss, the p90 falls among them, and the median among sessions
    that had the daemon to themselves.
    """
    extra = CHURN_MEAN_GAP_S - CHURN_MIN_GAP_S
    times = []
    t = rng.expovariate(1.0 / extra)
    while t < seconds:
        times.append(t)
        if len(times) % 6 == 5:
            times.append(t)
            t += CHURN_PAIR_GAP_S
        t += CHURN_MIN_GAP_S + rng.expovariate(1.0 / extra)
    return times


def _zipf_draw(rng: random.Random, n: int, count: int) -> list[int]:
    """*count* indices in ``range(n)``, Zipf-skewed: index ``i`` has
    popularity rank ``i`` of the fixed pool order.

    The draw is a low-discrepancy sequence, not independent draws:
    draw ``k`` takes the Zipf quantile at the fractional part of
    ``u + k * 0.618...`` (golden-ratio steps) for one seeded offset
    ``u``.  Every prefix of the draws holds each entry's expected share
    to within a few draws, so the kind mix of a run (and with it the
    median latency, which falls where compliant submissions meet the
    rest) does not move with the seed or the run's length, as it would
    with independent draws.
    """
    weights = [1.0 / (r + 1) ** CHURN_SKEW for r in range(n)]
    cum = list(itertools.accumulate(weights))
    step = (5 ** 0.5 - 1) / 2
    u = rng.random()
    return [bisect.bisect_right(cum, (u + k * step) % 1.0 * cum[-1]) for k in range(count)]


def _tenant_churn(ctx: Context, libc, policies) -> RunResult:
    pool = inputs.variant_pool(libc)
    digests = [inputs.digest(raw) for _label, _kind, raw in pool]
    setups, raws, daemon = spawn_daemons(ctx, "tenant-churn", policies, SETUP_REPEATS)
    tenants = itertools.count(1)
    tenant_lock = threading.Lock()

    def one(index: int, scheduled: float, tracer) -> Op:
        with tenant_lock:
            me = next(tenants)
        label = f"{LABEL_PREFIX}{me}"
        _vlabel, kind, raw = pool[index]
        start = perf()
        if tracer is not None:
            tracer.set_submission(str(me))
        client = daemon.client(policies, me)
        try:
            t_open = perf()
            client.open()
            open_s = perf() - t_open
            verdict = client.inspect(raw, label)
        finally:
            client.close()
        end = perf()
        wire = verdict.wire if verdict.report is not None else None
        reason = ctx.expect.check_verdict(
            "variants", digests[index], label, wire, verdict.error,
        )
        return Op(end - scheduled, reason is None, len(raw), open_s=open_s,
                  lag=start - scheduled, error=reason, start=scheduled, kind=kind)

    def attempt(index: int, scheduled: float, tracer) -> Op:
        try:
            return one(index, scheduled, tracer)
        except Exception as exc:  # counted as a failed operation
            return Op(perf() - scheduled, False, 0, lag=0.0,
                      error=f"{type(exc).__name__}: {exc}",
                      start=scheduled, kind=pool[index][1])

    def load(seconds: float, tracer=None) -> Phase:
        """Arrivals for *seconds* of real time.

        This thread sends each single tenant; a pair partner is sent at
        the same instant from a second thread.  Once every tenant of an
        arrival has its verdict, a host-speed probe runs in the daemon
        child and here, while nothing is in flight.  An arrival's times
        are divided by the mean of the probes before and after it, and
        the gap to the next arrival (reference seconds) is stretched by
        the latest probe, so the daemon sees the same share of its
        capacity on a slow host as on a fast one.  A send that falls due
        while the previous arrival still runs goes out late and is timed
        from its due instant.
        """
        # schedule enough for a host four times the reference speed
        times = _schedule(ctx.rng, 4 * seconds)
        picks = _zipf_draw(ctx.rng, len(pool), len(times))
        phase = Phase()
        bracket = hostspeed.Bracket(lambda: daemon.probe(1))
        t_start = due = busy_until = perf()
        previous = 0.0
        i = 0
        with ThreadPoolExecutor(max_workers=1) as partner:
            while i < len(times):
                due += (times[i] - previous) * bracket.last
                previous = times[i]
                if due - t_start >= seconds:
                    break
                delay = due - perf()
                if delay > 0:
                    time.sleep(delay)
                j = i + 1
                while j < len(times) and times[j] == times[i]:
                    j += 1
                partners = [partner.submit(attempt, picks[k], due, tracer)
                            for k in range(i + 1, j)]
                group = [attempt(picks[i], due, tracer)]
                group += [f.result() for f in partners]
                speed = bracket.around()
                for op in group:
                    op.speed = speed
                # busy time, not elapsed time: the arrivals follow the
                # schedule, so ops over elapsed time would read the
                # offered load
                end = max(op.start + op.latency for op in group)
                phase.wall += (end - max(due, busy_until)) / speed
                busy_until = end
                phase.ops += group
                i = j
        return phase

    try:
        load(CHURN_WARMUP_S)
        profiler = _start_profile(ctx)
        if ctx.trace:
            phase = _measured(daemon, policies, load, ctx.seconds / 2)
            daemon.stop()
            _s, _r, daemon = spawn_daemons(ctx, "tenant-churn", policies, 1, trace=True)
            load(CHURN_WARMUP_S)
            traced = _traced(ctx, daemon, policies, load, ctx.seconds / 2,
                             "tenant-churn")
        else:
            phase = _measured(daemon, policies, load, ctx.seconds)
            traced = None
        _stop_profile(ctx, profiler, "tenant-churn")
    finally:
        info = daemon.stop()
    lags = [op.lag / op.speed for op in phase.ops if op.lag is not None]
    delta = phase.daemon_delta
    lookups = delta["cache.hits"] + delta["cache.misses"]
    notes = {
        "arrival_rate_per_s": 6 / (5 * CHURN_MEAN_GAP_S + CHURN_PAIR_GAP_S),
        "lag_p50_s": statistics.median(lags),
        "lag_max_s": max(lags),
        "lag_n": len(lags),
        "zipf_skew": CHURN_SKEW,
        "kind_mix": dict(sorted(collections.Counter(op.kind for op in phase.ops).items())),
        "cache_hit_ratio": delta["cache.hits"] / lookups if lookups else 0.0,
        "pool_miss_ratio": delta["pool.misses"] / max(delta["pool.checkouts"], 1),
        "setup_raw_p50_s": statistics.median(raws),
    }
    if traced is not None:
        tl = [op.lag / op.speed for op in traced.ops if op.lag is not None]
        traced.extra["loadgen.lag_p50_s"] = statistics.median(tl)
        traced.extra["loadgen.lag_max_s"] = max(tl)
        traced.extra["sgx.epc_free_pages_end"] = float(info.get("epc_free_pages", 0))
    rss = info.get("maxrss_kb", 0) / 1024.0
    opens = [op.open_s / op.speed for op in phase.ops if op.open_s is not None]
    return RunResult(phase, setups, opens, rss, notes, traced)


def _measured(daemon, policies, load, seconds) -> Phase:
    before = daemon.metrics(policies)
    phase = load(seconds)
    phase.daemon_delta = daemon_delta(before, daemon.metrics(policies))
    return phase


def _traced(ctx, daemon, policies, load, seconds, name) -> Phase:
    """One measured phase with spans in the generator and the child."""
    before = daemon.metrics(policies)
    tracer = spans.install(spans.Tracer())
    t0 = perf()
    try:
        phase = load(seconds, tracer)
    finally:
        tracer.uninstall()
    t1 = perf()
    phase.daemon_delta = daemon_delta(before, daemon.metrics(policies))
    info = daemon.stop()
    child = spans.load_spans(daemon.trace_path)
    phase.spans = tracer.spans + [s for s in child if t0 <= s[2] <= t1]
    spans.dump_spans(_spans_path(ctx, name), phase.spans)
    phase.extra["sgx.epc_free_pages_end"] = float(info.get("epc_free_pages", 0))
    return phase


def _spans_path(ctx: Context, name: str) -> str:
    """Where a traced phase's spans (both processes) are written."""
    return os.path.join(ctx.out_dir, f"spans-{name}.jsonl")


# ---------------------------------------------------------------- profile

def _start_profile(ctx: Context):
    if not ctx.profile_dir:
        return None
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    return profiler


def _stop_profile(ctx: Context, profiler, name: str) -> None:
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(os.path.join(ctx.profile_dir, f"{name}-generator.prof"))


WORKLOADS = {
    "provision-apps": _provision_apps,
    "tenant-churn": _tenant_churn,
}
