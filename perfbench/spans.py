"""Spans around each layer's public calls, and per-layer metrics.

:func:`install` wraps the public functions of every layer at class or
module level (a module-level function is replaced in every ``repro``
module that imported it), so every call site is caught without touching
the program.  A :class:`Tracer` keeps spans in memory — name, start,
end, parent, submission id, plus a few counts taken from arguments or
results — and writes them out once, at exit.

Spans are only recorded in a traced run; end-to-end figures come from
untraced runs.  The submission id travels in the SUBMIT label
(``pb-<id>``): the generator sets it before each operation, the daemon
child picks it up when the label is decoded.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

from stats import self_times, unattributed

__all__ = [
    "Tracer", "install", "dump_spans", "load_spans", "LAYERS", "PER_LAYER",
    "layer_metrics",
]

LABEL_PREFIX = "pb-"


class Tracer:
    """In-memory span recorder shared by every wrapped call."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self.pid = os.getpid()

    # ----------------------------------------------------------- context

    def set_submission(self, sub: str | None) -> None:
        self._local.sub = sub

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, counts=None, root: bool = False):
        """*fn* timed as a span called *name* (or ``name(args)``).

        *counts* maps ``(result, args)`` to a dict of counts stored with
        the span; *root* clears the submission id when the span opens
        (one daemon connection may carry several submissions).
        """
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            if root:
                tracer._local.sub = None
            stack.append(span_id)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span_id, name, args, start, parent, {"raised": 1})
                raise
            tracer._close(span_id, name, args, start, parent,
                          counts(result, args) if counts is not None else None)
            return result

        return traced

    def _close(self, span_id, name, args, start, parent, extra) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((
            span_id, name if isinstance(name, str) else name(args),
            start, end, parent, getattr(self._local, "sub", None),
            self.pid, extra,
        ))

    # ---------------------------------------------------------- patching

    def patch_method(self, cls, attr: str, name, counts=None, root=False) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, counts, root))
        self._patches.append((cls, attr, original))

    def patch_function(self, module, attr: str, name, counts=None) -> None:
        """Replace *module.attr* in every loaded ``repro`` module that
        bound the same function object (``from x import f`` included)."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, counts)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def dump_spans(path: str, spans) -> None:
    """Write spans as JSON lines."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def load_spans(path: str) -> list[tuple]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


# ------------------------------------------------------------ the layers

def _len_arg(i):
    return lambda result, args: {"bytes": len(args[i])}


def _len_result(result, args):
    return {"bytes": len(result)}


def _insns(result, args):
    return {"insns": len(result.instructions)}


def _retries(result, args):
    return {"retries": result.attempts - 1}


def _hashes(result, args):
    return {"hashes": result.stats.get("hashes_computed", 0)}


def _pages(result, args):
    return {"pages": result.pages_mapped}


def _label_reader(tracer: Tracer):
    """Counts hook for a decoded SUBMIT/SUBMIT_BEGIN: the label carries
    the submission id, which later spans on this thread inherit."""

    def read(result, args):
        label = result[0]
        if isinstance(label, str) and label.startswith(LABEL_PREFIX):
            tracer.set_submission(label[len(LABEL_PREFIX):])
        return None

    return read


def _policy_name(args) -> str:
    return "policy." + args[0].name


#: ``(kind, module, attribute, span name, counts)``.  ``method`` entries
#: are ``Class.method``; ``function`` entries are module-level names.
_TARGETS = (
    ("method", "repro.service.client", "InspectionClient.open", "client.open", None),
    ("method", "repro.service.client", "InspectionClient.inspect", "client.submit", _retries),
    ("method", "repro.service.client", "InspectionClient.inspect_streamed", "client.submit", _retries),
    ("method", "repro.service.client", "InspectionClient.close", "client.close", None),
    ("method", "repro.service.pool", "EnclavePool.checkout", "pool.checkout", None),
    ("method", "repro.service.pool", "EnclavePool._build", "pool.build", None),
    ("method", "repro.sgx.attestation", "QuotingEnclave.quote", "attest.quote", None),
    ("function", "repro.sgx.attestation", "verify_quote", "attest.verify", None),
    ("method", "repro.crypto.channel", "ServerHandshake.complete", "handshake", None),
    ("function", "repro.crypto.channel", "client_handshake", "handshake", None),
    ("method", "repro.crypto.channel", "SecureChannel.send", "channel.send", _len_arg(1)),
    ("method", "repro.crypto.channel", "SecureChannel.recv", "channel.recv", _len_result),
    ("method", "repro.crypto.channel", "SecureChannel.recv_into",
     "channel.recv", lambda result, args: {"bytes": result}),
    ("function", "repro.service.protocol", "encode_message", "protocol.frame", None),
    ("function", "repro.service.protocol", "decode_message", "protocol.frame", None),
    ("function", "repro.service.protocol", "encode_submit", "protocol.codec", None),
    ("function", "repro.service.protocol", "decode_submit", "protocol.codec", "label"),
    ("function", "repro.service.protocol", "encode_submit_begin", "protocol.codec", None),
    ("function", "repro.service.protocol", "decode_submit_begin", "protocol.codec", "label"),
    ("function", "repro.service.protocol", "encode_verdict", "protocol.codec", None),
    ("function", "repro.service.protocol", "decode_verdict", "protocol.codec", None),
    ("function", "repro.service.protocol", "encode_error", "protocol.codec", None),
    ("function", "repro.service.protocol", "quote_to_bytes", "protocol.codec", None),
    ("function", "repro.service.protocol", "quote_from_bytes", "protocol.codec", None),
    ("function", "repro.net.tcp", "connect_tcp", "net.connect", None),
    ("method", "repro.net.tcp", "TcpSocket.send", "net.send", _len_arg(1)),
    ("method", "repro.net.tcp", "TcpSocket.recv", "net.recv_tcp", _len_result),
    ("method", "repro.net.sock", "SimSocket.send", "net.send", _len_arg(1)),
    ("method", "repro.net.sock", "SimSocket.recv", "net.recv_mem", _len_result),
    ("method", "repro.service.daemon", "InspectionDaemon._serve_connection",
     "daemon.connection", None),
    ("method", "repro.service.daemon", "InspectionDaemon._inspect", "daemon.inspect", None),
    ("method", "repro.service.cache", "InspectionCache.key_for", "cache.op", None),
    ("method", "repro.service.cache", "InspectionCache.get", "cache.op", None),
    ("method", "repro.service.cache", "InspectionCache.put", "cache.op", None),
    ("method", "repro.service.batch", "BatchInspector.inspect_batch", "batch.inspect", None),
    ("function", "repro.elf.reader", "read_elf", "elf.read", _len_arg(0)),
    ("method", "repro.core.disasm", "Disassembler.run", "disasm", _insns),
    ("method", "repro.core.disasm", "Disassembler.run_streamed", "disasm", _insns),
    ("function", "repro.x86.validator", "validate", "validate", None),
    ("function", "repro.x86.validator", "validate_fast", "validate", None),
    ("method", "repro.core.policies.library_linking", "LibraryLinkingPolicy.check",
     _policy_name, _hashes),
    ("method", "repro.core.policies.stack_protection", "StackProtectionPolicy.check",
     _policy_name, None),
    ("method", "repro.core.policies.ifcc", "IfccPolicy.check", _policy_name, None),
    ("method", "repro.core.report", "ComplianceReport.serialize", "report.serialize",
     _len_result),
    ("method", "repro.core.provisioning", "CloudProvider.start_session",
     "provision.session_start", None),
    ("method", "repro.core.provisioning", "CloudProvider.attest", "provision.attest", None),
    ("method", "repro.core.provisioning", "EnclaveClient.verify_attestation",
     "provision.verify", None),
    ("method", "repro.core.provisioning", "EnclaveClient.open_channel",
     "provision.open_channel", None),
    ("method", "repro.core.provisioning", "EnclaveClient.send_content", "provision.send", None),
    ("method", "repro.core.provisioning", "CloudProvider.run_engarde",
     "provision.run_engarde", None),
    ("method", "repro.core.provisioning", "CloudProvider.finalize", "provision.finalize", None),
    ("method", "repro.core.provisioning", "EnclaveClient.receive_verdict",
     "provision.receive_verdict", None),
    ("method", "repro.core.loader", "Loader.load", "loader.load", _pages),
)

#: root spans reset the submission id (one connection, many submissions)
_ROOTS = {"daemon.connection"}


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public calls; returns *tracer*."""
    for kind, mod_name, attr, name, counts in _TARGETS:
        if counts == "label":
            counts = _label_reader(tracer)
        module = importlib.import_module(mod_name)
        if kind == "method":
            cls_name, meth = attr.split(".")
            tracer.patch_method(
                getattr(module, cls_name), meth, name, counts,
                root=name in _ROOTS,
            )
        else:
            tracer.patch_function(module, attr, name, counts)
    return tracer


# ----------------------------------------------------- per-layer metrics

#: the layer table recorded with the benchmark: which module each
#: metric measures, which end-to-end metric it should move, and the
#: workload it shows on / stays flat on
LAYERS = (
    ("service.client", ("client.open_s", "client.submit_s", "client.retries"),
     "session_open_p50_s, latency_p50_s", "tenant-churn", "provision-apps"),
    ("service.pool", ("pool.checkouts", "pool.misses", "pool.miss_ratio", "pool.build_s"),
     "latency_p90_s, session_open_p50_s", "tenant-churn", "provision-apps"),
    ("sgx.attestation", ("attest.count", "attest.s"),
     "session_open_p50_s", "tenant-churn, provision-apps", "-"),
    ("crypto.channel", ("handshake.s", "channel.records", "channel.bytes",
                        "channel.send_s", "channel.recv_s"),
     "goodput_mib_per_s, latency_p50_s", "provision-apps, tenant-churn", "-"),
    ("service.protocol", ("protocol.frames", "protocol.codec_s"),
     "goodput_mib_per_s", "tenant-churn", "provision-apps"),
    ("net", ("net.frames", "net.bytes", "net.send_s", "net.recv_wait_s"),
     "goodput_mib_per_s", "provision-apps, tenant-churn", "-"),
    ("service.daemon", ("daemon.connections", "daemon.refused", "daemon.request_s",
                        "daemon.inspect_wait_s"),
     "latency_p90_s", "tenant-churn", "provision-apps"),
    ("service.cache", ("cache.lookups", "cache.hits", "cache.hit_ratio", "cache.s"),
     "throughput_per_s", "tenant-churn", "provision-apps"),
    ("service.batch + service.sched", ("batch.calls", "batch.s", "sched.inline",
                                       "sched.microbatch", "sched.split"),
     "latency_p50_s", "tenant-churn", "provision-apps"),
    ("elf.reader", ("elf.images", "elf.bytes", "elf.parse_s"),
     "goodput_mib_per_s", "provision-apps, tenant-churn", "-"),
    ("core.disasm + x86.decoder", ("decode.insns", "decode.s", "decode.insns_per_s"),
     "latency_p50_s, throughput_per_s", "provision-apps", "tenant-churn"),
    ("x86.validator", ("validate.s",), "latency_p50_s", "provision-apps", "tenant-churn"),
    ("core.policies", ("policy.library-linking.s", "policy.stack-protection.s",
                       "policy.indirect-function-call.s", "policy.hashes_computed"),
     "latency_p50_s, throughput_per_s", "provision-apps", "tenant-churn"),
    ("core.report", ("report.serialize_s", "report.bytes"),
     "none expected (small everywhere)", "-", "-"),
    ("core.provisioning", ("provision.session_start_s", "provision.attest_s",
                           "provision.verify_s", "provision.send_s",
                           "provision.run_engarde_s", "provision.finalize_s"),
     "latency_p50_s, latency_p90_s", "provision-apps", "tenant-churn (not called)"),
    ("core.loader + sgx", ("loader.load_s", "loader.pages", "sgx.epc_free_pages_end"),
     "latency_p50_s, peak_rss_mib", "provision-apps", "tenant-churn"),
    ("accounting", ("trace.overhead_p50", "trace.overhead_throughput",
                    "unattributed_s", "unattributed_share",
                    "loadgen.lag_p50_s", "loadgen.lag_max_s", "ops_traced"),
     "-", "-", "-"),
)

_UNITS = {
    "client.retries": "count/op", "pool.checkouts": "count/op",
    "pool.misses": "count/op", "pool.miss_ratio": "ratio",
    "attest.count": "count/op", "channel.records": "count/op",
    "channel.bytes": "B/op", "protocol.frames": "count/op",
    "net.frames": "count/op", "net.bytes": "B/op",
    "daemon.connections": "count/op", "daemon.refused": "count/op",
    "cache.lookups": "count/op", "cache.hits": "count/op",
    "cache.hit_ratio": "ratio", "batch.calls": "count/op",
    "sched.inline": "count/op", "sched.microbatch": "count/op",
    "sched.split": "count/op", "elf.images": "count/op", "elf.bytes": "B/op",
    "decode.insns": "count/op", "decode.insns_per_s": "1/s",
    "policy.hashes_computed": "count/op", "report.bytes": "B/op",
    "loader.pages": "count/op", "sgx.epc_free_pages_end": "pages",
    "trace.overhead_p50": "ratio", "trace.overhead_throughput": "ratio",
    "unattributed_s": "s/op", "unattributed_share": "ratio",
    "loadgen.lag_p50_s": "s", "loadgen.lag_max_s": "s", "ops_traced": "count",
}

#: every per-layer metric, in table order, with its unit
PER_LAYER = tuple(
    (name, _UNITS.get(name, "s/op"))
    for _layer, names, _moves, _shows, _flat in LAYERS
    for name in names
)

#: span name -> per-op time metric (inclusive span time)
_TIME_OF = {
    "client.open": "client.open_s",
    "client.submit": "client.submit_s",
    "pool.build": "pool.build_s",
    "handshake": "handshake.s",
    "channel.send": "channel.send_s",
    "channel.recv": "channel.recv_s",
    "net.send": "net.send_s",
    "cache.op": "cache.s",
    "batch.inspect": "batch.s",
    "elf.read": "elf.parse_s",
    "validate": "validate.s",
    "policy.library-linking": "policy.library-linking.s",
    "policy.stack-protection": "policy.stack-protection.s",
    "policy.indirect-function-call": "policy.indirect-function-call.s",
    "report.serialize": "report.serialize_s",
    "provision.session_start": "provision.session_start_s",
    "provision.attest": "provision.attest_s",
    "provision.verify": "provision.verify_s",
    "provision.send": "provision.send_s",
    "provision.run_engarde": "provision.run_engarde_s",
    "provision.finalize": "provision.finalize_s",
    "loader.load": "loader.load_s",
}

#: spans whose self time is a wait on the other process over TCP; the
#: other side's spans cover that interval, so attribution skips them
_WAITS = {"net.recv_tcp"}


def _key(span) -> tuple:
    """Span ids count from 1 in each process: key them by (pid, id)."""
    return span[6], span[0]


def _parent_key(span):
    return None if span[4] is None else (span[6], span[4])


def _inspect_waits(spans) -> float:
    """Daemon time between decoding a SUBMIT and entering the inspector:
    per ``daemon.inspect`` span, the start of the ``batch.inspect`` it
    runs minus the end of the last protocol decode before it on the same
    connection (both are children of the connection's span)."""
    children: dict = {}
    for span in spans:
        children.setdefault(_parent_key(span), []).append(span)
    total = 0.0
    for span in spans:
        if span[1] != "daemon.inspect" or span[4] is None:
            continue
        decodes = [s[3] for s in children[_parent_key(span)]
                   if s[1].startswith("protocol.") and s[3] <= span[2]]
        batches = [s[2] for s in children.get(_key(span), ())
                   if s[1] == "batch.inspect"]
        if decodes and batches:
            total += max(min(batches) - max(decodes), 0.0)
    return total


def layer_metrics(spans, *, ops: int, e2e_s: float, lag_s: float,
                  daemon: dict | None, extra: dict) -> dict:
    """Per-layer metrics from the traced phase.

    *spans* are every span (generator and daemon child) that started in
    the traced window; *ops* / *e2e_s* the operations and their summed
    end-to-end time in that window; *lag_s* the summed generator lag;
    *daemon* the deltas read over STATUS/METRICS (``None`` in-process);
    *extra* values only the workload knows (EPC pages, overhead ratios).
    """
    per_op = 1.0 / max(ops, 1)
    total_s: dict[str, float] = {}
    count: dict[str, int] = {}
    sums: dict[str, dict] = {}
    for span in spans:
        _sid, name, start, end, _parent, _sub, _pid, attrs = span
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
        if attrs:
            bucket = sums.setdefault(name, {})
            for key, value in attrs.items():
                bucket[key] = bucket.get(key, 0) + value
    selfs = self_times([(_key(s), s[2], s[3], _parent_key(s)) for s in spans])
    self_by_name: dict[str, float] = {}
    attributed = []
    for span in spans:
        own = selfs[_key(span)]
        self_by_name[span[1]] = self_by_name.get(span[1], 0.0) + own
        if span[1] not in _WAITS:
            attributed.append(own)

    out = {name: 0.0 for name, _unit in PER_LAYER}
    for span_name, metric in _TIME_OF.items():
        out[metric] = total_s.get(span_name, 0.0) * per_op
    out["client.retries"] = sums.get("client.submit", {}).get("retries", 0) * per_op
    out["attest.count"] = count.get("attest.quote", 0) * per_op
    out["attest.s"] = (total_s.get("attest.quote", 0.0)
                       + total_s.get("attest.verify", 0.0)) * per_op
    out["channel.records"] = (count.get("channel.send", 0)
                              + count.get("channel.recv", 0)) * per_op
    out["channel.bytes"] = (sums.get("channel.send", {}).get("bytes", 0)
                            + sums.get("channel.recv", {}).get("bytes", 0)) * per_op
    out["protocol.frames"] = count.get("protocol.frame", 0) * per_op
    out["protocol.codec_s"] = (total_s.get("protocol.frame", 0.0)
                               + total_s.get("protocol.codec", 0.0)) * per_op
    recv = ("net.recv_tcp", "net.recv_mem")
    out["net.frames"] = (count.get("net.send", 0)
                         + sum(count.get(n, 0) for n in recv)) * per_op
    out["net.bytes"] = (sums.get("net.send", {}).get("bytes", 0)
                        + sum(sums.get(n, {}).get("bytes", 0) for n in recv)) * per_op
    out["net.send_s"] = (total_s.get("net.send", 0.0)
                         + total_s.get("net.connect", 0.0)) * per_op
    out["net.recv_wait_s"] = sum(total_s.get(n, 0.0) for n in recv) * per_op
    out["daemon.inspect_wait_s"] = _inspect_waits(spans) * per_op
    out["batch.calls"] = count.get("batch.inspect", 0) * per_op
    out["elf.images"] = count.get("elf.read", 0) * per_op
    out["elf.bytes"] = sums.get("elf.read", {}).get("bytes", 0) * per_op
    out["decode.insns"] = sums.get("disasm", {}).get("insns", 0) * per_op
    # decode time: the disassembler stage minus the ELF parse and the
    # validator it calls (its self time)
    out["decode.s"] = self_by_name.get("disasm", 0.0) * per_op
    if out["decode.s"] > 0:
        out["decode.insns_per_s"] = out["decode.insns"] / out["decode.s"]
    out["policy.hashes_computed"] = (
        sums.get("policy.library-linking", {}).get("hashes", 0) * per_op
    )
    out["report.bytes"] = sums.get("report.serialize", {}).get("bytes", 0) * per_op
    out["loader.pages"] = sums.get("loader.load", {}).get("pages", 0) * per_op
    if daemon is not None:
        out["pool.checkouts"] = daemon["pool.checkouts"] * per_op
        out["pool.misses"] = daemon["pool.misses"] * per_op
        if daemon["pool.checkouts"]:
            out["pool.miss_ratio"] = daemon["pool.misses"] / daemon["pool.checkouts"]
        out["daemon.connections"] = daemon["connections"] * per_op
        out["daemon.refused"] = daemon["refused"] * per_op
        out["daemon.request_s"] = daemon["request_s"] * per_op
        lookups = daemon["cache.hits"] + daemon["cache.misses"]
        out["cache.lookups"] = lookups * per_op
        out["cache.hits"] = daemon["cache.hits"] * per_op
        if lookups:
            out["cache.hit_ratio"] = daemon["cache.hits"] / lookups
        out["sched.inline"] = daemon["sched.inline"] * per_op
        out["sched.microbatch"] = daemon["sched.microbatch"] * per_op
        out["sched.split"] = daemon["sched.split"] * per_op
    remainder = unattributed(e2e_s - lag_s, attributed)
    out["unattributed_s"] = remainder * per_op
    out["unattributed_share"] = remainder / e2e_s if e2e_s > 0 else 0.0
    out["ops_traced"] = float(ops)
    out.update(extra)
    return out
