"""Launcher for the benchmark's daemon child process.

Builds an :class:`~repro.service.InspectionDaemon` with the arguments
``repro serve`` passes (rsa_bits 768, pool_size 1, read_timeout 30,
heap/client pages 64, enclave_pages 0x2000, max_connections 64,
retries 1) except for the policy registry: the child serves the three
paper policies, where the CLI serves one.  Inspector mode and scheduler
stay at the library defaults.

Prints the daemon's announce record as one JSON line, serves until
stdin closes or SIGTERM arrives, drains, and prints one JSON line with
its peak RSS and free EPC pages.  While it serves, a line ``probe N``
on stdin runs a host-speed probe of *N* reference blocks in this
process (``hostspeed``) and is answered with one JSON line
``{"factor": F}``.  ``--trace PATH`` records spans
(written at exit); ``--profile PATH`` writes a cProfile ``.prof`` of
the serving phase.

Run by ``run.py``; by hand::

    python3 perfbench/daemon_child.py [--trace spans.jsonl] [--profile d.prof]
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import threading

import hostspeed
import inputs
import spans

#: the enclave geometry ``repro serve`` gives its pool
GEOMETRY = dict(heap_pages=64, client_pages=64, enclave_pages=0x2000)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", default=None)
    parser.add_argument("--profile", default=None)
    args = parser.parse_args(argv)

    inputs.use_source_tree()
    tracer = None
    if args.trace:
        tracer = spans.install(spans.Tracer())

    from repro.service import InspectionDaemon
    from repro.toolchain import build_libc

    daemon = InspectionDaemon(
        inputs.build_policies(build_libc()),
        pool_size=1,
        rsa_bits=768,
        **GEOMETRY,
        read_timeout=30.0,
        max_connections=64,
        retries=1,
    )
    daemon.start_tcp("127.0.0.1", 0)
    print(json.dumps(daemon.announce()), flush=True)
    profiler = None
    if args.profile:
        import cProfile

        # serving only: the profile starts once the daemon is up
        profiler = cProfile.Profile()
        profiler.enable()

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())

    def _watch_stdin() -> None:
        # the parent holds our stdin open; EOF means it is gone
        for line in sys.stdin:
            if line.startswith("probe "):
                factor = hostspeed.factor(int(line.split()[1]))
                print(json.dumps({"factor": factor}), flush=True)
        stop.set()

    threading.Thread(target=_watch_stdin, daemon=True).start()
    stop.wait()
    daemon.stop()
    daemon.inspector.close()
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(args.profile)
    if tracer is not None:
        spans.dump_spans(args.trace, tracer.spans)
    print(json.dumps({
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "epc_free_pages": daemon.pool.machine.epc.free_pages,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
