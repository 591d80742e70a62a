"""Regenerate ``expected.json`` from the fixed input pools.

    python3 perfbench/make_expected.py

Provisions each paper app once, and submits every distinct variant
once to a daemon child, recording each outcome, the
label-blanked report-wire digest and (for provisioning) the MRENCLAVE
and client/provider verdict agreement.  Refuses to write a file whose
variant outcomes disagree with their corpus kinds.  Run it only at a
commit whose verdicts are known good: the benchmark checks every later
run against this file.
"""

from __future__ import annotations

import json
import sys

import expect
import inputs
import workloads


def main() -> int:
    inputs.use_source_tree()
    from repro.core.provisioning import CloudProvider, EnclaveClient, provision
    from repro.crypto import HmacDrbg
    from repro.sgx import SgxParams
    from repro.toolchain import build_libc

    libc = build_libc()
    policies = inputs.build_policies(libc)
    label = "pb-expect"
    doc = {"apps": {}, "variants": {}}

    provider = CloudProvider(
        policies,
        params=SgxParams(epc_pages=workloads.APP_EPC_PAGES,
                         heap_initial_pages=workloads.APP_HEAP_PAGES),
    )
    for name, raw, pages in inputs.app_pool(libc):
        provider.client_pages = pages
        result = provision(provider, EnclaveClient(
            raw, policies=policies, benchmark=label,
            rng=HmacDrbg(b"perfbench-expect"),
        ))
        wire = result.report.serialize()
        doc["apps"][inputs.digest(raw)] = {
            "name": name,
            "outcome": expect.outcome_of(wire, result.error),
            "report_sha256": expect.wire_digest(wire, label),
            "mrenclave": (result.runtime.enclave.mrenclave.hex()
                          if result.runtime is not None else None),
            "client_agrees": result.client_verdict == result.report,
        }
        if result.runtime is not None:
            provider.machine.eexit(result.runtime.enclave)
            provider.machine.destroy(result.runtime.enclave)
        print(f"apps {name}: {doc['apps'][inputs.digest(raw)]['outcome']}", flush=True)

    ctx = workloads.Context(seed=0, seconds=0, trace=False, profile_dir=None,
                            out_dir=str(inputs.ROOT), expectations=None)
    daemon = workloads.DaemonChild(ctx, "expect", trace=False)
    try:
        client = daemon.client(policies, 0)

        def record(pool: str, raw: bytes, **fields) -> dict:
            dig = inputs.digest(raw)
            entry = doc[pool].get(dig)
            if entry is None:
                verdict = client.inspect(raw, label)
                wire = verdict.wire if verdict.report is not None else None
                entry = doc[pool][dig] = {
                    "outcome": expect.outcome_of(wire, verdict.error),
                    "report_sha256": (expect.wire_digest(wire, label)
                                      if wire is not None else None),
                }
            for key, value in fields.items():
                entry.setdefault(key, []).append(value)
            return entry

        for vlabel, kind, raw in inputs.variant_pool(libc):
            record("variants", raw, labels=vlabel, kinds=kind)
        client.close()
    finally:
        daemon.stop()

    expect.Expectations(doc)  # cross-checks variant outcomes against kinds
    expect.PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {expect.PATH}: {len(doc['apps'])} apps, "
          f"{len(doc['variants'])} variants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
