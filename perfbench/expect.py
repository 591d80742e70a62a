"""Committed expected outcomes, and the check every operation passes.

``expected.json`` maps each input's content digest to its outcome
(``accept``, ``reject`` or ``error:<Class>``) and the sha256 of its
report wire with the label blanked (the report's first line carries the
client-chosen label, which the benchmark varies per submission).  For
provisioning it also records the EnGarde MRENCLAVE and that the
client's verdict equalled the provider's.

The file was generated once from the fixed input pools by
``make_expected.py``.  Loading it re-checks every variant's accept bit
against the kind ``generate_variant_corpus`` assigned it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PATH = Path(__file__).resolve().parent / "expected.json"

#: the accept bit each variant kind must get (duplicates inherit theirs)
KIND_ACCEPTS = {
    "compliant": True,
    "plain": False,
    "sp-only": False,
    "truncated": False,
    "garbage": False,
}


def canonical_wire(wire: bytes, label: str) -> bytes:
    """*wire* with its ``benchmark=<label>`` first line blanked.

    Raises ``ValueError`` when the first line is not exactly the label
    the operation sent.
    """
    head = f"benchmark={label}".encode()
    first, sep, rest = wire.partition(b"\n")
    if first != head or not sep:
        raise ValueError(f"report is labelled {first[:80]!r}, expected {head!r}")
    return b"benchmark=\n" + rest


def wire_digest(wire: bytes, label: str) -> str:
    return hashlib.sha256(canonical_wire(wire, label)).hexdigest()


def outcome_of(report_wire: bytes | None, error: str | None) -> str:
    if report_wire is None:
        return "error:" + (error or "unknown").split(":", 1)[0]
    return "accept" if b"\ncompliant=1\n" in report_wire else "reject"


class Expectations:
    """The expectation table, with a check per operation."""

    def __init__(self, doc: dict) -> None:
        self.doc = doc
        self._check_kinds()

    @classmethod
    def load(cls, path: Path = PATH) -> "Expectations":
        return cls(json.loads(path.read_text()))

    def _check_kinds(self) -> None:
        for dig, entry in self.doc["variants"].items():
            kinds = set(entry["kinds"]) - {"duplicate"}
            if not kinds:
                raise ValueError(f"variant {dig[:12]} is only ever a duplicate")
            for kind in kinds:
                want = KIND_ACCEPTS[kind]
                if (entry["outcome"] == "accept") != want:
                    raise ValueError(
                        f"variant {dig[:12]} ({kind}) expected "
                        f"{'accept' if want else 'reject'}, file says "
                        f"{entry['outcome']}"
                    )

    def check_verdict(self, pool: str, dig: str, label: str,
                      wire: bytes | None, error: str | None) -> str | None:
        """``None`` when a daemon verdict matches, else the reason."""
        entry = self.doc[pool].get(dig)
        if entry is None:
            return f"no expectation for {pool} input {dig[:12]}"
        got = outcome_of(wire, error)
        if got != entry["outcome"]:
            return f"{pool} {dig[:12]}: outcome {got}, expected {entry['outcome']}"
        if wire is not None:
            try:
                seen = wire_digest(wire, label)
            except ValueError as exc:
                return f"{pool} {dig[:12]}: {exc}"
            if seen != entry["report_sha256"]:
                return f"{pool} {dig[:12]}: report wire differs from the expected one"
        return None

    def check_provision(self, dig: str, label: str, result) -> str | None:
        """``None`` when a :func:`provision` result matches, else the reason."""
        wire = result.report.serialize()
        reason = self.check_verdict("apps", dig, label, wire, result.error)
        if reason is not None:
            return reason
        entry = self.doc["apps"][dig]
        agrees = result.client_verdict == result.report
        if agrees != entry["client_agrees"]:
            return f"apps {dig[:12]}: client verdict agreement is {agrees}"
        if result.runtime is not None:
            mr = result.runtime.enclave.mrenclave.hex()
            if mr != entry["mrenclave"]:
                return f"apps {dig[:12]}: MRENCLAVE {mr[:16]} differs"
        return None
