"""Differential battery: the column scan against the object decoders.

The production decode is one table-driven loop filling parallel arrays
(:class:`repro.x86.Columns`); :class:`Instruction` objects are built
lazily, per row.  Everything observable must equal the object decoders
(:func:`decode_all` and the frozen :mod:`repro.x86.refdecode`):

* offsets, lengths, targets, and the per-row kind/slot/written-register
  facts (defined over the object form by ``_facts``);
* the lazily materialised rows, by dataclass equality;
* the :class:`DecodeError` text, at the same row;
* the disassembly stage's partial charges and trampoline call sequence
  on rejection, with and without ``per_insn_malloc``;
* streamed feeds at adversarial split points;
* the per-instruction ``x86.decoder`` fault hook, fired at the same
  instruction.

Inputs: random bytes, and bit-flipped or truncated slices of the seven
paper applications' text.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Disassembler, EnGarde
from repro.elf import read_elf
from repro.errors import DecodeError, RejectionError
from repro.faults import FaultPlan, FaultSpec, injected
from repro.sgx import CycleMeter
from repro.x86 import Columns, StreamDecoder, decode_all, iter_decode
from repro.x86.decoder import _facts
from repro.x86.refdecode import ref_iter_decode

SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def app_texts(libc):
    """Text sections of the seven paper apps (small scale, instrumented)."""
    from repro.toolchain.workloads import PAPER_BENCHMARKS, build_workload

    texts = {}
    for name in PAPER_BENCHMARKS:
        binary = build_workload(
            name, stack_protector=True, ifcc=True, libc=libc, scale=0.02
        )
        texts[name] = bytes(read_elf(binary.elf).text_sections[0].data)
    return texts


def _scan(code: bytes, start: int = 0, end: int | None = None):
    """(columns, error text) — the columns keep the rows decoded before
    an error."""
    cols = Columns(code, start)
    try:
        cols.scan(start, len(code) if end is None else end)
    except DecodeError as exc:
        return cols, str(exc)
    return cols, None


def _objects(code: bytes, start: int = 0, end: int | None = None, decoder=ref_iter_decode):
    insns = []
    try:
        for insn in decoder(code, start, end):
            insns.append(insn)
    except DecodeError as exc:
        return insns, str(exc)
    return insns, None


def _assert_same(code: bytes, start: int = 0, end: int | None = None) -> Columns:
    cols, err = _scan(code, start, end)
    # iter_decode (not decode_all) so the rows before an error are seen
    for decoder in (ref_iter_decode, iter_decode):
        insns, want_err = _objects(code, start, end, decoder=decoder)
        assert err == want_err
        n = len(insns)
        assert len(cols) == n
        assert list(cols.off) == [i.offset for i in insns]
        assert [cols.row_end(k) - cols.off[k] for k in range(n)] \
            == [i.length for i in insns]
        assert [cols.target(k) for k in range(n)] == [i.target for i in insns]
        assert [(cols.kind[k], cols.arg[k], cols.wreg[k]) for k in range(n)] \
            == [_facts(i) for i in insns]
        assert cols.end == (insns[-1].end if insns else start)
    # rows materialised lazily, from a fresh scan (no warm row cache)
    fresh, _ = _scan(code, start, end)
    assert list(fresh.instructions) == insns
    assert fresh.bundle_row == Columns.from_instructions(insns).bundle_row
    return cols


def _mutate(text: bytes, data) -> bytes:
    """A bit-flipped and/or truncated slice of *text*."""
    start = data.draw(st.integers(0, max(len(text) - 1, 0)))
    length = data.draw(st.integers(1, 600))
    blob = bytearray(text[start:start + length])
    for _ in range(data.draw(st.integers(0, 3))):
        pos = data.draw(st.integers(0, len(blob) - 1))
        blob[pos] ^= 1 << data.draw(st.integers(0, 7))
    cut = data.draw(st.integers(0, 3))
    if cut and len(blob) > cut:
        del blob[-cut:]
    return bytes(blob)


# ------------------------------------------------------------ row equality

def test_whole_app_texts_match(app_texts):
    for name, text in app_texts.items():
        cols = _assert_same(text)
        assert cols.end == len(text), name
        assert decode_all(text) == list(cols.instructions), name


@SETTINGS
@given(code=st.binary(min_size=1, max_size=64))
def test_random_bytes_match(code):
    _assert_same(code)


@SETTINGS
@given(data=st.data())
def test_mutated_app_slices_match(app_texts, data):
    text = app_texts[data.draw(st.sampled_from(sorted(app_texts)))]
    _assert_same(_mutate(text, data))


@SETTINGS
@given(data=st.data())
def test_region_bounds_match(app_texts, data):
    """Sub-regions: the past-the-end error is raised against *end*."""
    text = app_texts[data.draw(st.sampled_from(sorted(app_texts)))]
    start = data.draw(st.integers(0, len(text) - 1))
    end = data.draw(st.integers(start, min(len(text), start + 400)))
    _assert_same(text, start, end)


# --------------------------------------------------- rejection-path effects

def _decode_effects(code: bytes, *, optimized: bool, per_insn_malloc: bool):
    calls: list[int] = []
    meter = CycleMeter()
    disasm = Disassembler(
        meter, alloc_pages=calls.append, per_insn_malloc=per_insn_malloc,
        optimized=optimized,
    )
    decode = disasm._decode_fast if optimized else disasm._decode_reference
    try:
        _, pages = decode(code)
        outcome = ("ok", pages)
    except RejectionError as exc:
        outcome = ("rejected", str(exc))
    return outcome, calls, meter.total


@SETTINGS
@given(data=st.data(), per_insn_malloc=st.booleans())
def test_rejection_charges_and_trampolines_match(app_texts, data, per_insn_malloc):
    text = app_texts[data.draw(st.sampled_from(sorted(app_texts)))]
    code = _mutate(text, data)
    fast = _decode_effects(code, optimized=True, per_insn_malloc=per_insn_malloc)
    ref = _decode_effects(code, optimized=False, per_insn_malloc=per_insn_malloc)
    assert fast == ref


def test_rejections_are_exercised(app_texts):
    """The mutation strategy really reaches the rejection path: a flipped
    opcode byte mid-text must reject with identical partial charges."""
    text = app_texts["bzip2"]
    code = bytearray(text)
    mid = _scan(text)[0].off[500]
    code[mid] = 0x06  # not an opcode in the supported subset
    for per_insn_malloc in (False, True):
        fast = _decode_effects(bytes(code), optimized=True,
                               per_insn_malloc=per_insn_malloc)
        ref = _decode_effects(bytes(code), optimized=False,
                              per_insn_malloc=per_insn_malloc)
        assert fast == ref
        assert fast[0][0] == "rejected"
        assert fast[2].events["decode_insn"] == 500


# --------------------------------------------------------- streamed feeds

def _stream(code: bytes, cuts) -> tuple[Columns, str | None]:
    dec = StreamDecoder()
    prev = 0
    try:
        for cut in sorted(cuts):
            dec.feed(code[prev:cut])
            prev = cut
        dec.feed(code[prev:])
        dec.finish(len(code))
    except DecodeError as exc:
        return dec.columns, str(exc)
    return dec.columns, None


@SETTINGS
@given(data=st.data())
def test_stream_feeds_match_whole_buffer(app_texts, data):
    text = app_texts[data.draw(st.sampled_from(sorted(app_texts)))]
    code = _mutate(text, data) if data.draw(st.booleans()) else text[:2000]
    cuts = data.draw(st.lists(st.integers(0, len(code)), max_size=12))
    got, got_err = _stream(code, cuts)
    want, want_err = _scan(code)
    assert got_err == want_err
    assert (got.off, got.kind, got.arg, got.wreg) \
        == (want.off, want.kind, want.arg, want.wreg)
    if want_err is None:
        assert (got.end, got.bundle_row) == (want.end, want.bundle_row)
        assert list(got.instructions) == list(want.instructions)


def test_stream_byte_at_a_time(app_texts):
    text = app_texts["mcf"]
    code = text[:_scan(text)[0].off[300]]  # 300 whole instructions
    got, err = _stream(code, range(1, len(code)))
    want, _ = _scan(code)
    assert err is None
    assert (got.off, got.kind, got.arg, got.wreg, got.end) \
        == (want.off, want.kind, want.arg, want.wreg, want.end)


# ---------------------------------------------------------- fault hooks

@pytest.mark.parametrize("after", [0, 1, 63, 64, 65, 777])
@pytest.mark.parametrize("per_insn_malloc", [False, True])
def test_decoder_fault_fires_at_the_same_instruction(all_policies, libc,
                                                     after, per_insn_malloc):
    from repro.toolchain.workloads import build_workload

    raw = build_workload("mcf", stack_protector=True, ifcc=True, libc=libc,
                         scale=0.02).elf
    runs = []
    for optimized in (True, False):
        plan = FaultPlan([FaultSpec(hook="x86.decoder", kind="raise", after=after)])
        calls: list[int] = []
        engarde = EnGarde(all_policies, alloc_pages=calls.append,
                          per_insn_malloc=per_insn_malloc, optimized=optimized)
        with injected(plan):
            outcome = engarde.inspect(raw, benchmark="mcf")
        runs.append((
            outcome.report.serialize(), plan.events, calls,
            engarde.meter.phases, engarde.meter.total,
        ))
    assert runs[0] == runs[1]
    report, events, _, _, total = runs[0]
    assert [e.call for e in events] == [after + 1]
    assert total.events.get("decode_insn", 0) == after
