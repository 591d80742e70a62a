"""Streaming provisioning: overlapped decode + delta re-inspection.

Two pieces the streamed receive path composes:

* :class:`StreamingPipeline` — fed the provisioning buffer as each channel
  record lands, it speculatively locates the text segment from the ELF and
  program headers (the writer places ``.text`` early and the symbol table
  at the end of the file, so code arrives long before symbols) and drives
  a :class:`~repro.x86.StreamDecoder` over every instruction the moment
  its bytes are available.  The stream decoder fills the same
  :class:`~repro.x86.Columns` the phased decode does, so by the time the
  channel drains everything the validator and the policy context read
  (offsets, kinds, targets, the bundle offender) is already there.  The
  pipeline is *speculative and fail-safe*: the disassembler verifies the
  scanned bytes against the exactly-parsed image and falls back to the
  phased path on any mismatch or decode error.

* Delta re-inspection — :func:`cdc_chunks` content-defined chunking over
  the text, :class:`DeltaIndex` remembering the previous version's chunk
  table and decoded rows, :func:`delta_scan` splicing clean row runs
  with freshly-decoded dirty function extents, and
  :class:`FunctionVerdictMemo` caching per-function stack-protection
  verdicts keyed by the function's bytes (plus every byte the original
  check read outside them).  An updated binary re-pays decode and the
  super-linear policy scan only for the functions that changed, while the
  wire transcript, MRENCLAVE, verdict bytes, and meter totals stay exactly
  those of a cold phased run.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_right
from dataclasses import dataclass, field

from ..elf.constants import ELF_MAGIC, PF_X, PT_LOAD
from ..errors import DecodeError
from ..x86 import Columns, Instruction, StreamDecoder

__all__ = [
    "StreamScan",
    "StreamingPipeline",
    "RecordingMeter",
    "FunctionVerdictMemo",
    "DeltaIndex",
    "cdc_chunks",
    "delta_scan",
    "build_delta_index",
]

_EHDR = struct.Struct("<16sHHIQQQIHHHHHH")
_PHDR = struct.Struct("<IIQQQQQQ")

# --------------------------------------------------------------------------
# Streamed decode
# --------------------------------------------------------------------------


@dataclass
class StreamScan:
    """The column decode of a text blob, streamed (or delta-spliced).

    ``code`` is the byte slice the scan decoded; the disassembler only
    trusts the scan after verifying ``code`` equals the text section of
    the exactly-parsed image.  ``columns`` carries everything the
    validator and the policy context need — offsets, kinds, targets,
    the first bundle offender (recorded, never raised, during decode:
    decode errors must keep precedence exactly as in the phased order)
    and the shared offset index.
    """

    code: bytes
    columns: Columns
    error: DecodeError | None = None
    #: per-function verdict memo the provider threads into the policy
    #: context (None outside delta-capable provisioning)
    delta: "FunctionVerdictMemo | None" = None
    #: CDC chunking of ``code`` when the producer already computed one
    #: (lets the delta index skip re-chunking the same bytes)
    chunks: "list[tuple[int, int, bytes]] | None" = None

    @classmethod
    def from_instructions(
        cls, code: bytes, instructions: list[Instruction]
    ) -> "StreamScan":
        """The scan of an already-decoded token list."""
        return cls(code=code, columns=Columns.from_instructions(instructions, code))

    @property
    def instructions(self):
        """The decoded rows as a lazy ``Sequence[Instruction]``."""
        return self.columns.instructions


class StreamingPipeline:
    """Incremental decode over the provisioning receive buffer.

    The provider preallocates one buffer for the announced content size
    and decrypts each record in place; after every record it calls
    :meth:`advance` with the new valid-prefix length.  The pipeline shares
    the buffer (zero copies beyond the decoder's own accumulation),
    parses the ELF/program headers as soon as their bytes land to locate
    the text segment, and feeds the stream decoder as text bytes arrive.
    ``decode=False`` keeps only the header tracking (the delta path
    decodes after the fact from the chunk diff instead).
    """

    def __init__(self, buf: bytearray, *, decode: bool = True) -> None:
        self._buf = buf
        self.decode = decode
        self.text_off: int | None = None
        self.text_size: int | None = None
        self._gave_up = False
        self._headers_done = False
        self._decoder = StreamDecoder()
        self._fed = 0
        self._decode_done = False
        self._valid = 0
        self.error: DecodeError | None = None

    @property
    def instructions(self):
        """Rows decoded so far, as a lazy ``Sequence[Instruction]``."""
        return self._decoder.columns.instructions

    # ------------------------------------------------------------ headers

    def _try_headers(self) -> None:
        buf = self._buf
        valid = self._valid
        if valid < _EHDR.size:
            return
        (ident, _t, _m, _v, _entry, phoff, _shoff, _f, _eh, phentsize,
         phnum, _she, _shn, _shs) = _EHDR.unpack_from(buf, 0)
        if (not ident.startswith(ELF_MAGIC) or phentsize != _PHDR.size
                or phnum == 0 or phoff <= 0):
            self._gave_up = True
            self._headers_done = True
            return
        table_end = phoff + phnum * _PHDR.size
        if valid < table_end or table_end > len(buf):
            if table_end > len(buf):
                self._gave_up = True
                self._headers_done = True
            return
        for i in range(phnum):
            (p_type, p_flags, p_offset, _va, _pa, p_filesz, _msz,
             _align) = _PHDR.unpack_from(buf, phoff + i * _PHDR.size)
            if p_type == PT_LOAD and p_flags & PF_X:
                if p_filesz <= 0 or p_offset + p_filesz > len(buf):
                    self._gave_up = True
                else:
                    self.text_off = p_offset
                    self.text_size = p_filesz
                break
        else:
            self._gave_up = True
        self._headers_done = True

    # ------------------------------------------------------------ pumping

    def advance(self, valid: int) -> None:
        """Bytes ``[0, valid)`` of the shared buffer are now plaintext."""
        self._valid = valid
        if not self._headers_done:
            self._try_headers()
        if (not self.decode or self._gave_up or self.error is not None
                or self.text_off is None or self._decode_done):
            return
        start = self.text_off + self._fed
        avail_end = min(valid, self.text_off + self.text_size)
        if avail_end > start:
            piece = bytes(self._buf[start:avail_end])
            self._fed += len(piece)
            try:
                self._decoder.feed(piece)
            except DecodeError as exc:
                self.error = exc
                return
        if self._fed == self.text_size:
            try:
                self._decoder.finish(self.text_size)
            except DecodeError as exc:
                self.error = exc
                return
            self._decode_done = True

    # ------------------------------------------------------------ results

    def text_slice(self) -> bytes | None:
        """The text bytes per the speculative header parse, or None."""
        if self._gave_up or self.text_off is None:
            return None
        if self._valid < self.text_off + self.text_size:
            return None
        return bytes(self._buf[self.text_off:self.text_off + self.text_size])

    def finish(self) -> StreamScan | None:
        """The completed scan, or None when the pipeline had to give up.

        A scan carrying a decode ``error`` is still returned: the
        disassembler re-runs the phased decode on it so the rejection's
        error text and charge sequence are bit-exact — only the happy path
        skips work.
        """
        if not self.decode or self._gave_up or self.text_off is None:
            return None
        if self.error is None and not self._decode_done:
            return None  # stream ended before the announced text did
        return StreamScan(
            code=bytes(self._buf[self.text_off:self.text_off + self.text_size]),
            columns=self._decoder.columns,
            error=self.error,
        )


# --------------------------------------------------------------------------
# Charge recording (delta replay)
# --------------------------------------------------------------------------


class RecordingMeter:
    """Meter proxy that forwards charges and keeps a replayable trace.

    Swapped in front of the real :class:`~repro.sgx.cpu.CycleMeter` while
    a function's policy check runs; a later memo hit re-issues the exact
    recorded sequence so meter totals are tick-identical to re-running.
    """

    def __init__(self, meter) -> None:
        self._meter = meter
        self.events: list[tuple] = []

    def charge(self, event: str, count: int = 1) -> int:
        self.events.append(("charge", event, count))
        return self._meter.charge(event, count)

    def charge_batch(self, counts) -> int:
        counts = dict(counts)
        self.events.append(("charge_batch", counts))
        return self._meter.charge_batch(counts)

    def __getattr__(self, name):
        return getattr(self._meter, name)

    @staticmethod
    def replay(meter, events) -> None:
        for ev in events:
            if ev[0] == "charge":
                meter.charge(ev[1], ev[2])
            else:
                meter.charge_batch(ev[1])


# --------------------------------------------------------------------------
# Content-defined chunking (FastCDC-style gear hash)
# --------------------------------------------------------------------------

try:  # vectorised gear hash; the scalar loop below is the exact oracle
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

_GEAR: tuple[int, ...] | None = None
_GEAR_NP = None


def _gear_table() -> tuple[int, ...]:
    """256 deterministic 64-bit gear values (no process randomness)."""
    global _GEAR
    if _GEAR is None:
        _GEAR = tuple(
            int.from_bytes(
                hashlib.sha256(b"engarde-cdc-gear-%d" % i).digest()[:8], "big"
            )
            for i in range(256)
        )
    return _GEAR


def _cdc_chunks_scalar(
    data: bytes, *, min_size: int, avg_bits: int, max_size: int
) -> list[tuple[int, int, bytes]]:
    """Reference per-byte gear walk (and fallback when numpy is absent)."""
    gear = _gear_table()
    mask = (1 << avg_bits) - 1
    n = len(data)
    chunks: list[tuple[int, int, bytes]] = []
    start = 0
    pos = 0
    h = 0
    sha = hashlib.sha256
    while pos < n:
        h = ((h << 1) + gear[data[pos]]) & 0xFFFFFFFFFFFFFFFF
        pos += 1
        size = pos - start
        if size >= min_size and (h & mask) == 0 or size >= max_size:
            chunks.append((start, pos, sha(data[start:pos]).digest()))
            start = pos
            h = 0
    if start < n:
        chunks.append((start, n, sha(data[start:]).digest()))
    return chunks


def _gear_candidates(data: bytes, avg_bits: int):
    """Sorted boundary-candidate positions of the *never-reset* gear hash.

    ``h`` shifts left once per byte, so bits older than 64 bytes fall off:
    the hash at any position is a pure function of the trailing 64-byte
    window.  The scalar walk resets ``h`` at each boundary, but it only
    *tests* positions at least ``min_size`` bytes past the reset — with
    ``min_size >= 64`` the reset has fully shifted out by then, so the
    reset and never-reset hashes agree at every tested position and the
    candidate set can be precomputed in one vector pass (log-doubling the
    window: 6 shifted adds instead of a per-byte Python loop).
    """
    global _GEAR_NP
    if _GEAR_NP is None:
        _GEAR_NP = _np.array(_gear_table(), dtype=_np.uint64)
    g = _GEAR_NP[_np.frombuffer(data, dtype=_np.uint8)]
    h = g.copy()
    m = 1
    while m < 64:
        h[m:] += h[:-m].copy() * _np.uint64(1 << m)
        m <<= 1
    mask = _np.uint64((1 << avg_bits) - 1)
    return _np.flatnonzero((h & mask) == 0) + 1


def cdc_chunks(
    data: bytes,
    *,
    min_size: int = 512,
    avg_bits: int = 12,
    max_size: int = 16384,
) -> list[tuple[int, int, bytes]]:
    """Gear-hash content-defined chunking: ``[(start, end, digest), ...]``.

    Boundaries depend only on local content, so an edit re-synchronises
    within one chunk and every chunk outside the edited window keeps its
    (start, end, digest) triple — which is exactly what the delta differ
    keys on.  The vectorised path produces bit-identical chunkings to the
    scalar walk (a property test pins this).
    """
    n = len(data)
    if _np is None or min_size < 64 or n < min_size:
        return _cdc_chunks_scalar(
            data, min_size=min_size, avg_bits=avg_bits, max_size=max_size
        )
    cand = _gear_candidates(data, avg_bits)
    chunks: list[tuple[int, int, bytes]] = []
    sha = hashlib.sha256
    start = 0
    while start < n:
        hard = start + max_size
        j = int(_np.searchsorted(cand, start + min_size))
        if j < len(cand) and cand[j] <= hard:
            end = int(cand[j])
        else:
            end = hard
        if end >= n:
            end = n
        chunks.append((start, end, sha(data[start:end]).digest()))
        start = end
    return chunks


def _dirty_ranges(
    prev: list[tuple[int, int, bytes]],
    cur: list[tuple[int, int, bytes]],
) -> list[tuple[int, int]] | None:
    """Byte ranges where two same-length chunkings disagree.

    Walks both partitions in lockstep; on a mismatch, advances whichever
    side is behind until the partitions re-synchronise at a common
    boundary, and reports the whole window as dirty.  Returns None when
    the partitions never re-align (callers fall back to a full decode).
    """
    if prev and cur and prev[-1][1] != cur[-1][1]:
        return None
    ranges: list[tuple[int, int]] = []
    ia = ib = 0
    na, nb = len(prev), len(cur)
    while ia < na and ib < nb:
        ca, cb = prev[ia], cur[ib]
        if ca[0] == cb[0] and ca[1] == cb[1] and ca[2] == cb[2]:
            ia += 1
            ib += 1
            continue
        dirty_start = min(ca[0], cb[0])
        end_a, end_b = ca[1], cb[1]
        ia += 1
        ib += 1
        while end_a != end_b:
            if end_a < end_b:
                if ia >= na:
                    return None
                end_a = prev[ia][1]
                ia += 1
            else:
                if ib >= nb:
                    return None
                end_b = cur[ib][1]
                ib += 1
        ranges.append((dirty_start, end_a))
    if ia != na or ib != nb:
        return None
    return ranges


# --------------------------------------------------------------------------
# Per-function stack-protection verdict memo
# --------------------------------------------------------------------------

#: bytes past a function's extent whose change conservatively invalidates
#: its memo entry (the check's tail walk can peek past the extent)
SPILL_WINDOW = 64


class FunctionVerdictMemo:
    """Cross-run cache of per-function policy verdicts (fail-closed).

    An entry is only replayed when *everything* the original check could
    have observed is provably unchanged: the policy configuration digest,
    the symbol-table digest, the text length, the function's own bytes at
    the *same* start offset (a moved function never hits), a spill window
    past the extent, and the full extent bytes of every out-of-extent
    instruction the check actually read (captured at record time).  Any
    doubt is a miss — the function is simply re-inspected.
    """

    def __init__(self) -> None:
        self._policy_digest: bytes | None = None
        self._symtab_digest: bytes | None = None
        self._text_len: int | None = None
        self._entries: dict[tuple, tuple] = {}

    def session(self, ctx, policy_digest: bytes) -> "_MemoSession | None":
        """Bind to one check invocation; wipes stale state (fail closed)."""
        sections = ctx.image.text_sections
        if len(sections) != 1:
            return None
        text = sections[0].data
        symtab_digest = hashlib.sha256(
            repr(sorted(ctx.symtab.items())).encode()
        ).digest()
        if (self._policy_digest != policy_digest
                or self._symtab_digest != symtab_digest
                or self._text_len != len(text)):
            self._entries = {}
            self._policy_digest = policy_digest
            self._symtab_digest = symtab_digest
            self._text_len = len(text)
        boundaries = sorted(offset for offset, _ in ctx.symtab.items())
        return _MemoSession(self._entries, text, boundaries)


class _MemoSession:
    """One check invocation's view of the memo over the current text."""

    def __init__(
        self, entries: dict, text: bytes, boundaries: list[int]
    ) -> None:
        self._entries = entries
        self._text = text
        self._boundaries = boundaries

    def _extent(self, offset: int) -> tuple[int, int]:
        """Byte extent of the function containing *offset*."""
        bounds = self._boundaries
        idx = bisect_right(bounds, offset)
        start = bounds[idx - 1] if idx else 0
        end = bounds[idx] if idx < len(bounds) else len(self._text)
        return start, end

    def _key(self, name: str, start: int) -> tuple | None:
        _, end = self._extent(start)
        text = self._text
        body_digest = hashlib.sha256(text[start:end]).digest()
        spill_digest = hashlib.sha256(
            text[end:end + SPILL_WINDOW]
        ).digest()
        return (name, start, body_digest, spill_digest)

    def lookup(self, name: str, start: int):
        """(checked_increment, violation, charges) or None on any doubt."""
        entry = self._entries.get(self._key(name, start))
        if entry is None:
            return None
        inc, violation, charges, windows = entry
        text = self._text
        for w_start, w_end, digest in windows:
            if hashlib.sha256(text[w_start:w_end]).digest() != digest:
                return None
        return inc, violation, charges

    def record(
        self,
        name: str,
        start: int,
        inc: int,
        violation: str | None,
        charges: list[tuple],
        read_offsets: list[int],
    ) -> None:
        own = self._extent(start)
        windows: dict[tuple[int, int], bytes] = {}
        text = self._text
        for offset in read_offsets:
            if not 0 <= offset < len(text):
                continue  # out-of-bounds reads stay out of bounds (len pinned)
            extent = self._extent(offset)
            if extent == own or extent in windows:
                continue
            windows[extent] = hashlib.sha256(
                text[extent[0]:extent[1]]
            ).digest()
        self._entries[self._key(name, start)] = (
            inc, violation, charges,
            tuple((s, e, d) for (s, e), d in windows.items()),
        )


# --------------------------------------------------------------------------
# Delta re-inspection over updated binaries
# --------------------------------------------------------------------------


@dataclass
class DeltaIndex:
    """Everything remembered from the last inspected version of a binary."""

    memo: FunctionVerdictMemo = field(default_factory=FunctionVerdictMemo)
    text_len: int = -1
    text_digest: bytes = b""
    chunks: list[tuple[int, int, bytes]] = field(default_factory=list)
    #: the indexed version's decode (reused verbatim when the next
    #: version's text is byte-identical)
    columns: Columns = field(default_factory=Columns)
    #: sorted function-start byte offsets of the indexed version
    boundaries: list[int] = field(default_factory=list)

    @property
    def populated(self) -> bool:
        return self.text_len >= 0

    @property
    def instructions(self):
        return self.columns.instructions


def build_delta_index(
    index: DeltaIndex,
    text: bytes,
    scan: StreamScan,
    symbol_offsets,
) -> DeltaIndex:
    """(Re)populate *index* from a just-inspected version's scan."""
    digest = hashlib.sha256(text).digest()
    if index.populated and index.text_digest == digest:
        return index  # identical version: everything indexed still holds
    index.text_len = len(text)
    index.text_digest = digest
    index.chunks = scan.chunks if scan.chunks is not None else cdc_chunks(text)
    index.columns = scan.columns
    index.boundaries = sorted(set(symbol_offsets))
    return index


def delta_scan(prev: DeltaIndex, text: bytes) -> StreamScan | None:
    """Splice the previous version's rows with re-decoded dirty extents.

    Returns a :class:`StreamScan` equal to what a full decode of *text*
    would produce, or None whenever that equality cannot be proven cheaply
    (length change, chunking mis-alignment, extent boundaries that are not
    clean instruction starts, or any regional decode error) — the caller
    then falls back to the full phased decode.
    """
    if not prev.populated or len(text) != prev.text_len:
        return None
    if hashlib.sha256(text).digest() == prev.text_digest:
        # Identical bytes: the indexed decode IS this text's decode.
        return StreamScan(code=text, columns=prev.columns, chunks=prev.chunks)
    cur_chunks = cdc_chunks(text)
    dirty = _dirty_ranges(prev.chunks, cur_chunks)
    if dirty is None or not dirty:
        return None
    boundaries = prev.boundaries
    if not boundaries or boundaries[0] < 0 or boundaries[-1] > len(text):
        return None
    # Extent partition of [0, len): [0, b0), [b0, b1), ..., [bk, len).
    edges = ([0] if not boundaries or boundaries[0] != 0 else []) + boundaries
    if not edges or edges[-1] != len(text):
        edges = edges + [len(text)]
    # Mark extents overlapping any dirty byte range.
    dirty_extents: set[int] = set()
    for d_start, d_end in dirty:
        lo = max(bisect_right(edges, d_start) - 1, 0)
        hi = bisect_right(edges, d_end - 1) - 1
        dirty_extents.update(range(lo, hi + 1))
    prev_cols = prev.columns
    prev_by_offset = prev_cols.by_offset()
    n_prev = len(prev_cols)
    spliced = Columns(text)
    for k in range(len(edges) - 1):
        s, e = edges[k], edges[k + 1]
        if s == e:
            continue
        if k in dirty_extents:
            try:
                spliced.scan(s, e)
            except DecodeError:
                return None
        else:
            first = prev_by_offset.get(s)
            if first is None:
                return None
            last = prev_by_offset.get(e) if e < prev.text_len else n_prev
            if last is None:
                return None
            spliced.extend(prev_cols, first, last)
    spliced.bundle_row = spliced.first_bundle_row()
    return StreamScan(code=text, columns=spliced, chunks=cur_chunks)
