"""Function-extent parallel inspection of one huge binary.

Dispatched whole, one binary can never use more than one worker.
This module splits a single binary's text section along its
*function-extent table* (the sorted function-symbol offsets the normal
pipeline already computes), decodes and policy-scans each extent on a
separate worker, and merges the per-extent artifacts into one verdict
that is **byte-identical** to whole-binary inspection:

* the report wire bytes are identical (same verdict, same failed-policy
  list, same stage, same pages),
* the cumulative :class:`~repro.sgx.cpu.CycleMeter` totals are
  tick-identical, per event and per phase — workers never touch the
  real meter; they return exact event *counts*, and the parent flushes
  them through :meth:`~repro.sgx.cpu.CycleMeter.charge_batch`, whose
  linearity (``cycles = weight x count``) makes the sum independent of
  how the work was partitioned,
* the buffer-growth trampoline sequence is replayed exactly.

The merge is *fail-safe by construction*: every precondition the split
cannot reproduce exactly — multi-text images, stripped binaries, an
extent decode that does not stitch exactly onto the next extent's
start, a stack-protection tail walk that reads outside its extent, a
decoder fault plan — is detected **before any meter charge**, and the
whole binary falls back to the ordinary serial
:meth:`~repro.core.engarde.EnGarde.inspect`, which is exact by
definition.  A worker *crash* (e.g. the ``service.batch.worker`` fault
hook) is different: it propagates as a typed error and fails the whole
verdict closed — a fault inside one extent never silently degrades to
a partial inspection.

Charge-equivalence argument, per pipeline stage:

=============  =====================================================
decode         per-extent ``decode_byte``/``decode_insn``/
               ``buffer_store`` counts sum to the serial totals when
               the extents stitch (same cursor, same bytes); flushed
               in one ``charge_batch`` exactly like the serial loop
symtab         built by the parent on the real meter, verbatim
validation     charges nothing; the merge re-runs all three NaCl
               checks from compact per-extent artifacts with the
               reference check order and first-offender semantics
library-link   runs entirely in the parent (it hashes *callee*
               functions, which may live in any extent) from the
               per-extent direct-call lists, charging verbatim
stack-protect  per-function, and the extent table guarantees a
               function never straddles an extent (extent boundaries
               are function starts): workers record exact per-event
               counts on a private meter; the parent flushes the sum
ifcc           the jump-table format check replays in the parent from
               worker-collected table-range instruction info; the
               per-site backward walks run in workers via the pure
               :func:`~repro.core.policies.ifcc.walk_call_site`
               helper, except sites within ``backward_window`` of an
               extent start, which the parent re-walks over a
               stitched window (provably the same slice of the
               global buffer)
=============  =====================================================
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field

from ..elf import read_elf
from ..errors import DecodeError, ElfError, PolicyError, RejectionError
from ..faults import hooks as _faults
from ..sgx.cpu import CycleMeter
from ..sgx.params import PAGE_SIZE
from ..x86 import Instruction, decode_extent
from .disasm import INSN_RECORD_BYTES
from .engarde import EnGarde, InspectionOutcome, static_text_pages
from .policies.ifcc import JUMP_TABLE_PREFIX, IfccPolicy, walk_call_site
from .policies.library_linking import LibraryLinkingPolicy
from .policies.stack_protection import StackProtectionPolicy
from .policy import PolicyContext, PolicyResult, SymbolHashTable
from .report import ComplianceReport

__all__ = [
    "ExtentPlan", "ExtentScan", "ExtentSplitOutcome",
    "plan_extent_split", "scan_extent", "inspect_extent_split",
    "DEFAULT_MIN_EXTENT_BYTES",
]

_ENTRY_SIZE = 8
#: an extent smaller than this is not worth a worker round-trip
DEFAULT_MIN_EXTENT_BYTES = 4096

#: the exact policy classes the merge knows how to decompose; a registry
#: containing anything else (including subclasses, whose behaviour may
#: differ) disables extent-split entirely
_SUPPORTED_POLICIES = (LibraryLinkingPolicy, StackProtectionPolicy, IfccPolicy)


class _OutOfExtent(Exception):
    """A policy scan read an offset outside its extent (fallback signal)."""


# ------------------------------------------------------------------ planning


@dataclass
class ExtentPlan:
    """The split decided by the parent before dispatching scan tasks."""

    #: half-open text-relative byte ranges, covering [0, len(text))
    extents: list[tuple[int, int]]
    #: candidate IFCC jump-table range (symbol-derived) or None
    cand_table: tuple[int, int] | None
    #: IFCC backward window (from the registry's module, default 12)
    window: int

    @property
    def parts(self) -> int:
        return len(self.extents)

    def tasks(self) -> list[dict]:
        """One picklable task descriptor per extent."""
        return [
            {
                "index": i, "start": s, "end": e,
                "cand_table": self.cand_table, "window": self.window,
            }
            for i, (s, e) in enumerate(self.extents)
        ]


def plan_extent_split(
    engarde: EnGarde,
    raw_elf,
    *,
    parts: int,
    min_extent_bytes: int = DEFAULT_MIN_EXTENT_BYTES,
    boundaries: list[int] | None = None,
):
    """Preflight: decide whether and how to split *raw_elf*.

    Returns ``(image, plan)`` on success or ``(None, reason)`` when the
    binary must take the serial path.  Every rejected precondition here
    is one the serial pipeline reproduces exactly (and charges for
    correctly), so "fallback" is always safe.
    """
    if not engarde.optimized:
        return None, "reference (unoptimized) engine"
    if engarde.disassembler.allow_stripped:
        return None, "stripped-binary recovery enabled"
    if _faults.wants("x86.decoder"):
        return None, "decoder fault plan active"
    modules = list(engarde.policies)
    for module in modules:
        if type(module) not in _SUPPORTED_POLICIES:
            return None, f"unsupported policy module {module.name!r}"
    try:
        image = read_elf(raw_elf)
    except ElfError:
        return None, "malformed ELF"
    if len(image.text_sections) != 1:
        return None, "not exactly one text section"
    text = image.text_sections[0]
    code_len = len(text.data)
    if not code_len:
        return None, "empty text section"
    symbols = image.function_symbols()
    if not symbols:
        return None, "no function symbols"
    offsets = []
    for sym in symbols:
        offset = sym.value - text.vaddr
        if not 0 <= offset < code_len:
            return None, "symbol outside text section"
        offsets.append(offset)
    try:
        engarde.disassembler.check_page_separation(image)
    except RejectionError:
        return None, "mixed code/data pages"

    if boundaries is not None:
        cuts = sorted({b for b in boundaries if 0 < b < code_len})
    else:
        cuts = _balanced_cuts(offsets, code_len, parts, min_extent_bytes)
    if not cuts:
        return None, "no usable function-extent boundaries"
    edges = [0, *cuts, code_len]
    extents = list(zip(edges, edges[1:]))
    if len(extents) < 2:
        return None, "fewer than two extents"

    table_syms = sorted(
        sym.value - text.vaddr
        for sym in symbols
        if sym.name.startswith(JUMP_TABLE_PREFIX)
    )
    cand_table = (
        (table_syms[0], table_syms[-1] + _ENTRY_SIZE) if table_syms else None
    )
    window = 12
    for module in modules:
        if type(module) is IfccPolicy:
            window = module.backward_window
    return image, ExtentPlan(
        extents=extents, cand_table=cand_table, window=window
    )


def _balanced_cuts(
    offsets: list[int], code_len: int, parts: int, min_bytes: int
) -> list[int]:
    """Pick ~``parts-1`` function-start offsets that balance extent bytes."""
    if parts < 2:
        return []
    bounds = sorted({o for o in offsets if 0 < o < code_len})
    cuts: list[int] = []
    prev = 0
    for k in range(1, parts):
        ideal = (code_len * k) // parts
        eligible = [
            b for b in bounds
            if b >= prev + min_bytes and code_len - b >= min_bytes
        ]
        if not eligible:
            break
        # closest available function start to the ideal cut — real function
        # layouts rarely have a start exactly at len/parts
        j = bisect_left(eligible, ideal)
        below = eligible[j - 1] if j > 0 else None
        above = eligible[j] if j < len(eligible) else None
        if below is None:
            cut = above
        elif above is None:
            cut = below
        else:
            cut = below if ideal - below <= above - ideal else above
        cuts.append(cut)
        prev = cut
    return cuts


# ------------------------------------------------------------ worker scans


@dataclass
class ExtentScan:
    """Everything one worker learned about one extent (picklable).

    All offsets are text-relative and global; all indices are local to
    the extent's instruction list unless suffixed ``_offset``.
    """

    index: int
    start: int
    end: int
    #: set when the scan hit a condition only the serial path can
    #: reproduce (the whole binary then falls back, charge-free)
    fallback: str | None = None
    #: exact DecodeError message when decode failed inside this extent
    decode_error: str | None = None
    n_insns: int = 0
    n_bytes: int = 0
    #: cursor position after the last decoded instruction
    stitch_pos: int = 0
    offsets: array = field(default_factory=lambda: array("q"))
    mnem_table: list[str] = field(default_factory=list)
    mnem_ids: bytes = b""
    term_local: array = field(default_factory=lambda: array("q"))
    branch_local: array = field(default_factory=lambda: array("q"))
    branch_targets: array = field(default_factory=lambda: array("q"))
    #: first instruction overlapping a 32-byte bundle: (offset, mnem, len)
    bundle_first: tuple | None = None
    #: stack-protection: exact event counts recorded on a private meter
    sp_events: dict = field(default_factory=dict)
    sp_violations: list[str] = field(default_factory=list)
    sp_checked: int = 0
    #: IFCC call sites: (offset, local index, ok, steps, deferred)
    ifcc_sites: list[tuple] = field(default_factory=list)
    #: instruction info inside the candidate jump-table range:
    #: offset -> (mnemonic, length, is_direct_jump)
    table_insns: dict = field(default_factory=dict)
    #: (offset, target) per direct call, in buffer order
    direct_calls: list[tuple] = field(default_factory=list)
    #: first/last ``window`` instructions, for boundary-straddling walks
    head_insns: list[Instruction] = field(default_factory=list)
    tail_insns: list[Instruction] = field(default_factory=list)


def scan_extent(raw_elf, policies, task: dict) -> ExtentScan:
    """Decode + policy-scan one extent (runs on a worker, meter-free).

    Never raises for content reasons: structural surprises set
    ``fallback`` (the parent then re-inspects serially), and decode
    errors are captured with exact partial counts so the parent can
    replay the serial rejection tick-for-tick.  Genuine crashes (e.g.
    an injected ``service.batch.worker`` fault in the service wrapper)
    propagate to the caller and fail the verdict closed.
    """
    start, end = task["start"], task["end"]
    index = task["index"]
    cand_table, window = task["cand_table"], task["window"]
    scan = ExtentScan(index=index, start=start, end=end)
    try:
        image = read_elf(raw_elf)
        text = image.text_sections[0]
        code = bytes(text.data)
    except Exception as exc:  # pragma: no cover - parent preflight parsed OK
        scan.fallback = f"worker ELF parse failed: {type(exc).__name__}"
        return scan

    insns: list[Instruction] = []
    try:
        _, pos = decode_extent(code, start, end, insns)
    except DecodeError as exc:
        scan.decode_error = str(exc)
        scan.n_insns = len(insns)
        scan.n_bytes = (insns[-1].end - start) if insns else 0
        scan.stitch_pos = start + scan.n_bytes
        return scan
    scan.n_insns = len(insns)
    scan.n_bytes = pos - start
    scan.stitch_pos = pos
    if pos != end:
        # the extent boundary fell mid-instruction: only the serial
        # decode knows what the bytes mean
        return scan

    _collect_decode_artifacts(scan, insns)
    try:
        _scan_policies(scan, insns, image, policies, cand_table, window)
    except (_OutOfExtent, PolicyError) as exc:
        scan.fallback = f"extent-local policy scan impossible: {exc}"
    return scan


def _collect_decode_artifacts(scan: ExtentScan, insns: list[Instruction]) -> None:
    offsets = array("q")
    term_local = array("q")
    branch_local = array("q")
    branch_targets = array("q")
    mnem_index: dict[str, int] = {}
    mnem_table: list[str] = []
    mnem_ids = bytearray(len(insns))
    bundle_first = None
    for i, insn in enumerate(insns):
        offsets.append(insn.offset)
        mid = mnem_index.get(insn.mnemonic)
        if mid is None:
            mid = mnem_index[insn.mnemonic] = len(mnem_table)
            mnem_table.append(insn.mnemonic)
        mnem_ids[i] = mid
        if insn.is_terminator:
            term_local.append(i)
        if insn.target is not None:
            branch_local.append(i)
            branch_targets.append(insn.target)
        if bundle_first is None and (
            insn.offset // 32 != (insn.end - 1) // 32
        ):
            bundle_first = (insn.offset, insn.mnemonic, insn.length)
    scan.offsets = offsets
    scan.term_local = term_local
    scan.branch_local = branch_local
    scan.branch_targets = branch_targets
    scan.mnem_table = mnem_table
    scan.mnem_ids = bytes(mnem_ids)
    scan.bundle_first = bundle_first


def _scan_policies(
    scan: ExtentScan,
    insns: list[Instruction],
    image,
    policies,
    cand_table,
    window: int,
) -> None:
    start, end = scan.start, scan.end

    # shared views every policy merge needs
    scan.direct_calls = [
        (insn.offset, insn.target) for insn in insns if insn.is_direct_call
    ]
    if cand_table is not None:
        lo, hi = cand_table
        scan.table_insns = {
            insn.offset: (insn.mnemonic, insn.length, insn.is_direct_jump)
            for insn in insns
            if lo <= insn.offset < hi
        }
    scan.head_insns = insns[:window]
    scan.tail_insns = insns[-window:] if len(insns) > window else list(insns)

    # IFCC: pure backward walks; sites too close to the extent start are
    # deferred to the parent's stitched re-walk
    has_ifcc = any(type(m) is IfccPolicy for m in policies)
    if has_ifcc:
        sites = []
        for i, insn in enumerate(insns):
            if insn.is_indirect_call or insn.is_indirect_jump:
                deferred = scan.index > 0 and i < window
                if cand_table is None or deferred:
                    ok, steps = False, 0
                else:
                    ok, steps = walk_call_site(insns, i, cand_table, window)
                sites.append((insn.offset, i, ok, steps, deferred))
        scan.ifcc_sites = sites

    # stack protection: run the module's own per-function check against
    # an extent-local context, recording exact charges on a private meter
    sp_modules = [m for m in policies if type(m) is StackProtectionPolicy]
    if not sp_modules:
        return
    scratch = CycleMeter()
    symtab = SymbolHashTable(scratch)
    text = image.text_sections[0]
    for sym in image.function_symbols():
        symtab.insert(sym.value - text.vaddr, sym.name)
    work = CycleMeter()
    symtab._meter = work

    local_map = {insn.offset: i for i, insn in enumerate(insns)}
    # a function ending exactly at the extent boundary resolves its end
    # index to len(insns), same as the global slice would
    boundary_sentinel = end
    local_map.setdefault(boundary_sentinel, len(insns))

    ctx = PolicyContext(
        instructions=insns, symtab=symtab, image=image, meter=work,
        index_by_offset=local_map, cached=True,
    )

    def guarded_at(offset, _at=PolicyContext.at, _ctx=ctx):
        if not start <= offset < end:
            raise _OutOfExtent(f"read at {offset:#x} outside [{start:#x},{end:#x})")
        return _at(_ctx, offset)

    ctx.at = guarded_at

    starts_here = [
        (addr, name) for addr, name in sorted(symtab.items())
        if start <= addr < end
    ]
    for module in sp_modules:
        checked = 0
        for addr, name in starts_here:
            if name in module.exempt_functions:
                continue
            inc, violation = module._check_one(ctx, addr, name)
            checked += inc
            if violation is not None:
                scan.sp_violations.append(violation)
        scan.sp_checked = checked
    scan.sp_events = dict(work.total.events)


# --------------------------------------------------------------- the merge


@dataclass
class ExtentSplitOutcome:
    """Result wrapper: the outcome plus how it was obtained."""

    outcome: InspectionOutcome
    split: bool = False
    extents: int = 0
    fallback_reason: str | None = None

    @property
    def report(self) -> ComplianceReport:
        return self.outcome.report


def inspect_extent_split(
    engarde: EnGarde,
    raw_elf,
    *,
    benchmark: str = "client",
    parts: int | None = None,
    min_extent_bytes: int = DEFAULT_MIN_EXTENT_BYTES,
    boundaries: list[int] | None = None,
    run_scans=None,
) -> ExtentSplitOutcome:
    """Inspect *raw_elf* by splitting its text across extent scans.

    *run_scans* maps ``plan.tasks()`` to a list of :class:`ExtentScan`
    (the service layer submits them to its executor; the default runs
    them inline, which the equivalence tests exploit).  The returned
    outcome's report wire and the charges on ``engarde.meter`` are
    byte-identical to ``engarde.inspect(raw_elf, benchmark=...)``; any
    condition the merge cannot reproduce exactly falls back to that
    very call before a single tick is charged.
    """
    parts = parts or 4
    image, plan = plan_extent_split(
        engarde, raw_elf, parts=parts,
        min_extent_bytes=min_extent_bytes, boundaries=boundaries,
    )
    if image is None:
        return ExtentSplitOutcome(
            outcome=engarde.inspect(raw_elf, benchmark=benchmark),
            fallback_reason=plan,
        )

    tasks = plan.tasks()
    if run_scans is None:
        scans = [scan_extent(raw_elf, engarde.policies, t) for t in tasks]
    else:
        scans = run_scans(tasks)

    merged = _merge_extent_scans(engarde, image, scans, plan, benchmark)
    if isinstance(merged, str):
        return ExtentSplitOutcome(
            outcome=engarde.inspect(raw_elf, benchmark=benchmark),
            fallback_reason=merged,
        )
    return ExtentSplitOutcome(
        outcome=merged, split=True, extents=plan.parts,
    )


def _merge_extent_scans(
    engarde: EnGarde, image, scans, plan: ExtentPlan, benchmark: str,
):
    """Merge worker scans into one outcome, or return a fallback reason.

    Structured so that *every* fallback decision happens before the
    first meter charge: once the disassembly replay starts, the merge
    is committed and provably exact.
    """
    meter = engarde.meter
    policy_names = engarde.policies.names()
    text = image.text_sections[0]
    code = text.data
    code_len = len(code)

    # ---- trust pass: no charges yet -----------------------------------
    if scans is None or len(scans) != plan.parts:
        return "scan tasks lost"
    pos = 0
    n_insns = 0
    n_bytes = 0
    failure: str | None = None
    clean: list[ExtentScan] = []
    for k, scan in enumerate(scans):
        if scan is None:
            return "scan task lost"
        if scan.fallback is not None:
            return scan.fallback
        if scan.start != pos:
            return "extent decode did not stitch"
        if scan.decode_error is not None:
            failure = scan.decode_error
            n_insns += scan.n_insns
            n_bytes += scan.n_bytes
            break
        if scan.stitch_pos != scan.end:
            return "extent decode did not stitch"
        n_insns += scan.n_insns
        n_bytes += scan.n_bytes
        pos = scan.end
        clean.append(scan)

    if failure is not None:
        # the serial decode provably fails at the same byte with the
        # same partial charges: replay them and reject
        with meter.phase("disassembly"):
            _replay_allocs(engarde.disassembler, n_insns)
            meter.charge_batch({
                "decode_byte": n_bytes,
                "decode_insn": n_insns,
                "buffer_store": n_insns,
            })
        return InspectionOutcome(
            report=ComplianceReport.rejected(
                benchmark, policy_names, stage="disasm"
            )
        )

    if pos != code_len:
        return "extent decode did not cover the text section"

    # ---- committed: disassembly phase replay --------------------------
    by_offset: dict[int, int] = {}
    base = 0
    for scan in clean:
        for j, offset in enumerate(scan.offsets):
            by_offset[offset] = base + j
        base += scan.n_insns

    with meter.phase("disassembly"):
        _replay_allocs(engarde.disassembler, n_insns)
        meter.charge_batch({
            "decode_byte": n_bytes,
            "decode_insn": n_insns,
            "buffer_store": n_insns,
        })
        symtab = SymbolHashTable(meter)
        roots: list[int] = []
        for sym in image.function_symbols():
            offset = sym.value - text.vaddr
            symtab.insert(offset, sym.name)
            roots.append(offset)
        entry_offset = image.entry - text.vaddr
        validation_error = _merged_validate(
            clean, by_offset, n_insns, entry_offset, roots
        )
    if validation_error is not None:
        return InspectionOutcome(
            report=ComplianceReport.rejected(
                benchmark, policy_names, stage="disasm"
            )
        )

    # ---- policy phase -------------------------------------------------
    results: list[PolicyResult] = []
    failed: list[str] = []
    with meter.phase("policy"):
        for module in engarde.policies:
            if type(module) is LibraryLinkingPolicy:
                result = _merge_library_linking(
                    module, clean, symtab, by_offset, n_insns, code, meter
                )
            elif type(module) is StackProtectionPolicy:
                result = _merge_stack_protection(module, clean, meter)
            else:
                result = _merge_ifcc(
                    module, clean, symtab, meter, plan, n_insns
                )
            results.append(result)
            if not result.compliant:
                failed.append(module.name)

    if failed:
        return InspectionOutcome(
            report=ComplianceReport.rejected(
                benchmark, policy_names, failed=failed
            ),
            policy_results=results,
        )
    pages = static_text_pages(image)
    if not pages:
        return InspectionOutcome(
            report=ComplianceReport.rejected(
                benchmark, policy_names, stage="no-text"
            ),
            policy_results=results,
        )
    return InspectionOutcome(
        report=ComplianceReport.accepted(benchmark, policy_names, pages),
        policy_results=results,
    )


def _replay_allocs(disassembler, n_insns: int) -> None:
    """Replay the buffer-growth trampoline calls of a serial decode."""
    alloc = disassembler._alloc_pages
    if disassembler.per_insn_malloc:
        for _ in range(n_insns):
            alloc(1)
    else:
        pages = -(-n_insns * INSN_RECORD_BYTES // PAGE_SIZE)
        for _ in range(pages):
            alloc(1)


# ------------------------------------------------------- validation merge


def _merged_validate(
    scans: list[ExtentScan],
    by_offset: dict[int, int],
    n_insns: int,
    entry: int,
    roots: list[int],
) -> str | None:
    """All three NaCl checks from compact artifacts; returns the error
    message (reference-identical order and wording) or None.

    The validator charges nothing, so only the pass/fail outcome (and
    the resulting ``stage="disasm"`` rejection) must match — the
    messages match anyway because they feed the detail field.
    """
    if not n_insns:
        return "empty instruction stream"
    for scan in scans:
        if scan.bundle_first is not None:
            offset, mnemonic, length = scan.bundle_first
            return (
                f"instruction at {offset:#x} ({mnemonic}, "
                f"{length} bytes) overlaps a 32-byte boundary"
            )
    for scan in scans:
        for j, target in zip(scan.branch_local, scan.branch_targets):
            if target not in by_offset:
                return (
                    f"{scan.mnem_table[scan.mnem_ids[j]]} at "
                    f"{scan.offsets[j]:#x} targets {target:#x}, "
                    "which is not a valid instruction start"
                )
    if entry not in by_offset:
        return f"entry point {entry:#x} is not an instruction start"

    term_idx: list[int] = []
    branch_idx: list[int] = []
    branch_tgt: list[int] = []
    base = 0
    for scan in scans:
        term_idx.extend(base + j for j in scan.term_local)
        branch_idx.extend(base + j for j in scan.branch_local)
        branch_tgt.extend(scan.branch_targets)
        base += scan.n_insns

    stack: list[int] = []
    for origin in [entry, *roots]:
        idx = by_offset.get(origin)
        if idx is None:
            return f"root {origin:#x} is not an instruction start"
        stack.append(idx)

    covered = bytearray(n_insns)
    tgt_by_branch = dict(zip(branch_idx, branch_tgt))
    nterm = len(term_idx)
    nbranch = len(branch_idx)
    while stack:
        idx = stack.pop()
        if idx >= n_insns or covered[idx]:
            continue
        j = bisect_left(term_idx, idx)
        span_end = term_idx[j] if j < nterm else n_insns - 1
        covered[idx:span_end + 1] = b"\x01" * (span_end + 1 - idx)
        k = bisect_left(branch_idx, idx)
        while k < nbranch and branch_idx[k] <= span_end:
            tgt = by_offset.get(tgt_by_branch[branch_idx[k]])
            if tgt is not None and not covered[tgt]:
                stack.append(tgt)
            k += 1

    if covered.count(0):
        base = 0
        for scan in scans:
            for j in range(scan.n_insns):
                if covered[base + j]:
                    continue
                mnemonic = scan.mnem_table[scan.mnem_ids[j]]
                if mnemonic in ("nop", "nopl"):
                    continue
                return (
                    f"unreachable instruction at {scan.offsets[j]:#x} "
                    f"({mnemonic})"
                )
            base += scan.n_insns
    return None


# ----------------------------------------------------------- policy merges


def _merge_stack_protection(
    module: StackProtectionPolicy, scans: list[ExtentScan], meter: CycleMeter
) -> PolicyResult:
    """Flush worker-recorded counts; order violations by extent order,
    which equals the serial sorted-function-starts order."""
    result = module.result()
    counts: dict[str, int] = {}
    checked = 0
    for scan in scans:
        for event, count in scan.sp_events.items():
            counts[event] = counts.get(event, 0) + count
        checked += scan.sp_checked
        for note in scan.sp_violations:
            result.add_violation(note)
    if counts:
        meter.charge_batch(counts)
    result.stats["functions_checked"] = checked
    return result


def _merge_library_linking(
    module: LibraryLinkingPolicy,
    scans: list[ExtentScan],
    symtab: SymbolHashTable,
    by_offset: dict[int, int],
    n_insns: int,
    code,
    meter: CycleMeter,
) -> PolicyResult:
    """:meth:`LibraryLinkingPolicy.check` verbatim over merged views.

    Callee hashing crosses extents freely, so it runs here in the
    parent — against the real symtab and the real meter, with the same
    digest-index/memoize behaviour as the serial cached context.
    """
    from ..crypto.sha256 import sha256_fast

    result = module.result()
    calls_checked = 0
    hashes_computed = 0
    cache: dict[int, bytes] = {}
    use_index = not module.memoize
    digest_index: dict[int, tuple[bytes, int, int]] = {}

    def hash_function(start: int) -> tuple[bytes, int, int]:
        first = by_offset[start]
        end_offset = symtab.next_function_start(start)
        if end_offset is None:
            last = n_insns
            end_byte = len(code)
        else:
            last = by_offset[end_offset]
            end_byte = end_offset
        meter.charge("symtab_lookup", max(last - first, 1))
        nbytes = end_byte - start
        blocks = (nbytes + 63) // 64 + 1
        meter.charge("sha256_block", blocks)
        digest = sha256_fast(bytes(code[start:end_byte]))
        return digest, 1 + max(last - first, 1), blocks

    meter.charge("policy_scan_insn", n_insns)
    for scan in scans:
        for offset, target in scan.direct_calls:
            name = symtab.lookup(target)
            if name is None:
                result.add_violation(
                    f"direct call at +{offset:#x} targets a non-function "
                    "address"
                )
                continue
            if name not in module.reference_hashes:
                if module.require_all_calls_known:
                    result.add_violation(
                        f"call to {name!r} which is not in the "
                        f"{module.library_name} database"
                    )
                continue
            calls_checked += 1
            if module.memoize and target in cache:
                digest = cache[target]
            elif use_index and target in digest_index:
                digest, lookups, blocks = digest_index[target]
                meter.charge_batch(
                    {"symtab_lookup": lookups, "sha256_block": blocks}
                )
                hashes_computed += 1
            else:
                digest, lookups, blocks = hash_function(target)
                hashes_computed += 1
                if module.memoize:
                    cache[target] = digest
                elif use_index:
                    digest_index[target] = (digest, lookups, blocks)
            if digest != module.reference_hashes[name]:
                result.add_violation(
                    f"function {name!r} does not match {module.library_name}"
                )

    result.stats["calls_checked"] = calls_checked
    result.stats["hashes_computed"] = hashes_computed
    return result


def _merge_ifcc(
    module: IfccPolicy,
    scans: list[ExtentScan],
    symtab: SymbolHashTable,
    meter: CycleMeter,
    plan: ExtentPlan,
    n_insns: int,
) -> PolicyResult:
    """Jump-table format check in the parent; per-site walk results from
    the workers, re-walked over a stitched window when deferred."""
    result = module.result()
    table_range = _merge_find_jump_table(scans, symtab, result, meter)
    indirect_calls = 0
    meter.charge("policy_scan_insn", n_insns)
    for k, scan in enumerate(scans):
        for offset, local_idx, ok, steps, deferred in scan.ifcc_sites:
            indirect_calls += 1
            if table_range is None:
                result.add_violation(
                    "indirect call present but no IFCC jump table found"
                )
                continue
            if deferred:
                ok, steps = _deferred_walk(
                    scans, k, local_idx, table_range, plan.window
                )
            if steps:
                meter.charge("policy_compare", steps)
            if not ok:
                result.add_violation(
                    f"indirect call at +{offset:#x} is not IFCC-protected"
                )
    result.stats["indirect_calls"] = indirect_calls
    return result


def _merge_find_jump_table(
    scans: list[ExtentScan],
    symtab: SymbolHashTable,
    result: PolicyResult,
    meter: CycleMeter,
):
    """:meth:`IfccPolicy._find_jump_table` from merged table-range info."""
    entries = sorted(
        addr for addr, name in symtab.items()
        if name.startswith(JUMP_TABLE_PREFIX)
    )
    if not entries:
        return None
    start, end = entries[0], entries[-1] + _ENTRY_SIZE
    expected = set(range(start, end, _ENTRY_SIZE))
    if set(entries) != expected:
        result.add_violation("jump table entries are not contiguous")
        return None
    table_insns: dict[int, tuple] = {}
    for scan in scans:
        table_insns.update(scan.table_insns)
    compares = 0
    try:
        for addr in entries:
            compares += 2
            jmp = table_insns.get(addr)
            if jmp is None or not jmp[2] or jmp[1] != 5:
                result.add_violation("malformed jump-table entry (no jmpq)")
                return None
            pad = table_insns.get(addr + 5)
            if pad is None or pad[0] != "nopl" or pad[1] != 3:
                result.add_violation("malformed jump-table entry (no nopl)")
                return None
    finally:
        if compares:
            meter.charge("policy_compare", compares)
    size = end - start
    if size & (size - 1):
        result.add_violation("jump table size is not a power of two")
        return None
    return start, end


def _deferred_walk(
    scans: list[ExtentScan],
    k: int,
    local_idx: int,
    table_range: tuple[int, int],
    window: int,
) -> tuple[bool, int]:
    """Re-run a boundary-straddling IFCC walk over a stitched window.

    Prepending predecessor tails reconstructs exactly the global
    instruction slice the serial walk reads: a tail shorter than the
    window is that extent *in full* (so stitching may continue left),
    and running out of extents means the stitched prefix IS the global
    prefix, making the window clamp exact as well.
    """
    prefix: list[Instruction] = []
    j = k - 1
    while j >= 0 and len(prefix) < window:
        prefix = scans[j].tail_insns + prefix
        j -= 1
    site = scans[k].head_insns[:local_idx + 1]
    stitched = prefix + site
    return walk_call_site(
        stitched, len(prefix) + local_idx, table_range, window
    )
