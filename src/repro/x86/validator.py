"""NaCl-style structural validation of disassembled code.

The paper (section 3) lists the constraints NaCl's disassembler imposes and
EnGarde inherits:

* no instruction may overlap a 32-byte boundary,
* all control transfers must target valid instruction starts,
* all valid instructions must be reachable from the start address.

`validate` enforces all three over the decoder's
:class:`~repro.x86.decoder.Columns` (an instruction list is converted
first).  Reachability treats the entry point plus any caller-supplied
*roots* (function symbols, relocation targets — e.g. IFCC jump-table
entries reached only through indirect calls) as sources, and propagates
through fall-through edges and direct branch/call targets.  Every check
reads the offset, kind and target columns; an
:class:`~repro.x86.insn.Instruction` is built only for the offending row,
to name it in the error.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence

from ..errors import ValidationError
from .asm import BUNDLE_SIZE
from .decoder import (
    K_NOP,
    TARGET_KINDS,
    TERMINATOR_KINDS,
    Columns,
    InstructionView,
)
from .insn import Instruction

__all__ = [
    "validate",
    "validate_fast",
    "check_bundles",
    "check_targets",
    "check_reachability",
    "as_columns",
]


def as_columns(instructions: "Columns | Sequence[Instruction]") -> Columns:
    """The :class:`Columns` behind *instructions* (built if it is a list)."""
    if isinstance(instructions, Columns):
        return instructions
    if isinstance(instructions, InstructionView) and instructions.whole:
        return instructions.columns
    return Columns.from_instructions(instructions)


def check_bundles(instructions, bundle_size: int = BUNDLE_SIZE) -> None:
    """Reject any instruction overlapping a *bundle_size*-byte boundary."""
    cols = as_columns(instructions)
    row = (cols.bundle_row if bundle_size == BUNDLE_SIZE
           else cols.first_bundle_row(bundle_size))
    if row >= 0:
        insn = cols.insn(row)
        raise ValidationError(
            f"instruction at {insn.offset:#x} ({insn.mnemonic}, "
            f"{insn.length} bytes) overlaps a {bundle_size}-byte boundary"
        )


def check_targets(instructions, starts=None):
    """Check all static branch targets land on instruction starts.

    Returns the offset -> row index map (the valid instruction starts)
    for reuse.  Pass a precomputed *starts* set (or dict keyed by offset)
    to skip building it.
    """
    cols = as_columns(instructions)
    if starts is None:
        starts = cols.by_offset()
    arg = cols.arg
    for i in cols.rows(*TARGET_KINDS):
        if arg[i] not in starts:
            insn = cols.insn(i)
            raise ValidationError(
                f"{insn.mnemonic} at {insn.offset:#x} targets {insn.target:#x}, "
                "which is not a valid instruction start"
            )
    return starts


def check_reachability(
    instructions,
    entry: int = 0,
    roots: Iterable[int] = (),
    by_offset: "dict[int, int] | None" = None,
) -> None:
    """Check every instruction is reachable from *entry* or a root.

    NOP padding inserted for bundle alignment after an unconditional
    terminator is exempt (it can never execute, and compilers routinely
    emit it); everything else must be reachable.

    Fall-through chains are contiguous row runs ending at the next
    terminator, so the worklist marks whole ``[row, next_terminator]``
    spans with one ``bytearray`` slice-assign and enqueues only the
    branch targets inside each span.
    """
    cols = as_columns(instructions)
    if by_offset is None:
        by_offset = cols.by_offset()
    n = len(cols)
    if entry not in by_offset and n:
        raise ValidationError(f"entry point {entry:#x} is not an instruction start")

    covered = bytearray(n)
    stack = []
    for origin in [entry, *roots]:
        idx = by_offset.get(origin)
        if idx is None:
            raise ValidationError(f"root {origin:#x} is not an instruction start")
        stack.append(idx)

    term_idx = cols.rows(*TERMINATOR_KINDS)
    branch_idx = cols.rows(*TARGET_KINDS)
    arg = cols.arg
    nterm = len(term_idx)
    nbranch = len(branch_idx)
    while stack:
        idx = stack.pop()
        if idx >= n or covered[idx]:
            continue
        j = bisect_left(term_idx, idx)
        span_end = term_idx[j] if j < nterm else n - 1
        covered[idx:span_end + 1] = b"\x01" * (span_end + 1 - idx)
        k = bisect_left(branch_idx, idx)
        while k < nbranch and branch_idx[k] <= span_end:
            tgt = by_offset.get(arg[branch_idx[k]])
            if tgt is not None and not covered[tgt]:
                stack.append(tgt)
            k += 1

    kind = cols.kind
    idx = covered.find(0)
    while idx >= 0:
        if kind[idx] != K_NOP:  # nops are dead alignment padding
            insn = cols.insn(idx)
            raise ValidationError(
                f"unreachable instruction at {insn.offset:#x} ({insn.mnemonic})"
            )
        idx = covered.find(0, idx + 1)


def validate(
    instructions,
    *,
    entry: int = 0,
    roots: Iterable[int] = (),
    bundle_size: int = BUNDLE_SIZE,
) -> None:
    """Run all three NaCl constraints; raises :class:`ValidationError`.

    *instructions* is a :class:`Columns` or a sequence of
    :class:`Instruction` objects.  The offset index serves both as the
    target start-set and the reachability index, built once (and shared
    with the policy context through the columns).
    """
    _validate(as_columns(instructions), entry, roots, bundle_size)


def validate_fast(
    columns: Columns,
    *,
    entry: int = 0,
    roots: Iterable[int] = (),
    bundle_size: int = BUNDLE_SIZE,
) -> None:
    """:func:`validate` over the columns of a streamed scan.

    The same checks, order and error text as :func:`validate`; a
    separate entry point so traces tell the streamed receive path's
    validation from the phased one.
    """
    _validate(columns, entry, roots, bundle_size)


def _validate(cols: Columns, entry: int, roots: Iterable[int], bundle_size: int) -> None:
    if not len(cols):
        raise ValidationError("empty instruction stream")
    check_bundles(cols, bundle_size)
    by_offset = check_targets(cols)
    check_reachability(cols, entry, roots, by_offset)
