"""Indirect function-call compliance — IFCC (paper section 5, Figure 5).

Verifies that the executable was compiled with LLVM's forward-edge CFI
(IFCC patch, reviews.llvm.org/D4167): every indirect call must be
preceded by the jump-table masking sequence::

    1b459: lea  0x85c70(%rip),%rax   # jump-table base
    1b460: sub  %eax,%ecx
    1b462: and  $0x1ff8,%rcx          # mask to an 8-byte-aligned entry
    1b469: add  %rax,%rcx
    1b475: callq *%rcx

and jump-table entries have the canonical 8-byte format::

    a19d0: jmpq 41090 <target>
    a19d5: nopl (%rax)

The module first determines the table's range from the
``__llvm_jump_instr_table_0_*`` symbols (validating each entry's format),
then linearly scans the buffer; at each indirect call it walks backward
through the lea/sub/and/add chain checking register dataflow, verifies
the mask matches the table size, and checks the lea target lies at the
table base.  A single linear pass with a short backward window per call
site — which is why Figure 5's policy-checking column is two orders of
magnitude cheaper than the other policies'.
"""

from __future__ import annotations

from collections.abc import Sequence

from ...x86 import Imm, Instruction, InstructionView, Mem
from ...x86.decoder import K_ICALL, K_IJMP, K_JMP, K_NOP, NO_REG
from ...x86.registers import GPR64, Reg
from ..policy import PolicyContext, PolicyModule, PolicyResult

__all__ = ["IfccPolicy", "JUMP_TABLE_PREFIX", "walk_call_site"]

JUMP_TABLE_PREFIX = "__llvm_jump_instr_table_0_"
_ENTRY_SIZE = 8


class IfccPolicy(PolicyModule):
    """Checks indirect calls against the IFCC jump-table discipline."""

    name = "indirect-function-call"
    config_fields = ("backward_window",)

    def __init__(self, *, backward_window: int = 12) -> None:
        self.backward_window = backward_window

    def config_digest(self) -> bytes:
        return self.backward_window.to_bytes(2, "big")

    def check(self, ctx: PolicyContext) -> PolicyResult:
        result = self.result()
        meter = ctx.meter

        table_range = self._find_jump_table(ctx, result)
        indirect_calls = 0
        meter.charge("policy_scan_insn", len(ctx.columns))
        offsets = ctx.columns.off
        for idx in ctx.indirect_calls():
            indirect_calls += 1
            if table_range is None:
                result.add_violation(
                    "indirect call present but no IFCC jump table found"
                )
                continue
            if not self._check_call_site(ctx, idx, table_range):
                result.add_violation(
                    f"indirect call at +{offsets[idx]:#x} is not IFCC-protected"
                )
        result.stats["indirect_calls"] = indirect_calls
        return result

    # ------------------------------------------------------------------

    def _find_jump_table(
        self, ctx: PolicyContext, result: PolicyResult
    ) -> tuple[int, int] | None:
        """Locate and format-check the jump table; returns (start, end)."""
        meter = ctx.meter
        entries = sorted(
            addr for addr, name in ctx.symtab.items()
            if name.startswith(JUMP_TABLE_PREFIX)
        )
        if not entries:
            return None
        start, end = entries[0], entries[-1] + _ENTRY_SIZE
        # Entries must tile the range contiguously at 8-byte stride and
        # each must be "jmpq ...; nopl".
        expected = set(range(start, end, _ENTRY_SIZE))
        if set(entries) != expected:
            result.add_violation("jump table entries are not contiguous")
            return None
        # Two comparisons per entry, accumulated locally and flushed in one
        # batched charge even when a malformed entry aborts the loop early.
        # Read from the columns: a direct jmp is its kind, a length is
        # the distance to the next row, and a 3-byte nop row is a nopl
        # exactly when it starts with the 0F escape (the other 3-byte
        # form, 66 REX 90, is a plain nop).
        cols = ctx.columns
        kind = cols.kind
        index = ctx.index_by_offset
        text = ctx.image.text_sections[0].data
        compares = 0
        try:
            for addr in entries:
                compares += 2
                row = index.get(addr)
                if (row is None or kind[row] != K_JMP
                        or cols.row_end(row) - addr != 5):
                    result.add_violation("malformed jump-table entry (no jmpq)")
                    return None
                pad = index.get(addr + 5)
                if (pad is None or kind[pad] != K_NOP
                        or cols.row_end(pad) - (addr + 5) != 3
                        or text[addr + 5] != 0x0F):
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

    def _check_call_site(
        self, ctx: PolicyContext, idx: int, table_range: tuple[int, int]
    ) -> bool:
        """Walk backward over add/and/sub/lea verifying register dataflow."""
        ok, steps = walk_call_site(
            ctx.instructions, idx, table_range, self.backward_window
        )
        if steps:
            ctx.meter.charge("policy_compare", steps)
        return ok


def walk_call_site(
    instructions: Sequence[Instruction],
    idx: int,
    table_range: tuple[int, int],
    backward_window: int,
) -> tuple[bool, int]:
    """The IFCC backward dataflow walk, meter-free.

    Returns ``(protected, steps)`` where *steps* is the number of
    backward comparisons the walk performed — the caller charges
    ``policy_compare`` with it (one charge per call site, whichever way
    the walk exits).  Factored out of :meth:`IfccPolicy._check_call_site`
    so the extent-split merge can re-run boundary-straddling walks over
    a stitched window with provably identical semantics.

    Over a whole decoded buffer (an :class:`InstructionView`) the walk
    reads the kind and written-register columns first and builds an
    :class:`Instruction` only for rows that can match or end it: nops
    are skipped by kind, and in the ``lea`` state a row that writes
    neither register can be neither the ``lea`` nor a clobber.
    """
    cols = None
    if isinstance(instructions, InstructionView) and instructions.whole:
        cols = instructions.columns
    if cols is not None and cols.kind[idx] in (K_ICALL, K_IJMP):
        # ``callq *%reg`` writes its operand register (wreg); a memory
        # operand writes none
        if cols.wreg[idx] == NO_REG:
            return False, 0
        target = GPR64[cols.wreg[idx]]
    else:
        call = instructions[idx]
        target = call.operands[0] if call.operands else None
    if not isinstance(target, Reg):
        return False, 0  # memory-indirect calls are never IFCC-emitted

    table_start, table_end = table_range
    ptr = target  # e.g. %rcx
    base: Reg | None = None
    mask_value: int | None = None
    state = "add"  # expected next (walking backward): add, and, sub, lea
    # One comparison per backward step; counted and returned whichever
    # way the walk exits.
    steps = 0
    for back in range(idx - 1, max(idx - 1 - backward_window, -1), -1):
        steps += 1
        if cols is not None:
            if cols.kind[back] == K_NOP:
                continue
            if state == "lea" and cols.wreg[back] not in (ptr.num, base.num):
                continue
        insn = instructions[back]
        if insn.mnemonic in ("nop", "nopl"):
            continue
        if state == "add":
            # add %base,%ptr
            if (insn.mnemonic == "add" and len(insn.operands) == 2
                    and isinstance(insn.operands[0], Reg)
                    and isinstance(insn.operands[1], Reg)
                    and insn.operands[1].num == ptr.num):
                base = insn.operands[0]
                state = "and"
                continue
            return False, steps
        if state == "and":
            # and $mask,%ptr
            if (insn.mnemonic == "and" and len(insn.operands) == 2
                    and isinstance(insn.operands[0], Imm)
                    and isinstance(insn.operands[1], Reg)
                    and insn.operands[1].num == ptr.num):
                mask_value = insn.operands[0].value
                state = "sub"
                continue
            return False, steps
        if state == "sub":
            # sub %base(32),%ptr(32)
            if (insn.mnemonic == "sub" and len(insn.operands) == 2
                    and isinstance(insn.operands[0], Reg)
                    and isinstance(insn.operands[1], Reg)
                    and base is not None
                    and insn.operands[0].num == base.num
                    and insn.operands[1].num == ptr.num):
                state = "lea"
                continue
            return False, steps
        if state == "lea":
            # lea table(%rip),%base
            if (insn.mnemonic == "lea" and len(insn.operands) == 2
                    and isinstance(insn.operands[0], Mem)
                    and insn.operands[0].rip_relative
                    and isinstance(insn.operands[1], Reg)
                    and base is not None
                    and insn.operands[1].num == base.num):
                lea_target = insn.end + insn.operands[0].disp
                if lea_target != table_start:
                    return False, steps
                if mask_value != (table_end - table_start) - _ENTRY_SIZE:
                    return False, steps
                return True, steps
            # tolerate the pointer load interleaved in the chain
            if _writes_reg(insn, ptr) or (base is not None and _writes_reg(insn, base)):
                return False, steps
            continue
    return False, steps


def _writes_reg(insn: Instruction, reg: Reg) -> bool:
    if not insn.operands:
        return False
    dst = insn.operands[-1]
    return (
        isinstance(dst, Reg)
        and dst.num == reg.num
        and insn.mnemonic not in ("cmp", "test", "push")
    )
