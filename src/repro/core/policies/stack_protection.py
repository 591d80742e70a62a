"""Stack-protection compliance (paper section 5, Figure 4).

Verifies that functions carry Clang ``-fstack-protector(-all)``-style
canary instrumentation::

    19311: mov %fs:0x28,%rax     ; prologue: load the canary
    1931a: mov %rax,(%rsp)       ;           store at top of frame
    193fe: mov %fs:0x28,%rax     ; epilogue: recompute
    19407: cmp (%rsp),%rax       ;           compare
    1940b: jne 1941f             ;           mismatch ->
    1941f: callq __stack_chk_fail

The algorithm follows the paper's description: within each function,
**every** instruction that stores to a stack slot is examined — the source
register's defining instruction is found by scanning backward, and the
whole function is searched for a ``cmp`` pairing that slot with that
register (followed by the ``jne`` / ``callq __stack_chk_fail`` tail).  The
per-store full-function search makes the check super-linear in function
size, which is why 401.bzip2 (few huge functions) costs *more* cycles than
Nginx in Figure 4 despite a tenth of the instructions.

The implementation batches its cycle charges (one ``charge`` call per
scan, with the exact instruction counts the naive loop would examine)
so that simulated cost is faithful while Python overhead stays sane.
It reads the decoder's columns — stack stores and slot compares are row
kinds, the defining write is a reverse search of the written-register
column — and builds ``Instruction`` objects only for the canary loads
and check tails it has to match operand by operand.
"""

from __future__ import annotations

from bisect import bisect_left

from ...x86 import Instruction, Mem
from ...x86.decoder import K_CMP, K_NOP, K_STORE, unpack_slot
from ...x86.registers import Reg
from ..policy import PolicyContext, PolicyModule, PolicyResult
from ..streaming import RecordingMeter

__all__ = ["StackProtectionPolicy", "CANARY_FS_OFFSET"]

CANARY_FS_OFFSET = 0x28
_CHK_FAIL = "__stack_chk_fail"


def _is_canary_load(insn: Instruction, into: int | None = None) -> bool:
    """``mov %fs:0x28, %reg`` (optionally into register number *into*)."""
    if insn.mnemonic != "mov" or len(insn.operands) != 2:
        return False
    src, dst = insn.operands
    if not isinstance(src, Mem) or not isinstance(dst, Reg):
        return False
    if not (src.seg == "fs" and src.disp == CANARY_FS_OFFSET
            and src.base is None and src.index is None):
        return False
    return into is None or dst.num == into


def _slot_views(ctx: PolicyContext):
    """Whole-buffer views the per-function check bisects into.

    * stack stores — ``mov %reg, disp(%rsp|%rbp)`` (no segment, no
      index): sorted rows plus ``(reg, disp)`` per row.  Both %rsp- and
      %rbp-based slots are "the stack's variables"; the canary spill
      itself is always %rsp-based (``mov %rax,(%rsp)``);
    * slot compares — ``cmp disp(%rsp), %reg``: sorted rows plus
      ``(disp, reg)`` per row.
    """
    cols = ctx.columns
    arg = cols.arg
    store_rows: list[int] = []
    store_facts: list[tuple[int, int]] = []
    for row in cols.rows(K_STORE):
        reg, base, disp = unpack_slot(arg[row])
        if base == 4 or base == 5:
            store_rows.append(row)
            store_facts.append((reg, disp))
    cmp_rows: list[int] = []
    cmp_facts: list[tuple[int, int]] = []
    for row in cols.rows(K_CMP):
        reg, base, disp = unpack_slot(arg[row])
        if base == 4:
            cmp_rows.append(row)
            cmp_facts.append((disp, reg))
    return store_rows, store_facts, cmp_rows, cmp_facts


class StackProtectionPolicy(PolicyModule):
    """Checks every client function for canary instrumentation."""

    name = "stack-protection"
    config_fields = ("exempt_functions",)

    def __init__(
        self,
        *,
        exempt_functions: frozenset[str] | set[str] = frozenset(),
    ) -> None:
        #: functions not subject to the check — by agreement, the linked
        #: library's own functions (verified by the library-linking policy
        #: instead) plus the entry stub
        self.exempt_functions = frozenset(exempt_functions) | {"_start"}

    def config_digest(self) -> bytes:
        """The exemption list is part of the agreement."""
        from ...crypto.sha256 import sha256_fast

        return sha256_fast("\n".join(sorted(self.exempt_functions)).encode())

    def check(self, ctx: PolicyContext) -> PolicyResult:
        result = self.result()
        functions_checked = 0
        memo = getattr(ctx, "delta", None)
        session = (
            memo.session(ctx, self.config_digest()) if memo is not None else None
        )
        views = ctx.view(self.name, _slot_views)
        for start, name in ctx.function_starts():
            if name in self.exempt_functions:
                continue
            if session is None:
                inc, violation = self._check_one(ctx, start, name, views)
            else:
                hit = session.lookup(name, start)
                if hit is not None:
                    inc, violation, charges = hit
                    RecordingMeter.replay(ctx.meter, charges)
                else:
                    inc, violation = self._check_one_recorded(
                        ctx, start, name, session, views
                    )
            functions_checked += inc
            if violation is not None:
                result.add_violation(violation)
        result.stats["functions_checked"] = functions_checked
        return result

    def _check_one(
        self, ctx: PolicyContext, start: int, name: str, views=None
    ) -> tuple[int, str | None]:
        """The per-function check: (checked increment, violation or None)."""
        first, last = ctx.function_extent(start)
        if views is None:
            views = ctx.view(self.name, _slot_views)
        store_rows = views[0]
        lo = bisect_left(store_rows, first)
        hi = bisect_left(store_rows, last)
        if lo == hi:
            return 0, None  # no stack variables: nothing to protect
        if not self._function_protected(ctx, first, last, views, lo, hi):
            return 1, (
                f"function {name!r} lacks stack-protector instrumentation"
            )
        return 1, None

    def _check_one_recorded(
        self, ctx: PolicyContext, start: int, name: str, session, views
    ) -> tuple[int, str | None]:
        """Run the check while capturing charges and out-of-extent reads.

        The recorded trace makes the verdict replayable: a later run may
        skip this function only if its bytes (and everything the tail walk
        read outside them) are provably unchanged — then the charges are
        re-issued verbatim, keeping meter totals tick-identical.
        """
        real_meter = ctx.meter
        real_symtab_meter = ctx.symtab._meter
        recorder = RecordingMeter(real_meter)
        reads: list[int] = []
        cls_at = type(ctx).at

        def tracked_at(offset):
            reads.append(offset)
            return cls_at(ctx, offset)

        ctx.meter = recorder
        ctx.symtab._meter = recorder
        ctx.at = tracked_at
        try:
            inc, violation = self._check_one(ctx, start, name, views)
        finally:
            ctx.meter = real_meter
            ctx.symtab._meter = real_symtab_meter
            del ctx.at
        session.record(name, start, inc, violation, recorder.events, reads)
        return inc, violation

    # ------------------------------------------------------------------

    def _function_protected(
        self, ctx: PolicyContext, first: int, last: int, views, lo: int, hi: int
    ) -> bool:
        """The paper's per-function algorithm, with batched cost charging.

        For every stack store: (a) scan backward for the source register's
        defining instruction; (b) scan the function for a ``cmp`` matching
        (slot, register) with the check tail.  Protected iff some store's
        value is the ``%fs:0x28`` canary *and* its tail exists.  Stores
        ``lo..hi`` of the whole-buffer views fall inside the function
        ``[first, last)``; indices below are function-relative.
        """
        meter = ctx.meter
        n = last - first
        meter.charge("policy_scan_insn", n)
        store_rows, store_facts, cmp_rows, cmp_facts = views
        # register written per row (AT&T: destination last; cmp, test
        # and push define nothing)
        wreg = ctx.columns.wreg

        c_lo = bisect_left(cmp_rows, first)
        c_hi = bisect_left(cmp_rows, last)
        cmps = [                                     # (idx, disp, reg)
            (cmp_rows[j] - first, *cmp_facts[j]) for j in range(c_lo, c_hi)
        ]

        tail_cache: dict[int, bool] = {}
        protected = False
        backward_charges = 0
        forward_charges = 0

        for j in range(lo, hi):
            row = store_rows[j]
            idx = row - first
            src_num, disp = store_facts[j]
            # (a) backward scan to the defining instruction.
            defining = wreg.rfind(src_num, first, row)
            if defining >= 0:
                defining_idx = defining - first
                backward_charges += idx - defining_idx
            else:
                defining_idx = None
                backward_charges += idx
            # (b) forward scan for the first matching cmp with a valid tail.
            match_charge = n  # examined everything when nothing matches
            found_tail = False
            for cmp_idx, cmp_disp, cmp_reg in cmps:
                if cmp_disp != disp or cmp_reg != src_num:
                    continue
                ok = tail_cache.get(cmp_idx)
                if ok is None:
                    ok = self._tail_ok(ctx, first, last, cmp_idx, cmp_reg)
                    tail_cache[cmp_idx] = ok
                if ok:
                    match_charge = cmp_idx + 1
                    found_tail = True
                    break
            forward_charges += match_charge

            if found_tail and defining_idx is not None and _is_canary_load(
                ctx.instructions[first + defining_idx], src_num
            ):
                protected = True

        compares = backward_charges + forward_charges
        if compares:
            meter.charge("policy_compare", compares)
        return protected

    def _tail_ok(
        self, ctx: PolicyContext, first: int, last: int, cmp_idx: int, reg_num: int
    ) -> bool:
        """cmp is preceded by the canary recompute and followed by
        ``jne -> callq __stack_chk_fail`` (alignment NOPs transparent)."""
        meter = ctx.meter
        kind = ctx.columns.kind
        insns = ctx.instructions
        prev = cmp_idx - 1
        while prev >= 0 and kind[first + prev] == K_NOP:
            meter.charge("policy_compare")
            prev -= 1
        if prev < 0 or not _is_canary_load(insns[first + prev], reg_num):
            return False
        nxt = cmp_idx + 1
        while first + nxt < last and kind[first + nxt] == K_NOP:
            meter.charge("policy_compare")
            nxt += 1
        if first + nxt >= last:
            return False
        jne = insns[first + nxt]
        if jne.mnemonic != "jne" or jne.target is None:
            return False
        fail_call = ctx.at(jne.target)
        while fail_call is not None and fail_call.mnemonic in ("nop", "nopl"):
            meter.charge("policy_compare")
            fail_call = ctx.at(fail_call.end)
        if fail_call is None or not fail_call.is_direct_call:
            return False
        return ctx.symtab.lookup(fail_call.target) == _CHK_FAIL
