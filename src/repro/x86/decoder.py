"""Table-driven x86-64 decoder (the NaCl-style disassembler core).

Two views of the same decode, sharing one set of opcode tables:

* :class:`Columns` — the production form.  :func:`_scan`, the single
  linear decode loop, sizes and classifies every instruction straight
  from import-time tables (prefix, REX, opcode shape, ModRM/SIB
  displacement sizes) and appends one row per instruction to parallel
  arrays: offset, kind (the opcode class the validator and the policies
  branch on), static target or packed stack slot, and the register
  written.  Whole-buffer, extent and streamed decodes are thin wrappers
  over that loop.
* :class:`~repro.x86.insn.Instruction` records carrying NaCl-style
  metadata (prefix/opcode/displacement/immediate byte counts), built by
  the per-opcode handlers below.  Columns build them lazily, one row at
  a time, only where a report, an error message or an instruction-level
  matcher needs one.  The scan also hands every instruction it does not
  size itself (segment prefixes, unsupported opcodes, truncation) to the
  handlers, so each :class:`~repro.errors.DecodeError` keeps its exact
  text and precedence.

Unknown opcodes raise :class:`~repro.errors.DecodeError`; EnGarde converts
that into a rejection of the client's binary, exactly as NaCl's validator
rejects binaries it cannot disassemble unambiguously.

The pre-optimization decoder is preserved verbatim in
:mod:`repro.x86.refdecode`; differential tests assert the handlers, the
column scan and the reference produce identical instruction streams and
identical error messages.
"""

from __future__ import annotations

import struct
import weakref
from array import array
from collections.abc import Iterator, Sequence

from ..errors import DecodeError
from .asm import BUNDLE_SIZE
from .insn import Imm, Instruction, Mem
from .opcodes import (
    CC_BY_CODE,
    GROUP1,
    GROUP2,
    GROUP3,
    GROUP5,
    PREFIX_FS,
    PREFIX_GS,
    PREFIX_OPSIZE,
)
from .registers import GPR32, GPR64, Reg

__all__ = [
    "decode_one", "decode_all", "decode_extent", "decode_columns",
    "iter_decode", "StreamDecoder", "Columns", "InstructionView",
    "unpack_slot", "TARGET_KINDS", "TERMINATOR_KINDS", "NO_REG",
    "K_PLAIN", "K_NOP", "K_JCC", "K_CALL", "K_JMP", "K_ICALL", "K_IJMP",
    "K_RET", "K_HALT", "K_STORE", "K_CMP",
]

_I8 = struct.Struct("<b").unpack_from
_I32 = struct.Struct("<i").unpack_from
_I64 = struct.Struct("<q").unpack_from

# ALU opcodes of the 0x01/0x03 families, derived from the group table.
_ALU_MR = {i * 8 + 0x01: name for i, name in enumerate(GROUP1.values())}
_ALU_RM = {i * 8 + 0x03: name for i, name in enumerate(GROUP1.values())}
# reg -> r/m and r/m -> reg mnemonics by opcode, covering mov/test too.
_MR_MNEM = {**_ALU_MR, 0x89: "mov", 0x85: "test"}
_RM_MNEM = {**_ALU_RM, 0x8B: "mov"}

_CMOV_MNEM = tuple("cmov" + CC_BY_CODE[cc][1:] for cc in range(16))

_MAX_INSN = 15  # architectural limit

_INSN_NEW = Instruction.__new__


class _Cursor:
    """Byte reader with bounds checking over the code buffer.

    Per-instruction state (prefix count, REX byte, segment override,
    operand width) lives on the cursor and is set by
    :func:`_decode_next`; the handlers read operands through it without
    re-slicing the buffer.
    """

    __slots__ = ("code", "pos", "start", "rex", "seg", "wbits", "bank",
                 "n_prefix", "n_opcode")

    def __init__(self, code: bytes, pos: int) -> None:
        self.code = code
        self.pos = pos
        self.start = pos

    def u8(self) -> int:
        try:
            b = self.code[self.pos]
        except IndexError:
            raise DecodeError(
                f"truncated instruction at offset {self.start:#x}"
            ) from None
        self.pos += 1
        return b

    def peek(self) -> int:
        try:
            return self.code[self.pos]
        except IndexError:
            raise DecodeError(
                f"truncated instruction at offset {self.start:#x}"
            ) from None

    def i8(self) -> int:
        pos = self.pos
        if pos + 1 > len(self.code):
            raise DecodeError(f"truncated instruction at offset {self.start:#x}")
        self.pos = pos + 1
        return _I8(self.code, pos)[0]

    def i32(self) -> int:
        pos = self.pos
        if pos + 4 > len(self.code):
            raise DecodeError(f"truncated instruction at offset {self.start:#x}")
        self.pos = pos + 4
        return _I32(self.code, pos)[0]

    def i64(self) -> int:
        pos = self.pos
        if pos + 8 > len(self.code):
            raise DecodeError(f"truncated instruction at offset {self.start:#x}")
        self.pos = pos + 8
        return _I64(self.code, pos)[0]


def _build(
    cur: _Cursor,
    mnemonic: str,
    operands: tuple = (),
    disp: int = 0,
    imm: int = 0,
    modrm: bool = False,
    target: int | None = None,
) -> Instruction:
    """Materialise the Instruction for the bytes [cur.start, cur.pos).

    Field-for-field equivalent to calling ``Instruction(...)``; writes the
    frozen dataclass's ``__dict__`` directly to skip the per-field
    ``object.__setattr__`` round trips of the generated ``__init__`` (this
    runs once per decoded instruction).  Equality with the ordinary
    constructor is pinned by tests.
    """
    start = cur.start
    pos = cur.pos
    if pos - start > _MAX_INSN:
        raise DecodeError(f"instruction longer than 15 bytes at {start:#x}")
    insn = _INSN_NEW(Instruction)
    d = insn.__dict__
    d["offset"] = start
    d["raw"] = cur.code[start:pos]
    d["mnemonic"] = mnemonic
    d["operands"] = operands
    d["num_prefix_bytes"] = cur.n_prefix
    d["num_opcode_bytes"] = cur.n_opcode
    d["num_displacement_bytes"] = disp
    d["num_immediate_bytes"] = imm
    d["has_modrm"] = modrm
    d["target"] = target
    return insn


def _parse_modrm(cur: _Cursor, rm_bits: int) -> tuple[int, Reg | Mem, int]:
    """Parse ModRM (+SIB +disp).  Returns (reg_field, rm_operand, disp_bytes)."""
    rex = cur.rex
    seg = cur.seg
    modrm = cur.u8()
    mod = modrm >> 6
    reg_field = ((rex & 0b100) << 1) | ((modrm >> 3) & 0b111)
    rm = modrm & 0b111

    if mod == 0b11:
        bank = GPR64 if rm_bits == 64 else GPR32
        return reg_field, bank[((rex & 1) << 3) | rm], 0

    disp_bytes = 0
    if rm == 0b100:
        sib = cur.u8()
        scale = 1 << (sib >> 6)
        index_num = ((rex & 0b10) << 2) | ((sib >> 3) & 0b111)
        base_num = ((rex & 1) << 3) | (sib & 0b111)
        index = None if index_num == 0b100 else GPR64[index_num]
        if (sib & 0b111) == 0b101 and mod == 0b00:
            disp = cur.i32()
            disp_bytes = 4
            operand = Mem(base=None, index=index, scale=scale, disp=disp, seg=seg)
        else:
            base = GPR64[base_num]
            if mod == 0b01:
                disp, disp_bytes = cur.i8(), 1
            elif mod == 0b10:
                disp, disp_bytes = cur.i32(), 4
            else:
                disp = 0
            operand = Mem(base=base, index=index, scale=scale, disp=disp, seg=seg)
    elif rm == 0b101 and mod == 0b00:
        disp = cur.i32()
        disp_bytes = 4
        operand = Mem(disp=disp, seg=seg, rip_relative=True)
    else:
        base = GPR64[((rex & 1) << 3) | rm]
        if mod == 0b01:
            disp, disp_bytes = cur.i8(), 1
        elif mod == 0b10:
            disp, disp_bytes = cur.i32(), 4
        else:
            disp = 0
        operand = Mem(base=base, disp=disp, seg=seg)
    return reg_field, operand, disp_bytes


# --------------------------------------------------------------- handlers
#
# One function per opcode family.  Each receives the cursor (positioned
# just past the opcode byte) and the opcode byte itself, and returns the
# finished Instruction.  The dispatch tables below map opcode -> handler.

def _h_mr(cur: _Cursor, op: int) -> Instruction:  # ALU/mov/test reg -> r/m
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    return _build(cur, _MR_MNEM[op], (cur.bank[reg_field], rm_op),
                  disp=dbytes, modrm=True)


def _h_rm(cur: _Cursor, op: int) -> Instruction:  # ALU/mov r/m -> reg
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    return _build(cur, _RM_MNEM[op], (rm_op, cur.bank[reg_field]),
                  disp=dbytes, modrm=True)


def _h_xchg(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    return _build(cur, "xchg", (cur.bank[reg_field], rm_op),
                  disp=dbytes, modrm=True)


def _h_lea(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    if not isinstance(rm_op, Mem):
        raise DecodeError(f"lea with register operand at {cur.start:#x}")
    return _build(cur, "lea", (rm_op, cur.bank[reg_field]),
                  disp=dbytes, modrm=True)


def _h_movsxd(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, 32)
    return _build(cur, "movsxd", (rm_op, GPR64[reg_field]),
                  disp=dbytes, modrm=True)


def _h_push(cur: _Cursor, op: int) -> Instruction:
    return _build(cur, "push", (GPR64[((cur.rex & 1) << 3) | (op - 0x50)],))


def _h_pop(cur: _Cursor, op: int) -> Instruction:
    return _build(cur, "pop", (GPR64[((cur.rex & 1) << 3) | (op - 0x58)],))


def _h_jcc8(cur: _Cursor, op: int) -> Instruction:
    rel = cur.i8()
    return _build(cur, CC_BY_CODE[op - 0x70], imm=1, target=cur.pos + rel)


def _h_group1(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    mnem = GROUP1[reg_field & 0b111]
    if op == 0x81:
        value, isize = cur.i32(), 4
    else:
        value, isize = cur.i8(), 1
    return _build(cur, mnem, (Imm(value, isize), rm_op),
                  disp=dbytes, imm=isize, modrm=True)


def _h_nop(cur: _Cursor, op: int) -> Instruction:
    return _build(cur, "nop")


def _h_mov_imm_reg(cur: _Cursor, op: int) -> Instruction:
    dst = cur.bank[((cur.rex & 1) << 3) | (op - 0xB8)]
    if cur.wbits == 64:
        value, isize = cur.i64(), 8
    else:
        value, isize = cur.i32(), 4
    return _build(cur, "mov", (Imm(value, isize), dst), imm=isize)


def _h_group2(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    ext = reg_field & 0b111
    if ext not in GROUP2:
        raise DecodeError(f"unsupported shift /{ext} at {cur.start:#x}")
    amount = cur.u8()
    return _build(cur, GROUP2[ext], (Imm(amount, 1), rm_op),
                  disp=dbytes, imm=1, modrm=True)


def _h_ret(cur: _Cursor, op: int) -> Instruction:
    return _build(cur, "ret")


def _h_mov_imm_rm(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    if reg_field & 0b111:
        raise DecodeError(f"unsupported opcode c7 /{reg_field & 7} at {cur.start:#x}")
    value = cur.i32()
    return _build(cur, "mov", (Imm(value, 4), rm_op),
                  disp=dbytes, imm=4, modrm=True)


def _h_leave(cur: _Cursor, op: int) -> Instruction:
    return _build(cur, "leave")


def _h_int3(cur: _Cursor, op: int) -> Instruction:
    return _build(cur, "int3")


def _h_call_rel32(cur: _Cursor, op: int) -> Instruction:
    rel = cur.i32()
    return _build(cur, "callq", imm=4, target=cur.pos + rel)


def _h_jmp_rel32(cur: _Cursor, op: int) -> Instruction:
    rel = cur.i32()
    return _build(cur, "jmpq", imm=4, target=cur.pos + rel)


def _h_jmp_rel8(cur: _Cursor, op: int) -> Instruction:
    rel = cur.i8()
    return _build(cur, "jmpq", imm=1, target=cur.pos + rel)


def _h_hlt(cur: _Cursor, op: int) -> Instruction:
    return _build(cur, "hlt")


def _h_group3(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    ext = reg_field & 0b111
    if ext not in GROUP3:
        raise DecodeError(f"unsupported opcode f7 /{ext} at {cur.start:#x}")
    if ext == 0:  # test imm32
        value = cur.i32()
        return _build(cur, "test", (Imm(value, 4), rm_op),
                      disp=dbytes, imm=4, modrm=True)
    return _build(cur, GROUP3[ext], (rm_op,), disp=dbytes, modrm=True)


def _h_group5(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, 64)
    ext = reg_field & 0b111
    if ext not in GROUP5:
        raise DecodeError(f"unsupported opcode ff /{ext} at {cur.start:#x}")
    mnem = GROUP5[ext]
    if mnem in ("inc", "dec") and isinstance(rm_op, Reg):
        rm_op = cur.bank[rm_op.num]
    return _build(cur, mnem, (rm_op,), disp=dbytes, modrm=True)


# -- two-byte (0F) page -------------------------------------------------

def _h_twobyte(cur: _Cursor, op: int) -> Instruction:
    op2 = cur.u8()
    cur.n_opcode = 2
    handler = _DISPATCH_0F[op2]
    if handler is None:
        raise DecodeError(
            f"unsupported two-byte opcode 0f {op2:02x} at {cur.start:#x}"
        )
    return handler(cur, op2)


def _h_syscall(cur: _Cursor, op2: int) -> Instruction:
    return _build(cur, "syscall")


def _h_ud2(cur: _Cursor, op2: int) -> Instruction:
    return _build(cur, "ud2")


def _h_nopl(cur: _Cursor, op2: int) -> Instruction:
    _, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    return _build(cur, "nopl", (rm_op,), disp=dbytes, modrm=True)


def _h_cmov(cur: _Cursor, op2: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    return _build(cur, _CMOV_MNEM[op2 - 0x40], (rm_op, cur.bank[reg_field]),
                  disp=dbytes, modrm=True)


def _h_jcc32(cur: _Cursor, op2: int) -> Instruction:
    rel = cur.i32()
    return _build(cur, CC_BY_CODE[op2 - 0x80], imm=4, target=cur.pos + rel)


def _h_imul(cur: _Cursor, op2: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    return _build(cur, "imul", (rm_op, cur.bank[reg_field]),
                  disp=dbytes, modrm=True)


# ------------------------------------------------------- dispatch tables

_DISPATCH: list = [None] * 256
_DISPATCH_0F: list = [None] * 256

for _op in _MR_MNEM:
    _DISPATCH[_op] = _h_mr
for _op in _RM_MNEM:
    _DISPATCH[_op] = _h_rm
_DISPATCH[0x0F] = _h_twobyte
for _op in range(0x50, 0x58):
    _DISPATCH[_op] = _h_push
for _op in range(0x58, 0x60):
    _DISPATCH[_op] = _h_pop
_DISPATCH[0x63] = _h_movsxd
for _op in range(0x70, 0x80):
    _DISPATCH[_op] = _h_jcc8
_DISPATCH[0x81] = _DISPATCH[0x83] = _h_group1
_DISPATCH[0x87] = _h_xchg
_DISPATCH[0x8D] = _h_lea
_DISPATCH[0x90] = _h_nop
for _op in range(0xB8, 0xC0):
    _DISPATCH[_op] = _h_mov_imm_reg
_DISPATCH[0xC1] = _h_group2
_DISPATCH[0xC3] = _h_ret
_DISPATCH[0xC7] = _h_mov_imm_rm
_DISPATCH[0xC9] = _h_leave
_DISPATCH[0xCC] = _h_int3
_DISPATCH[0xE8] = _h_call_rel32
_DISPATCH[0xE9] = _h_jmp_rel32
_DISPATCH[0xEB] = _h_jmp_rel8
_DISPATCH[0xF4] = _h_hlt
_DISPATCH[0xF7] = _h_group3
_DISPATCH[0xFF] = _h_group5

_DISPATCH_0F[0x05] = _h_syscall
_DISPATCH_0F[0x0B] = _h_ud2
_DISPATCH_0F[0x1F] = _h_nopl
for _op in range(0x40, 0x50):
    _DISPATCH_0F[_op] = _h_cmov
for _op in range(0x80, 0x90):
    _DISPATCH_0F[_op] = _h_jcc32
_DISPATCH_0F[0xAF] = _h_imul

del _op


# ------------------------------------------------------ one instruction

def _decode_next(cur: _Cursor) -> Instruction:
    """Decode the instruction at the cursor, advancing it past the end."""
    code = cur.code
    pos = cur.start = cur.pos
    limit = len(code)
    if pos >= limit:
        raise DecodeError(f"truncated instruction at offset {pos:#x}")
    b = code[pos]

    # -- legacy prefixes --------------------------------------------------
    seg: str | None = None
    opsize = False
    n_prefix = 0
    while b == PREFIX_FS or b == PREFIX_GS or b == PREFIX_OPSIZE:
        if b == PREFIX_OPSIZE:
            if opsize:
                raise DecodeError(f"duplicate operand-size prefix at {cur.start:#x}")
            opsize = True
        else:
            if seg is not None:
                raise DecodeError(f"duplicate segment prefix at {cur.start:#x}")
            seg = "fs" if b == PREFIX_FS else "gs"
        pos += 1
        n_prefix += 1
        if n_prefix > 4:
            raise DecodeError(f"too many prefixes at {cur.start:#x}")
        if pos >= limit:
            raise DecodeError(f"truncated instruction at offset {cur.start:#x}")
        b = code[pos]

    # -- REX --------------------------------------------------------------
    rex = 0
    if 0x40 <= b <= 0x4F:
        rex = b
        n_prefix += 1
        pos += 1
        if pos >= limit:
            raise DecodeError(f"truncated instruction at offset {cur.start:#x}")
        b = code[pos]

    cur.pos = pos + 1
    cur.rex = rex
    cur.seg = seg
    cur.n_prefix = n_prefix
    cur.n_opcode = 1
    if rex & 0b1000:
        cur.wbits = 64
        cur.bank = GPR64
    else:
        cur.wbits = 32
        cur.bank = GPR32

    # The operand-size prefix is only meaningful (and only emitted) for the
    # canonical NOP forms in our subset; anywhere else it is ambiguous.
    if opsize and b != 0x90 and not (b == 0x0F and cur.peek() == 0x1F):
        raise DecodeError(f"operand-size prefix on non-NOP opcode {b:#04x}")

    handler = _DISPATCH[b]
    if handler is None:
        raise DecodeError(f"unsupported opcode {b:#04x} at offset {cur.start:#x}")
    return handler(cur, b)


def decode_one(code: bytes, offset: int) -> Instruction:
    """Decode a single instruction starting at *offset* within *code*."""
    if type(code) is not bytes:
        code = bytes(code)
    return _decode_next(_Cursor(code, offset))


# ------------------------------------------------------------ row kinds
#
# The column scan classifies every instruction into one *kind*: the
# opcode classes the NaCl validator and the policy modules branch on.

K_PLAIN = 0    #: anything not listed below
K_NOP = 1      #: nop / nopl (alignment padding)
K_JCC = 2      #: conditional branch; ``arg`` is the target
K_CALL = 3     #: direct call; ``arg`` is the target
K_JMP = 4      #: direct jmp; ``arg`` is the target
K_ICALL = 5    #: indirect call (``ff /2``)
K_IJMP = 6     #: indirect jmp (``ff /4``)
K_RET = 7      #: ret
K_HALT = 8     #: ud2 / hlt
K_STORE = 9    #: ``mov %reg, disp(%base)``; ``arg`` packs the slot
K_CMP = 10     #: ``cmp disp(%base), %reg``; ``arg`` packs the slot

#: kinds whose ``arg`` column holds a static (text-relative) target
TARGET_KINDS = (K_JCC, K_CALL, K_JMP)
#: kinds after which control never falls through
TERMINATOR_KINDS = (K_JMP, K_IJMP, K_RET, K_HALT)
#: ``wreg`` value for "writes no general-purpose register"
NO_REG = 0xFF


def unpack_slot(arg: int) -> tuple[int, int, int]:
    """``(reg, base, disp)`` of a :data:`K_STORE` / :data:`K_CMP` row.

    The memory operand is a plain ``disp(%base)`` — no segment override,
    no index, not RIP-relative — and ``reg`` is the register operand.
    """
    return (arg >> 4) & 15, arg & 15, arg >> 8


def _facts(insn: Instruction) -> tuple[int, int, int]:
    """``(kind, arg, wreg)`` of a decoded instruction.

    The definition of the three per-row columns, stated over the object
    form: the column scan must agree with this on every row (the scan
    falls back to it for the rare rows it does not decode itself, and
    the differential tests pin the agreement).  ``wreg`` follows the
    policies' "defines a register" rule: the last operand is a register
    and the mnemonic is not ``cmp``/``test``/``push``.
    """
    mnem = insn.mnemonic
    ops = insn.operands
    target = insn.target
    arg = 0
    if target is not None:
        kind = (K_CALL if mnem == "callq"
                else K_JMP if mnem in ("jmp", "jmpq") else K_JCC)
        arg = target
    elif mnem == "callq":
        kind = K_ICALL
    elif mnem in ("jmp", "jmpq"):
        kind = K_IJMP
    elif mnem in ("ret", "retq"):
        kind = K_RET
    elif mnem in ("ud2", "hlt"):
        kind = K_HALT
    elif mnem in ("nop", "nopl"):
        kind = K_NOP
    else:
        kind = K_PLAIN
        if mnem in ("mov", "cmp") and len(ops) == 2:
            reg, mem = (ops[0], ops[1]) if mnem == "mov" else (ops[1], ops[0])
            if (isinstance(reg, Reg) and isinstance(mem, Mem)
                    and mem.base is not None and mem.index is None
                    and mem.seg is None):
                kind = K_STORE if mnem == "mov" else K_CMP
                arg = (mem.disp << 8) | (reg.num << 4) | mem.base.num
    wreg = NO_REG
    if ops:
        dst = ops[-1]
        if isinstance(dst, Reg) and mnem not in ("cmp", "test", "push"):
            wreg = dst.num
    return kind, arg, wreg


# ------------------------------------------------------ scan tables
#
# One entry per opcode: index ``b`` for the one-byte map, ``0x100 + b``
# for the ``0F`` page.  Built once at import from the same handler
# tables the object decoder uses, so the two cannot disagree about which
# opcodes exist.

_S_SLOW = 0    # not decoded by the scan: take the handler path
_S_NONE = 1    # opcode only
_S_MODRM = 2   # ModRM (+SIB +disp) (+imm)
_S_REL8 = 3    # rel8 target
_S_REL32 = 4   # rel32 target
_S_MOVI = 5    # mov $imm, %reg (imm32, or imm64 under REX.W)
_S_0F = 6      # two-byte escape

_W_NONE = 0    # writes no register
_W_REG = 1     # writes ModRM.reg
_W_RM = 2      # writes ModRM.rm when it names a register
_W_OP = 3      # writes the register in the opcode's low bits

_SHAPE = bytearray(512)
_KIND = bytearray(512)
_IMM = [0] * 512            # immediate bytes after ModRM; -1: f7 (test only)
_WMODE = bytearray(512)
_EXT_OK = bytearray(b"\xff" * 512)   # bitmask of valid ModRM.reg extensions
_EXT_NOWRITE = bytearray(b"\x08" * 512)  # extension that writes nothing

for _op, _h in enumerate(_DISPATCH + _DISPATCH_0F):
    if _h is None:
        continue
    if _h in (_h_push, _h_nop, _h_ret, _h_leave, _h_int3, _h_hlt,
              _h_syscall, _h_ud2):
        _SHAPE[_op] = _S_NONE
    elif _h in (_h_jcc8, _h_jmp_rel8):
        _SHAPE[_op] = _S_REL8
    elif _h in (_h_call_rel32, _h_jmp_rel32, _h_jcc32):
        _SHAPE[_op] = _S_REL32
    elif _h is _h_mov_imm_reg:
        _SHAPE[_op] = _S_MOVI
        _WMODE[_op] = _W_OP
    elif _h is _h_twobyte:
        _SHAPE[_op] = _S_0F
    elif _h is _h_pop:
        _SHAPE[_op] = _S_NONE
        _WMODE[_op] = _W_OP
    else:
        _SHAPE[_op] = _S_MODRM
        if _h in (_h_rm, _h_lea, _h_movsxd, _h_cmov, _h_imul):
            _WMODE[_op] = _W_REG
        else:
            _WMODE[_op] = _W_RM
for _op in (0x39, 0x3B, 0x85):       # cmp / test write nothing
    _WMODE[_op] = _W_NONE
for _op in range(0x70, 0x80):
    _KIND[_op] = K_JCC
for _op in range(0x180, 0x190):
    _KIND[_op] = K_JCC
_KIND[0x90] = _KIND[0x11F] = K_NOP
_KIND[0xC3] = K_RET
_KIND[0xF4] = _KIND[0x10B] = K_HALT
_KIND[0xE8] = K_CALL
_KIND[0xE9] = _KIND[0xEB] = K_JMP
_KIND[0x89] = K_STORE                # when the destination is a plain slot
_KIND[0x3B] = K_CMP                  # when the source is a plain slot
_IMM[0x81] = _IMM[0xC7] = 4
_IMM[0x83] = _IMM[0xC1] = 1
_IMM[0xF7] = -1
_EXT_OK[0xC1] = sum(1 << e for e in GROUP2)
_EXT_OK[0xC7] = 1
_EXT_OK[0xF7] = sum(1 << e for e in GROUP3)
_EXT_OK[0xFF] = sum(1 << e for e in GROUP5)
_EXT_NOWRITE[0x81] = _EXT_NOWRITE[0x83] = 7    # cmp $imm
_EXT_NOWRITE[0xF7] = 0                          # test $imm
_EXT_NOWRITE[0xFF] = 6                          # push
#: ff /2 and ff /4 are the indirect call / jmp kinds
_FF_KIND = bytearray(8)
_FF_KIND[2] = K_ICALL
_FF_KIND[4] = K_IJMP

# Bytes after the ModRM byte for a memory operand (SIB + displacement);
# -1 marks mod=00 rm=100, where the SIB base decides.
_MRM_EXTRA = bytearray(256)
for _m in range(256):
    _mod, _rm = _m >> 6, _m & 7
    if _mod == 3:
        continue
    _disp = {0: 0, 1: 1, 2: 4}[_mod]
    if _rm == 4:
        _MRM_EXTRA[_m] = 0xFF if _mod == 0 else 1 + _disp
    elif _mod == 0 and _rm == 5:
        _MRM_EXTRA[_m] = 4
    else:
        _MRM_EXTRA[_m] = _disp

del _op, _h, _m, _mod, _rm, _disp


# ------------------------------------------------------------ the scan

def _scan(cols: "Columns", code: bytes, pos: int, until: int, limit: int) -> None:
    """The single linear decode loop: append one row per instruction.

    Decodes instructions starting at *pos* while the next one starts
    before *until*; every instruction must end by *limit*.  Common
    encodings are sized, classified and target-resolved straight from
    the opcode tables; anything else (segment prefixes, unsupported
    opcodes, invalid group extensions, truncation) is handed to the
    object decoder for that one instruction, so every
    :class:`~repro.errors.DecodeError` keeps its exact text and
    precedence.  On error the rows decoded so far stay in *cols*.
    """
    off_append = cols.off.append
    kind_append = cols.kind.append
    arg_append = cols.arg.append
    wreg_append = cols.wreg.append
    shape_of = _SHAPE
    kind_of = _KIND
    wmode_of = _WMODE
    extra_of = _MRM_EXTRA
    bundle_size = BUNDLE_SIZE
    ncode = len(code)
    bundle = cols.bundle_row
    row = len(cols.off)
    try:
        while pos < until:
            k = -1
            try:
                b = code[pos]
                p = pos + 1
                opsize = b == 0x66
                if opsize:
                    b = code[p]
                    p += 1
                rex = 0
                if 0x40 <= b <= 0x4F:
                    rex = b
                    b = code[p]
                    p += 1
                shape = shape_of[b]
                if shape == _S_0F:
                    b = 0x100 + code[p]
                    p += 1
                    shape = shape_of[b]
                if opsize and b != 0x90 and b != 0x11F:
                    shape = _S_SLOW
                a = 0
                w = NO_REG
                if shape == _S_MODRM:
                    m = code[p]
                    ext = (m >> 3) & 7
                    if (_EXT_OK[b] >> ext) & 1:
                        k = kind_of[b]
                        mode = wmode_of[b]
                        if mode == _W_REG:
                            w = ((rex & 4) << 1) | ext
                        elif mode == _W_RM and m >= 0xC0:
                            w = ((rex & 1) << 3) | (m & 7)
                        if ext == _EXT_NOWRITE[b]:
                            w = NO_REG
                        imm = _IMM[b]
                        if imm < 0:
                            imm = 4 if ext == 0 else 0
                        if m >= 0xC0:
                            p += 1
                            if k >= K_STORE:
                                k = K_PLAIN
                            elif b == 0xFF:
                                k = _FF_KIND[ext]
                            elif b == 0x8D:
                                k = -1          # lea needs a memory operand
                        else:
                            x = extra_of[m]
                            if k >= K_STORE:
                                # mov-store / cmp: record a plain slot
                                rm = m & 7
                                base = -1
                                if rm == 4:
                                    sib = code[p + 1]
                                    if (((rex & 2) << 2) | ((sib >> 3) & 7)) == 4 \
                                            and (m >= 0x40 or sib & 7 != 5):
                                        base = ((rex & 1) << 3) | (sib & 7)
                                    dpos = p + 2
                                elif m >= 0x40 or rm != 5:
                                    base = ((rex & 1) << 3) | rm
                                    dpos = p + 1
                                if base < 0:
                                    k = K_PLAIN
                                else:
                                    if m < 0x40:
                                        disp = 0
                                    elif m < 0x80:
                                        disp = code[dpos]
                                        if disp > 127:
                                            disp -= 256
                                    else:
                                        disp = int.from_bytes(
                                            code[dpos:dpos + 4], "little",
                                            signed=True)
                                    a = (disp << 8) | (((rex & 4) << 1 | ext) << 4) | base
                            elif b == 0xFF:
                                k = _FF_KIND[ext]
                            if x == 0xFF:
                                x = 5 if code[p + 1] & 7 == 5 else 1
                            p += 1 + x
                        p += imm
                elif shape == _S_NONE:
                    k = kind_of[b]
                    if wmode_of[b]:
                        w = ((rex & 1) << 3) | (b & 7)
                elif shape == _S_REL8:
                    rel = code[p]
                    p += 1
                    a = p + (rel - 256 if rel > 127 else rel)
                    k = kind_of[b]
                elif shape == _S_REL32:
                    p += 4
                    if p <= ncode:
                        a = p + int.from_bytes(code[p - 4:p], "little", signed=True)
                        k = kind_of[b]
                elif shape == _S_MOVI:
                    p += 8 if rex & 8 else 4
                    w = ((rex & 1) << 3) | (b & 7)
                    k = K_PLAIN
            except IndexError:
                k = -1
            if k < 0 or p > ncode:
                insn = _decode_next(_Cursor(code, pos))
                p = insn.offset + len(insn.raw)
                k, a, w = _facts(insn)
                cols._insns[row] = insn
            if p > limit:
                cols._insns.pop(row, None)
                raise DecodeError(
                    f"instruction at {pos:#x} extends past region end {limit:#x}"
                )
            if bundle < 0 and pos // bundle_size != (p - 1) // bundle_size:
                bundle = row
            off_append(pos)
            kind_append(k)
            arg_append(a)
            wreg_append(w)
            row += 1
            pos = p
    finally:
        cols.end = pos
        cols.bundle_row = bundle


# ------------------------------------------------------------ columns

class Columns:
    """One text region decoded into parallel arrays, one row per
    instruction.

    * ``off`` — text-relative offset of the row's first byte;
    * ``kind`` — one of the ``K_*`` opcode classes;
    * ``arg`` — the static target of :data:`TARGET_KINDS` rows (may be
      negative), the packed slot of :data:`K_STORE`/:data:`K_CMP` rows
      (see :func:`unpack_slot`), 0 otherwise;
    * ``wreg`` — number of the register the row writes, or
      :data:`NO_REG`.

    Rows are contiguous: row ``i`` ends where row ``i + 1`` starts, and
    the last row ends at ``end``.  ``bundle_row`` is the first row that
    straddles a ``BUNDLE_SIZE``-byte boundary (-1: none).

    :class:`~repro.x86.insn.Instruction` objects are built only on
    demand — :meth:`insn` re-decodes the row's bytes through the object
    decoder and caches the result — so reports, error text and
    instruction-level matchers see exactly what a whole-buffer
    :func:`decode_all` would have produced.
    """

    __slots__ = ("code", "off", "kind", "arg", "wreg", "end", "bundle_row",
                 "_insns", "_view", "_by_offset")

    def __init__(self, code: bytes = b"", start: int = 0) -> None:
        self.code = code
        self.off = array("q")
        self.kind = bytearray()
        self.arg = array("q")
        self.wreg = bytearray()
        self.end = start
        self.bundle_row = -1
        self._insns: dict[int, Instruction] = {}
        self._view = None  # weak: a strong back-reference would be a cycle
        self._by_offset: dict[int, int] | None = None

    @classmethod
    def from_instructions(cls, insns, code: bytes = b"") -> "Columns":
        """Columns of an already-decoded, contiguous instruction list.

        The given objects become the row cache, so nothing is re-decoded.
        """
        insns = list(insns)
        cols = cls(code, insns[0].offset if insns else 0)
        for insn in insns:
            kind, arg, wreg = _facts(insn)
            cols.off.append(insn.offset)
            cols.kind.append(kind)
            cols.arg.append(arg)
            cols.wreg.append(wreg)
        if insns:
            cols.end = insns[-1].end
        cols._insns = dict(enumerate(insns))
        cols.bundle_row = cols.first_bundle_row()
        return cols

    def __len__(self) -> int:
        return len(self.off)

    def row_end(self, i: int) -> int:
        """Offset one past row *i*'s last byte."""
        return self.off[i + 1] if i + 1 < len(self.off) else self.end

    def target(self, i: int) -> int | None:
        """Row *i*'s static target, or None."""
        return self.arg[i] if self.kind[i] in TARGET_KINDS else None

    def insn(self, i: int) -> Instruction:
        """The :class:`Instruction` of row *i*, decoded on first use."""
        insn = self._insns.get(i)
        if insn is None:
            insn = self._insns[i] = _decode_next(_Cursor(self.code, self.off[i]))
        return insn

    @property
    def instructions(self) -> "InstructionView":
        """All rows as a lazy ``Sequence[Instruction]`` (the same object
        while anyone holds it)."""
        view = self._view() if self._view is not None else None
        if view is None:
            view = InstructionView(self)
            self._view = weakref.ref(view)
        return view

    def by_offset(self) -> dict[int, int]:
        """Offset -> row index, built once and shared by every consumer."""
        index = self._by_offset
        if index is None or len(index) != len(self.off):
            index = self._by_offset = dict(zip(self.off, range(len(self.off))))
        return index

    def rows(self, *kinds: int) -> list[int]:
        """Sorted indices of every row whose kind is one of *kinds*."""
        kind = self.kind
        find = kind.find
        out: list[int] = []
        for k in kinds:
            i = find(k)
            while i >= 0:
                out.append(i)
                i = find(k, i + 1)
        if len(kinds) > 1:
            out.sort()
        return out

    def first_bundle_row(self, bundle_size: int = BUNDLE_SIZE) -> int:
        """First row straddling a *bundle_size*-byte boundary, or -1."""
        off = self.off
        n = len(off)
        for i in range(n):
            start = off[i]
            end = off[i + 1] if i + 1 < n else self.end
            if start // bundle_size != (end - 1) // bundle_size:
                return i
        return -1

    def extend(self, other: "Columns", first: int, last: int) -> None:
        """Append rows ``[first, last)`` of *other* (same code bytes at the
        same offsets), keeping ``end`` contiguous."""
        if first >= last:
            return
        self.off.extend(other.off[first:last])
        self.kind += other.kind[first:last]
        self.arg.extend(other.arg[first:last])
        self.wreg += other.wreg[first:last]
        self.end = other.row_end(last - 1)

    def scan(self, start: int, end: int) -> None:
        """Decode ``[start, end)`` of ``self.code`` onto the rows."""
        _scan(self, self.code, start, end, end)


class InstructionView(Sequence):
    """Rows ``[lo, hi)`` of a :class:`Columns` as a ``Sequence`` of
    :class:`Instruction` objects, each built on first access.  With
    ``hi=None`` the view follows the columns as they grow."""

    __slots__ = ("_cols", "_lo", "_hi", "__weakref__")

    def __init__(self, cols: Columns, lo: int = 0, hi: int | None = None) -> None:
        self._cols = cols
        self._lo = lo
        self._hi = hi

    @property
    def columns(self) -> Columns:
        return self._cols

    @property
    def whole(self) -> bool:
        """True when the view covers every row of its columns."""
        return self._lo == 0 and self._hi is None

    def __len__(self) -> int:
        hi = len(self._cols) if self._hi is None else self._hi
        return hi - self._lo

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return [self._cols.insn(self._lo + j) for j in range(*i.indices(n))]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("instruction index out of range")
        return self._cols.insn(self._lo + i)

    def __iter__(self):
        insn = self._cols.insn
        for i in range(self._lo, self._lo + len(self)):
            yield insn(i)


# ------------------------------------------------------------ wrappers

def decode_columns(code: bytes, start: int = 0, end: int | None = None) -> Columns:
    """Decode [start, end) into :class:`Columns` (raises on a bad region)."""
    if type(code) is not bytes:
        code = bytes(code)
    end = len(code) if end is None else end
    cols = Columns(code, start)
    _scan(cols, code, start, end, end)
    return cols


def iter_decode(code: bytes, start: int = 0, end: int | None = None) -> Iterator[Instruction]:
    """Linearly decode [start, end) — the NaCl 'sequential decode' pass.

    Yields every instruction decoded before a :class:`DecodeError`, then
    raises it, exactly as an instruction-at-a-time loop would.
    """
    if type(code) is not bytes:
        code = bytes(code)
    end = len(code) if end is None else end
    cols = Columns(code, start)
    try:
        _scan(cols, code, start, end, end)
    except DecodeError as exc:
        yield from cols.instructions
        raise exc
    yield from cols.instructions


def decode_all(code: bytes, start: int = 0, end: int | None = None) -> list[Instruction]:
    """Decode a whole region, materialising the instruction list."""
    return list(iter_decode(code, start, end))


def decode_extent(
    code: bytes, start: int, end: int, out: Columns | None = None,
) -> tuple[Columns, int]:
    """Decode one extent of a larger region: [start, stop) within *code*.

    Unlike :func:`decode_columns` with an ``end``, the *extent* boundary
    is not the region boundary: the decode stops once the cursor reaches
    *end*, but instructions may legally extend past it (the caller
    detects that as a stitch mismatch), and the past-the-end error is
    raised against ``len(code)`` — exactly the error a whole-buffer
    decode would raise at the same byte.

    Returns ``(columns, pos)`` where *pos* is the position after the
    last decoded row.  Extent decodes whose positions stitch exactly
    (each extent's *pos* equals the next extent's *start*) are identical
    to the single linear decode: the same loop over the same bytes from
    the same offsets.

    Pass *out* (a fresh :class:`Columns` over *code*) to keep the rows
    decoded before a :class:`DecodeError` — the extent-split merge needs
    them to replay the serial decode's partial charges exactly.
    """
    if type(code) is not bytes:
        code = bytes(code)
    if out is None:
        out = Columns(code, start)
    _scan(out, code, start, end, len(code))
    return out, out.end


class StreamDecoder:
    """Chunk-resumable linear decode over a byte stream.

    Drives the same scan as :func:`decode_columns`, but over a buffer
    that grows as channel records arrive.  ``feed`` decodes every
    instruction that *provably* fits in the bytes received so far — no
    instruction is started unless a full ``_MAX_INSN``-byte lookahead
    window is available, so a chunk boundary can never manufacture a
    spurious truncation error.  ``finish`` drains the tail once the
    region end is known, applying the same past-the-end check as
    :func:`iter_decode`.

    The rows (``columns``) and any :class:`DecodeError`, message
    included, are identical to a whole-buffer decode of the concatenated
    chunks; tests pin this at adversarial split points.
    """

    __slots__ = ("_code", "columns", "_finished")

    def __init__(self, start: int = 0) -> None:
        self._code = b""
        self.columns = Columns(b"", start)
        self._finished = False

    @property
    def pos(self) -> int:
        """Offset of the next undecoded byte."""
        return self.columns.end

    @property
    def buffered(self) -> int:
        """Total bytes fed so far."""
        return len(self._code)

    def feed(self, chunk: bytes) -> InstructionView:
        """Absorb *chunk*; returns the newly completed instructions."""
        if self._finished:
            raise ValueError("feed() after finish()")
        cols = self.columns
        if chunk:
            self._code += bytes(chunk)
            cols.code = self._code
        first = len(cols)
        code = self._code
        # Decode only while the architectural 15-byte lookahead is fully
        # buffered: any error raised here would also be raised by the
        # whole-buffer decode, and no truncation can be a chunking artifact.
        _scan(cols, code, cols.end, len(code) - _MAX_INSN + 1, len(code))
        return InstructionView(cols, first, len(cols))

    def finish(self, end: int | None = None) -> InstructionView:
        """Drain the remaining tail; the stream ends at *end* (default: all
        bytes fed).  Applies :func:`iter_decode`'s region-end check."""
        self._finished = True
        cols = self.columns
        cols.code = self._code
        end = len(self._code) if end is None else end
        first = len(cols)
        _scan(cols, self._code, cols.end, end, end)
        return InstructionView(cols, first, len(cols))
