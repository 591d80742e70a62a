"""EnGarde's in-enclave disassembly stage.

Follows the paper's pipeline (sections 3-4):

1. split the received content into page-level chunks and reject pages that
   mix code and data (EnGarde "operates at the granularity of memory
   pages"),
2. validate the ELF header (signature, class) and extract the text
   sections,
3. disassemble with the NaCl-style decoder into a **dynamically allocated
   instruction buffer** — unlike NaCl, which validates instruction-by-
   instruction with a small ring buffer, EnGarde keeps every instruction
   for the policy modules; buffer memory is requested from the host a page
   at a time because each ``malloc`` trampoline costs an enclave
   exit/re-entry (two SGX instructions),
4. enforce the NaCl structural constraints (32-byte bundles, valid branch
   targets, reachability),
5. read the symbol table into the symbol hash table (address -> name),
   auto-rejecting binaries without symbols.

Every step charges the cycle meter; the harness attributes this stage to
the "Disassembly" column of Figures 3-5.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..elf import ElfImage, read_elf
from ..errors import DecodeError, ElfError, RejectionError, ValidationError
from ..faults import hooks as _faults
from ..sgx.cpu import CycleMeter
from ..sgx.params import PAGE_SIZE
from ..x86 import Columns, Instruction, as_columns, validate, validate_fast
from ..x86.refdecode import ref_decode_one
from .policy import PolicyContext, SymbolHashTable
from .streaming import StreamScan

__all__ = ["DisassemblyResult", "Disassembler", "INSN_RECORD_BYTES"]

#: size of one stored instruction record in the buffer (NaCl keeps raw
#: bytes + decoded metadata; 64 bytes is the C struct's footprint)
INSN_RECORD_BYTES = 64


@dataclass
class DisassemblyResult:
    """Output of the stage, consumed by the policy engine and the loader."""

    image: ElfImage
    #: the instruction buffer as a lazy ``Sequence[Instruction]``
    instructions: Sequence[Instruction]
    symtab: SymbolHashTable
    text_vaddr: int
    #: pages of instruction-buffer memory requested from the host
    buffer_pages_allocated: int
    #: the streamed scan, when it was verified and adopted
    scan: StreamScan | None = None
    #: the decoded rows behind ``instructions``
    columns: Columns | None = None

    def __post_init__(self) -> None:
        if self.columns is None:
            self.columns = as_columns(self.instructions)

    def policy_context(self, meter: CycleMeter, *, cached: bool = True) -> PolicyContext:
        ctx = PolicyContext(
            instructions=self.instructions,
            symtab=self.symtab,
            image=self.image,
            meter=meter,
            cached=cached,
            columns=self.columns,
        )
        if self.scan is not None and cached:
            ctx.delta = self.scan.delta
        return ctx


class Disassembler:
    """The in-enclave disassembly component.

    *alloc_pages* is the host trampoline for growing the instruction
    buffer (``HostOS.svc_alloc_pages`` in the full stack; a counter stub in
    unit tests).  *per_insn_malloc* reproduces the naive strategy the
    paper optimised away — one trampoline per instruction record instead
    of one per page — for the ablation benchmark.

    *optimized* selects the decode loop: the default runs the column
    scan (:class:`~repro.x86.decoder.Columns`) and flushes meter charges
    once per stage; ``optimized=False`` runs the frozen pre-optimization
    loop (per-instruction ``ref_decode_one`` + three per-instruction
    ``charge`` calls) for differential testing and baseline benchmarks.
    Both produce identical instructions, identical trampoline call
    sequences, and tick-identical meter totals.
    """

    def __init__(
        self,
        meter: CycleMeter,
        *,
        alloc_pages=None,
        per_insn_malloc: bool = False,
        allow_stripped: bool = False,
        optimized: bool = True,
    ) -> None:
        self.meter = meter
        self._alloc_pages = alloc_pages or (lambda n: 0)
        self.per_insn_malloc = per_insn_malloc
        #: extension (paper section 6): recover function starts in
        #: stripped binaries instead of auto-rejecting them
        self.allow_stripped = allow_stripped
        self.optimized = optimized

    # ------------------------------------------------------------ stages

    def check_page_separation(self, image: ElfImage) -> None:
        """Reject pages containing both code and data (paper section 3)."""
        code_pages: set[int] = set()
        data_pages: set[int] = set()
        for section in image.sections:
            if not section.size or not section.vaddr:
                continue
            pages = range(
                section.vaddr // PAGE_SIZE,
                (section.vaddr + section.size - 1) // PAGE_SIZE + 1,
            )
            if section.is_text:
                code_pages.update(pages)
            else:
                data_pages.update(pages)
        mixed = code_pages & data_pages
        if mixed:
            raise RejectionError(
                f"{len(mixed)} page(s) contain mixed code and data "
                "(compile with separated sections)",
                stage="page-split",
            )

    def parse_elf(self, raw: bytes) -> ElfImage:
        """Header validation + parsing; ElfError becomes a rejection."""
        try:
            image = read_elf(raw)
        except ElfError as exc:
            raise RejectionError(f"malformed ELF: {exc}", stage="elf") from exc
        if not image.text_sections:
            raise RejectionError("no executable sections", stage="elf")
        if not image.function_symbols() and not self.allow_stripped:
            # Paper section 6: stripped binaries are auto-rejected.
            raise RejectionError(
                "binary carries no function symbols (stripped binaries "
                "are rejected)",
                stage="elf",
            )
        return image

    def disassemble(self, image: ElfImage) -> DisassemblyResult:
        """Decode all text sections into the dynamic instruction buffer."""
        meter = self.meter
        if len(image.text_sections) != 1:
            raise RejectionError(
                "expected exactly one text section", stage="disasm"
            )
        text = image.text_sections[0]

        if self.optimized:
            cols, buffer_pages = self._decode_fast(text.data)
        else:
            insns, buffer_pages = self._decode_reference(text.data)
            cols = Columns.from_instructions(insns, text.data)

        symtab, roots = self._build_symtab(image, text, cols.instructions)

        entry_offset = image.entry - text.vaddr
        try:
            validate(cols, entry=entry_offset, roots=roots)
        except ValidationError as exc:
            raise RejectionError(
                f"NaCl constraint violated: {exc}", stage="disasm"
            ) from exc

        return DisassemblyResult(
            image=image,
            instructions=cols.instructions,
            symtab=symtab,
            text_vaddr=text.vaddr,
            buffer_pages_allocated=buffer_pages,
            columns=cols,
        )

    def _build_symtab(self, image: ElfImage, text, instructions):
        """Symbol hash table + reachability roots (shared by both paths)."""
        code = text.data
        symtab = SymbolHashTable(self.meter)
        roots = []
        if image.function_symbols():
            for sym in image.function_symbols():
                offset = sym.value - text.vaddr
                if not 0 <= offset < len(code):
                    raise RejectionError(
                        f"symbol {sym.name!r} lies outside the text section",
                        stage="disasm",
                    )
                symtab.insert(offset, sym.name)
                roots.append(offset)
        else:
            # Stripped-binary extension: recover function starts
            # structurally (paper section 6's "future enhancement").
            from .funcid import recognize_functions

            entry_off = image.entry - text.vaddr
            recognized = recognize_functions(instructions, entry=entry_off)
            for offset, name in recognized.synthetic_names().items():
                symtab.insert(offset, name)
                roots.append(offset)
        return symtab, roots

    def _disassemble_from_scan(
        self, image: ElfImage, scan: StreamScan
    ) -> DisassemblyResult:
        """Adopt a verified streamed scan instead of re-decoding.

        The decode already happened while the content streamed in, so this
        replays its *observable* effects exactly: the same buffer-growth
        trampoline sequence (all one-page requests, in order), the same
        batched decode charges, and the same validator over the scan's
        columns.
        """
        text = image.text_sections[0]
        cols = scan.columns
        buffer_pages = self._grow_buffer(len(cols))
        self._charge_decode(cols, len(cols))

        symtab, roots = self._build_symtab(image, text, cols.instructions)

        entry_offset = image.entry - text.vaddr
        try:
            validate_fast(cols, entry=entry_offset, roots=roots)
        except ValidationError as exc:
            raise RejectionError(
                f"NaCl constraint violated: {exc}", stage="disasm"
            ) from exc

        return DisassemblyResult(
            image=image,
            instructions=cols.instructions,
            symtab=symtab,
            text_vaddr=text.vaddr,
            buffer_pages_allocated=buffer_pages,
            scan=scan,
            columns=cols,
        )

    # ------------------------------------------------------- decode loops

    def _decode_fast(self, code: bytes) -> tuple[Columns, int]:
        """Hot decode: one column scan, then the stage's observable effects.

        The buffer-growth trampoline sequence and the meter charges are
        functions of the row count alone, so they are replayed from it
        after the scan — including on the rejection path, where exactly
        the rows completed before the failure are charged, as the
        per-instruction reference loop does.
        """
        cols = Columns(bytes(code))
        error: DecodeError | None = None
        try:
            cols.scan(0, len(code))
        except DecodeError as exc:
            error = exc
        n = len(cols)
        if _faults.wants("x86.decoder"):
            # A plan watches the decoder: take the per-instruction path,
            # so the hook fires before each instruction is counted and
            # interleaves with the buffer growth exactly as it always has.
            alloc = self._alloc_pages
            buffer_pages = 0
            for i in range(n):
                try:
                    _faults.fault_hook("x86.decoder", error=DecodeError)
                except DecodeError as exc:
                    error, n = exc, i
                    break
                if self.per_insn_malloc or i * INSN_RECORD_BYTES >= buffer_pages * PAGE_SIZE:
                    alloc(1)
                    buffer_pages += 1
        else:
            buffer_pages = self._grow_buffer(n)
        self._charge_decode(cols, n)
        if error is not None:
            raise RejectionError(
                f"disassembly failed: {error}", stage="disasm"
            ) from error
        return cols, buffer_pages

    def _grow_buffer(self, n: int) -> int:
        """Request the instruction-buffer pages for *n* records.

        The buffer is grown through the trampoline a page at a time (or
        once per record, for the ablation) — all one-page requests, so
        the sequence is a function of the count alone.
        """
        if self.per_insn_malloc:
            pages = n
        else:
            pages = -(-n * INSN_RECORD_BYTES // PAGE_SIZE)
        for _ in range(pages):
            self._alloc_pages(1)
        return pages

    def _charge_decode(self, cols: Columns, n: int) -> None:
        """Charge the decode of the first *n* rows in one batch (nothing,
        like the per-instruction loop, when no row completed)."""
        if n:
            self.meter.charge_batch({
                "decode_byte": cols.row_end(n - 1) - cols.off[0],
                "decode_insn": n,
                "buffer_store": n,
            })

    def _decode_reference(self, code: bytes) -> tuple[list[Instruction], int]:
        """Frozen pre-optimization loop (differential oracle / baseline)."""
        meter = self.meter
        instructions: list[Instruction] = []
        buffer_bytes_used = 0
        buffer_pages = 0
        pos = 0
        hooked = _faults.wants("x86.decoder")
        try:
            while pos < len(code):
                insn = ref_decode_one(code, pos)
                if hooked:
                    _faults.fault_hook("x86.decoder", error=DecodeError)
                if insn.end > len(code):
                    raise DecodeError("instruction extends past section end")
                meter.charge("decode_byte", insn.length)
                meter.charge("decode_insn")
                if self.per_insn_malloc:
                    self._alloc_pages(1)
                    buffer_pages += 1
                else:
                    buffer_bytes_used += INSN_RECORD_BYTES
                    if buffer_bytes_used > buffer_pages * PAGE_SIZE:
                        self._alloc_pages(1)
                        buffer_pages += 1
                meter.charge("buffer_store")
                instructions.append(insn)
                pos = insn.end
        except DecodeError as exc:
            raise RejectionError(
                f"disassembly failed: {exc}", stage="disasm"
            ) from exc
        return instructions, buffer_pages

    def run(self, raw: bytes) -> DisassemblyResult:
        """Full stage: parse, page-split check, disassemble, validate."""
        image = self.parse_elf(raw)
        self.check_page_separation(image)
        return self.disassemble(image)

    def run_streamed(self, raw: bytes, scan: StreamScan | None) -> DisassemblyResult:
        """:meth:`run` reusing a speculative streamed *scan* when safe.

        The scan was produced against bytes decrypted straight off the
        channel, before the exact ELF parse; it is only adopted when the
        parsed image has exactly one text section whose bytes equal what
        the scan decoded and the scan completed without error.  Everything
        else — decode errors (their message and charge sequence must be
        bit-exact), multi-section images, header/extent mismatches, fault
        plans watching the decoder — falls back to the phased stage.
        """
        image = self.parse_elf(raw)
        self.check_page_separation(image)
        if (
            scan is not None
            and scan.error is None
            and self.optimized
            and not _faults.wants("x86.decoder")
            and len(image.text_sections) == 1
            and image.text_sections[0].data == scan.code
        ):
            return self._disassemble_from_scan(image, scan)
        return self.disassemble(image)
