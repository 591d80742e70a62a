"""Pluggable policy modules (the paper's central abstraction).

"EnGarde checks policies using pluggable policy modules.  Each policy
module checks compliance for a specific property, and [the] specific
policy modules that are loaded during enclave creation depend upon the
policies that the client and cloud provider have agreed upon." (section 3)

A policy module sees the :class:`PolicyContext` — the decoded instruction
buffer, the symbol hash table, and the parsed image — and returns a
:class:`PolicyResult`.  Policies charge the cycle meter for the work they
do, which is how the evaluation's "Policy Checking" column is produced.
"""

from __future__ import annotations

import abc
import bisect
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from ..elf import ElfImage
from ..errors import PolicyError
from ..sgx.cpu import CycleMeter
from ..x86 import Columns, Instruction, as_columns
from ..x86.decoder import K_CALL, K_ICALL, K_IJMP

__all__ = [
    "SymbolHashTable", "PolicyContext", "PolicyResult", "PolicyModule",
    "PolicyRegistry", "FrozenMapping",
]

#: cap on recorded violations — the report must stay small and content-free
MAX_VIOLATIONS = 16


class SymbolHashTable:
    """The paper's symbol hash table: function address -> function name.

    Built during disassembly from the executable's .symtab.  Policies use
    it to (a) resolve call targets to names and (b) test whether an
    address is the start of a function.  Lookups charge the meter.
    """

    def __init__(self, meter: CycleMeter) -> None:
        self._meter = meter
        self._by_addr: dict[int, str] = {}
        self._starts: list[int] = []
        self._sorted = False

    def insert(self, addr: int, name: str) -> None:
        self._meter.charge("symtab_insert")
        self._by_addr[addr] = name
        self._sorted = False

    def lookup(self, addr: int) -> str | None:
        """Name of the function starting at *addr*, or None."""
        self._meter.charge("symtab_lookup")
        return self._by_addr.get(addr)

    def is_function_start(self, addr: int) -> bool:
        self._meter.charge("symtab_lookup")
        return addr in self._by_addr

    def next_function_start(self, addr: int) -> int | None:
        """Smallest function start strictly greater than *addr*.

        The sorted-starts cache is rebuilt lazily on the first lookup
        after an :meth:`insert`, so interleaved insert/lookup sequences
        always see a coherent table.
        """
        if not self._sorted:
            self._starts = sorted(self._by_addr)
            self._sorted = True
        idx = bisect.bisect_right(self._starts, addr)
        self._meter.charge("symtab_lookup")
        return self._starts[idx] if idx < len(self._starts) else None

    def items(self):
        return self._by_addr.items()

    def __len__(self) -> int:
        return len(self._by_addr)

    def __contains__(self, addr: int) -> bool:
        return addr in self._by_addr


@dataclass
class PolicyContext:
    """Everything a policy module may inspect.

    Offsets are *text-relative* throughout: instruction offsets, symbol
    addresses, and branch targets all use the same coordinate system.

    ``columns`` is the decoded buffer in column form (offsets, kinds,
    targets, written registers — see :class:`~repro.x86.decoder.Columns`);
    policies scan it directly and index ``instructions`` — a lazy
    ``Sequence[Instruction]`` over the same rows — only for the few rows
    an instruction-level match or a report needs.

    With ``cached=True`` (the default) the context lazily computes shared
    views of the instruction buffer — call-site lists, the sorted function
    boundary table, per-function instruction extents — so the policy
    modules stop re-scanning the whole buffer once each.  The caches are
    pure wall-clock memoization: every metered operation still charges the
    cycle meter exactly as the uncached walk does, and the views assume
    the context (instructions + symtab) is frozen for its lifetime, which
    the pipeline guarantees.  ``cached=False`` recomputes everything per
    call and is used by the differential reference path.
    """

    instructions: Sequence[Instruction]
    symtab: SymbolHashTable
    image: ElfImage
    meter: CycleMeter
    #: index of each instruction by its text-relative offset
    index_by_offset: dict[int, int] = field(default_factory=dict)
    #: enable the shared lazily-computed views below
    cached: bool = True
    #: the rows behind ``instructions`` (derived from them when omitted)
    columns: Columns | None = None

    def __post_init__(self) -> None:
        if self.columns is None:
            self.columns = as_columns(self.instructions)
        if not self.index_by_offset:
            # shared with the validator: built once per decoded buffer
            self.index_by_offset = self.columns.by_offset()
        self._call_sites: tuple[list[int], list[int]] | None = None
        self._direct_calls: list[Instruction] | None = None
        self._starts_view: list[tuple[int, str]] | None = None
        self._extents: dict[int, tuple[int, int]] = {}
        self._views: dict[str, object] = {}
        #: per-function verdict memo for delta re-inspection (set by the
        #: streamed pipeline; policies that support it consult it)
        self.delta = None

    def at(self, offset: int) -> Instruction | None:
        idx = self.index_by_offset.get(offset)
        return self.instructions[idx] if idx is not None else None

    # ------------------------------------------------- shared prescan views

    def view(self, key: str, build):
        """``build(self)``, memoised per context under *key* when cached.

        For policy-specific derived views of the columns (pure functions
        of the frozen buffer; they must not charge the meter).
        """
        if not self.cached:
            return build(self)
        value = self._views.get(key)
        if value is None:
            value = self._views[key] = build(self)
        return value

    def _scan_call_sites(self) -> tuple[list[int], list[int]]:
        """Both call-site views, straight from the kind column."""
        cols = self.columns
        return cols.rows(K_CALL), cols.rows(K_ICALL, K_IJMP)

    def direct_call_rows(self) -> list[int]:
        """Indices of direct call instructions, in buffer order."""
        if not self.cached:
            return self._scan_call_sites()[0]
        if self._call_sites is None:
            self._call_sites = self._scan_call_sites()
        return self._call_sites[0]

    def direct_calls(self) -> list[Instruction]:
        """Direct call instructions, in buffer order."""
        if self.cached and self._direct_calls is not None:
            return self._direct_calls
        calls = [self.instructions[i] for i in self.direct_call_rows()]
        if self.cached:
            self._direct_calls = calls
        return calls

    def indirect_calls(self) -> list[int]:
        """Indices of indirect call/jump sites, in buffer order."""
        if not self.cached:
            return self._scan_call_sites()[1]
        if self._call_sites is None:
            self._call_sites = self._scan_call_sites()
        return self._call_sites[1]

    def function_extent(self, start: int) -> tuple[int, int]:
        """(first, last+1) instruction indices of the function at *start*.

        Models the paper's traversal — walking from *start* and asking the
        symbol hash table at each instruction whether it begins another
        function — charging one lookup per walked instruction (batched).
        Extents are cached per start, but each call charges the meter as
        if it had walked: one boundary probe plus one lookup per
        instruction in the function.
        """
        if self.cached:
            ext = self._extents.get(start)
            if ext is not None:
                first, last = ext
                self.meter.charge("symtab_lookup", 1 + max(last - first, 1))
                return ext
        first = self.index_by_offset.get(start)
        if first is None:
            raise PolicyError(f"function start {start:#x} is not an instruction")
        end_offset = self.symtab.next_function_start(start)
        if end_offset is None:
            last = len(self.instructions)
        else:
            last = self.index_by_offset.get(end_offset)
            if last is None:
                raise PolicyError(
                    f"function boundary {end_offset:#x} is not an instruction"
                )
        self.meter.charge("symtab_lookup", max(last - first, 1))
        if self.cached:
            self._extents[start] = (first, last)
        return first, last

    def function_starts(self) -> list[tuple[int, str]]:
        """All (address, name) pairs, sorted by address."""
        if not self.cached:
            return sorted(self.symtab.items())
        if self._starts_view is None:
            self._starts_view = sorted(self.symtab.items())
        return self._starts_view


@dataclass
class PolicyResult:
    """Outcome of one policy module."""

    policy: str
    compliant: bool
    #: human-readable violation notes; capped, and must never embed client
    #: code bytes (enforced by tests — see the threat model in section 3)
    violations: list[str] = field(default_factory=list)
    #: counters the module wants to expose (e.g. calls checked)
    stats: dict[str, int] = field(default_factory=dict)

    def add_violation(self, note: str) -> None:
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(note)
        self.compliant = False


class FrozenMapping(Mapping):
    """A read-only copy of a mapping (picklable, unlike ``MappingProxyType``),
    for configuration that must not change once agreed."""

    def __init__(self, data=()) -> None:
        self._data = dict(data)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"FrozenMapping({self._data!r})"


class PolicyModule(abc.ABC):
    """Base class for policy modules."""

    #: stable identifier used in the provider/client agreement
    name: str = "abstract"
    #: the attributes :meth:`config_digest` reads, each holding an
    #: immutable value.  Declaring them fixes them once the module is
    #: registered (rebinding raises), which lets the registry compute its
    #: digest once.  ``None`` — undeclared — makes the registry recompute
    #: the digest on every call instead.
    config_fields: tuple[str, ...] | None = None
    _registered = False

    def __setattr__(self, name: str, value) -> None:
        if self._registered and name in (self.config_fields or ()):
            raise PolicyError(
                f"policy {self.name!r}: {name!r} is part of the agreed "
                "configuration and is fixed once the module is registered"
            )
        object.__setattr__(self, name, value)

    @property
    def config_fixed(self) -> bool:
        """True when :meth:`config_digest` can no longer change."""
        return self._registered and (
            self.config_fields is not None
            or type(self).config_digest is PolicyModule.config_digest
        )

    @abc.abstractmethod
    def check(self, ctx: PolicyContext) -> PolicyResult:
        """Inspect the client code; must not mutate the context."""

    def config_digest(self) -> bytes:
        """Bytes capturing this module's *configuration*.

        Folded into the enclave measurement alongside the module name: a
        policy is only "the agreed policy" if its parameters (e.g. the
        golden hash database, the exemption list) match what both parties
        reviewed.  Modules with configuration must override this; the
        default covers parameterless modules.
        """
        return b""

    def result(self) -> PolicyResult:
        return PolicyResult(policy=self.name, compliant=True)


class PolicyRegistry:
    """The set of policy modules loaded into a given EnGarde build.

    Both parties review this set before agreeing to the enclave: it is
    part of the measured bootstrap, so attestation pins it.
    """

    def __init__(self, modules: list[PolicyModule] | None = None) -> None:
        self._modules: dict[str, PolicyModule] = {}
        self._digest: bytes | None = None
        for module in modules or []:
            self.register(module)

    def register(self, module: PolicyModule) -> None:
        if module.name in self._modules:
            raise PolicyError(f"duplicate policy module {module.name!r}")
        object.__setattr__(module, "_registered", True)
        self._modules[module.name] = module
        self._digest = None

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def names(self) -> list[str]:
        return list(self._modules)

    def digest_material(self) -> bytes:
        """Bytes folded into the enclave measurement.

        Covers both the policy *names* and each module's configuration
        digest, so attestation certifies the exact policy set — a
        same-named module with a different hash database or exemption
        list yields a different MRENCLAVE.

        Computed once per registry (every SUBMIT's cache key and every
        provision's expected measurement read it) while every module's
        configuration is fixed; a module with undeclared configuration
        is re-digested on every call, so a changed configuration can
        never be served under the old digest.
        """
        if self._digest is not None:
            return self._digest
        parts = []
        for name in sorted(self._modules):
            config = self._modules[name].config_digest()
            parts.append(name.encode() + b"\x00" + config)
        material = b"\x01".join(parts)
        if all(module.config_fixed for module in self._modules.values()):
            self._digest = material
        return material
