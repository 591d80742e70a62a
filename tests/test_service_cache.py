"""Property tests for the content-addressed verdict cache.

Covers the three properties the ISSUE demands — LRU eviction order, no
cross-policy-digest hits, and thread-safety under concurrent get/put —
plus key semantics (content *and* policy configuration are both part of
the identity) and label re-stamping.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core import (
    ComplianceReport,
    IfccPolicy,
    PolicyRegistry,
    StackProtectionPolicy,
)
from repro.service import InspectionCache, cache_key


def _report(tag: str, *, compliant: bool = True) -> ComplianceReport:
    if compliant:
        return ComplianceReport.accepted("", [tag], [0x1000])
    return ComplianceReport.rejected("", [tag], failed=[tag])


def _key(content: bytes, policy: bytes = b"policy-A") -> tuple[str, str]:
    import hashlib

    return (
        hashlib.sha256(content).hexdigest(),
        hashlib.sha256(policy).hexdigest(),
    )


class TestKeySemantics:
    def test_key_covers_content(self):
        policies = PolicyRegistry([IfccPolicy()])
        assert cache_key(b"elf-a", policies) != cache_key(b"elf-b", policies)
        assert cache_key(b"elf-a", policies) == cache_key(b"elf-a", policies)

    def test_key_covers_policy_configuration(self):
        """Same module, different parameters => different cache identity."""
        lenient = PolicyRegistry([
            StackProtectionPolicy(exempt_functions={"memcpy"})
        ])
        strict = PolicyRegistry([StackProtectionPolicy()])
        assert cache_key(b"same-elf", lenient) != cache_key(b"same-elf", strict)

    def test_key_covers_module_set(self):
        one = PolicyRegistry([IfccPolicy()])
        two = PolicyRegistry([IfccPolicy(), StackProtectionPolicy()])
        assert cache_key(b"same-elf", one) != cache_key(b"same-elf", two)


class TestLruEviction:
    def test_evicts_least_recently_used_first(self):
        cache = InspectionCache(capacity=3)
        keys = [_key(f"elf-{i}".encode()) for i in range(4)]
        for i in range(3):
            cache.put(keys[i], _report(f"p{i}"))
        cache.put(keys[3], _report("p3"))
        assert keys[0] not in cache
        assert all(k in cache for k in keys[1:])
        assert cache.stats().evictions == 1

    def test_get_refreshes_recency(self):
        cache = InspectionCache(capacity=3)
        keys = [_key(f"elf-{i}".encode()) for i in range(4)]
        for i in range(3):
            cache.put(keys[i], _report(f"p{i}"))
        cache.get(keys[0])                  # 0 becomes most-recent
        cache.put(keys[3], _report("p3"))   # so 1 is the LRU victim
        assert keys[1] not in cache
        assert keys[0] in cache

    def test_put_refreshes_recency(self):
        cache = InspectionCache(capacity=2)
        a, b, c = (_key(x) for x in (b"a", b"b", b"c"))
        cache.put(a, _report("a"))
        cache.put(b, _report("b"))
        cache.put(a, _report("a2"))         # overwrite refreshes a
        cache.put(c, _report("c"))
        assert b not in cache
        assert cache.get(a).policies_checked == ("a2",)

    def test_capacity_one_and_invalid(self):
        cache = InspectionCache(capacity=1)
        cache.put(_key(b"x"), _report("x"))
        cache.put(_key(b"y"), _report("y"))
        assert len(cache) == 1
        with pytest.raises(ValueError):
            InspectionCache(capacity=0)


class TestVerdictIsolation:
    def test_no_cross_policy_digest_hits(self):
        """A verdict cached under one policy digest must be invisible
        under any other digest, for the same binary bytes."""
        cache = InspectionCache()
        content = b"the-same-binary"
        cache.put(_key(content, b"policy-A"), _report("verdict-A"))
        assert cache.get(_key(content, b"policy-B")) is None
        hit = cache.get(_key(content, b"policy-A"))
        assert hit is not None and hit.policies_checked == ("verdict-A",)

    def test_seeded_random_pairs_never_leak(self):
        rng = random.Random(0xE27A5DE)
        cache = InspectionCache(capacity=64)
        stored: dict[tuple[str, str], str] = {}
        for step in range(2000):
            content = bytes([rng.randrange(16)])
            policy = b"policy-%d" % rng.randrange(8)
            key = _key(content, policy)
            if rng.random() < 0.5:
                tag = f"{content.hex()}/{policy.decode()}"
                cache.put(key, _report(tag))
                stored[key] = tag
            else:
                hit = cache.get(key)
                if hit is not None:
                    # a hit must carry exactly the verdict stored under
                    # this (content, policy) pair — never a neighbour's
                    assert hit.policies_checked == (stored[key],)

    def test_relabels_without_mutating_verdict(self):
        cache = InspectionCache()
        key = _key(b"elf")
        cache.put(key, ComplianceReport.accepted("client-1", ["p"], [0x2000]))
        hit = cache.get(key, benchmark="client-2")
        assert hit.benchmark == "client-2"
        assert hit.compliant and hit.executable_pages == (0x2000,)
        # stored entry stays label-stripped
        assert cache.get(key).benchmark == ""


class TestDigestMemoFailsClosed:
    """The registry computes its policy digest once; a configuration
    change after that must never be answered from the old digest's
    verdicts."""

    def test_declared_configuration_is_fixed_once_registered(self):
        from repro.core import LibraryLinkingPolicy
        from repro.errors import PolicyError

        stack = StackProtectionPolicy(exempt_functions={"memcpy"})
        ifcc = IfccPolicy(backward_window=12)
        linking = LibraryLinkingPolicy({"memcpy": b"\x01" * 32})
        policies = PolicyRegistry([stack, ifcc, linking])
        cache = InspectionCache()
        key = cache_key(b"elf", policies)
        cache.put(key, _report("lenient"))
        assert policies.digest_material() is policies.digest_material()

        with pytest.raises(PolicyError):
            stack.exempt_functions = frozenset()
        with pytest.raises(PolicyError):
            ifcc.backward_window = 13
        with pytest.raises(PolicyError):
            linking.reference_hashes = {"memcpy": b"\x02" * 32}
        with pytest.raises(TypeError):
            linking.reference_hashes["memcpy"] = b"\x02" * 32
        assert isinstance(stack.exempt_functions, frozenset)
        # nothing changed, so the digest and the cached verdict still hold
        assert cache_key(b"elf", policies) == key
        assert cache.get(key).policies_checked == ("lenient",)

    def test_undeclared_configuration_is_redigested(self):
        from repro.core.policy import PolicyModule

        class Budget(PolicyModule):
            name = "budget"

            def __init__(self, limit: int) -> None:
                self.limit = limit

            def config_digest(self) -> bytes:
                return self.limit.to_bytes(4, "big")

            def check(self, ctx):
                raise NotImplementedError

        budget = Budget(100)
        policies = PolicyRegistry([budget, IfccPolicy()])
        cache = InspectionCache()
        old_key = cache_key(b"elf", policies)
        cache.put(old_key, _report("under-limit-100"))
        budget.limit = 5  # a module that never declared its configuration
        new_key = cache_key(b"elf", policies)
        assert new_key != old_key
        assert cache.get(new_key) is None  # re-inspected, not served stale
        assert PolicyRegistry([Budget(5), IfccPolicy()]).digest_material() \
            == policies.digest_material()

    def test_register_drops_the_memo(self):
        policies = PolicyRegistry([IfccPolicy()])
        before = cache_key(b"elf", policies)
        policies.register(StackProtectionPolicy())
        assert cache_key(b"elf", policies) != before
        assert cache_key(b"elf", policies) == cache_key(
            b"elf", PolicyRegistry([IfccPolicy(), StackProtectionPolicy()])
        )


class TestThreadSafety:
    def test_concurrent_get_put_holds_invariants(self):
        cache = InspectionCache(capacity=32)
        errors: list[Exception] = []
        barrier = threading.Barrier(8)

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                barrier.wait()
                for _ in range(1500):
                    content = bytes([rng.randrange(48)])
                    key = _key(content)
                    if rng.random() < 0.5:
                        cache.put(key, _report(content.hex()))
                    else:
                        hit = cache.get(key)
                        if hit is not None:
                            # value integrity: a hit is always the verdict
                            # stored under this content, regardless of
                            # interleaving
                            assert hit.policies_checked == (content.hex(),)
                    assert len(cache) <= 32
            except Exception as exc:  # noqa: BLE001 — collected for the test
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        stats = cache.stats()
        assert stats.hits + stats.misses + stats.puts == 8 * 1500
        assert len(cache) <= 32
