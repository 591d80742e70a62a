"""Fixed input pools for the two workloads.

Every binary the benchmark can ever submit comes from one of two
pools whose contents do not depend on ``--seed``:

* the seven paper applications at scale 0.3, built with stack
  protector + IFCC (``provision-apps``),
* the 50-entry variant corpus of ``generate_variant_corpus``
  (``tenant-churn``).

The seed only chooses *which* pool entries run, in what order, and
when — so ``expected.json``, keyed by content digest, stays valid for
every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: built application binaries, reused across runs in one checkout
CACHE_DIR = ROOT / ".perfbench_cache"

POLICY_NAMES = ("library-linking", "stack-protection", "indirect-function-call")
APP_SCALE = 0.3
VARIANT_COUNT = 50
MIB = 1 << 20


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src`` directory."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def build_policies(libc):
    """The three paper policies, in the order the daemon serves them."""
    from repro.core.policy import PolicyRegistry
    from repro.harness.runner import make_policy

    return PolicyRegistry([make_policy(name, libc) for name in POLICY_NAMES])


def _source_key() -> str:
    """Digest of every source file under ``src/repro``: any change to the
    toolchain (or anything it imports) rebuilds the cached apps."""
    h = hashlib.sha256(f"apps scale={APP_SCALE}".encode())
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def app_pool(libc) -> list[tuple[str, bytes, int]]:
    """``(name, elf, client_pages)`` for the seven paper applications.

    Client pages follow the provisioning benchmark's sizing: text + data
    + bss + 16 KiB of slack, plus 16 pages, never fewer than 64.
    """
    from repro.toolchain.workloads import PAPER_BENCHMARKS, build_workload

    cache = CACHE_DIR / f"apps-{_source_key()}.json"
    if cache.is_file():
        doc = json.loads(cache.read_text())
        apps = []
        for name in PAPER_BENCHMARKS:
            raw = (CACHE_DIR / doc[name]["file"]).read_bytes()
            if digest(raw) != doc[name]["sha256"]:
                break
            apps.append((name, raw, doc[name]["client_pages"]))
        else:
            return apps
    apps = []
    for name in PAPER_BENCHMARKS:
        binary = build_workload(
            name, stack_protector=True, ifcc=True, libc=libc, scale=APP_SCALE,
        )
        total = binary.text_size + binary.data_size + binary.bss_size + 0x4000
        pages = max((total + 4095) // 4096 + 16, 64)
        apps.append((name, binary.elf, pages))
    CACHE_DIR.mkdir(exist_ok=True)
    doc = {}
    for name, raw, pages in apps:
        fname = f"app-{digest(raw)[:16]}.elf"
        tmp = CACHE_DIR / (fname + ".tmp")
        tmp.write_bytes(raw)
        os.replace(tmp, CACHE_DIR / fname)
        doc[name] = {"file": fname, "sha256": digest(raw), "client_pages": pages}
    tmp = cache.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc))
    os.replace(tmp, cache)
    return apps


def variant_pool(libc) -> list[tuple[str, str, bytes]]:
    """``(label, kind, elf)`` for the variant corpus, in corpus order."""
    from repro.service.corpus import generate_variant_corpus

    return [
        (label, label.split("-", 1)[1], raw)
        for label, raw in generate_variant_corpus(VARIANT_COUNT, libc=libc)
    ]
