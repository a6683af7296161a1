"""Host-drift reference kernel, normalisation, machine fingerprint, history.

Host speed on a shared VM drifts by tens of percent over minutes, and CPU
time drifts with wall time, so neither cancels it. The benchmark runs a
fixed reference kernel (no ``repro`` imports) before and after every timed
repetition and scales each repetition by how slow the host was while it
ran. The kernel has two halves of about equal time, one for each kind of
work the workloads do: bulk work (an interpreter dict loop plus NumPy sort,
searchsorted and bincount over a million values), which the pooled
analysis workloads track, and small-call work (slot-object updates and
many NumPy calls on 64-element arrays), which the replay engines of
``mitigate`` track. The kernel and :data:`NOMINAL_REF_S` are part of the
metric definitions: changing either changes every normalised number.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

#: Reference-kernel seconds on the nominal host. Normalised metrics read as
#: "what this run would have measured on a host where the kernel takes
#: exactly this long". Fixed forever; never re-tune it.
NOMINAL_REF_S = 0.60

_KERNEL_SEED = 20240611
_KERNEL_LOOP = 300_000
_KERNEL_ARRAY = 1_000_000
_KERNEL_SMALL_CALLS = 27_000


class _Cell:
    __slots__ = ("n", "total")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        self.n += 1
        self.total += value


def _bulk_part() -> bool:
    table: dict[int, int] = {}
    for i in range(_KERNEL_LOOP):
        key = (i * 2654435761) % 8191
        table[key] = table.get(key, 0) + (i & 7)
    values = np.random.default_rng(_KERNEL_SEED).random(_KERNEL_ARRAY)
    ordered = np.sort(values)
    slots = np.searchsorted(ordered, values[::2])
    counts = np.bincount(slots % 4096, minlength=4096)
    return sum(table.values()) > 0 and int(counts.sum()) == values[::2].size


def _small_call_part() -> bool:
    rng = np.random.default_rng(_KERNEL_SEED)
    base = rng.random(64)
    index = rng.integers(0, 64, 32)
    cells = [_Cell() for _ in range(512)]
    total = 0.0
    for i in range(_KERNEL_SMALL_CALLS):
        values = base * (1.0 + (i & 15))
        total += values.sum()
        np.add.at(values, index, 1.0)
        head = values[:16].tolist()
        cell = cells[(i * 2654435761) % 512]
        for value in head:
            cell.add(value)
        halves = np.fromiter((value * 0.5 for value in head), dtype=float,
                             count=16)
        total += halves.max() + float(np.searchsorted(values[:32], 0.5))
    return total > 0 and sum(cell.n for cell in cells) == 16 * _KERNEL_SMALL_CALLS


def reference_kernel() -> float:
    """Run the fixed reference workload once; return its wall seconds."""
    gc.collect()
    started = time.perf_counter()
    checks = _bulk_part() and _small_call_part()
    elapsed = time.perf_counter() - started
    if not checks:
        raise RuntimeError("reference kernel computed a wrong checksum")
    return elapsed


def normalised_rate(raw_rate: float, ref_s: float) -> float:
    """A throughput as the nominal host would have measured it.

    A slow host makes the kernel slower (``ref_s`` up) and the workload
    slower (``raw_rate`` down) together, so their product holds still.
    """
    return raw_rate * ref_s / NOMINAL_REF_S


def normalised_seconds(raw_s: float, ref_s: float) -> float:
    """A duration as the nominal host would have measured it."""
    return raw_s * NOMINAL_REF_S / ref_s


def bracket_ref_s(before_s: float, after_s: float) -> float:
    """The host-speed reading for a repetition run between two kernels."""
    return (before_s + after_s) / 2.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str | None:
    """HEAD's commit id read straight from ``.git`` (no subprocess)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        target = root / ".git" / ref[5:]
        if target.is_file():
            return target.read_text(encoding="utf-8").strip()
        packed = root / ".git" / "packed-refs"
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over every ``src/**/*.py`` path and content, sorted.

    Identifies the measured program in checkouts that carry no ``.git``.
    """
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_fingerprint(root: Path) -> dict:
    """What a result needs to be compared with another machine's."""
    import scipy

    cpu = _cpu_model()
    nproc = os.cpu_count() or 1
    machine_id = hashlib.sha256(
        f"{cpu}|{nproc}|{platform.machine()}".encode()).hexdigest()[:12]
    return {
        "machine_id": machine_id,
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(root),
        "source_digest": source_digest(root),
    }


def append_history(path: Path, record: dict) -> None:
    """Append one result to the JSON-lines history; never rewrite it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
