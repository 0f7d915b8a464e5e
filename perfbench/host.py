"""Host fingerprint and roof probes.

The fingerprint goes with every result. The probes run only in the
traced run, in a process of their own, so their memory and time never
reach ``setup_s`` or ``peak_rss_mb``: an fp32 GEMM peak, and a copy
bandwidth over arrays each at least four times the sum of the
last-level caches, so the copy streams from memory.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from time import perf_counter

import numpy as np

GEMM_N = 2048
GEMM_REPEATS = 7
COPY_REPEATS = 5
MIB = 1 << 20


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def caches() -> dict:
    """L2 and L3: size per instance and instance count, from sysfs."""
    out = {}
    root = Path("/sys/devices/system/cpu")
    seen = set()
    for idx in sorted(root.glob("cpu[0-9]*/cache/index[0-9]*")):
        try:
            level = int((idx / "level").read_text())
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
            shared = (idx / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if level < 2 or kind == "Instruction" or (level, shared) in seen:
            continue
        seen.add((level, shared))
        kib = int(size.rstrip("K")) if size.endswith("K") else \
            int(size.rstrip("M")) * 1024
        entry = out.setdefault(f"L{level}", {"kib": kib, "instances": 0})
        entry["instances"] += 1
    return out


def _blas() -> dict:
    info = {"name": "unknown", "version": "unknown",
            "threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        info["name"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
    except (TypeError, KeyError):
        pass
    return info


def fingerprint() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "caches": caches(), "blas": _blas(),
            "python": platform.python_version(), "numpy": np.__version__}


def _cache_bytes() -> int:
    """Sum of the L2 and L3 caches over all their instances."""
    return sum(c["kib"] * c["instances"] for c in caches().values()) * 1024


def _copy_bytes_per_array(smoke: bool) -> int:
    if smoke:
        return 8 * MIB
    # 4x the sum of the last-level caches; never below 452 MiB, the
    # figure for a host with 105 MiB L3 and two 4 MiB L2s
    return max(4 * _cache_bytes(), 452 * MIB)


def probes(smoke: bool = False) -> dict:
    """GEMM peak (GFLOP/s) and copy bandwidth (GB/s, read + write)."""
    n = 256 if smoke else GEMM_N
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    a @ b
    best = min(_timed(lambda: a @ b) for _ in range(GEMM_REPEATS))
    gemm = 2.0 * n ** 3 / best / 1e9

    nbytes = _copy_bytes_per_array(smoke)
    src = np.ones(nbytes // 4, dtype=np.float32)
    dst = np.zeros_like(src)
    np.copyto(dst, src)
    best = min(_timed(lambda: np.copyto(dst, src))
               for _ in range(COPY_REPEATS))
    copy = 2.0 * src.nbytes / best / 1e9
    return {"gemm_gflops": gemm, "gemm_n": n, "copy_gbs": copy,
            "copy_array_mib": src.nbytes / MIB,
            "l2_l3_sum_mib": _cache_bytes() / MIB,
            "copy_arrays": 2, "bytes_counted": "read + write"}


def _timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0
