"""Small helpers shared by the benchmark sections: metric records with
their spread, percentiles, seed derivation and the host speed factor."""

from __future__ import annotations

import hashlib
import math
import statistics
from time import perf_counter
from typing import Iterable, Optional

import numpy as np

#: Host speed references: fixed kernels that run no code of the program.
#: A reference's best-of-REF_REPEATS time over its nominal time is the
#: host factor: 1.0 on an unloaded 2-vCPU Xeon VM, up to ~2 when the
#: host's neighbours slow it down.
REF_REPEATS = 3
_X = np.random.default_rng(0).standard_normal((4, 16, 34, 34)).astype(
    np.float32)
_W = np.random.default_rng(1).standard_normal((16, 144)).astype(np.float32)


def _ref_dict() -> int:
    """Interpreter work: dict stores and lookups."""
    d = {}
    s = 0
    for i in range(12_000):
        d[i & 1023] = i
        s += d.get((i * 7) & 1023, 0)
    return s


def _ref_conv() -> np.ndarray:
    """Array work: a 3x3 convolution of a 4x16x34x34 input as an im2col
    copy and a GEMM."""
    n, c, h, w = _X.shape
    s = _X.strides
    v = np.lib.stride_tricks.as_strided(
        _X, (n, c, 3, 3, h - 2, w - 2), (s[0], s[1], s[2], s[3], s[2], s[3]))
    cols = np.ascontiguousarray(v).reshape(n, c * 9, (h - 2) * (w - 2))
    return _W @ cols


_BYTES = np.random.default_rng(2).integers(0, 256, 1 << 16,
                                           dtype=np.uint8).tobytes()


def _ref_hash() -> bytes:
    """Content hashing: BLAKE2b of 64 KiB, as a cache key is made."""
    return hashlib.blake2b(_BYTES, digest_size=16).digest()


#: kind -> (kernel, nominal seconds)
REFERENCES = {"dict": (_ref_dict, 0.0018), "conv": (_ref_conv, 0.0006),
              "hash": (_ref_hash, 0.00011)}


def host_factor(kind: str) -> float:
    """How much slower than nominal the host runs right now, by the
    reference ``kind``.

    A shared host's speed drifts by up to 2x over seconds to minutes.
    Dividing a timing by the factor taken next to it gives it in
    nominal-host seconds, which repeat from run to run far better than
    the raw timing (kept in the provenance line). Each section uses the
    reference whose drift tracks its own: across runs on a 2-vCPU VM
    the dict loop followed the simulator (interpreter-bound), the
    convolution followed training and the ClimateNet forward
    (array-bound), and the hash followed the cache-hit path."""
    fn, nominal = REFERENCES[kind]
    best = math.inf
    for _ in range(REF_REPEATS):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best / nominal


def metric(samples: Iterable[float], unit: str,
           value: Optional[float] = None) -> dict:
    """A metric record: its value (the median of ``samples`` unless given),
    unit, and the samples' count, median and quartiles."""
    vals = [float(v) for v in samples]
    if not vals:
        raise ValueError("a metric needs at least one sample")
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    return {"value": med if value is None else float(value), "unit": unit,
            "n": len(vals), "median": med, "q1": q1, "q3": q3}


def raw_of(record: dict, raw: Iterable[float]) -> dict:
    """``record`` (a metric of host-normalised samples) with the raw
    samples' median and quartiles beside it, for the provenance line."""
    r = metric(raw, record["unit"])
    record["raw"] = {k: r[k] for k in ("median", "q1", "q3")}
    return record


def scalar(value: float, unit: str) -> dict:
    """A metric measured once (a count or a whole-run ratio)."""
    return metric([value], unit)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def child_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from ``seed`` and a path of integers, so
    streams for different purposes never share state."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def finite(values) -> bool:
    return all(math.isfinite(v) for v in values)
