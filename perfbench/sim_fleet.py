"""sim-fleet: the serving simulator, wall-clock, with no NN arithmetic.

A 64-replica fleet with ``max_batch=32`` in four classes: the array
engine's plain, cached and multi-model classes at the tier-2 configs,
and the event engine on a config only it runs (multi-model, cost-aware
admission, EDF launch order). All four are sequential Python scheduling
work. A slice is one round: every class run twice back to back, on the
same traces every time, drawn from the run's seed. A class's rate is the
median over its runs in nominal-host seconds (``common.host_factor``),
and every run must reproduce the first bit for bit.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

import numpy as np

from common import child_seed, host_factor, metric, raw_of, scalar
from repro.serve import (
    BatchingPolicy,
    ModelMix,
    ModelProfile,
    ServingSimulator,
    ZipfPopularity,
)
from repro.serve import fast_core, slo_sim
from repro.sim import workload as sim_workload
from tracing import Recorder, SpanProfiler

N_REPLICAS = 64
POLICY = BatchingPolicy(max_batch=32)
MAX_QUEUE = 128
#: requests per run: array classes, then the event class
N_ARRAY = 60_000
N_EVENT = 7_500
#: back-to-back runs of each class in a round: the first comes after the
#: other sections' turns with cold caches, the second does not
RUNS_PER_ROUND = 2
#: requests in the untimed event-vs-array differential of each class
N_SLICE = 10_000
CLASSES = ("plain", "cached", "multi", "event")
ARRAY_CLASSES = CLASSES[:3]
LOADS = {"plain": 1.05, "cached": 2.0, "multi": 1.05, "event": 1.05}
#: the host speed reference the run times are normalised by
REF = "dict"
POPULARITY = ZipfPopularity(alpha=1.1, n_keys=4096)


def _make(cls: str, engine: str, hep, climate) -> ServingSimulator:
    kw = dict(n_replicas=N_REPLICAS, policy=POLICY, max_queue=MAX_QUEUE,
              engine=engine)
    if cls == "plain":
        return ServingSimulator(hep, **kw)
    if cls == "cached":
        return ServingSimulator(hep, cache_size=128, **kw)
    profiles = [ModelProfile("hep", hep, weight=4.0),
                ModelProfile("climate", climate, weight=1.0)]
    if cls == "event":
        kw.update(cost_aware=True, order="edf")
    return ServingSimulator(models=profiles, model_mix=ModelMix((0.9, 0.1)),
                            **kw)


def _setup():
    # Workload descriptors are memoized per process; clear them so every
    # repeated set-up pays for them.
    sim_workload.hep_workload.cache_clear()
    sim_workload.climate_workload.cache_clear()
    hep = sim_workload.hep_workload()
    climate = sim_workload.climate_workload()
    sims, rates = {}, {}
    for cls in CLASSES:
        sims[cls] = _make(cls, "event" if cls == "event" else "array",
                          hep, climate)
        rates[cls] = LOADS[cls] * sims[cls].saturation_rate()
        _run(sims[cls], cls, rates[cls], 2_000, 0)  # fills service memos
    return hep, climate, sims, rates


def _run(sim, cls, rate, n, seed, profiler=None):
    pop = POPULARITY if cls == "cached" else None
    return sim.run(rate, n, "poisson", seed=seed, popularity=pop,
                   profiler=profiler)


def _digest(stats) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in (stats.latencies, stats.batch_sizes):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((stats.n_offered, stats.n_dropped, stats.n_cache_hits,
                   stats.horizon)).encode())
    return h.hexdigest()


def _conserves(stats) -> bool:
    """Every offered request is answered or shed, and every answer came
    from a batch or (cached class) from the cache."""
    return (len(stats.latencies) + stats.n_dropped == stats.n_offered
            and int(stats.batch_sizes.sum()) + stats.n_cache_hits
            == len(stats.latencies))


class _Rounds:
    """Rounds of every class on the same traces, and what they gave."""

    def __init__(self, sims, rates, seed, sizes, rec=None) -> None:
        self.sims, self.rates, self.sizes = sims, rates, sizes
        self.trace_seed = child_seed(seed, 10)
        self.rec = rec
        self.profiler = None
        if rec is not None:
            for attr in ("make_arrivals", "make_contents", "make_model_ids"):
                rec.wrap(slo_sim, attr, "sim.arrivals")
            rec.wrap(fast_core, "drive", "sim.drive")
            rec.wrap(fast_core, "collect", "sim.collect")
            # the event loop's own Profiler hook points, with parents
            self.profiler = SpanProfiler(rec)
        self.rps = {cls: [] for cls in CLASSES}
        #: per run, the host factor taken just before it
        self.factors = {cls: [] for cls in CLASSES}
        self.digests = {cls: set() for cls in CLASSES}
        self.first = {}
        self.conserves = True
        self.elapsed = 0.0
        self.n = 0

    def round(self) -> None:
        for cls in CLASSES:
            for _ in range(RUNS_PER_ROUND):
                self._one(cls)
        self.n += 1

    def _one(self, cls: str) -> None:
        if self.rec is not None:
            self.rec.rid = (cls, len(self.rps[cls]))
        self.factors[cls].append(host_factor(REF))
        t0 = perf_counter()
        stats = _run(self.sims[cls], cls, self.rates[cls],
                     self.sizes[cls], self.trace_seed,
                     self.profiler if cls == "event" else None)
        dt = perf_counter() - t0
        self.elapsed += dt
        self.rps[cls].append(self.sizes[cls] / dt)
        self.conserves &= _conserves(stats) and (
            cls == "event" or self.sims[cls].last_run_engine == "array")
        self.digests[cls].add(_digest(stats))
        self.first.setdefault(cls, stats)


def _differential(hep, climate, rates, seed, n) -> bool:
    """Array-engine stats bit-identical to the event engine's on a slice
    of each array class (untimed)."""
    for cls in ARRAY_CLASSES:
        a = _run(_make(cls, "array", hep, climate), cls, rates[cls], n, seed)
        e = _run(_make(cls, "event", hep, climate), cls, rates[cls], n, seed)
        if _digest(a) != _digest(e):
            return False
    return True


def _layer_metrics(rec: Recorder, first) -> dict:
    by = rec.self_by_id()

    def per_run(name, cls):
        vals = [t for (c, _r), t in by.get(name, {}).items() if c == cls]
        return metric(vals, "s")

    out = {}
    for cls in ARRAY_CLASSES:
        out[f"sim.{cls}.arrivals_s"] = per_run("sim.arrivals", cls)
        out[f"sim.{cls}.drive_s"] = per_run("sim.drive", cls)
        out[f"sim.{cls}.collect_s"] = per_run("sim.collect", cls)
        s = first[cls]
        out[f"sim.{cls}.n_batches"] = scalar(len(s.batch_sizes), "count")
        out[f"sim.{cls}.shed_ratio"] = scalar(s.n_dropped / s.n_offered,
                                              "ratio")
    out["sim.cached.hit_ratio"] = scalar(
        first["cached"].n_cache_hits / first["cached"].n_offered, "ratio")
    # the event loop's own Profiler hook points, as self times: submit
    # without the sync it calls, drain without its syncs
    out["sim.event.submit_s"] = per_run("router.submit", "event")
    out["sim.event.sync_s"] = per_run("router.sync", "event")
    out["sim.event.drain_s"] = per_run("run.drain", "event")
    return out


class Section:
    def __init__(self, seed: int, setups: int, smoke: bool, work) -> None:
        self.seed = seed
        self.work = work
        self.setup_times = []
        self.setup_factors = []
        for _ in range(setups):
            f0 = host_factor(REF)
            t0 = perf_counter()
            self.hep, self.climate, self.sims, self.rates = _setup()
            self.setup_times.append(perf_counter() - t0)
            self.setup_factors.append((f0 + host_factor(REF)) / 2.0)
        if smoke:
            self.sizes = {cls: 3_000 for cls in CLASSES}
            self.n_slice = 1_000
        else:
            self.sizes = {cls: N_ARRAY for cls in ARRAY_CLASSES}
            self.sizes["event"] = N_EVENT
            self.n_slice = N_SLICE
        self.base = _Rounds(self.sims, self.rates, seed, self.sizes)
        self.rec = Recorder()
        self.traced = None

    def slice(self, traced: bool) -> None:
        if not traced:
            self.base.round()
            return
        if self.traced is None:
            self.traced = _Rounds(self.sims, self.rates, self.seed,
                                  self.sizes, self.rec)
        self.traced.round()

    def finish(self, probes) -> dict:
        base = self.base
        e2e = {"setup_s": raw_of(metric(
            np.array(self.setup_times) / np.array(self.setup_factors), "s"),
            self.setup_times)}
        for cls in CLASSES:
            # in requests per nominal-host second (common.host_factor)
            rps = np.array(base.rps[cls])
            e2e[f"sim_{cls}_rps"] = raw_of(
                metric(rps * np.array(base.factors[cls]), "1/s"), rps)
        checks = {
            "sim.conservation_at_full_size": base.conserves,
            "sim.rounds_repeat_bitwise": all(
                len(d) == 1 for d in base.digests.values()),
            "sim.array_matches_event_on_slice": _differential(
                self.hep, self.climate, self.rates,
                child_seed(self.seed, 11), self.n_slice),
        }
        out = {"e2e": e2e, "checks": checks,
               "attempted": sum(len(r) for r in base.rps.values()),
               "failed": 0,
               "info": {"rounds": base.n, "sizes": self.sizes,
                        "loads": LOADS, "n_replicas": N_REPLICAS,
                        "max_batch": POLICY.max_batch,
                        "slice": self.n_slice}}
        if self.traced is not None:
            traced = self.traced
            self.rec.restore()
            checks["sim.traced_stats_bitwise_equal"] = \
                traced.digests == base.digests
            layers = _layer_metrics(self.rec, traced.first)
            layers["trace.sim.overhead_pct"] = scalar(
                100.0 * (traced.elapsed / base.elapsed - 1.0), "%")
            out["layers"] = layers
            self.rec.dump(self.work / "spans-sim-fleet.jsonl")
        return out
