"""train-hep: the paper's HEP classifier under the hybrid trainer.

Two compute groups over per-layer parameter servers with ADAM, on the
deterministic virtual schedule (``drift=[1.0, 1.0]``), so the run stays
on one Python thread and its losses repeat bit for bit. Conv backward,
max-pool, the ADAM/PS update and the loss do nearly all the work; there
is no cache and no simulator.

A slice is one ``HybridTrainer.run`` of two iterations per group on a
trainer that persists across slices. The traced pass trains a second,
identical trainer through the same slices.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from common import (child_seed, finite, host_factor, metric, raw_of,
                    scalar)
from repro.data.hep import make_hep_dataset
from repro.distributed import HybridTrainer
from repro.flops import count_net
from repro.flops.roofline import layer_bytes_moved
from repro.models import build_hep_net
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.optim import Adam
from tracing import Recorder

GROUPS = 2
GROUP_BATCH = 32
FILTERS = 16
IMAGE = 64
INPUT = (3, IMAGE, IMAGE)
N_EVENTS = 240
#: iterations per group in one slice
SLICE_ITERATIONS = 2
#: the host speed reference the step times are normalised by
REF = "conv"
#: the first loss of an untrained 2-class net sits near ln 2
FIRST_LOSS_TOL = 0.05


class _Stamps:
    """``iteration_time_fn`` for the trainer: it is called once at the end
    of every group iteration, so its wall-clock stamps time the steps.
    It returns the virtual duration 1.0, the trainer's default."""

    def __init__(self) -> None:
        self.t = []

    def __call__(self, group: int) -> float:
        self.t.append(perf_counter())
        return 1.0


def _gather_rows(images: np.ndarray, rec: Recorder):
    """``images`` as an array whose row gathers (the trainer's minibatch
    indexing, ``x[idx]``) record a span and start a new step id."""
    step = [0]

    class TracedRows(np.ndarray):
        def __getitem__(self, idx):
            step[0] += 1
            rec.rid = step[0]
            with rec.span("train.gather"):
                return np.asarray(np.ndarray.__getitem__(self, idx))
    return images.view(TracedRows)


class _Training:
    """One trainer and what its slices produced."""

    def __init__(self, seed: int, data, rec: Recorder = None) -> None:
        self.data = data
        self.images = data.images
        loss = SoftmaxCrossEntropyLoss()
        if rec is not None:
            loss = rec.wrap_fn("train.loss", loss)
            self.images = _gather_rows(data.images, rec)
        self.stamps = _Stamps()
        net_seed = child_seed(seed, 1)

        def loss_fn(net, x, y):
            return loss(net.forward(x), y)

        self.trainer = HybridTrainer(
            lambda: build_hep_net(filters=FILTERS, rng=net_seed),
            lambda params: Adam(params, lr=1e-3), loss_fn, n_groups=GROUPS,
            iteration_time_fn=self.stamps, seed=child_seed(seed, 2))
        if rec is not None:
            for net in self.trainer.nets:
                for layer in net:
                    rec.wrap(layer, "forward", f"train.{layer.name}.fwd")
                    rec.wrap(layer, "backward", f"train.{layer.name}.bwd")
            reg = self.trainer.registry
            rec.wrap(reg, "push_from", "train.ps_push")
            rec.wrap(reg, "pull_into", "train.ps_pull_init")
            for ps in reg.servers.values():
                rec.wrap(ps, "push", "train.ps_server")
                rec.wrap(ps.optimizer, "step", "train.adam")
        self.steps = []
        #: the host factor of each step: the mean of those taken just
        #: before and just after its slice
        self.factors = []
        self.losses = []
        self.elapsed = 0.0
        self.iterations = 0

    def slice(self) -> None:
        n_stamps = len(self.stamps.t)
        f0 = host_factor(REF)
        t0 = perf_counter()
        result = self.trainer.run(self.images, self.data.labels,
                                  group_batch=GROUP_BATCH,
                                  n_iterations=SLICE_ITERATIONS,
                                  drift=[1.0] * GROUPS)
        self.elapsed += perf_counter() - t0
        steps = np.diff([t0] + self.stamps.t[n_stamps:]).tolist()
        self.steps += steps
        self.factors += [(f0 + host_factor(REF)) / 2.0] * len(steps)
        self.losses.append([tr.losses for tr in result.traces])
        self.iterations += SLICE_ITERATIONS

    def pushes(self) -> int:
        return sum(len(ps.log)
                   for ps in self.trainer.registry.servers.values())


def _layer_metrics(rec: Recorder, net, probes) -> dict:
    per_step = rec.self_by_id()

    def step_median(name):
        vals = [t for rid, t in per_step.get(name, {}).items()
                if rid is not None]
        return metric(vals, "s")

    out = {}
    for layer in net:
        for d in ("fwd", "bwd"):
            out[f"train.{layer.name}.{d}_s"] = step_median(
                f"train.{layer.name}.{d}")
    for lf in count_net(net, INPUT, GROUP_BATCH).by_kind("conv"):
        fwd_s = out[f"train.{lf.name}.fwd_s"]["value"]
        bwd_s = out[f"train.{lf.name}.bwd_s"]["value"]
        out[f"train.{lf.name}.fwd_gflops"] = scalar(
            lf.forward_flops / fwd_s / 1e9, "GFLOP/s")
        out[f"train.{lf.name}.bwd_gflops"] = scalar(
            lf.backward_flops / bwd_s / 1e9, "GFLOP/s")
        # Computed bytes: the forward streams layer_bytes_moved; backward
        # reads x, dy and W and writes dx and dW, counted as twice that.
        # Both passes then share the forward's intensity.
        intensity = lf.forward_flops / layer_bytes_moved(lf, GROUP_BATCH)
        roof = min(probes["gemm_gflops"], intensity * probes["copy_gbs"])
        achieved = lf.training_flops / (fwd_s + bwd_s) / 1e9
        out[f"train.{lf.name}.roof_frac"] = scalar(achieved / roof, "ratio")
    out["train.loss_s"] = step_median("train.loss")
    out["train.gather_s"] = step_median("train.gather")
    # push_from is the whole push (gradients out, ADAM on the PS, fresh
    # weights back); its self time is the replica-side copy of the fresh
    # weights, which is the pull half of the exchange.
    out["train.ps_push_s"] = metric(rec.durations("train.ps_push"), "s")
    out["train.ps_pull_s"] = step_median("train.ps_push")
    out["train.adam_s"] = step_median("train.adam")
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
            self.data = make_hep_dataset(N_EVENTS, image_size=IMAGE,
                                         seed=seed)
            # one warm-up slice: first-touch allocations land here
            _Training(seed, self.data).slice()
            self.setup_times.append(perf_counter() - t0)
            self.setup_factors.append((f0 + host_factor(REF)) / 2.0)
        self.base = _Training(seed, self.data)
        self.rec = Recorder()
        self.traced = None

    def slice(self, traced: bool) -> None:
        if not traced:
            self.base.slice()
            return
        if self.traced is None:
            self.traced = _Training(self.seed, self.data, self.rec)
        self.traced.slice()

    def finish(self, probes) -> dict:
        base = self.base
        steps = np.array(base.steps)
        # in nominal-host seconds (common.host_factor); raw in provenance
        nominal = steps / np.array(base.factors)
        flat = [l for s in base.losses for g in s for l in g]
        e2e = {
            "setup_s": raw_of(metric(
                np.array(self.setup_times) / np.array(self.setup_factors),
                "s"), self.setup_times),
            "train_images_per_s": raw_of(
                metric(GROUP_BATCH / nominal, "1/s"), GROUP_BATCH / steps),
            "train_step_p50_ms": raw_of(metric(nominal * 1e3, "ms"),
                                        steps * 1e3),
        }
        n_layers = len(base.trainer.registry)
        checks = {
            "train.losses_finite": finite(flat),
            "train.first_loss_near_ln2": all(
                abs(g[0] - math.log(2)) < FIRST_LOSS_TOL
                for g in base.losses[0]),
            "train.ps_push_count": base.pushes()
            == GROUPS * base.iterations * n_layers,
        }
        out = {"e2e": e2e, "checks": checks, "attempted": len(steps),
               "failed": 0,
               "info": {"iterations_per_group": base.iterations,
                        "group_batch": GROUP_BATCH, "groups": GROUPS,
                        "input": list(INPUT), "filters": FILTERS}}
        if self.traced is not None:
            traced = self.traced
            self.rec.restore()
            checks["train.traced_losses_bitwise_equal"] = \
                traced.losses == base.losses
            layers = _layer_metrics(self.rec, traced.trainer.nets[0], probes)
            layers["train.ps_pushes"] = scalar(traced.pushes(), "count")
            layers["train.staleness_mean"] = scalar(float(np.mean(
                traced.trainer.registry.all_staleness())), "updates")
            layers["trace.train.overhead_pct"] = scalar(
                100.0 * (traced.elapsed / base.elapsed - 1.0), "%")
            out["layers"] = layers
            out["info"]["roof"] = (
                "min(GEMM peak, intensity x copy bandwidth); bytes computed "
                "by flops.roofline.layer_bytes_moved, backward counted as "
                "twice the forward's")
            self.rec.dump(self.work / "spans-train-hep.jsonl")
        return out
