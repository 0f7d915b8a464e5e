"""What the benchmark measures: workloads, metrics, bounds, and which
end-to-end metric each layer metric should move.

``BENCHMARK.json`` at the repository root is this spec in machine-readable
form (``python3 perfbench/spec.py`` prints it); the smoke test checks
that the two agree. Every workload runs every section (see run.py), so a
layer metric belongs to the section named in ``on``: ``moves`` names the
end-to-end metrics a change in that layer should move, and ``zero`` the
sections where the layer does no work, so the prediction for their
metrics is no change.
"""

from __future__ import annotations

import json

SECTIONS = ("train-hep", "serve-climate", "sim-fleet")

#: Every run executes all three sections (see run.py); a workload names
#: the section whose set-up is repeated and bounded (``setup_s``,
#: ``peak_rss_mb``). sim-fleet runs in both workloads, with all its
#: metrics, but is not a workload of its own: at ~35-50 s an untraced
#: run and ~80 s a traced one, a third workload would put a campaign of 22
#: runs per workload past an hour on a slowed-down host.
WORKLOADS = [
    {"name": "train-hep",
     "why": "sets up HEP training (f16 3x64x64, 2 groups x batch 32, ADAM "
            "PSs) 3x; each run also runs the serve and 64-replica sim "
            "sections; closed loop, 1 client; data from --seed; 2 BLAS "
            "threads"},
    {"name": "serve-climate",
     "why": "sets up small ClimateNet via registry, LRU-96 3x; open loop "
            "Poisson 120 req/s, Zipf-1.1 over 128 inputs from --seed, closed "
            "loop 1 client; also runs train and sim sections; 2 threads"},
]

#: (name, unit, better, bound). A 2-core host shared with other tenants
#: drifts by up to 2x in speed over seconds to minutes; the timings are
#: medians of samples normalised by a host speed reference taken next to
#: each (common.host_factor), and their bounds sit at the ceiling of 0.25.
#: Memory and goodput repeat more closely.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("train_images_per_s", "1/s", "higher", 0.25),
    ("train_step_p50_ms", "ms", "lower", 0.25),
    ("serve_p50_ms", "ms", "lower", 0.25),
    ("serve_goodput", "ratio", "higher", 0.1),
    ("serve_capacity_rps", "1/s", "higher", 0.25),
    ("sim_plain_rps", "1/s", "higher", 0.25),
    ("sim_cached_rps", "1/s", "higher", 0.25),
    ("sim_multi_rps", "1/s", "higher", 0.25),
    ("sim_event_rps", "1/s", "higher", 0.25),
]

#: end-to-end metrics printed with the others but left out of
#: BENCHMARK.json, which bounds every metric it lists: (name, unit, why)
REPORTED = [
    ("serve_p99_ms", "ms",
     "set by the 2-4 host stalls a run happens to meet; its run-to-run "
     "spread (0.4-1.3) is past any bound, so serve_goodput bounds the tail"),
    ("failed_ratio", "ratio",
     "0 on every healthy run, so it cannot carry a relative bound; the "
     "result's attempted and failed fields carry it"),
]

_TRAIN = ["train_images_per_s", "train_step_p50_ms"]
_TAIL = ["serve_p99_ms", "serve_goodput"]
#: the HEP net's layers in order: 5 x (conv, relu, pool), global pool, fc
_HEP_LAYERS = [f"{kind}{i}" for i in range(1, 5)
               for kind in ("conv", "relu", "pool")]
_HEP_LAYERS += ["conv5", "relu5", "global_pool", "fc"]
_SERVE_LAYERS = ["enc_conv1", "enc_conv2", "enc_conv3", "enc_conv4",
                 "head_conf", "head_cls", "head_box",
                 "dec_deconv1", "dec_deconv2", "dec_deconv3"]


def _layer(name, unit, better, on, moves, zero=()):
    return {"name": name, "unit": unit, "better": better, "on": on,
            "moves": list(moves), "zero": list(zero)}


def _per_layer():
    out = []
    for layer in _HEP_LAYERS:
        for d in ("fwd", "bwd"):
            moves = list(_TRAIN)
            zero = ["sim-fleet"]
            if layer.startswith(("conv", "relu")) and d == "fwd":
                # the ClimateNet forward runs the same Conv2D and ReLU code
                moves.append("serve_capacity_rps")
            else:
                # serving runs no backward, pooling or dense layer
                zero.append("serve-climate")
            out.append(_layer(f"train.{layer}.{d}_s", "s", "lower",
                              "train-hep", moves, zero))
    for i in range(1, 6):
        for m, unit in (("fwd_gflops", "GFLOP/s"), ("bwd_gflops", "GFLOP/s"),
                        ("roof_frac", "ratio")):
            out.append(_layer(f"train.conv{i}.{m}", unit, "higher",
                              "train-hep", ["train_images_per_s"],
                              ["sim-fleet"]))
    for m in ("loss_s", "gather_s", "ps_push_s", "ps_pull_s", "adam_s"):
        out.append(_layer(f"train.{m}", "s", "lower", "train-hep",
                          ["train_images_per_s"],
                          ["serve-climate", "sim-fleet"]))
    out.append(_layer("train.ps_pushes", "count", "lower", "train-hep",
                      ["train_images_per_s"], ["serve-climate", "sim-fleet"]))
    out.append(_layer("train.staleness_mean", "updates", "lower",
                      "train-hep", ["train_images_per_s"],
                      ["serve-climate", "sim-fleet"]))

    no_serve = ["train-hep", "sim-fleet"]
    out += [
        _layer("serve.hash_us", "us", "lower", "serve-climate",
               ["serve_p50_ms"], no_serve),
        _layer("serve.cache_get_us", "us", "lower", "serve-climate",
               ["serve_p50_ms"], no_serve),
        _layer("serve.cache_hit_ratio", "ratio", "higher", "serve-climate",
               _TAIL, no_serve),
        _layer("serve.batch_size_mean", "requests", "higher",
               "serve-climate", _TAIL, no_serve),
        _layer("serve.n_forwards", "count", "lower", "serve-climate",
               _TAIL, no_serve),
        _layer("serve.queue_wait_p50_ms", "ms", "lower", "serve-climate",
               _TAIL, no_serve),
        _layer("serve.forward_ms", "ms", "lower", "serve-climate",
               _TAIL + ["serve_capacity_rps"], no_serve),
        _layer("serve.executor_overhead_ms", "ms", "lower", "serve-climate",
               _TAIL + ["serve_capacity_rps"], no_serve),
    ]
    for layer in _SERVE_LAYERS:
        out.append(_layer(f"serve.{layer}.fwd_ms", "ms", "lower",
                          "serve-climate", ["serve_capacity_rps"],
                          ["sim-fleet"]))
    out.append(_layer("serve.registry_load_s", "s", "lower",
                      "serve-climate", ["setup_s"], no_serve))
    out.append(_layer("serve.gen_lag_p99_ms", "ms", "lower",
                      "serve-climate", _TAIL, no_serve))

    no_sim = ["train-hep", "serve-climate"]
    for cls in ("plain", "cached", "multi"):
        rps = [f"sim_{cls}_rps"]
        for stage in ("arrivals_s", "drive_s", "collect_s"):
            out.append(_layer(f"sim.{cls}.{stage}", "s", "lower",
                              "sim-fleet", rps, no_sim))
        out.append(_layer(f"sim.{cls}.n_batches", "count", "lower",
                          "sim-fleet", rps, no_sim))
        out.append(_layer(f"sim.{cls}.shed_ratio", "ratio", "lower",
                          "sim-fleet", rps, no_sim))
    out.append(_layer("sim.cached.hit_ratio", "ratio", "higher",
                      "sim-fleet", ["sim_cached_rps"], no_sim))
    for stage in ("submit_s", "sync_s", "drain_s"):
        out.append(_layer(f"sim.event.{stage}", "s", "lower", "sim-fleet",
                          ["sim_event_rps"], no_sim))

    # tracing overhead per workload, and the host roof the roof_frac
    # figures are taken against
    for section in ("train", "serve", "sim"):
        out.append(_layer(f"trace.{section}.overhead_pct", "%", "lower",
                          "all", [], []))
    out.append(_layer("host.gemm_gflops", "GFLOP/s", "higher", "all", [],
                      []))
    out.append(_layer("host.copy_gbs", "GB/s", "higher", "all", [], []))
    return out


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    """This spec as ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 32,
        "workloads": WORKLOADS,
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": m["name"], "unit": m["unit"],
                       "better": m["better"]} for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
