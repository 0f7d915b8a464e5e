"""The benchmark's own tests: run every workload at smoke size, traced and
untraced, and check the result format.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from spec import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json  # noqa
from tracing import Recorder  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace),
           "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == benchmark_json()
    assert on_disk["workloads"] == WORKLOADS
    assert any(m["name"] == "setup_s" for m in on_disk["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in WORKLOADS])
def test_traced_smoke_run(workload):
    out = _run(workload, 1)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in PER_LAYER]
    provenance = json.loads(lines[-2])
    assert all(provenance["checks"].values())
    assert "train.traced_losses_bitwise_equal" in provenance["checks"]
    assert "sim.traced_stats_bitwise_equal" in provenance["checks"]
    assert provenance["probes"]["copy_array_mib"] > 0
    assert (ROOT / ".bench_build" / "perfbench"
            / "spans-train-hep.jsonl").is_file()


def test_untraced_smoke_run_prints_end_to_end_metrics():
    out = _run("train-hep", 0)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert list(metrics) == [n for n, _, _, _ in END_TO_END]
    for name, unit, _, _ in END_TO_END:
        assert metrics[name]["unit"] == unit
        assert metrics[name]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("train-hep", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_self_time_subtracts_children():
    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    outer, a, b = rec.spans
    self_t = rec.self_times()
    assert self_t[0] == pytest.approx(
        (outer[2] - outer[1]) - (a[2] - a[1]) - (b[2] - b[1]))
    assert a[3] == 0 and b[3] == 0 and outer[3] == -1


def test_wrap_restores_instance_and_module_attributes():
    import types

    class Thing:
        def f(self):
            return 1

    thing = Thing()
    module = types.ModuleType("m")
    module.g = lambda: 2
    original_g = module.g
    rec = Recorder()
    rec.wrap(thing, "f", "thing.f")
    rec.wrap(module, "g", "m.g")
    assert thing.f() == 1 and module.g() == 2
    assert rec.count("thing.f") == 1 and rec.count("m.g") == 1
    rec.restore()
    assert "f" not in vars(thing) and module.g is original_g
