"""The repository benchmark: training, real serving and the simulator.

    python3 perfbench/run.py --workload train-hep --seed 1 --seconds 20 \\
        --trace 0

Each section (train-hep, serve-climate, sim-fleet) runs in a process of
its own. The processes are set up one after another, then take turns
running one slice each, for as many turns as fit in ``--seconds`` on a
2-core host (and at least ``MIN_CYCLES``, so the open loop has 900
requests or more). The host's speed drifts by up to 2x over tens of seconds;
taking turns makes every section sample the whole run instead of one
stretch of it, and each timed sample is divided by a host speed factor
measured next to it (``common.host_factor``). Every
end-to-end metric is reported on every workload; the section the
workload names is set up several times, and ``setup_s`` is the median of
those set-ups and ``peak_rss_mb`` the peak of its process.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first probes
the host roof in a process of its own, runs the untraced turns, then the
same number of traced turns, and prints the per-layer metrics, each
section's tracing overhead and the check that both passes gave the same
outputs. Spans are written to ``.bench_build/perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds provenance (host fingerprint, source digest) and every metric's
sample count, median and quartiles. The exit code is 0 only when every
correctness check passed. ``--smoke`` runs everything at a tiny size.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import (END_TO_END, PER_LAYER, REPORTED, SECTIONS,  # noqa: E402
                  WORKLOADS)

#: one section process runs at a time, with two BLAS threads: the host's
#: two cores
THREADS = 2
SETUP_REPEATS = 3
#: one turn of all three sections takes about this long on a 2-core
#: host; --seconds sets the number of turns through it, so the counts a
#: run reports repeat exactly
TURN_S = 4.5
#: at least this many turns, so the open loop has 900 requests or more
MIN_CYCLES = 6
SMOKE_CYCLES = 2
TIMEOUT = 170.0


class _Child:
    """A section process answering one JSON line per command."""

    def __init__(self, args, deadline: float) -> None:
        env = dict(os.environ)
        env.update({"OPENBLAS_NUM_THREADS": str(THREADS),
                    "OMP_NUM_THREADS": str(THREADS)})
        self.cmd = [sys.executable, str(HERE / "section.py"),
                    *map(str, args)]
        self.deadline = deadline
        self.proc = subprocess.Popen(self.cmd, cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def ask(self, command=None) -> dict:
        if command is not None:
            self.proc.stdin.write(json.dumps(command) + "\n")
            self.proc.stdin.flush()
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, remaining))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"{' '.join(self.cmd)} gave no answer "
                               f"(exit code {self.proc.poll()})")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _measure(args, work: Path) -> tuple:
    """Set up, take turns, finish; returns (probes, results, cycles)."""
    deadline = time.monotonic() + TIMEOUT
    common = ["--seed", args.seed, "--work", work]
    if args.smoke:
        common.append("--smoke")
    children = []
    try:
        probes = None
        if args.trace:
            children.append(_Child(["--section", "probe", *common],
                                   deadline))
            probes = children[-1].ask()["probes"]
        sections = {}
        for name in SECTIONS:
            setups = SETUP_REPEATS if name == args.workload else 1
            child = _Child(["--section", name, "--setups", setups,
                            *common], deadline)
            children.append(child)
            child.ask()
            sections[name] = child
        cycles = SMOKE_CYCLES if args.smoke else max(
            MIN_CYCLES, round(args.seconds / TURN_S))
        for _ in range(cycles):
            for child in sections.values():
                child.ask({"op": "slice", "traced": False})
        if args.trace:
            for _ in range(cycles):
                for child in sections.values():
                    child.ask({"op": "slice", "traced": True})
        results = {name: child.ask({"op": "finish", "probes": probes})
                   for name, child in sections.items()}
    finally:
        for child in children:
            child.close()
    return probes, results, cycles


def main() -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in WORKLOADS])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes: every section, check and trace in "
                        "seconds")
    args = p.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    probes, results, cycles = _measure(args, work)

    own = results[args.workload]
    detail = {}
    for res in results.values():
        detail.update(res["e2e"])
    detail["setup_s"] = own["e2e"]["setup_s"]
    detail["peak_rss_mb"] = {"value": own["peak_rss_mb"], "unit": "MiB",
                             "n": 1}
    checks = {k: v for res in results.values()
              for k, v in res["checks"].items()}
    correct = all(checks.values())
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    detail["failed_ratio"] = {"value": failed / attempted, "n": attempted}
    reported = {n: detail[n]["value"] for n, _, _ in REPORTED}
    if args.trace:
        detail = {}
        for res in results.values():
            detail.update(res["layers"])
        detail["host.gemm_gflops"] = {"value": probes["gemm_gflops"],
                                      "n": 1}
        detail["host.copy_gbs"] = {"value": probes["copy_gbs"], "n": 1}
        names = [(m["name"], m["unit"]) for m in PER_LAYER]
    else:
        names = [(n, u) for n, u, _, _ in END_TO_END]
    missing = [n for n, _ in names if n not in detail]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {n: {"value": detail[n]["value"], "unit": u}
               for n, u in names}

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "cycles": cycles, "git_sha": _git_sha(),
        "src_digest": _src_digest(), "host": own["host"],
        "threads": THREADS, "probes": probes, "checks": checks,
        "reported": reported,
        "sections": {s: {"info": r["info"], "peak_rss_mb": r["peak_rss_mb"],
                         "setup_s": r["e2e"]["setup_s"]["value"]}
                     for s, r in results.items()},
        "spread": {n: {k: detail[n].get(k) for k in
                       ("n", "median", "q1", "q3", "raw")} for n, _ in names},
    }
    moves = {m["name"]: m for m in PER_LAYER} if args.trace else {}
    for n, u in names:
        line = f"{n:34s} {metrics[n]['value']:>14.6g} {u}"
        if n in moves and moves[n]["moves"]:
            m = moves[n]
            line += f"  -> {', '.join(m['moves'])}"
            if m["zero"]:
                line += f"; no change in {', '.join(m['zero'])}"
        print(line)
    if not args.trace:
        for n, u, _ in REPORTED:
            print(f"{n:34s} {reported[n]:>14.6g} {u}  (reported, no bound)")
    print(json.dumps(provenance))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
