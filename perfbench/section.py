"""One benchmark section in a process of its own, driven by ``run.py``.

The process sets the section up, prints ``{"ready": ...}`` and then reads
one JSON command per line from standard input, answering each with one
JSON line:

- ``{"op": "slice", "traced": false}`` runs one measured slice;
- ``{"op": "finish"}`` checks the outputs, prints the section's result
  (metrics, checks, peak memory, host fingerprint) and exits.

``run.py`` keeps one such process per section and hands out slices in
turn, so every section samples the whole run while keeping its own
set-up time and peak memory.

    python3 perfbench/section.py --section probe --seed 1 --work DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def _say(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--section", required=True,
                   choices=["train-hep", "serve-climate", "sim-fleet",
                            "probe"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setups", type=int, default=1)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--work", required=True,
                   help="scratch directory inside the checkout")
    args = p.parse_args()

    import host
    if args.section == "probe":
        _say({"probes": host.probes(args.smoke)})
        return 0
    if args.section == "train-hep":
        import train_hep as module
    elif args.section == "serve-climate":
        import serve_climate as module
    else:
        import sim_fleet as module
    section = module.Section(args.seed, args.setups, args.smoke,
                             Path(args.work))
    _say({"ready": args.section})
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] == "slice":
            section.slice(cmd["traced"])
            _say({"done": True})
        elif cmd["op"] == "finish":
            out = section.finish(cmd.get("probes"))
            # ru_maxrss is in KiB on Linux
            out["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out["host"] = host.fingerprint()
            _say(out)
            return 0
        else:
            raise ValueError(f"unknown command {cmd!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
