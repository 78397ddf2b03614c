"""Run-to-run spread of the end-to-end metrics.

Usage, from the repository root:

    python3 bench/spread.py --workload batch --seeds 1-10 [--trace 0|1]

Runs the benchmark once per seed, one run at a time, then prints for every
metric the median of the runs and the distance between their first and third
quartiles as a share of that median. Each spread is compared with a third of
the metric's bound in BENCHMARK.json. Exits non-zero if a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from sfbench.stats import relative_spread  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
    print(f"{args.workload}: {len(next(iter(values.values())))} runs")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2 or med == 0:
            print(f"  {name:32s} median {med:.6g}")
            continue
        spread = relative_spread(vals)
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else f"  OVER a third of bound {bound}")
        print(f"  {name:32s} median {med:.6g}  spread {spread:.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
