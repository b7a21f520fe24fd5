"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 perfbench/spread.py --workload s224-infer --seeds 1 2 3 4 5

Runs ``run.py`` once per seed and prints, for each end-to-end metric, the
median and the distance between the first and third quartile of the values
as a share of their median, next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + "  ".join(f"{k} {v:.4g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values[k].append(v)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = stats.quartile_spread(vals) if len(vals) > 1 else float("nan")
        print(f"{m['name']:<14} median {stats.median(vals):>12.5g}  spread {spread:7.4f}"
              f"  bound {m['bound']}  (a third: {m['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
