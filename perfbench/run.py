"""dualvit benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; it imports the package from ``src/``. Each
workload runs in a fresh child process (``workload.py``) with BLAS pinned to
one thread through the environment, so the pin holds before numpy loads.
With ``--trace 0`` the child's set-up is repeated in set-up-only children,
at least 3 times in all and more while they add up to under 2 s, and
``setup_s`` is the median. With ``--trace 1`` one
child reports the per-layer metrics instead.

Metric names and units come from ``BENCHMARK.json``. Human-readable lines come
first; the last line of standard output is one JSON object per the last
workload run. The exit code is 0 when every operation and correctness gate
passed, 1 when one failed, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPEATS = (3, 9)  # at least, at most; more while under SETUP_BUDGET_S in total
SETUP_BUDGET_S = 2.0
CHILD_TIMEOUT_S = 170.0
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PERFBENCH_T0"] = repr(time.monotonic())
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "workload.py"), *args],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--work", work]
    try:
        result = run_child(base + ["--trace", str(int(trace))], deadline)
        setups = [result["setup_s"]]
        least, most = SETUP_REPEATS
        while not trace and len(setups) < most and (
                len(setups) < least or sum(setups) < SETUP_BUDGET_S):
            setups.append(run_child(base + ["--setup-only"], deadline)["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if "refused" in result:
        raise BenchError(f"refusing to report: {result['refused']}")
    result["setup_samples"] = setups
    return result


def end_to_end(result: dict) -> tuple[dict, list[str]]:
    lat = result["latencies"]
    pct, tail_s, n = stats.tail(lat)
    values = {
        "setup_s": stats.median(result["setup_samples"]),
        "img_per_s": result["batch"] * len(lat) / sum(lat),
        "op_ms_p50": stats.median(lat) * 1e3,
        "op_ms_tail": tail_s * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{v:.3f}" for v in result["setup_samples"]),
        "op_ms_tail": f"p{pct:.1f} of {n} samples, {stats.TAIL_BEYOND} beyond it",
        "img_per_s": f"{len(lat)} operations of batch {result['batch']} in {sum(lat):.2f} s",
    }
    return values, [f"{k}: {v}" for k, v in notes.items()]


def report(name: str, result: dict, spec: dict, trace: bool) -> dict:
    print(f"== {name} seed {result['seed']}")
    env = result["env"]
    print("   env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    if trace:
        reported = result["layers"]
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(result)
        wanted = spec["end_to_end"]
        reported = {k: {"value": v} for k, v in values.items()}
    metrics = {}
    for m in wanted:
        if m["name"] not in reported:
            raise BenchError(f"{name}: metric {m['name']} was not measured")
        value = reported[m["name"]]["value"]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"   {m['name']:<36} {value:>14.6g} {m['unit']}")
    if not trace:
        print(f"   {'failed_frac':<36} {result['failed'] / result['attempted']:>14.6g} "
              f"ratio ({result['failed']}/{result['attempted']})")
        for note in notes:
            print(f"   note {note}")
    else:
        print(f"   {result['spans']} spans recorded")
    correct = result["failed"] == 0  # failed operations and failed gates
    for gate, (ok, detail) in result["gates"].items():
        print(f"   gate {gate}: {'ok' if ok else 'FAILED'} ({detail})")
    line = {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    print(json.dumps(line), flush=True)
    return line


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="dualvit benchmark")
    p.add_argument("--workload", default="all",
                   help="a workload named in BENCHMARK.json, or 'all' (default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None,
                   help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dualvit", "__init__.py")):
        print(f"error: no dualvit package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        workloads = [w["name"] for w in spec["workloads"]]
        if args.workload not in workloads + ["all"]:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {workloads}")
        names = workloads if args.workload == "all" else [args.workload]
        ok = True
        for name in names:
            result = run_workload(name, args.seed, seconds, bool(args.trace))
            ok &= report(name, result, spec, bool(args.trace))["correct"]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
