"""Reference figures for README.md: two sets of runs of every workload.

    python3 bench/reference.py

Each of two sets runs every workload of BENCHMARK.json once per seed
(seeds 0 to 9, then 10 to 19), one run at a time, with the run length
from BENCHMARK.json.  Prints, per workload, each end-to-end
metric's median and spread (interquartile range over median) in each set,
the error rates the runs reported, one traced run per workload against
the untraced median (the tracing overhead), and the ``src/`` line count.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = 10  # runs per workload in a set
SETS = 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), [line for line in lines[:-1] if line.startswith("quality ")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in (w["name"] for w in spec["workloads"]):
        sets, quality = [], {}
        for k in range(SETS):
            runs = []
            for seed in range(k * SEEDS, (k + 1) * SEEDS):
                result, lines = one_run(workload, seed, seconds, 0)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']}")
                runs.append(result)
                for line in lines:
                    _, label, rate = line.split()
                    quality.setdefault(label, []).append(float(rate))
            sets.append(runs)
        print(f"\n### {workload}\n")
        head = " | ".join(f"set {k + 1} median | spread" for k in range(SETS))
        print(f"| metric | unit | bound | {head} |")
        print("|---|---|---|" + "---|---|" * SETS)
        for name, bound in bounds.items():
            cells = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                cells.append(f"{statistics.median(values):.4g} | {spread(values):.3f}")
            unit = sets[0][0]["metrics"][name]["unit"]
            print(f"| {name} | {unit} | {bound} | {' | '.join(cells)} |")
        shares = [r["failed"] / r["attempted"] for runs in sets for r in runs]
        print(f"\nfailed share per run: {sorted(set(shares))}; "
              f"attempted per run: {sorted({r['attempted'] for runs in sets for r in runs})}")
        traced, _ = one_run(workload, 0, seconds, 1)
        untraced = statistics.median(r["metrics"]["wall_s"]["value"] for r in sets[0])
        overhead = traced["metrics"]["bench.wall_s"]["value"] - untraced
        print(f"tracing overhead: traced wall_s {traced['metrics']['bench.wall_s']['value']:.3f} s "
              f"(seed 0) - untraced median {untraced:.3f} s = {overhead:+.3f} s "
              f"({overhead / untraced:+.1%})")
        print("error rates (median over all runs): " + ", ".join(
            f"{label} {statistics.median(v):.4f}" for label, v in sorted(quality.items())))

    src = glob.glob(os.path.join(ROOT, "src", "prodrank", "*.py"))
    lines = 0
    for path in src:
        with open(path, encoding="utf-8") as f:
            lines += sum(1 for _ in f)
    print(f"\nsrc/ line count: {lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
