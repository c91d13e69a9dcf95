"""Benchmark of prodrank: one workload in one process, one JSON line out.

    python3 bench/run.py --workload {study,rank} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run, whose spans are written to ``.bench_out/traces/``.  See README.md.
"""

from __future__ import annotations

import time

# Set-up time counts from the start of the process: the wall clock now,
# less the CPU time the interpreter has spent starting up.  Both clocks
# have sub-microsecond resolution, unlike the process start time in
# /proc, which is kept in 10 ms ticks.
T_START = time.perf_counter() - time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

# BLAS threads: one, so a run's figures do not depend on how many cores
# are free.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("study", "rank"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "prodrank", "__init__.py")):
        print(f"error: no prodrank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    out = os.path.join(ROOT, ".bench_out")
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work = os.path.join(out, "work", tag)
    os.makedirs(work)
    try:
        result, quality = workloads.run(args.workload, args.seed, args.seconds,
                                        bool(args.trace), work,
                                        os.path.join(out, "traces", tag + ".npz"), T_START)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for label, rate in sorted(quality.items()):
        print(f"quality {label} {rate!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
