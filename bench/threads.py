"""Reference figures for the threading decision; not a benchmark workload.

Runs whole passes of the circle and the torus ladder (the two halves of the
`ladders` workload), each on its own, under the default environment,
with OpenBLAS pinned to one thread, and with the cutoff ladder's thread pool
(DIRACLAB_MAX_WORKERS) at 1 and at 2, interleaving the variants in every
repetition, and prints a Markdown table of median pass wall and CPU time.

    python3 bench/threads.py --seed 1 --repeats 3
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

from run import BUILD, Tally, install, run_pass
from workloads import circle_ladder, torus_ladder, write_configs

VARIANTS = {
    "default": {},
    "OPENBLAS_NUM_THREADS=1": {"OPENBLAS_NUM_THREADS": "1"},
    "DIRACLAB_MAX_WORKERS=1": {"DIRACLAB_MAX_WORKERS": "1"},
    "DIRACLAB_MAX_WORKERS=2": {"DIRACLAB_MAX_WORKERS": "2"},
}


def main() -> int:
    parser = argparse.ArgumentParser(description="BLAS and ladder threading reference figures.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sys.dont_write_bytecode = True

    launcher, base_env = install()
    print(f"nproc {os.cpu_count()}, OPENBLAS_NUM_THREADS={base_env.get('OPENBLAS_NUM_THREADS', 'unset')} "
          f"by default, seed {args.seed}, {args.repeats} passes per variant\n")
    print("| ladder | variant | wall_s median | cpu_s median |")
    print("|---|---|---|---|")
    tally = Tally()
    for ladder in (circle_ladder, torus_ladder):
        workload = ladder(args.seed)
        name = workload.name
        work = BUILD / "threads" / f"{name}-seed{args.seed}"
        write_configs(workload, work)
        walls: dict[str, list[float]] = {label: [] for label in VARIANTS}
        cpus: dict[str, list[float]] = {label: [] for label in VARIANTS}
        for _ in range(args.repeats):
            for label, extra in VARIANTS.items():
                samples = run_pass(launcher, {**base_env, **extra}, workload, work, tally, time.monotonic() + 3600.0)
                walls[label].append(sum(s.wall for s in samples))
                cpus[label].append(sum(s.cpu for s in samples))
        for label in VARIANTS:
            print(f"| {name} | {label} | {statistics.median(walls[label]):.2f} | {statistics.median(cpus[label]):.2f} |")
    print(f"\n{tally.attempted} invocations, {tally.failed} failed, reports correct: {tally.correct}")
    return 0 if tally.correct and not tally.failed else 1


if __name__ == "__main__":
    sys.exit(main())
