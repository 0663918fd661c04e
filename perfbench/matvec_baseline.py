"""Plain single-thread baseline of ReducedKernel.interaction_matvec.

run.py starts this as a child process with every BLAS thread variable set
to 1 (the thread count is fixed before numpy loads, and only here), builds
a kernel at the dichotomy workload's evaluation size and times repeated
matvecs on a smooth density.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/matvec_baseline.py

Prints one JSON line: {"n", "calls", "us_p50"}.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import aggdiff as ag  # noqa: E402

N = 1140  # cells of the dichotomy evolution grid (512-cell solve, 8x padding)
LAM = 0.8  # lam = d - 2s of the benchmark's model
CALLS = 600


def main() -> None:
    grid = ag.RadialGrid(N, 8.0)
    kernel = ag.build_kernel(grid, LAM)
    values = np.exp(-grid.centers**2)
    for _ in range(20):
        kernel.interaction_matvec(values)
    times = []
    for _ in range(CALLS):
        t0 = perf_counter()
        kernel.interaction_matvec(values)
        times.append(perf_counter() - t0)
    print(json.dumps({"n": N, "calls": CALLS, "us_p50": float(np.median(times)) * 1e6}))


if __name__ == "__main__":
    main()
