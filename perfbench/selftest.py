"""Tests of the benchmark's own gates.

    python3 perfbench/selftest.py

1. A kernel whose potential table is doubled (``run.py --corrupt-kernel``,
   the fault ``selftest.corrupt_kernel`` injects into the CLI battery)
   must be caught on every workload: ``failed > 0``, ``correct`` false and
   a non-zero exit.
2. A held-out seed, never used to tune the benchmark, passes every check
   on every workload: exit 0, ``correct`` true, ``failed`` 0.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/`` (no
   package to measure) the benchmark exits non-zero and prints no result.

Each run is one round (``--seconds 1``); the whole test takes a few
minutes.  Exits 0 when every gate holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, OUT, ROOT, WORKLOAD_NAMES

RUN = ["perfbench/run.py", "--seed", "0", "--seconds", "1", "--trace", "0"]
HELD_OUT_SEED = 7919


def _run(args: list[str], cwd: Path) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    problems = []
    for name in WORKLOAD_NAMES:
        code, res = _run([*RUN, "--workload", name, "--corrupt-kernel"], ROOT)
        caught = code != 0 and res is not None and res["failed"] > 0 and not res["correct"]
        print(f"corrupted kernel, {name}: exit {code}, "
              f"failed {res and res['failed']} of {res and res['attempted']}", flush=True)
        if not caught:
            problems.append(f"corrupted kernel not caught on {name}")

        args = [*RUN, "--workload", name]
        args[args.index("--seed") + 1] = str(HELD_OUT_SEED)
        code, res = _run(args, ROOT)
        print(f"held-out seed {HELD_OUT_SEED}, {name}: exit {code}, "
              f"failed {res and res['failed']} of {res and res['attempted']}", flush=True)
        if code != 0 or res is None or res["failed"] or not res["correct"]:
            problems.append(f"held-out seed fails on {name}")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, res = _run([*RUN, "--workload", "dichotomy"], Path(bare))
    print(f"bare directory: exit {code}, result printed: {res is not None}")
    if code == 0 or res is not None:
        problems.append("benchmark did not fail without the package")

    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
