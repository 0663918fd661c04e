"""Run one aggdiff benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dichotomy --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run from anywhere inside a checkout: the package is imported from the
checkout's own ``src/``, never from an installed copy.  A run makes its
inputs once from ``--seed``, warms up with a short untimed version of the
workload, then repeats the whole workload (set-up, then its timed
operations) in rounds until ``--seconds`` have passed since the warm-up
began, and reports medians over the rounds.  It checks every operation's
output; a failed or raising operation is counted in ``failed`` and makes
the exit code 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and span-traced rounds and prints the per-layer metrics, the
tracing overhead and a single-BLAS-thread matvec baseline.  ``--workload
all`` runs the three workloads one after another, each in its own child
process so that no workload's peak memory carries into the next.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report with provenance and result checksums.  Everything a run
writes goes under ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("dichotomy", "energy_budget", "classify_batch")
MIN_SETUPS = 3  # set-up samples behind the setup_s median ...
SETUP_TOTAL_S = 2.0  # ... and cheap set-ups are repeated until they add up to this
MAX_SETUPS = 40
CLASSIFY_MIN_SAMPLES = 200  # p95 needs at least 10 samples above it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Round:
    rid: int
    traced: bool
    setup_s: float
    wall_s: float
    run_s: float
    classify_s: list
    checks: list
    sums: dict
    counts: dict


def one_round(wl, inputs, api, tracer, rid: int) -> Round:
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if tracer:
            tracer.install(rid)
        try:
            t0 = perf_counter()
            state = wl.setup(api, inputs)
            t1 = perf_counter()
            timed = wl.operate(api, state, inputs, tmp)
            t2 = perf_counter()
        finally:
            if tracer:
                tracer.uninstall()
        checks, sums, counts = wl.verify(state, timed, inputs)
    return Round(rid, tracer is not None, t1 - t0, t2 - t0, timed.run_s,
                 timed.classify_s, checks, sums, counts)


def matvec_1thread_us() -> float:
    """Median matvec time at the dichotomy grid size, one BLAS thread."""
    env = {**os.environ, **{var: "1" for var in BLAS_THREAD_VARS}}
    proc = subprocess.run([sys.executable, str(HERE / "matvec_baseline.py")],
                          capture_output=True, text=True, env=env, timeout=170, check=True)
    return float(json.loads(proc.stdout.splitlines()[-1])["us_p50"])


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in the
    order BENCHMARK.json lists them: the one catalogue of metric names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _report(values: dict, kind: str) -> dict:
    units = metric_units(kind)
    if set(values) != set(units):
        raise KeyError(f"measured {kind} metrics differ from BENCHMARK.json: "
                       f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(args) -> int:
    import aggdiff as ag
    from aggdiff import evolve
    from provenance import provenance
    from tracing import MATVEC_1THREAD, Api, StepCounter, Tracer, round_layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    counter = StepCounter(evolve.step)
    evolve.step = counter
    tracer = Tracer() if args.trace else None
    plain = Api(ag, counter, corrupt_kernel=args.corrupt_kernel)
    traced = Api(ag, counter, tracer, args.corrupt_kernel) if tracer else None
    OUT.mkdir(exist_ok=True)

    rounds: list[Round] = []
    crashed = False
    start = perf_counter()
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            wl.warmup(plain, inputs, tmp)
    except Exception:
        traceback.print_exc()
        crashed = True
    while not crashed:
        use_trace = tracer is not None and len(rounds) % 2 == 1
        round_start = perf_counter()
        try:
            rounds.append(one_round(wl, inputs, traced if use_trace else plain,
                                    tracer if use_trace else None, len(rounds)))
        except Exception:  # the run must report the failure, not die silently
            traceback.print_exc()
            crashed = True
            break
        # Stop once another round would end further past the deadline than
        # short of it: a run lasts --seconds to within half a round, and
        # the round count does not flip with small speed changes.
        now = perf_counter()
        late = now + 0.5 * (now - round_start) >= start + args.seconds
        if late and (tracer is None or len(rounds) >= 2):
            break

    untraced = [r for r in rounds if not r.traced]
    setups = [r.setup_s for r in untraced]
    while tracer is None and not crashed and len(setups) < MAX_SETUPS and (
            len(setups) < MIN_SETUPS or sum(setups) < SETUP_TOTAL_S):
        t0 = perf_counter()
        wl.setup(plain, inputs)
        setups.append(perf_counter() - t0)

    checks = [c for r in rounds for c in r.checks]
    failures = [f"{op}: {why}" for op, ok, why in checks if not ok]
    attempted = len(checks) + crashed
    failed = len(failures) + crashed

    metrics, report = {}, []
    if tracer is None and untraced:
        values = {
            "wall_s": median(r.wall_s for r in untraced),
            "setup_s": median(setups),
            "run_s": median(r.run_s for r in untraced),
            "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        counts = {"wall_s": f"median of {len(untraced)} rounds after warm-up",
                  "setup_s": f"median of {len(setups)} set-ups",
                  "run_s": f"median of {len(untraced)} rounds",
                  "peak_mem_mb": "peak RSS of this process, which ran this workload only"}
        metrics = _report(values, "end_to_end")
        for name, m in metrics.items():
            report.append(f"  {name:<18} {m['value']:12.6f} {m['unit']:<3} {counts[name]}")
        lat = np.array([x for r in untraced for x in r.classify_s]) * 1e3
        for q in (50, 95):
            name = f"classify_ms_p{q}"
            if len(lat) >= CLASSIFY_MIN_SAMPLES:
                report.append(f"  {name:<18} {np.percentile(lat, q):12.6f} ms  "
                              f"over {len(lat)} classify calls")
            else:
                report.append(f"  {name:<18} {'n/a':>12}     only {len(lat)} classify calls")
    elif tracer is not None and len(rounds) >= 2:
        tr_rounds = [r for r in rounds if r.traced]
        per_round = [round_layer_metrics(tracer, r.rid, r.wall_s, r.counts) for r in tr_rounds]
        values = {k: median(p[k] for p in per_round) for k in per_round[0]}
        plain_wall = median(r.wall_s for r in untraced)
        values["trace_overhead_frac"] = (median(r.wall_s for r in tr_rounds) - plain_wall) / plain_wall
        values[MATVEC_1THREAD] = matvec_1thread_us()
        metrics = _report(values, "per_layer")
        for name, m in metrics.items():
            report.append(f"  {name:<44} {_fmt(m['value']):>14} {m['unit']}")
        report.append(f"  ({len(tr_rounds)} traced and {len(untraced)} untraced rounds; "
                      f"{len(tracer.spans)} spans)")
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")

    prov = provenance(ROOT, args.seed, wl.sizes(inputs))
    sums = rounds[0].sums if rounds else {}
    repeat = all(json.dumps(r.sums) == json.dumps(sums) for r in rounds)
    print(f"== {args.workload}  seed {args.seed}  {args.seconds} s  trace {args.trace}: "
          f"{len(rounds)} rounds in {perf_counter() - start:.1f} s")
    print("provenance " + json.dumps(prov))
    print("checksums " + json.dumps(sums) + f"  (identical in every round: {repeat})")
    print("\n".join(report))
    print(f"  ops_failed_frac    {failed / attempted if attempted else 1.0:12.6f}     "
          f"{failed} of {attempted} checked operations")
    for line in failures[:10]:
        print(f"  FAILED {line}")

    correct = failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    record = {**result, "provenance": prov, "checksums": sums, "checksums_repeat": repeat,
              "rounds": [{"traced": r.traced, "setup_s": r.setup_s, "wall_s": r.wall_s,
                          "run_s": r.run_s} for r in rounds],
              "setup_samples_s": setups, "failures": failures}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a child process; the combined result keys metrics
    as ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.corrupt_kernel:
            cmd.append("--corrupt-kernel")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        status = status or proc.returncode or (0 if res["correct"] else 1)
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-kernel", action="store_true",
                    help="double every evaluation kernel's potential table (gate test)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "aggdiff" / "__init__.py").is_file():
        print(f"perfbench: no aggdiff package under {SRC}; run inside a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
