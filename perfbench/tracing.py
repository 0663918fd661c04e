"""Span recording around the calls into each aggdiff layer.

Spans are recorded from the benchmark's own files: ``Api`` wraps the entry
points a workload calls, and ``Tracer.install`` swaps span wrappers in at
the module-level names the package modules call each other through (and at
two methods on the package's classes).  Nothing in the package changes;
``Tracer.uninstall`` restores every original.

A span is ``[name, start, end, parent, round, value, support]``:
``parent`` is the index of the enclosing span (-1 at the top), ``round``
the workload round it belongs to, and ``value`` a per-call size some layers
record (the grid size of a matvec, the table bytes of a kernel build, the
bytes of a CSV).  ``support`` is kept for matvecs only: the support extent
of the density handed in (index of its last nonzero cell plus one), the
size a matvec that skips empty cells would work on.
Spans stay in memory until ``write_spans`` saves them when the run ends.
"""

from __future__ import annotations

import csv
import dataclasses
import gzip
import os
from time import perf_counter

import numpy as np


def _table_bytes(args, kernel) -> tuple[float, float]:
    return float(kernel.pot.nbytes + kernel.frc.nbytes), 0.0


def _matvec_sizes(args, out) -> tuple[float, float]:
    nonzero = np.flatnonzero(args[1])
    return float(args[0].grid.n), float(nonzero[-1] + 1 if len(nonzero) else 0)


def _csv_bytes(args, out) -> tuple[float, float]:
    return float(os.path.getsize(args[1])), 0.0


# Entry points a workload calls: Api attribute -> span name.
TOP_LEVEL = {
    "solve_extremal": "extremal.solve_extremal",
    "compute_thresholds": "extremal.compute_thresholds",
    "threshold_profile": "extremal.threshold_profile",
    "pad_grid": "field.pad_grid",
    "field_from_function": "field.field_from_function",
    "build_kernel": "riesz.build_kernel",
    "classify": "classify.classify",
    "run": "evolve.run",
    "barrier_check": "classify.barrier_check",
    "trace_to_csv": "evolve.trace_to_csv",
}
_VALUES = {
    "riesz.build_kernel": _table_bytes,
    "riesz.interaction_matvec": _matvec_sizes,
    "evolve.trace_to_csv": _csv_bytes,
}


def _inner_patch_points():
    """(owner, attribute, span name): the names the modules call through."""
    from aggdiff import evolve, extremal, functionals, riesz
    from aggdiff.field import RadialGrid
    from aggdiff.riesz import ReducedKernel

    return [
        (riesz, "build_kernel", "riesz.build_kernel"),
        (extremal, "build_kernel", "riesz.build_kernel"),
        (ReducedKernel, "interaction_matvec", "riesz.interaction_matvec"),
        (functionals, "force", "riesz.force"),
        (RadialGrid, "compatible", "field.compatible"),
        (evolve, "step", "evolve.step"),
        (evolve, "free_energy", "functionals.free_energy"),
        (evolve, "dissipation", "functionals.dissipation"),
        (evolve, "second_moment", "field.second_moment"),
        (evolve, "lp_norm", "field.lp_norm"),
        (extremal, "interaction", "extremal.interaction"),
        (extremal, "el_residual", "extremal.el_residual"),
        (extremal, "rearrange_decreasing", "extremal.rearrange_decreasing"),
    ]


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.round = -1
        self._stack = [-1]
        self._saved: list[tuple] = []

    def wrap(self, name, fn):
        spans, stack, value = self.spans, self._stack, _VALUES.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], self.round, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if value is not None:
                rec[5:] = value(args, out)
            return out

        return traced

    def install(self, round_id: int) -> None:
        self.round = round_id
        for owner, attr, name in _inner_patch_points():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "round", "value",
                          "support"])
            for i, (name, t0, t1, parent, rnd, value, support) in enumerate(self.spans):
                out.writerow([i, name, f"{t0:.9f}", f"{t1:.9f}", parent, rnd, value,
                              support])


class StepCounter:
    """Counts the calls of ``evolve.step`` that ``run`` kept.

    ``run`` keeps a step by feeding its output field to the next call (or
    returning it as the final field); a probe step it throws away (retaken
    to land on t_end, or rejected for a collapsed time step) is never fed
    on.  Installed for the whole run, traced or not: one call and one
    identity test per step, against steps of hundreds of microseconds.
    """

    def __init__(self, step):
        self._step = step
        self.kept = 0
        self._last = None

    def __call__(self, u, *args, **kwargs):
        if u is self._last:
            self.kept += 1
        out = self._step(u, *args, **kwargs)
        self._last = out[0]
        return out

    def finish(self, trace) -> int:
        """Close one run: the steps it kept."""
        if trace.final is self._last:
            self.kept += 1
        kept, self.kept, self._last = self.kept, 0, None
        return kept


class Api:
    """The package entry points a workload calls.

    ``run`` also closes the step counter, returning (trace, steps kept).  With a tracer, each entry point is a span; with
    ``corrupt_kernel`` the kernels a workload builds for itself come back
    with their potential table doubled, the fault the gate test injects.
    """

    def __init__(self, ag, counter: StepCounter, tracer: Tracer | None = None,
                 corrupt_kernel: bool = False):
        for attr, name in TOP_LEVEL.items():
            fn = getattr(ag, attr)
            setattr(self, attr, tracer.wrap(name, fn) if tracer else fn)
        self._run, self._counter = self.run, counter
        self.run = self._counted_run
        if corrupt_kernel:
            build = self.build_kernel
            self.build_kernel = lambda *a, **k: _doubled_potential(build(*a, **k))

    def _counted_run(self, *args, **kwargs):
        trace = self._run(*args, **kwargs)
        return trace, self._counter.finish(trace)


def _doubled_potential(kernel):
    return dataclasses.replace(kernel, pot=2.0 * kernel.pot, frc=kernel.frc.copy())


# ---------------------------------------------------------------------------
# Per-layer metrics

MATVEC_1THREAD = "riesz.interaction_matvec.us_p50_1thread"


def matvec_flops(n: np.ndarray) -> np.ndarray:
    """Computed flops of one interaction_matvec as the package does it at
    the time of writing: two dense n x n products (pot @ v and pot.T @ uv,
    2n^2 each) and five length-n vector ops.  A figure of that dense
    algorithm, not a count of the work a changed matvec does."""
    return 4.0 * n**2 + 5.0 * n


def matvec_bytes(n: np.ndarray, m: np.ndarray | None = None) -> np.ndarray:
    """Computed bytes of one interaction_matvec: the float64 pot table is
    streamed twice, plus eight length-n float64 vectors read or written.
    Cache reuse between the two passes is ignored.

    With ``m`` (the support extent) only the n x m block of ``pot`` that
    touches the support is counted both times: the bytes a matvec that
    skips empty cells cannot avoid.  Without it, the dense full-n figure."""
    m = n if m is None else m
    return 8.0 * (2.0 * n * m + 8.0 * n)


def _pct(x, q) -> float:
    return float(np.percentile(x, q)) if len(x) else 0.0


def round_layer_metrics(tracer: Tracer, round_id: int, wall_s: float,
                        counts: dict) -> dict[str, float]:
    """Per-layer figures of one traced round.

    Self time is a span's duration minus the durations of its direct
    children (spans nest, one thread); ``unattributed_s`` is the round's
    wall time minus the durations of its top-level spans, i.e. the
    benchmark's own glue between calls.  ``counts`` carries what the
    round's results report: the extremal solver's iterations and accepted
    iterations, and the time steps ``run`` kept.
    """
    rows = [(i, s) for i, s in enumerate(tracer.spans) if s[4] == round_id]
    idx = {gi: li for li, (gi, _) in enumerate(rows)}
    names = np.array([s[0] for _, s in rows], dtype=object)
    dur = np.array([s[2] - s[1] for _, s in rows])
    parent = np.array([idx.get(s[3], -1) for _, s in rows], dtype=int)
    value = np.array([s[5] for _, s in rows])
    support = np.array([s[6] for _, s in rows])
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(rows))
    self_t = dur - child

    def pick(name):
        return names == name

    def calls(name):
        return int(np.count_nonzero(pick(name)))

    def total(name, arr=dur):
        return float(arr[pick(name)].sum())

    mv = pick("riesz.interaction_matvec")
    mv_n, mv_m = value[mv], support[mv]
    mv_bytes = float(matvec_bytes(mv_n).sum())
    mv_s = total("riesz.interaction_matvec")
    builds = value[pick("riesz.build_kernel")] / 2**20
    cls_ms = dur[pick("classify.classify")] * 1e3
    record = pick("functionals.free_energy") | pick("functionals.dissipation") \
        | pick("field.second_moment")
    evals = calls("extremal.interaction")
    n_mv, n_step = calls("riesz.interaction_matvec"), calls("evolve.step")
    return {
        "riesz.interaction_matvec.calls": n_mv,
        "riesz.interaction_matvec.s": mv_s,
        "riesz.interaction_matvec.us_p50": _pct(dur[mv], 50) * 1e6,
        "riesz.interaction_matvec.us_p99": _pct(dur[mv], 99) * 1e6,
        "riesz.interaction_matvec.flops_per_call":
            float(matvec_flops(mv_n).mean()) if n_mv else 0.0,
        "riesz.interaction_matvec.bytes_per_call": mv_bytes / n_mv if n_mv else 0.0,
        "riesz.interaction_matvec.bytes_computed": mv_bytes,
        "riesz.interaction_matvec.gbps_computed": mv_bytes / mv_s / 1e9 if mv_s else 0.0,
        "riesz.interaction_matvec.support_frac":
            float((mv_m / mv_n).mean()) if n_mv else 0.0,
        "riesz.interaction_matvec.bytes_support": float(matvec_bytes(mv_n, mv_m).sum()),
        "riesz.build_kernel.calls": calls("riesz.build_kernel"),
        "riesz.build_kernel.s": total("riesz.build_kernel"),
        "riesz.build_kernel.mb_per_call": float(builds.mean()) if len(builds) else 0.0,
        "riesz.kernel_tables_mb": float(builds.max()) if len(builds) else 0.0,
        "riesz.force.calls": calls("riesz.force"),
        "riesz.force.s": total("riesz.force"),
        "functionals.free_energy.calls": calls("functionals.free_energy"),
        "functionals.free_energy.s": total("functionals.free_energy"),
        "functionals.dissipation.calls": calls("functionals.dissipation"),
        "functionals.dissipation.s": total("functionals.dissipation"),
        "evolve.record.calls": calls("functionals.dissipation"),
        "evolve.record.s": float(dur[record].sum()),
        "evolve.steps": int(counts.get("steps_kept", 0)),
        "evolve.step.calls": n_step,
        "evolve.step.useful_frac":
            counts.get("steps_kept", 0) / n_step if n_step else 0.0,
        "evolve.step.self_s": total("evolve.step", self_t),
        "evolve.step.us_p50": _pct(dur[pick("evolve.step")], 50) * 1e6,
        "evolve.step.us_p99": _pct(dur[pick("evolve.step")], 99) * 1e6,
        "evolve.run.s": total("evolve.run"),
        "evolve.run.self_s": total("evolve.run", self_t),
        "evolve.trace_to_csv.s": total("evolve.trace_to_csv"),
        "evolve.trace_to_csv.bytes": float(value[pick("evolve.trace_to_csv")].sum()),
        "field.compatible.calls": calls("field.compatible"),
        "field.compatible.s": total("field.compatible"),
        "field.lp_norm.calls": calls("field.lp_norm"),
        "field.lp_norm.s": total("field.lp_norm"),
        "extremal.solve_extremal.s": total("extremal.solve_extremal"),
        "extremal.solve_extremal.self_s": total("extremal.solve_extremal", self_t),
        "extremal.iterations": int(counts.get("iterations", 0)),
        "extremal.quotient_evals": evals,
        "extremal.accept_ratio": counts.get("accepted", 0) / evals if evals else 0.0,
        "extremal.el_residual.calls": calls("extremal.el_residual"),
        "classify.classify.calls": calls("classify.classify"),
        "classify.classify.s": total("classify.classify"),
        "classify.classify.ms_p50": _pct(cls_ms, 50),
        "classify.classify.ms_p95": _pct(cls_ms, 95),
        "classify.barrier_check.s": total("classify.barrier_check"),
        "unattributed_s": wall_s - float(dur[~has_parent].sum()),
    }
