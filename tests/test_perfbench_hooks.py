"""The package names the benchmark's tracer patches or reads.

perfbench/tracing.py swaps span wrappers in at module-level names and
copies kernel fields by name; a rename in the package must fail here, not
only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

import aggdiff as ag
from aggdiff import RadialGrid, SimConfig, build_kernel, field_from_function, run

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name(exps):
    tracing = load_tracing()
    points = tracing._inner_patch_points()
    originals = [owner.__dict__[attr] for owner, attr, _ in points]
    grid = RadialGrid(64, 4.0)
    kernel = build_kernel(grid, exps.lam)
    u0 = field_from_function(grid, lambda r: np.maximum(1.0 - r**2, 0.0))
    tracer = tracing.Tracer()
    try:
        tracer.install(0)
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr, _), original in zip(points, originals))
        run(u0, SimConfig(t_end=0.01, record_every=2), kernel, exps)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original
               for (owner, attr, _), original in zip(points, originals))
    # the run reached each layer through the patched names
    recorded = {span[0] for span in tracer.spans}
    assert {"evolve.step", "riesz.interaction_matvec", "functionals.free_energy",
            "functionals.dissipation", "field.lp_norm"} <= recorded


def test_doubled_potential_fault(exps):
    kernel = build_kernel(RadialGrid(64, 4.0), exps.lam)
    doubled = load_tracing()._doubled_potential(kernel)
    np.testing.assert_array_equal(doubled.pot, 2.0 * kernel.pot)
    np.testing.assert_array_equal(doubled.sym, 2.0 * kernel.sym)


def test_table_bytes_fills_full_tables(exps):
    # the tracer's build_kernel span reads pot and frc of a kernel that has
    # filled neither yet
    n = 100
    kernel = build_kernel(RadialGrid(n, 4.0), exps.lam)
    assert load_tracing()._table_bytes((), kernel) == (8.0 * (n * n + (n + 1) * n), 0.0)


def test_corrupt_kernel_reaches_operator_block(exps):
    # the gate's doubled kernel, read through a 64-cell operator block of an
    # n = 300 grid: the block must come from the doubled pot
    tracing = load_tracing()
    grid = RadialGrid(300, 4.0)
    doubled = tracing.Api(ag, tracing.StepCounter(ag.evolve.step),
                          corrupt_kernel=True).build_kernel(grid, exps.lam)
    kernel = build_kernel(grid, exps.lam)
    u = np.zeros(grid.n)
    u[:40] = np.linspace(1.0, 0.1, 40)
    part = doubled.interaction_matvec(u, rows=40)
    assert doubled.__dict__["_block"].shape == (64, 64)
    np.testing.assert_array_equal(part, 2.0 * kernel.interaction_matvec(u, rows=40))
