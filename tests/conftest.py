import pytest

import aggdiff as ag

# Default laboratory parameters used across the suite.
D, S, M = 3, 1.1, 1.2


@pytest.fixture(scope="session")
def exps():
    return ag.derive_exponents(ag.ModelParams(D, S, M))


@pytest.fixture(scope="session")
def profile_n512(exps):
    """Converged maximizer on the coarse grid (fast; reused widely)."""
    return ag.solve_extremal(exps, ag.RadialGrid(512, 4.0))


@pytest.fixture(scope="session")
def profile_n1024(exps):
    return ag.solve_extremal(exps, ag.RadialGrid(1024, 4.0))


@pytest.fixture(scope="session")
def profile_n2048(exps):
    return ag.solve_extremal(exps, ag.RadialGrid(2048, 4.0))


@pytest.fixture(scope="session")
def thresholds_n512(exps, profile_n512):
    return ag.compute_thresholds(profile_n512, exps)


@pytest.fixture(scope="session")
def wt_padded(exps, profile_n512):
    """Threshold-scaled profile padded to an evolution-ready domain (8x its
    support), with its kernel.  The padding keeps the invariant product at
    x_star exactly."""
    wt = ag.threshold_field(profile_n512, exps)
    kernel = ag.build_kernel(wt.grid, exps.lam)
    return wt, kernel
