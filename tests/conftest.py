"""Shared fixtures: problem setups and cached reference runs.

The runs here are sized for the unit tests (coarse grids, short horizons);
the acceptance module builds its own full-size runs.
"""

import numpy as np
import pytest

from otflow import costs, domains, flow, grid
from otflow.config import load_scenario


@pytest.fixture
def rng():
    """A fresh generator per test, so each test draws the same points
    whether it runs alone, in a subset or in the full suite."""
    return np.random.default_rng(20240817)


@pytest.fixture
def quarter_turned_beta(monkeypatch):
    """``CostModel.oblique_beta`` turned a quarter turn, for this test
    only: on a disk's boundary ring the true beta is normal, so the turned
    one is tangent there and beta . nu is roundoff."""
    oblique_beta = costs.CostModel.oblique_beta

    def turned(self, *args, **kwargs):
        beta = oblique_beta(self, *args, **kwargs)
        return np.stack([-beta[..., 1], beta[..., 0]], axis=-1)

    monkeypatch.setattr(costs.CostModel, "oblique_beta", turned)


@pytest.fixture(scope="session")
def disk_pair_spec():
    """disk(1) -> disk(2), inner product, uniform densities (stationary)."""
    src = domains.Disk(1.0)
    tgt = domains.Disk(2.0)
    cost = costs.make_cost("inner_product")
    return domains.ProblemSpec(src, tgt, cost,
                               domains.uniform_density(src),
                               domains.uniform_density(tgt))


@pytest.fixture(scope="session")
def perturbed_spec():
    """disk(1) -> disk(2) with the cosine-modulated target density."""
    src = domains.Disk(1.0)
    tgt = domains.Disk(2.0)
    cost = costs.make_cost("inner_product")
    return domains.ProblemSpec(src, tgt, cost,
                               domains.uniform_density(src),
                               domains.cosine_bump_density(tgt, eps=0.1, k=1))


@pytest.fixture(scope="session")
def sqrt_pair_spec():
    """Offset equal disks under the sqrt(1 + |x-y|^2) cost."""
    src = domains.Disk(0.5, (0.0, 0.0))
    tgt = domains.Disk(0.5, (1.2, 0.0))
    cost = costs.make_cost("sqrt_one_plus_sq_dist")
    return domains.ProblemSpec(src, tgt, cost,
                               domains.uniform_density(src),
                               domains.uniform_density(tgt))


@pytest.fixture(scope="session")
def grid32(disk_pair_spec):
    return grid.CurvilinearGrid(disk_pair_spec.source, 32, 64)


@pytest.fixture(scope="session")
def stationary_state(disk_pair_spec, grid32):
    u0 = flow.initial_linear_scaling(disk_pair_spec, grid32)
    return flow.initialize(disk_pair_spec, grid32, u0)


@pytest.fixture(scope="session")
def ref_run_small(perturbed_spec):
    """Perturbed run at 24x48 with a fine snapshot cadence, horizon 3."""
    g = grid.CurvilinearGrid(perturbed_spec.source, 24, 48)
    u0 = flow.initial_linear_scaling(perturbed_spec, g)
    sched = flow.Schedule(stop_tol=1e-15, t_max=3.0, snapshot_dt=0.05)
    return flow.run_to_convergence(perturbed_spec, g, u0, sched)


@pytest.fixture(scope="session")
def ref_run_32(perturbed_spec):
    """Perturbed run at 32x64 on the scenario cadence, horizon 6."""
    g = grid.CurvilinearGrid(perturbed_spec.source, 32, 64)
    u0 = flow.initial_linear_scaling(perturbed_spec, g)
    sched = flow.Schedule(stop_tol=1e-15, t_max=6.0, snapshot_dt=0.125)
    return flow.run_to_convergence(perturbed_spec, g, u0, sched)


@pytest.fixture(scope="session")
def sqrt_state_48(sqrt_pair_spec):
    g = grid.CurvilinearGrid(sqrt_pair_spec.source, 48, 96)
    u0 = flow.initial_antipodal_reflection(sqrt_pair_spec, g)
    return flow.initialize(sqrt_pair_spec, g, u0)


@pytest.fixture(scope="session")
def sqrt_run_16():
    """The bundled ``offset_disks_sqrt`` scenario run at 16x32: a cost whose
    mixed thirds do not vanish."""
    cfg = load_scenario("offset_disks_sqrt").with_overrides(grid=(16, 32))
    spec, g = cfg.build_problem()
    return flow.run_to_convergence(spec, g, cfg.build_initial(spec, g),
                                   cfg.build_schedule())


@pytest.fixture(scope="session")
def bundled_perturbed_config():
    return load_scenario("disk_cosine_perturbed")
