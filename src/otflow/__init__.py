"""Numerical laboratory for the parabolic optimal-transport flow on smooth
bounded planar domains: cost calculus, boundary-fitted discretization,
explicit time stepping under the second boundary condition, and executable
audits of the structural identities the flow satisfies (mass balance,
boundary alignment, maximum principles, Harnack-type decay monitors, and the
pullback-metric boundary curvature identity)."""

from . import (costs, diagnostics, domains, flow, grid, km_geometry,
               linearized)
from .costs import CostModel, make_cost
from .domains import (CosineBlob, Disk, Ellipse, ProblemSpec, make_density,
                      make_domain, validate_spec)
from .grid import CurvilinearGrid, integrate

__version__ = "0.1.0"
