# %% [markdown]
# # The pullback metric and the boundary curvature identity
#
# The product space carries the split pseudo-metric built from the cross
# Hessian of the cost; pulling it back along x -> (x, T(x)) gives a Riemannian
# metric on the source whose coefficients are exactly the flow's matrix W.
# The second fundamental form of the source boundary in that metric splits
# into Euclidean curvatures of the two gradient-coordinate images of the
# boundaries:
#
#   2 |beta|_w II^w(tau, tau) = |DT beta| II_src-image + |beta| II_tgt-image
#
# Both sides are computable independently, which makes the identity a sharp
# end-to-end test of the whole geometric stack.

# %%
import numpy as np

from otflow import domains, flow, grid, km_geometry as km
from otflow.costs import make_cost

cost = make_cost("sqrt_one_plus_sq_dist")
src = domains.Disk(0.5)
tgt = domains.Disk(0.5, (1.2, 0.0))
spec = domains.ProblemSpec(src, tgt, cost, domains.uniform_density(src),
                           domains.uniform_density(tgt))

# %%
# the identity at a few boundary nodes, and under refinement
for n in (32, 64, 128):
    g = grid.CurvilinearGrid(src, n, 2 * n)
    state = flow.initialize(spec, g, flow.initial_antipodal_reflection(spec, g))
    rep = km.verify_II_identity(
        state, np.linspace(0, 2 * n, 8, endpoint=False).astype(int))
    print(f"{n}x{2 * n}: worst relative identity error {rep.rel_error.max():.2e}")
r = rep.at(0)
print("sample node:", {"lhs": round(r.lhs, 5), "rhs": round(r.rhs, 5),
                       "source-image term": round(r.term_source_image, 5),
                       "target-image term": round(r.term_target_image, 5)})

# %%
# the two second-fundamental-form evaluators (intrinsic Christoffel route vs
# the ambient connection of the split metric) agree independently
ii = km.verify_II_identity(state, np.array([3]))
print("II intrinsic:", ii.ii_intrinsic[0], " ambient:", ii.ii_ambient[0])

# %%
# the pullback coefficients coincide with the flow's W
pm = km.pullback_metric(state)
print("max |pullback - W| (interior):", np.abs(pm.w - state.W)[:-1].max())

# %%
# the same metric drives the weighted Laplacian that the linearized flow is
v = np.sin(2 * g.nodes[..., 0]) * np.exp(0.5 * g.nodes[..., 1])
res = km.verify_weighted_laplacian_identity(state, v, v, 1.0)
mask = np.broadcast_to(((g.r > 0.1) & (g.r < 0.9))[:, None], res.shape)
print("weighted-Laplacian identity residual (interior):",
      np.abs(res[mask]).max())
