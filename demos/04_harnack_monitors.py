# %% [markdown]
# # Harnack structure of the linearized flow
#
# The rate field theta = du/dt solves the linearization of the flow with the
# oblique boundary condition, so the gap Theta(x, t) = sup theta(., 0) -
# theta(x, t) is a nonnegative solution. Its Li-Yau quantity
# F = t (w^{ij} f_i f_j - alpha df/dt), f = log Theta, stays bounded along the
# run, the boundary derivative of F along beta is nonpositive (the sign that
# drives the boundary maximum-principle argument), and the sup/inf ratio of
# the gap one time unit apart is a finite Harnack constant whose contraction
# factor reproduces the observed exponential decay.

# %%
import numpy as np

from otflow import diagnostics, domains, flow, grid, linearized
from otflow.costs import make_cost

src = domains.Disk(1.0)
tgt = domains.Disk(2.0)
spec = domains.ProblemSpec(src, tgt, make_cost("inner_product"),
                           domains.uniform_density(src),
                           domains.cosine_bump_density(tgt, eps=0.1, k=1))
g = grid.CurvilinearGrid(src, 32, 64)
sched = flow.Schedule(stop_tol=1e-15, t_max=8.0, snapshot_dt=0.125)
traj = flow.run_to_convergence(spec, g, flow.initial_linear_scaling(spec, g),
                               sched)

# %%
series = linearized.theta_special(traj, k=1)
print("gap solution: min =", series.gap.min(), " (nonnegative)")
print("F(., 0) =", np.abs(series.F[0]).max(), " (zero by the time factor)")
fmax = series.F_max_series()
good = np.isfinite(fmax) & (series.times > 0)
print("max_t max_x F =", np.nanmax(fmax[good]))

# %%
# bounded F means a differential Harnack bound and then a sup/inf ratio
ratios = diagnostics.harnack_ratio_series(series)
print(f"Harnack ratio: max C = {ratios.c_max:.4f}, median = {ratios.c_median:.4f}")
print(f"contraction eps = (C-1)/C = {ratios.eps:.4f} -> rate {ratios.sigma:.3f}")
osc = diagnostics.oscillation_decay(traj, ratios.eps, ratios.sigma, tol=1e-4)
print("integer-time envelope violations:", osc.violations, "of", len(osc.k))

# %%
# the boundary sign: both evaluators of D_beta F at a few boundary nodes
st = traj.state_at(traj.snapshot_index_at_time(1.0))
print("node   direct        closed        (term1, term2, term3)")
nodes = np.arange(0, g.n_s, 16)
closed, terms = linearized.dbetaF_closed(series, st, nodes, "general")
direct = linearized.dbetaF_direct(series, st, nodes)   # NaN if refused
for i, j in enumerate(nodes):
    print(f"{j:4d}  {direct[i]:+.5f}  {closed[i]:+.6f}   "
          + "  ".join(f"{t[i]:+.2e}" for t in terms))
