# %% [markdown]
# # The transport flow on a disk pair
#
# The potential u evolves by du/dt = log det W - log B with the second
# boundary condition h*(Y(x, grad u)) = 0. For the inner-product cost between
# the unit disk and the radius-2 disk with uniform densities, u = |x|^2 is an
# exact stationary point: the flow does not move it. Modulating the target
# density with a smooth cosine bump makes the run nontrivial, and the sup norm
# of the rate field decays exponentially at the rate of the first oblique
# eigenvalue of the linearized operator.

# %%
import numpy as np

from otflow import costs, domains, flow, grid, runner

src = domains.Disk(1.0)
tgt = domains.Disk(2.0)
cost = costs.make_cost("inner_product")

spec0 = domains.ProblemSpec(src, tgt, cost,
                            domains.uniform_density(src),
                            domains.uniform_density(tgt))
g = grid.CurvilinearGrid(src, 32, 64)
state = flow.initialize(spec0, g, flow.initial_linear_scaling(spec0, g))
print("stationary scenario: sup |rate| =", np.abs(state.rate).max())

# %%
# perturbed target density: rho* proportional to 1 + 0.1 (r/R) cos(angle)
spec = domains.ProblemSpec(src, tgt, cost,
                           domains.uniform_density(src),
                           domains.cosine_bump_density(tgt, eps=0.1, k=1))
sched = flow.Schedule(stop_tol=1e-3, t_max=6.0, snapshot_dt=0.125)
traj = flow.run_to_convergence(spec, g, flow.initial_linear_scaling(spec, g),
                               sched)
print("converged:", traj.converged, "-", traj.reason)
print("super-steps:", len(traj.step_records))

# %%
# decay rates measured two ways: distance to the final potential, and the
# rate field's own sup norm
ufit = runner.fit_u_decay(traj, tail_trim=1.0, min_samples=8)
tfit = runner.fit_theta_decay(traj)
print(f"sigma from |u - u_final|: {ufit.sigma:.4f}  (R^2 = {ufit.r2:.5f})")
print(f"sigma from |rate|:        {tfit.sigma:.4f}")

# %%
# the per-super-step monitor table: mass balance and the rate extrema bracketing 0
col = traj.step_column
print("max |mass error|      :", col("mass_balance_err").max(),
      " (h^2 =", g.dr ** 2, ")")
print("min of sup rate       :", col("sup_theta").min(), " (stays >= -tol)")
print("max of inf rate       :", col("inf_theta").max(), " (stays <= +tol)")
print("max boundary |G|      :", col("max_boundary_G").max())

# %%
# optional: picture of the decay
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 3.2))
    ax.semilogy(col("t"), col("stationary_residual"), lw=0.8)
    ax.set_xlabel("t")
    ax.set_ylabel("sup |rate|")
    ax.set_title("exponential approach to the transport potential")
    fig.tight_layout()
    fig.savefig("flow_decay.png", dpi=120)
    print("wrote flow_decay.png")
except ImportError:
    pass
