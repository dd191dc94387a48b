"""Monitors and the rate-extraction pipeline."""

import numpy as np
import pytest

from otflow import diagnostics, flow, linearized, serialize
from otflow.errors import DegenerateDenominator, NoDecayWindow


class TestAlignment:
    def test_stationary_closed_form(self, stationary_state):
        rep = diagnostics.wbeta_alignment(stationary_state)
        assert rep.max_sin <= 1e-10
        np.testing.assert_allclose(rep.min_chi, 2.0, atol=1e-9)

    def test_reference_run_stays_aligned(self, ref_run_32):
        for i in (1, len(ref_run_32.snapshots) // 2, -1):
            rep = diagnostics.wbeta_alignment(ref_run_32.state_at(i))
            assert rep.max_sin <= 0.1 * ref_run_32.grid.dr ** 2
            assert rep.min_chi > 0

    def test_corrupted_direction_field_flagged(self, stationary_state):
        class Corrupted:
            grid = stationary_state.grid
            W = stationary_state.W

            def ring_beta(self):
                base = stationary_state.ring_beta()
                rot = np.stack([-base[..., 1], base[..., 0]], axis=-1)
                return 0.7 * base + 0.7 * rot

        rep = diagnostics.wbeta_alignment(Corrupted())
        assert rep.max_sin > 0.3

    @pytest.mark.parametrize("run", ["ref_run_32", "sqrt_run_16"])
    def test_snapshot_alignment_is_the_full_state_one(self, run, request):
        traj = request.getfixturevalue(run)
        for i in range(len(traj.snapshots)):
            assert (diagnostics.snapshot_alignment(traj, i)
                    == diagnostics.wbeta_alignment(traj.state_at(i)))

    @pytest.mark.parametrize("run", ["ref_run_32", "sqrt_run_16"])
    def test_summary_builds_one_state_and_keeps_its_bytes(self, run, request,
                                                          monkeypatch, tmp_path):
        traj = request.getfixturevalue(run)
        built = []
        build_state = flow.build_state

        def counting(*args):
            built.append(args[2])
            return build_state(*args)

        monkeypatch.setattr(flow, "build_state", counting)
        fast = diagnostics.run_summary(traj)
        # only measured_norm_bound's final state
        assert built == [traj.snapshots[-1].t]
        monkeypatch.setattr(diagnostics, "snapshot_alignment",
                            lambda t, i: diagnostics.wbeta_alignment(t.state_at(i)))
        full = diagnostics.run_summary(traj)
        assert len(built) > 2
        serialize.write_json(tmp_path / "fast.json", fast)
        serialize.write_json(tmp_path / "full.json", full)
        assert ((tmp_path / "fast.json").read_bytes()
                == (tmp_path / "full.json").read_bytes())


class TestFitRate:
    def test_exact_exponential(self):
        t = np.linspace(0, 5, 40)
        fit = diagnostics.fit_rate(t, 3.0 * np.exp(-0.7 * t))
        assert abs(fit.sigma - 0.7) <= 1e-10
        assert abs(fit.amplitude - 3.0) <= 1e-9
        assert fit.r2 >= 1 - 1e-12

    def test_noise_keeps_rate_within_five_percent(self):
        t = np.linspace(0, 6, 60)
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            vals = 3.0 * np.exp(-0.7 * t) * (1 + 0.01 * rng.normal(size=t.size))
            fit = diagnostics.fit_rate(t, vals)
            worst = max(worst, abs(fit.sigma - 0.7) / 0.7)
        assert worst <= 0.05

    def test_constant_series_rejected(self):
        with pytest.raises(NoDecayWindow):
            diagnostics.fit_rate(np.linspace(0, 5, 30), np.ones(30))

    def test_rise_then_decay_window(self):
        t = np.linspace(0, 8, 80)
        vals = np.where(t < 2, 0.5 * t + 0.1, 1.1 * np.exp(-0.9 * (t - 2)))
        fit = diagnostics.fit_rate(t, vals)
        assert fit.t_lo >= 1.9
        assert abs(fit.sigma - 0.9) <= 0.02

    def test_explicit_window(self):
        t = np.linspace(0, 10, 100)
        vals = np.exp(-t) + 1e-4        # floors at late times
        fit = diagnostics.fit_rate(t, vals, window=(0.0, 4.0))
        assert abs(fit.sigma - 1.0) <= 0.05

    def test_too_few_samples_rejected(self):
        with pytest.raises(NoDecayWindow):
            diagnostics.fit_rate([0, 1, 2], [1.0, 0.5, 0.25])


class _StubSeries:
    """Minimal gap-series stand-in for ratio tests."""

    def __init__(self, times, gaps, floor=1e-14):
        self.times = np.asarray(times, float)
        self.gap = np.asarray(gaps, float)
        self.floor = floor


class TestHarnackRatios:
    def test_spatially_constant_gap(self):
        times = np.arange(0, 6, 0.5)
        gaps = np.exp(-times)[:, None, None] * np.ones((1, 4, 8))
        rep = diagnostics.harnack_ratio_series(_StubSeries(times, gaps))
        np.testing.assert_allclose(rep.ratios, np.e, rtol=1e-12)
        np.testing.assert_allclose(rep.eps, (np.e - 1) / np.e, rtol=1e-12)

    def test_floor_denominator_raises(self):
        times = np.arange(0, 4.5, 0.5)
        gaps = np.exp(-times)[:, None, None] * np.ones((1, 4, 8))
        gaps[-2:] = 0.0
        with pytest.raises(DegenerateDenominator):
            diagnostics.harnack_ratio_series(_StubSeries(times, gaps))

    def test_reference_run_ratio_finite(self, ref_run_32):
        series = linearized.theta_special(ref_run_32, k=1)
        rep = diagnostics.harnack_ratio_series(series)
        assert np.all(np.isfinite(rep.ratios))
        assert 1.0 < rep.c_max < 3.0
        assert 0 < rep.eps < 1
        assert rep.sigma > 0


class TestOscillationDecay:
    def test_stationary_run_has_no_violations(self, disk_pair_spec, grid32):
        u0 = flow.initial_linear_scaling(disk_pair_spec, grid32)
        traj = flow.run_to_convergence(disk_pair_spec, grid32, u0,
                                       flow.Schedule(stop_tol=1e-8, t_max=2.0))
        rep = diagnostics.oscillation_decay(traj, eps=0.5, sigma=0.7)
        assert rep.violations == 0

    def test_reference_run_contracts(self, ref_run_32):
        series = linearized.theta_special(ref_run_32, k=1)
        ratios = diagnostics.harnack_ratio_series(series)
        tol = 1e-6 + 0.15 * ref_run_32.grid.dr ** 2
        rep = diagnostics.oscillation_decay(ref_run_32, ratios.eps,
                                            ratios.sigma, tol=tol)
        assert rep.contractive
        assert rep.violations == 0

    def test_violations_counted_at_integer_times(self):
        # (t, sup, inf); eps = 1/2 gives C = 2 and the inf bound
        # -sup(0) 2^-(k-1) at sigma = log 2; t = 3 has no snapshot
        rows = [(0.0, 1.0, -0.1), (0.5, 5.0, -5.0), (1.0, 0.8, -0.5),
                (2.0, 0.6, -0.6),   # sup > sup(0) / 2, inf < -1/2
                (3.5, 5.0, -5.0), (4.0, 0.2, -0.1),
                (5.0, 0.35, -0.01)]  # no sup(3) to check it against
        snaps = [flow.Snapshot(t, np.zeros((2, 2)), np.array([[hi, lo], [0, 0]]))
                 for t, hi, lo in rows]
        traj = flow.Trajectory(ctx=None, snapshots=snaps,
                               step_records=np.empty((0, len(flow.STEP_COLUMNS))),
                               converged=False, reason="hand-built")
        rep = diagnostics.oscillation_decay(traj, eps=0.5, sigma=np.log(2.0))
        assert rep.k.tolist() == [0, 1, 2, 4, 5]
        assert (rep.sup_violations, rep.inf_violations) == (1, 1)
        assert rep.contractive

    def test_non_contractive_eps_reported(self, ref_run_32):
        rep = diagnostics.oscillation_decay(ref_run_32, eps=1.2, sigma=0.0)
        assert not rep.contractive
        assert rep.violations == 0


class TestEnvelopeFits:
    def test_envelope_bounds_the_data(self):
        t = np.linspace(0.25, 8, 50)
        y = 0.8 + 0.05 * t - 0.3 * np.exp(-t)
        fit = diagnostics.fit_envelope(t, y)
        assert np.all(y <= fit.c1 + fit.c2 * t + 1e-12)

    def test_stability_small_for_early_peaked_series(self):
        t = np.linspace(0.25, 10, 80)
        y = np.exp(-0.4 * t) * (1 + 0.3 * np.sin(3 * t))
        stab, _, _ = diagnostics.sublinearity_stability(t, y)
        assert stab <= 0.25


def test_measured_norm_bound(ref_run_32):
    k = diagnostics.measured_norm_bound(ref_run_32)
    # dominated by the cross Hessian scale / potential Hessian of the run
    assert 2.0 <= k <= 10.0


def test_run_summary_keys(ref_run_32):
    summary = diagnostics.run_summary(ref_run_32)
    assert set(summary) == {"sigma", "R2", "C_harnack", "eps", "max_mass_err",
                            "max_alignment", "stationary_residual",
                            "K_measured"}
