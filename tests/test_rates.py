"""Tests for rate fits, the explicit best-iterate bound, and the windowed
pseudotrajectory diagnostic."""

import numpy as np
import pytest

from saddleflow import flows, optimizers as opt, rates
from saddleflow.problems import BilinearGame, ScaledIdentity

BG = BilinearGame([[1.0]])
SI = ScaledIdentity(1.0, 2)


class TestBestIterate:
    def test_running_min(self):
        np.testing.assert_allclose(rates.best_iterate([3.0, 1.0, 2.0, 0.5]),
                                   [3.0, 1.0, 1.0, 0.5])

    def test_zeros(self):
        np.testing.assert_allclose(rates.best_iterate(np.zeros(5)), np.zeros(5))

    def test_non_increasing_for_any_input(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            series = rates.best_iterate(rng.random(100))
            assert np.all(np.diff(series) <= 0)

    def test_decay_on_bilinear_run(self):
        traj = opt.run(BG, opt.OGDA(1 / 16), np.array([1.0, 0.0]), 10_000)
        series = rates.best_iterate(traj.metric("v_norm"))
        assert np.all(np.diff(series) <= 0)
        assert series[10_000] < series[100]


class TestExplicitBound:
    def test_bound_value(self):
        # (8 + 36 gamma^2 L^2) |z0|^2 / (2 gamma^2 n) at gamma = 1/16, n = 256.
        value = rates.explicit_bound(1 / 16, 1.0, 1.0, 256)
        assert value == pytest.approx(4.0703125)

    def test_margins_nonnegative_on_catalog(self):
        for op in (BG, SI):
            traj = opt.run(op, opt.OGDA(1 / 16), np.array([1.0, 0.0]), 10_000)
            margins = rates.best_iterate_bound_check(traj.metric("v_norm"), 1 / 16, 1.0, 1.0)
            assert margins.size == 10_000
            assert np.all(margins >= 0.0)

    def test_single_step_trivial(self):
        # One step with z_1 = z_0: the bound exceeds |V(z_1)|^2 outright.
        traj = opt.run(SI, opt.OGDA(1 / 16), np.array([1.0, 0.0]), 1)
        margins = rates.best_iterate_bound_check(traj.metric("v_norm"), 1 / 16, 1.0, 1.0)
        assert margins[0] >= 0.0

    def test_thinned_records_are_compared_at_their_own_steps(self):
        # Records every 100 steps: record j is step 100 j, and its margin is
        # taken against the bound at that step.  The running minimum over the
        # records is at least the true one, so each thinned margin is at most
        # the unthinned one at its step; at the last step, where |V| is least,
        # they are equal.
        z0 = np.array([1.0, 0.0])
        full = opt.run(BG, opt.OGDA(1 / 16), z0, 10_000)
        thin = opt.run(BG, opt.OGDA(1 / 16), z0, 10_000, record_every=100)
        assert full.metric("v_norm").argmin() == 10_000
        margins = rates.best_iterate_bound_check(full.metric("v_norm"), 1 / 16, 1.0, 1.0)
        thinned = rates.best_iterate_bound_check(thin.metric("v_norm"), 1 / 16, 1.0, 1.0,
                                                 thin.steps)
        assert thinned.size == 100
        assert np.all(thinned <= margins[thin.steps[1:] - 1])
        assert thinned[-1] == margins[-1]

    def test_step_cap_enforced(self):
        with pytest.raises(ValueError, match="1/\\(16 L\\)"):
            rates.best_iterate_bound_check(np.ones(10), 0.5, 1.0, 1.0)


class TestStepCap:
    """``within_step_cap`` is 16 gamma L <= 1 + STEP_CAP_EPS, a slack relative
    to the cap at every size of L."""

    @pytest.mark.parametrize("lipschitz", [1e-150, 1e-20, 0.3, 1.0, 3.7, 1e13, 1e20, 1e150])
    def test_gamma_written_as_the_cap_is_within_it(self, lipschitz):
        assert rates.within_step_cap(1.0 / (16.0 * lipschitz), lipschitz)
        assert not rates.within_step_cap((1.0 + 1e-12) / (16.0 * lipschitz), lipschitz)

    def test_slack_is_relative(self):
        # An absolute slack of 1e-15 admitted every gamma <= 1e-15 once
        # L > 6e13: here 16 gamma L = 1.6e5.
        assert not rates.within_step_cap(1e-16, 1e20)
        with pytest.raises(ValueError, match="1/\\(16 L\\)"):
            rates.best_iterate_bound_check(np.ones(10), 1e-16, 1e20, 1.0)

    def test_overflowing_product_is_outside(self):
        with np.errstate(all="raise"):
            assert not rates.within_step_cap(1e200, 1e200)
            assert not rates.within_step_cap(np.float64(1e200), np.float64(1e200))


class TestBoundOverflow:
    """Within the cap gamma L <= 1/16, so the bound's (gamma L)^2 is a float
    whatever the size of L."""

    def test_bound_with_an_overflowing_lipschitz_square(self):
        # L^2 = 4e308 is not a float, (gamma L)^2 = 4e-4 is.
        gamma, lipschitz, z0_norm = 1e-156, 2e154, 1e-10
        with np.errstate(all="raise"):
            value = rates.explicit_bound(gamma, lipschitz, z0_norm, 1)
        assert value == pytest.approx((8.0 + 36.0 * 4e-4) * 1e-20 / (2.0 * 1e-312), rel=1e-9)
        v_norms = np.full(5, lipschitz * z0_norm)
        with np.errstate(all="raise"):
            margins = rates.best_iterate_bound_check(v_norms, gamma, lipschitz, z0_norm)
        assert np.isfinite(margins).all() and (margins > 0).all()

    def test_bound_beyond_the_float_range_is_inf(self):
        with np.errstate(all="raise"):
            assert rates.explicit_bound(1e-162, 1e160, 1.0, 1) == np.inf

    def test_no_margin_when_both_sides_overflow(self):
        # The bound and |V(z_i)|^2 = 1e320 are both inf: inf - inf has no sign.
        with np.errstate(all="raise"), pytest.raises(ValueError, match="explicit bound .* n = 1"):
            rates.best_iterate_bound_check(np.full(5, 1e160), 1e-162, 1e160, 1.0)


class TestFloatingPointPolicy:
    """The checks and fits return under np.errstate(all="raise") the same
    numbers as under numpy's default errstate."""

    def test_bound_check_on_an_underflowing_run(self):
        # Criterion 7's run: the last field norms square to an underflow,
        # which raised FloatingPointError from v_norms ** 2.
        traj = opt.run(SI, opt.OGDA(1 / 16), np.array([1.0, 0.0]), 10_000)
        v_norms = traj.metric("v_norm")
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            v_norms ** 2
        want = rates.best_iterate_bound_check(v_norms, 1 / 16, 1.0, 1.0)
        with np.errstate(all="raise"):
            got = rates.best_iterate_bound_check(v_norms, 1 / 16, 1.0, 1.0)
        assert got.tobytes() == want.tobytes()

    def test_fits_and_windows(self):
        kind = opt.OGDAVariableStep(gamma0=0.1, power=0.6)
        traj = opt.run(SI, kind, np.array([1.0, 0.0]), 2000)
        gammas = kind.step_size(np.arange(2000))
        taus = rates.effective_times(gammas)
        gamma_of_t = lambda t: np.interp(t, taus[:-1], gammas)  # noqa: E731
        t, v = traj.times[1:], traj.metric("v_norm")[1:]
        calls = (lambda: rates.fit_power_law(t, v), lambda: rates.fit_geometric(t, v, 0.5, 1.0, 2.0),
                 lambda: rates.apt_window_check(traj.times, traj.states, SI, gamma_of_t,
                                                T=0.5, windows=3).tobytes())
        for call in calls:
            want = call()
            with np.errstate(all="raise"):
                assert call() == want


class TestFits:
    def test_power_law_exact(self):
        t = np.linspace(1.0, 100.0, 400)
        fit = rates.fit_power_law(t, 5.0 / np.sqrt(t))
        assert abs(fit.exponent + 0.5) <= 1e-10
        fit = rates.fit_power_law(t, 2.0 / t)
        assert abs(fit.exponent + 1.0) <= 1e-10
        assert fit.residual_rms <= 1e-12

    def test_geometric_exact(self):
        t = np.linspace(0.0, 5.0, 200)
        fit = rates.fit_geometric(t, np.exp(-3.0 * t))
        assert abs(fit.rho_hat - 3.0) <= 1e-10

    def test_theory_rate_attached(self):
        t = np.linspace(0.0, 5.0, 50)
        fit = rates.fit_geometric(t, np.exp(-t), mu=1.0, beta=2.0)
        assert fit.rho_theory == pytest.approx(4.0 / 13.0)

    def test_rejects_nonpositive_values(self):
        t = np.linspace(1.0, 10.0, 50)
        v = np.ones(50)
        v[-1] = 0.0
        with pytest.raises(ValueError, match="positive"):
            rates.fit_power_law(t, v)

    @pytest.mark.parametrize("t", [
        np.arange(1.0, 6.0) * 1e-320,    # a subnormal span, as from gamma = 1e-320
        np.arange(1.0, 6.0) * 1e-200,    # every t^2 underflows to 0
        np.array([1.0, 2.0, np.inf]),
        np.full(5, 3.0),
    ], ids=["subnormal", "underflowing-squares", "non-finite", "zero-span"])
    def test_rejects_a_degenerate_abscissa(self, t, capfd):
        # Before np.polyfit runs: LAPACK would print to fd 1 first.
        with pytest.raises(ValueError, match="degenerate abscissa"):
            rates.fit_geometric(t, np.exp(-np.arange(t.size)), tail_fraction=1.0)
        assert capfd.readouterr() == ("", "")
        fit = rates.fit_geometric(np.arange(1.0, 6.0) * 1e-160, np.exp(-np.arange(5.0)), 1.0)
        assert fit.rho_hat == pytest.approx(1e160)

    def test_rejects_an_abscissa_whose_squares_overflow(self, capfd):
        # sqrt(sum x^2) = inf, so np.polyfit would fit a zero column: rho_hat
        # -0.0 and a RankWarning, where the rate is ln 2 / 1e200.
        with pytest.raises(ValueError, match="degenerate abscissa"):
            rates.fit_geometric(np.array([1e200, 2e200, 3e200]), np.array([1.0, 0.5, 0.25]), 1.0)
        assert capfd.readouterr() == ("", "")
        fit = rates.fit_geometric(np.array([1e150, 2e150, 3e150]), np.array([1.0, 0.5, 0.25]), 1.0)
        assert fit.rho_hat == pytest.approx(np.log(2.0) / 1e150)

    def test_observed_flow_rate_beats_certified(self):
        # Strongly monotone run: fitted decay must be at least the certified
        # 1/(1/mu + 9/(2 beta)).
        cfg = flows.IntegratorConfig("rk4", 1e-3, 20.0, record_every=10)
        traj = flows.integrate(flows.ogda_flow(2.0), SI, np.array([1.0, 0.0]),
                               np.zeros(2), cfg)
        fit = rates.fit_geometric(traj.times[1:], traj.metric("z_norm")[1:],
                                  mu=1.0, beta=2.0)
        assert fit.rho_hat >= fit.rho_theory

    def test_ogda_flow_field_norm_power_law(self):
        # Monotone-only certificate is O(1/sqrt(t)); on the bilinear game the
        # observed tail exponent is at least as fast as -0.45.
        cfg = flows.IntegratorConfig("rk4", 1e-3, 100.0, record_every=100)
        traj = flows.integrate(flows.ogda_flow(2.0), BG, np.array([1.0, 0.0]),
                               np.zeros(2), cfg)
        mask = traj.times >= 1.0
        fit = rates.fit_power_law(traj.times[mask], traj.metric("v_norm")[mask])
        assert fit.exponent <= -0.45


class TestImplicitRateShape:
    def test_field_norm_times_sqrt_n_bounded(self):
        # sup_n |V(z_n)| sqrt(n) constants pinned per problem.
        from saddleflow.problems import QuarticCounterexample

        cases = [(SI, 0.5, 200, 2.0), (BG, 0.5, 2000, 1.5),
                 (QuarticCounterexample(), 0.1, 500, 3.0)]
        for op, gamma, steps, cap in cases:
            traj = opt.run(op, opt.ImplicitOGDA(gamma), np.array([1.0, 0.0]), steps)
            vn = traj.metric("v_norm")
            n = np.arange(1, steps + 1)
            assert np.max(vn[1:] * np.sqrt(n)) <= cap


class TestEffectiveTimes:
    def test_cumulative(self):
        np.testing.assert_allclose(rates.effective_times([0.5, 0.25, 0.25]),
                                   [0.0, 0.5, 0.75, 1.0])


class TestAptWindows:
    def _varstep_run(self, steps=10_000):
        kind = opt.OGDAVariableStep(gamma0=0.1, power=0.6)
        traj = opt.run(SI, kind, np.array([1.0, 0.0]), steps)
        gammas = np.array([kind.step_size(n) for n in range(steps)])
        taus = rates.effective_times(gammas)
        gamma_of_t = lambda t: np.interp(t, taus[:-1], gammas)  # noqa: E731
        return traj, gamma_of_t

    def test_window_sups_shrink(self):
        traj, gamma_of_t = self._varstep_run()
        sups = rates.apt_window_check(traj.times, traj.states, SI, gamma_of_t,
                                      T=1.0, windows=8)
        assert sups.shape == (8,)
        assert sups[-1] < sups[0]
        # the improvement is monotone across the second half of the windows
        assert np.all(np.diff(sups[4:]) < 0)

    def test_window_sups_match_the_per_record_loop(self, monkeypatch):
        # The windows interpolate the run at all record times at once; the
        # sups equal those of interpolating and taking a norm record by record.
        traj, gamma_of_t = self._varstep_run(2000)
        runs = []
        real_integrate = rates.integrate
        monkeypatch.setattr(rates, "integrate",
                            lambda *a, **k: runs.append(real_integrate(*a, **k)) or runs[-1])
        sups = rates.apt_window_check(traj.times, traj.states, SI, gamma_of_t, T=0.5, windows=3)
        assert len(runs) == 3
        for sup, flow in zip(sups, runs):
            t0 = flow.times[0]
            diffs = [np.linalg.norm([np.interp(t0 + h, traj.times, col) for col in traj.states.T]
                                    - zs) for h, zs in zip(flow.times - t0, flow.states)]
            assert abs(sup - max(diffs)) <= 1e-12 * max(diffs)

    def test_self_comparison_is_small(self):
        # A "discrete" trajectory sampled from the flow itself must sit on the
        # flow up to integrator/interpolation error.  Anchors start past the
        # stiff initial transient, where the interpolant slope (used to
        # reconstruct the flow's aux variable) is accurate.
        kind = flows.make_flow("ogda-hrde2-varstep", kappa_fn=lambda t: 1.0 / 0.05)
        cfg = flows.IntegratorConfig("rk4", 1e-3, 6.0, record_every=5)
        z0 = np.array([1.0, 0.0])
        w0 = flows.ogda2_w_from_omega(SI, z0, np.zeros(2), 0.05)
        flow_traj = flows.integrate(kind, SI, z0, w0, cfg)
        sups = rates.apt_window_check(flow_traj.times, flow_traj.states, SI,
                                      lambda t: 0.05, T=1.0, windows=4, t_start=0.5)
        assert np.max(sups) <= 1e-4

    def test_constant_zero_trajectory(self):
        taus = np.linspace(0.0, 10.0, 200)
        states = np.zeros((200, 2))
        sups = rates.apt_window_check(taus, states, SI, lambda t: 0.1, T=1.0, windows=4)
        np.testing.assert_allclose(sups, 0.0, atol=1e-14)

    def test_too_short_trajectory_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            rates.apt_window_check(np.linspace(0, 0.5, 10), np.zeros((10, 2)), SI,
                                   lambda t: 0.1, T=1.0, windows=4)
