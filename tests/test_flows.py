"""Tests for the flow right-hand sides and the fixed-step integrators."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affine_cases import (AffineField, NonAffineTwin, assert_same_run, count_hook_calls, forbid,
                          monotone_affine_cases)
from saddleflow import cli, flows, lyapunov
from saddleflow import optimizers as opt
from saddleflow.problems import (
    BilinearGame,
    NonFiniteError,
    Operator,
    QuarticCounterexample,
    ScaledIdentity,
    random_bilinear,
)

BG = BilinearGame([[1.0]])
SI = ScaledIdentity(1.0, 2)


def count_stage_fields(monkeypatch):
    """A list that gains one entry per V evaluation through an unchecked
    view built from now on: the rhs path's stage kernel binds that view's
    field once per run and evaluates it once per stage, while the maps,
    their read-offs and ``Recorder.finish`` build no view."""
    calls, real = [], Operator.unchecked

    def unchecked(self):
        view = real(self)
        field = view.field
        view.field = lambda z: calls.append(1) or field(z)
        return view

    monkeypatch.setattr(Operator, "unchecked", unchecked)
    return calls


class TestRightHandSides:
    def test_gda_flow(self):
        dz, domega = flows.rhs(flows.gda_flow(20.0), BG, np.array([1.0, 0.0]), np.zeros(2))
        np.testing.assert_allclose(dz, [0.0, 0.0])
        np.testing.assert_allclose(domega, [0.0, 20.0])

    def test_ogda_flow(self):
        dz, domega = flows.rhs(
            flows.ogda_flow(20.0), BG, np.array([1.0, 0.0]), np.array([1.0, 1.0])
        )
        np.testing.assert_allclose(dz, [1.0, 1.0])
        np.testing.assert_allclose(domega, [-22.0, 2.0])

    def test_eg_flow_adds_jacobian_term(self):
        z, omega = np.array([0.4, -0.8]), np.array([0.3, 0.1])
        base = flows.rhs(flows.gda_flow(10.0), BG, z, omega)[1]
        eg = flows.rhs(flows.eg_flow(10.0), BG, z, omega)[1]
        jac_v = BG.jacobian(z) @ BG.field(z)
        np.testing.assert_allclose(eg, base + 2.0 * jac_v, atol=1e-14)

    def test_la2_at_half_alpha_is_gda_plus_jacobian_term(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            z, omega = rng.standard_normal(2), rng.standard_normal(2)
            la2 = flows.rhs(flows.la2_flow(6.0, 0.5), BG, z, omega)[1]
            gda = flows.rhs(flows.gda_flow(6.0), BG, z, omega)[1]
            jac_v = BG.jacobian(z) @ BG.field(z)
            np.testing.assert_allclose(la2, gda + jac_v, atol=1e-13)

    def test_la3_coefficients(self):
        z, omega = np.array([1.0, 0.0]), np.zeros(2)
        alpha, beta = 0.5, 4.0
        _, domega = flows.rhs(flows.la3_flow(beta, alpha), BG, z, omega)
        v = BG.field(z)
        expected = -3 * alpha * beta * v + 6 * alpha * (BG.jacobian(z) @ v)
        np.testing.assert_allclose(domega, expected)

    def test_jacobian_free_flow(self):
        dz, dw = flows.rhs(
            flows.make_flow("ogda-hrde2", gamma=1.0), SI, np.array([1.0, 0.0]),
            np.array([-1.0, 0.0])
        )
        np.testing.assert_allclose(dz, [-2.0, 0.0])
        np.testing.assert_allclose(dw, [0.0, 0.0])

    def test_phase_kinds_have_dz_equal_omega(self):
        rng = np.random.default_rng(1)
        kinds = [flows.gda_flow(4.0), flows.eg_flow(4.0), flows.ogda_flow(4.0),
                 flows.la2_flow(4.0, 0.3), flows.la3_flow(4.0, 0.3)]
        for kind in kinds:
            z, omega = rng.standard_normal(2), rng.standard_normal(2)
            dz, _ = flows.rhs(kind, BG, z, omega)
            np.testing.assert_array_equal(dz, omega)

    def test_zero_state_is_equilibrium_everywhere(self):
        kinds = [flows.gda_flow(4.0), flows.eg_flow(4.0), flows.ogda_flow(4.0),
                 flows.la2_flow(4.0, 0.3), flows.la3_flow(4.0, 0.3),
                 flows.make_flow("ogda-hrde2", gamma=0.5), flows.make_flow("gda-ode")]
        for op in (BG, SI, QuarticCounterexample()):
            for kind in kinds:
                dz, daux = flows.rhs(kind, op, np.zeros(op.dim), np.zeros(op.dim))
                np.testing.assert_allclose(dz, 0.0, atol=1e-15)
                np.testing.assert_allclose(daux, 0.0, atol=1e-15)

    def test_varstep_constant_schedule_matches_fixed(self):
        var = flows.make_flow("ogda-hrde2-varstep", kappa_fn=lambda t: 1.0)
        fix = flows.make_flow("ogda-hrde2", gamma=1.0)
        z, w = np.array([0.3, 0.9]), np.array([-0.2, 0.4])
        for a, b in zip(flows.rhs(var, SI, z, w, t=3.0), flows.rhs(fix, SI, z, w)):
            np.testing.assert_array_equal(a, b)

    def test_low_resolution_rhs(self):
        kind = flows.make_flow("gda-ode")
        dz, daux = flows.rhs(kind, BG, np.array([1.0, 0.0]), None)
        np.testing.assert_allclose(dz, [0.0, 1.0])
        assert daux.shape == (0,)
        np.testing.assert_allclose(flows.rhs(kind, BG, np.zeros(2), None)[0], [0.0, 0.0])


class TestWInitialization:
    def test_map_formula(self):
        w0 = flows.ogda2_w_from_omega(SI, [1.0, 0.0], [0.0, 0.0], 0.1)
        np.testing.assert_allclose(w0, [-1.2, 0.0])
        np.testing.assert_allclose(
            flows.ogda2_w_from_omega(SI, np.zeros(2), np.zeros(2), 0.1), [0.0, 0.0]
        )

    def test_flow_equivalence_from_matched_states(self):
        gamma = 0.1
        z0, omega0 = np.array([0.8, -0.5]), np.array([0.2, 0.1])
        w0 = flows.ogda2_w_from_omega(BG, z0, omega0, gamma)
        cfg = flows.IntegratorConfig("rk4", 1e-4, 1.0, record_every=100)
        a = flows.integrate(flows.ogda_flow(2.0 / gamma), BG, z0, omega0, cfg)
        b = flows.integrate(flows.make_flow("ogda-hrde2", gamma=gamma), BG, z0, w0, cfg)
        assert np.max(np.abs(a.states - b.states)) <= 1e-6

    def test_derived_start_matches_the_given_one(self):
        gamma, z0, omega0 = 0.3, np.array([0.8, -0.5]), np.array([0.2, 0.1])
        kind = flows.make_flow("ogda-hrde2", gamma=gamma)
        cfg = flows.IntegratorConfig("rk4", 0.01, 0.5)
        given = flows.integrate(kind, BG, z0, flows.ogda2_w_from_omega(BG, z0, omega0, gamma), cfg)
        derived = flows.integrate(kind, BG, z0, lambda view, z: flows.ogda2_w_from_omega(
            view, z, omega0, gamma), cfg)
        np.testing.assert_array_equal(derived.states, given.states)

    def test_overflowing_derived_start_is_a_divergence(self):
        # V(z0) overflows at a finite z0: a start derived from it is a state
        # that the run records as a divergence, a given non-finite one an error.
        kind = flows.make_flow("ogda-hrde2", gamma=0.5)
        cfg = flows.IntegratorConfig("rk4", 0.001, 0.01)
        z0, op = np.array([1e150, 0.5]), QuarticCounterexample()
        with np.errstate(all="raise"):
            traj = flows.integrate(kind, op, z0, lambda view, z: flows.ogda2_w_from_omega(
                view, z, np.zeros(2), 0.5), cfg)
        assert traj.diverged and traj.queries[-1] == 4
        with pytest.raises(NonFiniteError):
            flows.integrate(kind, op, z0, [np.inf, 0.0], cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                flows.ogda2_w_from_omega(op, z0, np.zeros(2), 0.5)


def euler_step_ogda2(op, z, w, gamma):
    """One explicit Euler step of size gamma of the (z, w) flow at
    kappa = 1/(2 gamma): the two-variable discrete optimistic scheme."""
    cfg = flows.IntegratorConfig("euler", gamma, gamma)
    w_parts = {f"w{i}": (lambda ts, zs, ws, i=i: ws[:, i]) for i in range(op.dim)}
    traj = flows.integrate(flows.make_flow("ogda-hrde2", gamma=2.0 * gamma), op, z, w, cfg,
                           extra_metrics=w_parts)
    return traj.states[-1], np.array([traj.metric(name)[-1] for name in w_parts])


class TestEulerBridge:
    def test_matches_two_variable_stepper(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z, w = rng.standard_normal(2), rng.standard_normal(2)
            a_z, a_w = opt.step_ogda_s(BG, z, w, 0.1)
            b_z, b_w = euler_step_ogda2(BG, z, w, 0.1)
            np.testing.assert_allclose(b_z, a_z, rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(b_w, a_w, rtol=0.0, atol=1e-14)

    def test_hand_value(self):
        z, w = np.array([1.0, 0.0]), np.array([-1.4, 0.0])
        z_next, _ = euler_step_ogda2(SI, z, w, 0.1)
        np.testing.assert_allclose(z_next, [1.0, 0.0])


class TestIntegration:
    def test_gda_flow_diverges_on_bilinear(self):
        cfg = flows.IntegratorConfig("rk4", 1e-3, 5.0, record_every=100)
        traj = flows.integrate(flows.gda_flow(20.0), BG, np.array([1.0, 0.0]), np.zeros(2), cfg)
        assert traj.metric("z_norm")[-1] > 1.0

    def test_ogda_flow_contracts_on_bilinear(self):
        # At beta = 2 the quartic factors as (l^2 + 2l + 2)^2: decay t*e^{-t}
        # (double pair, Jordan-coupled), below 1e-2 by t = 7.
        cfg = flows.IntegratorConfig("rk4", 1e-3, 7.0, record_every=100)
        traj = flows.integrate(flows.ogda_flow(2.0), BG, np.array([1.0, 0.0]), np.zeros(2), cfg)
        assert traj.metric("z_norm")[-1] < 1e-2

    def test_rk4_fourth_order(self):
        z0, om0 = np.array([1.0, 0.0]), np.zeros(2)

        def final(dt):
            n = int(round(2.0 / dt))
            cfg = flows.IntegratorConfig("rk4", dt, 2.0, record_every=n)
            return flows.integrate(flows.ogda_flow(2.0), BG, z0, om0, cfg).states[-1]

        f1, f2, f3 = final(4e-3), final(2e-3), final(1e-3)
        ratio = np.linalg.norm(f1 - f2) / np.linalg.norm(f2 - f3)
        assert ratio >= 8.0
        assert np.log2(ratio) >= 3.7

    def test_low_resolution_conserves_bilinear_norm(self):
        cfg = flows.IntegratorConfig("rk4", 1e-3, 10.0, record_every=1000)
        traj = flows.integrate(flows.make_flow("gda-ode"), BG, np.array([1.0, 0.0]), None, cfg)
        z_norm = traj.metric("z_norm")
        assert np.max(np.abs(z_norm - z_norm[0])) <= 1e-8

    def test_varstep_decreases_with_valid_schedule(self):
        # kappa(t) = (1+t)^0.6 meets the statement-side precondition
        # beta beta' < 4 mu on [0, 10] for mu = 1 (sup ~ 3.88).
        kind = flows.make_flow("ogda-hrde2-varstep", kappa_fn=lambda t: (1.0 + t) ** 0.6)
        beta_dot = lambda t: 2.0 * 0.6 * (1.0 + t) ** (-0.4)  # noqa: E731
        ts = np.linspace(0.0, 10.0, 101)
        assert all(2.0 * (1.0 + t) ** 0.6 * beta_dot(t) < 4.0 for t in ts)
        cfg = flows.IntegratorConfig("rk4", 1e-3, 10.0, record_every=1000)
        traj = flows.integrate(kind, SI, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), cfg)
        assert traj.metric("z_norm")[-1] < 1.0

    def test_divergence_flag(self):
        # Growth rate of the gda flow at beta=2 on this game is ~e^{0.27 t}
        # (complex unstable pair), so the 1e12 guard trips near t ~ 104.
        cfg = flows.IntegratorConfig("rk4", 1e-2, 120.0, record_every=1000)
        traj = flows.integrate(flows.gda_flow(2.0), BG, np.array([1.0, 0.0]), np.zeros(2), cfg)
        assert traj.diverged

    def test_overflowing_stage_keeps_its_finite_column(self):
        # The stages multiply J by vectors and never form J.  At the first
        # non-finite record of eg-hrde on the quartic, the dense product's
        # 0 * inf makes every entry NaN, while z[0] stays finite; the records
        # before it are the dense Jacobian's, bit for bit.
        class DenseQuartic(QuarticCounterexample):
            def _jvp(self, z, x):
                return self._jacobian(z) @ x

        cfg = flows.IntegratorConfig("rk4", 1e-3, 0.5)
        kind = flows.make_flow("eg-hrde", gamma=0.7)
        traj, dense = (flows.integrate(kind, op, [0.3, -0.7], np.zeros(2), cfg)
                       for op in (QuarticCounterexample(), DenseQuartic()))
        for run in (traj, dense):
            finite = np.isfinite(run.states).all(axis=1)
            assert run.diverged and finite[:299].all() and not finite[299]
        assert traj.states[:299].tobytes() == dense.states[:299].tobytes()
        assert np.isnan(dense.states[299]).all()
        assert traj.states[299, 0] == pytest.approx(0.29740, abs=1e-5)
        assert np.isnan(traj.states[299, 1])

    def test_quartic_stages_never_form_the_jacobian(self, monkeypatch):
        # Every J V and J omega of the stages, and every x.J x of the rates,
        # is a Jacobian-vector product.
        def formed(self, z):
            raise AssertionError("a dense Jacobian was formed")

        monkeypatch.setattr(QuarticCounterexample, "_jacobian", formed)
        op, cfg = QuarticCounterexample(), flows.IntegratorConfig("rk4", 1e-3, 0.01)
        for fid in ("eg-hrde", "ogda-hrde", "la2-gda-hrde", "la3-gda-hrde"):
            traj = flows.integrate(flows.make_flow(fid, gamma=0.5), op, [0.3, -0.7],
                                   np.zeros(2), cfg)
            assert np.isfinite(traj.states).all()
        zs = np.array([[0.3, -0.7], [0.1, 0.2]])
        for kind, scale in (("ogda_l1", {"beta": 4.0}), ("ogda2_l4", {"kappa": 2.0})):
            assert (lyapunov.analytic_decrease_rate(kind, op, zs, zs, **scale) <= 0).all()

    def test_bad_kappa_schedule_raises(self):
        # A bad schedule is a caller error, never a recorded divergence, on
        # the maps (SI) and on the rhs path (the twin) alike.
        cfg = flows.IntegratorConfig("rk4", 0.1, 1.0)
        z0, w0 = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        twin = NonAffineTwin(np.eye(2), np.zeros(2))
        for bad in (-1.0, 0.0, float("nan")):
            kind = flows.make_flow("ogda-hrde2-varstep",
                                   kappa_fn=lambda t, bad=bad: np.where(t < 0.3, 1.0, bad))
            for op in (SI, twin):
                with pytest.raises(ValueError,
                                   match=r"kappa\(t\) must be positive, got .* at t=0\.3"):
                    flows.integrate(kind, op, z0, w0, cfg)

        def failing(t):
            raise ZeroDivisionError("schedule failed")

        for op in (SI, twin):
            with pytest.raises(ZeroDivisionError, match="schedule failed"):
                flows.integrate(flows.make_flow("ogda-hrde2-varstep", kappa_fn=failing),
                                op, z0, w0, cfg)

    def test_record_every(self):
        cfg = flows.IntegratorConfig("euler", 0.1, 1.0, record_every=2)
        traj = flows.integrate(flows.make_flow("ogda-hrde2", gamma=1.0), SI,
                               np.array([1.0, 0.0]), np.array([-1.0, 0.0]), cfg)
        assert len(traj) == 6
        np.testing.assert_allclose(traj.times, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-12)
        # A record_every that does not divide the step count still records
        # the final step, with its time and query count.
        cfg = flows.IntegratorConfig("euler", 0.1, 1.0, record_every=3)
        traj = flows.integrate(flows.make_flow("ogda-hrde2", gamma=1.0), SI,
                               np.array([1.0, 0.0]), np.array([-1.0, 0.0]), cfg)
        np.testing.assert_array_equal(traj.steps, [0, 3, 6, 9, 10])
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert traj.queries[-1] == 10
        assert np.isfinite(traj.metric("z_norm")).all()

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            flows.IntegratorConfig("rk45", 0.1, 1.0)
        with pytest.raises(ValueError):
            flows.IntegratorConfig("rk4", 2.0, 1.0)
        with pytest.raises(ValueError):
            flows.IntegratorConfig("rk4", 0.1, 1.0, record_every=0)
        # A step count t_end / dt past the float range (round(inf) raised
        # OverflowError inside integrate), or NaN.
        for dt, t_end in ((1e-300, 1e300), (1.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(ValueError, match="t_end / dt must be finite"):
                flows.IntegratorConfig("rk4", dt, t_end)


class TestFlowFactory:
    def test_ids(self):
        assert flows.make_flow("gda-hrde", gamma=0.1).scalars[0] == 20.0
        fixed = flows.make_flow("ogda-hrde2", gamma=0.1)
        assert fixed.name == "ogda-hrde2" and fixed.scalars == (10.0,)
        assert flows.make_flow("gda-ode").aux_var is None
        varstep = flows.make_flow("ogda-hrde2-varstep", kappa_fn=lambda t: 1.0 + t)
        assert varstep.scalars[0](1.0) == 2.0

    def test_rows_carry_their_table_memory_variable(self):
        # A built row reads its memory variable off the table by its name,
        # so each builder must name its row by its table id.
        for flow_id, (aux_var, _) in flows._FLOWS.items():
            row = flows.make_flow(flow_id, gamma=0.5, kappa_fn=lambda t: 2.0 + t)
            assert (row.name, row.aux_var) == (flow_id, aux_var)

    def test_errors(self):
        with pytest.raises(ValueError, match="gamma"):
            flows.make_flow("gda-hrde")
        with pytest.raises(ValueError, match="unknown flow id"):
            flows.make_flow("midpoint", gamma=0.1)
        with pytest.raises(ValueError, match="kappa schedule"):
            flows.make_flow("ogda-hrde2-varstep")
        nan = float("nan")
        for flow_id in ("gda-hrde", "ogda-hrde2"):
            with pytest.raises(ValueError, match="gamma"):
                flows.make_flow(flow_id, gamma=nan)
        with pytest.raises(ValueError, match="beta"):
            flows.gda_flow(nan)
        with pytest.raises(ValueError, match="gamma"):
            flows.ogda2_w_from_omega(SI, [1.0, 0.0], [0.0, 0.0], nan)


class TestOptimisticSpectra:
    """The (z, omega) row ogda-hrde and the (z, w) row ogda-hrde2 describe
    one flow: on a bilinear game their linear systems share one
    characteristic polynomial, written out here mode by mode, and on
    generated monotone affine fields their RK4 runs record the same z."""

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), d1=st.integers(1, 4), d2=st.integers(1, 4),
           gamma=st.floats(0.05, 10.0))
    def test_rows_share_the_characteristic_polynomial(self, seed, d1, d2, gamma):
        game, beta = random_bilinear(seed, d1, d2), 2.0 / gamma
        # Per eigenvalue mu of J: lambda^2 + (beta + 2 mu) lambda + beta mu.
        expected = np.array([1.0 + 0.0j])
        for mu in np.linalg.eigvals(game.jacobian(np.zeros(game.dim))):
            expected = np.convolve(expected, [1.0, beta + 2.0 * mu, beta * mu])
        assert np.abs(expected.imag).max() <= 1e-12 * np.abs(expected).max()
        for flow_id in ("ogda-hrde", "ogda-hrde2"):
            c = flows.linear_system(flows.make_flow(flow_id, gamma=gamma), game)[:-1, :-1]
            coeffs = np.poly(c)
            assert np.abs(coeffs - expected.real).max() <= 1e-12 * np.abs(expected).max()


    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(case=monotone_affine_cases(), gamma=st.floats(0.05, 2.0))
    def test_rows_agree_along_runs(self, case, gamma):
        # w0 = ogda2_w_from_omega(z0, omega0) is an affine change of variables
        # on an affine field, which RK4 commutes with: the two rows' z agree to
        # rounding, on the map paths (AffineField) and the rhs path (NonAffineTwin).
        m, z_star, z0, omega0 = case
        cfg = flows.IntegratorConfig("rk4", 0.01, 2.0, record_every=10)
        for op in (AffineField(m, z_star), NonAffineTwin(m, z_star)):
            w0 = flows.ogda2_w_from_omega(op, z0, omega0, gamma)
            a = flows.integrate(flows.make_flow("ogda-hrde", gamma=gamma), op, z0, omega0, cfg)
            b = flows.integrate(flows.make_flow("ogda-hrde2", gamma=gamma), op, z0, w0, cfg)
            assert not a.diverged and not b.diverged
            scale = max(1.0, np.abs(a.states).max())
            assert np.abs(a.states - b.states).max() <= 1e-10 * scale


CONSTANT_FLOWS = [f for f in flows.FLOW_IDS if f != "ogda-hrde2-varstep"]


class TestAffinePropagator:
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(case=monotone_affine_cases(), gamma=st.floats(0.05, 2.0),
           dt=st.sampled_from([0.005, 0.02, 0.1]), record_every=st.integers(1, 4))
    def test_matches_rhs_path(self, case, gamma, dt, record_every):
        m, z_star, z0, aux0 = case
        affine, twin = AffineField(m, z_star), NonAffineTwin(m, z_star)
        for flow_id in CONSTANT_FLOWS:
            kind = flows.make_flow(flow_id, gamma=gamma, alpha=0.4)
            for scheme in ("rk4", "euler"):
                cfg = flows.IntegratorConfig(scheme, dt, 25 * dt, record_every)
                fast = flows.integrate(kind, affine, z0, aux0, cfg)
                assert_same_run(fast, flows.integrate(kind, twin, z0, aux0, cfg))
                # The record rule still slices the every-step run, bit for bit.
                every = flows.IntegratorConfig(scheme, dt, 25 * dt)
                full = flows.integrate(kind, affine, z0, aux0, every)
                np.testing.assert_array_equal(fast.states, full.states[fast.steps])

    @pytest.mark.parametrize("scheme, t_end", [("rk4", 20.0), ("euler", 40.0)])
    def test_blow_up_matches_rhs_path(self, scheme, t_end):
        # dt*beta = 20 lies far outside both schemes' stability regions, so
        # gda-hrde overflows to a non-finite state within the budget.  The
        # rhs path overflows inside a stage while the exact next state R s is
        # still finite, so it stops one step before the propagator does.
        dt, beta = 0.1, 200.0
        m, z_star = np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2)
        z0, omega0 = np.array([1.0, 0.0]), np.zeros(2)
        cfg = flows.IntegratorConfig(scheme, dt, t_end)
        with np.errstate(over="ignore", invalid="ignore"):
            fast, ref = (flows.integrate(flows.make_flow("gda-hrde", gamma=2.0 / beta), op,
                                         z0, omega0, cfg)
                         for op in (AffineField(m, z_star), NonAffineTwin(m, z_star)))
            # R = sum_{j<=p} (dt C)^j / j! on s = (z, omega), with
            # C = [[0, I], [-beta M, -beta I]]; q = 0, so m drops out.
            c = np.block([[np.zeros((2, 2)), np.eye(2)], [-beta * m, -beta * np.eye(2)]])
            term, r = np.eye(4), np.eye(4)
            for j in range(1, 5 if scheme == "rk4" else 2):
                term = term @ (dt * c) / j
                r = r + term
            s, n_stop = np.concatenate([z0, omega0]), 0
            while np.isfinite(s).all():
                s, n_stop = r @ s, n_stop + 1

        def first(flags):
            return int(np.argmax(flags))

        def stop(traj):  # the step after which the loop stopped
            return int(round(traj.times[-1] / dt))

        assert fast.diverged and ref.diverged
        over = [first(t.metric("z_norm") > opt.DIVERGENCE_GUARD) for t in (fast, ref)]
        assert over[0] == over[1] > 0
        # Every record up to the rhs path's first non-finite one agrees.
        n_ref = first(~np.isfinite(ref.states).all(axis=1))
        head = [replace(t, steps=t.steps[:n_ref], times=t.times[:n_ref],
                        queries=t.queries[:n_ref], states=t.states[:n_ref]) for t in (fast, ref)]
        assert_same_run(*head)
        # The propagator stops where R^n s0 overflows, the rhs path a step before.
        assert stop(fast) == n_stop and stop(ref) == n_stop - 1
        assert np.isfinite(fast.states[:n_stop]).all()
        assert np.isnan(fast.states[n_stop + 1:]).all() and np.isnan(ref.states[n_ref:]).all()

    @pytest.mark.parametrize("scheme", ["rk4", "euler"])
    @pytest.mark.parametrize("mu, dt", [(1.0, 0.1), (6.0, 0.5)])
    def test_scheme_map_closed_form(self, scheme, mu, dt):
        # dz/dt = -mu z: one step multiplies z by the scheme's stability
        # function R(x) at x = -mu*dt.  At mu*dt = 3, RK4's R = 1.375 > 1, so
        # the integration grows although the flow decays.
        x, n = -mu * dt, 20
        r = 1.0 + x if scheme == "euler" else 1.0 + x + x**2 / 2 + x**3 / 6 + x**4 / 24
        if mu * dt == 3.0 and scheme == "rk4":
            assert r == 1.375
        z0 = np.array([0.6, -0.8])
        cfg = flows.IntegratorConfig(scheme, dt, n * dt)
        traj = flows.integrate(flows.make_flow("gda-ode"), ScaledIdentity(mu, 2), z0, None, cfg)
        want = r ** np.arange(n + 1)[:, None] * z0
        np.testing.assert_allclose(traj.states, want, rtol=1e-13, atol=0)
        assert not traj.diverged

    def test_overflowing_scheme_map_is_divergence(self):
        # dt*beta = 2e79: R overflows while it is built.  Under a caller's
        # np.errstate(all="raise") that is still a recorded divergence, as an
        # overflowing rhs stage is, never a raised FloatingPointError.
        cfg = flows.IntegratorConfig("rk4", 0.1, 1.0)
        kind = flows.make_flow("gda-hrde", gamma=1e-80)
        for op in (ScaledIdentity(1.0, 2), NonAffineTwin(np.eye(2), np.zeros(2))):
            with np.errstate(all="raise"):
                traj = flows.integrate(kind, op, np.array([1.0, 0.0]), np.zeros(2), cfg)
            assert traj.diverged and np.isnan(traj.states[-1]).all()

    def test_selected_by_operator_and_flow(self, monkeypatch):
        calls = count_stage_fields(monkeypatch)
        cfg = flows.IntegratorConfig("rk4", 0.1, 1.0)
        m, z_star = np.array([[0.5, 1.0], [-1.0, 0.0]]), np.zeros(2)
        z0, aux0 = np.array([1.0, 0.0]), np.zeros(2)
        for flow_id in CONSTANT_FLOWS:
            flows.integrate(flows.make_flow(flow_id, gamma=0.5), AffineField(m, z_star),
                            z0, aux0, cfg)
        assert not calls
        # The time-varying flow takes its per-step maps on an affine field too.
        varstep = flows.make_flow("ogda-hrde2-varstep", kappa_fn=lambda t: 2.0)
        flows.integrate(varstep, AffineField(m, z_star), z0, aux0, cfg)
        assert not calls
        flows.integrate(varstep, NonAffineTwin(m, z_star), z0, aux0, cfg)
        assert len(calls) == 40
        flows.integrate(flows.ogda_flow(4.0), NonAffineTwin(m, z_star), z0, aux0, cfg)
        flows.integrate(flows.ogda_flow(4.0), QuarticCounterexample(), z0, aux0, cfg)
        assert len(calls) == 120

    def test_linear_system_requires_an_affine_operator(self):
        for flow_id in CONSTANT_FLOWS:
            with pytest.raises(ValueError, match="affine"):
                flows.linear_system(flows.make_flow(flow_id, gamma=0.5), QuarticCounterexample())
        with pytest.raises(ValueError, match="reads t"):
            flows.linear_system(flows.make_flow("ogda-hrde2-varstep", kappa_fn=lambda t: 2.0), BG)

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_linear_system_matches_closed_forms(self, dim):
        # The system read off each derivative equals the hand-derived block
        # matrix of its coefficient row, (z, w) form or gda-ode form, q != 0.
        rng = np.random.default_rng(dim)
        op = AffineField(rng.standard_normal((dim, dim)), rng.standard_normal(dim))
        for flow_id in CONSTANT_FLOWS:
            kind = flows.make_flow(flow_id, gamma=0.3, alpha=0.4)
            system = flows.linear_system(kind, op)
            c, m = closed_form_system(kind, op)
            want = np.zeros_like(system)
            want[:-1, :-1], want[:-1, -1] = c, m
            assert np.any(m)
            np.testing.assert_allclose(system, want, rtol=1e-14,
                                       atol=1e-14 * np.abs(want).max())


@st.composite
def positive_schedules(draw):
    """kappa(t) = a (1 + b t)^p: positive, rising or falling, at most 14 on
    the horizons below; vectorized (array in, array out), as
    ``VariableStepFlow`` requires, and it checks that it is given arrays."""
    a, b = draw(st.floats(0.1, 4.0)), draw(st.floats(0.0, 1.0))
    p = draw(st.floats(-1.0, 1.0))

    def kappa(t):
        assert isinstance(t, np.ndarray)
        return a * np.power(1.0 + b * t, p)

    return kappa


class TestVariableStepMaps:
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(case=monotone_affine_cases(), kappa_fn=positive_schedules(),
           dt=st.sampled_from([0.005, 0.02, 0.1]), t0=st.sampled_from([0.0, 0.7]),
           record_every=st.integers(1, 4))
    def test_matches_rhs_path(self, case, kappa_fn, dt, t0, record_every):
        m, z_star, z0, w0 = case
        kind = flows.make_flow("ogda-hrde2-varstep", kappa_fn=kappa_fn)
        w_parts = {f"w{i}": (lambda ts, zs, ws, i=i: ws[:, i]) for i in range(len(z0))}
        for scheme in ("rk4", "euler"):
            cfg = flows.IntegratorConfig(scheme, dt, 25 * dt, record_every)
            fast, ref = (flows.integrate(kind, op(m, z_star), z0, w0, cfg, w_parts, t0)
                         for op in (AffineField, NonAffineTwin))
            assert_same_run(fast, ref, rtol=1e-12)
            for name in w_parts:
                np.testing.assert_allclose(fast.metric(name), ref.metric(name), rtol=0,
                                           atol=1e-12 * max(1.0, np.abs(ref.metric(name)).max()))

    @pytest.mark.parametrize("scheme", ["rk4", "euler"])
    @pytest.mark.parametrize("n_steps", [5, 700])  # 700 steps span three blocks at d = 2
    def test_kappa_read_at_rhs_stage_times(self, scheme, n_steps, monkeypatch):
        # The rhs path evaluates its stages at t, t + dt/2, t + dt/2 and
        # t + dt of each RK4 step.  Both paths read kappa once per block of
        # steps, as an array with one row per step and one column per
        # distinct stage time; read in order, the arrays hold exactly the
        # stage times, bit for bit, and nothing past the budget.
        dt, t0 = 0.01, 0.3
        cfg = flows.IntegratorConfig(scheme, dt, n_steps * dt)
        m, z_star = np.array([[0.5, 1.0], [-1.0, 0.0]]), np.zeros(2)
        # The rhs path's step kernel takes the time t before each step and
        # the stage values, -kappa at each distinct stage time; its stages
        # are at t, t + dt/2, t + dt/2 and t + dt.
        stage_times, stage_values = [], []
        real_each_step = flows.each_step

        def each_step(step):
            def spied(values, s, out, t):
                stage_times.extend([t] if scheme == "euler" else
                                   [t, t + 0.5 * dt, t + 0.5 * dt, t + dt])
                stage_values.append(values)
                return step(values, s, out, t)
            return real_each_step(spied)

        monkeypatch.setattr(flows, "each_step", each_step)
        calls = count_stage_fields(monkeypatch)
        columns = {"rk4": 3, "euler": 1}[scheme]
        # The maps of (z, w, 1) take 200 bytes each, so BLOCK_ROWS caps them.
        map_rows = min(opt.BLOCK_ROWS, opt.BLOCK_BYTES // (8 * 5 * 5))
        for op, rows in ((NonAffineTwin, opt.BLOCK_ROWS), (AffineField, map_rows)):
            reads = []
            kind = flows.make_flow("ogda-hrde2-varstep", kappa_fn=lambda t, reads=reads: (
                reads.append(t.copy()) or 1.0 + t))
            flows.integrate(kind, op(m, z_star), np.array([1.0, 0.0]), np.zeros(2), cfg, t0=t0)
            assert [r.shape for r in reads] == [
                (min(rows, n_steps - first), columns) for first in range(0, n_steps, rows)]
            if op is NonAffineTwin:
                assert len(stage_times) == len(calls) == flows.SCHEMES[scheme] * n_steps
                want = np.array(stage_times if scheme == "euler" else [
                    t for i, t in enumerate(stage_times) if i % 4 != 2])
                # Each stage takes the kappa = 1 + t read at its own time.
                kappas = 1.0 + np.concatenate(reads)
                assert (-np.array(stage_values)).tobytes() == kappas.tobytes()
            assert np.concatenate(reads).tobytes() == want.tobytes()

    def test_schedule_runs_under_the_callers_errstate(self):
        # The loop's arithmetic ignores overflow, but a schedule is the
        # caller's code: under the caller's "raise" its overflow raises, on
        # the maps and the rhs path alike, and ogda-varstep's schedule too.
        cfg = flows.IntegratorConfig("rk4", 0.1, 1.0)
        kind = flows.make_flow("ogda-hrde2-varstep", kappa_fn=lambda t: np.exp(800.0 + t))
        m, z_star = np.array([[0.5, 1.0], [-1.0, 0.0]]), np.zeros(2)
        varstep = opt.OGDAVariableStep(schedule=lambda n: 1.0 / np.exp(800.0 + n))
        for go in (lambda: flows.integrate(kind, AffineField(m, z_star), np.ones(2),
                                           np.zeros(2), cfg),
                   lambda: flows.integrate(kind, NonAffineTwin(m, z_star), np.ones(2),
                                           np.zeros(2), cfg),
                   lambda: opt.run(NonAffineTwin(m, z_star), varstep, np.ones(2), 5)):
            with np.errstate(all="raise"), pytest.raises(FloatingPointError):
                go()

    def test_maps_up_to_the_width_bound(self, monkeypatch):
        calls = count_stage_fields(monkeypatch)
        dim = (flows.STEP_MAP_MAX_WIDTH - 1) // 2
        assert 2 * dim + 1 == flows.STEP_MAP_MAX_WIDTH  # (z, w, 1) is exactly at the bound
        cfg = flows.IntegratorConfig("rk4", 0.1, 0.3)
        kind = flows.make_flow("ogda-hrde2-varstep", kappa_fn=lambda t: 2.0)
        for d in (dim, dim + 1):
            flows.integrate(kind, ScaledIdentity(1.0, d), np.ones(d), np.zeros(d), cfg)
            assert len(calls) == (0 if d == dim else 4 * 3)

    def test_overflowing_maps_are_divergence(self):
        # kappa = 1e300 overflows the maps as they are built; under a caller's
        # np.errstate(all="raise") that is a recorded divergence, as on the
        # rhs path.
        cfg = flows.IntegratorConfig("rk4", 0.1, 1.0)
        kind = flows.make_flow("ogda-hrde2-varstep", kappa_fn=lambda t: 1e300)
        for op in (ScaledIdentity(1.0, 2), NonAffineTwin(np.eye(2), np.zeros(2))):
            with np.errstate(all="raise"):
                traj = flows.integrate(kind, op, np.array([1.0, 0.0]), np.zeros(2), cfg)
            assert traj.diverged and np.isnan(traj.states[-1]).all()


def closed_form_system(kind, op):
    """(C, m) with d/dt (z, aux) = C (z, aux) + m on V(z) = J z + q, derived
    by hand: the reference that ``flows.linear_system`` must reproduce."""
    zero, d = np.zeros(op.dim), op.dim
    jac, q, eye = op.jacobian(zero), op.field(zero), np.eye(op.dim)
    if kind.aux_var is None:
        return -jac, -q
    c = np.empty((2 * d, 2 * d))
    if kind.aux_var == "w":
        # [[-kappa I - 2J, -kappa I], [-kappa I, -kappa I]] and m = (-2q, 0)
        (kappa,) = kind.scalars
        c[:d, :d] = -kappa * eye - 2.0 * jac
        c[:d, d:] = c[d:, :d] = c[d:, d:] = -kappa * eye
        return c, np.concatenate([-2.0 * q, zero])
    # [[0, I], [a_v J + a_jv J^2, -beta I + a_jw J]] and m = (0, a_v q + a_jv J q)
    beta, a_v, a_jv, a_jw = kind.scalars
    c[:d, :d], c[:d, d:] = 0.0, eye
    c[d:, :d] = a_v * jac + a_jv * (jac @ jac)
    c[d:, d:] = -beta * eye + a_jw * jac
    return c, np.concatenate([zero, a_v * q + a_jv * (jac @ q)])


def stepwise_integrate(kind, op, z0, aux0, cfg, t0=0.0):
    """``integrate``'s rhs path one step at a time, as the textbook loop:
    RK4 (or Euler) on ``flows.rhs`` through ``op.unchecked()``, with
    plain-float dt, coefficients and stage times t0 + n dt (+ dt/2, + dt),
    and no step after the first non-finite state.  Returns the stacked
    states (z, aux) of steps 0, 1, ... that it reached."""
    view, dim, dt = op.unchecked(), op.dim, cfg.dt
    y = np.concatenate((z0, aux0))
    states = [y]

    def f(y, t):
        return np.concatenate(flows.rhs(kind, view, y[:dim], y[dim:], t))

    with np.errstate(all="ignore"):
        for n in range(int(round(cfg.t_end / dt))):
            t = t0 + n * dt
            k1 = f(y, t)
            if cfg.scheme == "euler":
                y = y + dt * k1
            else:
                k2 = f(y + (0.5 * dt) * k1, t + 0.5 * dt)
                k3 = f(y + (0.5 * dt) * k2, t + 0.5 * dt)
                k4 = f(y + dt * k3, t + dt)
                y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states.append(y)
            if not np.isfinite(y).all():
                break
    return np.array(states)


def assert_integrate_is_stepwise(kind, op, z0, aux0, cfg, t0):
    """``integrate`` records the states, memory, times and query counts of
    ``stepwise_integrate`` bit for bit, stops at the same first non-finite
    state and NaN-pads the records after it."""
    dim = op.dim
    if kind.aux_var is None:
        aux0 = np.zeros(0)
    seen = []
    traj = flows.integrate(kind, op, z0, aux0, cfg, t0=t0, extra_metrics={
        "aux": lambda ts, zs, auxs: seen.append(auxs) or np.zeros(len(ts))})
    states = stepwise_integrate(kind, op, z0, aux0, cfg, t0)
    reached = len(states)
    assert traj.states[:reached].tobytes() == states[:, :dim].tobytes()
    assert np.isnan(traj.states[reached:]).all()
    # The monitors see the memory of every record whose z is finite.
    assert seen[0].tobytes() == states[np.isfinite(states[:, :dim]).all(axis=1), dim:].tobytes()
    finite = np.isfinite(states).all(axis=1)
    done = np.minimum(traj.steps, reached - 1)
    np.testing.assert_array_equal(traj.queries, flows.SCHEMES[cfg.scheme] * done)
    np.testing.assert_array_equal(traj.times, t0 + done * cfg.dt)
    with np.errstate(all="ignore"):
        norms = np.sqrt((states[:, :dim] ** 2).sum(axis=1))
    assert traj.diverged == (not finite[-1] or bool((norms > opt.DIVERGENCE_GUARD).any()))
    return traj, reached


def _power_law_kappa(gamma):
    return lambda t: np.power(1.0 + t, 0.3) / gamma


class TestRhsPathIsStepwise:
    """The rhs path of ``integrate`` (preallocated stage rows, 0-d RK4
    constants, one finiteness test per block) against the per-step loop,
    for every flow on the two non-affine fields."""

    @pytest.mark.parametrize("flow_id", flows.FLOW_IDS)
    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(z0=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
           aux0=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
           gamma=st.floats(0.2, 2.0), dt=st.sampled_from([0.001, 0.01, 0.05]),
           scheme=st.sampled_from(sorted(flows.SCHEMES)), t0=st.sampled_from([0.0, 0.7]))
    # V(z0) = 4 z0^3 is finite, and every flow's first non-finite state is
    # one of steps 2 to 11: inside the first block of 256 steps, whose later
    # steps the rhs path computes too and discards.
    @example(z0=[100.0, 0.5], aux0=[0.0, 0.0], gamma=0.5, dt=0.01, scheme="rk4", t0=0.0)
    @example(z0=[100.0, 0.5], aux0=[0.0, 0.0], gamma=0.5, dt=0.01, scheme="euler", t0=0.0)
    def test_quartic(self, flow_id, z0, aux0, gamma, dt, scheme, t0):
        kind = flows.make_flow(flow_id, gamma=gamma, kappa_fn=_power_law_kappa(gamma))
        cfg = flows.IntegratorConfig(scheme, dt, 40 * dt)
        traj, reached = assert_integrate_is_stepwise(
            kind, QuarticCounterexample(), np.array(z0), np.array(aux0), cfg, t0)
        if z0 == [100.0, 0.5]:
            assert traj.diverged and 2 < reached < 41

    @pytest.mark.parametrize("flow_id", flows.FLOW_IDS)
    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(case=monotone_affine_cases(), gamma=st.floats(0.2, 2.0),
           dt=st.sampled_from([0.001, 0.01, 0.05]), scheme=st.sampled_from(sorted(flows.SCHEMES)),
           t0=st.sampled_from([0.0, 0.7]))
    def test_non_affine_twin(self, flow_id, case, gamma, dt, scheme, t0):
        m, z_star, z0, aux0 = case
        kind = flows.make_flow(flow_id, gamma=gamma, kappa_fn=_power_law_kappa(gamma))
        cfg = flows.IntegratorConfig(scheme, dt, 40 * dt)
        assert_integrate_is_stepwise(kind, NonAffineTwin(m, z_star), z0, aux0, cfg, t0)


class TestStageKernel:
    """The work of the rhs path's stage kernel, counted at the operator's
    hooks: it evaluates ``_field`` and ``_jvp`` itself, once per term."""

    def test_rk4_stage_evaluations(self, monkeypatch):
        # ogda-hrde has one J omega term and no J V term.  The start is an
        # array and the quartic's Recorder.finish evaluates its own stacked
        # field, so every hook call is a stage's.
        op, n = QuarticCounterexample(), 50
        calls = count_hook_calls(monkeypatch, QuarticCounterexample, ("_field", "_jvp"))
        forbid(monkeypatch, flows, "rhs")
        forbid(monkeypatch, Operator, "field_unchecked")
        cfg = flows.IntegratorConfig("rk4", 0.01, n * 0.01)
        traj = flows.integrate(flows.make_flow("ogda-hrde", gamma=0.5), op,
                               np.array([0.3, -0.7]), np.zeros(2), cfg)
        assert traj.steps[-1] == n and not traj.diverged
        stages = 4 * n  # four RK4 stages per step
        assert calls == {"_field": stages, "_jvp": stages}

    def test_variable_kappa_builds_no_flow(self, monkeypatch):
        # Each stage takes its -kappa as a value: no constant-kappa row per stage.
        kind, built = flows.make_flow("ogda-hrde2-varstep", kappa_fn=_power_law_kappa(0.5)), []
        real = flows._optimistic_row
        monkeypatch.setattr(flows, "_optimistic_row",
                            lambda *row: built.append(row) or real(*row))
        traj = flows.integrate(kind, QuarticCounterexample(), np.array([0.3, -0.7]), np.zeros(2),
                               flows.IntegratorConfig("rk4", 0.01, 0.5))
        assert traj.steps[-1] == 50 and not built
        flows.make_flow("ogda-hrde2", gamma=0.5)
        assert len(built) == 1  # the spy sees a construction


#: Flow id -> the flow at gamma = 0.5, for every flow that carries an aux.
AUX_FLOWS = {fid: flows.make_flow(fid, gamma=0.5, kappa_fn=lambda t: 2.0 + t)
             for fid in flows.FLOW_IDS if fid != "gda-ode"}


class TestRhsChecks:
    """One rule for every flow: through an Operator, z and aux are checked;
    through its unchecked view, nothing is."""

    @pytest.mark.parametrize("flow_id", AUX_FLOWS)
    def test_non_finite_aux_raises_through_the_operator(self, flow_id):
        op = QuarticCounterexample()
        for z, aux in (([0.3, 0.2], [np.inf, 0.0]), ([0.3, 0.2], [0.0, np.nan]),
                       ([np.inf, 0.2], [0.0, 0.0])):
            with pytest.raises(NonFiniteError, match="state contains non-finite"):
                flows.rhs(AUX_FLOWS[flow_id], op, np.array(z), np.array(aux))
        with pytest.raises(ValueError, match="dimension mismatch"):
            flows.rhs(AUX_FLOWS[flow_id], op, np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("flow_id", AUX_FLOWS)
    def test_view_checks_nothing(self, flow_id, monkeypatch):
        op = QuarticCounterexample()
        z, aux = np.array([0.3, 0.2]), np.array([np.inf, 0.0])

        def no_check(*args):
            raise AssertionError("as_state called through the unchecked view")

        monkeypatch.setattr(flows, "as_state", no_check)
        with np.errstate(all="ignore"):
            dz, daux = flows.rhs(AUX_FLOWS[flow_id], op.unchecked(), z, aux)
        assert dz.shape == daux.shape == (2,)
        assert not np.isfinite(np.concatenate((dz, daux))).all()


def _game(shape, seed, shifted=False):
    """A bilinear game of ``shape``; with b = -A y* and c = -A^T x*, so
    that its solution (x*, y*) is not the origin, if ``shifted``."""
    if not shifted:
        return random_bilinear(seed, *shape)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape)
    return BilinearGame(a, -a @ rng.standard_normal(shape[1]), -a.T @ rng.standard_normal(shape[0]))


def _modes_and_dense(monkeypatch, kind, op, z0, aux0, cfg):
    """The run by modes, which must be taken, and the same run by the dense map."""
    taken, mode_step = [], flows._mode_step
    monkeypatch.setattr(flows, "_mode_step", lambda *a: taken.append(1) or mode_step(*a))
    modes = flows.integrate(kind, op, z0, aux0, cfg)
    assert taken == [1]
    with monkeypatch.context() as patch:
        patch.setattr(flows, "MODE_MIN_WIDTH", 10 ** 9)
        return modes, flows.integrate(kind, op, z0, aux0, cfg)


def _assert_close(got, want, rtol=1e-12):
    """Within ``rtol`` of the largest entry of ``want``."""
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


#: (d1, d2) with a state (z, omega, 1) or (z, w, 1) at least MODE_MIN_WIDTH
#: wide, and those for gda-ode's (z, 1).
_MODE_SHAPES = {"square": ((50, 50), (100, 100)), "tall": ((60, 40), (110, 90)),
                "wide": ((40, 60), (90, 110))}


class TestModePath:
    """A wide bilinear game is stepped per singular mode, in its singular
    basis (``flows._mode_step``), and gives the dense map's run up to the
    last bits."""

    @pytest.mark.parametrize("scheme", ["rk4", "euler"])
    @pytest.mark.parametrize("shape, shifted", [("square", False), ("tall", False),
                                                ("wide", True)])
    def test_matches_dense_path(self, monkeypatch, scheme, shape, shifted):
        for flow_id in CONSTANT_FLOWS:
            kind = flows.make_flow(flow_id, gamma=0.5, alpha=0.3)
            op = _game(_MODE_SHAPES[shape][kind.aux_var is None], 7, shifted)
            rng = np.random.default_rng(1)
            z0, aux0 = rng.standard_normal((2, op.dim))
            assert flows.MODE_MIN_WIDTH <= op.dim * (1 + bool(kind.aux_var)) + 1
            cfg = flows.IntegratorConfig(scheme, 0.01, 0.5)
            modes, dense = _modes_and_dense(monkeypatch, kind, op, z0, aux0, cfg)
            np.testing.assert_array_equal(modes.times, dense.times)
            np.testing.assert_array_equal(modes.queries, dense.queries)
            assert not modes.diverged and not dense.diverged
            _assert_close(modes.states, dense.states)
            for name, column in dense.metrics.items():
                _assert_close(modes.metric(name), column)

    def test_thinning_is_the_sliced_run(self):
        game = _game((50, 50), 3)
        z0, aux0 = np.random.default_rng(2).standard_normal((2, game.dim))
        for flow_id in CONSTANT_FLOWS[:-1]:  # gda-ode is too narrow here
            kind = flows.make_flow(flow_id, gamma=0.5, alpha=0.3)
            thin, full = (flows.integrate(kind, game, z0, aux0,
                                          flows.IntegratorConfig("rk4", 0.01, 0.5, every))
                          for every in (7, 1))
            assert thin.states.tobytes() == full.states[thin.steps].tobytes()
            for name, column in full.metrics.items():
                assert thin.metric(name).tobytes() == column[thin.steps].tobytes()

    @pytest.mark.parametrize("scheme, t_end", [("rk4", 20.0), ("euler", 40.0)])
    def test_blow_up_matches_dense_path(self, monkeypatch, scheme, t_end):
        # dt*beta = 20 lies outside both schemes' stability regions: both
        # paths overflow, within a step of each other, and trip the guard at
        # the same step.
        game = _game((50, 50), 5)
        z0 = np.random.default_rng(3).standard_normal(game.dim)
        kind = flows.make_flow("gda-hrde", gamma=0.01)
        cfg = flows.IntegratorConfig(scheme, 0.1, t_end)
        modes, dense = _modes_and_dense(monkeypatch, kind, game, z0, np.zeros(game.dim), cfg)

        def first(flags):
            assert flags.any()
            return int(np.argmax(flags))

        assert modes.diverged and dense.diverged
        stops = [first(~np.isfinite(t.states).all(axis=1)) for t in (modes, dense)]
        assert abs(stops[0] - stops[1]) <= 1
        guards = [first(t.metric("z_norm") > opt.DIVERGENCE_GUARD) for t in (modes, dense)]
        assert guards[0] == guards[1] > 0
        head = min(guards) + 1
        _assert_close(modes.states[:head], dense.states[:head])

    def test_lyapunov_report_matches_dense_path(self, monkeypatch, tmp_path):
        # The monitors read the omega rows, which the mode path writes back.
        argv = ["lyapunov", "--seed", "4", "--set", "problem.id=bilinear-random",
                "--set", 'problem.params={"d1": 50, "d2": 50}', "--set", "mode=hrde",
                "--set", "method.id=ogda-hrde", "--set", "method.gamma=0.5",
                "--set", "budget.t_end=0.5", "--set", "budget.dt=0.005",
                "--set", 'lyapunov=["ogda_l1", "ogda_l2"]']
        taken, mode_step = [], flows._mode_step
        monkeypatch.setattr(flows, "_mode_step", lambda *a: taken.append(1) or mode_step(*a))
        assert cli.main([*argv, "--out", str(tmp_path / "modes")]) == 0
        assert taken == [1]
        monkeypatch.setattr(flows, "MODE_MIN_WIDTH", 10 ** 9)
        assert cli.main([*argv, "--out", str(tmp_path / "dense")]) == 0
        assert taken == [1]
        (modes, dense) = (np.genfromtxt(tmp_path / run / "run.csv", delimiter=",", names=True)
                          for run in ("modes", "dense"))
        assert modes.dtype.names == dense.dtype.names and "lyap_ogda_l1" in dense.dtype.names
        for name in dense.dtype.names:
            _assert_close(modes[name], dense[name])
        reports = [json.loads((tmp_path / run / "run.json").read_text())["lyapunov"]
                   for run in ("modes", "dense")]
        assert reports[0].keys() == reports[1].keys() == {"ogda_l1", "ogda_l2"}
        for kind, report in reports[1].items():
            assert reports[0][kind]["violations"] == report["violations"] == []
            scale = np.abs(dense[f"lyap_{kind}"]).max()
            assert abs(reports[0][kind]["max_increase"] - report["max_increase"]) <= 1e-12 * scale

    def test_other_states_keep_their_paths(self, monkeypatch):
        forbid(monkeypatch, flows, "_mode_step")
        maps, rhs_steps = [], []
        scheme_map, rhs_step = flows._scheme_map, flows._rhs_step
        monkeypatch.setattr(flows, "_scheme_map", lambda kind, op, cfg: (
            maps.append(op) or scheme_map(kind, op, cfg)))
        monkeypatch.setattr(flows, "_rhs_step", lambda *a: rhs_steps.append(a[1]) or rhs_step(*a))
        cfg = flows.IntegratorConfig("rk4", 0.01, 0.05)
        phase, ode = flows.make_flow("ogda-hrde", gamma=0.5), flows.make_flow("gda-ode")
        below = (flows.MODE_MIN_WIDTH - 1) // 2 - 1  # (z, omega, 1) two short of the width
        dense_cases = [(phase, _game((below // 2, below - below // 2), 1)),
                       (ode, _game((50, 50), 1)),
                       (ode, _game((60, flows.MODE_MIN_WIDTH - 62), 1)),
                       (phase, ScaledIdentity(1.0, 100))]
        for kind, op in dense_cases:
            flows.integrate(kind, op, np.ones(op.dim), np.zeros(op.dim), cfg)
            assert maps[-1] is op
        varstep = flows.make_flow("ogda-hrde2-varstep", kappa_fn=lambda t: 2.0 + t)
        game = _game((50, 50), 1)
        flows.integrate(varstep, game, np.ones(game.dim), np.zeros(game.dim), cfg)
        assert rhs_steps == [game] and len(maps) == len(dense_cases)

    def test_taken_from_the_width_on(self, monkeypatch):
        taken, mode_step = [], flows._mode_step
        monkeypatch.setattr(flows, "_mode_step", lambda kind, op, *a: (
            taken.append(op) or mode_step(kind, op, *a)))
        cfg = flows.IntegratorConfig("euler", 0.01, 0.02)
        half = (flows.MODE_MIN_WIDTH - 1) // 2
        assert 2 * half + 1 == flows.MODE_MIN_WIDTH  # (z, omega, 1) is exactly at the width
        cases = [(flows.make_flow("eg-hrde", gamma=0.5), _game((half // 2, half - half // 2), 2)),
                 (flows.make_flow("gda-ode"), _game((half, 2 * half - half), 2))]
        for kind, op in cases:
            flows.integrate(kind, op, np.ones(op.dim), np.zeros(op.dim), cfg)
        assert taken == [op for _, op in cases]


class TestSingularBlockSpectra:
    """Every constant flow's linear system on a bilinear game is, in the
    singular basis, one block per mode: the stacked read-off of the flow's
    own formula (``linear_system`` on ``BilinearGame.singular_blocks``)."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), d1=st.integers(1, 4), d2=st.integers(1, 4),
           gamma=st.floats(0.05, 10.0), alpha=st.floats(0.1, 1.0))
    def test_blocks_give_the_whole_game_spectrum(self, seed, d1, d2, gamma, alpha):
        game = random_bilinear(seed, d1, d2)
        blocks = game.singular_blocks[2]
        side = 0 if d1 > d2 else 1  # an unpaired mode's coordinate: x (rows 0, 2) or y
        for flow_id in CONSTANT_FLOWS:
            kind = flows.make_flow(flow_id, gamma=gamma, alpha=alpha)
            stack = flows.linear_system(kind, blocks)[:, :-1, :-1]
            assert stack.shape[0] == max(d1, d2)
            # A sigma = 0 mode keeps its one real coordinate, not the zero padding.
            got = np.concatenate([np.linalg.eigvals(c if i < min(d1, d2) else
                                                    c[side::2, side::2])
                                  for i, c in enumerate(stack)])
            want = np.linalg.eigvals(flows.linear_system(kind, game)[:-1, :-1])
            assert len(got) == len(want)
            tol = 1e-8 * max(1.0, np.abs(want).max())
            unused = list(got)
            for value in want:  # nearest unused block eigenvalue, one for one
                i = int(np.argmin(np.abs(np.array(unused) - value)))
                assert abs(unused.pop(i) - value) <= tol, (flow_id, value)
