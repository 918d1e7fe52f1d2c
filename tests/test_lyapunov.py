"""Tests for the Lyapunov functionals and decrease monitors."""

import numpy as np
import pytest

from saddleflow import flows, lyapunov as lyap, optimizers as opt
from saddleflow.problems import (
    BilinearGame,
    QuarticCounterexample,
    ScaledIdentity,
    random_bilinear,
)

BG = BilinearGame([[1.0]])
SI = ScaledIdentity(1.0, 2)
MONOTONE_CATALOG = [BG, random_bilinear(11, 2, 2, 0.1), QuarticCounterexample(), SI]


def _params_for(kind):
    return {"beta": 2.0, "kappa": 1.0, "gamma": 0.1}


class TestEvaluation:
    def test_full_functional_at_rest(self):
        # omega = 0: value = beta^2 |z|^2 + 4 beta z.V + 2 |V|^2.
        val = lyap.evaluate("ogda_l", SI, [1.0, 0.0], [0.0, 0.0], beta=2.0)
        assert val == pytest.approx(14.0)

    def test_zero_at_solution(self):
        z, aux = np.zeros(2), np.zeros(2)
        for kind in lyap.KINDS:
            val = lyap.evaluate(kind, SI, z, aux, **_params_for(kind))
            assert val == 0.0

    def test_l5_hand_value(self):
        val = lyap.evaluate("ogda_l5", SI, [1.0, 0.0], [-1.4, 0.0], gamma=0.1)
        assert val == pytest.approx(5.80)

    def test_split_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            z, w = rng.standard_normal(2), rng.standard_normal(2)
            full = lyap.evaluate("ogda_l", BG, z, w, beta=2.0)
            l1 = lyap.evaluate("ogda_l1", BG, z, w, beta=2.0)
            l2 = lyap.evaluate("ogda_l2", BG, z, w)
            assert abs(full - 2.0 * l1 - 2.0 * l2) <= 1e-12 * max(1.0, abs(full))

    def test_positivity_off_solution(self):
        # 100 seeded non-solution states per (problem, kind) pair.
        rng = np.random.default_rng(1)
        for op in MONOTONE_CATALOG:
            for kind in lyap.KINDS:
                for _ in range(100):
                    z = rng.standard_normal(op.dim)
                    aux = rng.standard_normal(op.dim)
                    val = lyap.evaluate(kind, op, z, aux, **_params_for(kind))
                    assert val > 0.0

    def test_missing_scale_rejected(self):
        with pytest.raises(ValueError, match="requires beta"):
            lyap.evaluate("ogda_l1", SI, [1.0, 0.0], [0.0, 0.0])

    def test_nan_scale_rejected(self):
        with pytest.raises(ValueError, match="beta must be positive"):
            lyap.evaluate("ogda_l1", SI, [1.0, 0.0], [0.0, 0.0], beta=np.nan)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown lyapunov kind"):
            lyap.evaluate("nope", SI, [1.0, 0.0], [0.0, 0.0])


class TestAnalyticRates:
    def test_bilinear_rate_is_minus_beta_omega_sq(self):
        rate = lyap.analytic_decrease_rate("ogda_l1", BG, [1.0, 0.0], [1.0, 1.0], beta=2.0)
        assert rate == pytest.approx(-4.0)

    def test_zero_at_solution(self):
        assert lyap.analytic_decrease_rate("ogda_l1", SI, [0.0, 0.0], [0.0, 0.0],
                                           beta=2.0) == 0.0

    def test_l3_hand_value(self):
        rate = lyap.analytic_decrease_rate("ogda2_l3", SI, [1.0, 0.0], [-1.0, 0.0], kappa=1.0)
        assert rate == pytest.approx(-4.0)

    def test_nonpositive_on_monotone_catalog(self):
        rng = np.random.default_rng(2)
        for op in MONOTONE_CATALOG:
            for kind, params in [("ogda_l1", {"beta": 2.0}), ("ogda_l2", {"beta": 2.0}),
                                 ("ogda2_l3", {"kappa": 1.0}), ("ogda2_l4", {"kappa": 1.0})]:
                for _ in range(25):
                    z = rng.standard_normal(op.dim)
                    aux = rng.standard_normal(op.dim)
                    assert lyap.analytic_decrease_rate(kind, op, z, aux, **params) <= 1e-12

    def test_chain_rule_consistency(self):
        # The closed forms must equal d/dt of the functional along the flow.
        rng = np.random.default_rng(3)
        cases = [
            ("ogda_l1", {"beta": 2.0}), ("ogda_l2", {"beta": 2.0}),
            ("ogda2_l3", {"kappa": 1.0}), ("ogda2_l4", {"kappa": 1.0}),
        ]
        for op in (BG, SI, QuarticCounterexample()):
            for kind, params in cases:
                if kind.startswith("ogda2"):
                    flow = flows.make_flow("ogda-hrde2", gamma=1.0 / params["kappa"])
                else:
                    flow = flows.ogda_flow(params["beta"])
                for _ in range(100 // 3):
                    z = 0.5 * rng.standard_normal(op.dim)
                    aux = 0.5 * rng.standard_normal(op.dim)
                    dz, daux = flows.rhs(flow, op, z, aux)
                    eps = 1e-6

                    def along(s):
                        return lyap.evaluate(kind, op, z + s * dz, aux + s * daux, **params)

                    fd = (along(eps) - along(-eps)) / (2 * eps)
                    analytic = lyap.analytic_decrease_rate(kind, op, z, aux, **params)
                    assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(analytic), abs(fd))

    def test_unsupported_kind(self):
        with pytest.raises(ValueError, match="closed-form"):
            lyap.analytic_decrease_rate("ogda_l5", SI, [1.0, 0.0], [0.0, 0.0])

    def test_nan_scale_rejected(self):
        with pytest.raises(ValueError, match="beta must be positive"):
            lyap.analytic_decrease_rate("ogda_l1", SI, [1.0, 0.0], [0.0, 0.0], beta=np.nan)


class TestContinuousDecrease:
    def test_flow_monitors_never_increase(self):
        cfg = flows.IntegratorConfig("rk4", 1e-4, 2.0, record_every=10)
        for op in (BG, SI):
            mons = {
                "lyap_ogda_l1": lyap.make_monitor("ogda_l1", op, beta=2.0),
                "lyap_ogda_l2": lyap.make_monitor("ogda_l2", op, beta=2.0),
            }
            traj = flows.integrate(flows.ogda_flow(2.0), op, np.array([1.0, 0.0]),
                                   np.zeros(2), cfg, extra_metrics=mons)
            for name in mons:
                report = lyap.continuous_decrease_check(traj.metric(name), tol_abs=1e-7)
                assert report.ok, (op.label, name, report.max_increase)

    def test_jacobian_free_monitors_never_increase(self):
        cfg = flows.IntegratorConfig("rk4", 1e-4, 2.0, record_every=10)
        for op in (BG, SI):
            w0 = flows.ogda2_w_from_omega(op, np.array([1.0, 0.0]), np.zeros(2), 1.0)
            mons = {
                "lyap_ogda2_l3": lyap.make_monitor("ogda2_l3", op),
                "lyap_ogda2_l4": lyap.make_monitor("ogda2_l4", op, kappa=1.0),
            }
            flow = flows.make_flow("ogda-hrde2", gamma=1.0)
            traj = flows.integrate(flow, op, np.array([1.0, 0.0]), w0, cfg, extra_metrics=mons)
            for name in mons:
                report = lyap.continuous_decrease_check(traj.metric(name), tol_abs=1e-7)
                assert report.ok, (op.label, name, report.max_increase)

    def test_constant_zero_trajectory(self):
        report = lyap.continuous_decrease_check(np.zeros(100))
        assert report.ok

    def test_violation_detected(self):
        report = lyap.continuous_decrease_check([1.0, 0.5, 0.8, 0.2])
        assert report.violations == [1]
        assert report.max_increase == pytest.approx(0.3)


class TestDiscreteDecrease:
    def test_l5_first_step_bound(self):
        gamma = 1.0 / 16.0
        deltas, bounds = lyap.l5_decrease_sweep(SI, np.array([1.0, 0.0]), gamma, 1)
        assert bounds[0] == pytest.approx(-2.0 * gamma ** 2)
        assert deltas[0] <= bounds[0] + 1e-12

    def test_l5_solution_state(self):
        delta, bound = lyap.discrete_l5_difference(SI, np.zeros(2), np.zeros(2),
                                                   np.zeros(2), 0.1)
        assert delta == 0.0 and bound == 0.0

    def test_l5_sweep_500_steps(self):
        for op in (BG, SI):
            deltas, bounds = lyap.l5_decrease_sweep(op, np.array([1.0, 0.0]), 1 / 16, 500)
            assert np.all(deltas <= bounds + 1e-12)

    def test_implicit_functionals_decrease(self):
        for op, gamma, steps in ((SI, 0.5, 50), (BG, 0.2, 200)):
            z, om = np.array([1.0, 0.0]), np.zeros(2)
            for _ in range(steps):
                zn, on, _ = opt.step_ogda_implicit(op, z, om, gamma)
                d1, d2 = lyap.discrete_implicit_decrease(op, (z, om), (zn, on), gamma)
                assert d1 <= 1e-10 and d2 <= 1e-10
                z, om = zn, on

    def test_implicit_nan_gamma_rejected(self):
        state = (np.array([1.0, 0.0]), np.zeros(2))
        with pytest.raises(ValueError, match="gamma must be positive"):
            lyap.discrete_implicit_decrease(SI, state, state, np.nan)

    def test_implicit_solution_state(self):
        d1, d2 = lyap.discrete_implicit_decrease(SI, (np.zeros(2), np.zeros(2)),
                                                 (np.zeros(2), np.zeros(2)), 0.5)
        assert d1 == 0.0 and d2 == 0.0


class TestVarstep:
    def test_constant_schedule(self):
        assert lyap.varstep_precondition(lambda t: 2.0, 1.0, (0.0, 2.0))

    def test_sqrt_schedule(self):
        assert lyap.varstep_precondition(lambda t: np.sqrt(t), 1.0, (0.01, 10.0))

    def test_quadratic_schedule_fails(self):
        assert not lyap.varstep_precondition(lambda t: t * t, 0.1, (0.5, 2.0))

    def test_nan_mu_rejected(self):
        with pytest.raises(ValueError, match="mu must be nonnegative"):
            lyap.varstep_precondition(lambda t: 2.0, np.nan, (0.0, 2.0))

    def test_monitor_decreases_under_precondition(self):
        cases = [
            (SI, 1.0, lambda t: np.sqrt(2.0 + t)),
            (BG, 0.0, lambda t: 2.0 / np.sqrt(1.0 + 0.05 * t)),
        ]
        for op, mu, beta_fn in cases:
            assert lyap.varstep_precondition(beta_fn, mu, (0.0, 2.0))
            kind = flows.VariableStepFlow(lambda t, b=beta_fn: 0.5 * b(t))
            mons = {"lyap": lyap.make_monitor("varstep_l", op, beta_fn=beta_fn)}
            cfg = flows.IntegratorConfig("rk4", 1e-3, 2.0)
            traj = flows.integrate(kind, op, np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                                   cfg, extra_metrics=mons)
            report = lyap.continuous_decrease_check(traj.metric("lyap"), tol_abs=1e-7)
            assert report.ok, (op.label, report.max_increase)
