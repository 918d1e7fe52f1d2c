"""Tests for the Lyapunov functionals and decrease monitors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_cases import NonAffineTwin
from saddleflow import flows, lyapunov as lyap, optimizers as opt
from saddleflow.problems import (
    BilinearGame,
    NonFiniteError,
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


#: Stacked-evaluation problems: bilinear games at d = 4 and d = 100 (one of
#: them shifted off the origin), the scaled identity and the quartic.
STACK_PROBLEMS = [
    random_bilinear(3, 2, 2),
    BilinearGame(np.random.default_rng(4).standard_normal((2, 2)), b=[0.5, -1.0], c=[2.0, 0.25]),
    random_bilinear(5, 50, 50),
    ScaledIdentity(1.7, 3),
    QuarticCounterexample(),
]


class TestStackedEvaluation:
    @pytest.mark.parametrize("d", [2, 4, 16, 33, 100, 201])
    def test_row_dots_match_vector_dots(self, d):
        rng = np.random.default_rng(d)
        xs, ys = rng.standard_normal((2, 50, d)) * rng.lognormal(0.0, 4.0, (2, 50, 1))
        dots = opt.row_dots(xs, ys)
        assert dots.shape == (50,)
        assert dots.tobytes() == np.array([x @ y for x, y in zip(xs, ys)]).tobytes()

    @pytest.mark.parametrize("op", STACK_PROBLEMS, ids=lambda op: f"{op.label}-{op.dim}")
    @pytest.mark.parametrize("kind", list(lyap.KINDS))
    def test_stack_matches_rows_bit_for_bit(self, op, kind):
        rng = np.random.default_rng(op.dim)
        zs, auxs = rng.standard_normal((2, 9, op.dim))
        stacked = lyap.evaluate(kind, op, zs, auxs, **_params_for(kind))
        rows = [lyap.evaluate(kind, op, z, a, **_params_for(kind)) for z, a in zip(zs, auxs)]
        assert stacked.shape == (9,)
        assert stacked.tobytes() == np.array(rows).tobytes()

    @pytest.mark.parametrize("op", STACK_PROBLEMS, ids=lambda op: f"{op.label}-{op.dim}")
    def test_beta_array_matches_rows(self, op):
        rng = np.random.default_rng(7)
        zs, auxs = rng.standard_normal((2, 6, op.dim))
        betas = rng.uniform(0.1, 5.0, 6)
        for kind, row in lyap.KINDS.items():
            if row.scale not in ("beta", "beta(t)"):
                continue
            stacked = lyap.evaluate(kind, op, zs, auxs, beta=betas)
            rows = [lyap.evaluate(kind, op, z, a, beta=b) for z, a, b in zip(zs, auxs, betas)]
            assert stacked.tobytes() == np.array(rows).tobytes(), kind

    def test_overflowing_field_gives_inf(self):
        # V(z) = 4 z^3 overflows at z = 1e150: one finite state gives inf
        # as a stack row does, with no warning, under any errstate.
        op, z, aux = QuarticCounterexample(), np.array([1e150, 0.5]), np.zeros(2)
        with np.errstate(all="raise"):
            one = lyap.evaluate("ogda_l1", op, z, aux, beta=4.0)
            rate = lyap.analytic_decrease_rate("ogda_l1", op, z, aux, beta=4.0)
            values = lyap.evaluate("ogda_l1", op, np.array([z, [0.5, 0.5]]),
                                   np.zeros((2, 2)), beta=4.0)
        assert type(one) is float and np.isinf(one) and np.isinf(values[0])
        assert not np.isfinite(rate)
        assert values[1] == lyap.evaluate("ogda_l1", op, [0.5, 0.5], aux, beta=4.0)

    def test_underflowing_field_is_finite(self):
        # V(z) = 4 z^3 underflows at z = (1e-100, 1e-200): evaluated under
        # "ignore", as Recorder.finish evaluates the monitors, it is a tiny
        # finite value, not a FloatingPointError.
        op, z, aux = QuarticCounterexample(), np.array([1e-100, 1e-200]), np.zeros(2)
        want = lyap.evaluate("ogda_l1", op, z, aux, beta=2.0)
        with np.errstate(all="raise"):
            one = lyap.evaluate("ogda_l1", op, z, aux, beta=2.0)
            rate = lyap.analytic_decrease_rate("ogda_l1", op, z, aux, beta=2.0)
        assert one == want and np.isfinite(one) and np.isfinite(rate)

    @pytest.mark.parametrize("z, aux", [([np.nan, 0.5], [0.0, 0.0]), ([0.5, 0.5], [np.inf, 0.0])],
                             ids=["z", "aux"])
    def test_non_finite_state_raises(self, z, aux):
        # The input state, unlike what is computed from it, must be finite.
        with pytest.raises(NonFiniteError, match="non-finite"):
            lyap.evaluate("ogda_l1", QuarticCounterexample(), z, aux, beta=4.0)
        with pytest.raises(NonFiniteError, match="non-finite"):
            lyap.analytic_decrease_rate("ogda_l1", QuarticCounterexample(), z, aux, beta=4.0)

    @pytest.mark.parametrize("zs, auxs, beta, match", [
        (np.zeros((3, 3)), np.zeros((3, 3)), 2.0, r"\(n, 2\) stack"),
        (np.zeros((3, 2)), np.zeros((2, 2)), 2.0, "aux has 2 rows, expected 3"),
        (np.zeros((3, 2)), np.zeros(2), 2.0, r"\(n, 2\) stack"),
        (np.zeros((3, 2)), np.zeros((3, 2)), np.ones(2), "number or an array of 3"),
        (np.zeros((3, 2)), np.zeros((3, 2)), np.array([1.0, 0.0, 1.0]), "beta must be positive"),
        (np.zeros((3, 2)), np.zeros((3, 2)), np.array([1.0, np.nan, 1.0]), "beta must be positive"),
        (np.zeros((3, 2)), np.zeros((3, 2)), None, "requires beta"),
    ])
    def test_stack_misuse_rejected(self, zs, auxs, beta, match):
        with pytest.raises(ValueError, match=match):
            lyap.evaluate("ogda_l1", SI, zs, auxs, beta=beta)

    def test_beta_fn_read_once_per_record_time(self):
        seen = []

        def beta_fn(t):
            seen.append(t)
            return 2.0 + t

        ts = np.array([0.0, 0.5, 1.25])
        zs, ws = np.random.default_rng(2).standard_normal((2, 3, 2))
        values = lyap.make_monitor("varstep_l", SI, beta_fn=beta_fn)(ts, zs, ws)
        assert seen == [0.0, 0.5, 1.25] and all(type(t) is float for t in seen)
        expected = [lyap.evaluate("varstep_l", SI, z, w, beta=2.0 + t)
                    for t, z, w in zip(ts, zs, ws)]
        assert values.tobytes() == np.array(expected).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_monitored_divergence_under_any_errstate(self):
        # gamma = 3 diverges: the states overflow, and the monitor's squares
        # overflow before them.  The monitored run records the same columns
        # under the default errstate and under "raise".
        op = BilinearGame([[1.0]])

        def go():
            return opt.run(op, opt.OGDAStateSpace(3.0), [1, 0], 800,
                           extra_metrics={"l5": lyap.make_monitor("ogda_l5", op, gamma=3.0)})

        ref = go()
        with np.errstate(all="raise"):
            raised = go()
        assert ref.diverged and raised.diverged
        assert np.isinf(ref.metric("l5")).any() and np.isfinite(ref.metric("l5")[0])
        for name in ref.metrics:
            assert raised.metric(name).tobytes() == ref.metric(name).tobytes(), name


def _dense_jac_quad(op, zs, xs):
    """x.J(z)x row by row through the dense Jacobian: the reference for the
    library's Jacobian-vector form."""
    quads = [x @ (op._jacobian(z) @ x) for z, x in zip(zs, xs)]
    return np.array(quads).reshape(len(zs), 1)


class TestAnalyticRates:
    @pytest.mark.parametrize("op", STACK_PROBLEMS, ids=lambda op: f"{op.label}-{op.dim}")
    @pytest.mark.parametrize("kind", [k for k, row in lyap.KINDS.items() if row.rate])
    def test_stack_matches_rows_bit_for_bit(self, op, kind):
        # The flow's scale, one value per row: beta on (z, omega), kappa on (z, w).
        name = "beta" if lyap.KINDS[kind].aux_var == "omega" else "kappa"
        rng = np.random.default_rng(op.dim + 1)
        zs, auxs = rng.standard_normal((2, 9, op.dim))
        scales = rng.uniform(0.1, 5.0, 9)
        stacked = lyap.analytic_decrease_rate(kind, op, zs, auxs, **{name: scales})
        rows = [lyap.analytic_decrease_rate(kind, op, z, a, **{name: s})
                for z, a, s in zip(zs, auxs, scales)]
        assert stacked.shape == (9,)
        assert stacked.tobytes() == np.array(rows).tobytes()
        empty = lyap.analytic_decrease_rate(kind, op, zs[:0], auxs[:0], **{name: 1.0})
        assert empty.shape == (0,)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(range(6)),
           rows=st.integers(0, 6), scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_rates_match_the_dense_row_loop(self, seed, family, rows, scale):
        # The Jacobian-vector products give the rates of the dense
        # x.J(z)x row loop bit for bit.
        rng = np.random.default_rng(seed)
        dim = 1 + seed % 4
        op = [*MONOTONE_CATALOG, random_bilinear(seed % 7, 25, 25),
              NonAffineTwin(rng.standard_normal((dim, dim)), np.zeros(dim))][family]
        zs, auxs = scale * rng.standard_normal((2, rows, op.dim))
        scales = rng.uniform(0.1, 5.0, rows)
        for kind, name in (("ogda_l1", "beta"), ("ogda_l2", "beta"), ("ogda2_l4", "kappa")):
            stacked = lyap.analytic_decrease_rate(kind, op, zs, auxs, **{name: scales})
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lyap, "_jac_quad", _dense_jac_quad)
                dense = lyap.analytic_decrease_rate(kind, op, zs, auxs, **{name: scales})
            assert stacked.tobytes() == dense.tobytes()

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

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(
        st.floats(width=64),
        st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 1e300, -1e300])),
        max_size=24),
        tol_abs=st.sampled_from([0.0, 1e-7, 1.0]), tol_rel=st.sampled_from([0.0, 1e-9]))
    def test_matches_the_element_loop(self, values, tol_abs, tol_rel):
        report = lyap.continuous_decrease_check(values, tol_abs, tol_rel)
        violations, max_increase = loop_decrease_check(values, tol_abs, tol_rel)
        assert report.violations == violations
        assert type(report.max_increase) is float
        # Bit for bit: a -0.0 increase is kept as the loop keeps it.
        assert np.float64(report.max_increase).tobytes() == np.float64(max_increase).tobytes()

    def test_nan_increases_are_skipped(self):
        for values in ([1.0, np.nan, 2.0], [np.inf, np.inf], [], [3.0]):
            report = lyap.continuous_decrease_check(values)
            assert report.violations == [] and report.max_increase == -np.inf
        report = lyap.continuous_decrease_check([np.inf, np.nan, 0.0, np.inf])
        assert report.violations == [2] and report.max_increase == np.inf


def loop_decrease_check(values, tol_abs, tol_rel):
    """The decrease check one increase at a time: Python's ``max`` never
    takes a NaN increase, and keeps the first of equal ones."""
    values = np.asarray(values, dtype=float)
    violations, max_increase = [], -np.inf
    with np.errstate(all="ignore"):
        for i in range(values.size - 1):
            increase = values[i + 1] - values[i]
            max_increase = max(max_increase, increase)
            if increase > tol_abs + tol_rel * (1.0 + abs(values[i])):
                violations.append(i)
    return violations, float(max_increase)


def l5_decrease_sweep(op, z0, gamma, steps):
    """Run the two-variable scheme from z0 with an ogda_l5 monitor and return
    (deltas, bounds) arrays: the one-step changes of the functional and their
    certified bounds -2 gamma^2 |V(z_{n-1})|^2, read off the previous
    record's v_norm (V(z_0) at the first step, by the z_1 = z_0
    initialization).  Under gamma <= 1/(16 L) the scheme guarantees delta <=
    bound."""
    monitor = lyap.make_monitor("ogda_l5", op, gamma=gamma)
    traj = opt.run(op, opt.OGDAStateSpace(gamma), z0, steps, extra_metrics={"l5": monitor})
    v_norm = traj.metric("v_norm")
    v_prev = np.concatenate((v_norm[:1], v_norm[:-2]))
    return np.diff(traj.metric("l5")), -2.0 * gamma ** 2 * v_prev ** 2


def implicit_decrease_sweep(op, z0, gamma, steps):
    """Run the implicit scheme from (z0, omega = 0) with ogda_i_l1 and
    ogda_i_l2 monitors and return the one-step changes of both, which are
    <= 0 along the scheme."""
    method = opt.ImplicitOGDA(gamma)  # before beta: it rejects a gamma that is not positive
    monitors = {"l1": lyap.make_monitor("ogda_i_l1", op, beta=2.0 / gamma),
                "l2": lyap.make_monitor("ogda_i_l2", op)}
    traj = opt.run(op, method, z0, steps, extra_metrics=monitors)
    return np.diff(traj.metric("l1")), np.diff(traj.metric("l2"))


class TestDiscreteDecrease:
    def test_l5_first_step_bound(self):
        gamma = 1.0 / 16.0
        deltas, bounds = l5_decrease_sweep(SI, np.array([1.0, 0.0]), gamma, 1)
        assert bounds[0] == pytest.approx(-2.0 * gamma ** 2)
        assert deltas[0] <= bounds[0] + 1e-12

    def test_l5_solution_state(self):
        deltas, bounds = l5_decrease_sweep(SI, np.zeros(2), 0.1, 1)
        assert deltas[0] == 0.0 and bounds[0] == 0.0

    def test_l5_sweep_500_steps(self):
        for op in (BG, SI):
            deltas, bounds = l5_decrease_sweep(op, np.array([1.0, 0.0]), 1 / 16, 500)
            assert np.all(deltas <= bounds + 1e-12)

    def test_implicit_functionals_decrease(self):
        for op, gamma, steps in ((SI, 0.5, 50), (BG, 0.2, 200)):
            d1, d2 = implicit_decrease_sweep(op, np.array([1.0, 0.0]), gamma, steps)
            assert len(d1) == steps and np.all(d1 <= 1e-10) and np.all(d2 <= 1e-10)

    def test_implicit_nan_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma must be positive"):
            implicit_decrease_sweep(SI, np.array([1.0, 0.0]), np.nan, 1)

    def test_implicit_solution_state(self):
        d1, d2 = implicit_decrease_sweep(SI, np.zeros(2), 0.5, 1)
        assert d1[0] == 0.0 and d2[0] == 0.0


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
            kind = flows.make_flow("ogda-hrde2-varstep", kappa_fn=lambda t, b=beta_fn: 0.5 * b(t))
            mons = {"lyap": lyap.make_monitor("varstep_l", op, beta_fn=beta_fn)}
            cfg = flows.IntegratorConfig("rk4", 1e-3, 2.0)
            traj = flows.integrate(kind, op, np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                                   cfg, extra_metrics=mons)
            report = lyap.continuous_decrease_check(traj.metric("lyap"), tol_abs=1e-7)
            assert report.ok, (op.label, report.max_increase)
