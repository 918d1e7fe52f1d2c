"""Tests for the problem catalog: fields, Jacobians, and probes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_cases import NonAffineTwin
from saddleflow import lyapunov as lyap
from saddleflow import optimizers as opt
from saddleflow import problems
from saddleflow.problems import (
    BilinearGame,
    NonFiniteError,
    Operator,
    QuarticCounterexample,
    ScaledIdentity,
    _sample_ball,
    fd_jacobian,
    make_problem,
    monotonicity_probe,
    random_bilinear,
)

CATALOG = [
    BilinearGame([[1.0]]),
    random_bilinear(11, 2, 2, 0.1),
    QuarticCounterexample(),
    ScaledIdentity(1.0, 2),
]


def jacobian_psd_probe(op: Operator, seed=0, samples=100, radius=1.0) -> float:
    """Minimum eigenvalue of the symmetrized Jacobian over sampled points.

    Nonnegative (up to roundoff) for monotone operators: J(z) >= 0.
    """
    rng = np.random.default_rng(seed)
    zs = _sample_ball(rng, op.dim, radius, samples) + op.solution
    smallest = np.inf
    for z in zs:
        j = op.jacobian(z)
        eigs = np.linalg.eigvalsh(0.5 * (j + j.T))
        smallest = min(smallest, float(eigs[0]))
    return smallest


class TestFieldEvaluation:
    def test_bilinear_field(self):
        game = BilinearGame([[1.0]])
        np.testing.assert_allclose(game.field([1.0, 2.0]), [2.0, -1.0])

    def test_field_vanishes_at_solution(self):
        for op in CATALOG:
            assert np.max(np.abs(op.field(op.solution))) <= 1e-12

    def test_quartic_field_and_jacobian(self):
        q = QuarticCounterexample()
        np.testing.assert_allclose(q.field([1.0, 1.0]), [4.0, 4.0])
        np.testing.assert_allclose(q.jacobian([1.0, 1.0]), 12.0 * np.eye(2))
        # off the diagonal the Jacobian is diag(12 x^2, 12 y^2)
        np.testing.assert_allclose(q.jacobian([1.0, 2.0]), np.diag([12.0, 48.0]))

    def test_quartic_field_matches_objective_gradient(self):
        # V = (df/dx, -df/dy) for f = x^4 - y^4, cross-checked by central
        # differences of f itself.
        q = QuarticCounterexample()
        f = lambda x, y: x ** 4 - y ** 4  # noqa: E731
        h = 1e-5
        for x, y in [(0.7, -0.3), (1.2, 0.4)]:
            dfdx = (f(x + h, y) - f(x - h, y)) / (2 * h)
            dfdy = (f(x, y + h) - f(x, y - h)) / (2 * h)
            np.testing.assert_allclose(q.field([x, y]), [dfdx, -dfdy], atol=1e-8)

    def test_bilinear_jacobian_blocks(self):
        game = BilinearGame([[1.0]])
        np.testing.assert_allclose(game.jacobian([3.0, -2.0]), [[0.0, 1.0], [-1.0, 0.0]])

    def test_scaled_identity(self):
        op = ScaledIdentity(3.0, 2)
        np.testing.assert_allclose(op.jacobian([5.0, 1.0]), 3.0 * np.eye(2))
        assert op.lipschitz == op.strong_mu == 3.0

    def test_dimension_mismatch_rejected(self):
        for op in CATALOG:
            op.jacobian(np.zeros(op.dim))  # fills an affine operator's cache
            for evaluate in (op.field, op.jacobian):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    evaluate(np.ones(op.dim + 1))

    def test_non_finite_input_rejected(self):
        for op in CATALOG:
            op.jacobian(np.zeros(op.dim))
            for evaluate in (op.field, op.jacobian):
                for bad in (np.nan, np.inf):
                    z = np.zeros(op.dim)
                    z[0] = bad
                    with pytest.raises(NonFiniteError, match="non-finite"):
                        evaluate(z)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["warn", "raise"])
    def test_overflowing_evaluation_raises_without_warning(self, mode):
        # A finite z whose field or Jacobian overflows: the checked calls
        # raise NonFiniteError alone, under any errstate, and print nothing.
        op = QuarticCounterexample()
        for evaluate, z in ((op.field, [1e150, 0.5]), (op.jacobian, [1e200, 0.5])):
            with np.errstate(all=mode), pytest.raises(NonFiniteError, match="evaluation"):
                evaluate(np.array(z))
        # The unchecked view keeps the caller's errstate.
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            op.field_unchecked(np.array([1e150, 0.5]))

    def test_affine_jacobian_is_built_once(self):
        for op in CATALOG:
            z1, z2 = np.full(op.dim, 0.5), np.arange(1.0, op.dim + 1.0)
            j1, j2 = op.jacobian(z1), op.jacobian(z2)
            if not op.affine:
                assert j1 is not j2 and not np.array_equal(j1, j2)
                continue
            assert j1 is j2
            assert j1.tobytes() == np.asarray(op._jacobian(z2), dtype=float).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                j1[0, 0] = 7.0

    def test_unchecked_view(self):
        # The view the run loops step through: the same values bit for bit
        # where the checked calls pass, and values instead of errors where
        # they raise.
        for op in (*CATALOG, BilinearGame([[1.0, 2.0]])):
            view = op.unchecked()
            assert view.dim == op.dim
            for z in (np.full(op.dim, 0.5), np.arange(1.0, op.dim + 1.0)):
                assert view.field(z).tobytes() == op.field(z).tobytes()
                assert view.jacobian(z).tobytes() == op.jacobian(z).tobytes()
                assert view.jvp(z, z[::-1]).tobytes() == op.jvp(z, z[::-1]).tobytes()
            assert (view.field, view.jacobian, view.jvp) == (op._field, op._jacobian, op._jvp)
        q = QuarticCounterexample().unchecked()
        with np.errstate(over="ignore"):
            assert np.isinf(q.field(np.array([1e150, 0.5]))[0])
            assert np.isinf(q.jacobian(np.array([1e160, 0.5]))[0, 0])
        assert np.isnan(q.jacobian(np.array([np.nan, 0.5]))[0, 0])

    def test_caller_arrays_are_copied(self):
        A, b, c = np.array([[2.0]]), np.array([1.0]), np.array([-4.0])
        game = BilinearGame(A, b, c)
        z = np.array([0.3, -0.7])
        v, jac = game.field(z), game.jacobian(z).copy()
        A[0, 0], b[0], c[0] = 5.0, 3.0, 1.0
        assert game.field(z).tobytes() == v.tobytes()
        assert game.jacobian(z).tobytes() == jac.tobytes()
        for attr in (game.A, game.b, game.c):
            assert not attr.flags.writeable

    def test_shifted_optimum_solution(self):
        game = BilinearGame([[2.0]], b=[1.0], c=[-4.0])
        np.testing.assert_allclose(game.field(game.solution), [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(game.solution, [2.0, -0.5])


@st.composite
def batched_field_cases(draw):
    """(operator, rows): a bilinear game with non-zero b and c (in the ranges
    of A and A^T, so that it has a zero), a scaled identity or the quartic,
    and up to 6 states, one of them possibly non-finite."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = draw(st.sampled_from(["bilinear", "scaled-identity", "quartic"]))
    if family == "bilinear":
        d1, d2 = draw(st.sampled_from([1, 2, 50])), draw(st.sampled_from([1, 2, 50]))
        a = rng.standard_normal((d1, d2))
        op = BilinearGame(a, a @ rng.standard_normal(d2), a.T @ rng.standard_normal(d1))
    elif family == "scaled-identity":
        op = ScaledIdentity(draw(st.floats(0.01, 100.0)), draw(st.sampled_from([1, 2, 50])))
    else:
        op = QuarticCounterexample()
    scale = 10.0 ** draw(st.integers(-3, 3))
    zs = scale * rng.standard_normal((draw(st.integers(0, 6)), op.dim))
    bad = draw(st.sampled_from([None, np.inf, -np.inf, np.nan]))
    if bad is not None and len(zs):
        zs[draw(st.integers(0, len(zs) - 1)), 0] = bad
    return op, zs


class TestBatchedField:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=batched_field_cases())
    def test_rows_match_field_unchecked(self, case):
        op, zs = case
        with np.errstate(invalid="ignore", over="ignore"):
            batch = op.fields_unchecked(zs)
            rows = np.array([op.field_unchecked(z) for z in zs]).reshape(zs.shape)
        assert batch.shape == zs.shape
        finite = np.isfinite(zs).all(axis=1)
        # Bit for bit on finite rows; the non-finite pattern on the others.
        assert np.array_equal(batch[finite].view(np.uint64), rows[finite].view(np.uint64))
        assert np.array_equal(batch, rows, equal_nan=True)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=batched_field_cases())
    def test_recorder_metrics_match_per_row(self, case):
        # The metrics the recorder computes once per run equal the per-record
        # formulas bit for bit; a non-finite state's metrics stay NaN.
        op, zs = case
        if not len(zs):
            return
        rec = opt.Recorder(op, "method", "problem", len(zs) - 1)
        rec.record(0, np.arange(len(zs), dtype=float), np.arange(len(zs)), zs, None)
        with np.errstate(invalid="ignore", over="ignore"):
            traj = rec.finish(len(zs) - 1.0, len(zs) - 1, False)
        for i, z in enumerate(zs):
            metrics = [traj.metric(name)[i] for name in ("z_norm", "dist_to_solution", "v_norm")]
            if not np.isfinite(z).all():
                assert np.isnan(metrics).all()
                continue
            v, d = op.field_unchecked(z), z - op.solution
            assert metrics == [math.sqrt(z.dot(z)), math.sqrt(d.dot(d)), math.sqrt(v.dot(v))]


@st.composite
def jvp_cases(draw):
    """(operator, zs, xs): a catalog problem or the test-side NonAffineTwin,
    and up to 6 finite pairs of states and directions."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = draw(st.sampled_from(["bilinear", "scaled-identity", "quartic", "twin"]))
    if family == "bilinear":
        op = BilinearGame(rng.standard_normal((draw(st.sampled_from([1, 2, 50])),
                                               draw(st.sampled_from([1, 2, 50])))))
    elif family == "scaled-identity":
        op = ScaledIdentity(draw(st.floats(0.01, 100.0)), draw(st.sampled_from([1, 2, 50])))
    elif family == "quartic":
        op = QuarticCounterexample()
    else:
        dim = draw(st.integers(1, 4))
        op = NonAffineTwin(rng.standard_normal((dim, dim)), rng.standard_normal(dim))
    scale = 10.0 ** draw(st.integers(-3, 3))
    zs, xs = scale * rng.standard_normal((2, draw(st.integers(0, 6)), op.dim))
    return op, zs, xs


class TestJacobianVectorProduct:
    """``_jvp(z, x)`` is J(z) x without J: the dense product's bits at
    finite inputs, and finite differences' value."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=jvp_cases())
    def test_equals_the_dense_product(self, case):
        op, zs, xs = case
        for z, x in zip(zs, xs):
            assert op._jvp(z, x).tobytes() == (op._jacobian(z) @ x).tobytes()
            assert op.jvp(z, x).tobytes() == op._jvp(z, x).tobytes()

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(case=jvp_cases())
    def test_agrees_with_finite_differences(self, case):
        op, zs, xs = case
        for z, x in zip(zs[:2], xs[:2]):
            fd = fd_jacobian(op, z) @ x
            # Central differences of 4 z^3 are off by 4 h^2 per entry of J,
            # and round at about 1e-16 |V| / h.
            tol = 1e-6 * (1.0 + np.linalg.norm(op.jacobian(z)) * np.linalg.norm(x))
            assert np.linalg.norm(op._jvp(z, x) - fd) <= tol

    def test_checked_product_rejects_non_finite_values(self):
        op = QuarticCounterexample()
        for z, x in (([np.nan, 0.5], [1.0, 1.0]), ([0.5, 0.5], [np.inf, 1.0])):
            with pytest.raises(NonFiniteError, match="non-finite"):
                op.jvp(np.array(z), np.array(x))
        with pytest.raises(ValueError, match="dimension mismatch"):
            op.jvp(np.ones(2), np.ones(3))
        # A finite pair whose product overflows raises, under any errstate.
        with np.errstate(all="raise"), pytest.raises(NonFiniteError, match="product"):
            op.jvp(np.array([1e200, 0.5]), np.array([1.0, 1.0]))

    def test_overflow_stays_in_its_entry(self):
        # J V at a z whose V = 4 z^3 overflows in entry 0 only, as in eg-hrde's
        # stages: the dense product's 0 * inf makes entry 1 NaN too, the
        # Jacobian-vector product's entry 1 stays finite.
        op, z = QuarticCounterexample(), np.array([1e103, 0.5])
        with np.errstate(all="ignore"):
            v = op.field_unchecked(z)
            dense, jv = op._jacobian(z) @ v, op._jvp(z, v)
        assert np.isinf(v[0]) and np.isinf(dense[0]) and np.isnan(dense[1])
        assert np.isinf(jv[0]) and jv[1] == 12.0 * 0.25 * 0.5


class TestConstantJacobian:
    """An affine operator builds and checks its constant J once; its J x
    hook then gives that J's products with no validation."""

    @pytest.mark.parametrize("make", [lambda: BilinearGame([[1.0, 2.0], [0.5, -1.0]]),
                                      lambda: random_bilinear(3, 2, 3),
                                      lambda: ScaledIdentity(2.0, 3)])
    def test_no_validation_after_the_first_call(self, make, monkeypatch):
        op, calls = make(), []
        real = problems.as_state
        monkeypatch.setattr(problems, "as_state", lambda *a: calls.append(1) or real(*a))
        z, x = np.linspace(-1.0, 1.0, op.dim), np.linspace(0.5, 2.0, op.dim)
        first = op._affine_jacobian()
        checked = len(calls)
        for _ in range(3):
            assert op._affine_jacobian() is first
            assert op._jvp(2.0 * z, x).tobytes() == (first @ x).tobytes()
            assert op._jvp(z, -x).tobytes() == (first @ -x).tobytes()
        assert checked <= 1 and len(calls) == checked
        assert not first.flags.writeable


class ZeroFormsQuartic(QuarticCounterexample):
    """The quartic with more forms of J and J x, each of them zeros."""

    def jacobian_unchecked(self, z):
        return np.zeros((self.dim, self.dim))

    def jvp_unchecked(self, z, x):
        return np.zeros(self.dim)

    def jvps_unchecked(self, zs, xs):
        return np.zeros_like(xs)


class TestOnlyTheHooksAreRead:
    """The library reads J and J x through ``_jacobian`` and ``_jvp`` alone:
    other methods that also give J or J x change nothing."""

    def test_rates_read_the_jvp_hook(self):
        plain, decoy = QuarticCounterexample(), ZeroFormsQuartic()
        zs, auxs = np.random.default_rng(5).standard_normal((2, 7, 2))
        for kind, name in (("ogda_l1", "beta"), ("ogda_l2", "beta"), ("ogda2_l4", "kappa")):
            want = lyap.analytic_decrease_rate(kind, plain, zs, auxs, **{name: 2.0})
            got = lyap.analytic_decrease_rate(kind, decoy, zs, auxs, **{name: 2.0})
            assert got.tobytes() == want.tobytes(), kind

    def test_newton_step_reads_the_jacobian_hook(self):
        runs = [opt.run(op, opt.ImplicitOGDA(0.05), [1.0, 0.5], 50)
                for op in (QuarticCounterexample(), ZeroFormsQuartic())]
        want, got = runs
        for axis in ("steps", "times", "queries", "states"):
            assert getattr(got, axis).tobytes() == getattr(want, axis).tobytes(), axis
        assert got.diverged is want.diverged is False


class TestFiniteDifferenceJacobian:
    def test_exact_for_linear_fields(self):
        game = BilinearGame([[1.0]])
        z = np.array([0.3, -0.7])
        np.testing.assert_allclose(fd_jacobian(game, z, 1e-5), game.jacobian(z), atol=1e-9)

    def test_quartic_second_order_error(self):
        q = QuarticCounterexample()
        err = np.abs(fd_jacobian(q, [1.0, 1.0], 1e-4) - np.diag([12.0, 12.0])).max()
        assert err <= 1e-6

    def test_scaled_identity_exact(self):
        op = ScaledIdentity(1.0, 2)
        np.testing.assert_allclose(fd_jacobian(op, [0.0, 0.0], 1e-3), np.eye(2), atol=1e-12)

    def test_catalog_jacobians_match_fd(self):
        rng = np.random.default_rng(3)
        for op in CATALOG:
            for _ in range(100):
                z = rng.standard_normal(op.dim)
                jac = op.jacobian(z)
                err = np.linalg.norm(jac - fd_jacobian(op, z, 1e-5))
                assert err <= 1e-4 * (1.0 + np.linalg.norm(jac))

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            fd_jacobian(BilinearGame([[1.0]]), [0.0, 0.0], 0.0)


class TestMonotonicityProbes:
    def test_bilinear_probe_is_zero(self):
        pairwise, toward = monotonicity_probe(BilinearGame([[1.0]]), 0, 1000, 1.0)
        assert abs(pairwise) <= 1e-10
        assert abs(toward) <= 1e-10

    def test_strongly_monotone_probe(self):
        op = ScaledIdentity(2.0, 2)
        pairwise, toward = monotonicity_probe(op, 1, 500, 1.0)
        assert pairwise >= 0.0
        assert toward >= 0.0

    def test_non_monotone_detected(self):
        class Flipped(Operator):
            def _field(self, z):
                return -z

            def _jacobian(self, z):
                return -np.eye(self.dim)

        pairwise, _ = monotonicity_probe(Flipped(2, 0), 0, 100, 1.0)
        assert pairwise < 0.0

    def test_catalog_monotone(self):
        for op in CATALOG:
            pairwise, toward = monotonicity_probe(op, 2, 500, 1.0)
            assert pairwise >= -1e-10
            assert toward >= -1e-10
            assert jacobian_psd_probe(op, 2, 100, 1.0) >= -1e-10

    def test_bilinear_jacobian_antisymmetry(self):
        game = random_bilinear(4, 3, 2, 0.1)
        rng = np.random.default_rng(0)
        jac = game.jacobian(np.zeros(game.dim))
        for _ in range(50):
            u = rng.standard_normal(game.dim)
            assert abs(u @ (jac @ u)) <= 1e-12 * (1 + u @ u)


class TestRandomBilinear:
    def test_seeded_regression_value(self):
        game = random_bilinear(0, 1, 1, 0.1)
        assert game.A[0, 0] == 0.1257302210933933
        assert abs(game.A[0, 0]) >= 0.1

    def test_shapes(self):
        game = random_bilinear(1, 2, 3, 0.1)
        assert game.A.shape == (2, 3)
        assert game.dim == 5
        assert game.field(np.ones(5)).shape == (5,)

    def test_determinism(self):
        a = random_bilinear(9, 2, 2, 0.1).A
        b = random_bilinear(9, 2, 2, 0.1).A
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed, d, sigma_min", [(0, 4, 0.1), (1, 4, 0.5), (2, 3, 0.6),
                                                    (5, 4, 0.4), (7, 2, 0.8)])
    def test_one_svd_per_draw(self, seed, d, sigma_min, monkeypatch):
        # The redraw loop as it was: one svd to test a draw, then the game.
        rng, draws = np.random.default_rng(seed), 0
        while True:
            A, draws = rng.standard_normal((d, d)), draws + 1
            if np.linalg.svd(A, compute_uv=False).min() >= sigma_min:
                want = BilinearGame(A, rank_threshold=sigma_min)
                break
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        game = random_bilinear(seed, d, d, sigma_min)
        assert len(calls) == draws
        assert game.A.tobytes() == want.A.tobytes()
        assert game.singular_values.tobytes() == want.singular_values.tobytes()
        assert game.full_rank and game.sigma_min == want.sigma_min

    def test_redraw_budget_exhausted(self):
        with pytest.raises(RuntimeError, match="redraws"):
            random_bilinear(0, 4, 4, sigma_min=100.0, max_redraws=3)


class TestCatalogFactory:
    def test_ids(self):
        assert make_problem("bilinear").label == "bilinear"
        assert make_problem("quartic").dim == 2
        assert make_problem("scaled-identity", {"mu": 2.0, "dim": 4}).dim == 4
        assert make_problem("bilinear-random", {"d1": 2, "d2": 2}, seed=5).A.shape == (2, 2)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown problem id"):
            make_problem("nope")

    def test_unknown_param(self):
        with pytest.raises(ValueError, match="unknown key"):
            make_problem("quartic", {"foo": 1})

    @pytest.mark.parametrize("problem_id, name, value", [
        ("scaled-identity", "dim", 2.7),
        ("scaled-identity", "dim", 3.0),
        ("scaled-identity", "dim", True),
        ("bilinear-random", "d1", True),
        ("bilinear-random", "d2", 1.5),
        ("scaled-identity", "mu", True),
        ("bilinear-random", "sigma_min", "0.1"),
    ])
    def test_parameter_types(self, problem_id, name, value):
        # An integer parameter is never truncated, and a boolean is not a number.
        with pytest.raises(ValueError, match=f"{name}: expected"):
            make_problem(problem_id, {name: value})

    def test_none_parameter_takes_its_default(self):
        assert make_problem("scaled-identity", {"mu": None, "dim": None}).dim == 2

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), -np.inf])
    def test_nonpositive_or_nan_parameter_rejected(self, value):
        # A NaN parameter must fail the guard, not build a NaN problem.
        with pytest.raises(ValueError, match="mu must be positive"):
            ScaledIdentity(value)
        with pytest.raises(ValueError, match="sigma_min must be positive"):
            random_bilinear(0, 2, 2, value)

    def test_infinite_parameter_rejected(self):
        # An infinite parameter must fail the guard, not build an inf problem.
        with pytest.raises(ValueError, match="mu must be finite"):
            ScaledIdentity(np.inf)
        with pytest.raises(ValueError, match="sigma_min must be finite"):
            random_bilinear(0, 2, 2, np.inf)
