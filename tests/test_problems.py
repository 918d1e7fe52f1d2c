"""Tests for the problem catalog: fields, Jacobians, and probes."""

import numpy as np
import pytest

from saddleflow.problems import (
    BilinearGame,
    NonFiniteError,
    Operator,
    QuarticCounterexample,
    ScaledIdentity,
    fd_jacobian,
    jacobian_psd_probe,
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
