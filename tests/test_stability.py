"""Tests for the bilinear stability analysis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from saddleflow import flows, stability as st
from saddleflow import optimizers as opt
from saddleflow.problems import (BilinearGame, QuarticCounterexample, make_problem,
                                 random_bilinear)

BG = BilinearGame([[1.0]])

#: The non-square game of the CLI repro: d1 = 2, d2 = 3, seed 3, one zero mode.
NON_SQUARE = make_problem("bilinear-random", {"d1": 2, "d2": 3}, 3)


def char_poly_coeffs(matrix):
    """Coefficients of det(lambda I - C), descending, via Faddeev-LeVerrier."""
    c = np.asarray(matrix, dtype=float)
    n = c.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(c)
    for k in range(1, n + 1):
        m = c @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(c @ m) / k
    return coeffs


def system_matrix(method, game, gamma, alpha=None):
    """C of the method's flow on a pure bilinear game: its ``linear_system``
    without the homogeneous row and column."""
    flow = flows.make_flow(f"{method}-hrde", gamma=gamma, alpha=alpha)
    return flows.linear_system(flow, game)[:-1, :-1]


def mode_eigenvalues(modes):
    """The multiset of eigenvalues of C that ``modes`` describes: each root
    at mu = i*sigma, its conjugate at mu = -i*sigma, and 0 and -beta per
    zero mode."""
    zero = np.tile([0.0, -modes.flow.scalars[0]], modes.zero_modes)
    return np.concatenate([modes.roots.ravel(), modes.roots.conj().ravel(), zero])


def classify_grid(method, game, gamma_grid, alpha=None):
    """``classify_method`` at each step size of the grid; every verdict must
    agree with the sign of its spectral abscissa."""
    verdicts = [st.classify_method(method, game, gamma, alpha) for gamma in gamma_grid]
    for v in verdicts:
        assert v.agrees, (method, v.gamma, v.verdict, v.spectral_abscissa)
    return verdicts


class TestSystemMatrices:
    def test_gda_matrix(self):
        c = system_matrix("gda", BG, 1.0)
        expected = np.array([
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, -2.0, -2.0, 0.0],
            [2.0, 0.0, 0.0, -2.0],
        ])
        np.testing.assert_array_equal(c, expected)

    def test_ogda_matrix(self):
        c = system_matrix("ogda", BG, 1.0)
        expected = np.array([
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, -2.0, -2.0, -2.0],
            [2.0, 0.0, 2.0, -2.0],
        ])
        np.testing.assert_array_equal(c, expected)

    def test_eg_la_blocks(self):
        game = random_bilinear(2, 2, 3, 0.1)
        a = game.A
        beta = 2.0 / 0.5
        c = system_matrix("eg", game, 0.5)
        np.testing.assert_allclose(c[5:7, 0:2], -2.0 * a @ a.T)
        np.testing.assert_allclose(c[5:7, 2:5], -beta * a)
        np.testing.assert_allclose(c[7:10, 0:2], beta * a.T)
        np.testing.assert_allclose(c[7:10, 2:5], -2.0 * a.T @ a)
        alpha = 0.3
        c2 = system_matrix("la2-gda", game, 0.5, alpha)
        np.testing.assert_allclose(c2[5:7, 0:2], -2.0 * alpha * a @ a.T)
        np.testing.assert_allclose(c2[5:7, 2:5], -(4.0 * alpha / 0.5) * a)
        c3 = system_matrix("la3-gda", game, 0.5, alpha)
        np.testing.assert_allclose(c3[5:7, 0:2], -6.0 * alpha * a @ a.T)
        np.testing.assert_allclose(c3[5:7, 2:5], -(6.0 * alpha / 0.5) * a)

    def test_matrix_agrees_with_flow_rhs(self):
        # C must linearize the actual flow right-hand side on the game.
        game = random_bilinear(6, 2, 2, 0.1)
        rng = np.random.default_rng(0)
        kinds = {
            "gda": flows.gda_flow(4.0),
            "eg": flows.eg_flow(4.0),
            "ogda": flows.ogda_flow(4.0),
            "la2-gda": flows.la2_flow(4.0, 0.3),
            "la3-gda": flows.la3_flow(4.0, 0.3),
        }
        for method, kind in kinds.items():
            alpha = 0.3 if method.startswith("la") else None
            c = system_matrix(method, game, 0.5, alpha)
            for _ in range(10):
                z, om = rng.standard_normal(game.dim), rng.standard_normal(game.dim)
                dz, dom = flows.rhs(kind, game, z, om)
                np.testing.assert_allclose(
                    c @ np.concatenate([z, om]), np.concatenate([dz, dom]), atol=1e-12
                )


MISUSE = [
    (("sgd", BG, 1.0, None), "unknown method"),
    (("gda", BG, 0.0, None), "gamma must be positive"),
    (("gda", BilinearGame([[1.0]], b=[0.5]), 1.0, None), "b = c = 0"),
    (("gda", BilinearGame([[1e-4]]), 1.0, None), "full-rank"),
    (("la2-gda", BG, 1.0, None), "requires alpha"),
    # (2/gamma)^2 overflows, or underflows to 0.
    (("gda", BG, 1e-160, None), r"gamma must be positive, with \(2/gamma\)\^2 finite"),
    (("eg", BG, 1e300, None), r"gamma must be positive, with \(2/gamma\)\^2 finite"),
    # a_jv sigma^2 overflows in the modes.
    (("eg", BilinearGame([[1e200]]), 0.1, None), r"overflow at gamma = 0.1, sigma_max = 1e\+200"),
]


class TestModes:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(d1=hst.integers(1, 4), d2=hst.integers(1, 4), seed=hst.integers(0, 10 ** 6),
           method=hst.sampled_from(st.STABILITY_METHODS), gamma=hst.floats(1e-2, 10.0),
           alpha=hst.floats(0.05, 1.0))
    def test_match_dense_eigenvalues(self, d1, d2, seed, method, gamma, alpha):
        # Each closed-form eigenvalue is matched to its nearest unmatched
        # dense one.  The tolerance is 1e-6 * max(1, |C|_2): the dense solve
        # is accurate to about sqrt(eps) near a double root (OGDA at
        # sigma = beta/2) and to about eps * |C|_2 elsewhere.
        game = random_bilinear(seed, d1, d2, 0.1)
        alpha = alpha if method.startswith("la") else None
        c = system_matrix(method, game, gamma, alpha)
        dense = list(np.linalg.eigvals(c))
        closed = mode_eigenvalues(st.modes(method, game, gamma, alpha))
        assert closed.size == len(dense) == 2 * game.dim
        tol = 1e-6 * max(1.0, np.linalg.norm(c, 2))
        for root in closed:
            gaps = np.abs(np.array(dense) - root)
            assert gaps.min() <= tol, (root, dense)
            dense.pop(int(gaps.argmin()))

    def test_singular_values_ascending_and_read_only(self):
        game = random_bilinear(4, 3, 2, 0.1)
        sigma = game.singular_values
        np.testing.assert_allclose(sigma, np.sort(np.linalg.svd(game.A, compute_uv=False)))
        assert np.all(np.diff(sigma) >= 0.0) and sigma[0] == game.sigma_min
        with pytest.raises(ValueError):
            sigma[0] = 1.0

    @pytest.mark.parametrize("args, message", MISUSE)
    def test_same_misuse_rejected_as_dense_path(self, args, message):
        # Both analyses run the same checks, with the same messages.
        for analysis in (st.modes, st.classify_method):
            with pytest.raises(ValueError, match=message):
                analysis(*args)

    def test_routh_column_that_overflows_rejected(self):
        # At sigma = 1e200 GDA's roots and C stay finite, but its Routh
        # entries 2*kappa*beta and -kappa*beta^2 (kappa = -sigma^2) overflow.
        game = BilinearGame([[1e200]])
        assert np.isfinite(st.modes("gda", game, 0.1).roots).all()
        assert np.isfinite(system_matrix("gda", game, 0.1)).all()
        with pytest.raises(ValueError, match=r"overflow at gamma = 0.1, sigma_max = 1e\+200"):
            st.classify_method("gda", game, 0.1)

    def test_classify_makes_no_dense_eigensolve(self, monkeypatch):
        games = [random_bilinear(5, 3, 3, 0.1), NON_SQUARE]

        def refuse(*args, **kwargs):
            raise AssertionError("classify_method called a dense eigensolver")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for game in games:
            for method in st.STABILITY_METHODS:
                alpha = 0.25 if method.startswith("la") else None
                assert st.classify_method(method, game, 0.1, alpha).agrees


def oracle_roots(flow, sigma):
    """The complex-array formula that ``modes`` used before its roots moved to
    scaled floats, kept as their reference: (len(sigma), 2) roots at
    mu = i*sigma, non-finite where an intermediate overflows."""
    beta, a_v, a_jv, a_jw = flow.scalars
    mu = 1j * sigma
    with np.errstate(all="ignore"):
        p = beta - a_jw * mu
        q = -(a_v * mu + a_jv * mu * mu)
        disc = np.sqrt(p * p - 4.0 * q)
        big = -0.5 * (p + np.where((p.conj() * disc).real >= 0.0, disc, -disc))
        return np.array([big, q / big]).T


def oracle_modes(method, game, gamma, alpha=None):
    """``modes``' checks and ``oracle_roots``: (flow, roots), with the same
    ValueErrors."""
    flow, _ = st._phase_flow(method, game, gamma, alpha)
    roots = oracle_roots(flow, game.singular_values)
    if not np.isfinite(roots).all():
        raise ValueError(f"overflow at gamma = {gamma!r}, sigma_max = {game.sigma_max!r}")
    return flow, roots


def oracle_classify(method, game, gamma, alpha=None):
    """``classify_method`` as it read the roots of ``oracle_modes``, with the
    same ValueErrors: (roots, verdict, abscissa_verdict, routh)."""
    flow, roots = oracle_modes(method, game, gamma, alpha)
    sigma = game.singular_values.tolist()
    (beta, a_v, a_jv, _), zeros, routh = flow.scalars, [0.0] * abs(game.d1 - game.d2), None
    if method in ("gda", "ogda"):
        column = st.routh_quartic_gda if method == "gda" else st.routh_quartic_ogda
        routh = np.array([column(beta, -s * s) for s in sigma])
        if not np.isfinite(routh).all():
            raise ValueError(f"overflow at gamma = {gamma!r}, sigma_max = {game.sigma_max!r}")
        values, tols = [-min(c) for c in routh.tolist()], [0.0] * len(sigma)
    else:
        mus = [complex(-a_jv * s * s, a_v * s) for s in sigma]
        values = [st.complex_quadratic_margin(beta, mu) for mu in mus]
        tols = [st.EPS * max(abs(mu.real), (mu.imag / beta) ** 2) for mu in mus]
    with np.errstate(all="ignore"):
        ratio = float((roots.real / abs(roots)).max())
    return (roots, st._classify(values + zeros, tols + zeros),
            st._classify([ratio] + zeros, [st.EPS] + zeros), routh)


def outcome(analysis, *args):
    """``analysis(*args)``, or the message of the ValueError it raises."""
    try:
        return analysis(*args)
    except ValueError as exc:
        return str(exc)


#: The nine method/alpha cases of the benchmark's classify jobs.
CASES = [("gda", None), ("eg", None), ("ogda", None)] + [
    (m, a) for m in ("la2-gda", "la3-gda") for a in (0.25, 0.5, 0.75)]


class TestScaledRoots:
    """``modes`` solves each quadratic in exactly scaled floats; the complex
    arrays it replaced (``oracle_roots``) are the reference."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(d1=hst.integers(1, 4), d2=hst.integers(1, 4), seed=hst.integers(0, 10 ** 6),
           log10_gamma=hst.floats(-10.0, 10.0))
    def test_match_the_complex_array_formula(self, d1, d2, seed, log10_gamma):
        # Roots within 1e-15 relative (3.8e-16 worst over a 56,700-case
        # grid), and the same verdicts and Routh columns.
        game, gamma = random_bilinear(seed, d1, d2, 0.1), 10.0 ** log10_gamma
        for method, alpha in CASES:
            roots, verdict, abscissa_verdict, routh = oracle_classify(method, game, gamma, alpha)
            got = st.modes(method, game, gamma, alpha).roots
            assert np.all(np.abs(got - roots) <= 1e-15 * np.abs(roots)), (method, got, roots)
            v = st.classify_method(method, game, gamma, alpha)
            assert (v.verdict, v.abscissa_verdict) == (verdict, abscissa_verdict)
            assert v.agrees is (verdict == abscissa_verdict)
            assert (v.routh is None) if routh is None else v.routh.tobytes() == routh.tobytes()

    def test_double_root(self):
        # OGDA at sigma = beta/2: p^2 - 4q is exactly 0, and both roots are -p/2.
        np.testing.assert_array_equal(st.modes("ogda", BG, 1.0).roots, [[-1 - 1j, -1 - 1j]])

    def test_zero_root(self):
        # At alpha = 5e-324, q underflows to 0: the smaller root is exactly 0,
        # which reads as marginal, as the margin verdict does.
        game = BilinearGame([[0.1]])
        assert st.modes("la2-gda", game, 0.1, 5e-324).roots[0, 1] == 0
        v = st.classify_method("la2-gda", game, 0.1, 5e-324)
        assert (v.verdict, v.abscissa_verdict, v.agrees) == (st.MARGINAL, st.MARGINAL, True)

    #: From a step size whose (2/gamma)^2 overflows to one where it underflows,
    #: with the accepted range's two ends: 2/gamma = 1.33e154 and 2.2e-162.
    GAMMAS = [*(10.0 ** np.linspace(-160.0, 169.0, 70)).tolist(), 1.5e-154, 9e161]

    @pytest.mark.parametrize("log10_a", range(-150, 151, 30))
    def test_accept_and_reject_as_the_complex_array_formula(self, log10_a):
        # No intermediate overflows where the array formula's roots were
        # finite, and every rejection keeps its message.
        game = BilinearGame([[10.0 ** log10_a]])
        for gamma in self.GAMMAS:
            for method, alpha in CASES:
                for analysis, oracle in ((st.modes, oracle_modes),
                                         (st.classify_method, oracle_classify)):
                    got, want = (outcome(f, method, game, gamma, alpha) for f in (analysis, oracle))
                    if isinstance(want, str):
                        assert got == want, (method, gamma)
                    else:
                        assert not isinstance(got, str), (method, gamma, got)


class TestNonSquare:
    """A game with d1 != d2 has |d1 - d2| zero modes with the roots 0 and
    -beta, so no flow on it is stable: EG, OGDA and LA-k at or below
    alpha*_k = (k-1)/k are marginal, GDA and LA-k above alpha*_k unstable."""

    GRID = [0.01, 0.1, 1.0, 10.0]
    EXPECTED = [("gda", None, st.UNSTABLE), ("eg", None, st.MARGINAL),
                ("ogda", None, st.MARGINAL), ("la2-gda", 0.25, st.MARGINAL),
                ("la2-gda", 0.5, st.MARGINAL), ("la2-gda", 0.75, st.UNSTABLE),
                ("la3-gda", 0.25, st.MARGINAL), ("la3-gda", 2.0 / 3.0, st.MARGINAL),
                ("la3-gda", 0.75, st.UNSTABLE)]

    @pytest.mark.parametrize("method, alpha, want", EXPECTED)
    def test_scan_classes(self, method, alpha, want):
        for v in classify_grid(method, NON_SQUARE, self.GRID, alpha=alpha):
            assert (v.verdict, v.abscissa_verdict, v.agrees) == (want, want, True)

    @pytest.mark.parametrize("method, alpha, want", EXPECTED)
    def test_dense_abscissa_class(self, method, alpha, want):
        for gamma in self.GRID:
            c = system_matrix(method, NON_SQUARE, gamma, alpha)
            assert st._classify([st.spectral_abscissa(c)], [1e-8]) == want

    def test_wide_and_tall_games(self):
        for d1, d2 in [(1, 4), (4, 1), (3, 2)]:
            game = random_bilinear(d1 + 10 * d2, d1, d2, 0.1)
            m = st.modes("eg", game, 1.0)
            assert (m.zero_modes, m.roots.shape) == (abs(d1 - d2), (min(d1, d2), 2))
            assert m.spectral_abscissa == 0.0
            v = st.classify_method("eg", game, 1.0)
            assert (v.verdict, v.agrees) == (st.MARGINAL, True)


class TestSpectralAbscissa:
    def test_diagonal(self):
        assert st.spectral_abscissa(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)

    def test_gda_positive_ogda_negative(self):
        assert st.spectral_abscissa(system_matrix("gda", BG, 1.0)) > 0
        assert st.spectral_abscissa(system_matrix("ogda", BG, 1.0)) < 0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            st.spectral_abscissa(np.zeros((2, 3)))


class TestRouthArrays:
    def test_gda_fixture(self):
        r = st.routh_quartic_gda(2.0, -1.0)
        np.testing.assert_allclose(r, [1.0, 4.0, 4.0, -4.0, 4.0], atol=1e-12)
        assert sign_changes(r) == 2

    def test_gda_second_point(self):
        r = st.routh_quartic_gda(10.0, -0.25)
        np.testing.assert_allclose(r, [1.0, 20.0, 100.0, -5.0, 25.0], atol=1e-12)
        assert sign_changes(r) == 2

    def test_ogda_fixture(self):
        r = st.routh_quartic_ogda(2.0, -1.0)
        np.testing.assert_allclose(r, [1.0, 4.0, 6.0, 32.0 / 3.0, 128.0 / 3.0], atol=1e-12)
        assert sign_changes(r) == 0

    def test_ogda_second_point(self):
        r = st.routh_quartic_ogda(1.0, -4.0)
        np.testing.assert_allclose(r[:4], [1.0, 2.0, 9.0, 8.0 * 19.0 / 9.0])
        assert np.all(np.array(r) > 0)

    def test_kappa_sign_rejected(self):
        with pytest.raises(ValueError):
            st.routh_quartic_gda(2.0, 0.0)
        with pytest.raises(ValueError):
            st.routh_quartic_ogda(2.0, 1.0)

    def test_general_recursion_verdicts_match_pinned_arrays(self):
        # The published ogda fourth/fifth entries differ from the textbook
        # recursion, but the sign pattern (hence verdict) must agree.
        for beta, kappa in [(2.0, -1.0), (1.0, -4.0), (8.0, -0.3)]:
            gda_poly = [1.0, 2 * beta, beta ** 2, 0.0, -kappa * beta ** 2]
            col = routh_first_column(gda_poly)
            assert sign_changes(col) == sign_changes(st.routh_quartic_gda(beta, kappa))
            ogda_poly = [1.0, 2 * beta, beta ** 2 - 4 * kappa, -4 * beta * kappa,
                         -kappa * beta ** 2]
            col = routh_first_column(ogda_poly)
            assert sign_changes(col) == 0

    def test_recursion_on_stable_cubic(self):
        # (s+1)(s+2)(s+3) = s^3 + 6s^2 + 11s + 6: no sign changes.
        col = routh_first_column([1.0, 6.0, 11.0, 6.0])
        assert np.all(col > 0)


class TestRouthCountsTheRoots:
    """Routh's theorem on the gda and ogda quartics, across decades of beta
    and sigma: the sign changes of the published first column at kappa =
    -sigma^2 equal the roots with Re > 0 that ``modes`` gives on A = [[sigma]]
    at gamma = 2/beta, each root of the mode's quadratic counted with its
    conjugate, the quartic's other root."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(method=hst.sampled_from(["gda", "ogda"]),
           beta=hst.builds(lambda m, e: m * 10.0 ** e, hst.floats(1.0, 9.99), hst.integers(-6, 6)),
           sigma=hst.builds(lambda m, e: m * 10.0 ** e, hst.floats(1.0, 9.99), hst.integers(-6, 6)))
    def test_sign_changes_count_the_unstable_roots(self, method, beta, sigma):
        column = (st.routh_quartic_gda if method == "gda" else st.routh_quartic_ogda)(
            beta, -sigma * sigma)
        assert all(math.isfinite(e) and e != 0.0 for e in column)
        changes = sum((a > 0) != (b > 0) for a, b in zip(column, column[1:]))
        game = BilinearGame([[sigma]], rank_threshold=sigma)  # full rank at every sigma
        roots = st.modes(method, game, 2.0 / beta).roots
        assert changes == 2 * int(np.count_nonzero(roots.real > 0))
        assert changes == {"gda": 2, "ogda": 0}[method]


def sign_changes(column, eps=1e-10):
    """Sign changes down a Routh first column, skipping entries within eps of zero."""
    signs = [e > 0 for e in column if abs(e) > eps]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def routh_first_column(coeffs, eps=1e-10):
    """First column of the Routh array of a real polynomial (descending
    coefficients), with the standard epsilon substitution for zero pivots.

    The general recursion, a cross-check of the published quartic columns,
    which are authoritative for the two pinned cases.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size < 2:
        raise ValueError("need a polynomial of degree >= 1")
    n = coeffs.size - 1
    width = (n + 2) // 2
    rows = np.zeros((n + 1, width))
    top = coeffs[0::2]
    second = coeffs[1::2]
    rows[0, : top.size] = top
    rows[1, : second.size] = second
    for i in range(2, n + 1):
        if np.all(np.abs(rows[i - 1]) <= eps):
            # Zero row: differentiate the auxiliary (even) polynomial above.
            degree = n - (i - 2)
            aux = rows[i - 2]
            powers = degree - 2 * np.arange(width)
            rows[i - 1] = aux * np.maximum(powers, 0)
        pivot = rows[i - 1, 0]
        if abs(pivot) <= eps:
            pivot = eps
        for j in range(width - 1):
            rows[i, j] = (pivot * rows[i - 2, j + 1] - rows[i - 2, 0] * rows[i - 1, j + 1]) / pivot
    return rows[:, 0]


class TestComplexQuadratic:
    def test_real_negative(self):
        assert st.complex_quadratic_margin(2.0, -1.0) < 0.0

    def test_boundary_cases(self):
        assert not st.complex_quadratic_margin(2.0, complex(-0.1, 1.0)) < 0.0
        assert st.complex_quadratic_margin(2.0, complex(-0.5, 1.0)) < 0.0

    def test_margin_value(self):
        assert st.complex_quadratic_margin(2.0, complex(-0.1, 1.0)) == pytest.approx(-0.1 + 0.25)


class TestCharPoly:
    def test_gda_closed_form(self):
        c = system_matrix("gda", BG, 1.0)
        beta, kappa = 2.0, -1.0
        expected = [1.0, 2 * beta, beta ** 2, 0.0, -kappa * beta ** 2]
        np.testing.assert_allclose(char_poly_coeffs(c), expected, atol=1e-10)

    def test_ogda_closed_form(self):
        c = system_matrix("ogda", BG, 1.0)
        beta, kappa = 2.0, -1.0
        expected = [1.0, 2 * beta, beta ** 2 - 4 * kappa, -4 * beta * kappa,
                    -kappa * beta ** 2]
        np.testing.assert_allclose(char_poly_coeffs(c), expected, atol=1e-10)

    def test_eg_factors_into_complex_quadratics(self):
        # det(C_EG - l I) = prod over D-eigenvalues mu of (l^2 + beta l - mu).
        a = 1.7
        game = BilinearGame([[a]])
        c = system_matrix("eg", game, 1.0)
        beta = 2.0
        mus = np.linalg.eigvals(c[game.dim:, :game.dim])
        product = np.array([1.0 + 0.0j])
        for mu in mus:
            product = np.convolve(product, [1.0, beta, -mu])
        np.testing.assert_allclose(product.imag, 0.0, atol=1e-10)
        np.testing.assert_allclose(char_poly_coeffs(c), product.real, atol=1e-10)

    def test_matches_numpy_roots(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((5, 5))
        np.testing.assert_allclose(char_poly_coeffs(m), np.poly(m), atol=1e-8)


def per_sigma_verdict(method, game, gamma, alpha):
    """The per-sigma rule, written out as the oracle of ``classify_method``.

    Each singular value gives a Routh first column (gda, ogda: the published
    closed forms), marginal with an entry within 1e-10 of zero, else
    unstable iff it changes sign; or the complex quadratic at +sigma and at
    -sigma (eg, LA-k), marginal with its margin within a relative epsilon,
    else unstable iff the margin is positive.  A zero mode is marginal, and
    the verdict is the worst: UNSTABLE > MARGINAL > STABLE.
    """
    eps, beta = 1e-10, 2.0 / gamma
    _, a_v, a_jv, _ = flows.make_flow(f"{method}-hrde", gamma=gamma, alpha=alpha).scalars
    verdicts = {st.MARGINAL} if game.d1 != game.d2 else set()
    for s in game.singular_values.tolist():
        k = -s * s
        if method in ("gda", "ogda"):
            if method == "gda":
                col = [1.0, 2 * beta, beta ** 2, 2 * k * beta, -k * beta ** 2]
            else:
                pivot = beta ** 2 - 2 * k
                fourth = (-2 * beta * k) * (3 * beta ** 2 - 4 * k) / pivot
                col = [1.0, 2 * beta, pivot, fourth, fourth * (-k * beta ** 2)]
            marginal = any(abs(e) <= eps for e in col)
            verdicts.add(st.MARGINAL if marginal else
                         st.UNSTABLE if sign_changes(col) else st.STABLE)
            continue
        for t in (s, -s):
            mu = complex(-a_jv * t * t, a_v * t)
            drift = mu.imag ** 2 / beta ** 2
            margin, tol = mu.real + drift, eps * max(1.0, abs(mu.real), drift)
            verdicts.add(st.MARGINAL if abs(margin) <= tol else
                         st.UNSTABLE if margin > 0 else st.STABLE)
    return next(v for v in (st.UNSTABLE, st.MARGINAL, st.STABLE) if v in verdicts)


class TestScan:
    GRID = [0.01, 0.1, 1.0, 10.0]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(d1=hst.integers(1, 4), d2=hst.integers(1, 4), seed=hst.integers(0, 10 ** 6),
           method=hst.sampled_from(st.STABILITY_METHODS),
           alpha=hst.sampled_from([0.25, 0.5, 2.0 / 3.0, 0.75, 1.0]),
           log10_gamma=hst.floats(-3.0, 2.0))
    def test_verdict_on_generated_games(self, d1, d2, seed, method, alpha, log10_gamma):
        # The verdict is the per-sigma rule's, and the sign class of the dense
        # eigensolver's abscissa, on every generated game, step and alpha.
        game, gamma = random_bilinear(seed, d1, d2, 0.1), 10.0 ** log10_gamma
        alpha = alpha if method.startswith("la") else None
        verdict = st.classify_method(method, game, gamma, alpha).verdict
        assert verdict == per_sigma_verdict(method, game, gamma, alpha)
        c = system_matrix(method, game, gamma, alpha)
        assert verdict == st._classify([st.spectral_abscissa(c)], [1e-8])

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(d1=hst.integers(1, 4), d2=hst.integers(1, 4), seed=hst.integers(0, 10 ** 6),
           method=hst.sampled_from(st.STABILITY_METHODS),
           alpha=hst.sampled_from([0.25, 0.5, 2.0 / 3.0, 0.75, 1.0]),
           log10_gamma=hst.floats(math.log10(1.5e-154), math.log10(9e161)))
    def test_agrees_at_every_step_size(self, d1, d2, seed, method, alpha, log10_gamma):
        # The Routh / margin verdict and the verdict of the roots agree at
        # every step size that classify_method accepts, (2/gamma)^2 from
        # 1.8e308 down to its least subnormal: a root's Re read at scale
        # |lambda|, or an Routh entry that underflows to 0, would read a
        # small stable or unstable abscissa as marginal.
        game, gamma = random_bilinear(seed, d1, d2, 0.1), 10.0 ** log10_gamma
        alpha = alpha if method.startswith("la") else None
        try:
            v = st.classify_method(method, game, gamma, alpha)
        except ValueError as exc:  # not accepted: its roots or Routh column overflow
            assert str(exc).startswith("overflow at gamma"), exc
            return
        assert v.agrees, (v.verdict, v.abscissa_verdict, v.spectral_abscissa)

    @pytest.mark.parametrize("method, alpha", CASES)
    def test_agrees_on_the_unit_game_at_every_decade(self, method, alpha):
        # On A = [[1]] each verdict is the same at every accepted gamma: GDA
        # unstable, EG and OGDA stable, LA-k stable below alpha*_k = (k-1)/k,
        # marginal at it and unstable above it.
        threshold = {"la2-gda": 0.5, "la3-gda": 2.0 / 3.0}.get(method)
        want = (st.UNSTABLE if method == "gda" else st.STABLE if threshold is None
                else st.STABLE if alpha < threshold else
                st.MARGINAL if alpha == threshold else st.UNSTABLE)
        accepted = 0
        for gamma in [1.5e-154, *(10.0 ** np.arange(-153, 162)).tolist(), 9e161]:
            try:
                v = st.classify_method(method, BG, gamma, alpha)
            except ValueError as exc:
                assert str(exc).startswith("overflow at gamma"), exc
                continue
            accepted += 1
            assert (v.verdict, v.abscissa_verdict) == (want, want), gamma
        assert accepted >= 260  # OGDA's Routh column overflows below gamma = 1e-102

    def test_gda_unstable_everywhere(self):
        game = random_bilinear(3, 3, 3, 0.1)
        assert all(v.verdict == st.UNSTABLE for v in classify_grid("gda", game, self.GRID))

    def test_eg_ogda_stable_everywhere(self):
        game = random_bilinear(3, 3, 3, 0.1)
        for method in ("eg", "ogda"):
            assert all(v.verdict == st.STABLE
                       for v in classify_grid(method, game, self.GRID))

    def test_la_stable_below_threshold(self):
        game = random_bilinear(3, 2, 2, 0.1)
        assert all(v.verdict == st.STABLE
                   for v in classify_grid("la2-gda", game, self.GRID, alpha=0.25))
        for alpha in (0.25, 0.5):
            assert all(v.verdict == st.STABLE
                       for v in classify_grid("la3-gda", game, self.GRID, alpha=alpha))

    def test_la_thresholds_pinned(self):
        # The alpha-stability thresholds on bilinear games are 1/2 (la2) and
        # 2/3 (la3): marginal at the threshold, unstable above.
        game = random_bilinear(3, 2, 2, 0.1)
        assert all(v.verdict == st.MARGINAL
                   for v in classify_grid("la2-gda", game, self.GRID, alpha=0.5))
        assert all(v.verdict == st.UNSTABLE
                   for v in classify_grid("la2-gda", game, self.GRID, alpha=0.75))
        assert all(v.verdict == st.MARGINAL
                   for v in classify_grid("la3-gda", game, self.GRID, alpha=2.0 / 3.0))
        assert all(v.verdict == st.UNSTABLE
                   for v in classify_grid("la3-gda", game, self.GRID, alpha=0.75))

    def test_agreement_over_seeded_games(self):
        for seed in range(10):
            game = random_bilinear(seed, 1 + seed % 3, 1 + seed % 3, 0.1)
            for method in st.STABILITY_METHODS:
                alpha = 0.25 if method.startswith("la") else None
                for v in classify_grid(method, game, self.GRID, alpha=alpha):
                    assert v.agrees


class TestNumericalRangeInequality:
    def test_sampled_complex_pairs(self):
        # |A^T x|^2 + |A y|^2 >= 2 |conj(x)^T A y|^2 on 10^4 unit pairs per
        # matrix, A scaled to unit spectral norm (vectorized over the pairs).
        rng = np.random.default_rng(7)
        n = 10_000
        for seed in range(3):
            game = random_bilinear(seed, 2, 2, 0.1)
            a = game.A / np.linalg.svd(game.A, compute_uv=False).max()
            x = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            y = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            norm = np.sqrt(np.sum(np.abs(x) ** 2, axis=1) + np.sum(np.abs(y) ** 2, axis=1))
            x /= norm[:, None]
            y /= norm[:, None]
            lhs = (np.sum(np.abs(x @ a) ** 2, axis=1)
                   + np.sum(np.abs(y @ a.T) ** 2, axis=1))
            rhs = 2.0 * np.abs(np.sum(np.conj(x) * (y @ a.T), axis=1)) ** 2
            assert np.all(lhs >= rhs - 1e-12)


class TestSpuriousFixedPoint:
    def test_known_roots(self):
        np.testing.assert_allclose(st.eg_hrde_spurious_fixed_point(24.0), [1.0, 1.0],
                                   atol=1e-12)
        np.testing.assert_allclose(st.eg_hrde_spurious_fixed_point(6.0), [0.5, 0.5],
                                   atol=1e-12)

    def test_rhs_vanishes_at_returned_point(self):
        quartic = QuarticCounterexample()
        for beta in (6.0, 24.0, 96.0):
            point = st.eg_hrde_spurious_fixed_point(beta)
            assert np.linalg.norm(point) > 0.1
            dz, dom = flows.rhs(flows.eg_flow(beta), quartic, point, np.zeros(2))
            assert np.linalg.norm(np.concatenate([dz, dom])) <= 1e-10

    def test_ogda_flow_moving_at_same_point(self):
        quartic = QuarticCounterexample()
        for beta in (6.0, 24.0, 96.0):
            point = st.eg_hrde_spurious_fixed_point(beta)
            dz, dom = flows.rhs(flows.ogda_flow(beta), quartic, point, np.zeros(2))
            assert np.linalg.norm(np.concatenate([dz, dom])) > 1e-3


def _slope(xs, gaps):
    """Least-squares slope of log gap against log x: the observed order."""
    return np.polyfit(np.log(xs), np.log(gaps), 1)[0]


class TestResolutionOrder:
    """The paper's central claim, spectrally: on A = [[1]] each HRDE's slow
    root tracks its method's one-step multiplier to O(x^3) per step, x =
    gamma, while the low-resolution ODE dz/dt = -V(z) tracks it only to
    O(x^2).  The orders are written here, never read from the program."""

    XS = np.array([0.1, 0.05, 0.025, 0.0125])
    # (stability method, alpha, the discrete method at gamma, the gda-ode
    # time per step over gamma).  LA-k moves alpha of k GDA steps, so
    # gda-ode needs time k alpha gamma per step; its HRDE needs gamma, since
    # k alpha sits in a_v = -k alpha beta.
    CASES = {
        "gda": (None, lambda x: opt.GDA(x), 1.0),
        "eg": (None, lambda x: opt.EG(x), 1.0),
        "ogda": (None, lambda x: opt.OGDA(x), 1.0),
        "la2-gda": (0.25, lambda x: opt.LookaheadGDA(x, k=2, alpha=0.25), 0.5),
        "la3-gda": (0.5, lambda x: opt.LookaheadGDA(x, k=3, alpha=0.5), 1.5),
    }

    @staticmethod
    def gaps(method, alpha, make, time_per_step, xs):
        """|log m - x lambda| for the HRDE's slow root lambda, and |log m +
        i tau| for gda-ode's root -i over time tau, each at the multiplier m
        of the one-step map nearest the flow's e^(x lambda) (OGDA's second
        multiplier is O(x), not the tracked mode)."""
        game, hrde, low = BilinearGame([[1.0]]), [], []
        for x in xs:
            roots = st.modes(method, game, x, alpha).roots[0]
            lam = roots[np.argmin(np.abs(roots))]
            mults = np.linalg.eigvals(opt.one_step_map(game, make(x))[:-1, :-1])
            m = mults[np.argmin(np.abs(mults - np.exp(x * lam)))]
            hrde.append(abs(np.log(m) - x * lam))
            tau = time_per_step * x
            m = mults[np.argmin(np.abs(mults - np.exp(-1j * tau)))]
            low.append(abs(np.log(m) + 1j * tau))
        return np.array(hrde), np.array(low)

    @pytest.mark.parametrize("method", CASES)
    def test_hrde_is_one_order_finer_than_the_ode(self, method):
        hrde, low = self.gaps(method, *self.CASES[method], self.XS)
        assert _slope(self.XS, hrde) >= 2.8
        assert 1.8 <= _slope(self.XS, low) <= 2.2
        assert (hrde < low).all()

    def test_la2_at_half_is_excluded(self):
        # LA2 at alpha = 1/2 is 1 - i x - x^2/2 on A = [[1]], which matches
        # e^(-ix) to second order: there gda-ode's gap is O(x^3) too, so the
        # order cannot separate the HRDE from the ODE.
        hrde, low = self.gaps("la2-gda", 0.5, lambda x: opt.LookaheadGDA(x, k=2, alpha=0.5),
                              1.0, self.XS)
        assert _slope(self.XS, hrde) >= 2.8 and _slope(self.XS, low) >= 2.8


class TestResolutionConstant:
    """The resolution constant c, exactly: on A = [[sigma]] at mu = i*sigma,
    each HRDE's slow root is lambda = -mu + gamma*c*mu^2 + O(gamma^2), and
    its method's log(m)/gamma has the same c (the modified equation in the
    README): -1/2 for gda, +1/2 for eg and ogda.  gda-ode's root is -mu
    itself, c = 0.  The values of c are written here, never read from the
    program; each estimate (lambda + mu)/(gamma*mu^2) lies within
    gamma*sigma of them."""

    C = {"gda": (-0.5, opt.GDA), "eg": (0.5, opt.EG), "ogda": (0.5, opt.OGDA)}
    SIGMAS = (0.5, 1.0, 2.0)
    GAMMAS = (1e-2, 1e-3, 1e-4)

    @staticmethod
    def nearest(values, target):
        return values[np.argmin(np.abs(values - target))]

    @pytest.mark.parametrize("method", C)
    def test_flow_and_method_share_c(self, method):
        c, make = self.C[method]
        for sigma in self.SIGMAS:
            game, mu = BilinearGame([[sigma]]), 1j * sigma
            for gamma in self.GAMMAS:
                lam = self.nearest(st.modes(method, game, gamma).roots[0], -mu)
                mults = np.linalg.eigvals(opt.one_step_map(game, make(gamma))[:-1, :-1])
                rate = self.nearest(np.log(mults) / gamma, -mu)
                for estimate in (lam, rate):
                    c_hat = (estimate + mu) / (gamma * mu * mu)
                    assert abs(c_hat - c) <= gamma * sigma, (sigma, gamma, c_hat)

    def test_low_resolution_ode_misses_c_by_a_half(self):
        # C = -J exactly, so its root is -mu and c = 0: the eigensolver's
        # estimate of it is 0 to rounding, 1/2 from every method's c.
        for sigma in self.SIGMAS:
            game, mu = BilinearGame([[sigma]]), 1j * sigma
            system = flows.linear_system(flows.make_flow("gda-ode"), game)[:-1, :-1]
            assert np.array_equal(system, -game.jacobian(np.zeros(2)))
            lam = self.nearest(np.linalg.eigvals(system), -mu)
            for gamma in self.GAMMAS:
                c_hat = (lam + mu) / (gamma * mu * mu)
                assert abs(c_hat) <= 1e-10
                for c_method, _ in self.C.values():
                    assert abs(c_hat - c_method) >= 0.5 - 1e-10 > gamma * sigma


class TestResolutionOrderOfTrajectories:
    """The same claim along whole runs: on random_bilinear(7, 2, 2) from z0
    over time T = 2, max_n |z_n - z(t_n)| falls as O(gamma^2) against each
    HRDE and only as O(gamma) against gda-ode.  The flows are integrated by
    RK4 at dt = gamma/40 from the consistent start omega0 = -V(z0), or
    -k alpha V(z0) for LA-k (zero instead drops every HRDE to order 1).  The
    orders are written here, never read from the program."""

    GAME = random_bilinear(7, 2, 2)
    Z0 = np.array([1.0, -0.5, 0.3, 0.8])
    T = 2.0
    GAMMAS = np.array([0.1, 0.05, 0.025, 0.0125])
    # (discrete method at gamma, its HRDE, alpha, the time per step of
    # gda-ode over gamma, the lag in steps).  OGDA keeps z1 = z0, so its
    # z_n is compared with the flow at (n - 1) gamma; LA-k moves alpha of k
    # GDA steps, so gda-ode needs time k alpha gamma per step.
    CASES = {
        "gda": (lambda g: opt.GDA(g), "gda-hrde", None, 1.0, 0),
        "eg": (lambda g: opt.EG(g), "eg-hrde", None, 1.0, 0),
        "ogda": (lambda g: opt.OGDA(g), "ogda-hrde", None, 1.0, 1),
        "la2-gda": (lambda g: opt.LookaheadGDA(g, k=2, alpha=0.25), "la2-gda-hrde", 0.25, 0.5, 0),
    }

    def flow_states(self, flow_id, aux0, gamma, alpha=None, time_per_step=1.0):
        """The flow's z at every time_per_step * gamma up to time_per_step * T."""
        dt = time_per_step * gamma / 40
        cfg = flows.IntegratorConfig("rk4", dt, time_per_step * self.T, record_every=40)
        kind = flows.make_flow(flow_id, gamma=gamma, alpha=alpha)
        return flows.integrate(kind, self.GAME, self.Z0, aux0, cfg).states

    def gaps(self, method):
        make, flow_id, alpha, time_per_step, lag = self.CASES[method]
        omega0 = -time_per_step * self.GAME.field(self.Z0)
        hrde, low = [], []
        for gamma in self.GAMMAS:
            zs = opt.run(self.GAME, make(gamma), self.Z0, int(round(self.T / gamma))).states
            flow = self.flow_states(flow_id, omega0, gamma, alpha)
            hrde.append(np.linalg.norm(zs[lag:] - flow[:len(zs) - lag], axis=1).max())
            ode = self.flow_states("gda-ode", np.zeros(4), gamma, time_per_step=time_per_step)
            low.append(np.linalg.norm(zs - ode, axis=1).max())
        return np.array(hrde), np.array(low)

    @pytest.mark.parametrize("method", CASES)
    def test_hrde_tracks_to_second_order(self, method):
        hrde, low = self.gaps(method)
        assert _slope(self.GAMMAS, hrde) >= 1.8
        assert (hrde < low).all()

    @pytest.mark.parametrize("method", ["gda", "la2-gda"])
    def test_low_resolution_ode_tracks_to_first_order(self, method):
        _, low = self.gaps(method)
        assert _slope(self.GAMMAS, low) <= 1.2
