"""Bilinear-game stability analysis of the flows.

For the game min_x max_y x^T A y each flow is a linear system
d/dt (z, omega) = C (z, omega).  This module reads the per-method C
matrices off the flows' derivatives (``flows.linear_system``), runs the
Routh-style sign tests on their characteristic polynomials, evaluates the
complex-coefficient quadratic stability condition, and cross-checks
everything against a dense eigensolver.

The two quartic Routh arrays are pinned to their published closed forms:

    gda:   lambda^4 + 2b l^3 + b^2 l^2 + 0 l - k b^2,
           first column [1, 2b, b^2, 2kb, -kb^2]          (2 sign changes)
    ogda:  lambda^4 + 2b l^3 + (b^2-4k) l^2 - 4bk l - k b^2,
           first column [1, 2b, b^2-2k,
                         (-2bk)(3b^2-4k)/(b^2-2k),
                         (-2bk)(3b^2-4k)(-kb^2)/(b^2-2k)]  (all positive)

with b = 2/gamma > 0 and k an eigenvalue of -A A^T (k < 0 for full-rank A).
A general Routh recursion is provided separately for cross-checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flows import eg_flow, linear_system, make_flow, rhs
from .problems import BilinearGame, QuarticCounterexample

Array = np.ndarray

#: Entries of a Routh first column within this of zero are "marginal".
MARGINAL_EPS = 1e-10

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

#: Methods with a stability analysis on the bilinear game; method m is
#: analysed through the flow ``make_flow(f"{m}-hrde")``.
STABILITY_METHODS = ("gda", "eg", "ogda", "la2-gda", "la3-gda")


@dataclass
class SystemMatrix:
    matrix: Array
    method: str
    beta: float
    alpha: Optional[float] = None


@dataclass
class RouthResult:
    first_column: Array
    sign_changes: int
    verdict: str


@dataclass
class ComplexEigenTest:
    mu_real: float
    mu_imag: float
    beta: float
    stable: bool     # the literal strict test mu_real < -mu_imag^2 / beta^2
    margin: float    # mu_real + mu_imag^2 / beta^2 (negative = stable side)


@dataclass
class StabilityVerdict:
    method: str
    gamma: float
    alpha: Optional[float]
    spectral_abscissa: float
    verdict: str                      # from the Routh / complex-quadratic test
    abscissa_verdict: str             # sign classification of the abscissa
    agrees: bool
    routh: Optional[list] = None      # RouthResult per Gram eigenvalue
    eigen_tests: Optional[list] = None  # ComplexEigenTest per D-block eigenvalue


def assemble_system_matrix(method, game: BilinearGame, gamma, alpha=None) -> SystemMatrix:
    """Block matrix C of the method's flow on a pure bilinear game.

    C is the flow's ``linear_system`` without its homogeneous row and
    column: [[0, I], [a_v*Jg + a_jv*Jg^2, -beta*I + a_jw*Jg]] where Jg is
    the constant game Jacobian [[0, A], [-A^T, 0]] and the coefficient row
    is the method's flow row.
    Requires b = c = 0 and a full-rank A.
    """
    if method not in STABILITY_METHODS:
        raise ValueError(f"unknown method {method!r}; known: {', '.join(STABILITY_METHODS)}")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if np.any(game.b) or np.any(game.c):
        raise ValueError("stability analysis requires b = c = 0")
    if not game.full_rank:
        raise ValueError("stability analysis requires a full-rank A")
    lookahead = method in ("la2-gda", "la3-gda")
    if lookahead and alpha is None:
        raise ValueError(f"method {method!r} requires alpha")
    flow = make_flow(f"{method}-hrde", gamma=gamma, alpha=alpha)
    c = linear_system(flow, game)[:-1, :-1]
    return SystemMatrix(c, method, flow.beta, alpha if lookahead else None)


def spectral_abscissa(matrix) -> float:
    """max Re(lambda) over the eigenvalues of a dense real matrix."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains non-finite entries")
    return float(np.linalg.eigvals(matrix).real.max())


def _classify(value, eps=MARGINAL_EPS):
    if abs(value) <= eps:
        return MARGINAL
    return UNSTABLE if value > 0 else STABLE


def _sign_changes(column, eps=MARGINAL_EPS):
    signs = [1 if e > 0 else -1 for e in column if abs(e) > eps]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _routh_verdict(column) -> RouthResult:
    column = np.asarray(column, dtype=float)
    changes = _sign_changes(column)
    if np.any(np.abs(column) <= MARGINAL_EPS):
        verdict = MARGINAL
    else:
        verdict = UNSTABLE if changes > 0 else STABLE
    return RouthResult(column, changes, verdict)


def routh_quartic_gda(beta, kappa) -> RouthResult:
    """Routh first column of the gda-flow quartic; always 2 sign changes."""
    _check_beta_kappa(beta, kappa)
    column = np.array([
        1.0,
        2.0 * beta,
        beta ** 2,
        2.0 * kappa * beta,
        -kappa * beta ** 2,
    ])
    return _routh_verdict(column)


def routh_quartic_ogda(beta, kappa) -> RouthResult:
    """Routh first column of the ogda-flow quartic; all entries positive."""
    _check_beta_kappa(beta, kappa)
    pivot = beta ** 2 - 2.0 * kappa
    fourth = (-2.0 * beta * kappa) * (3.0 * beta ** 2 - 4.0 * kappa) / pivot
    column = np.array([
        1.0,
        2.0 * beta,
        pivot,
        fourth,
        fourth * (-kappa * beta ** 2),
    ])
    return _routh_verdict(column)


def _check_beta_kappa(beta, kappa):
    if beta <= 0:
        raise ValueError("beta must be positive")
    if kappa >= 0:
        raise ValueError("kappa must be negative (eigenvalue of -A A^T, full-rank A)")


def routh_first_column(coeffs, eps=MARGINAL_EPS) -> Array:
    """First column of the Routh array of a real polynomial (descending
    coefficients), with the standard epsilon substitution for zero pivots.

    Cross-check utility; the published quartic columns above are authoritative
    for the two pinned cases.
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


def complex_quadratic_stable(beta, mu) -> ComplexEigenTest:
    """Stability of lambda*(beta + lambda) - mu = 0 for complex mu.

    Stable iff Re(mu) < -Im(mu)^2 / beta^2 (generalized Hurwitz test for the
    degree-2 complex polynomial).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    mu = complex(mu)
    margin = mu.real + (mu.imag ** 2) / beta ** 2
    return ComplexEigenTest(mu.real, mu.imag, beta, margin < 0.0, float(margin))


def _gram_eigenvalues(game: BilinearGame) -> Array:
    """Eigenvalues of -A A^T or -A^T A, whichever block is smaller (those are
    the strictly negative ones for full-rank A)."""
    a = game.A
    gram = a @ a.T if game.d1 <= game.d2 else a.T @ a
    return -np.linalg.eigvalsh(gram)


def classify_method(method, game: BilinearGame, gamma, alpha=None) -> StabilityVerdict:
    """Routh / complex-quadratic verdict plus the eigensolver cross-check."""
    system = assemble_system_matrix(method, game, gamma, alpha)
    abscissa = spectral_abscissa(system.matrix)
    routh = None
    eigen_tests = None
    if method in ("gda", "ogda"):
        test = routh_quartic_gda if method == "gda" else routh_quartic_ogda
        routh = [test(system.beta, float(k)) for k in _gram_eigenvalues(game)]
        verdicts = {r.verdict for r in routh}
    else:
        dmat = system.matrix[game.dim:, :game.dim]
        eigen_tests = [complex_quadratic_stable(system.beta, mu)
                       for mu in np.linalg.eigvals(dmat)]
        # Margin scale ~ |mu|, so use a relative epsilon for marginality.
        verdicts = set()
        for t in eigen_tests:
            scale = max(1.0, abs(t.mu_real), t.mu_imag ** 2 / t.beta ** 2)
            verdicts.add(_classify(t.margin, MARGINAL_EPS * scale))
    if MARGINAL in verdicts:
        verdict = MARGINAL
    elif UNSTABLE in verdicts:
        verdict = UNSTABLE
    else:
        verdict = STABLE
    abscissa_verdict = _classify(abscissa, 1e-8)
    agrees = verdict == abscissa_verdict
    return StabilityVerdict(
        method=method,
        gamma=gamma,
        alpha=system.alpha,
        spectral_abscissa=abscissa,
        verdict=verdict,
        abscissa_verdict=abscissa_verdict,
        agrees=agrees,
        routh=routh,
        eigen_tests=eigen_tests,
    )


def stability_scan(method, game: BilinearGame, gamma_grid, alpha=None):
    """Classify one method across a step-size grid.

    Raises if the Routh/complex verdict ever disagrees with the sign of the
    spectral abscissa (that would signal an implementation bug, not a
    property of the game).
    """
    verdicts = []
    for gamma in gamma_grid:
        v = classify_method(method, game, gamma, alpha)
        if not v.agrees:
            raise RuntimeError(
                f"stability tests disagree for {method} at gamma={gamma}: "
                f"criterion says {v.verdict}, abscissa {v.spectral_abscissa:.3e}"
            )
        verdicts.append(v)
    return verdicts


def char_poly_coeffs(matrix) -> Array:
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


def eg_hrde_spurious_fixed_point(beta, bracket=None) -> Array:
    """Nonzero diagonal point (r, r) where the eg-flow freezes on x^4 - y^4.

    Solves 2 J(r, r) V(r, r) = beta V(r, r), i.e. 24 r^2 = beta, by bisection,
    and verifies that the full flow right-hand side vanishes at ((r, r), 0).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    lo, hi = bracket if bracket is not None else (0.0, max(1.0, beta))

    def residual(r):
        return 24.0 * r * r - beta

    if residual(lo) > 0 or residual(hi) < 0:
        raise ValueError(f"no root in bracket ({lo}, {hi}) for beta={beta}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17 * max(1.0, hi):
            break
    r = 0.5 * (lo + hi)
    point = np.array([r, r])

    quartic = QuarticCounterexample()
    dz, domega = rhs(eg_flow(beta), quartic, point, np.zeros(2))
    norm = float(np.hypot(np.linalg.norm(dz), np.linalg.norm(domega)))
    if norm > 1e-10:
        raise RuntimeError(f"fixed-point residual {norm:.3e} exceeds 1e-10")
    return point
