"""Bilinear-game stability analysis of the flows.

On the game min_x max_y x^T A y each flow is a linear system
d/dt (z, omega) = C (z, omega) whose blocks are polynomials in the Jacobian
J = [[0, A], [-A^T, 0]], with eigenvalues mu = +-i*sigma per singular value
sigma of A and |d1 - d2| zero modes mu = 0.  So each eigenvalue of C is a
root of lambda^2 + (beta - a_jw mu) lambda - (a_v mu + a_jv mu^2) = 0 for
the method's flow row.  ``modes`` solves these in closed form, in exactly
scaled Python floats that no numpy SIMD loop rounds: ``classify_method`` costs
0.35-0.55x the complex-array formula's at 1-4 singular values, 1x at 16, 1.6x at 50.

Every verdict reduces signed values by one rule, ``_classify``: a value v
of scale s (the largest magnitude among the terms that v sums) is marginal
if |v| <= EPS*s = 1e-13*s and unstable if v > EPS*s; the worst mode wins.
Per sigma ``classify_method`` reads minus the least of the first four Routh
entries (gda, ogda) at scale 0, as for beta > 0 > kappa every entry is a
product or a sum of same-signed terms, or the complex-quadratic margin
Re mu + (Im mu/beta)^2 (eg, LA-k) at scale max(|Re mu|, (Im mu/beta)^2).
Its cross-check reads each root lambda of ``modes`` as Re lambda at the
scale of the terms it sums (``_roots``), through the largest ratio at
scale 1: a scale of |lambda| would read a root with |Re lambda| below
1e-13 |lambda| as marginal, as EG's roots, Re lambda ~ -beta and
|lambda| ~ sigma, are once sigma*gamma passes about 1e13.  A zero mode
gives 0 at scale 0, so no flow is stable on a non-square game.

The two quartic Routh arrays are pinned to their published closed forms:

    gda:   lambda^4 + 2b l^3 + b^2 l^2 + 0 l - k b^2,
           first column [1, 2b, b^2, 2kb, -kb^2]          (2 sign changes)
    ogda:  lambda^4 + 2b l^3 + (b^2-4k) l^2 - 4bk l - k b^2,
           first column [1, 2b, b^2-2k,
                         (-2bk)(3b^2-4k)/(b^2-2k),
                         (-2bk)(3b^2-4k)(-kb^2)/(b^2-2k)]  (all positive)

with b = 2/gamma > 0 and k = -sigma^2 < 0 for each singular value sigma.
The tests cross-check both columns against a general Routh recursion.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import copysign, frexp, hypot, isfinite, ldexp, sqrt
from operator import gt, le
from typing import Optional

import numpy as np

from .flows import STABILITY_METHODS, Flow, eg_flow, make_flow, rhs
from .problems import BilinearGame, QuarticCounterexample

Array = np.ndarray

#: A value v of scale s is zero (marginal) when |v| <= EPS*s.
EPS = 1e-13

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"


@dataclass
class StabilityVerdict:
    method: str
    gamma: float
    alpha: Optional[float]
    spectral_abscissa: float
    verdict: str                      # from the Routh / complex-quadratic test
    abscissa_verdict: str             # sign classification of the abscissa
    agrees: bool
    routh: Optional[Array] = None     # (n_sigma, 5) Routh first columns


@dataclass
class Modes:
    """The eigenvalues of C by mode of J, as ``modes`` returns them."""

    sigma: Array      # singular values of A, ascending
    roots: Array      # (len(sigma), 2) roots at mu = i*sigma; -i*sigma gives the conjugates
    zero_modes: int   # |d1 - d2| modes mu = 0, each with the roots 0 and -beta
    flow: Flow        # the (z, omega) row, whose scalars are (beta, a_v, a_jv, a_jw)
    alpha: Optional[float]
    spectral_abscissa: float  # max Re over the roots and the zero modes
    ratios: list      # each root's Re over its scale (``_roots``), in the order of roots.ravel()


def _phase_flow(method, game: BilinearGame, gamma, alpha):
    # The checks shared by every analysis; alpha is kept for lookahead only.
    if method not in STABILITY_METHODS:
        raise ValueError(f"unknown method {method!r}; known: {', '.join(STABILITY_METHODS)}")
    if not (gamma > 0 and 0.0 < (2.0 / gamma) * (2.0 / gamma) < np.inf):
        raise ValueError(f"gamma must be positive, with (2/gamma)^2 finite and > 0: {gamma!r}")
    if game.shifted:
        raise ValueError("stability analysis requires b = c = 0")
    if not game.full_rank:
        raise ValueError("stability analysis requires a full-rank A")
    lookahead = method in ("la2-gda", "la3-gda")
    if lookahead and alpha is None:
        raise ValueError(f"method {method!r} requires alpha")
    return make_flow(f"{method}-hrde", gamma=gamma, alpha=alpha), alpha if lookahead else None


def _finite(values, gamma, game: BilinearGame):
    """``values``, a list of the floats of roots or Routh columns, if all are finite."""
    if not all(map(isfinite, values)):
        raise ValueError(f"overflow at gamma = {gamma!r}, sigma_max = {game.sigma_max!r}")
    return values


def _roots(pr, pi, qr, qi, ratios):
    """Re and Im of the larger root of lambda^2 + p lambda + q = 0, then of
    the smaller, for p = pr + i*pi and q = qr + i*qi.  Appends to ``ratios``
    each root's Re over its scale: the sum of the magnitudes of the terms
    that Re sums, each within a few ulps."""
    # Scale p by 2^-k and q by 2^-2k, exactly, to |p| < 2 and |q| < 4 (with
    # 2^k a float); the roots scale by 2^-k.  An overflowed term stays inf.
    k = frexp(0.5 * (abs(pr) + abs(pi) + sqrt(abs(qr) + abs(qi))))[1]
    f, g = ldexp(1.0, -k), ldexp(1.0, k)
    pr, pi, qr, qi = pr * f, pi * f, qr * f * f, qi * f * f
    # d: the principal square root of w = p^2 - 4q (t = 0 iff w = 0), turned to maximize |p + d|.
    wr, wi = pr * pr - pi * pi - 4.0 * qr, 2.0 * pr * pi - 4.0 * qi
    t = sqrt(0.5 * (hypot(wr, wi) + abs(wr)))
    dr, di = (t, 0.5 * wi / (t or 1.0)) if wr >= 0.0 else (0.5 * abs(wi) / t, copysign(t, wi))
    if pr * dr + pi * di < 0.0:
        dr, di = -dr, -di
    br, bi = -0.5 * (pr + dr), -0.5 * (pi + di)
    # The smaller root q/big by Smith's division, of (a + ib)/(c + id) with
    # |c| >= |d|: q/big itself, or -iq over -i*big.
    a, b, c, d = (qr, qi, br, bi) if abs(br) >= abs(bi) else (qi, -qr, bi, -br)
    r = d / c
    den = c + d * r
    sr = (a + b * r) / den
    ratios += (br / (0.5 * (abs(pr) + abs(dr)) or 1.0),
               sr / ((abs(a) + abs(b * r)) / abs(den) or 1.0))
    return br * g, bi * g, sr * g, (b - a * r) / den * g


def modes(method, game: BilinearGame, gamma, alpha=None) -> Modes:
    """Closed-form eigenvalues of C.  Solves lambda^2 + p lambda + q = 0 at
    mu = i*sigma per singular value in floats, without cancellation: the
    larger root -(p + s*sqrt(p^2 - 4q))/2 (s = +-1 maximizing its modulus),
    then the other as q over it.  Rejects roots that overflow."""
    flow, alpha = _phase_flow(method, game, gamma, alpha)
    beta, a_v, a_jv, a_jw = flow.scalars
    ratios = []
    flat = [x for s in game.singular_values.tolist()
            for x in _roots(beta, -a_jw * s, a_jv * s * s, -a_v * s, ratios)]
    roots = np.array(_finite(flat, gamma, game)).view(complex).reshape(-1, 2)
    zero_modes = abs(game.d1 - game.d2)
    abscissa = max(flat[::2] + ([0.0] if zero_modes else []))
    return Modes(game.singular_values, roots, zero_modes, flow, alpha, abscissa, ratios)


def spectral_abscissa(matrix) -> float:
    """max Re(lambda) over the eigenvalues of a dense real matrix."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains non-finite entries")
    return float(np.linalg.eigvals(matrix).real.max())


def _classify(values, tols):
    """UNSTABLE > MARGINAL > STABLE: the order of a max over the modes' abscissae."""
    if any(map(gt, values, tols)):
        return UNSTABLE
    return MARGINAL if any(map(le, map(abs, values), tols)) else STABLE


def routh_quartic_gda(beta, kappa) -> list:
    """Routh first column of the gda-flow quartic; always 2 sign changes."""
    _check_beta_kappa(beta, kappa)
    return [1.0, 2.0 * beta, beta ** 2, 2.0 * kappa * beta, -kappa * beta ** 2]


def routh_quartic_ogda(beta, kappa) -> list:
    """Routh first column of the ogda-flow quartic; all entries positive."""
    _check_beta_kappa(beta, kappa)
    pivot = beta ** 2 - 2.0 * kappa
    fourth = (-2.0 * beta * kappa) * (3.0 * beta ** 2 - 4.0 * kappa) / pivot
    return [1.0, 2.0 * beta, pivot, fourth, fourth * (-kappa * beta ** 2)]


def _check_beta_kappa(beta, kappa):
    if beta <= 0:
        raise ValueError("beta must be positive")
    if kappa >= 0:
        raise ValueError("kappa must be negative (eigenvalue of -A A^T, full-rank A)")


def complex_quadratic_margin(beta, mu) -> float:
    """Re(mu) + Im(mu)^2 / beta^2: lambda*(beta + lambda) - mu = 0 is stable iff this
    margin is negative (generalized Hurwitz test for a complex quadratic)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return mu.real + (mu.imag / beta) ** 2


def classify_method(method, game: BilinearGame, gamma, alpha=None) -> StabilityVerdict:
    """Routh / complex-quadratic verdict, cross-checked by the roots of ``modes``."""
    m = modes(method, game, gamma, alpha)
    (beta, a_v, a_jv, _), zeros, routh = m.flow.scalars, [0.0] * m.zero_modes, None
    if method in ("gda", "ogda"):
        column = routh_quartic_gda if method == "gda" else routh_quartic_ogda
        columns = [column(beta, -s * s) for s in m.sigma.tolist()]
        routh = np.array(_finite([x for c in columns for x in c], gamma, game)).reshape(-1, 5)
        # Entry 0 is 1: the least entry is negative iff the column changes sign.
        # Entry 4 is -kappa beta^2 > 0 (gda) or entry 3 times it (ogda), so the
        # first four decide, also where entry 4 underflows to 0 (ogda at
        # gamma^3/sigma^4 above about 1e325).
        values, tols = [-min(c[:4]) for c in columns], [0.0] * len(columns)
    else:
        # complex_quadratic_margin of a_v mu + a_jv mu^2 at mu = +-i*sigma; its terms set its scale
        values, tols = [], []
        for s in m.sigma.tolist():
            re, drift = -a_jv * s * s, (a_v * s / beta) ** 2
            values.append(re + drift)
            tols.append(EPS * max(abs(re), drift))
    # Each root's Re over its scale (0 at a zero root): the largest decides.
    ratio = max(m.ratios)
    verdict = _classify(values + zeros, tols + zeros)
    abscissa_verdict = _classify([ratio] + zeros, [EPS] + zeros)
    return StabilityVerdict(method, gamma, m.alpha, m.spectral_abscissa, verdict,
                            abscissa_verdict, verdict == abscissa_verdict, routh)


def eg_hrde_spurious_fixed_point(beta) -> Array:
    """Nonzero diagonal point (r, r) where the eg-flow freezes on x^4 - y^4.

    Solves 2 J(r, r) V(r, r) = beta V(r, r), i.e. 24 r^2 = beta, as
    r = sqrt(beta / 24), and verifies that the full flow right-hand side
    vanishes at ((r, r), 0).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    r = np.sqrt(beta / 24.0)
    point = np.array([r, r])

    quartic = QuarticCounterexample()
    dz, domega = rhs(eg_flow(beta), quartic, point, np.zeros(2))
    norm = float(np.hypot(np.linalg.norm(dz), np.linalg.norm(domega)))
    if norm > 1e-10:
        raise RuntimeError(f"fixed-point residual {norm:.3e} exceeds 1e-10")
    return point
