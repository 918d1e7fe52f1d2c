"""Quantitative rate verification: best-iterate bounds, rate fits, and the
windowed pseudotrajectory diagnostic.

The public checks and fits evaluate under np.errstate(all="ignore"), as
``Recorder.finish`` does: the tiny norms of a converging run square to an
underflow, and an overflow is an inf in the result, never a
``FloatingPointError`` or a warning, under any errstate of the caller.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flows import IntegratorConfig, integrate, make_flow, ogda2_w_from_omega
from .problems import Operator

Array = np.ndarray


def best_iterate(values) -> Array:
    """Running minimum m_n = min_{i <= n} values_i (non-increasing)."""
    values = np.asarray(values, dtype=float)
    return np.minimum.accumulate(values)


@np.errstate(all="ignore")
def explicit_bound(gamma, lipschitz, z0_norm, n) -> float:
    """(8 + 36 (gamma L)^2) |z0|^2 / (2 gamma^2 n): the certified cap on
    min_{i <= n} |V(z_i)|^2 for the optimistic method with z_1 = z_0 and
    gamma <= 1/(16 L), in numpy, where a bound past the float range is inf.
    The cap keeps gamma L, squared as one number, below 1/16 at any L."""
    gamma, z0_norm = np.float64(gamma), np.float64(z0_norm)
    return (8.0 + 36.0 * (gamma * lipschitz) ** 2) * z0_norm ** 2 / (2.0 * gamma ** 2 * n)


#: Relative slack of the step cap, about 4.5 units in the last place of 1:
#: 16 gamma L rounds to within two units of 1 at a gamma of 1/(16 L).
STEP_CAP_EPS = 1e-15


@np.errstate(all="ignore")
def within_step_cap(gamma, lipschitz) -> bool:
    """16 gamma L <= 1 + STEP_CAP_EPS: gamma <= 1/(16 L), the cap of
    ``explicit_bound``, up to a slack relative to it, at any size of L."""
    return 16.0 * gamma * lipschitz <= 1.0 + STEP_CAP_EPS


@np.errstate(all="ignore")
def best_iterate_bound_check(v_norms, gamma, lipschitz, z0_norm, steps=None):
    """Margins bound_n - min_{i <= n} |V(z_i)|^2 for every recorded n >= 1.

    ``v_norms`` starts with the initial iterate; ``steps`` are the records'
    step numbers n (default 0, 1, 2, ...).  All margins are nonnegative when
    the step-size cap ``within_step_cap`` holds.  A bound and a running
    minimum that both exceed the float range have no margin (inf - inf): ValueError.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not within_step_cap(gamma, lipschitz):
        raise ValueError("explicit bound requires gamma <= 1/(16 L)")
    v_norms = np.asarray(v_norms, dtype=float)
    if v_norms.ndim != 1 or v_norms.size < 2:
        raise ValueError("need at least the initial iterate and one step")
    running = best_iterate(v_norms ** 2)
    ns = np.arange(1, v_norms.size) if steps is None else np.asarray(steps)[1:]
    bounds = explicit_bound(gamma, lipschitz, z0_norm, ns)
    unordered = np.flatnonzero(np.isinf(bounds) & np.isinf(running[1:]))
    if unordered.size:
        raise ValueError(f"explicit bound (8 + 36 (gamma L)^2) |z0|^2 / (2 gamma^2 n) and "
                         f"min |V(z_i)|^2 both exceed the float range at n = {ns[unordered[0]]}")
    return bounds - running[1:]


@dataclass
class RateFit:
    """Least-squares rate fit on a positive tail window."""

    exponent: Optional[float]   # power-law slope (None for geometric fits)
    rho_hat: Optional[float]    # geometric rate (None for power-law fits)
    intercept: float
    residual_rms: float
    window: tuple
    rho_theory: Optional[float] = None


def _tail_window(n, tail_fraction):
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    start = int(np.floor(n * (1.0 - tail_fraction)))
    return min(start, n - 2), n


def _tail_fit(times, values, tail_fraction, kind, abscissa):
    """Least-squares line through (abscissa(t), log v) over the tail window:
    its slope, intercept, residual RMS and window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1 or times.size < 2:
        raise ValueError("times and values must be equal-length 1-d arrays")
    start, end = _tail_window(times.size, tail_fraction)
    t, v = times[start:end], values[start:end]
    if np.any(v <= 0):
        raise ValueError(f"{kind} fit requires positive values in the window")
    x, log_v = abscissa(t), np.log(v)
    # np.polyfit divides x by its root-sum-square.  Where that is 0 (every
    # |x| below about 1e-162, so any subnormal span) or x is not finite,
    # LAPACK rejects the scaled column, and prints to stdout, before numpy
    # raises; where it overflows (|x| from about 1e154) the scaled column is
    # 0 and the fit wrong, with a RankWarning; a zero span has no slope.
    if not (np.isfinite(x).all() and np.ptp(x) > 0 and 0 < (x * x).sum() < np.inf):
        raise ValueError(f"{kind} fit: degenerate abscissa {float(x[0])!r} .. {float(x[-1])!r} "
                         "in the window (not finite, zero span, every |x| < 1e-162 "
                         "or a sum of x^2 that overflows)")
    slope, intercept = np.polyfit(x, log_v, 1)
    resid = log_v - (slope * x + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid ** 2))), (start, end)


def _log_times(t):
    if np.any(t <= 0):
        raise ValueError("power-law fit requires positive times in the window")
    return np.log(t)


@np.errstate(all="ignore")
def fit_power_law(times, values, tail_fraction=0.5) -> RateFit:
    """Slope of log(value) vs log(time) over the last tail_fraction of samples."""
    slope, intercept, rms, window = _tail_fit(times, values, tail_fraction, "power-law",
                                              _log_times)
    return RateFit(exponent=slope, rho_hat=None, intercept=intercept, residual_rms=rms,
                   window=window)


@np.errstate(all="ignore")
def fit_geometric(times, values, tail_fraction=0.5, mu=None, beta=None) -> RateFit:
    """Slope of log(value) vs time; rho_hat = -slope.

    When both ``mu`` and ``beta`` are supplied the theoretical geometric rate
    rho = 1 / (1/mu + 9/(2 beta)) is attached for comparison (the certified
    rate is a lower bound on the observed decay).
    """
    slope, intercept, rms, window = _tail_fit(times, values, tail_fraction, "geometric",
                                              lambda t: t)
    rho_theory = None
    if mu is not None and beta is not None:
        rho_theory = 1.0 / (1.0 / mu + 9.0 / (2.0 * beta))
    return RateFit(exponent=None, rho_hat=-slope, intercept=intercept, residual_rms=rms,
                   window=window, rho_theory=rho_theory)


def effective_times(step_sizes) -> Array:
    """tau_n = sum_{k < n} gamma_k (tau_0 = 0), the interpolation time axis."""
    step_sizes = np.asarray(step_sizes, dtype=float)
    return np.concatenate([[0.0], np.cumsum(step_sizes)])


@np.errstate(all="ignore")
def apt_window_check(taus, states, op: Operator, gamma_of_t, T=1.0, windows=8,
                     dt=None, t_start=None) -> Array:
    """Windowed sup-distance between the interpolated iterates and the flow.

    ``taus``/``states`` sample the discrete run on its effective-time axis,
    ``gamma_of_t`` is the continuous step-size schedule on that axis, array
    in and array out, as ``integrate`` reads kappa(t).  For
    each of ``windows`` geometrically spaced anchors t the variable-step flow
    is integrated from the interpolant over the horizon [0, T] and the
    sup-norm difference to the interpolant is returned.  A vanishing
    pseudotrajectory gap shows up as (eventually) shrinking window sups.
    Each window interpolates the run at all of its record times at once, one
    ``np.interp`` per coordinate.
    """
    taus = np.asarray(taus, dtype=float)
    states = np.asarray(states, dtype=float)
    if taus.ndim != 1 or states.shape[0] != taus.size:
        raise ValueError("taus and states must align")
    if windows < 2:
        raise ValueError("need at least 2 windows")
    t_end = taus[-1] - T
    if t_start is None:
        t_start = max(taus[1], 1e-3 * taus[-1])
    if not t_start < t_end:
        raise ValueError("trajectory too short for the requested horizon")

    kappa_fn = lambda t: 1.0 / gamma_of_t(t)  # noqa: E731
    flow = make_flow("ogda-hrde2-varstep", kappa_fn=kappa_fn)

    def interp(t):
        """The interpolant at ``t``, a time or an array of them (one row each)."""
        return np.stack([np.interp(t, taus, col) for col in states.T], axis=-1)

    def slope_at(t):
        i = int(np.searchsorted(taus, t, side="right") - 1)
        i = min(max(i, 0), taus.size - 2)
        return (states[i + 1] - states[i]) / (taus[i + 1] - taus[i])

    anchors = np.geomspace(t_start, t_end, windows)
    sups = np.zeros(windows)
    for j, t0 in enumerate(anchors):
        z0 = interp(t0)
        gamma_t = float(gamma_of_t(t0))
        w0 = ogda2_w_from_omega(op, z0, slope_at(t0), gamma_t)
        kappa_max = max(kappa_fn(t0), kappa_fn(t0 + T))
        step = dt if dt is not None else min(1e-3, 0.2 / kappa_max)
        cfg = IntegratorConfig("rk4", step, T, record_every=1)
        traj = integrate(flow, op, z0, w0, cfg, t0=t0)
        sups[j] = np.linalg.norm(interp(t0 + (traj.times - t0)) - traj.states, axis=1).max()
    return sups
