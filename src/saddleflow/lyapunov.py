"""Lyapunov functionals for the optimistic flows and their discrete schemes.

Continuous-time kinds (state (z, omega), scale beta = 2/gamma):

    ogda_l   = |beta z + w|^2 + |w|^2 + 4 beta z.V + |V + w|^2 + |V|^2
    ogda_l1  = (|beta z + w|^2 + |w|^2 + 4 beta z.V) / 2
    ogda_l2  = (|V + w|^2 + |V|^2) / 2                       (w = omega here)

Jacobian-free kinds (state (z, w), scale kappa = 1/gamma):

    ogda2_l  = kappa^2 |z+w|^2 + kappa^2 |z-w|^2 + |kappa (z+w) + V|^2 + |V|^2
    ogda2_l3 = (|z + w|^2 + |z - w|^2) / 2
    ogda2_l4 = (|kappa (z+w) + V|^2 + |V|^2) / 2

Discrete kinds:

    ogda_l5   = |z - w|^2 + |z + w + 2 gamma V(z)|^2          (two-variable scheme)
    ogda_i_l1 = |beta z + omega|^2 + |omega|^2 + 2 beta z.V   (implicit scheme)
    ogda_i_l2 = |V + omega|^2 + |V|^2

Variable-step kind (state (z, w), scale beta(t)):

    varstep_l = (|beta z + w|^2 + |w - beta z|^2) / 2

The analytic decrease rates implement the exact chain-rule derivatives (they
are checked against finite differences of the functional along the flow):

    d/dt ogda_l1  = -beta |w|^2 - beta^2 z.V - 4 w.J w
    d/dt ogda_l2  = -beta |V + w|^2 - w.J w
    d/dt ogda2_l3 = -2 kappa |z + w|^2 - 4 z.V
    d/dt ogda2_l4 = -2 kappa |kappa (z+w) + V|^2 - zdot.J zdot,
                    zdot = -kappa (z+w) - 2V

all nonpositive for monotone fields (z.V >= 0 with the solution at the
origin, and J(z) is positive semidefinite).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .optimizers import row_dots
from .problems import Operator, as_state

Array = np.ndarray


def _dot(x, y) -> Array:
    """``row_dots`` of two (n, d) stacks as an (n, 1) column."""
    return row_dots(x, y)[:, None]


def _sq(x) -> Array:
    return _dot(x, x)


def _jac_quad(op: Operator, zs, xs) -> Array:
    return np.array([[x @ (op.jacobian(z) @ x)] for z, x in zip(zs, xs)])


def _with_field(formula):
    """A row function ``(op, z, aux, s, fields)`` that evaluates V at the rows
    of z once, with ``fields``, and passes it to ``formula(op, z, aux, s, v)``."""
    return lambda op, z, aux, s, fields: formula(op, z, aux, s, fields(z))


class _Kind(NamedTuple):
    aux_var: str                     # the state's auxiliary variable: "omega" or "w"
    scale: Optional[str]             # "beta", "kappa", "gamma", "beta(t)" or None
    discrete: bool                   # whether discrete schemes may use it
    value: Callable                  # (op, z, aux, scale, fields) -> value of the functional
    rate: Optional[Callable] = None  # (op, z, aux, flow scale, fields) -> closed-form d/dt


#: kind -> row, in catalog order.  A rate's scale is its flow's: beta on
#: (z, omega) states, kappa on (z, w) states.  Every formula acts on (n, d)
#: stacks of states and auxes with a scale that is a number or an (n, 1)
#: column, and gives an (n, 1) column.
KINDS = {
    "ogda_l": _Kind("omega", "beta", False, _with_field(lambda op, z, w, b, v: (
        _sq(b * z + w) + _sq(w) + 4.0 * b * _dot(z, v) + _sq(v + w) + _sq(v)))),
    "ogda_l1": _Kind(
        "omega", "beta", False,
        _with_field(lambda op, z, w, b, v: (
            0.5 * (_sq(b * z + w) + _sq(w) + 4.0 * b * _dot(z, v)))),
        _with_field(lambda op, z, w, b, v: (
            -b * _sq(w) - b ** 2 * _dot(z, v) - 4.0 * _jac_quad(op, z, w)))),
    "ogda_l2": _Kind(
        "omega", None, False,
        _with_field(lambda op, z, w, s, v: 0.5 * (_sq(v + w) + _sq(v))),
        _with_field(lambda op, z, w, b, v: -b * _sq(v + w) - _jac_quad(op, z, w))),
    "ogda2_l": _Kind("w", "kappa", True, _with_field(lambda op, z, w, k, v: (
        k ** 2 * _sq(z + w) + k ** 2 * _sq(z - w) + _sq(k * (z + w) + v) + _sq(v)))),
    "ogda2_l3": _Kind(
        "w", None, True,
        lambda op, z, w, s, fields: 0.5 * (_sq(z + w) + _sq(z - w)),
        _with_field(lambda op, z, w, k, v: -2.0 * k * _sq(z + w) - 4.0 * _dot(z, v))),
    "ogda2_l4": _Kind(
        "w", "kappa", True,
        _with_field(lambda op, z, w, k, v: 0.5 * (_sq(k * (z + w) + v) + _sq(v))),
        _with_field(lambda op, z, w, k, v: (
            -2.0 * k * _sq(k * (z + w) + v) - _jac_quad(op, z, -k * (z + w) - 2.0 * v)))),
    "ogda_l5": _Kind("w", "gamma", True, _with_field(lambda op, z, w, g, v: (
        _sq(z - w) + _sq(z + w + 2.0 * g * v)))),
    "ogda_i_l1": _Kind("omega", "beta", True, _with_field(lambda op, z, w, b, v: (
        _sq(b * z + w) + _sq(w) + 2.0 * b * _dot(z, v)))),
    "ogda_i_l2": _Kind("omega", None, True, _with_field(lambda op, z, w, s, v: (
        _sq(v + w) + _sq(v)))),
    "varstep_l": _Kind("w", "beta(t)", False, lambda op, z, w, b, fields: (
        0.5 * (_sq(b * z + w) + _sq(w - b * z)))),
}


def evaluate(kind, op: Operator, z, aux, beta=None, kappa=None, gamma=None):
    """Value of the named functional at state (z, aux).

    The kind's scale (``KINDS``) names the argument it requires: ``beta``
    (also for a beta(t) scale, at the current t), ``kappa`` or ``gamma``.

    For one state (1-d z and aux) the state is validated, V is the checked
    ``op.field`` and the value is a float.  For an (n, d) stack of states and
    auxes the value is an (n,) array, row i equal to the one-state value of
    row i bit for bit; the scale may then also be an (n,) array (a beta(t)
    read at each row's time).  V comes from ``op.fields_unchecked``, so a
    finite state whose field or value overflows gives inf or NaN, under any
    np.errstate.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown lyapunov kind {kind!r}; known: {', '.join(KINDS)}")
    row = KINDS[kind]
    scale = {None: None, "beta": beta, "beta(t)": beta, "kappa": kappa, "gamma": gamma}[row.scale]
    if np.ndim(z) == 2:
        zs, auxs = _as_stack(z, op.dim), _as_stack(aux, op.dim)
        if len(auxs) != len(zs):
            raise ValueError(f"aux has {len(auxs)} rows, expected {len(zs)}")
        if row.scale is not None:
            scale = _require_stack(scale, row.scale, kind, len(zs))
        with np.errstate(over="ignore", invalid="ignore"):
            return row.value(op, zs, auxs, scale, op.fields_unchecked)[:, 0]
    z = as_state(z, op.dim)
    aux = as_state(aux, op.dim)
    if row.scale is not None:
        scale = _require(scale, row.scale, kind)
    return float(row.value(op, z[None], aux[None], scale, _checked_field(op))[0, 0])


def _checked_field(op: Operator):
    """``fields`` for a one-row stack: the validated ``op.field``."""
    return lambda zs: op.field(zs[0])[None]


def _as_stack(zs, dim) -> Array:
    zs = np.asarray(zs, dtype=float)
    if zs.ndim != 2 or zs.shape[1] != dim:
        raise ValueError(f"expected an (n, {dim}) stack of states, got shape {zs.shape}")
    return zs


def _require(value, name, kind):
    if value is None:
        raise ValueError(f"lyapunov kind {kind!r} requires {name}")
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be positive")
    return value


def _require_stack(value, name, kind, n):
    """A scale for n rows: a positive number, or an (n,) array of them as an
    (n, 1) column."""
    if np.ndim(value) == 0:
        return _require(value, name, kind)
    value = np.asarray(value, dtype=float)
    if value.shape != (n,):
        raise ValueError(f"{name} must be a number or an array of {n} values")
    if not (value > 0).all():
        raise ValueError(f"{name} must be positive")
    return value[:, None]


def make_monitor(kind, op: Operator, beta=None, kappa=None, gamma=None, beta_fn=None):
    """Recorder callable ``f(ts, zs, auxs) -> values`` for run/integrate loops:
    the functional at each of n records, from the (n,) record times and the
    (n, d) stacks of states and auxes, in one ``evaluate`` call.

    A kind with a beta(t) scale takes ``beta_fn`` (t -> beta(t)) when it is
    given, called once per record time; the others take their scale as a
    constant.
    """
    if beta_fn is not None and kind in KINDS and KINDS[kind].scale == "beta(t)":
        return lambda ts, zs, auxs: evaluate(
            kind, op, zs, auxs, beta=np.array([float(beta_fn(t)) for t in ts.tolist()]))

    def monitor(ts, zs, auxs):
        return evaluate(kind, op, zs, auxs, beta=beta, kappa=kappa, gamma=gamma)

    return monitor


@dataclass
class DecreaseReport:
    """Outcome of a monotone-decrease sweep over recorded values."""

    violations: list          # indices i where value[i+1] exceeds the slack
    max_increase: float       # largest observed value[i+1] - value[i]

    @property
    def ok(self) -> bool:
        return not self.violations


def continuous_decrease_check(values, tol_abs=1e-7, tol_rel=1e-9) -> DecreaseReport:
    """Check that a recorded functional is non-increasing.

    The slack tol_abs + tol_rel * (1 + |value|) absorbs integrator error; the
    underlying continuous statements are exact.  A NaN increase (a NaN value,
    or inf - inf) is neither a violation nor a candidate for
    ``max_increase``, which is the first largest of the other increases, or
    -inf when there are none.
    """
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        increases = np.diff(values)
        violations = np.flatnonzero(increases > tol_abs + tol_rel * (1.0 + np.abs(values[:-1])))
    candidates = increases[~np.isnan(increases)]
    max_increase = candidates[np.argmax(candidates)] if candidates.size else -np.inf
    return DecreaseReport(violations.tolist(), float(max_increase))


def analytic_decrease_rate(kind, op: Operator, z, aux, beta=None, kappa=None) -> float:
    """Closed-form time derivative of a functional along its flow (the kinds
    with a rate in ``KINDS``; see module docstring), nonpositive for monotone
    operators.  It takes the flow's scale: ``beta`` on (z, omega) states,
    ``kappa`` on (z, w) states."""
    z = as_state(z, op.dim)
    aux = as_state(aux, op.dim)
    row = KINDS.get(kind)
    if row is None or row.rate is None:
        available = ", ".join(name for name, r in KINDS.items() if r.rate is not None)
        raise ValueError(f"no closed-form rate for kind {kind!r}; available: {available}")
    name, scale = ("beta", beta) if row.aux_var == "omega" else ("kappa", kappa)
    scale = _require(scale, name, kind)
    return float(row.rate(op, z[None], aux[None], scale, _checked_field(op))[0, 0])


def varstep_precondition(beta_fn, mu, t_range, samples=256) -> bool:
    """Check beta(t) * beta'(t) < 2 mu on a sampled grid of t_range.

    Under this constant the varstep_l functional is non-increasing along the
    variable-step flow on a mu-strongly monotone problem; beta' is taken by
    central differences.
    """
    if not mu >= 0:
        raise ValueError("mu must be nonnegative")
    t0, t1 = map(float, t_range)
    if not t1 > t0:
        raise ValueError("t_range must satisfy t0 < t1")
    ts = np.linspace(t0, t1, samples)
    h = max(1e-7, (t1 - t0) * 1e-7)
    for t in ts:
        beta = float(beta_fn(t))
        beta_dot = (float(beta_fn(t + h)) - float(beta_fn(max(t - h, t0)))) / (
            h + min(h, t - t0)
        )
        if not beta * beta_dot < 2.0 * mu:
            return False
    return True
