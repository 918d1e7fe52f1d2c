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

from .optimizers import ogda_s_w0, step_ogda_s
from .problems import Operator, as_state

Array = np.ndarray


def _sq(v) -> float:
    return float(v @ v)


def _jac_quad(op: Operator, z, x) -> float:
    return float(x @ (op.jacobian(z) @ x))


def _with_field(formula):
    """A row function ``(op, z, aux, s)`` that evaluates V(z) once and passes
    it to ``formula(op, z, aux, s, v)``."""
    return lambda op, z, aux, s: formula(op, z, aux, s, op.field(z))


class _Kind(NamedTuple):
    aux_var: str                     # the state's auxiliary variable: "omega" or "w"
    scale: Optional[str]             # "beta", "kappa", "gamma", "beta(t)" or None
    discrete: bool                   # whether discrete schemes may use it
    value: Callable                  # (op, z, aux, scale) -> value of the functional
    rate: Optional[Callable] = None  # (op, z, aux, flow scale) -> closed-form d/dt


#: kind -> row, in catalog order.  A rate's scale is its flow's: beta on
#: (z, omega) states, kappa on (z, w) states.
KINDS = {
    "ogda_l": _Kind("omega", "beta", False, _with_field(lambda op, z, w, b, v: (
        _sq(b * z + w) + _sq(w) + 4.0 * b * float(z @ v) + _sq(v + w) + _sq(v)))),
    "ogda_l1": _Kind(
        "omega", "beta", False,
        _with_field(lambda op, z, w, b, v: (
            0.5 * (_sq(b * z + w) + _sq(w) + 4.0 * b * float(z @ v)))),
        _with_field(lambda op, z, w, b, v: (
            -b * _sq(w) - b ** 2 * float(z @ v) - 4.0 * _jac_quad(op, z, w)))),
    "ogda_l2": _Kind(
        "omega", None, False,
        _with_field(lambda op, z, w, s, v: 0.5 * (_sq(v + w) + _sq(v))),
        _with_field(lambda op, z, w, b, v: -b * _sq(v + w) - _jac_quad(op, z, w))),
    "ogda2_l": _Kind("w", "kappa", True, _with_field(lambda op, z, w, k, v: (
        k ** 2 * _sq(z + w) + k ** 2 * _sq(z - w) + _sq(k * (z + w) + v) + _sq(v)))),
    "ogda2_l3": _Kind(
        "w", None, True,
        lambda op, z, w, s: 0.5 * (_sq(z + w) + _sq(z - w)),
        _with_field(lambda op, z, w, k, v: -2.0 * k * _sq(z + w) - 4.0 * float(z @ v))),
    "ogda2_l4": _Kind(
        "w", "kappa", True,
        _with_field(lambda op, z, w, k, v: 0.5 * (_sq(k * (z + w) + v) + _sq(v))),
        _with_field(lambda op, z, w, k, v: (
            -2.0 * k * _sq(k * (z + w) + v) - _jac_quad(op, z, -k * (z + w) - 2.0 * v)))),
    "ogda_l5": _Kind("w", "gamma", True, _with_field(lambda op, z, w, g, v: (
        _sq(z - w) + _sq(z + w + 2.0 * g * v)))),
    "ogda_i_l1": _Kind("omega", "beta", True, _with_field(lambda op, z, w, b, v: (
        _sq(b * z + w) + _sq(w) + 2.0 * b * float(z @ v)))),
    "ogda_i_l2": _Kind("omega", None, True, _with_field(lambda op, z, w, s, v: (
        _sq(v + w) + _sq(v)))),
    "varstep_l": _Kind("w", "beta(t)", False, lambda op, z, w, b: (
        0.5 * (_sq(b * z + w) + _sq(w - b * z)))),
}


def evaluate(kind, op: Operator, z, aux, beta=None, kappa=None, gamma=None) -> float:
    """Value of the named functional at state (z, aux).

    The kind's scale (``KINDS``) names the argument it requires: ``beta``
    (also for a beta(t) scale, at the current t), ``kappa`` or ``gamma``.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown lyapunov kind {kind!r}; known: {', '.join(KINDS)}")
    row = KINDS[kind]
    z = as_state(z, op.dim)
    aux = as_state(aux, op.dim)
    scale = {None: None, "beta": beta, "beta(t)": beta, "kappa": kappa, "gamma": gamma}[row.scale]
    if row.scale is not None:
        scale = _require(scale, row.scale, kind)
    return row.value(op, z, aux, scale)


def _require(value, name, kind):
    if value is None:
        raise ValueError(f"lyapunov kind {kind!r} requires {name}")
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be positive")
    return value


def make_monitor(kind, op: Operator, beta=None, kappa=None, gamma=None, beta_fn=None):
    """Recorder callable ``f(t, z, aux) -> value`` for run/integrate loops.

    A kind with a beta(t) scale takes ``beta_fn`` (t -> beta(t)) when it is
    given; the others take their scale as a constant.
    """
    if beta_fn is not None and kind in KINDS and KINDS[kind].scale == "beta(t)":
        return lambda t, z, aux: evaluate(kind, op, z, aux, beta=float(beta_fn(t)))

    def monitor(t, z, aux):
        return evaluate(kind, op, z, aux, beta=beta, kappa=kappa, gamma=gamma)

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
    underlying continuous statements are exact.
    """
    values = np.asarray(values, dtype=float)
    violations = []
    max_increase = -np.inf
    for i in range(values.size - 1):
        increase = values[i + 1] - values[i]
        max_increase = max(max_increase, increase)
        if increase > tol_abs + tol_rel * (1.0 + abs(values[i])):
            violations.append(i)
    return DecreaseReport(violations, float(max_increase))


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
    return row.rate(op, z, aux, _require(scale, name, kind))


def discrete_l5_difference(op: Operator, z, w, v_prev, gamma):
    """One-step change of the two-variable functional and its certified bound.

    Returns ``(delta, bound)`` with bound = -2 gamma^2 |v_prev|^2 where
    ``v_prev`` is the field at the previous iterate (at the first step, with
    the z_1 = z_0 initialization, pass V(z_0)).  Under gamma <= 1/(16 L) the
    scheme guarantees delta <= bound.
    """
    z = as_state(z, op.dim)
    w = as_state(w, op.dim)
    v_prev = as_state(v_prev, op.dim)
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    before = evaluate("ogda_l5", op, z, w, gamma=gamma)
    z_next, w_next = step_ogda_s(op, z, w, gamma)
    after = evaluate("ogda_l5", op, z_next, w_next, gamma=gamma)
    bound = -2.0 * gamma ** 2 * _sq(v_prev)
    return after - before, bound


def l5_decrease_sweep(op: Operator, z0, gamma, steps):
    """Run the two-variable scheme from z0 and return (deltas, bounds) arrays."""
    z = as_state(z0, op.dim)
    w = ogda_s_w0(op, z, gamma)
    v_prev = op.field(z)  # z_1 = z_0 convention
    deltas = np.zeros(steps)
    bounds = np.zeros(steps)
    for n in range(steps):
        deltas[n], bounds[n] = discrete_l5_difference(op, z, w, v_prev, gamma)
        v_prev = op.field(z)
        z, w = step_ogda_s(op, z, w, gamma)
    return deltas, bounds


def discrete_implicit_decrease(op: Operator, state, next_state, gamma):
    """Differences of the two implicit-scheme functionals between consecutive
    states ((z, omega) tuples); both are <= 0 along the scheme."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    beta = 2.0 / gamma
    z, omega = state
    z_next, omega_next = next_state
    d1 = (evaluate("ogda_i_l1", op, z_next, omega_next, beta=beta)
          - evaluate("ogda_i_l1", op, z, omega, beta=beta))
    d2 = (evaluate("ogda_i_l2", op, z_next, omega_next)
          - evaluate("ogda_i_l2", op, z, omega))
    return d1, d2


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
