"""High-resolution differential equations of the discrete optimizers.

Every flow is written in first-order form.  Phase-space kinds evolve (z, omega)
with dz/dt = omega and

    domega/dt = -beta*omega + a_v*V(z) + a_jv*J(z)V(z) + a_jw*J(z)omega,

with the coefficient rows

    method          a_v           a_jv     a_jw
    gda-hrde        -beta         0        0
    eg-hrde         -beta         2        0
    ogda-hrde       -beta         0       -2
    la2-gda-hrde    -2*alpha*beta 2*alpha  0
    la3-gda-hrde    -3*alpha*beta 6*alpha  0

where beta = 2/gamma.  The Jacobian-free optimistic form evolves (z, w):

    dz/dt = -kappa*(z + w) - 2 V(z),   dw/dt = -kappa*(z + w),

with kappa = beta/2 = 1/gamma, optionally time-varying (ogda-hrde2 is the
constant-kappa case of ogda-hrde2-varstep).  The shared low-resolution
baseline dz/dt = -V(z) is also provided; it carries an empty aux.

On an affine field V(z) = J z + q every flow whose derivative does not read
t is the linear system d/dt (z, aux) = C (z, aux) + m, which
``linear_system`` reads off its ``derivative``.  A fixed-step scheme on it
is the one-step map s' = R s of the stacked state, which ``integrate``
steps as ``run`` steps a method's map.  The time-varying optimistic flow is
S(kappa) = S0 + kappa S1 there, and ``integrate`` steps it by one exact map
R_n per step, built a block of steps at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from inspect import signature
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .optimizers import (BLOCK_BYTES, BLOCK_ROWS, STEP_MAP_MAX_WIDTH, Recorder, Trajectory,
                         affine_system, each_step, matmul_step, per_step_blocks, read_positive,
                         step_loop)
from .problems import Operator, as_state

Array = np.ndarray


# ---------------------------------------------------------------------------
# Flow descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseFlow:
    """(z, omega) flow carrying one row of the coefficient table above."""

    beta: float
    a_v: float
    a_jv: float
    a_jw: float
    name: str

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")

    def derivative(self, op, z, omega, t):
        v = op.field(z)
        domega = self.a_v * v - self.beta * omega
        if self.a_jv != 0.0 or self.a_jw != 0.0:
            jac = op.jacobian(z)
            if self.a_jv != 0.0:
                domega = domega + self.a_jv * (jac @ v)
            if self.a_jw != 0.0:
                domega = domega + self.a_jw * (jac @ omega)
        return omega.copy(), domega


def gda_flow(beta) -> PhaseFlow:
    return PhaseFlow(beta, -beta, 0.0, 0.0, "gda-hrde")


def eg_flow(beta) -> PhaseFlow:
    return PhaseFlow(beta, -beta, 2.0, 0.0, "eg-hrde")


def ogda_flow(beta) -> PhaseFlow:
    return PhaseFlow(beta, -beta, 0.0, -2.0, "ogda-hrde")


def la2_flow(beta, alpha) -> PhaseFlow:
    _check_alpha(alpha)
    return PhaseFlow(beta, -2.0 * alpha * beta, 2.0 * alpha, 0.0, "la2-gda-hrde")


def la3_flow(beta, alpha) -> PhaseFlow:
    _check_alpha(alpha)
    return PhaseFlow(beta, -3.0 * alpha * beta, 6.0 * alpha, 0.0, "la3-gda-hrde")


def _check_alpha(alpha):
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")


def _optimistic_derivative(op, z, w, kappa):
    drift = -kappa * (z + w)
    return drift - 2.0 * op.field(z), drift


#: A field that is zero everywhere: the optimistic derivative through it is
#: the kappa-drift alone.
_NO_FIELD = SimpleNamespace(field=np.zeros_like)


@dataclass(frozen=True)
class VariableStepFlow:
    """(z, w) optimistic flow with kappa(t) = 1/gamma(t); ``integrate``
    reads ``kappa_fn`` at the stage times of a block of steps at once, so it
    is array in, array out.  A kappa that is not positive raises ValueError.
    """

    kappa_fn: Callable[[Array], Array]
    name: str = "ogda-hrde2-varstep"
    reads_t = True  # the only flow whose derivative reads t

    def derivative(self, op, z, w, t):
        kappa, error = read_positive(self.kappa_fn, np.array([t], dtype=float), "kappa(t)", "t")
        if error is not None:
            raise error
        return _optimistic_derivative(op, z, w, kappa[0])


@dataclass(frozen=True)
class ConstantKappaFlow:
    """(z, w) optimistic flow with a constant kappa = 1/gamma: ogda-hrde2."""

    kappa: float
    name = "ogda-hrde2"

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")

    def derivative(self, op, z, w, t):
        return _optimistic_derivative(op, z, w, self.kappa)


@dataclass(frozen=True)
class LowResolutionFlow:
    """dz/dt = -V(z): the step-size-free baseline shared by all methods."""

    name = "gda-ode"

    def derivative(self, op, z, aux, t):
        return -op.field(z), np.zeros_like(z[:0])  # an empty aux, column for column


def rhs(kind, op: Operator, z, aux, t=0.0):
    """Right-hand side of the selected flow at state (z, aux).

    Returns ``(dz, daux)``.  ``aux`` is omega for phase-space kinds, w for the
    Jacobian-free kinds, and ignored (may be None) for the low-resolution ODE,
    whose daux is empty.
    """
    z = np.asarray(z, dtype=float)
    if aux is not None:
        aux = np.asarray(aux, dtype=float)
    return kind.derivative(op, z, aux, t)


def linear_system(kind, op: Operator) -> Array:
    """S = [[C, m], [0, 0]] with d/dt (z, aux, 1) = S (z, aux, 1): a flow
    whose derivative does not read t, on an affine field, read off that
    derivative."""
    if getattr(kind, "reads_t", False):
        raise ValueError(f"flow {kind.name!r} reads t and has no constant linear system")
    n_aux = 0 if isinstance(kind, LowResolutionFlow) else op.dim
    return affine_system(op, n_aux, lambda columns, z, aux: kind.derivative(
        columns, z, aux, 0.0), 0.0)


def ogda2_w_from_omega(op: Operator, z0, omega0, gamma) -> Array:
    """Initialization w0 = -gamma*omega0 - 2*gamma*V(z0) - z0.

    With this map the (z, omega) and (z, w) optimistic flows describe the same
    z(t).
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    z0 = as_state(z0, op.dim)
    omega0 = as_state(omega0, op.dim)
    return -gamma * omega0 - 2.0 * gamma * op.field(z0) - z0


# ---------------------------------------------------------------------------
# Fixed-step integration
# ---------------------------------------------------------------------------

#: Fixed-step scheme -> the degree of its one-step map R(dt*S) on a linear
#: flow, which is also its field evaluations per step.
SCHEMES = {"rk4": 4, "euler": 1}


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step scheme settings; the integration takes round(t_end/dt)
    steps of dt, so it ends at t_end only when t_end is a multiple of dt."""

    scheme: str = "rk4"
    dt: float = 1e-3
    t_end: float = 1.0
    record_every: int = 1

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {', '.join(SCHEMES)}")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


def integrate(kind, op: Operator, z0, aux0, cfg: IntegratorConfig,
              extra_metrics=None, t0=0.0, problem_label=None) -> Trajectory:
    """Fixed-step integration of a flow, recorded by the ``Recorder`` rule.

    Metric columns are those of the discrete run loop (z_norm,
    dist_to_solution, v_norm), computed once when the loop ends.
    ``extra_metrics`` callables receive (ts, zs, auxs) once, for all finite
    records, as in ``Recorder``.  The query column counts
    the field evaluations of the scheme (``SCHEMES``): 4 per RK4 step and 1
    per Euler step.  Divergence is recorded as in ``optimizers.step_loop``;
    caller errors, such as a schedule with kappa(t) <= 0, raise.  A
    ``VariableStepFlow`` schedule is read a block of steps at a time.

    Every path steps the stacked state (z, aux, 1) in ``optimizers.step_loop``.
    On an affine operator a flow whose derivative does not read t is stepped
    by its scheme's one-step map R of ``linear_system`` (``_scheme_map``),
    one matrix-vector product per step, and the time-varying optimistic flow
    by one map R_n per step (``_step_maps``) while its stacked state is at
    most ``STEP_MAP_MAX_WIDTH`` wide.  Every other pair evaluates ``rhs`` at
    each stage, through ``op.unchecked()``, which can overflow one step
    before R s does.

    A non-finite ``aux0`` raises.  A callable ``aux0(view, z)`` derives the
    start from the checked z0, as ``run`` derives ``init_aux``: through
    ``op.unchecked()`` under np.errstate(all="ignore"), so an overflow is a state.
    """
    z = as_state(z0, op.dim)
    if isinstance(kind, LowResolutionFlow):
        aux = np.zeros(0)
    elif callable(aux0):
        with np.errstate(all="ignore"):
            aux = np.asarray(aux0(op.unchecked(), z), dtype=float).reshape(op.dim)
    else:
        aux = as_state(aux0, op.dim)
    recorder = Recorder(op, kind.name, problem_label or op.label,
                        int(round(cfg.t_end / cfg.dt)), cfg.record_every, extra_metrics)
    if op.affine and not getattr(kind, "reads_t", False):
        system = _scheme_map(kind, op, cfg)
        step = matmul_step(lambda n, t, count: [system] * count, SCHEMES[cfg.scheme],
                           _grid_times(t0, cfg.dt))
    elif op.affine and len(z) + len(aux) + 1 <= STEP_MAP_MAX_WIDTH:
        step = _step_maps(kind, op, cfg, t0, recorder.n_steps)
    else:
        step = _rhs_step(kind, op, cfg, t0, recorder.n_steps)
    return step_loop(recorder, step, z, aux, t0)


def _scheme_map(kind, op, cfg):
    """The scheme's stability function of A = dt*S, S = [[C, m], [0, 0]]:
    R = sum_{j<=p} A^j / j! = I + A (I + A/2 (... (I + A/p))), in Horner's
    form on two buffers, with p the scheme's degree (I + A for Euler)."""
    a = linear_system(kind, op)
    degree = SCHEMES[cfg.scheme]
    # An overflowing R is a divergence for the step loop to record, not an error.
    with np.errstate(all="ignore"):
        a *= cfg.dt
        r, tmp = a / degree, np.empty_like(a)
        diag = np.diag_indices_from(r)
        r[diag] += 1.0
        for j in range(degree - 1, 0, -1):
            for c in range(0, len(a), 64):  # column tiles keep BLAS's packing buffer small
                np.matmul(a, r[:, c:c + 64], out=tmp[:, c:c + 64])
            tmp /= j
            tmp[diag] += 1.0
            r, tmp = tmp, r
    return r


def _step_maps(kind, op, cfg, t0, n_steps):
    """``advance`` of ``step_loop`` for a VariableStepFlow on an affine
    field: s' = R_n s, the scheme's exact map for step n (``matmul_step``).

    S(kappa) = S0 + kappa S1 is read off ``_optimistic_derivative``: S0 at
    kappa = 0, S1 through a zero field, so that its entries are 0 and -1 and
    kappa S1 is exact.  The maps are built a block of steps at a time, as
    many as fit in BLOCK_BYTES and remain in the budget, from one read of
    kappa at the block's stage times (``_stage_kappas``); a block of the
    loop ends where one of maps does.  A kappa that is not positive ends the
    block before its step, which then raises as the ``rhs`` path does unless
    an earlier state went non-finite; any other exception of the schedule
    propagates while the block is read, up to a block of steps early.
    """
    dim, dt = op.dim, cfg.dt
    s0 = affine_system(op, dim, lambda cols, z, w: _optimistic_derivative(cols, z, w, 0.0), 0.0)
    s1 = affine_system(op, dim, lambda cols, z, w: _optimistic_derivative(
        _NO_FIELD, z, w, 1.0), 0.0)
    maps = per_step_blocks(_stage_kappas(kind, cfg, t0), lambda kappas: _block_maps(
        s0, s1, kappas, dt), n_steps, max(1, BLOCK_BYTES // s0.nbytes))
    return matmul_step(maps, SCHEMES[cfg.scheme], _grid_times(t0, dt))


def _grid_times(t0, dt):
    """``times_after`` of ``matmul_step``: t0 + (n + 1) dt after step n, as on ``rhs``."""
    return lambda n, t, count: t0 + np.arange(n + 1, n + count + 1) * dt


def _stage_kappas(kind, cfg, t0):
    """``read`` of ``per_step_blocks``: kappa at the distinct stage times of
    steps n .. n + count - 1 in one call, one row per step (t, t + dt/2 and
    t + dt for RK4; t for Euler), each the time of that ``rhs`` stage, bit
    for bit."""
    dt = cfg.dt

    def read(n, t, count):
        ts = t0 + np.arange(n, n + count) * dt
        ts[0] = t
        stages = [ts, ts + 0.5 * dt, ts + dt] if cfg.scheme == "rk4" else [ts]
        return read_positive(kind.kappa_fn, np.stack(stages, axis=1), "kappa(t)", "t")

    return read


def _block_maps(s0, s1, kappas, h):
    """R_n for each row of ``kappas``, the step's kappa at its distinct stage
    times: I + h S_a for Euler; for RK4 I + h/6 (S_a + 2 Q1 + 2 Q2 + Q3) with
    Q1 = S_b (I + h/2 S_a), Q2 = S_b (I + h/2 Q1) and Q3 = S_c (I + h Q2),
    S_x = S0 + kappa_x S1, in three batched products."""
    # Built inside the step loop, whose errstate makes an overflowing R_n a
    # divergence to record.
    eye = np.eye(len(s0))
    s_a, *s_bc = (s0 + kappa[:, None, None] * s1 for kappa in kappas.T)
    if not s_bc:
        return eye + h * s_a
    s_b, s_c = s_bc
    q1 = np.matmul(s_b, eye + (0.5 * h) * s_a)
    q2 = np.matmul(s_b, eye + (0.5 * h) * q1)
    q3 = np.matmul(s_c, eye + h * q2)
    return eye + (h / 6.0) * (s_a + 2.0 * q1 + 2.0 * q2 + q3)


def _rhs_step(kind, op, cfg, t0, n_steps):
    """``each_step`` advance that calls ``rhs`` at each stage, through
    ``op.unchecked()``, and advances the stacked y = (z, aux) in one
    combination of the stages.  A VariableStepFlow's stages are the
    ConstantKappaFlow at their kappa, read a block of steps at a time."""
    view, dim, dt = op.unchecked(), op.dim, cfg.dt
    half, queries = 0.5 * dt, SCHEMES[cfg.scheme]
    if getattr(kind, "reads_t", False):
        stage_kinds = per_step_blocks(_stage_kappas(kind, cfg, t0), lambda kappas: [
            [ConstantKappaFlow(k) for k in row] for row in kappas.tolist()], n_steps, BLOCK_ROWS)
    else:
        fixed = [[kind] * (3 if cfg.scheme == "rk4" else 1)]  # one per distinct stage time
        stage_kinds = lambda n, t, count: fixed  # noqa: E731

    def f(stage_kind, y, t):
        return np.concatenate(rhs(stage_kind, view, y[:dim], y[dim:], t))

    def step(n, s, out, t):
        y, ((kind_a, *kinds_bc),) = s[:-1], stage_kinds(n, t, 1)
        k1 = f(kind_a, y, t)
        if not kinds_bc:
            out[:-1] = y + dt * k1
        else:
            kind_b, kind_c = kinds_bc
            k2 = f(kind_b, y + half * k1, t + half)
            k3 = f(kind_b, y + half * k2, t + half)
            k4 = f(kind_c, y + dt * k3, t + dt)
            out[:-1] = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return t0 + (n + 1) * dt, queries

    return each_step(step)


#: Flow id -> (its aux variable, builder); a builder's parameters are the
#: arguments among gamma, alpha and kappa_fn that the flow reads.  The order
#: is the CLI catalog order.
_FLOWS = {
    "gda-hrde": ("omega", lambda gamma: gda_flow(2.0 / gamma)),
    "eg-hrde": ("omega", lambda gamma: eg_flow(2.0 / gamma)),
    "ogda-hrde": ("omega", lambda gamma: ogda_flow(2.0 / gamma)),
    "la2-gda-hrde": ("omega", lambda gamma, alpha: la2_flow(2.0 / gamma, alpha)),
    "la3-gda-hrde": ("omega", lambda gamma, alpha: la3_flow(2.0 / gamma, alpha)),
    "ogda-hrde2": ("w", lambda gamma: ConstantKappaFlow(1.0 / gamma)),
    "ogda-hrde2-varstep": ("w", lambda kappa_fn: VariableStepFlow(kappa_fn)),
    "gda-ode": (None, lambda: LowResolutionFlow()),
}

#: Flow identifiers exposed to the CLI.
FLOW_IDS = tuple(_FLOWS)

#: Flow id -> the arguments among gamma, alpha and kappa_fn that it reads.
FLOW_READS = {fid: tuple(signature(build).parameters) for fid, (_, build) in _FLOWS.items()}


def make_flow(flow_id, gamma=None, alpha=0.5, kappa_fn=None):
    """Instantiate a flow descriptor from its CLI identifier.

    ``gamma`` sets beta = 2/gamma for phase-space kinds and kappa = 1/gamma
    for the Jacobian-free kind.
    """
    if flow_id not in _FLOWS:
        raise ValueError(f"unknown flow id {flow_id!r}; known: {', '.join(FLOW_IDS)}")
    reads = FLOW_READS[flow_id]
    if "gamma" in reads and (gamma is None or not gamma > 0):
        raise ValueError(f"flow {flow_id!r} requires positive gamma")
    if "kappa_fn" in reads and kappa_fn is None:
        raise ValueError(f"{flow_id} requires a kappa schedule")
    args = {"gamma": gamma, "alpha": alpha, "kappa_fn": kappa_fn}
    return _FLOWS[flow_id][1](**{name: args[name] for name in reads})
