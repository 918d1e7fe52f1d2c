"""High-resolution differential equations of the discrete optimizers.

Every flow is one row of the table ``_FLOWS``, a ``Flow``, written in
first-order form by one of three formulas.  Phase-space rows evolve
(z, omega) with dz/dt = omega and

    domega/dt = -beta*omega + a_v*V(z) + a_jv*J(z)V(z) + a_jw*J(z)omega,

with the coefficient rows

    method          a_v           a_jv     a_jw
    gda-hrde        -beta         0        0
    eg-hrde         -beta         2        0
    ogda-hrde       -beta         0       -2
    la2-gda-hrde    -2*alpha*beta 2*alpha  0
    la3-gda-hrde    -3*alpha*beta 6*alpha  0

where beta = 2/gamma.  The Jacobian-free optimistic rows evolve (z, w):

    dz/dt = -kappa*(z + w) - 2 V(z),   dw/dt = -kappa*(z + w),

with kappa = beta/2 = 1/gamma, constant (ogda-hrde2) or a function of t
(ogda-hrde2-varstep).  The shared low-resolution baseline dz/dt = -V(z)
(gda-ode) carries an empty aux.

On an affine field V(z) = J z + q every flow whose derivative does not read
t is the linear system d/dt (z, aux) = C (z, aux) + m, which
``linear_system`` reads off its ``derivative``.  A fixed-step scheme on it
is the one-step map s' = R s of the stacked state, which ``integrate``
steps as ``run`` steps a method's map, or by modes (``_mode_step``) on a
wide bilinear game.  The time-varying optimistic flow is S(kappa) = S0 +
kappa S1 there, stepped by one exact map R_n per step, built by blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from inspect import signature
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .optimizers import (BLOCK_BYTES, Recorder, Trajectory, affine_system, check_alpha,
                         each_step, matmul_step, read_positive, step_loop)
from .problems import BilinearGame, Operator, as_state, read_only_scalar

Array = np.ndarray


# ---------------------------------------------------------------------------
# Flow descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Flow:
    """The row of ``_FLOWS`` named ``name``: one of the formulas ``_phase``,
    ``_optimistic`` and ``_low_resolution``, and the scalars it reads: (beta,
    a_v, a_jv, a_jw), or (kappa,) with kappa a constant or a function of t.
    ``kernel(field, jvp)`` binds the formula as ``write(z, aux, dz, daux,
    value)``, into arrays aliasing neither z nor aux, with ``value`` the
    stage's -kappa, read by the (z, w) formula only (``stage_value``)."""

    name: str
    formula: Callable
    scalars: tuple = ()

    @property
    def aux_var(self) -> Optional[str]:
        """The memory variable in the table: "omega", "w", or None for an empty aux."""
        return _FLOWS[self.name][0]

    @property
    def reads_t(self) -> bool:
        """True for the row whose kappa is a function of t."""
        return any(map(callable, self.scalars))

    @cached_property
    def _bound(self):
        """(the formula's scalars, a constant -kappa) as read-only 0-d arrays,
        bound on first use: ``classify_method`` builds flows it never evaluates."""
        if self.aux_var != "w":
            return tuple(map(read_only_scalar, self.scalars)), None
        return (), None if self.reads_t else read_only_scalar(-self.scalars[0])

    def kernel(self, field, jvp):
        return self.formula(field, jvp, *self._bound[0])

    def stage_value(self, t):
        """-kappa at time t for a (z, w) row, else None; a kappa(t) that is
        not positive raises ValueError."""
        if not self.reads_t:
            return self._bound[1]
        kappa, error = read_positive(self.scalars[0], np.array([t], dtype=float), "kappa(t)", "t")
        if error is not None:
            raise error
        return -kappa[0]

    def derivative(self, op, z, aux, t, value=None):
        """The formula at (z, aux) and time t through ``op``, into new arrays
        (an empty aux keeps z's stack and columns), at stage value ``value``."""
        dz, daux = np.empty((2, *np.shape(z)))
        self.kernel(op.field, op.jvp)(z, aux, dz, daux,
                                      self.stage_value(t) if value is None else value)
        return dz, daux if self.aux_var else daux[..., :0, :] if daux.ndim > 2 else daux[:0]


def _phase(field, jvp, beta, a_v, a_jv, a_jw):
    """(z, omega) flow of one row of the coefficient table above; its J V and
    J omega terms are Jacobian-vector products, skipped where zero."""
    jv, jw = bool(a_jv), bool(a_jw)

    def write(z, omega, dz, domega, value):
        v = field(z)  # dz is scratch until it takes omega
        np.subtract(np.multiply(a_v, v, domega), np.multiply(beta, omega, dz), domega)
        if jv:
            np.add(domega, np.multiply(a_jv, jvp(z, v), dz), domega)
        if jw:
            np.add(domega, np.multiply(a_jw, jvp(z, omega), dz), domega)
        np.copyto(dz, omega)

    return write


_TWO = read_only_scalar(2.0)


def _optimistic(field, jvp):
    """dz = -kappa (z + w) - 2 V(z), dw = -kappa (z + w), -kappa its stage value."""
    def write(z, w, dz, dw, neg_kappa):
        np.multiply(neg_kappa, np.add(z, w, dw), dw)
        np.subtract(dw, np.multiply(_TWO, field(z), dz), dz)

    return write


def _low_resolution(field, jvp):
    """dz/dt = -V(z): the step-size-free baseline shared by all methods."""
    return lambda z, aux, dz, daux, value: np.negative(field(z), dz)


#: A field that is zero everywhere: the optimistic formula through it is
#: the kappa-drift alone.
_NO_FIELD = SimpleNamespace(field=np.zeros_like, jvp=None)


def _phase_row(name, beta, a_v, a_jv, a_jw) -> Flow:
    if not beta > 0:
        raise ValueError("beta must be positive")
    return Flow(name, _phase, (beta, a_v, a_jv, a_jw))


def gda_flow(beta) -> Flow:
    return _phase_row("gda-hrde", beta, -beta, 0.0, 0.0)


def eg_flow(beta) -> Flow:
    return _phase_row("eg-hrde", beta, -beta, 2.0, 0.0)


def ogda_flow(beta) -> Flow:
    return _phase_row("ogda-hrde", beta, -beta, 0.0, -2.0)


def la2_flow(beta, alpha) -> Flow:
    check_alpha(alpha)
    return _phase_row("la2-gda-hrde", beta, -2.0 * alpha * beta, 2.0 * alpha, 0.0)


def la3_flow(beta, alpha) -> Flow:
    check_alpha(alpha)
    return _phase_row("la3-gda-hrde", beta, -3.0 * alpha * beta, 6.0 * alpha, 0.0)


def _optimistic_row(name, kappa) -> Flow:
    if not (callable(kappa) or kappa > 0):
        raise ValueError("kappa must be positive")
    return Flow(name, _optimistic, (kappa,))


def rhs(kind, op: Operator, z, aux, t=0.0):
    """Right-hand side of the selected flow at state (z, aux).

    Returns ``(dz, daux)``.  ``aux`` is omega for phase-space kinds, w for the
    Jacobian-free kinds, and ignored (may be None) for the low-resolution ODE,
    whose daux is empty.  ``op`` supplies ``field`` and, for the J terms,
    ``jvp``, through which the flow's one formula (``kernel``) is evaluated.
    Through an ``Operator`` z and a given aux are checked (``as_state``), so
    a non-finite one raises NonFiniteError whatever the flow.  Through its
    ``unchecked()`` view nothing is checked: z and aux must be float vectors,
    and a non-finite one is a state.  ``integrate`` binds the same formula
    once per run instead (``_rhs_step``).
    """
    if isinstance(op, Operator):
        z = as_state(z, op.dim)
        if aux is not None:
            aux = as_state(aux, op.dim)
    return kind.derivative(op, z, aux, t)


def linear_system(kind, op: Operator) -> Array:
    """S = [[C, m], [0, 0]] with d/dt (z, aux, 1) = S (z, aux, 1): a flow
    whose derivative does not read t, on an affine field (or a stack of them,
    ``affine_system``), read off that derivative."""
    if kind.reads_t:
        raise ValueError(f"flow {kind.name!r} reads t and has no constant linear system")
    n_aux = op.dim if kind.aux_var else 0
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

#: Widest stacked state (z, aux, 1) that ``integrate`` steps by a map
#: built for each step (d = 16 for the optimistic flow).  Building one costs
#: O(width^3); measured per RK4 step, it overtakes the four stage
#: evaluations it replaces between widths 37 and 49 (README).
STEP_MAP_MAX_WIDTH = 33

#: Narrowest bilinear stacked state stepped by singular modes (``_mode_step``):
#: they beat the dense map at 400 and 4,000 RK4 steps from width 181, not 161 (README).
MODE_MIN_WIDTH = 181


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
        if not np.isfinite(float(self.t_end) / float(self.dt)):
            raise ValueError(f"t_end / dt must be finite, got {self.t_end} / {self.dt}")
        if self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


def integrate(kind, op: Operator, z0, aux0, cfg: IntegratorConfig,
              extra_metrics=None, t0=0.0) -> Trajectory:
    """Fixed-step integration of a flow, recorded by the ``Recorder`` rule.

    Metric columns are those of the discrete run loop (z_norm,
    dist_to_solution, v_norm), computed once when the loop ends.
    ``extra_metrics`` callables receive (ts, zs, auxs) once, for all finite
    records, as in ``Recorder``.  The query column counts
    the field evaluations of the scheme (``SCHEMES``): 4 per RK4 step and 1
    per Euler step, and the time after step n is t0 + (n + 1) dt.
    Divergence is recorded as in ``optimizers.step_loop``; caller errors,
    such as a schedule with kappa(t) <= 0, raise.  ``step_loop`` reads a
    kappa(t) once per block, at the stage times of its steps
    (``_stage_kappas``).

    Every path steps the stacked state (z, aux, 1) in ``optimizers.step_loop``.
    On an affine operator a flow whose derivative does not read t is stepped
    by its scheme's one-step map R of ``linear_system`` (``_scheme_map``),
    one matrix-vector product per step (per singular mode on a wide
    ``BilinearGame``, ``_mode_step``), and the time-varying optimistic flow
    by one map R_n per step (``_step_maps``) while its stacked state is at
    most ``STEP_MAP_MAX_WIDTH`` wide.  Every other pair evaluates the flow's
    formula at each stage through ``op.unchecked()`` (``_rhs_step``), which
    can overflow one step before R s does.

    A non-finite ``aux0`` raises.  A callable ``aux0(view, z)`` derives the
    start from the checked z0, as ``run`` derives ``init_aux``: through
    ``op.unchecked()`` under np.errstate(all="ignore"), so an overflow is a state.
    """
    z = as_state(z0, op.dim)
    if kind.aux_var is None:
        aux = np.zeros(0)
    elif callable(aux0):
        with np.errstate(all="ignore"):
            aux = np.asarray(aux0(op.unchecked(), z), dtype=float).reshape(op.dim)
    else:
        aux = as_state(aux0, op.dim)
    recorder = Recorder(op, kind.name, op.label, int(round(cfg.t_end / cfg.dt)),
                        cfg.record_every, extra_metrics)
    width = len(z) + len(aux) + 1
    if not kind.reads_t and isinstance(op, BilinearGame) and width >= MODE_MIN_WIDTH:
        read, advance = _repeat(None), _mode_step(kind, op, cfg, z, aux)
    elif op.affine and not kind.reads_t:
        system = _scheme_map(kind, op, cfg)
        read, advance = _repeat(system), matmul_step(lambda maps: maps, SCHEMES[cfg.scheme])
    elif op.affine and width <= STEP_MAP_MAX_WIDTH:
        read, advance = _step_maps(kind, op, cfg, t0)
    else:
        read, advance = _rhs_step(kind, op, cfg, t0, width - 1)

    def times_after(n, t, values):
        return t0 + np.arange(n + 1, n + len(values) + 1) * cfg.dt

    return step_loop(recorder, read, times_after, advance, z, aux, t0)


def _scheme_map(kind, op, cfg):
    """The scheme's stability function of A = dt*S, S = [[C, m], [0, 0]] (or
    a stack): R = sum_{j<=p} A^j / j! = I + A (I + A/2 (... (I + A/p))), in Horner's
    form on two buffers, with p the scheme's degree (I + A for Euler)."""
    a = linear_system(kind, op)
    degree = SCHEMES[cfg.scheme]
    # An overflowing R is a divergence for the step loop to record, not an error.
    with np.errstate(all="ignore"):
        a *= cfg.dt
        r, tmp = a / degree, np.empty_like(a)
        diag = (..., *np.diag_indices(a.shape[-1]))
        r[diag] += 1.0
        for j in range(degree - 1, 0, -1):
            for c in range(0, a.shape[-1], 64):  # column tiles keep BLAS's packing buffer small
                np.matmul(a, r[..., c:c + 64], out=tmp[..., c:c + 64])
            tmp /= j
            tmp[diag] += 1.0
            r, tmp = tmp, r
    return r


def _mode_step(kind, game, cfg, z, aux):
    """``advance`` of ``step_loop`` per singular mode: the scheme's map R_i of
    each mode's block, read off the flow on ``game.singular_blocks``; (z, aux)
    rotated into the singular basis once, one batched product of every R_i
    per step, and the original-basis rows written back once per block."""
    u, vh, blocks = game.singular_blocks
    maps = np.ascontiguousarray(np.moveaxis(_scheme_map(kind, blocks, cfg), 0, -1))  # (i, j, mode)
    dim, d1, d2, queries = len(z), game.d1, game.d2, SCHEMES[cfg.scheme]
    parts = np.reshape((z, aux)[:1 + len(aux) // dim], (-1, dim))  # z, then aux if any
    # Rows (z_a, z_b, aux_a, aux_b, 1) by mode: x u in even rows, vh y in odd ones.
    state = np.zeros(maps.shape[1:])
    with np.errstate(all="ignore"):  # a derived aux may overflow: a state
        state[0:-1:2, :d1], state[1:-1:2, :d2] = parts[:, :d1] @ u, parts[:, d1:] @ vh.T
    state[-1] = 1.0

    def advance(values, states, times, counts):
        nonlocal state
        taken, n = len(values), len(parts)
        modes = np.empty((taken + 1, *state.shape))
        modes[0] = state
        for i in range(taken):
            np.einsum("ijn,jn->in", maps, modes[i], out=modes[i + 1])
        rows = states[0].base[1:taken + 1, :-1].reshape(taken, n, dim)  # the block's rows
        rows[..., :d1] = (modes[1:, 0:-1:2, :d1].reshape(-1, d1) @ u.T).reshape(taken, n, d1)
        rows[..., d1:] = (modes[1:, 1:-1:2, :d2].reshape(-1, d2) @ vh).reshape(taken, n, d2)
        state = modes[taken]
        counts[1:taken + 1] = counts[0] + queries * np.arange(1, taken + 1)
        return taken, False

    return advance


def _step_maps(kind, op, cfg, t0):
    """``read`` and ``advance`` of ``step_loop`` for the flow whose kappa
    reads t, on an affine field: s' = R_n s, the scheme's exact map for step n
    (``matmul_step``).

    S(kappa) = S0 + kappa S1 is read off the flow's formula: S0 at
    kappa = 0, S1 through a zero field, so that its entries are 0 and -1 and
    kappa S1 is exact.  A block of the loop reads kappa at its stage times
    (``_stage_kappas``) for at most as many steps as their maps fit in
    BLOCK_BYTES, and builds those maps.
    """
    dim, dt = op.dim, cfg.dt
    s0 = affine_system(op, dim, lambda cols, z, w: kind.derivative(cols, z, w, t0, -0.0), 0.0)
    s1 = affine_system(op, dim, lambda cols, z, w: kind.derivative(_NO_FIELD, z, w, t0, -1.0), 0.0)
    kappas, rows = _stage_kappas(kind, cfg, t0), max(1, BLOCK_BYTES // s0.nbytes)
    return (lambda n, t, count: kappas(n, t, min(rows, count)), matmul_step(
        lambda values: _block_maps(s0, s1, values, dt), SCHEMES[cfg.scheme]))


def _repeat(value):
    """``read`` of ``step_loop`` for a value shared by every step."""
    return lambda n, t, count: ([value] * count, None)


def _stage_kappas(kind, cfg, t0):
    """``read`` of ``step_loop``: kappa at the distinct stage times of
    steps n .. n + count - 1 in one call, one row per step (t, t + dt/2 and
    t + dt for RK4; t for Euler), each the time of that ``rhs`` stage, bit
    for bit."""
    dt = cfg.dt

    def read(n, t, count):
        ts = t0 + np.arange(n, n + count) * dt
        ts[0] = t
        stages = [ts, ts + 0.5 * dt, ts + dt] if cfg.scheme == "rk4" else [ts]
        return read_positive(kind.scalars[0], np.stack(stages, axis=1), "kappa(t)", "t")

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


def _rhs_step(kind, op, cfg, t0, width):
    """``read`` and ``each_step`` advance of ``step_loop``: the flow's formula,
    bound once per run to ``op.unchecked()``, writes each stage into views of
    its preallocated row, and the stage inputs and the textbook RK4 sum of
    the stacked y = (z, aux) are formed in preallocated rows in its operation
    order, with dt/2, dt, dt/6 and 2 as 0-d arrays.  A step's value is its
    stage values at its distinct stage times: the flow's own, or -kappa."""
    view, dim = op.unchecked(), op.dim
    half, dt, sixth = map(read_only_scalar, (0.5 * cfg.dt, cfg.dt, cfg.dt / 6.0))
    queries = SCHEMES[cfg.scheme]
    if kind.reads_t:
        kappas = _stage_kappas(kind, cfg, t0)

        def read(n, t, count):
            values, error = kappas(n, t, count)
            return (-values).tolist(), error
    else:
        read = _repeat([kind.stage_value(t0)] * (3 if cfg.scheme == "rk4" else 1))

    write = kind.kernel(view.field, view.jvp)
    k1, k2, k3, k4, u, v = rows = np.empty((6, width))  # a row per stage (Euler uses k1)
    (d1, a1), (d2, a2), (d3, a3), (d4, a4), (u_z, u_aux) = ((r[:dim], r[dim:]) for r in rows[:5])

    def step(values, s, out, t):
        y, (value_a, *values_bc) = s[:-1], values
        write(s[:dim], s[dim:-1], d1, a1, value_a)
        if not values_bc:
            np.add(y, np.multiply(dt, k1, u), out[:-1])
            return queries
        value_b, value_c = values_bc
        np.add(y, np.multiply(half, k1, u), u)
        write(u_z, u_aux, d2, a2, value_b)
        np.add(y, np.multiply(half, k2, u), u)
        write(u_z, u_aux, d3, a3, value_b)
        np.add(y, np.multiply(dt, k3, u), u)
        write(u_z, u_aux, d4, a4, value_c)
        # y + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.add(np.add(k1, np.multiply(_TWO, k2, u), u), np.multiply(_TWO, k3, v), u)
        np.add(y, np.multiply(sixth, np.add(u, k4, u), u), out[:-1])
        return queries

    return read, each_step(step)


#: Flow id -> (its aux variable, which a built row reads here by its name, and
#: the builder of its ``Flow``, whose parameters are the arguments among gamma,
#: alpha and kappa_fn that the row reads), in CLI catalog order.
_FLOWS = {
    "gda-hrde": ("omega", lambda gamma: gda_flow(2.0 / gamma)),
    "eg-hrde": ("omega", lambda gamma: eg_flow(2.0 / gamma)),
    "ogda-hrde": ("omega", lambda gamma: ogda_flow(2.0 / gamma)),
    "la2-gda-hrde": ("omega", lambda gamma, alpha: la2_flow(2.0 / gamma, alpha)),
    "la3-gda-hrde": ("omega", lambda gamma, alpha: la3_flow(2.0 / gamma, alpha)),
    "ogda-hrde2": ("w", lambda gamma: _optimistic_row("ogda-hrde2", 1.0 / gamma)),
    "ogda-hrde2-varstep": ("w", lambda kappa_fn: _optimistic_row("ogda-hrde2-varstep", kappa_fn)),
    "gda-ode": (None, lambda: Flow("gda-ode", _low_resolution)),
}

#: Flow identifiers exposed to the CLI.
FLOW_IDS = tuple(_FLOWS)

#: Flow id -> the arguments among gamma, alpha and kappa_fn that it reads.
FLOW_READS = {fid: tuple(signature(build).parameters) for fid, (_, build) in _FLOWS.items()}

#: The methods m whose HRDE f"{m}-hrde" is a (z, omega) phase flow: those
#: that the bilinear stability analysis (``stability``) and figure-bg cover.
STABILITY_METHODS = tuple(fid.removesuffix("-hrde") for fid, (aux_var, _) in _FLOWS.items()
                          if aux_var == "omega")


def make_flow(flow_id, gamma=None, alpha=0.5, kappa_fn=None) -> Flow:
    """Build the ``Flow`` of a CLI identifier.

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
