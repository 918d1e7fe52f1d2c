"""Discrete saddle-point optimizers and the stepping loop shared with flows.

Steppers are pure functions; the stepping loop threads method memory, counts
gradient queries, and records per-step metrics into a Trajectory.  Divergence
(non-finite state or norm above the guard) is recorded, not raised: a blowing
up run is an expected, reportable outcome.

On an affine field V(z) = J z + q every constant-step method is the linear
recurrence (z, aux)' = M (z, aux) + m, which its row's ``linear_map``
returns; ``run`` then steps that recurrence directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from .problems import NonFiniteError, Operator, as_state

Array = np.ndarray

#: State-norm guard beyond which a run is flagged as diverged.
DIVERGENCE_GUARD = 1e12


class NoConvergenceError(RuntimeError):
    """Raised when the implicit-step solver fails to reach its tolerance."""


# ---------------------------------------------------------------------------
# Method descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _FixedStep:
    """Base of the constant-step descriptors: gamma_n = gamma at every step."""

    gamma: float

    def __post_init__(self):
        _check_gamma(self.gamma)

    def step_size(self, n: int) -> float:
        return self.gamma


@dataclass(frozen=True)
class GDA(_FixedStep):
    name = "gda"


@dataclass(frozen=True)
class EG(_FixedStep):
    name = "eg"


@dataclass(frozen=True)
class OGDA(_FixedStep):
    name = "ogda"


@dataclass(frozen=True)
class OGDAStateSpace(_FixedStep):
    """The two-variable form of optimistic descent-ascent (z, w iterates)."""

    name = "ogda-s"


@dataclass(frozen=True)
class LookaheadGDA(_FixedStep):
    k: int = 2
    alpha: float = 0.5
    name = "la-gda"

    def __post_init__(self):
        super().__post_init__()
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")


@dataclass(frozen=True)
class OGDAVariableStep:
    """Optimistic method with a per-step schedule n -> gamma_n.

    The default power-law schedule gamma_n = gamma0 / (n+1)^power with
    power = 0.6 keeps the squared steps summable.
    """

    gamma0: float = 0.1
    power: float = 0.6
    schedule: Optional[Callable[[int], float]] = None
    name = "ogda-varstep"

    def step_size(self, n: int) -> float:
        if self.schedule is not None:
            return float(self.schedule(n))
        return self.gamma0 / (n + 1) ** self.power


@dataclass(frozen=True)
class ImplicitOGDA(_FixedStep):
    fp_tol: float = 1e-12
    fp_max_iter: int = 200
    name = "ogda-implicit"

    def __post_init__(self):
        super().__post_init__()
        if not self.fp_tol > 0:
            raise ValueError("fp_tol must be positive")
        if not (type(self.fp_max_iter) is int and self.fp_max_iter >= 1):
            raise ValueError(f"fp_max_iter must be an integer >= 1, got {self.fp_max_iter!r}")


def _check_gamma(gamma):
    if not gamma > 0:
        raise ValueError("step size gamma must be positive")


# ---------------------------------------------------------------------------
# Steppers
# ---------------------------------------------------------------------------

def step_gda(op: Operator, z, gamma) -> Array:
    """z - gamma * V(z)."""
    _check_gamma(gamma)
    return z - gamma * op.field(z)


def step_eg(op: Operator, z, gamma) -> Array:
    """z - gamma * V(z - gamma * V(z)); two gradient queries."""
    _check_gamma(gamma)
    return z - gamma * op.field(z - gamma * op.field(z))


def step_ogda(op: Operator, z, v_prev, gamma):
    """z - 2 gamma V(z) + gamma v_prev, where v_prev = V(previous iterate).

    Returns ``(z_next, V(z))`` so the caller can thread the field memory;
    one gradient query per step.  Under the equal-first-iterates convention
    the first genuine update is called with v_prev = V(z), since the previous
    iterate equals z itself.
    """
    _check_gamma(gamma)
    v = op.field(z)
    return z - 2.0 * gamma * v + gamma * v_prev, v


def step_ogda_s(op: Operator, z, w, gamma):
    """One step of the two-variable optimistic scheme.

    z' = (z - w)/2 - 2 gamma V(z),  w' = (w - z)/2.  Eliminating w recovers
    the one-variable optimistic update exactly.
    """
    _check_gamma(gamma)
    z_next = 0.5 * (z - w) - 2.0 * gamma * op.field(z)
    w_next = 0.5 * (w - z)
    return z_next, w_next


def ogda_s_w0(op: Operator, z0, gamma) -> Array:
    """w_0 = -z_0 - 4 gamma V(z_0): the initialization equivalent to z_1 = z_0."""
    _check_gamma(gamma)
    return -z0 - 4.0 * gamma * op.field(z0)


def step_la_gda(op: Operator, z, gamma, k, alpha) -> Array:
    """Lookahead step: k inner GDA steps, then interpolate with weight alpha."""
    _check_gamma(gamma)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    fast = z
    for _ in range(k):
        fast = fast - gamma * op.field(fast)
    return z + alpha * (fast - z)


def step_ogda_implicit(op: Operator, z, omega, gamma, fp_tol=1e-12, fp_max_iter=200):
    """One step of the implicit optimistic scheme.

    Solves the coupled equations
        z' = z + (gamma/2) (omega' + omega)
        omega' = -V(z') - (V(z') - V(z)) / 2
    by substituting omega' into the z-equation, which gives
    g(z') = z' + (3 gamma / 4) V(z') - c = 0 with c = z + (gamma/2) omega
    + (gamma/4) V(z).  Newton's method solves it from z' = z until
    max |g(z')| <= fp_tol, at most ``fp_max_iter`` iterations; omega' is
    built from the V(z') of that stopping test.

    Returns ``(z_next, omega_next, queries)`` with ``queries`` the number of
    field evaluations consumed: V(z) plus one per Newton iteration, so 2 on
    affine operators, where one iteration solves g exactly.
    """
    _check_gamma(gamma)
    v_z = op.field(z)
    c = z + 0.5 * gamma * omega + 0.25 * gamma * v_z
    scale = 0.75 * gamma
    z_next, v_next, queries = z, v_z, 1
    residual = z_next + scale * v_next - c
    while not np.max(np.abs(residual)) <= fp_tol:
        if queries > fp_max_iter:
            raise NoConvergenceError(
                f"implicit step residual {np.max(np.abs(residual)):.3e} > fp_tol "
                f"{fp_tol:.1e} after {fp_max_iter} Newton iterations"
            )
        jac = np.eye(op.dim) + scale * op.jacobian(z_next)
        try:
            z_next = z_next - np.linalg.solve(jac, residual)
        except np.linalg.LinAlgError as exc:
            # A singular Newton system is a solver failure, not a caller error.
            raise NoConvergenceError(f"implicit step Newton system: {exc}") from exc
        v_next = op.field(z_next)
        queries += 1
        residual = z_next + scale * v_next - c
    return z_next, -1.5 * v_next + 0.5 * v_z, queries


# ---------------------------------------------------------------------------
# One-step maps on affine fields
# ---------------------------------------------------------------------------

def affine_parts(op: Operator):
    """(J, q) of an affine field V(z) = J z + q.  q is not checked for
    finiteness, as in the run loops' unchecked field evaluations."""
    if not op.affine:
        raise ValueError(f"linear_map requires an affine operator, not {op.label!r}")
    zero = np.zeros(op.dim)
    return op.jacobian(zero), op.field_unchecked(zero)


def stacked_system(c, m, corner) -> Array:
    """S = [[C, m], [0, corner]], acting on the stacked state (z, aux, 1).

    ``corner`` is 1 for a one-step map s' = C s + m, so that s' = S s, and 0
    for a flow ds/dt = C s + m, so that ds/dt = S s; ``flows.integrate``
    turns the latter into its scheme's one-step map R(dt S).
    """
    n = c.shape[0]
    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = c
    system[:n, n] = m
    system[n, n] = corner
    return system


def _gda_map(op, kind):
    """(M, m) = (I - gamma J, -gamma q): z' = z - gamma V(z)."""
    jac, q = affine_parts(op)
    return np.eye(op.dim) - kind.gamma * jac, -kind.gamma * q


def _eg_map(op, kind):
    """(M, m) = (I - gamma J G, -gamma G q) with G = I - gamma J, the GDA
    matrix: M = I - gamma J + gamma^2 J^2."""
    jac, q = affine_parts(op)
    gda = np.eye(op.dim) - kind.gamma * jac
    return np.eye(op.dim) - kind.gamma * (jac @ gda), -kind.gamma * (gda @ q)


def _la_gda_map(op, kind):
    """(M, m) = ((1 - alpha) I + alpha G^k, alpha g_k): the k-fold GDA map
    z -> G^k z + g_k, then the interpolation with weight alpha."""
    gda, shift = _gda_map(op, kind)
    fast, fast_shift = gda, shift
    for _ in range(kind.k - 1):
        fast, fast_shift = gda @ fast, gda @ fast_shift + shift
    return ((1.0 - kind.alpha) * np.eye(op.dim) + kind.alpha * fast,
            kind.alpha * fast_shift)


def _ogda_map(op, kind):
    """On s = (z, v_prev): z' = (I - 2 gamma J) z + gamma v_prev - 2 gamma q
    and v_prev' = V(z) = J z + q."""
    jac, q = affine_parts(op)
    d, gamma = op.dim, kind.gamma
    mat = np.zeros((2 * d, 2 * d))
    mat[:d, :d] = np.eye(d) - 2.0 * gamma * jac
    mat[:d, d:] = gamma * np.eye(d)
    mat[d:, :d] = jac
    return mat, np.concatenate([-2.0 * gamma * q, q])


def _ogda_s_map(op, kind):
    """On s = (z, w): z' = (I/2 - 2 gamma J) z - w/2 - 2 gamma q and
    w' = (w - z)/2."""
    jac, q = affine_parts(op)
    d, gamma = op.dim, kind.gamma
    half = 0.5 * np.eye(d)
    mat = np.empty((2 * d, 2 * d))
    mat[:d, :d] = half - 2.0 * gamma * jac
    mat[:d, d:] = mat[d:, :d] = -half
    mat[d:, d:] = half
    return mat, np.concatenate([-2.0 * gamma * q, np.zeros(d)])


# ---------------------------------------------------------------------------
# The method table
# ---------------------------------------------------------------------------

class _Method(NamedTuple):
    descriptor: type
    init_aux: Callable            # (op, z0, kind) -> initial method memory
    step: Callable                # (op, z, aux, gamma_n, kind) -> (z, aux, queries)
    queries: Optional[Callable]   # kind -> queries per step; None if it varies
    aux_var: Optional[str] = None  # "w" or "omega" when the memory is that state
    # (op, kind) -> (M, m) with (z, aux)' = M (z, aux) + m on an affine
    # field; None where gamma_n varies or the step is solved iteratively.
    linear_map: Optional[Callable] = None


def _no_aux(op, z, kind):
    return None


def _ogda_aux(op, z, kind):
    # The first recorded step must reproduce z_1 = z_0; seeding the field
    # memory with 2 V(z_0) makes the first update -2 gamma V(z_0) + gamma
    # (2 V(z_0)) = 0 and leaves the memory at V(z_1) = V(z_0) afterwards, so
    # the whole sequence matches the two-variable scheme initialized with its
    # equivalent w_0.
    return 2.0 * op.field(z)


def _ogda_step(op, z, aux, gamma, kind):
    return (*step_ogda(op, z, aux, gamma), 1)


#: Method id -> row, in CLI catalog order.  The method memory (aux) is the
#: previous field for the one-variable optimistic methods, w for the
#: two-variable form, omega for the implicit scheme, else None.  The steps
#: look the steppers up by module-level name at call time, so a wrapped
#: stepper is the one that runs.
_METHODS = {
    "gda": _Method(GDA, _no_aux, lambda op, z, aux, gamma, kind: (step_gda(op, z, gamma), aux, 1),
                   lambda kind: 1, linear_map=_gda_map),
    "eg": _Method(EG, _no_aux, lambda op, z, aux, gamma, kind: (step_eg(op, z, gamma), aux, 2),
                  lambda kind: 2, linear_map=_eg_map),
    "ogda": _Method(OGDA, _ogda_aux, _ogda_step, lambda kind: 1, linear_map=_ogda_map),
    "ogda-s": _Method(OGDAStateSpace, lambda op, z, kind: ogda_s_w0(op, z, kind.gamma),
                      lambda op, z, aux, gamma, kind: (*step_ogda_s(op, z, aux, gamma), 1),
                      lambda kind: 1, "w", _ogda_s_map),
    "la-gda": _Method(
        LookaheadGDA, _no_aux,
        lambda op, z, aux, gamma, kind: (
            step_la_gda(op, z, gamma, kind.k, kind.alpha), aux, kind.k),
        lambda kind: kind.k, linear_map=_la_gda_map,
    ),
    "ogda-varstep": _Method(OGDAVariableStep, _ogda_aux, _ogda_step, lambda kind: 1),
    "ogda-implicit": _Method(
        ImplicitOGDA, lambda op, z, kind: np.zeros(op.dim),      # omega_0 = 0
        lambda op, z, aux, gamma, kind: step_ogda_implicit(
            op, z, aux, gamma, kind.fp_tol, kind.fp_max_iter),
        None, "omega",
    ),
}
_BY_DESCRIPTOR = {method.descriptor: method for method in _METHODS.values()}

#: Method identifiers exposed to the CLI.
METHOD_IDS = tuple(_METHODS)


def _method_of(kind) -> _Method:
    try:
        return _BY_DESCRIPTOR[type(kind)]
    except KeyError:
        raise TypeError(f"unknown optimizer kind {kind!r}") from None


def gradient_queries(kind) -> int:
    """Gradient queries consumed per step; implicit steps report per-run."""
    queries = _method_of(kind).queries
    if queries is None:
        raise ValueError("implicit steps consume a variable number of queries; "
                         "read them off the trajectory's query column")
    return queries(kind)


def make_method(method_id, gamma=None, alpha=0.5, k=2, gamma0=0.1, power=0.6,
                fp_tol=1e-12, fp_max_iter=200):
    """Instantiate a method descriptor from its CLI identifier.

    Each descriptor takes the parameters among these that it has fields for.
    """
    if method_id not in _METHODS:
        raise ValueError(f"unknown method id {method_id!r}; known: {', '.join(METHOD_IDS)}")
    params = {"gamma": gamma, "alpha": alpha, "k": k, "gamma0": gamma0, "power": power,
              "fp_tol": fp_tol, "fp_max_iter": fp_max_iter}
    names = [f.name for f in fields(_METHODS[method_id].descriptor) if f.name in params]
    if "gamma" in names and gamma is None:
        raise ValueError(f"method {method_id!r} requires gamma")
    return _METHODS[method_id].descriptor(**{name: params[name] for name in names})


# ---------------------------------------------------------------------------
# Trajectories, the recorder and the run loop
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Recorded run: aligned step/time/query axes, iterates, and metrics.

    ``steps`` has length m+1 (the initial state is record 0); ``states`` is
    the (m+1, d) iterate matrix and ``queries`` the cumulative gradient-query
    count at each record.
    """

    method: str
    problem: str
    steps: Array
    times: Array
    queries: Array
    states: Array
    metrics: dict = field(default_factory=dict)
    diverged: bool = False

    def metric(self, name) -> Array:
        return self.metrics[name]

    def __len__(self):
        return len(self.steps)


def norm(x) -> float:
    """Euclidean norm of a real vector: the value of ``np.linalg.norm(x)``,
    which computes sqrt(x.dot(x)) too, without its dispatch."""
    return math.sqrt(x.dot(x))


class Recorder:
    """Fills a preallocated Trajectory for a loop of ``n_steps`` steps.

    The record rule: the start (step 0), every ``record_every``-th step and
    the final step.  Metric columns: z_norm, dist_to_solution, v_norm, then
    one per ``extra_metrics`` callable ``f(t, z, aux)``.  A non-finite
    state's metrics stay NaN.
    """

    def __init__(self, op: Operator, method, problem, n_steps, record_every=1,
                 extra_metrics=None):
        if record_every < 1:
            raise ValueError("record_every must be >= 1")
        self.op = op
        self.n_steps = n_steps
        self.record_every = record_every
        self.extra_metrics = extra_metrics or {}
        self.count = 0
        steps = np.append(np.arange(0, n_steps, record_every), n_steps)
        n_rec = len(steps)
        names = ["z_norm", "dist_to_solution", "v_norm", *self.extra_metrics]
        self.traj = Trajectory(
            method=method,
            problem=problem,
            steps=steps,
            times=np.zeros(n_rec),
            queries=np.zeros(n_rec, dtype=np.int64),
            states=np.full((n_rec, op.dim), np.nan),
            metrics={name: np.full(n_rec, np.nan) for name in names},
        )

    def record(self, n, t, queries, z, aux, z_norm):
        """Record the state after step ``n`` if the record rule selects it;
        ``z_norm`` is ``norm(z)``, already computed by the loop's guard."""
        if n % self.record_every and n != self.n_steps:
            return
        traj, i = self.traj, self.count
        self.count += 1
        traj.times[i] = t
        traj.queries[i] = queries
        traj.states[i] = z
        if not np.isfinite(z).all():
            return
        cols = traj.metrics
        cols["z_norm"][i] = z_norm
        cols["dist_to_solution"][i] = norm(z - self.op.solution)
        cols["v_norm"][i] = norm(self.op.field_unchecked(z))
        for name, fn in self.extra_metrics.items():
            cols[name][i] = float(fn(t, z, aux))

    def finish(self, t, queries, diverged) -> Trajectory:
        """The Trajectory.  Records never reached stay NaN-padded; their time
        and query axes are forward-filled with ``t`` and ``queries``."""
        self.traj.times[self.count:] = t
        self.traj.queries[self.count:] = queries
        self.traj.diverged = diverged
        return self.traj


def step_loop(recorder: Recorder, step, z, aux, t) -> Trajectory:
    """The stepping loop shared by ``run`` and ``integrate``.

    Takes ``recorder.n_steps`` steps ``step(n, z, aux, t) -> (z, aux, t,
    queries)`` from the recorded start.  A step raising NonFiniteError,
    FloatingPointError or NoConvergenceError ends the run as diverged; other
    exceptions are caller errors and propagate.  A non-finite state (z or aux)
    or a norm above DIVERGENCE_GUARD flags divergence; the loop records the
    state and stops at the first non-finite one.  ``queries`` counts the
    queries of completed steps only.
    """
    queries = 0
    diverged = False
    recorder.record(0, t, queries, z, aux, norm(z))
    for n in range(recorder.n_steps):
        try:
            z, aux, t, step_queries = step(n, z, aux, t)
        except (NonFiniteError, FloatingPointError, NoConvergenceError):
            # Overflow / non-finite evaluation: the remaining records stay
            # NaN-padded.
            diverged = True
            break
        queries += step_queries
        finite = np.isfinite(z).all() and (aux is None or np.isfinite(aux).all())
        z_norm = norm(z)
        if not finite or z_norm > DIVERGENCE_GUARD:
            diverged = True
        recorder.record(n + 1, t, queries, z, aux, z_norm)
        if not finite:
            break
    return recorder.finish(t, queries, diverged)


def run(op: Operator, kind, z0, steps, extra_metrics=None, problem_label=None,
        record_every=1) -> Trajectory:
    """Iterate ``kind`` from z0 for ``steps`` steps, recording metrics.

    ``extra_metrics`` maps column names to callables ``f(t, z, aux) -> float``
    (aux is the method memory: previous field for the one-variable optimistic
    method, w for the two-variable form, omega for the implicit scheme, else
    None).  Records follow the ``Recorder`` rule for ``record_every``; see
    ``step_loop`` for divergence.  A step size ``kind.step_size(n)`` that is
    not positive raises ValueError.

    On an affine operator a method whose row has a ``linear_map`` (gda, eg,
    ogda, ogda-s, la-gda) is stepped as that recurrence
    (``propagator_step``), with the nominal query count per step; the
    others call their stepper.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    method = _method_of(kind)
    z = as_state(z0, op.dim)
    recorder = Recorder(op, kind.name, problem_label or op.label, steps, record_every,
                        extra_metrics)
    if op.affine and method.linear_map is not None:
        step = propagator_step(stacked_system(*method.linear_map(op, kind), 1.0), op.dim,
                               method.queries(kind), lambda k, t: t + kind.gamma)
    else:
        step = _stepper_step(method, op, kind)
    return step_loop(recorder, step, z, method.init_aux(op, z, kind), 0.0)


def _stepper_step(method, op, kind):
    def step(n, z, aux, t):
        gamma_n = kind.step_size(n)
        if not gamma_n > 0:
            raise ValueError(f"step size gamma_n must be positive, got {gamma_n} at n={n}")
        z, aux, queries = method.step(op, z, aux, gamma_n, kind)
        return z, aux, t + gamma_n, queries

    return step


def propagator_step(system, dim, queries, next_time):
    """Step of the stacked state s = (z, aux, 1), or (z, 1) for memoryless
    methods, by s' = ``system`` s: one matrix-vector product per step.

    ``system`` is a one-step map [[M, m], [0, 1]]: a method's recurrence, or
    the one-step map of a fixed-step scheme on a linear flow.  Each step
    reports ``queries`` and the time ``next_time(k, t)`` after step k.
    """
    one = np.ones(1)

    def step(k, z, aux, t):
        s = system @ np.concatenate((z, one) if aux is None else (z, aux, one))
        return s[:dim], None if aux is None else s[dim:-1], next_time(k, t), queries

    return step
