"""Discrete saddle-point optimizers and the stepping loop shared with flows.

Steppers are pure functions; the stepping loop threads method memory, counts
gradient queries, and records per-step metrics into a Trajectory.  Divergence
(non-finite state or norm above the guard) is recorded, not raised: a blowing
up run is an expected, reportable outcome.
"""
from __future__ import annotations

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
# The method table
# ---------------------------------------------------------------------------

class _Method(NamedTuple):
    descriptor: type
    init_aux: Callable            # (op, z0, kind) -> initial method memory
    step: Callable                # (op, z, aux, gamma_n, kind) -> (z, aux, queries)
    queries: Optional[Callable]   # kind -> queries per step; None if it varies
    aux_var: Optional[str] = None  # "w" or "omega" when the memory is that state


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
                   lambda kind: 1),
    "eg": _Method(EG, _no_aux, lambda op, z, aux, gamma, kind: (step_eg(op, z, gamma), aux, 2),
                  lambda kind: 2),
    "ogda": _Method(OGDA, _ogda_aux, _ogda_step, lambda kind: 1),
    "ogda-s": _Method(OGDAStateSpace, lambda op, z, kind: ogda_s_w0(op, z, kind.gamma),
                      lambda op, z, aux, gamma, kind: (*step_ogda_s(op, z, aux, gamma), 1),
                      lambda kind: 1, "w"),
    "la-gda": _Method(
        LookaheadGDA, _no_aux,
        lambda op, z, aux, gamma, kind: (
            step_la_gda(op, z, gamma, kind.k, kind.alpha), aux, kind.k),
        lambda kind: kind.k,
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

    def record(self, n, t, queries, z, aux):
        """Record the state after step ``n`` if the record rule selects it."""
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
        v = self.op.field_unchecked(z)
        cols["z_norm"][i] = float(np.linalg.norm(z))
        cols["dist_to_solution"][i] = float(np.linalg.norm(z - self.op.solution))
        cols["v_norm"][i] = float(np.linalg.norm(v))
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
    recorder.record(0, t, queries, z, aux)
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
        if not finite or np.linalg.norm(z) > DIVERGENCE_GUARD:
            diverged = True
        recorder.record(n + 1, t, queries, z, aux)
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
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    method = _method_of(kind)
    z = as_state(z0, op.dim)
    recorder = Recorder(op, kind.name, problem_label or op.label, steps, record_every,
                        extra_metrics)

    def step(n, z, aux, t):
        gamma_n = kind.step_size(n)
        if not gamma_n > 0:
            raise ValueError(f"step size gamma_n must be positive, got {gamma_n} at n={n}")
        z, aux, queries = method.step(op, z, aux, gamma_n, kind)
        return z, aux, t + gamma_n, queries

    return step_loop(recorder, step, z, method.init_aux(op, z, kind), 0.0)
