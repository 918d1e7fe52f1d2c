"""Discrete saddle-point optimizers and the stepping loop shared with flows.

Steppers are pure functions; the stepping loop threads method memory, counts
gradient queries, and records the selected steps into a Trajectory, whose
metrics are computed once, over all records, when the loop ends.  Divergence
(non-finite state or norm above the guard) is recorded, not raised: a blowing
up run is an expected, reportable outcome.  Inside the loop V and J are
evaluated unchecked and the arithmetic runs under np.errstate(all="ignore"),
so the finiteness test (once per block of steps on the map paths) is the
one stop rule under any errstate.

On an affine field V(z) = J z + q every constant-step method is the linear
recurrence (z, aux)' = M (z, aux) + m.  ``one_step_map`` reads it off the
method's own stepper (``affine_system``), and ``run`` then steps that
recurrence a block at a time (``matmul_step``).
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .problems import Operator, as_state

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
    power = 0.6 keeps the squared steps summable.  ``run`` reads gamma_n a
    block of steps at a time, so a ``schedule`` is array in, array out.
    """

    gamma0: float = 0.1
    power: float = 0.6
    schedule: Optional[Callable[[Array], Array]] = None
    name = "ogda-varstep"

    def step_size(self, n):
        if self.schedule is not None:
            return self.schedule(n)
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
    built from the V(z') of that stopping test.  A residual that is not
    finite ends the solve at once with the current z' and its omega', which
    a non-finite field makes non-finite: a state for the run loop to record.

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
    while not (error := np.max(np.abs(residual))) <= fp_tol and np.isfinite(error):
        if queries > fp_max_iter:
            raise NoConvergenceError(
                f"implicit step residual {error:.3e} > fp_tol "
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
# Affine systems, read off a stepper or a flow derivative
# ---------------------------------------------------------------------------

def affine_system(op: Operator, n_aux, advance, corner) -> Array:
    """S = [[C, m], [0, corner]] of an update that is affine on V(z) = J z + q.

    ``advance(op, z, aux) -> (z', aux')``, a stepper or a flow derivative,
    reads V only through ``op.field``, ``op.jacobian``, ``@`` and
    broadcasting, so on an affine field it is (z', aux') = C (z, aux) + m.
    One call on the columns of the identity of size n + 1, n = dim + n_aux,
    through the column operator V(Z) = J Z with q added to the last
    (homogeneous) column only, returns column j of S for every j at once.
    ``corner`` is 1 for a one-step map, so that s' = S s on the stacked
    state s = (z, aux, 1), and 0 for a flow, so that ds/dt = S s.
    """
    if not op.affine:
        raise ValueError(f"an affine system requires an affine operator, not {op.label!r}")
    dim, zero = op.dim, np.zeros(op.dim)
    jac, q = op.jacobian(zero), op.field_unchecked(zero)  # q unchecked, as in the run loops

    def field(zs):
        v = jac @ zs
        v[:, -1] += q
        return v

    system = np.eye(dim + n_aux + 1)
    # The identity becomes S in place: advance returns new arrays (or the
    # empty aux it was given), all computed before the first row is written.
    system[:dim], system[dim:-1] = advance(SimpleNamespace(field=field, jacobian=lambda zs: jac),
                                           system[:dim], system[dim:-1])
    system[-1, -1] = corner
    return system


# ---------------------------------------------------------------------------
# The method table
# ---------------------------------------------------------------------------

class _Method(NamedTuple):
    descriptor: type
    init_aux: Callable            # (op, z0, kind) -> initial method memory
    step: Callable                # (op, z, aux, gamma_n, kind) -> (z, aux, queries)
    queries: Optional[Callable]   # kind -> queries per step; None if it varies
    aux_var: Optional[str] = None  # "w" or "omega" when the memory is that state
    # True where the step is one fixed affine map on an affine field: not
    # where gamma_n varies or the step is solved iteratively.
    fixed_map: bool = False
    # True where rates.explicit_bound caps the iterates: the explicit
    # constant-step optimistic sequence with z_1 = z_0.
    explicit_bound: bool = False


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
                   lambda kind: 1, fixed_map=True),
    "eg": _Method(EG, _no_aux, lambda op, z, aux, gamma, kind: (step_eg(op, z, gamma), aux, 2),
                  lambda kind: 2, fixed_map=True),
    "ogda": _Method(OGDA, _ogda_aux, _ogda_step, lambda kind: 1, fixed_map=True,
                    explicit_bound=True),
    "ogda-s": _Method(OGDAStateSpace, lambda op, z, kind: ogda_s_w0(op, z, kind.gamma),
                      lambda op, z, aux, gamma, kind: (*step_ogda_s(op, z, aux, gamma), 1),
                      lambda kind: 1, "w", True, True),
    "la-gda": _Method(
        LookaheadGDA, _no_aux,
        lambda op, z, aux, gamma, kind: (
            step_la_gda(op, z, gamma, kind.k, kind.alpha), aux, kind.k),
        lambda kind: kind.k, fixed_map=True,
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


def one_step_map(op: Operator, kind) -> Array:
    """S = [[M, m], [0, 1]] with (z, aux, 1)' = S (z, aux, 1): one step of a
    ``fixed_map`` method on an affine field, read off its stepper."""
    method = _method_of(kind)
    if not method.fixed_map:
        raise ValueError(f"method {kind.name!r} has no fixed one-step map")
    # Every method memory is one d-vector: a field, w or omega.
    n_aux = 0 if method.init_aux is _no_aux else op.dim
    return affine_system(op, n_aux, lambda columns, z, aux: method.step(
        columns, z, aux, kind.gamma, kind)[:2], 1.0)


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


def row_dots(xs, ys) -> Array:
    """Dot product of each pair of rows of two (n, d) stacks: x.dot(y) bit
    for bit, as stacked dot products (a sum of products over axis 1 rounds
    differently)."""
    return np.matmul(xs[:, None, :], ys[:, :, None])[:, 0, 0]


def _row_norms(zs) -> Array:
    """Euclidean norm of each row: sqrt(z.dot(z)) bit for bit."""
    return np.sqrt(row_dots(zs, zs))


class Recorder:
    """Fills a preallocated Trajectory for a loop of ``n_steps`` steps.

    The record rule: the start (step 0), every ``record_every``-th step and
    the final step.  ``record`` keeps the time, query count and state of the
    selected steps, and the method memory too when ``extra_metrics`` are
    attached; ``finish`` computes the metric columns once, over all records:
    z_norm, dist_to_solution, v_norm, then one per ``extra_metrics``
    callable ``f(ts, zs, auxs) -> values``, called once with the (n,) times,
    the (n, d) finite states and their memory rows (None for a method
    without memory), and returning the n values.  A non-finite state's
    metrics stay NaN.
    """

    def __init__(self, op: Operator, method, problem, n_steps, record_every=1,
                 extra_metrics=None):
        if record_every < 1:
            raise ValueError("record_every must be >= 1")
        self.op = op
        self.n_steps = n_steps
        self.extra_metrics = extra_metrics or {}
        self.count = 0
        self.memory = None
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

    def record(self, first, times, queries, zs, auxs):
        """Keep the rows that the record rule selects among consecutive steps:
        row j of ``times``, ``queries``, ``zs`` (states) and ``auxs`` (method
        memory, or None for a method without one) is step ``first + j``."""
        traj, i = self.traj, self.count
        j = i + int(np.searchsorted(traj.steps[i:], first + len(zs)))
        rows = traj.steps[i:j] - first
        traj.times[i:j] = times[rows]
        traj.queries[i:j] = queries[rows]
        traj.states[i:j] = zs[rows]
        if self.extra_metrics and auxs is not None:
            if self.memory is None:
                self.memory = np.full((len(traj.steps), auxs.shape[1]), np.nan)
            self.memory[i:j] = auxs[rows]
        self.count = j

    def finish(self, t, queries, diverged) -> Trajectory:
        """The Trajectory with its metric columns.  Records never reached stay
        NaN-padded; their time and query axes are forward-filled with ``t``
        and ``queries``."""
        traj, n = self.traj, self.count
        traj.times[n:] = t
        traj.queries[n:] = queries
        traj.diverged = diverged
        ok = np.flatnonzero(np.isfinite(traj.states[:n]).all(axis=1))
        zs = traj.states[ok]
        cols = traj.metrics
        # A finite state far past the guard may have an infinite norm or field.
        with np.errstate(over="ignore", invalid="ignore"):
            cols["z_norm"][ok] = _row_norms(zs)
            cols["dist_to_solution"][ok] = _row_norms(zs - self.op.solution)
            cols["v_norm"][ok] = _row_norms(self.op.fields_unchecked(zs))
        ts, auxs = traj.times[ok], None if self.memory is None else self.memory[ok]
        for name, fn in self.extra_metrics.items():
            values = np.asarray(fn(ts, zs, auxs), dtype=float)
            if values.shape != ok.shape:
                raise ValueError(f"metric {name!r} gave shape {values.shape} "
                                 f"for {len(ok)} records")
            cols[name][ok] = values
        return traj


#: Most rows, and most bytes, in one block of the step loop's states; the
#: byte cap keeps wide states small (40 rows for a d = 100 flow with omega).
BLOCK_ROWS, BLOCK_BYTES = 256, 1 << 16

#: Widest stacked state (z, aux, 1) that ``flows.integrate`` steps by a map
#: built for each step (d = 16 for the optimistic flow).  Building one costs
#: O(width^3); measured per RK4 step, it overtakes the four stage
#: evaluations it replaces between widths 37 and 49 (README).
STEP_MAP_MAX_WIDTH = 33


def step_loop(recorder: Recorder, advance, z, aux, t) -> Trajectory:
    """The stepping loop shared by ``run`` and ``integrate``.

    Takes ``recorder.n_steps`` steps of the stacked state s = (z, aux, 1),
    or (z, 1) when ``aux`` is None, from the recorded start at time ``t``,
    a block of at most BLOCK_ROWS states and BLOCK_BYTES bytes at a time:
    ``advance(n, count, states, times, counts) -> (taken, stopped)`` takes
    up to ``count`` steps from row 0 (the state, time and query count after
    step n), writes row i after step n + i, and says how many it took and
    whether the run ends there.  A block runs under np.errstate(all="ignore"),
    so the one stop rule, under any errstate, is the finiteness test, made
    once per block: the loop records the first non-finite state (z or aux),
    discards the states after it and stops.  It, a norm of z above
    DIVERGENCE_GUARD or a NoConvergenceError (``each_step``; the records
    left NaN-padded) flags divergence; other exceptions propagate.
    ``queries`` counts the queries of completed steps only.
    """
    dim, n_steps = len(z), recorder.n_steps
    s = np.concatenate((z, () if aux is None else aux, (1.0,)))
    rows = max(1, min(BLOCK_ROWS, BLOCK_BYTES // s.nbytes, n_steps))
    # Row 0 holds the state before the block; the last column stays 1 on
    # the paths that write only z and aux.
    block = np.empty((rows + 1, len(s)))
    block[:] = s
    times, counts = np.full(rows + 1, t), np.zeros(rows + 1, dtype=np.int64)
    states = list(block)

    def record(first, done):
        recorder.record(first, times[done], counts[done], block[done, :dim],
                        None if aux is None else block[done, dim:-1])

    record(0, slice(0, 1))
    n, diverged, stopped = 0, False, False
    while n < n_steps and not stopped:
        with np.errstate(all="ignore"):
            taken, stopped = advance(n, min(rows, n_steps - n), states, times, counts)
            finite = np.isfinite(block[1:taken + 1]).all(axis=1)
            if not finite.all():
                taken, stopped = int(finite.argmin()) + 1, True
            z_norms = _row_norms(block[1:taken + 1, :dim])  # inf > DIVERGENCE_GUARD
        record(n + 1, slice(1, taken + 1))
        diverged = diverged or stopped or bool((z_norms > DIVERGENCE_GUARD).any())
        n += taken
        block[0], times[0], counts[0] = block[taken], times[taken], counts[taken]
    return recorder.finish(times[0], counts[0], diverged)


def each_step(step):
    """``advance`` of ``step_loop`` that calls ``step(n, s, out, t) -> (t,
    queries)``, which writes the state after step n into ``out``, once per
    step, and tests each state for non-finite entries as it is taken: it
    stops after the first non-finite state or at a NoConvergenceError."""
    def advance(n, count, states, times, counts):
        t, queries, width = float(times[0]), int(counts[0]), len(states[0])
        for i in range(1, count + 1):
            try:
                t, step_queries = step(n + i - 1, states[i - 1], states[i], t)
            except NoConvergenceError:
                return i - 1, True
            queries += step_queries
            times[i], counts[i] = t, queries
            # count_nonzero: the test of isfinite(...).all() without the
            # reduction's overhead, about 1 us of each step at small d.
            if np.count_nonzero(np.isfinite(states[i])) < width:
                return i, True
        return count, False

    return advance


def run(op: Operator, kind, z0, steps, extra_metrics=None, problem_label=None,
        record_every=1) -> Trajectory:
    """Iterate ``kind`` from z0 for ``steps`` steps, recording metrics.

    ``extra_metrics`` maps column names to callables ``f(ts, zs, auxs)``,
    called once per run with the finite records (see ``Recorder``): auxs
    holds the method memory (previous field for the one-variable optimistic
    method, w for the two-variable form, omega for the implicit scheme), or
    is None for a method without one.  Records follow the ``Recorder`` rule
    for ``record_every``; see ``step_loop`` for divergence.

    On an affine operator a ``fixed_map`` method (gda, eg, ogda, ogda-s,
    la-gda) calls its stepper once, for ``one_step_map``, and is stepped as
    that recurrence (``matmul_step``), with the nominal query count per
    step.  The others call their stepper at every step, through
    ``op.unchecked()`` as does ``init_aux``, and read ``kind.step_size`` once
    per block, on an array of step indices; a gamma_n that is not positive
    (or NaN) raises ValueError at step n.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    method = _method_of(kind)
    z = as_state(z0, op.dim)
    recorder = Recorder(op, kind.name, problem_label or op.label, steps, record_every,
                        extra_metrics)
    view = op.unchecked()
    if op.affine and method.fixed_map:
        system, gamma = one_step_map(op, kind), kind.gamma
        step = matmul_step(lambda n, t, count: [system] * count, method.queries(kind),
                           lambda n, t, count: np.add.accumulate(
                               np.append(t, np.full(count, gamma)))[1:])
    else:
        step = _stepper_step(method, view, kind, steps)
    with np.errstate(all="ignore"):
        aux = method.init_aux(view, z, kind)
    return step_loop(recorder, step, z, aux, 0.0)


def _stepper_step(method, op, kind, n_steps):
    dim = op.dim
    gammas = per_step_blocks(lambda n, t, count: read_positive(
        kind.step_size, np.arange(n, n + count), "step size gamma_n", "n"),
        np.ndarray.tolist, n_steps, BLOCK_ROWS)

    def step(n, s, out, t):
        (gamma_n,) = gammas(n, t, 1)
        # A memoryless method's aux is the empty slice, which its step ignores.
        z, aux, queries = method.step(op, s[:dim], s[dim:-1], gamma_n, kind)
        out[:dim], out[dim:-1] = z, aux
        return t + gamma_n, queries

    return each_step(step)


def read_positive(fn, args, label, name):
    """``fn(args)``, array in and array out (a scalar is broadcast), on
    arguments with one row per step, cut before the first row holding a
    value that is not positive (or NaN); and the ValueError naming that
    value, or None."""
    values = np.broadcast_to(np.asarray(fn(args), dtype=float), args.shape)
    bad = np.flatnonzero(~(values > 0))
    if not bad.size:
        return values, None
    i = bad[0]
    return values[:i // (values.size // len(values))], ValueError(
        f"{label} must be positive, got {values.flat[i]} at {name}={args.flat[i]}")


def per_step_blocks(read, build, n_steps, rows):
    """``take(n, t, count)``: the items of steps n, n + 1, ..., at least one
    and at most ``count``, up to the end of the current block.  Past it,
    ``read(n, t, count) -> (values, error)`` reads the next ``count`` <=
    ``rows`` steps (never past ``n_steps``) at once, under the np.errstate
    where this was called (the caller's, for schedules), as
    ``read_positive`` does; ``build(values)`` makes their items, and
    ``take`` raises ``error`` at its step."""
    caller = np.geterr()
    items, first, error = (), 0, None

    def take(n, t, count):
        nonlocal items, first, error
        if n - first == len(items):
            if error is not None:
                raise error
            with np.errstate(**caller):
                values, error = read(n, t, min(rows, n_steps - n))
            items, first = build(values) if len(values) else (), n
            if not len(items):
                raise error
        return items[n - first:n - first + count]

    return take


def matmul_step(maps, queries, times_after):
    """``advance`` of ``step_loop`` by s' = R s, one matrix-vector product
    per step and nothing else; the steps after a non-finite state are taken
    too, and ``step_loop`` discards them.

    ``maps(n, t, count)`` gives R = [[M, m], [0, 1]] for steps n, n + 1,
    ..., at least one and at most ``count``: a method's recurrence or a
    scheme's map of a linear flow, repeated, or one map per step.  Once per
    block, ``times_after(n, t, taken)`` gives the times after steps n .. n +
    taken - 1 from the time t before step n; each step reports ``queries``.
    """
    def advance(n, count, states, times, counts):
        rs = maps(n, times[0], count)
        taken = len(rs)
        for r, s, out in zip(rs, states, states[1:taken + 1]):
            r.dot(s, out)
        times[1:taken + 1] = times_after(n, times[0], taken)
        counts[1:taken + 1] = counts[0] + queries * np.arange(1, taken + 1)
        return taken, False

    return advance
