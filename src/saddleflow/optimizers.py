"""Discrete saddle-point optimizers and the stepping loop shared with flows.

Each update is one formula, checked by its stepper and bound by ``run`` to
the unchecked view; the stepping loop threads method memory, counts
gradient queries, and records the selected steps into a Trajectory, whose
metrics are computed once, over all records, when the loop ends.  Divergence
(non-finite state or norm above the guard) is recorded, not raised: a blowing
up run is an expected, reportable outcome.  Inside the loop V and J are
evaluated unchecked and the arithmetic runs under np.errstate(all="ignore"),
so the finiteness test, made once per block of steps on every path, is
the one stop rule under any errstate.

On an affine field V(z) = J z + q every constant-step method, the implicit
one included, is the linear recurrence (z, aux)' = M (z, aux) + m, and the
variable-step one is the recurrence of M0 + gamma_n M1 at step n.
``one_step_map`` reads them off the method's own formula (``affine_system``),
and ``run`` then steps the recurrence a block at a time (``matmul_step``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from inspect import signature
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .problems import Operator, as_state, read_only_scalar

Array = np.ndarray

#: State-norm guard beyond which a run is flagged as diverged.
DIVERGENCE_GUARD = 1e12


class NoConvergenceError(RuntimeError):
    """Raised when the implicit-step solver fails to reach its tolerance."""


# ---------------------------------------------------------------------------
# Methods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Method:
    """A discrete method: the row of ``_METHODS`` named ``name``, its
    constant step size ``gamma`` (None for ogda-varstep, whose gamma_n
    varies with n), and ``params``, the formula's other values in its
    builder's order: (k, alpha) for la-gda, (fp_tol, fp_max_iter) for
    ogda-implicit and (gamma0, power, schedule) for ogda-varstep."""

    name: str
    gamma: Optional[float]
    params: tuple = ()

    def step_size(self, n):
        """gamma_n: the constant gamma at any n; or ogda-varstep's ``schedule``,
        which ``run`` reads a block of steps at a time, array in and array
        out, under the caller's errstate; or its power law gamma0 /
        (n+1)^power, whose default power = 0.6 keeps the squared steps
        summable.  On arrays the power law takes (n+1)^power per element
        (``pow_per_element``), so a Python int n gives the same gamma_n bit
        for bit, and divides under np.errstate(all="ignore"): a (n+1)^power
        that overflows gives a gamma_n of 0, which ``run`` rejects with one
        ValueError and no warning."""
        if self.gamma is not None:
            return self.gamma
        gamma0, power, schedule = self.params
        if schedule is not None:
            return schedule(n)
        if isinstance(n, int):  # Python arithmetic, which no errstate governs
            try:
                return gamma0 / (n + 1) ** power
            except ArithmeticError:  # (n+1)^power left the float range:
                n = np.float64(n)    # the array rule gives gamma_n = 0 or inf
        with np.errstate(all="ignore"):
            return gamma0 / pow_per_element(n + 1, power)


def pow_per_element(bases, exponent) -> Array:
    """``bases ** exponent`` by one C pow (``math.pow``) per element, which
    rounds as Python's ``**`` on a float; numpy's SIMD ``power`` rounds by
    the CPU's dispatch.  A power that overflows is inf."""
    bases = np.asarray(bases, dtype=float)
    return np.array([_pow(x, exponent) for x in bases.ravel().tolist()]).reshape(bases.shape)


def _pow(x, exponent):
    try:
        return math.pow(x, exponent)
    except OverflowError:
        return math.inf


def _constant(name, gamma, *params) -> Method:
    _check_gamma(gamma)
    return Method(name, gamma, params)


def GDA(gamma) -> Method:
    return _constant("gda", gamma)


def EG(gamma) -> Method:
    return _constant("eg", gamma)


def OGDA(gamma) -> Method:
    return _constant("ogda", gamma)


def OGDAStateSpace(gamma) -> Method:
    """The two-variable form of optimistic descent-ascent (z, w iterates)."""
    return _constant("ogda-s", gamma)


def LookaheadGDA(gamma, k=2, alpha=0.5) -> Method:
    row = _constant("la-gda", gamma, k, alpha)
    if k < 1:
        raise ValueError("k must be >= 1")
    check_alpha(alpha)
    return row


def OGDAVariableStep(gamma0=0.1, power=0.6, schedule=None) -> Method:
    """Optimistic method with a per-step schedule n -> gamma_n (``Method.step_size``)."""
    return Method("ogda-varstep", None, (gamma0, power, schedule))


def ImplicitOGDA(gamma, fp_tol=1e-12, fp_max_iter=200) -> Method:
    row = _constant("ogda-implicit", gamma, fp_tol, fp_max_iter)
    if not fp_tol > 0:
        raise ValueError("fp_tol must be positive")
    if not (type(fp_max_iter) is int and fp_max_iter >= 1):
        raise ValueError(f"fp_max_iter must be an integer >= 1, got {fp_max_iter!r}")
    return row


def _check_gamma(gamma):
    if not gamma > 0:
        raise ValueError("step size gamma must be positive")


def check_alpha(alpha):
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")


# ---------------------------------------------------------------------------
# Steppers
# ---------------------------------------------------------------------------

def _gda(op, z, aux, gamma, kind):
    return z - gamma * op.field(z), aux, 1


def _eg(op, z, aux, gamma, kind):
    return z - gamma * op.field(z - gamma * op.field(z)), aux, 2


def _ogda(op, z, v_prev, gamma, kind):
    v = op.field(z)
    return z - 2.0 * gamma * v + gamma * v_prev, v, 1


def _ogda_s(op, z, w, gamma, kind):
    return 0.5 * (z - w) - 2.0 * gamma * op.field(z), 0.5 * (w - z), 1


def _la_gda(op, z, aux, gamma, kind):
    k, alpha = kind.params
    fast = z
    for _ in range(k):
        fast = fast - gamma * op.field(fast)
    return z + alpha * (fast - z), aux, k


def step_gda(op: Operator, z, gamma) -> Array:
    """z - gamma * V(z)."""
    _check_gamma(gamma)
    return _gda(op, z, None, gamma, None)[0]


def step_eg(op: Operator, z, gamma) -> Array:
    """z - gamma * V(z - gamma * V(z)); two gradient queries."""
    _check_gamma(gamma)
    return _eg(op, z, None, gamma, None)[0]


def step_ogda(op: Operator, z, v_prev, gamma):
    """z - 2 gamma V(z) + gamma v_prev, where v_prev = V(previous iterate).

    Returns ``(z_next, V(z))`` so the caller can thread the field memory;
    one gradient query per step.  Under the equal-first-iterates convention
    the first genuine update is called with v_prev = V(z), since the previous
    iterate equals z itself.
    """
    _check_gamma(gamma)
    return _ogda(op, z, v_prev, gamma, None)[:2]


def step_ogda_s(op: Operator, z, w, gamma):
    """One step of the two-variable optimistic scheme.

    z' = (z - w)/2 - 2 gamma V(z),  w' = (w - z)/2.  Eliminating w recovers
    the one-variable optimistic update exactly.
    """
    _check_gamma(gamma)
    return _ogda_s(op, z, w, gamma, None)[:2]


def ogda_s_w0(op: Operator, z0, gamma) -> Array:
    """w_0 = -z_0 - 4 gamma V(z_0): the initialization equivalent to z_1 = z_0."""
    _check_gamma(gamma)
    return -z0 - 4.0 * gamma * op.field(z0)


def step_la_gda(op: Operator, z, gamma, k, alpha) -> Array:
    """Lookahead step: k inner GDA steps, then interpolate with weight alpha."""
    return _la_gda(op, z, None, gamma, LookaheadGDA(gamma, k, alpha))[0]


def step_ogda_implicit(op: Operator, z, omega, gamma, fp_tol=1e-12, fp_max_iter=200):
    """One step of the implicit optimistic scheme.

    Solves the coupled equations
        z' = z + (gamma/2) (omega' + omega)
        omega' = -V(z') - (V(z') - V(z)) / 2
    by substituting omega' into the z-equation, which gives
    g(z') = z' + (3 gamma / 4) V(z') - c = 0 with c = z + (gamma/2) omega
    + (gamma/4) V(z).  Newton's method solves it from z' = z until
    max |g(z')| <= fp_tol * max(1, max |c|), at most ``fp_max_iter``
    iterations; omega' is built from the V(z') of that stopping test.  The
    tolerance is relative to c once max |c| > 1, because the rounding floor
    of g grows with c: an absolute one fails far from the origin.  A
    residual that is not finite ends the solve at once with the current z'
    and its omega', which a non-finite field makes non-finite: a state for
    the run loop to record.
    On an operator that declares itself ``affine`` one iteration solves g
    exactly, and the step takes exactly one, whatever ``fp_tol`` says: an
    absolute tolerance can stop the solve at z' = z, or fail it on a
    residual of rounding size.

    Returns ``(z_next, omega_next, queries)`` with ``queries`` the number of
    field evaluations consumed: V(z) plus one per Newton iteration, so 2 on
    affine operators.
    """
    _check_gamma(gamma)
    v_z = op.field(z)
    c = z + 0.5 * gamma * omega + 0.25 * gamma * v_z
    scale = 0.75 * gamma
    z_next, v_next, queries = z, v_z, 1
    residual = z_next + scale * v_next - c
    affine = getattr(op, "affine", False)
    tol = fp_tol * max(1.0, np.max(np.abs(c)))
    while (queries == 1) if affine else (
            not (error := np.max(np.abs(residual))) <= tol and np.isfinite(error)):
        if not affine and queries > fp_max_iter:
            raise NoConvergenceError(
                f"implicit step residual {error:.3e} > tolerance "
                f"{tol:.1e} after {fp_max_iter} Newton iterations"
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
    reads V only through ``op.field``, ``op.jacobian``, ``op.jvp``, ``@`` and
    broadcasting, so on an affine field it is (z', aux') = C (z, aux) + m.
    One call on the columns of the identity of size n + 1, n = dim + n_aux,
    through the column operator V(Z) = J Z with q added to the last
    (homogeneous) column only, returns column j of S for every j at once.
    The column operator declares itself ``affine``.  ``corner`` is 1 for a
    one-step map, so that s' = S s on the stacked state s = (z, aux, 1), and
    0 for a flow, so that ds/dt = S s.  The call runs under
    np.errstate(all="ignore"): an S that overflows is a divergence for the
    step loop to record, not an error.  Where ``op.jacobian`` and
    ``op.field_unchecked`` give stacks (..., d, d) and (..., d) of J and q,
    it returns the stack (..., n + 1, n + 1) of S.
    """
    if not op.affine:
        raise ValueError(f"an affine system requires an affine operator, not {op.label!r}")
    dim, zero = op.dim, np.zeros(op.dim)
    jac, q = op.jacobian(zero), op.field_unchecked(zero)  # q unchecked, as in the run loops

    def field(zs):
        v = jac @ zs
        v[..., -1] += q
        return v

    columns = SimpleNamespace(field=field, jacobian=lambda zs: jac, jvp=lambda zs, x: jac @ x,
                              dim=dim, affine=True)
    system = np.eye(dim + n_aux + 1) * np.ones((*jac.shape[:-2], 1, 1))
    # The identity becomes S in place: advance returns new arrays (or the
    # empty aux it was given), all computed before the first row is written.
    with np.errstate(all="ignore"):
        system[..., :dim, :], system[..., dim:-1, :] = advance(
            columns, system[..., :dim, :], system[..., dim:-1, :])
    system[..., -1, -1] = corner
    return system


# ---------------------------------------------------------------------------
# The method table
# ---------------------------------------------------------------------------

class _Row(NamedTuple):
    build: Callable               # the public builder of the method's ``Method``
    init_aux: Callable            # (op, z0, kind) -> initial method memory
    queries: Optional[Callable]   # kind -> queries per step; None if it varies
    formula: Callable             # () -> (op, z, aux, gamma_n, kind) -> (z, aux, queries)
    aux_var: Optional[str] = None  # "w" or "omega" when the memory is that state
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


def _newton(op, z, omega, gamma, kind):
    return step_ogda_implicit(op, z, omega, gamma, *kind.params)


#: Method id -> row, in CLI catalog order; a builder's parameters are the
#: arguments of ``make_method`` that the method reads.  The method memory
#: (aux) is the previous field for the one-variable optimistic methods, w
#: for the two-variable form, omega for the implicit scheme, else None.
#: The formulas are looked up by module-level name at call time, so a
#: wrapped one is the one that runs.
_METHODS = {
    "gda": _Row(GDA, _no_aux, lambda kind: 1, lambda: _gda),
    "eg": _Row(EG, _no_aux, lambda kind: 2, lambda: _eg),
    "ogda": _Row(OGDA, _ogda_aux, lambda kind: 1, lambda: _ogda, explicit_bound=True),
    "ogda-s": _Row(OGDAStateSpace, lambda op, z, kind: ogda_s_w0(op, z, kind.gamma),
                   lambda kind: 1, lambda: _ogda_s, "w", explicit_bound=True),
    "la-gda": _Row(LookaheadGDA, _no_aux, lambda kind: kind.params[0], lambda: _la_gda),
    "ogda-varstep": _Row(OGDAVariableStep, _ogda_aux, lambda kind: 1, lambda: _ogda),
    "ogda-implicit": _Row(ImplicitOGDA, lambda op, z, kind: np.zeros(op.dim),  # omega_0 = 0
                          None, lambda: _newton, "omega"),
}

#: Method identifiers exposed to the CLI.
METHOD_IDS = tuple(_METHODS)

#: Method id -> the arguments among those of ``make_method`` that it reads.
METHOD_READS = {mid: tuple(signature(row.build).parameters) for mid, row in _METHODS.items()}


def _row_of(kind) -> _Row:
    if not isinstance(kind, Method):
        raise TypeError(f"unknown optimizer kind {kind!r}")
    return _METHODS[kind.name]


def gradient_queries(kind) -> int:
    """Gradient queries consumed per step; implicit steps report per-run."""
    queries = _row_of(kind).queries
    if queries is None:
        raise ValueError("implicit steps consume a variable number of queries; "
                         "read them off the trajectory's query column")
    return queries(kind)


def one_step_map(op: Operator, kind) -> Array:
    """S = [[M, m], [0, 1]] with (z, aux, 1)' = S (z, aux, 1): one step of a
    constant-step method on an affine field, read off its formula.  A
    singular implicit step raises NoConvergenceError."""
    method = _row_of(kind)
    if kind.gamma is None:
        raise ValueError(f"method {kind.name!r} has no fixed one-step map")
    return _stepper_map(op, method, kind, kind.gamma)[0]


def _stepper_map(op, method, kind, gamma):
    """(S, queries): the map of one step at ``gamma`` on an affine field,
    read off the method's formula, and the query count that call reports."""
    queries, formula = [], method.formula()

    def advance(columns, z, aux):
        z, aux, step_queries = formula(columns, z, aux, gamma, kind)
        queries.append(step_queries)
        return z, aux

    # Every method memory is one d-vector: a field, w or omega.
    n_aux = 0 if method.init_aux is _no_aux else op.dim
    return affine_system(op, n_aux, advance, 1.0), queries[0]


def make_method(method_id, gamma=None, alpha=0.5, k=2, gamma0=0.1, power=0.6,
                fp_tol=1e-12, fp_max_iter=200) -> Method:
    """Build the ``Method`` of a CLI identifier.

    Its builder takes the arguments among these that it reads (``METHOD_READS``).
    """
    if method_id not in _METHODS:
        raise ValueError(f"unknown method id {method_id!r}; known: {', '.join(METHOD_IDS)}")
    reads = METHOD_READS[method_id]
    if "gamma" in reads and gamma is None:
        raise ValueError(f"method {method_id!r} requires gamma")
    args = {"gamma": gamma, "alpha": alpha, "k": k, "gamma0": gamma0, "power": power,
            "fp_tol": fp_tol, "fp_max_iter": fp_max_iter}
    return _METHODS[method_id].build(**{name: args[name] for name in reads if name in args})


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
    attached; ``finish`` computes the metric columns once, over all records
    and under np.errstate(all="ignore"):
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
        ts, auxs = traj.times[ok], None if self.memory is None else self.memory[ok]
        # A finite state far past the guard may have an infinite norm or
        # field, and one near the solution a norm that underflows: values
        # to record under any errstate, as in the step loop.
        with np.errstate(all="ignore"):
            cols["z_norm"][ok] = _row_norms(zs)
            cols["dist_to_solution"][ok] = _row_norms(zs - self.op.solution)
            cols["v_norm"][ok] = _row_norms(self.op.fields_unchecked(zs))
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


def step_loop(recorder: Recorder, read, times_after, advance, z, aux, t) -> Trajectory:
    """The stepping loop shared by ``run`` and ``integrate``.

    Takes ``recorder.n_steps`` steps of the stacked state s = (z, aux, 1),
    or (z, 1) when ``aux`` is None, from the recorded start at time ``t``,
    a block of at most BLOCK_ROWS states and BLOCK_BYTES bytes at a time.
    A block starts with one call ``read(n, t, count) -> (values, error)``,
    under the caller's np.errstate, for the values of steps n, n + 1, ...,
    at most ``count`` of them: gamma_n, kappa at the stage times, or one
    value shared by every step.  ``error`` is None, or the exception to
    raise at the step after the last value unless the run stops first.
    ``times_after(n, t, values)`` then gives the times after those steps
    from the time t before step n, and ``advance(values, states, times,
    counts) -> (taken, stopped)`` takes up to one step per value from row 0
    (the state, time and query count before step n; ``states`` are the rows
    of one array, ``states[0].base``), writes the state and
    query count of row i after step n + i - 1, and says how many it took
    and whether the run ends there.  Both run under np.errstate(all="ignore"),
    so the one stop rule, under any errstate, is the finiteness test, made
    once per block on every path (neither ``each_step`` nor ``matmul_step``
    tests a state): the loop records the first non-finite state (z or aux),
    discards the states after it, which its block computed too, and stops.
    It, a norm of z above DIVERGENCE_GUARD or a NoConvergenceError
    (``each_step``; the records left NaN-padded) flags divergence; other
    exceptions propagate.
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
        values, error = read(n, times[0], min(rows, n_steps - n))
        with np.errstate(all="ignore"):
            times[1:len(values) + 1] = times_after(n, times[0], values)
            taken, stopped = advance(values, states, times, counts)
            finite = np.isfinite(block[1:taken + 1]).all(axis=1)
            if not finite.all():
                taken, stopped = int(finite.argmin()) + 1, True
            z_norms = _row_norms(block[1:taken + 1, :dim])  # inf > DIVERGENCE_GUARD
        record(n + 1, slice(1, taken + 1))
        diverged = diverged or stopped or bool((z_norms > DIVERGENCE_GUARD).any())
        if error is not None and not stopped:
            raise error
        n += taken
        block[0], times[0], counts[0] = block[taken], times[taken], counts[taken]
    return recorder.finish(times[0], counts[0], diverged)


def each_step(step):
    """``advance`` of ``step_loop`` that calls ``step(value, s, out, t) ->
    queries``, which writes the state after the step of ``value`` from s at
    time t into ``out``, once per step.  It tests no state: as in
    ``matmul_step``, the steps after a non-finite state are taken too (their
    fields evaluated at non-finite states), and ``step_loop``'s block test
    discards them.  It stops at a NoConvergenceError."""
    def advance(values, states, times, counts):
        queries = int(counts[0])
        for i, (value, t) in enumerate(zip(values, times.tolist()), 1):
            try:
                queries += step(value, states[i - 1], states[i], t)
            except NoConvergenceError:
                return i - 1, True
            counts[i] = queries
        return len(values), False

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

    On an affine operator a constant-step method (all but ogda-varstep)
    calls its formula once, for ``one_step_map``, and is stepped as that
    recurrence (``matmul_step``), with the query count that call reports
    (2 for the implicit scheme, whose ``fp_tol`` and ``fp_max_iter`` are
    then not read); a singular implicit step is a divergence at step 1.
    ogda-varstep is stepped there by S0 s + gamma_n (S1 s)
    (``_varstep_step``), at any width.  A run on a non-affine operator
    calls its formula at every step, through ``op.unchecked()`` as does
    ``init_aux``.  ``step_loop`` reads gamma_n once per block, from
    ``kind.step_size`` on an array of step indices, where a gamma_n that is
    not positive (or NaN) raises ValueError at step n.  The times are the
    running sums of gamma_n.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    method = _row_of(kind)
    z = as_state(z0, op.dim)
    recorder = Recorder(op, kind.name, problem_label or op.label, steps, record_every,
                        extra_metrics)
    view = op.unchecked()
    read = lambda n, t, count: read_positive(  # noqa: E731
        kind.step_size, np.arange(n, n + count), "step size gamma_n", "n")
    if not op.affine:
        advance = _stepper_step(method, view, kind)
    elif kind.gamma is not None:
        advance = _fixed_map_step(op, method, kind)
    else:
        advance = _varstep_step(op, method, kind)
    with np.errstate(all="ignore"):
        aux = method.init_aux(view, z, kind)
    return step_loop(recorder, read, _accumulated, advance, z, aux, 0.0)


def _accumulated(n, t, gammas):
    """``times_after`` of ``step_loop`` for ``run``: the times after steps
    of sizes ``gammas`` from t, t + gamma_n in turn, bit for bit."""
    return np.add.accumulate(np.append(t, gammas))[1:]


def _fixed_map_step(op, method, kind):
    """``advance`` of ``step_loop`` by a constant-step method's one-step map."""
    try:
        system, queries = _stepper_map(op, method, kind, kind.gamma)
    except NoConvergenceError:  # every step would fail: a divergence at step 1
        return lambda values, states, times, counts: (0, True)
    return matmul_step(lambda gammas: [system] * len(gammas), queries)


def _varstep_step(op, method, kind):
    """``advance`` of ``step_loop`` for ogda-varstep on an affine field:
    s' = R_n s with R_n = S0 + gamma_n S1, taken as S0 s + gamma_n (S1 s),
    one product with the stacked (S0, S1) per step, so that no R_n is built.
    S(gamma) is read off the formula at gamma = 1 and 2: S1 = S(2) - S(1)
    and S0 = S(1) - S1."""
    s_one, queries = _stepper_map(op, method, kind, 1.0)
    s1 = _stepper_map(op, method, kind, 2.0)[0] - s_one
    width = len(s1)
    pencil, products = np.vstack((s_one - s1, s1)), np.empty(2 * width)
    at_zero, slope = products[:width], products[width:]

    def product(gamma_n, s, out):
        pencil.dot(s, products)
        np.multiply(slope, gamma_n, out)
        out += at_zero

    return matmul_step(np.ndarray.tolist, queries, product)


def _stepper_step(method, view, kind):
    """``each_step`` advance on a non-affine operator: the method's formula,
    looked up once per run, on ``view`` at each step.  A constant gamma is
    bound once as a 0-d array (``read_only_scalar``), which a vector times
    it rounds as times the block's gamma_n, read then for the times only."""
    dim, formula = view.dim, method.formula()
    gamma = None if kind.gamma is None else read_only_scalar(kind.gamma)

    def step(gamma_n, s, out, t):
        out[:dim], out[dim:-1], queries = formula(
            view, s[:dim], s[dim:-1], gamma_n if gamma is None else gamma, kind)
        return queries

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


def matmul_step(maps, queries, product=np.ndarray.dot):
    """``advance`` of ``step_loop`` by s' = R s, one ``product`` per step (a
    matrix-vector product) and nothing else; the steps after a non-finite
    state are taken too, and ``step_loop`` discards them.

    ``maps(values)`` gives R = [[M, m], [0, 1]] for the steps of the
    block's values: a method's recurrence or a scheme's map of a linear
    flow, repeated, or one map per step; or the items r of those steps
    from which ``product(r, s, out)`` writes R s.  Each step reports
    ``queries``.
    """
    def advance(values, states, times, counts):
        taken = len(values)
        for r, s, out in zip(maps(values), states, states[1:taken + 1]):
            product(r, s, out)
        counts[1:taken + 1] = counts[0] + queries * np.arange(1, taken + 1)
        return taken, False

    return advance
