"""Test problems: joint vector fields, analytic Jacobians, and numerical probes.

Each problem bundles the field V(z) of an unconstrained min-max objective with
its Jacobian and metadata (Lipschitz constant, strong-monotonicity constant,
solution point).  The module also provides a finite-difference Jacobian oracle,
sampling-based monotonicity probes, and a seeded random bilinear game
generator, which together back the library's self-checks.
"""
from __future__ import annotations

from inspect import signature
from types import SimpleNamespace

import numpy as np

Array = np.ndarray

#: Absolute tolerance for V(solution) = 0, enforced at construction.
SOLUTION_TOL = 1e-12

#: Default central-difference step (truncation vs. rounding trade-off).
FD_STEP = 1e-5

#: Smallest singular value below which a bilinear game is not "full rank".
FULL_RANK_THRESHOLD = 0.05


class NonFiniteError(ValueError):
    """A state, field value or Jacobian with a NaN or infinite entry.

    Raised at the checked boundaries (``as_state``, ``field``, ``jacobian``, ``jvp``);
    inside the run loops, which evaluate unchecked, a non-finite value is a state.
    """


def as_state(z, dim=None) -> Array:
    """Validate and convert ``z`` to a finite 1-d float64 vector."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"state must be a 1-d vector, got shape {z.shape}")
    if dim is not None and z.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {z.shape[0]}")
    if not np.isfinite(z).all():
        raise NonFiniteError("state contains non-finite entries")
    return z


def _read_only(a) -> Array:
    a.flags.writeable = False
    return a


def read_only_scalar(x) -> Array:
    """``x`` as a read-only 0-d float64 array: a small vector times it rounds
    as times a float, with less call overhead.  Fold a constant before
    binding it; arithmetic on two of them gives a (slow) NumPy scalar."""
    return _read_only(np.array(x, dtype=float))


class Operator:
    """A vector field V with analytic Jacobian J and problem metadata.

    Subclasses implement ``_field`` and ``_jacobian``, and may override
    ``_jvp``, the Jacobian-vector product J(z) x, which defaults to
    ``_jacobian(z) @ x``: the flows and the Lyapunov rates multiply J only
    by vectors, so an override never forms J (a dense J's 0 * inf entries
    are NaN where the product's are not).  The library reads V, J and J x
    only through these three hooks, V also through ``field_unchecked`` and
    the stacked ``fields_unchecked`` of the recorders.
    ``field``/``jacobian``/``jvp`` validate dimensions and finiteness at the
    boundary (``_checked``); the solution point is checked against
    ``SOLUTION_TOL`` at construction time.  The run loops evaluate through
    ``unchecked()``, the hooks themselves, where a non-finite value is a
    state: they test states once per block of steps, so the hooks may also
    be called at the non-finite states of a block's later steps, whose
    results are discarded.

    ``affine`` is True on classes whose field is affine in z, so that J is
    one constant matrix: ``jacobian`` then builds and checks it on the first
    call and returns that same read-only array on every later one.
    """

    label = "operator"
    affine = False
    _constant_jacobian = None

    def __init__(self, d1, d2, lipschitz=None, strong_mu=None, solution=None):
        self.d1 = int(d1)
        self.d2 = int(d2)
        if self.d1 < 0 or self.d2 < 0 or self.d1 + self.d2 < 1:
            raise ValueError("block dimensions must be nonnegative with d1 + d2 >= 1")
        self.lipschitz = None if lipschitz is None else float(lipschitz)
        self.strong_mu = None if strong_mu is None else float(strong_mu)
        if self.lipschitz is not None and self.lipschitz < 0:
            raise ValueError("lipschitz must be nonnegative")
        if self.strong_mu is not None and self.strong_mu < 0:
            raise ValueError("strong_mu must be nonnegative")
        if solution is None:
            solution = np.zeros(self.dim)
        self.solution = as_state(solution, self.dim)
        residual = float(np.max(np.abs(self._field(self.solution))))
        if residual > SOLUTION_TOL:
            raise ValueError(
                f"V(solution) = 0 violated: max residual {residual:.3e} > {SOLUTION_TOL:.0e}"
            )

    @property
    def dim(self) -> int:
        return self.d1 + self.d2

    def _checked(self, what, hook, *args, shape=None) -> Array:
        """``hook(*args)`` as a float array, evaluated under
        np.errstate(all="ignore"): an overflow is no warning, and the
        non-finite value it gives raises NonFiniteError, under any errstate."""
        with np.errstate(all="ignore"):
            value = np.asarray(hook(*args), dtype=float)
        if shape is not None and value.shape != shape:
            raise ValueError(f"jacobian has shape {value.shape}, expected {shape}")
        if not np.isfinite(value).all():
            raise NonFiniteError(f"{what} produced non-finite entries")
        return value

    def field(self, z) -> Array:
        """Evaluate V(z), checked (``_checked``)."""
        return self._checked("field evaluation", self._field, as_state(z, self.dim))

    def jacobian(self, z) -> Array:
        """Evaluate the analytic Jacobian J(z), checked, shared and read-only if affine."""
        z = as_state(z, self.dim)
        if self._constant_jacobian is not None:
            return self._constant_jacobian
        j = self._checked("jacobian evaluation", self._jacobian, z, shape=(self.dim, self.dim))
        if self.affine:
            self._constant_jacobian = _read_only(j)
        return j

    def jvp(self, z, x) -> Array:
        """Evaluate J(z) x, checked."""
        return self._checked("jacobian-vector product", self._jvp,
                             as_state(z, self.dim), as_state(x, self.dim))

    def field_unchecked(self, z) -> Array:
        """V(z) without validation."""
        return np.asarray(self._field(np.asarray(z, dtype=float)), dtype=float)

    def _affine_jacobian(self) -> Array:
        """An affine operator's constant J, checked by the first call only."""
        j = self._constant_jacobian
        return self.jacobian(self.solution) if j is None else j

    def unchecked(self) -> SimpleNamespace:
        """The view through which the run loops evaluate non-finite states
        too: the hooks ``_field``, ``_jacobian`` and ``_jvp`` themselves,
        which take float vectors, as ``field``/``jacobian``/``jvp``."""
        return SimpleNamespace(field=self._field, jacobian=self._jacobian,
                               jvp=self._jvp, dim=self.dim)

    def fields_unchecked(self, zs) -> Array:
        """V at each row of the (n, dim) matrix ``zs``, without validation.

        Row i equals ``field_unchecked(zs[i])`` bit for bit; this default
        evaluates the rows one by one, and the catalog problems override it
        with one stacked evaluation.
        """
        return np.array([self.field_unchecked(z) for z in zs]).reshape(len(zs), self.dim)

    def _field(self, z) -> Array:
        raise NotImplementedError

    def _jacobian(self, z) -> Array:
        raise NotImplementedError

    def _jvp(self, z, x) -> Array:
        return self._jacobian(z) @ x


class BilinearGame(Operator):
    """min_x max_y  x^T A y + b^T x + c^T y.

    The joint field is V(x, y) = (A y + b, -A^T x - c) with constant Jacobian
    [[0, A], [-A^T, 0]].  ``singular_values`` holds the min(d1, d2) singular
    values of A in ascending order (read-only); ``full_rank`` records whether
    the smallest clears ``FULL_RANK_THRESHOLD`` (or a caller-supplied threshold).
    """

    label = "bilinear"
    affine = True

    def __init__(self, A, b=None, c=None, rank_threshold=FULL_RANK_THRESHOLD):
        # Private read-only copies: a caller writing to its A, b or c later
        # must not move the field away from the cached Jacobian.
        A = np.atleast_2d(np.array(A, dtype=float))
        if A.ndim != 2 or not np.all(np.isfinite(A)):
            raise ValueError("A must be a finite 2-d matrix")
        d1, d2 = A.shape
        self.A = _read_only(A)
        self.b = _read_only(np.zeros(d1) if b is None else as_state(b, d1).copy())
        self.c = _read_only(np.zeros(d2) if c is None else as_state(c, d2).copy())
        svals = np.linalg.svd(A, compute_uv=False)[::-1].copy()
        self.singular_values = _read_only(svals)
        self.sigma_min = float(svals.min()) if svals.size else 0.0
        self.sigma_max = float(svals.max()) if svals.size else 0.0
        self.full_rank = self.sigma_min >= rank_threshold
        solution = None
        self.shifted = bool(np.any(self.b) or np.any(self.c))
        if self.shifted:
            # Shifted optimum: V = 0 at A y = -b, A^T x = -c (least-squares;
            # construction fails below if no exact zero exists).
            y_star, *_ = np.linalg.lstsq(A, -self.b, rcond=None)
            x_star, *_ = np.linalg.lstsq(A.T, -self.c, rcond=None)
            solution = np.concatenate([x_star, y_star])
        super().__init__(d1, d2, lipschitz=self.sigma_max, strong_mu=0.0, solution=solution)

    def _field(self, z):
        x, y = z[: self.d1], z[self.d1 :]
        return np.concatenate([self.A @ y + self.b, -self.A.T @ x - self.c])

    def fields_unchecked(self, zs):
        # Stacked matrix-vector products round as the per-row ones in _field;
        # a matrix product such as ys @ A.T would not.
        xs, ys = zs[:, : self.d1, None], zs[:, self.d1 :, None]
        return np.concatenate([np.matmul(self.A, ys)[..., 0] + self.b,
                               np.matmul(-self.A.T, xs)[..., 0] - self.c], axis=1)

    def _jacobian(self, z):
        d = self.dim
        j = np.zeros((d, d))
        j[: self.d1, self.d1 :] = self.A
        j[self.d1 :, : self.d1] = -self.A.T
        return j

    def _jvp(self, z, x):
        return self._affine_jacobian() @ x


#: The quartic's coefficients, bound once (``read_only_scalar``).
_FOUR, _TWELVE = read_only_scalar(4.0), read_only_scalar(12.0)


class QuarticCounterexample(Operator):
    """f(x, y) = x^4 - y^4: the strictly convex-concave game whose EG flow
    acquires spurious equilibria (see the stability module)."""

    label = "quartic"

    def __init__(self):
        super().__init__(1, 1)

    def _field(self, z):
        return _FOUR * (z * z * z)

    def fields_unchecked(self, zs):
        return _FOUR * (zs * zs * zs)  # _field's formula, elementwise: the same bits per row

    def _jacobian(self, z):
        return np.diag(_TWELVE * (z * z))

    def _jvp(self, z, x):
        return _TWELVE * (z * z) * x


class ScaledIdentity(Operator):
    """V(z) = mu * z: the canonical strongly monotone test problem."""

    label = "scaled-identity"
    affine = True

    def __init__(self, mu=1.0, dim=2):
        mu = float(mu)
        if not mu > 0:
            raise ValueError("mu must be positive")
        if np.isinf(mu):
            raise ValueError("mu must be finite")
        self.mu = mu
        super().__init__(int(dim), 0, lipschitz=mu, strong_mu=mu)

    def _field(self, z):
        return self.mu * z

    def fields_unchecked(self, zs):
        return self.mu * zs

    def _jacobian(self, z):
        return self.mu * np.eye(self.dim)

    def _jvp(self, z, x):
        return self.mu * x


def fd_jacobian(op: Operator, z, h=FD_STEP) -> Array:
    """Central-difference Jacobian: entry (i, j) = (V_i(z+h e_j) - V_i(z-h e_j)) / 2h."""
    if h <= 0:
        raise ValueError("h must be positive")
    z = as_state(z, op.dim)
    cols = []
    for j in range(op.dim):
        e = np.zeros(op.dim)
        e[j] = h
        cols.append((op.field(z + e) - op.field(z - e)) / (2.0 * h))
    jac = np.column_stack(cols)
    if not np.all(np.isfinite(jac)):
        raise ValueError("finite-difference Jacobian produced non-finite entries")
    return jac


def _sample_ball(rng, dim, radius, n):
    """n points uniform in the radius-ball (normal direction, radial CDF inverse)."""
    u = rng.standard_normal((n, dim))
    u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-300)
    r = radius * rng.random(n) ** (1.0 / dim)
    return u * r[:, None]


def monotonicity_probe(op: Operator, seed=0, samples=1000, radius=1.0):
    """Sampled monotonicity diagnostics.

    Returns ``(pairwise_min, solution_min)`` where ``pairwise_min`` is the
    minimum of <z - z', V(z) - V(z')> over sampled pairs in the radius ball and
    ``solution_min`` the minimum of <V(z), z - z*>.  Both are >= -1e-10 for a
    monotone operator.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    zs = _sample_ball(rng, op.dim, radius, samples) + op.solution
    zps = _sample_ball(rng, op.dim, radius, samples) + op.solution
    pairwise_min = np.inf
    solution_min = np.inf
    for z, zp in zip(zs, zps):
        vz, vzp = op.field(z), op.field(zp)
        pairwise_min = min(pairwise_min, float((z - zp) @ (vz - vzp)))
        solution_min = min(solution_min, float(vz @ (z - op.solution)))
    return pairwise_min, solution_min


def random_bilinear(seed, d1, d2, sigma_min=0.1, max_redraws=100) -> BilinearGame:
    """Seeded standard-normal bilinear game, redrawn until sigma_min(A) >= sigma_min.

    Deterministic for a fixed seed; b = c = 0.
    """
    if d1 < 1 or d2 < 1:
        raise ValueError("d1 and d2 must be >= 1")
    if not sigma_min > 0:
        raise ValueError("sigma_min must be positive")
    if np.isinf(sigma_min):
        raise ValueError("sigma_min must be finite")
    rng = np.random.default_rng(seed)
    for _ in range(max_redraws):
        # One game per draw: its singular values decide the redraw.
        game = BilinearGame(rng.standard_normal((d1, d2)), rank_threshold=sigma_min)
        if game.full_rank:
            return game
    raise RuntimeError(
        f"no full-rank draw with sigma_min >= {sigma_min} within {max_redraws} redraws"
    )


#: Problem id -> its builder, in catalog order: the seed, then the params
#: with their defaults.  An int default takes ints only, a float default
#: any real, and neither takes a bool.
_PROBLEMS = {
    "bilinear": lambda seed, A=[[1.0]], b=None, c=None: BilinearGame(A, b, c),
    "bilinear-random": lambda seed, d1=2, d2=2, sigma_min=0.1: random_bilinear(
        seed, d1, d2, sigma_min),
    "quartic": lambda seed: QuarticCounterexample(),
    "scaled-identity": lambda seed, mu=1.0, dim=2: ScaledIdentity(mu, dim),
}

#: Problem catalog addressable by string identifiers (CLI and tests).
PROBLEM_IDS = tuple(_PROBLEMS)

#: Problem id -> its builder's params after the seed.
_PARAMS = {pid: tuple(signature(build).parameters.values())[1:]
           for pid, build in _PROBLEMS.items()}


def make_problem(problem_id, params=None, seed=0) -> Operator:
    """Instantiate a catalog problem from its identifier and parameter dict;
    a parameter given as None takes its default."""
    if problem_id not in _PROBLEMS:
        raise ValueError(f"unknown problem id {problem_id!r}; known: {', '.join(PROBLEM_IDS)}")
    params = {key: value for key, value in (params or {}).items() if value is not None}
    args = {}
    for param in _PARAMS[problem_id]:
        value = args[param.name] = params.pop(param.name, param.default)
        kind = type(param.default)
        if kind in (int, float):
            if isinstance(value, bool) or not isinstance(value, (int, kind)):
                raise ValueError(f"{param.name}: expected {kind.__name__}, got {value!r}")
            args[param.name] = kind(value)
    if params:
        raise ValueError(f"unknown key(s): {', '.join(sorted(params))}")
    return _PROBLEMS[problem_id](seed, **args)
