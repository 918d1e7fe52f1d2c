"""Test problems: joint vector fields, analytic Jacobians, and numerical probes.

Each problem bundles the field V(z) of an unconstrained min-max objective with
its Jacobian and metadata (Lipschitz constant, strong-monotonicity constant,
solution point).  The module also provides a finite-difference Jacobian oracle,
sampling-based monotonicity probes, and a seeded random bilinear game
generator, which together back the library's self-checks.
"""
from __future__ import annotations

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

    Raised at the checked boundaries (``as_state``, ``field``, ``jacobian``);
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


class Operator:
    """A vector field V with analytic Jacobian J and problem metadata.

    Subclasses implement ``_field`` and ``_jacobian``.  ``field``/``jacobian``
    validate dimensions and finiteness at the boundary; the solution point is
    checked against ``SOLUTION_TOL`` at construction time.  The run loops
    evaluate through ``unchecked()``, where a non-finite value is a state.

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

    def field(self, z) -> Array:
        """Evaluate V(z).  An overflow is no warning: the non-finite value
        it gives raises NonFiniteError, under any np.errstate."""
        z = as_state(z, self.dim)
        with np.errstate(all="ignore"):
            v = np.asarray(self._field(z), dtype=float)
        if not np.isfinite(v).all():
            raise NonFiniteError("field evaluation produced non-finite entries")
        return v

    def jacobian(self, z) -> Array:
        """Evaluate the analytic Jacobian J(z) (shared and read-only if affine),
        with the same overflow rule as ``field``."""
        z = as_state(z, self.dim)
        if self._constant_jacobian is not None:
            return self._constant_jacobian
        with np.errstate(all="ignore"):
            j = np.asarray(self._jacobian(z), dtype=float)
        if j.shape != (self.dim, self.dim):
            raise ValueError(f"jacobian has shape {j.shape}, expected {(self.dim, self.dim)}")
        if not np.isfinite(j).all():
            raise NonFiniteError("jacobian evaluation produced non-finite entries")
        if self.affine:
            self._constant_jacobian = _read_only(j)
        return j

    def field_unchecked(self, z) -> Array:
        """V(z) without validation."""
        return np.asarray(self._field(np.asarray(z, dtype=float)), dtype=float)

    def jacobian_unchecked(self, z) -> Array:
        """J(z) without validation (an affine operator's J, checked once)."""
        if self.affine:
            return self.jacobian(self.solution)
        return np.asarray(self._jacobian(np.asarray(z, dtype=float)), dtype=float)

    def unchecked(self) -> SimpleNamespace:
        """``field``/``jacobian`` as ``field_unchecked``/``jacobian_unchecked``."""
        return SimpleNamespace(field=self.field_unchecked, jacobian=self.jacobian_unchecked,
                               dim=self.dim)

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
        if np.any(self.b) or np.any(self.c):
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


class QuarticCounterexample(Operator):
    """f(x, y) = x^4 - y^4: the strictly convex-concave game whose EG flow
    acquires spurious equilibria (see the stability module)."""

    label = "quartic"

    def __init__(self):
        super().__init__(1, 1)

    def _field(self, z):
        return 4.0 * (z * z * z)

    def fields_unchecked(self, zs):
        return 4.0 * (zs * zs * zs)  # _field's formula, elementwise: the same bits per row

    def _jacobian(self, z):
        return np.diag(12.0 * (z * z))


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
        A = rng.standard_normal((d1, d2))
        if np.linalg.svd(A, compute_uv=False).min() >= sigma_min:
            return BilinearGame(A, rank_threshold=sigma_min)
    raise RuntimeError(
        f"no full-rank draw with sigma_min >= {sigma_min} within {max_redraws} redraws"
    )


#: Problem catalog addressable by string identifiers (CLI and tests).
PROBLEM_IDS = ("bilinear", "bilinear-random", "quartic", "scaled-identity")


def make_problem(problem_id, params=None, seed=0) -> Operator:
    """Instantiate a catalog problem from its identifier and parameter dict;
    a parameter given as None takes its default."""
    params = {key: value for key, value in (params or {}).items() if value is not None}
    if problem_id == "bilinear":
        A = params.pop("A", [[1.0]])
        b = params.pop("b", None)
        c = params.pop("c", None)
        _reject_unknown(params)
        return BilinearGame(A, b, c)
    if problem_id == "bilinear-random":
        d1 = _param(params, "d1", 2, int)
        d2 = _param(params, "d2", 2, int)
        sigma_min = _param(params, "sigma_min", 0.1)
        _reject_unknown(params)
        return random_bilinear(seed, d1, d2, sigma_min)
    if problem_id == "quartic":
        _reject_unknown(params)
        return QuarticCounterexample()
    if problem_id == "scaled-identity":
        mu = _param(params, "mu", 1.0)
        dim = _param(params, "dim", 2, int)
        _reject_unknown(params)
        return ScaledIdentity(mu, dim)
    raise ValueError(f"unknown problem id {problem_id!r}; known: {', '.join(PROBLEM_IDS)}")


def _param(params, name, default, kind=float):
    """Pop a numeric parameter: an int, or for ``kind=float`` any real; never a bool."""
    value = params.pop(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise ValueError(f"{name}: expected {kind.__name__}, got {value!r}")
    return kind(value)


def _reject_unknown(params):
    if params:
        raise ValueError(f"unknown key(s): {', '.join(sorted(params))}")
