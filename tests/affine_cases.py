"""Generated affine fields for the propagator-vs-evaluation tests.

``AffineField`` declares ``affine = True``, so ``run`` and ``integrate``
step it by its one-step map or linear flow; ``NonAffineTwin`` is the same
field declared non-affine, so they evaluate it step by step.
"""

import numpy as np
from hypothesis import strategies as st

from saddleflow.problems import Operator


class AffineField(Operator):
    """V(z) = M z + q with its zero at z_star; monotone when M + M^T >= 0."""

    label = "affine-field"
    affine = True

    def __init__(self, m, z_star):
        self.m = np.array(m, dtype=float)
        self.q = -(self.m @ z_star)
        super().__init__(len(z_star), 0, solution=z_star)

    def _field(self, z):
        return self.m @ z + self.q

    def _jacobian(self, z):
        return self.m.copy()


class NonAffineTwin(AffineField):
    """The same field declared non-affine: the loops evaluate it at each step."""

    affine = False


@st.composite
def monotone_affine_cases(draw):
    """(M, z_star, z0, aux0): M = w B B^T + (K - K^T), so M + M^T = 2w B B^T >= 0."""
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weight = draw(st.sampled_from([0.0, 0.2, 1.0]))
    b, k = rng.standard_normal((2, dim, dim))
    m = weight * (b @ b.T) + (k - k.T)
    return m, rng.standard_normal(dim), rng.standard_normal(dim), rng.standard_normal(dim)


def assert_same_run(fast, ref):
    """Identical steps, times, queries, divergence flag and non-finite
    pattern; states within 1e-10 of each record's largest entry (at least 1)."""
    np.testing.assert_array_equal(fast.steps, ref.steps)
    np.testing.assert_array_equal(fast.times, ref.times)
    np.testing.assert_array_equal(fast.queries, ref.queries)
    assert fast.diverged == ref.diverged
    finite = np.isfinite(ref.states)
    np.testing.assert_array_equal(np.isfinite(fast.states), finite)
    np.testing.assert_array_equal(np.isnan(fast.states), np.isnan(ref.states))
    ref_states = np.where(finite, ref.states, 0.0)
    gap = np.abs(np.where(finite, fast.states, 0.0) - ref_states)
    assert np.all(gap <= 1e-10 * np.maximum(1.0, np.abs(ref_states).max(axis=1, keepdims=True)))
