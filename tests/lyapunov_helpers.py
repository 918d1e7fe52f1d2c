"""Lyapunov checks that only the tests use, shared by the Lyapunov and
acceptance tests."""

from saddleflow.lyapunov import evaluate
from saddleflow.problems import Operator


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
