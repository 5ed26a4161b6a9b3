"""Test-only oracles for the lifting module: the brute-force order scan and
the Fraction closing check.

The scan solves the full-period Hankel system at q = 0, 1, 2, ... and stops
at the first order whose solution passes the closing check. It shares no
step with the library's cyclotomic-factor rule, and its closing check is the
plain Fraction loop, independent of the library's integer substitution.
"""

from fractions import Fraction
from types import SimpleNamespace

from koopman_dh.dynamics import full_period_trajectory
from koopman_dh.lifting import hankel_system, solve_alpha_exact


def verify_closing_fractions(traj, alpha) -> bool:
    """x_{k+q+1} == sum_j alpha_j x_{k+j} in Fractions, all k in one period."""
    q = len(alpha) - 1
    alpha = [Fraction(a) for a in alpha]
    period = traj.params.period
    for k in range(period):
        lhs = Fraction(traj.value_at(k + q + 1))
        rhs = sum(a * traj.value_at(k + j) for j, a in enumerate(alpha))
        if lhs != rhs:
            return False
    return True


def minimal_lifting_dimension_scan(params, traj=None) -> int:
    """Smallest lifted dimension q+1 that closes linearly over the integers.

    Brute-force scan over q = 0, 1, 2, ...: solve the exact Hankel system,
    confirm any solution with the closing check, stop at the first success.
    The scan is capped at q = p-2, which is always solvable (the pure cyclic
    shift), so exceeding the cap is an internal error.
    """
    if traj is None:
        traj = full_period_trajectory(params)
    for q in range(params.p - 1):
        result = solve_alpha_exact(*hankel_system(traj, q))
        if result.solvable and verify_closing_fractions(traj, result.solution):
            return q + 1
    raise RuntimeError(f"no closing order up to q = p-2 for p={params.p}, m={params.m}")


def periodic_trajectory(values):
    """A stand-in for ModTrajectory: any integer sequence of period len(values).

    Its params carry p = period + 1, so the scan's cap q = p-2 is the pure
    cyclic shift of this period.
    """
    values = tuple(values)
    n = len(values)
    params = SimpleNamespace(p=n + 1, m=None, period=n)
    return SimpleNamespace(params=params, values=values, value_at=lambda i: values[i % n])
