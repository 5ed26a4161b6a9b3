"""Test-only oracle for the edmd module: predictions by iterating the fitted
operator in Fractions.

The library decides A^k z_0 = z_k through one-step integer identities on
the data's windows, and computes the prediction error on integer numerators
over powers of A's common denominator; this oracle computes every power
A^k z_0 itself, in reduced Fractions, and shares no step with either.
"""

from fractions import Fraction


def prediction_prefix(a_hat, values, horizon: int) -> int:
    """The largest k <= horizon with A^j z_0 = z_j for every j <= k.

    z_j = (values[j], ..., values[j+q]) and A^j z_0 is iterated in Fractions,
    so predictions hold up to a horizon h exactly when the prefix is >= h.
    """
    dim = len(a_hat)
    z = [Fraction(v) for v in values[:dim]]
    for k in range(1, horizon + 1):
        z = [sum(a * v for a, v in zip(row, z)) for row in a_hat]
        if z != [Fraction(v) for v in values[k : k + dim]]:
            return k - 1
    return horizon


def state_errors(a_hat, values, horizon: int) -> list[Fraction]:
    """|(A^k z_0)_0 - values[k]| for k = 1..horizon, A^k z_0 iterated in Fractions.

    The largest of the first h entries is the maximum state error at horizon h.
    """
    z = [Fraction(v) for v in values[: len(a_hat)]]
    errors = []
    for k in range(1, horizon + 1):
        z = [sum(a * v for a, v in zip(row, z)) for row in a_hat]
        errors.append(abs(z[0] - values[k]))
    return errors
