"""Test-only oracle for the edmd module: exact predictions by iterating the
fitted operator in Fractions.

The library decides A^k z_0 = z_k through one-step integer identities on
the data's windows; this oracle computes every power A^k z_0 itself and
shares no step with that check.
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
