"""Test-only oracles: textbook Berlekamp-Massey in field arithmetic, and the
smallest register by exhaustive solves.

This is the classical division form over Q (Fractions) or GF(p) (residues),
with the register checked by regenerating the input. Over Q the package
runs the same form mod the prime 32749 and lifts the register to Q, or runs a
fraction-free integer loop, so the two share no arithmetic step; over GF(p)
the package runs this form with its own list arithmetic.
The exhaustive oracle solves each order's recurrence constraints by
textbook Gauss-Jordan (field_oracle), not the package's elimination.
"""

from fractions import Fraction

from field_oracle import solve
from koopman_dh.complexity import (
    RATIONAL,
    LinearComplexityResult,
    lfsr_generate,
)


def berlekamp_massey_fractions(sample) -> LinearComplexityResult:
    """Minimal LFSR by Berlekamp-Massey with one field division per update."""
    p = None if sample.field == RATIONAL else int(sample.field)
    zero, one = (Fraction(0), Fraction(1)) if p is None else (0, 1)
    s = sample.terms
    c = [one]
    b = [one]
    length = 0
    m = 1
    last_d = one
    for n in range(len(s)):
        d = s[n]
        for i in range(1, length + 1):
            if i < len(c):
                d = d + c[i] * s[n - i]
        if p is not None:
            d %= p
        if d == zero:
            m += 1
            continue
        coef = d / last_d if p is None else d * pow(last_d, -1, p) % p
        prev_c = c[:]
        if len(c) < len(b) + m:
            c = c + [zero] * (len(b) + m - len(c))
        for i, bv in enumerate(b):
            c[i + m] = c[i + m] - coef * bv
        if p is not None:
            c = [v % p for v in c]
        if 2 * length <= n:
            length = n + 1 - length
            b = prev_c
            last_d = d
            m = 1
        else:
            m += 1
    coeffs = [-c[i] if i < len(c) else zero for i in range(1, length + 1)]
    connection = tuple(coeffs if p is None else [v % p for v in coeffs])
    if tuple(lfsr_generate(connection, s[:length], len(s), sample.field)) != s:
        raise RuntimeError("oracle register fails to regenerate input")
    return LinearComplexityResult(length=length, connection=connection)


def bruteforce_min_lfsr(sample, max_order: int) -> LinearComplexityResult | None:
    """Smallest register length by exhaustive exact solves, or None above the bound.

    Independent of the Berlekamp-Massey path: for each order L it solves the
    full linear system of recurrence constraints and accepts the first L
    whose exact fit has zero residual across the whole sequence.
    """
    if max_order > 12:
        raise ValueError(f"exhaustive oracle capped at order 12, got {max_order}")
    p = None if sample.field == RATIONAL else int(sample.field)
    zero = Fraction(0) if p is None else 0
    s = sample.terms
    if all(v == 0 for v in s):
        return LinearComplexityResult(length=0, connection=())
    for order in range(1, max_order + 1):
        rows = [[s[k - i] for i in range(1, order + 1)] for k in range(order, len(s))]
        if not rows:
            solution = [zero] * order
        else:
            solution = solve(rows, s[order:], p)[0]
        if solution is not None:
            return LinearComplexityResult(length=order, connection=tuple(solution))
    return None
