"""Test-only oracles: the rational solve and the reduced echelon form on the
fraction-free integer echelon, the window rank profile as the snapshot
dataset took it, and the prime search that the modular solve walked on
every call.

The package solved every rational system, and took every snapshot rank,
this way before its larger systems moved to the word-size modular solve;
they stay here as the reference that the modular solve must match exactly:
solution, rank(A) and rank(A|b), pivots, denominator and numerators.
"""

from fractions import Fraction

from koopman_dh.linalg_exact import IntegerEchelon


def echelon_solve(a_rows, b):
    """(solution | None, rank(A), rank(A|b)) over Q, free variables pinned to zero."""
    a_rows = [list(row) for row in a_rows]
    if not a_rows:
        return [], 0, 0
    b_col = len(a_rows[0])
    ech = IntegerEchelon(b_col + 1)
    for row, rhs in zip(a_rows, b):
        ech.add_row(row + [rhs])
    rank_aug = ech.rank
    if b_col in ech.pivot_rows:
        return None, rank_aug - 1, rank_aug
    d, x = ech.back_substitute(b_col)
    return [Fraction(v, d) for (v,) in x], rank_aug, rank_aug


def echelon_rref(rows, nvars):
    """(pivots, d, y) as linalg_exact.reduced_echelon returns it, from the
    integer echelon of every row and one back-substitution for the
    right-hand sides (columns nvars on); y is None when one holds a pivot."""
    ech = IntegerEchelon(len(rows[0]))
    for row in rows:
        ech.add_row(list(row))
    pivots = sorted(ech.pivot_rows)
    if pivots and pivots[-1] >= nvars:
        return pivots, 1, None
    d, x = ech.back_substitute(nvars)
    return pivots, d, [x[c] for c in pivots]


def window_profile(values, q, n):
    """The windows k < n of length q+1 that are independent of the windows
    before them: each window fed to the integer echelon as a row."""
    echelon, pivots = IntegerEchelon(q + 1), []
    for k in range(n):
        if echelon.add_row(values[k : k + q + 1]) is not None:
            pivots.append(k)
    return pivots


def word_primes_by_search(count):
    """The first count primes below 2^31, largest first, by a fresh
    Miller-Rabin search (bases 2, 7, 61) from 2^31 - 1 down."""
    primes, n = [], (1 << 31) - 1
    while len(primes) < count:
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in (2, 7, 61):
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                break
        else:
            primes.append(n)
        n -= 2
    return primes
