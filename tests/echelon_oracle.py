"""Test-only oracles: the fraction-free integer echelon, the rational solve
and the reduced echelon form on it, the rank profile of a sequence's
windows, the prime search that the modular solve walked on every call, and
the per-pivot modular Gauss-Jordan that the panel kernel replaced.

The package solved every rational system, and took every snapshot rank,
this way before its solves moved to the word-size modular solve; they stay
here as the reference that the modular solve must match exactly: solution,
rank(A) and rank(A|b), pivots, denominator and numerators.
"""

from fractions import Fraction
from math import gcd, lcm


class IntegerEchelon:
    """Incremental fraction-free row echelon of an integer matrix over Q:
    cross-multiplication with gcd-normalized, positive pivot rows."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, list[int]] = {}

    def add_row(self, row) -> int | None:
        """Reduce a row against current pivots; returns its pivot column or None."""
        row = list(row)
        for col in range(self.ncols):
            v = row[col]
            if v == 0:
                continue
            piv = self.pivot_rows.get(col)
            if piv is None:
                g = gcd(*row)
                if g > 1:
                    row = [a // g for a in row]
                if row[col] < 0:
                    row = [-a for a in row]
                self.pivot_rows[col] = row
                return col
            g = gcd(v, piv[col])
            f_row, f_piv = piv[col] // g, v // g
            row = [f_row * a - f_piv * b for a, b in zip(row, piv)]
        return None

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def back_substitute(self, nvars: int) -> tuple[int, list[list[int]]]:
        """Solve for the first nvars columns, the rest being right-hand sides.

        Returns (d, x) with x integer: row j of x / d holds variable j's value
        in each right-hand side, free variables pinned to zero. The systems
        must be consistent: no pivot may sit in a right-hand-side column.
        """
        dens = [1] * nvars  # variable j is nums[j] / dens[j]
        nums = [[0] * (self.ncols - nvars) for _ in range(nvars)]
        for col in sorted(self.pivot_rows, reverse=True):
            prow = self.pivot_rows[col]
            known = [c2 for c2 in range(col + 1, nvars) if prow[c2]]
            scale = lcm(*[dens[c2] for c2 in known])
            acc = [a * scale for a in prow[nvars:]]
            for c2 in known:
                f = prow[c2] * (scale // dens[c2])
                acc = [a - f * v for a, v in zip(acc, nums[c2])]
            den = prow[col] * scale  # positive: pivots are normalized positive
            g = gcd(den, *acc)
            dens[col], nums[col] = den // g, [a // g for a in acc]
        d = lcm(*dens)
        return d, [[a * (d // dj) for a in row] for row, dj in zip(nums, dens)]


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
    """(pivots, d, y) as linalg_exact.reduced_echelon returns it: the integer
    echelon of every row gives the pivots, and a second one, on the pivot
    columns followed by the other columns from nvars on, solves for the
    latter in one back-substitution; a pivot column from nvars on is the
    unit column of its row."""
    ech = IntegerEchelon(len(rows[0]))
    for row in rows:
        ech.add_row(list(row))
    pivots = sorted(ech.pivot_rows)
    rest = [c for c in range(nvars, len(rows[0])) if c not in ech.pivot_rows]
    solver = IntegerEchelon(len(pivots) + len(rest))
    for row in rows:
        solver.add_row([row[c] for c in pivots + rest])
    d, x = solver.back_substitute(len(pivots))
    y = [[d if c == p else 0 for c in range(nvars, len(rows[0]))] for p in pivots]
    for j, c in enumerate(rest):
        for i in range(len(pivots)):
            y[i][c - nvars] = x[i][j]
    return pivots, d, y


def window_profile(values, q, n):
    """The windows k < n of length q+1 that are independent of the windows
    before them: each window fed to the integer echelon as a row."""
    echelon, pivots = IntegerEchelon(q + 1), []
    for k in range(n):
        if echelon.add_row(values[k : k + q + 1]) is not None:
            pivots.append(k)
    return pivots


def word_primes_by_search(count):
    """The first count primes below 2^26, largest first, by a fresh
    Miller-Rabin search (bases 2, 7, 61) from 2^26 - 1 down."""
    primes, n = [], (1 << 26) - 1
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


def rref_mod_reference(a, prime):
    """Reduce the int64 array a to reduced row echelon form mod prime, in place,
    one pivot at a time: every pivot eliminates its column from the whole
    remaining block and reduces all of it mod prime.

    Entries stay in [0, prime) with prime < 2^31, so each product is below 2^62.
    Returns the pivot columns; row i of a holds pivot i.
    """
    m, n = a.shape
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        if not a[r, c]:
            nz = a[r:, c].nonzero()[0]
            if not nz.size:
                continue
            k = r + int(nz[0])
            a[[r, k], c:] = a[[k, r], c:]
        w = a[:, c:]
        prow = w[r] * pow(int(w[r, 0]), -1, prime) % prime
        w -= w[:, :1] * prow
        w %= prime
        w[r] = prow
        pivots.append(c)
    return pivots
