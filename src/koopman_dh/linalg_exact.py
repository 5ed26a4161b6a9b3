"""Exact linear algebra: one certified reduced echelon form over Q, and one
integer relation check.

`reduced_echelon` is the one elimination engine: the reduced row echelon
form of an integer matrix [A | B], as its pivot columns, one denominator
and integer numerators for every column of B. `solve_int_with_ranks` is its
one-right-hand-side case. The EDMD fit is one square solve on it, and the
snapshot rank and left kernel come from the reduced form of the windows.
Every system is reduced by Gauss-Jordan modulo primes below 2^26 in numpy
int64, lifted to Q by CRT and rational reconstruction, and accepted only
after an integer substitution proves the form. A product of two residues
is below 2^52, so the elimination sums up to 2^10 of them inside int64
before it reduces: once per column panel, not once per pivot, and the
columns after a panel take one int64 product of at most that many terms.
That substitution and, by annihilates, its window form, every recurrence
identity (the closing row, the Berlekamp-Massey registers, the EDMD
predictions) are one check, _relations_vanish: one numpy int64 product
wherever a bound on its partial sums proves it exact, Python integers
otherwise. No floating point anywhere, so rank(...) == k is a theorem
about the input, not a tolerance call. Rationals enter as integers through
scale_to_integers.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dynamics import is_prime

# Sums of integers below this bound in absolute value cannot overflow int64.
_WORD_BOUND = 1 << 62
# Relation checks whose Python loop costs fewer multiplications than this,
# each pass over a column counting _PASS_PRODUCTS more, stay in Python: a
# numpy int64 product costs tens of microseconds before its first one.
_NUMPY_PRODUCTS = 512
_PASS_PRODUCTS = 24


def scale_to_integers(values) -> tuple[int, list[int]]:
    """(d, [d * v]) with d the lcm of the denominators of rationals v (ints or Fractions)."""
    den = lcm(*[v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) for v in values]


def annihilates(rows, seq, modulus: int | None = None) -> bool:
    """Whether sum_j row_j seq_{k+j} = 0 (mod modulus) for every integer row and window k of seq.

    Coefficients oldest first; the rows share one length, the window width.
    """
    width = len(rows[0])
    windows = max(len(seq) - width + 1, 0)

    def window_matrix():  # row k is window k: a strided view of seq
        seq64 = _int64(seq)
        return seq64 if seq64 is None else as_strided(seq64, (windows, width), seq64.strides * 2)

    return _relations_vanish(
        rows, range(width), lambda j: seq[j : j + windows], windows, window_matrix, modulus
    )


def _relations_vanish(rows, support, column, height: int, matrix64, modulus=None, d=0, own=()):
    """Whether sum_i rows[j][i] M[:, support[i]] == d M[:, own[j]] (mod modulus)
    over the integers for every row j; own holds one column per row, none when d = 0.

    M has height rows; column(c) is its column c as a Python sequence, and
    matrix64() is M in numpy int64, or None when an entry does not fit. One
    int64 product of the columns read, own and the k of support that some row
    reads, when max|M| on them * max(|rows|, |d|) * (k + 1) < 2^62 bounds every
    partial sum and the Python loop, one pass per nonzero coefficient, would
    cost at least _NUMPY_PRODUCTS; otherwise that loop. A modulus of 2^62 or
    more divides no nonzero sum below 2^62, so the int64 sums are tested as they are.
    """
    passes = sum([len(row) - row.count(0) for row in rows]) + len(own)
    if passes * (height + _PASS_PRODUCTS) >= _NUMPY_PRODUCTS:
        m64, r64 = matrix64(), _int64(rows)
        if m64 is not None and r64 is not None:
            cols, used = support, r64.any(axis=0)  # a column no row reads stays out
            if not used.all():
                cols, r64 = np.asarray(support)[used], r64.compress(used, axis=1)
            # indexing gathers only the columns read (take first copies all of
            # a strided view such as annihilates' windows); numpy's integer
            # matmul wants them in C order
            k, read = len(cols), np.ascontiguousarray(m64[:, [*cols, *own]])
            if _absmax(read) * max(_absmax(r64), abs(d)) * (k + 1) < _WORD_BOUND:
                acc = read[:, :k] @ r64.T
                if d:
                    acc -= d * read[:, k:]
                if modulus is not None and modulus < _WORD_BOUND:
                    acc %= modulus
                return not acc.any()
    for j, row in enumerate(rows):
        acc = [-d * x for x in column(own[j])] if d else None
        for c, v in zip(support, row):
            if v:
                col = column(c)
                acc = [v * x for x in col] if acc is None else [a + v * x for a, x in zip(acc, col)]
        if acc and any(acc if modulus is None else [a % modulus for a in acc]):
            return False
    return True


# _rref_mod's column panel width: at most 2^10, so that its lazy reduction
# and its product over the rows one panel pivots stay inside int64.
_PANEL = 128


@functools.cache
def _word_prime(k: int) -> int:
    """The k-th prime below 2^26, largest first (2^26 - 5 at k = 0), found once
    per process from the one before it by dynamics.is_prime. The modular solve
    walks k in order, so each call searches past one prime at most."""
    n = _word_prime(k - 1) - 2 if k else (1 << 26) - 1
    while not is_prime(n):
        n -= 2
    return n


def _rref_mod(a, prime: int) -> list[int]:
    """Reduce the int64 array a, entries in [0, prime), to reduced row echelon
    form mod prime, in place. Returns the pivot columns; row i of a holds pivot i.

    Columns go in panels of _PANEL. A pivot reduces only its column and its
    row and subtracts their outer product from the panel, each term below
    prime^2 < 2^52; an entry gathers at most _PANEL <= 2^10 of them before the
    panel is reduced once, so it stays above -2^62. When columns follow the
    panel, identity columns for the rows it can pivot record its row
    operations G, and those columns T get one product T += (G - I) @ T[R],
    R the rows pivoted, whose at most _PANEL terms are each below 2^52.
    """
    m, n = a.shape
    pivots: list[int] = []
    for c0 in range(0, n, _PANEL):
        r0, c1 = len(pivots), min(c0 + _PANEL, n)
        if r0 == m:
            break
        w, rest = c1 - c0, a[:, c1:]
        # identity columns, one per row it can pivot; the last panel feeds no product, so it
        # is reduced in place: every sweep and certify system is one panel, and G slows them
        k = min(w, m - r0) if c1 < n else 0
        if k:
            panel = np.zeros((m, w + k), dtype=np.int64)
            panel[:, :w] = a[:, c0:c1]
            panel[range(r0, r0 + k), range(w, w + k)] = 1
        else:
            panel = a[:, c0:]
        for c in range(w):
            r = len(pivots)
            if r == m:
                break
            col = panel[:, c]
            col %= prime
            if not col[r]:
                nz = col[r:].nonzero()[0]
                if not nz.size:
                    continue
                j = r + int(nz[0])
                # rows r and j trade places in every column but the identity
                # columns of rows not yet pivoted, so G stays relative to the
                # swapped rows, and those columns stay I
                panel[[r, j], c : w + r - r0] = panel[[j, r], c : w + r - r0]
                if k:
                    rest[[r, j]] = rest[[j, r]]
            prow = panel[r, c:] % prime
            prow *= pow(int(col[r]), -1, prime)
            prow %= prime
            panel[:, c:] -= panel[:, c : c + 1] * prow
            panel[r, c:] = prow
            pivots.append(c0 + c)
        panel %= prime
        if k:
            a[:, c0:c1] = panel[:, :w]
            k = len(pivots) - r0
            g = panel[:, w : w + k]  # G's columns for the rows pivoted; G - I is 0 elsewhere
            g[range(r0, r0 + k), range(k)] -= 1
            rest += g @ rest[r0 : r0 + k]
            rest %= prime
    return pivots


def _reconstruct(residues, modulus: int):
    """(d, nums) with nums[i] / d == residues[i] mod modulus, by rational reconstruction.

    Every value must have numerator and denominator at most sqrt(modulus / 2)
    (Wang); one running denominator is carried, so values that share it cost
    one product each. None when some value has no such form.
    """
    bound = isqrt(modulus // 2)
    den, nums = 1, []
    for u in residues:
        v = u * den % modulus
        if v > modulus - v:
            v -= modulus
        if abs(v) <= bound:
            nums.append(v)
            continue
        r0, r1, t0, t1 = modulus, v % modulus, 0, 1
        while r1 > bound:
            qt = r0 // r1
            r0, r1, t0, t1 = r1, r0 - qt * r1, t1, t0 - qt * t1
        if abs(t1) * den > bound or gcd(r1, t1) != 1:
            return None
        if t1 < 0:
            r1, t1 = -r1, -t1
        den *= t1
        nums = [x * t1 for x in nums]
        nums.append(r1)
    return den, nums


def _int64(rows):
    """rows as a numpy int64 array, or None when an entry does not fit in 64 bits."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return None


def _absmax(a) -> int:
    """max |entry| of an int64 array as a Python int (0 when empty); exact at -2^63."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def reduced_echelon(rows, nvars: int):
    """The reduced row echelon form E of the integer matrix M = rows, exact over Q.

    Returns (pivots, d, y): the pivot columns of E, which are the column
    rank profile of M, and the integers y with E[i, c] = y[i][c - nvars] / d
    for every column c from nvars on, d > 0 the lcm of their reduced
    denominators. A pivot column comes back as the unit column of its row,
    so nvars = 0 returns all of E. Read columns from nvars on as right-hand
    sides: row i of y / d solves the system for pivot variable pivots[i] in
    each of them, free variables at zero, unless that column is a pivot,
    which makes its system inconsistent.

    E is found by Gauss-Jordan mod one word-size prime after another, merged
    by CRT and lifted to Q by rational reconstruction. A prime whose pivot
    set is worse (fewer pivots, or lexicographically later) is unlucky and
    skipped; a better one restarts the merge. Every non-pivot column is
    proven by substitution: a pivot set P is accepted only if
    d * M[:, c] == M[:, P] @ y_c over the integers for every non-pivot
    column c. Every such column then lies in the span of the pivot columns
    before it, and those are independent over Q (their rank mod a prime is
    |P|), so P is the profile over Q and the values from nvars on are exact.
    """
    if not rows or not rows[0]:
        return [], 1, []
    m, ncols = len(rows), len(rows[0])
    m64 = _int64(rows)
    best = None
    for prime in map(_word_prime, itertools.count()):
        if m64 is not None:
            a = m64 % prime
        else:
            a = np.array([[v % prime for v in row] for row in rows], dtype=np.int64)
        pivots = _rref_mod(a, prime)
        if best is None or (-len(pivots), pivots) < (-len(best), best):
            best, pivot_set = pivots, set(pivots)
            free = [c for c in range(ncols) if c not in pivot_set]
            merged, modulus = a[: len(pivots)][:, free].ravel().tolist(), prime
            count = attempt = 1
        elif pivots == best:
            residues = a[: len(pivots)][:, free].ravel().tolist()
            step = pow(modulus, -1, prime)
            merged = [x + modulus * ((r - x) * step % prime) for x, r in zip(merged, residues)]
            modulus *= prime
            count += 1
        else:
            continue
        # a failed reconstruction runs Euclid on the whole modulus, which costs
        # more than a prime once many are merged: past 4 primes, it is tried
        # again only when the count has grown by a quarter
        if count < attempt:
            continue
        attempt = count + 1 + count // 4
        candidate = _reconstruct(merged, modulus)
        if candidate is None:
            continue
        d, nums = candidate
        k = len(free)
        y = [nums[i * k : (i + 1) * k] for i in range(len(pivots))]
        # relation j: d M[:, free[j]] == M[:, pivots] @ y[:, j], and y[:, j] is nums[j::k]
        column, relations = lambda c: [row[c] for row in rows], [nums[j::k] for j in range(k)]
        if _relations_vanish(relations, pivots, column, m, lambda: m64, None, d, free):
            break
    # y / d holds the free columns; a pivot column is the unit column of its row
    at = {c: j for j, c in enumerate(free)}
    y = [
        [row[at[c]] if c in at else d if c == p else 0 for c in range(nvars, ncols)]
        for p, row in zip(pivots, y)
    ]
    g = gcd(d, *[v for row in y for v in row])
    return pivots, d // g, [[v // g for v in row] for row in y]


def solve_int_with_ranks(a_rows, b):
    """Solve the integer system A x = b exactly over the rationals.

    Returns (solution | None, rank(A), rank(A|b)), the ranks exact. The
    solution is a particular one in Fractions, free variables pinned to
    zero: the one-right-hand-side case of reduced_echelon.
    """
    a_rows = [list(r) for r in a_rows]
    if not a_rows:
        return [], 0, 0
    b_col = len(a_rows[0])
    pivots, d, y = reduced_echelon([row + [rhs] for row, rhs in zip(a_rows, b)], b_col)
    rank_aug = len(pivots)
    if pivots and pivots[-1] == b_col:  # b is a pivot column: no solution
        return None, rank_aug - 1, rank_aug
    x = [Fraction(0)] * b_col
    for p, (v,) in zip(pivots, y):
        x[p] = Fraction(v, d)
    return x, rank_aug, rank_aug
