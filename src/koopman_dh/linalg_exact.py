"""Exact linear algebra: one certified reduced echelon form over Q.

`reduced_echelon` is the one elimination engine: the reduced row echelon
form of an integer matrix [A | B], as its pivot columns, one denominator
and integer numerators for every column of B. `solve_int_with_ranks` is its
one-right-hand-side case. The EDMD fit is one square solve on it, and the
snapshot rank and left kernel come from the reduced form of the windows.
Every system is reduced by Gauss-Jordan modulo word-size primes in numpy
int64, lifted to Q by CRT and rational reconstruction, and accepted only
after an integer substitution proves the form. Window checks and the
substitution run as one numpy int64 product wherever a bound on their
partial sums proves it exact, and in Python integers otherwise. No floating
point anywhere, so rank(...) == k is a theorem about the input, not a
tolerance call. Rationals enter as integers through scale_to_integers, and
identities are checked by annihilates.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

from .dynamics import is_prime

# Sums of integers below this bound in absolute value cannot overflow int64.
_WORD_BOUND = 1 << 62
# Integer products with fewer multiplications than this stay in Python: a
# numpy int64 product costs tens of microseconds before its first one.
_NUMPY_PRODUCTS = 256


def scale_to_integers(values) -> tuple[int, list[int]]:
    """(d, [d * v]) with d the lcm of the denominators of rationals v (ints or Fractions)."""
    den = lcm(*[v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) for v in values]


def annihilates(coeffs, seq, modulus: int | None = None) -> bool:
    """Whether sum_j coeffs_j seq_{k+j} = 0 (mod modulus) for every window k of seq.

    Integer coefficients, oldest first, summed column by column over all windows.
    """
    windows = len(seq) - len(coeffs) + 1
    acc = [0] * windows
    for j, c in enumerate(coeffs):
        if c:
            acc = [a + c * v for a, v in zip(acc, seq[j : j + windows])]
    return not any(acc if modulus is None else [a % modulus for a in acc])


def annihilates_all(rows, seq) -> bool:
    """Whether every integer row of coefficients annihilates seq (see annihilates).

    The rows share one length. One int64 product of seq's sliding windows
    against the rows when _bounded_int64 admits them; otherwise annihilates
    row by row.
    """
    width = len(rows[0])
    if len(seq) < width:
        return True
    pair = None
    if len(rows) * width * len(seq) >= _NUMPY_PRODUCTS:
        pair = _bounded_int64(rows, seq, width)
    if pair is None:
        return all(annihilates(r, seq) for r in rows)
    rows64, seq64 = pair
    return not (np.lib.stride_tricks.sliding_window_view(seq64, width) @ rows64.T).any()


# The primes _word_primes has reached, largest first: filled only as solves
# need them, and only appended to, under the lock, so no prime is repeated.
_word_prime_list: list[int] = []
_word_prime_lock = threading.Lock()


def _word_primes():
    """Primes below 2^31, largest first: the fixed list the modular solve walks.

    Each prime is searched for once per process, by dynamics.is_prime;
    later solves read it from _word_prime_list.
    """
    primes, k = _word_prime_list, 0
    while True:
        if k == len(primes):
            with _word_prime_lock:
                if k == len(primes):
                    n = primes[-1] - 2 if primes else (1 << 31) - 1
                    while not is_prime(n):
                        n -= 2
                    primes.append(n)
        yield primes[k]
        k += 1


def _rref_mod(a, prime: int) -> list[int]:
    """Reduce the int64 array a to reduced row echelon form mod prime, in place.

    Entries stay in [0, prime) with prime < 2^31, so each product is below 2^62.
    Returns the pivot columns; row i of a holds pivot i.
    """
    m, n = a.shape
    pivots: list[int] = []
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


def _bounded_int64(a, b, terms: int):
    """(a, b) as numpy int64 arrays when both fit and max|a| * max|b| * terms
    < 2^62, so a sum of terms products of their entries cannot overflow;
    otherwise None. Callers take this path only for at least _NUMPY_PRODUCTS
    multiplications: below that Python integers are faster."""
    a64, b64 = _int64(a), _int64(b)
    if a64 is None or b64 is None or _absmax(a64) * _absmax(b64) * terms >= _WORD_BOUND:
        return None
    return a64, b64


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
    skipped; a better one restarts the merge. The rank mod a prime is at
    most the rank over Q of every leading block of columns, so pivots
    0..r-1 with r = min(rows, columns) are the profile over Q too; then
    only the non-pivot columns from nvars on need values. Any other pivot
    set P is accepted only if d * M[:, c] == M[:, P] @ y_c over the
    integers for every non-pivot column c: every such column then lies in
    the span of the pivot columns before it, and those are independent over
    Q (their rank mod a prime is |P|). The values from nvars on pass the
    same substitution.
    """
    if not rows or not rows[0]:
        return [], 1, []
    m, ncols = len(rows), len(rows[0])
    m64 = _int64(rows)
    best = None
    for prime in _word_primes():
        if m64 is not None:
            a = m64 % prime
        else:
            a = np.array([[v % prime for v in row] for row in rows], dtype=np.int64)
        pivots = _rref_mod(a, prime)
        if best is None or (-len(pivots), pivots) < (-len(best), best):
            best = pivots
            forced = pivots == list(range(min(m, ncols)))
            pivot_set = set(pivots)
            free = [c for c in range(nvars if forced else 0, ncols) if c not in pivot_set]
            if not free:  # every column is a pivot, or forced ones take all from nvars on
                d, y = 1, [[] for _ in pivots]
                break
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
        if _spans(rows, m64, pivots, free, d, y):
            break
    # y / d holds the free columns; a pivot column is the unit column of its row
    at = {c: j for j, c in enumerate(free)}
    y = [
        [row[at[c]] if c in at else d if c == p else 0 for c in range(nvars, ncols)]
        for p, row in zip(pivots, y)
    ]
    g = gcd(d, *[v for row in y for v in row])
    return pivots, d // g, [[v // g for v in row] for row in y]


def _spans(rows, m64, pivots, free, d, y) -> bool:
    """Whether d * M[:, free] == M[:, pivots] @ y over the integers, M = rows.

    m64 is M in int64, or None. One int64 product when max|M| * max(|y|, d)
    * (|pivots| + 1) < 2^62 bounds every partial sum and the Python loop,
    which skips zeros of y, would take at least _NUMPY_PRODUCTS
    multiplications; otherwise column by column in Python integers.
    """
    flat = [v for row in y for v in row]
    if m64 is not None and len(rows) * (len(flat) - flat.count(0)) >= _NUMPY_PRODUCTS:
        y_max = max(map(abs, flat), default=0)
        if _absmax(m64) * max(y_max, d) * (len(pivots) + 1) < _WORD_BOUND:
            y64 = np.array(y, dtype=np.int64).reshape(len(pivots), len(free))
            return np.array_equal(d * m64[:, free], m64[:, pivots] @ y64)
    cols = list(zip(*rows))
    for j, c in enumerate(free):
        acc = [d * v for v in cols[c]]
        for p, row in zip(pivots, y):
            if row[j]:
                acc = [a - row[j] * v for a, v in zip(acc, cols[p])]
        if any(acc):
            return False
    return True


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
