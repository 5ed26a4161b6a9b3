"""Exact linear algebra: an integer echelon and a certified modular solve.

`IntegerEchelon` is an incremental fraction-free row echelon of integer rows
(cross-multiplication with gcd-normalized pivot rows), or of rows over GF(p)
when it is given a prime modulus. It takes every rank decision and solve
over GF(p), the EDMD fits, and rational solves of narrow systems. Wider
rational systems are solved by Gauss-Jordan modulo word-size primes in numpy
int64, lifted to Q by CRT and rational reconstruction, and accepted only
after an integer substitution proves the reduced echelon form. No floating
point anywhere, so rank(...) == k is a theorem about the input, not a
tolerance call. Solutions are exact Fractions over the rationals and
residues over GF(p); rationals enter as integers through scale_to_integers,
and identities are checked by annihilates.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

# Rational systems with at least this many columns in [A|b] take the modular solve.
_MODULAR_COLUMNS = 16


class IntegerEchelon:
    """Incremental fraction-free row echelon of an integer matrix.

    With a prime modulus the rows live in GF(p): entries are reduced mod p
    and pivot rows are kept as they are, without gcd or sign normalization.
    """

    def __init__(self, ncols: int, modulus: int | None = None):
        self.ncols = ncols
        self.modulus = modulus
        self.pivot_rows: dict[int, list[int]] = {}

    def add_row(self, row) -> int | None:
        """Reduce a row against current pivots; returns its pivot column or None."""
        p = self.modulus
        row = list(row) if p is None else [a % p for a in row]
        for col in range(self.ncols):
            v = row[col]
            if v == 0:
                continue
            piv = self.pivot_rows.get(col)
            if piv is None:
                if p is None:
                    g = 0
                    for a in row:
                        g = gcd(g, a)
                    if g > 1:
                        row = [a // g for a in row]
                    if row[col] < 0:
                        row = [-a for a in row]
                self.pivot_rows[col] = row
                return col
            pv = piv[col]
            g = gcd(v, pv)
            f_row, f_piv = pv // g, v // g
            # the modulus test stays outside the per-entry loops: this is the
            # hot path of the EDMD fits and the narrow Hankel solves
            if p is None:
                row = [f_row * a - f_piv * b for a, b in zip(row, piv)]
            else:
                row = [(f_row * a - f_piv * b) % p for a, b in zip(row, piv)]
        return None

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def back_substitute(self, nvars: int) -> tuple[int, list[list[int]]]:
        """Solve for the first nvars columns, the rest being right-hand sides.

        Returns (d, x) with x integer: row j of x / d holds variable j's value
        in each right-hand side, free variables pinned to zero. Over GF(p), d
        is 1 and x holds residues. The systems must be consistent: no pivot
        may sit in a right-hand-side column.
        """
        p = self.modulus
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
            if p is None:
                g = gcd(den, *acc)
                dens[col], nums[col] = den // g, [a // g for a in acc]
            else:
                inv = pow(den, -1, p)
                nums[col] = [a * inv % p for a in acc]
        d = lcm(*dens)
        return d, [[a * (d // dj) for a in row] for row, dj in zip(nums, dens)]


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


# The primes _word_primes has reached, largest first: filled only as solves
# need them, and only appended to, under the lock, so no prime is repeated.
_word_prime_list: list[int] = []
_word_prime_lock = threading.Lock()


def _word_primes():
    """Primes below 2^31, largest first: the fixed list the modular solve walks.

    Each prime is searched for once per process; later solves read it from
    _word_prime_list. Miller-Rabin with the bases 2, 7 and 61 is exact below
    4759123141; the trial division of dynamics.is_prime would cost
    milliseconds a candidate.
    """
    primes, k = _word_prime_list, 0
    while True:
        if k == len(primes):
            with _word_prime_lock:
                if k == len(primes):
                    n = primes[-1] - 2 if primes else (1 << 31) - 1
                    while not _is_word_prime(n):
                        n -= 2
                    primes.append(n)
        yield primes[k]
        k += 1


def _is_word_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 61 below 4759123141, with the bases 2, 7, 61."""
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
            return False
    return True


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


def _solve_multimodular(a_rows, b):
    """solve_int_with_ranks over the rationals by Gauss-Jordan mod word-size primes.

    The reduced echelon form E of M = [A|b] is found mod one prime after
    another, merged by CRT and lifted to Q by rational reconstruction. A
    candidate, pivot set P, is accepted only if d * M[:, c] == M[:, P] @ y_c
    over the integers for every non-pivot column c (E[:, c] = y_c / d): every
    other column then lies in the span of the pivot columns before it, and
    those are independent over Q (their rank mod a prime is |P|), so E is the
    reduced echelon form of M over Q, and the ranks and solution are exact.
    A prime whose pivot set is worse (fewer pivots, or lexicographically
    later) is unlucky and skipped; a better one restarts the merge.
    """
    rows = [row + [rhs] for row, rhs in zip(a_rows, b)]
    cols = list(zip(*rows))
    best = None
    for prime in _word_primes():
        a = np.array([[v % prime for v in row] for row in rows], dtype=np.int64)
        pivots = _rref_mod(a, prime)
        pivot_set = set(pivots)
        free = [c for c in range(len(cols)) if c not in pivot_set]
        residues = a[: len(pivots)][:, free].ravel().tolist()
        if best is None or (-len(pivots), pivots) < (-len(best), best):
            best, merged, modulus = pivots, residues, prime
        elif pivots == best:
            step = pow(modulus, -1, prime)
            merged = [x + modulus * ((r - x) * step % prime) for x, r in zip(merged, residues)]
            modulus *= prime
        else:
            continue
        candidate = _reconstruct(merged, modulus)
        if candidate is None:
            continue
        d, nums = candidate
        k = len(free)
        if all(_spans(cols, pivots, d, cols[c], nums[j::k]) for j, c in enumerate(free)):
            break
    rank_aug, b_col = len(pivots), len(cols) - 1
    if pivots[-1:] == [b_col]:
        return None, rank_aug - 1, rank_aug
    x = [Fraction(0)] * b_col
    for p, v in zip(pivots, nums[k - 1 :: k]):
        x[p] = Fraction(v, d)
    return x, rank_aug, rank_aug


def _spans(cols, pivots, d, col, y) -> bool:
    """Whether d * col == sum_i y_i * cols[pivots[i]] over the integers."""
    acc = [d * v for v in col]
    for p, coef in zip(pivots, y):
        if coef:
            acc = [a - coef * v for a, v in zip(acc, cols[p])]
    return not any(acc)


def solve_int_with_ranks(a_rows, b, modulus: int | None = None):
    """Solve the integer system A x = b exactly, over the rationals or GF(modulus).

    Returns (solution | None, rank(A), rank(A|b)), the ranks exact. The
    solution is a particular one with free variables pinned to zero:
    Fractions over the rationals, residues in [0, modulus) over GF(modulus).
    Over GF(modulus), and over the rationals when [A|b] has fewer than
    _MODULAR_COLUMNS columns, the integer echelon solves it. Wider rational
    systems take the certified modular solve: its numpy calls cost about
    15 us a pivot, which the integer echelon's row growth overtakes near 16
    columns (leading Hankel blocks, 2 cores: 0.30 ms against 0.34 ms at 13
    columns, even at 16, 1.1 ms against 1.8-2.2 ms at 32 and 8 ms against
    100 ms at 101).
    """
    a_rows = [list(r) for r in a_rows]
    if not a_rows:
        return [], 0, 0
    b_col = len(a_rows[0])
    if modulus is None and b_col + 1 >= _MODULAR_COLUMNS:
        return _solve_multimodular(a_rows, b)
    ech = IntegerEchelon(b_col + 1, modulus)
    for row, rhs in zip(a_rows, b):
        if ech.rank > b_col:
            break  # every column holds a pivot: further rows change nothing
        ech.add_row(row + [rhs])
    rank_aug = ech.rank
    if b_col in ech.pivot_rows:
        return None, rank_aug - 1, rank_aug
    d, x = ech.back_substitute(b_col)
    return [v if modulus else Fraction(v, d) for (v,) in x], rank_aug, rank_aug
