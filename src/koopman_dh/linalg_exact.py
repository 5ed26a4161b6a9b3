"""Exact linear algebra on one elimination engine.

`IntegerEchelon` is an incremental fraction-free row echelon of integer rows
(cross-multiplication with gcd-normalized pivot rows), or of rows over GF(p)
when it is given a prime modulus. Every rank decision, solvability test and
solve in the package runs through it: no floating point, so rank(...) == k
is a theorem about the input, not a tolerance call. Back-substitution gives
exact Fractions over the rationals and residues over GF(p); rationals enter
as integers through scale_to_integers, and identities are checked by annihilates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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
            # hot path of every Hankel solve
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


def solve_int_with_ranks(a_rows, b, early_abort: bool = False, modulus: int | None = None):
    """Solve the integer system A x = b exactly, over the rationals or GF(modulus).

    Returns (solution | None, rank(A), rank(A|b)). The solution is a
    particular one with free variables pinned to zero: Fractions over the
    rationals, residues in [0, modulus) over GF(modulus). With early_abort the
    elimination stops at the first inconsistency certificate, in which case
    the reported ranks are lower bounds (rank(A) < rank(A|b) still certified).
    """
    a_rows = [list(r) for r in a_rows]
    if not a_rows:
        return [], 0, 0
    b_col = len(a_rows[0])
    ech = IntegerEchelon(b_col + 1, modulus)
    inconsistent = False
    for row, rhs in zip(a_rows, b):
        if ech.add_row(row + [rhs]) == b_col:
            inconsistent = True
            if early_abort:
                break
    rank_aug = ech.rank
    rank_a = rank_aug - (1 if b_col in ech.pivot_rows else 0)
    if inconsistent:
        return None, rank_a, rank_aug
    d, x = ech.back_substitute(b_col)
    return [v if modulus else Fraction(v, d) for (v,) in x], rank_a, rank_aug

