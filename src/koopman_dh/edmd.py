"""Data-driven identification of the lifted linear operator by least squares.

Snapshot matrices hold lifted states as columns with exact integer entries,
so the Frobenius objective is a rational number and every claim (rank
identities, operator equality, zero residual) is decided exactly. A dataset
holds the N = n+q+1 integers whose windows are the columns of Z and Z_plus,
so the pair is shift-consistent by construction and every Gram entry is a
sliding sum of those integers.

Register path. The data's minimal register M (monic, of length L) is sought
by complexity._modular_register on the first min(N, 2(q+1)) values, since a
register longer than q+1 is never used; it never runs the fraction-free
loop. M is accepted only if L <= n and M annihilates all N values over the
integers (linalg_exact.annihilates). Then L is the complexity of the whole
input, 2L <= N and L <= q+1, and rank(Z) = L:

- rank(Z) <= L: the k = q+1-L shifts of M's coefficients are independent
  integer vectors of Z's left kernel;
- rank(Z) >= L: the leading L x L block H_L of Z is nonsingular. If
  H_L c = 0 for some c != 0, j the last nonzero index of c, the first L+j
  values obey the register c of length j < L. Past them a length change
  from j or less gives a length of at least L+1 (Massey 1969,
  "Shift-register synthesis and BCH decoding"), so the complexity of all
  N values could not be L.

So rows 0..L-1 of Z are its pivot rows, and row c >= L is the combination
x^c mod M of them: its kernel vector is d (e_c - (x^c mod M)), d the lcm of
the remainders' denominators, the basis the reduced echelon form gives. The
recurrence gives Z_plus = C Z exactly, C the companion matrix of M padded
to order q, so the fit is Z_plus Z^+ = C P with P = I - T^T (T T^T)^-1 T
the projector onto Z's column space, T the k x (q+1) matrix of M's shifts,
and its residual is exactly 0. With k = 0 the fit is C. When M's
autocorrelation at lags 0..k-1 reads a (1, -1/2, 0, ..., 0), as
(4, -2, 0, ..., 0) for an orbit's (x-1)(x^((p-1)/2) + 1), T T^T is
a/2 tridiag(-1, 2, -1), whose inverse is closed: entry
min(i, j)(k+1-max(i, j)) / (k+1), i and j from 1. T then enters as shifted
adds of its few nonzeros per row, never as a dense product.

Elimination path, for every other input (no register, L > n, a failed
check, or another M with k > 0 for the fit). One reduced echelon form of
the windows gives the snapshot rank and a basis of Z's left kernel, and the
fit Z_plus Z^+ (unique under full row rank, of minimum Frobenius norm
otherwise) is one square solve: the normal equations on Z's independent
rows above that kernel, or the shift above one last-row solve when it is
empty. Both are linalg_exact.reduced_echelon's certified form (word-size
modular arithmetic, proven over the integers).

A fitted operator is integer numerators over one positive denominator, in
lowest terms, from the fit through every check to its JSON form, which
reduces each entry by one gcd. Data enters as a raw integer sequence, an
orbit as its values. Predictions A^k z_0 = z_k are checked as one-step
integer identities on each window up to the horizon (one period holds
every window of an orbit), every row but the shift rows in one
linalg_exact.annihilates call, against the closing row alpha for entrywise
equality. Only the under-parameterized error, whose predictions leave the
data, iterates A: on its numerators over powers of its denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import numpy as np

from .complexity import _modular_register
from .linalg_exact import annihilates, reduced_echelon, scale_to_integers
from .serialize import frac_json


@dataclass(frozen=True)
class EdmdDataset:
    """n snapshot pairs at order q, windowed from the n+q+1 integers in values.

    Column k of Z is the window values[k..k+q] and column k of Z_plus is window
    k+1, so rows 0..q-1 of Z_plus are rows 1..q of Z by construction. Z and
    Z_plus are never stored: the fit works from sliding sums of the values.
    When the data's minimal register M is certified (module docstring), the
    pivot rows are 0..L-1 and the kernel comes from M with no elimination;
    otherwise both come from one reduced echelon form of the windows.
    """

    values: tuple[int, ...]
    q: int
    # rows of Z independent of the rows before them: their count is rank(Z)
    pivot_rows: tuple[int, ...] = field(init=False, repr=False)
    # one integer vector k with k Z = 0 per other row: a basis of Z's left kernel
    kernel: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    # M's primitive integer coefficients, oldest first and the leading one
    # last and positive, when the register path holds; else None
    register: tuple[int, ...] | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.q < 0:
            raise ValueError(f"dictionary order must be nonnegative, got {self.q}")
        if self.n < 1:
            raise ValueError(f"need at least one snapshot pair, got n={self.n}")
        dim, v = self.q + 1, self.values
        m = _certified_register(v, dim, self.n)
        if m is not None:
            pivots, kernel = range(len(m) - 1), _register_kernel(m, dim)
        else:
            # the reduced form y / d of Z^T, whose row k is window k: row c of Z
            # is the sum of y[i][c] / d times row pivots[i], so each other row c
            # gives the kernel vector d e_c - sum_i y[i][c] e_{pivots[i]}
            pivots, d, y = reduced_echelon([v[k : k + dim] for k in range(self.n)], 0)
            at = dict(zip(pivots, y))
            kernel = tuple(
                tuple(d if j == c else -at[j][c] if j in at else 0 for j in range(dim))
                for c in range(dim)
                if c not in at
            )
        object.__setattr__(self, "pivot_rows", tuple(pivots))
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "register", m)

    @property
    def n(self) -> int:
        return len(self.values) - self.q - 1

    @property
    def rank_z(self) -> int:
        return len(self.pivot_rows)


def _certified_register(v, dim: int, n: int) -> tuple[int, ...] | None:
    """The minimal register M of all of v, as EdmdDataset.register, or None.

    The register comes from the first 2 * dim values alone; it must be no
    longer than n and annihilate every value over the integers.
    """
    found = _modular_register(v[: 2 * dim])
    if found is None or found[0] > n:
        return None
    e, nums = scale_to_integers(found[1])
    m = (*[-c for c in reversed(nums)], e)
    return m if annihilates([m], v) else None


def _register_kernel(m, dim: int) -> tuple[tuple[int, ...], ...]:
    """d (e_c - (x^c mod M)) for c = L..dim-1, M = m the monic register of
    length L scaled by its leading coefficient e, d the lcm of the
    remainders' denominators.

    x^(c+1) mod M is x (x^c mod M) less its top coefficient times M, so each
    remainder is integer numerators over a divisor of a power of e.
    """
    length, e, low = len(m) - 1, m[-1], m[:-1]
    r, s = [0] * length, 1  # x^(L-1) mod M = numerators r over s
    if length:
        r[-1] = 1
    remainders = []
    for _ in range(length, dim):
        top = r[-1] if length else 0
        r, s = [e * a - top * b for a, b in zip([0, *r], low)], s * e
        g = gcd(s, *r)
        if g > 1:
            r, s = [a // g for a in r], s // g
        remainders.append((s, r))
    d = lcm(*[den for den, _ in remainders])
    return tuple(
        (*[-(d // den) * a for a in r], *[d if j == c else 0 for j in range(length, dim)])
        for c, (den, r) in enumerate(remainders, length)
    )


def dataset_from_values(values, q: int, n: int) -> EdmdDataset:
    """The dataset of the first n+q+1 values: n windows and their successors."""
    if n < 1:
        raise ValueError(f"need at least one snapshot pair, got n={n}")
    if len(values) < n + q + 1:
        raise ValueError(
            f"insufficient data: {len(values)} values cannot form {n} pairs at order {q}"
        )
    return EdmdDataset(values=tuple(values[: n + q + 1]), q=q)


class RankLawViolation(RuntimeError):
    """Data meets the data-richness condition but not the rank it forces on an orbit."""


def check_assumption(dataset: EdmdDataset, p: int) -> bool:
    """Data-richness condition: n >= (p-1)/2 + 1 snapshots at order q >= (p-1)/2.

    When it holds for an orbit, the snapshot rank is pinned to (p-1)/2 + 1;
    a violation of that consequence raises RankLawViolation.
    """
    q_tilde = (p - 1) // 2
    ok = dataset.n >= q_tilde + 1 and dataset.q >= q_tilde
    if ok and dataset.rank_z != q_tilde + 1:
        raise RankLawViolation(
            f"rank(Z) = {dataset.rank_z} but the data-richness condition forces {q_tilde + 1}"
        )
    return ok


@dataclass(frozen=True)
class FittedOperator:
    """Exact least-squares operator A = rows / den with its squared Frobenius residual.

    rows holds integer numerators over one positive den. They are stored in
    lowest terms, gcd(den, every entry) == 1, so equal operators compare
    equal. residual_sq is the exact squared Frobenius norm of Z_plus - A Z
    (the norm itself is generally irrational; the squared form preserves the
    comparisons that matter: == 0 and > 0).
    """

    den: int
    rows: tuple[tuple[int, ...], ...]
    residual_sq: Fraction
    fit_kind: str

    def __post_init__(self):
        g = gcd(self.den, *[a for row in self.rows for a in row])
        if g != 1:
            object.__setattr__(self, "den", self.den // g)
            object.__setattr__(self, "rows", tuple(tuple(a // g for a in r) for r in self.rows))


def _sliding_gram(v, size: int, length: int) -> list[list[int]]:
    """G[i][l] = sum_{k < length} v[i+k] v[l+k] for i, l < size.

    The first row is summed directly and every other entry steps down its
    diagonal, G[i+1][l+1] = G[i][l] - v[i] v[l] + v[i+length] v[l+length]:
    O(size^2 + size * length) products instead of O(size^2 * length).
    """
    g = [[sum(map(mul, v[:length], v[l : l + length])) for l in range(size)]]
    for i in range(1, size):
        prev, out, enter = g[-1], v[i - 1], v[i - 1 + length]
        g.append(
            [g[l][i] for l in range(i)]
            + [prev[l - 1] - out * v[l - 1] + enter * v[l - 1 + length] for l in range(i, size)]
        )
    return g


def _register_fit(m, q: int) -> FittedOperator | None:
    """C P from the certified register M = m (module docstring), or None when
    M leaves k = q+1-L > 0 shifts whose autocorrelation is not a (1, -1/2, 0, ...).

    With T T^T = a/2 K, K = tridiag(-1, 2, -1) and K^-1 = W / (k+1), P is
    I - 2 T^T W T / (a (k+1)), over 2(k+1) for an orbit (a = 4). W T puts W's
    columns at the offsets of m's nonzeros, T^T (W T) its rows likewise.
    Every partial sum is at most |m|_1^3 (k+1)^2 in absolute value, so the
    numerators are int64 below 2^62 and Python ints past it.
    """
    dim, e = q + 1, m[-1]
    length = len(m) - 1
    k = dim - length
    # row q of C, numerators over e: s_(q+1) = -sum_(i<L) m_i s_(q+1-L+i) / e
    last = [0] * k + [-a for a in m[:-1]]
    if not k:
        shift = [tuple([e if j == i + 1 else 0 for j in range(dim)]) for i in range(q)]
        return FittedOperator(e, (*shift, tuple(last)), Fraction(0), "unique")
    acf = [sum(map(mul, m, m[j:])) for j in range(k)]
    if k > 1 and (2 * acf[1] != -acf[0] or any(acf[2:])):
        return None
    norm = sum(map(abs, m))
    dtype = np.int64 if norm**3 * (k + 1) ** 2 < 1 << 62 else object
    at = np.arange(1, k + 1)
    w = (np.minimum.outer(at, at) * (k + 1 - np.maximum.outer(at, at))).astype(dtype)
    taps = [(i, a) for i, a in enumerate(m) if a]
    wt = np.zeros((k, dim), dtype=dtype)
    for i, a in taps:
        wt[:, i : i + k] += a * w
    # P = (D I - (2 / h) T^T W T) / D, D = a (k+1) / h: h = 2 for an even a
    # leaves an orbit's P over 2(k+1) in lowest terms, so no gcd pass divides it
    h = 2 - acf[0] % 2
    den = acf[0] * (k + 1) // h
    p = np.zeros((dim, dim), dtype=dtype)
    for i, a in taps:
        p[i : i + k] -= 2 // h * a * wt
    p[range(dim), range(dim)] += den
    rows = np.empty_like(p)
    rows[:q] = e * p[1:]
    rows[q] = sum(a * p[j] for j, a in enumerate(last) if a)
    return FittedOperator(e * den, tuple(map(tuple, rows.tolist())), Fraction(0), "minimum-norm")


def edmd_fit(dataset: EdmdDataset) -> FittedOperator:
    """Exact least squares for Z_plus ~ A Z: Z_plus Z^+, of minimum Frobenius norm.

    On the register path it is C P in closed form (module docstring): C
    itself when Z has full row rank, else C times the projector onto Z's
    column space, wherever M's shifts have the tridiagonal Gram. Otherwise
    it is the one A with A Z Z^T = Z_plus Z^T and A k = 0 for every k in
    Z's left kernel (Penrose), so A^T solves one square nonsingular system:
    the normal equations on Z's independent rows above one row [k | 0] per
    kernel vector. Without a kernel the fit is unique and rows 0..q-1 are
    the shift, so only the last row is solved.
    """
    q, kernel = dataset.q, dataset.kernel
    if dataset.register is not None:
        fitted = _register_fit(dataset.register, q)
        if fitted is not None:
            return fitted
    # g = W W^T, W being Z above s, the last row of Z_plus: row i of
    # [Z Z^T | Z Z_plus^T] is g[i][:q+1] + g[i][1:]. Row j of A takes the
    # right-hand side column j + 1, so columns first.. solve rows first-1..q
    g = _sliding_gram(dataset.values, q + 2, dataset.n)
    first = 1 if kernel else q + 1
    _, den, y = reduced_echelon(
        [g[i][: q + 1] + g[i][first:] for i in dataset.pivot_rows]
        + [[*k] + [0] * (q + 2 - first) for k in kernel],
        q + 1,
    )
    shift = [tuple([den if j == i + 1 else 0 for j in range(q + 1)]) for i in range(first - 1)]
    rows = (*shift, *zip(*y))
    return FittedOperator(
        den=den,
        rows=rows,
        residual_sq=Fraction(den * g[q + 1][q + 1] - sum(map(mul, rows[q], g[q + 1])), den),
        fit_kind="minimum-norm" if kernel else "unique",
    )


@dataclass(frozen=True)
class OperatorComparison:
    """Exact comparison of a fitted operator against an analytic companion system."""

    entrywise_equal: bool
    prediction_equivalent: bool


def compare_on_values(fitted: FittedOperator, alpha, values, horizon: int) -> OperatorComparison:
    """Entrywise equality with the companion matrix of closing row alpha, and
    exact predictions A^k z_0 = z_k for k <= horizon.

    z_k = (values[k], ..., values[k+q]). The predictions hold exactly when
    A z_k = z_{k+1} for every k < horizon (induction), so each row A_i = N_i / d
    is checked as the integer identity N_i z_k = d z_{k+1,i} on windows
    0..horizon-1; for data of period N, a horizon of N checks every window.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    if len(fitted.rows) != len(alpha):
        raise ValueError(f"dimension mismatch: fitted {len(fitted.rows)}, analytic {len(alpha)}")
    q, den = len(alpha) - 1, fitted.den
    if len(values) < horizon + q + 1:
        raise ValueError(
            f"insufficient data: {len(values)} values cannot reach step {horizon} at order {q}"
        )
    data = values[: horizon + q + 1]
    # a shift row, den at column i+1 and 0 elsewhere, holds on windows of one sequence
    shift = [row[i + 1] == den and row.count(0) == q for i, row in enumerate(fitted.rows[:q])]
    checked = []
    for i, row in enumerate(fitted.rows):
        if i == q or not shift[i]:
            checked.append([*row, 0])
            checked[-1][i + 1] -= den
    prediction = annihilates(checked, data)
    # the companion matrix is the shift above the row alpha
    entrywise = all(shift) and all(a * den == num for a, num in zip(alpha, fitted.rows[q]))
    return OperatorComparison(entrywise_equal=entrywise, prediction_equivalent=prediction)


def max_state_error(fitted: FittedOperator, values, horizon: int) -> Fraction:
    """Largest |(A^k z_0)_0 - values[k]| over steps k = 1..horizon, z_0 = values[:q+1].

    A = N / d, so A^k z_0 = w_k / d^k with w_0 = z_0 and w_{k+1} = N w_k, all
    in integers, and the error at step k is
    |w_k[0] - d^k values[k]| / d^k. Zero entries of N are skipped: a fit whose
    first q rows are the shift costs about 2q products a step.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    dim = len(fitted.rows)
    if len(values) <= max(horizon, dim - 1):
        raise ValueError(
            f"insufficient data: {len(values)} values cannot reach step {horizon} "
            f"at order {dim - 1}"
        )
    d = fitted.den
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in fitted.rows]
    w = list(values[:dim])
    scale = 1
    worst, worst_scale = 0, 1
    for k in range(1, horizon + 1):
        w = [sum(c * w[j] for j, c in row) for row in rows]
        scale *= d
        err = abs(w[0] - scale * values[k])
        if err * worst_scale > worst * scale:
            worst, worst_scale = err, scale
    return Fraction(worst, worst_scale)


def operator_to_json(fitted: FittedOperator) -> dict:
    """Lossless JSON form of a fitted operator (rationals as num/den strings;
    den > 0, so one gcd puts entry a / den in lowest terms, as Fraction does)."""
    den = fitted.den
    return {
        "matrix": [
            [{"num": str(a // g), "den": str(den // g)} for a in row for g in [gcd(a, den)]]
            for row in fitted.rows
        ],
        "residual_sq": frac_json(fitted.residual_sq),
        "fit_kind": fitted.fit_kind,
        "dimension": len(fitted.rows),
    }
