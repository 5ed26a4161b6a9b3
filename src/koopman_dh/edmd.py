"""Data-driven identification of the lifted linear operator by least squares.

Snapshot matrices hold lifted states as columns with exact integer entries,
so the Frobenius objective is a rational number and every claim (rank
identities, operator equality, zero residual) is decided exactly. A dataset
holds the n+q+1 integers whose windows are the columns of Z and Z_plus, so
the pair is shift-consistent by construction and every Gram entry is a
sliding sum of those integers. One reduced echelon form of the windows
gives the snapshot rank and a basis of Z's left kernel, and the fit
Z_plus Z^+ (unique under full row rank, of minimum Frobenius norm
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
from math import gcd
from operator import mul

from .linalg_exact import annihilates, reduced_echelon
from .serialize import frac_json


@dataclass(frozen=True)
class EdmdDataset:
    """n snapshot pairs at order q, windowed from the n+q+1 integers in values.

    Column k of Z is the window values[k..k+q] and column k of Z_plus is window
    k+1, so rows 0..q-1 of Z_plus are rows 1..q of Z by construction. Z and
    Z_plus are never stored: the fit works from sliding sums of the values.
    """

    values: tuple[int, ...]
    q: int
    # rows of Z independent of the rows before them: their count is rank(Z)
    pivot_rows: tuple[int, ...] = field(init=False, repr=False)
    # one integer vector k with k Z = 0 per other row: a basis of Z's left kernel
    kernel: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.q < 0:
            raise ValueError(f"dictionary order must be nonnegative, got {self.q}")
        if self.n < 1:
            raise ValueError(f"need at least one snapshot pair, got n={self.n}")
        # the reduced form y / d of Z^T, whose row k is window k: row c of Z
        # is the sum of y[i][c] / d times row pivots[i], so each other row c
        # gives the kernel vector d e_c - sum_i y[i][c] e_{pivots[i]}
        dim, v = self.q + 1, self.values
        pivots, d, y = reduced_echelon([v[k : k + dim] for k in range(self.n)], 0)
        at = dict(zip(pivots, y))
        kernel = tuple(
            tuple(d if j == c else -at[j][c] if j in at else 0 for j in range(dim))
            for c in range(dim)
            if c not in at
        )
        object.__setattr__(self, "pivot_rows", tuple(pivots))
        object.__setattr__(self, "kernel", kernel)

    @property
    def n(self) -> int:
        return len(self.values) - self.q - 1

    @property
    def rank_z(self) -> int:
        return len(self.pivot_rows)


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


def edmd_fit(dataset: EdmdDataset) -> FittedOperator:
    """Exact least squares for Z_plus ~ A Z: Z_plus Z^+, of minimum Frobenius norm.

    That is the one A with A Z Z^T = Z_plus Z^T and A k = 0 for every k in
    Z's left kernel (Penrose), so A^T solves one square nonsingular system:
    the normal equations on Z's independent rows above one row [k | 0] per
    kernel vector. Without a kernel the fit is unique and rows 0..q-1 are
    the shift, so only the last row is solved.
    """
    q, kernel = dataset.q, dataset.kernel
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
