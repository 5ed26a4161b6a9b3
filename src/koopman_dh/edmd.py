"""Data-driven identification of the lifted linear operator by least squares.

Snapshot matrices hold lifted states as columns with exact integer entries,
so the Frobenius objective is a rational number and every claim (rank
identities, operator equality, zero residual) is decided exactly. A dataset
holds the n+q+1 integers whose windows are the columns of Z and Z_plus, so
the pair is shift-consistent by construction and every Gram entry is a
sliding sum of those integers. The fit Z_plus Z^+ (unique under full row
rank, of minimum Frobenius norm otherwise) is the shift above one last-row
solve, or rows 1..q of the projector onto Z's column space above one. Every
solve, and the snapshot rank, is the certified reduced echelon form of
linalg_exact.reduced_echelon (word-size modular arithmetic, proven over the
integers); the Gram and projector products are int_dot's.

A fitted operator is integer numerators over one positive denominator, in
lowest terms, from the fit through every check; Fractions are built only
for its JSON form. Data enters as a raw integer sequence, an orbit as its
values. Predictions A^k z_0 = z_k are checked as one-step integer identities
on each distinct window of the data, every row but the shift rows in one
window product, against the closing row alpha for entrywise equality. Only
the under-parameterized error, whose predictions leave the data, iterates
A: on its numerators over powers of its denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .linalg_exact import annihilates_all, int_dot, reduced_echelon
from .serialize import frac_json, frac_matrix_json


@dataclass(frozen=True)
class EdmdDataset:
    """n snapshot pairs at order q, windowed from the n+q+1 integers in values.

    Column k of Z is the window values[k..k+q] and column k of Z_plus is window
    k+1, so rows 0..q-1 of Z_plus are rows 1..q of Z by construction. Z and
    Z_plus are never stored: the fit works from sliding sums of the values.
    """

    values: tuple[int, ...]
    q: int
    # windows k < n independent of the windows before them: a column basis of Z
    pivot_windows: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.q < 0:
            raise ValueError(f"dictionary order must be nonnegative, got {self.q}")
        if self.n < 1:
            raise ValueError(f"need at least one snapshot pair, got n={self.n}")
        # the column rank profile of Z, whose row i is values[i..i+n-1]
        n, v = self.n, self.values
        pivots = reduced_echelon([v[i : i + n] for i in range(self.q + 1)], n)[0]
        object.__setattr__(self, "pivot_windows", tuple(pivots))

    @property
    def n(self) -> int:
        return len(self.values) - self.q - 1

    @property
    def rank_z(self) -> int:
        return len(self.pivot_windows)


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

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @property
    def a_hat(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(a, self.den) for a in row) for row in self.rows)


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


def _fit_unique(dataset: EdmdDataset) -> FittedOperator:
    # R holds the Gram sums of Z's rows and, last, Z_plus's last row s; rows
    # 0..q-1 of the fit are the shift, and its last row a solves
    # R[:q+1][:q+1] a = R[:q+1][q+1], which is row i of R read as [lhs | rhs]
    q = dataset.q
    r = _sliding_gram(dataset.values, q + 2, dataset.n)
    # scale is the lcm of the reduced denominators of a: the rows are in lowest terms
    _, scale, x = reduced_echelon(r[: q + 1], q + 1)
    a = [num for (num,) in x]
    shift = [tuple([scale if j == i + 1 else 0 for j in range(q + 1)]) for i in range(q)]
    return FittedOperator(
        den=scale,
        rows=(*shift, tuple(a)),
        residual_sq=Fraction(scale * r[q + 1][q + 1] - sum(map(mul, a, r[q + 1])), scale),
        fit_kind="unique",
    )


def _fit_minimum_norm(dataset: EdmdDataset) -> FittedOperator:
    # C: the pivot windows, F = C^T Z their rows of the window Gram. Rows
    # 0..q-1 of Z_plus Z^+ are rows 1..q of the projector C G_S^-1 C^T onto
    # Z's column space (G_S = C^T C), with zero residual; the last row is
    # y C^T where F F^T y^T = F s^T, s the last row of Z_plus. The projector
    # rows are over d, the last row over e: both go over lcm(d, e)
    q, v, pivots = dataset.q, dataset.values, dataset.pivot_windows
    dim, rank = q + 1, len(pivots)
    gram = _sliding_gram(v, dataset.n, dim)
    f = [gram[k] for k in pivots]
    c = [[v[k + i] for k in pivots] for i in range(dim)]
    _, d, x = reduced_echelon(
        [[row[j] for j in pivots] + list(v[k : k + dim]) for k, row in zip(pivots, f)], rank
    )
    s = v[dim:]
    fs = [sum(map(mul, row, s)) for row in f]
    _, e, y = reduced_echelon([g + [b] for g, b in zip(int_dot(f, f), fs)], rank)
    y = [num for (num,) in y]
    den = lcm(d, e)
    projector = int_dot(c[1:], [[row[l] for row in x] for l in range(dim)])
    last = int_dot([y], c)[0]
    return FittedOperator(
        den=den,
        rows=(
            *[tuple([den // d * a for a in row]) for row in projector],
            tuple([den // e * a for a in last]),
        ),
        residual_sq=Fraction(e * sum(map(mul, s, s)) - sum(map(mul, y, fs)), e),
        fit_kind="minimum-norm",
    )


def edmd_fit(dataset: EdmdDataset) -> FittedOperator:
    """Exact least squares for Z_plus ~ A Z: Z_plus Z^+, of minimum Frobenius norm.

    Under full row rank that is the unique fit, the shift above one last-row
    solve; otherwise rows 0..q-1 come from the projector onto Z's column space.
    """
    if dataset.rank_z == dataset.q + 1:
        return _fit_unique(dataset)
    return _fit_minimum_norm(dataset)


@dataclass(frozen=True)
class OperatorComparison:
    """Exact comparison of a fitted operator against an analytic companion system."""

    entrywise_equal: bool
    prediction_equivalent: bool


def _smallest_period(seq) -> int:
    """Smallest P >= 1 with seq[k] == seq[k+P] wherever both exist (prefix function)."""
    border = [0] * len(seq)
    for i in range(1, len(seq)):
        b = border[i - 1]
        while b and seq[i] != seq[b]:
            b = border[b - 1]
        border[i] = b + (seq[i] == seq[b])
    return len(seq) - (border[-1] if seq else 0)


def compare_on_values(fitted: FittedOperator, alpha, values, horizon: int) -> OperatorComparison:
    """Entrywise equality with the companion matrix of closing row alpha, and
    exact predictions A^k z_0 = z_k for k <= horizon.

    z_k = (values[k], ..., values[k+q]). The predictions hold exactly when
    A z_k = z_{k+1} for every k < horizon (induction), so each row A_i = N_i / d
    is checked as the integer identity N_i z_k = d z_{k+1,i} on every
    distinct window: those before the smallest period of the checked values.
    """
    if fitted.dimension != len(alpha):
        raise ValueError(f"dimension mismatch: fitted {fitted.dimension}, analytic {len(alpha)}")
    q, den = len(alpha) - 1, fitted.den
    if len(values) < horizon + q + 1:
        raise ValueError(
            f"insufficient data: {len(values)} values cannot reach step {horizon} at order {q}"
        )
    data = values[: horizon + q + 1]
    # window k repeats window k - P, P the smallest period: the first P windows are all
    data = data[: min(horizon, _smallest_period(data)) + q + 1]
    # a shift row, den at column i+1 and 0 elsewhere, holds on windows of one sequence
    shift = [row[i + 1] == den and row.count(0) == q for i, row in enumerate(fitted.rows[:q])]
    checked = []
    for i, row in enumerate(fitted.rows):
        if i == q or not shift[i]:
            checked.append([*row, 0])
            checked[-1][i + 1] -= den
    prediction = annihilates_all(checked, data)
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
    dim = fitted.dimension
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
    """Lossless JSON form of a fitted operator (rationals as num/den strings)."""
    return {
        "matrix": frac_matrix_json(fitted.a_hat),
        "residual_sq": frac_json(fitted.residual_sq),
        "fit_kind": fitted.fit_kind,
        "dimension": fitted.dimension,
    }
