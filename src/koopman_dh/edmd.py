"""Data-driven identification of the lifted linear operator by least squares.

Snapshot matrices hold lifted states as columns with exact integer entries,
so the Frobenius objective is a rational number and every claim (rank
identities, operator equality, zero residual) is decided exactly. The fit
is one integer solve on the package's elimination engine: with C a column
basis of Z, A = Y C^T where (C^T Z)(C^T Z)^T Y^T = (C^T Z) Z_plus^T. That is
the unique least-squares solution when Z has full row rank and the
minimum-Frobenius-norm one, Z_plus Z^+, otherwise.

Data enters as a raw integer sequence, an orbit as its values. Predictions
A^k z_0 = z_k are checked as one-step integer identities on the data's own
windows. Only the under-parameterized error, whose predictions leave the
data, iterates A: on integer numerators over powers of its common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lifting import CompanionSystem
from .linalg_exact import (
    IntegerEchelon,
    annihilates,
    frobenius_sq,
    matmul,
    rank_int,
    scale_to_integers,
    transpose,
)
from .serialize import frac_json, frac_matrix_json


@dataclass(frozen=True)
class EdmdDataset:
    """Shift-consistent snapshot pair: column k of z_plus lifts step k+1.

    z and z_plus are (q+1) x n matrices stored as row tuples; entries are
    exact integers taken from the source sequence.
    """

    q: int
    n: int
    z: tuple[tuple[int, ...], ...]
    z_plus: tuple[tuple[int, ...], ...]
    rank_z: int


def dataset_from_values(values, q: int, n: int) -> EdmdDataset:
    """Build snapshot matrices from a raw integer sequence.

    Column k of Z is the window (values[k], ..., values[k+q]); Z_plus shifts
    every window one step. Needs n+q+1 values.
    """
    if q < 0:
        raise ValueError(f"dictionary order must be nonnegative, got {q}")
    if n < 1:
        raise ValueError(f"need at least one snapshot pair, got n={n}")
    if len(values) < n + q + 1:
        raise ValueError(
            f"insufficient data: {len(values)} values cannot form {n} pairs at order {q}"
        )
    cols = [tuple(values[k : k + q + 1]) for k in range(n + 1)]
    z = tuple(zip(*cols[:n]))
    z_plus = tuple(zip(*cols[1 : n + 1]))
    return EdmdDataset(q=q, n=n, z=z, z_plus=z_plus, rank_z=rank_int(z))


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
    """Exact least-squares operator with its squared Frobenius residual.

    residual_sq is the exact squared Frobenius norm of Z_plus - A Z (the
    norm itself is generally irrational; the squared form preserves the
    comparisons that matter: == 0 and > 0).
    """

    a_hat: tuple[tuple[Fraction, ...], ...]
    residual_sq: Fraction
    fit_kind: str

    @property
    def dimension(self) -> int:
        return len(self.a_hat)


def edmd_fit(dataset: EdmdDataset) -> FittedOperator:
    """Exact rational least squares for Z_plus ~ A Z, of minimum Frobenius norm.

    C is a column basis of Z: the identity under full row rank, otherwise
    the columns of Z that an echelon of Z's columns takes as pivots. Y
    solves the r x r integer system (C^T Z)(C^T Z)^T Y^T = (C^T Z) Z_plus^T
    for all right-hand sides in one elimination, and A = Y C^T. The rows of
    A lie in the column space of Z and, C^T C being invertible, A satisfies
    the normal equations, so A is Z_plus Z^+; under full row rank that is
    the unique solution Z_plus Z^T (Z Z^T)^-1.
    """
    if dataset.n < 1:
        raise ValueError("empty dataset")
    dim = dataset.q + 1
    z = [list(r) for r in dataset.z]
    z_plus = [list(r) for r in dataset.z_plus]
    if dataset.rank_z == dim:
        basis, cz = None, z
        fit_kind = "unique"
    else:
        pivots = IntegerEchelon(dim)
        basis = [col for col in transpose(z) if pivots.add_row(col) is not None]
        cz = matmul(basis, z)
        fit_kind = "minimum-norm"
    r = len(cz)
    solver = IntegerEchelon(r + dim)
    for gram_row, rhs_row in zip(matmul(cz, transpose(cz)), matmul(cz, transpose(z_plus))):
        solver.add_row(gram_row + rhs_row)
    # Y^T = y_t / scale: A and its residual are built in integers
    scale, y_t = solver.back_substitute(r)
    if basis is None:
        a_num = transpose(y_t)
    else:
        a_num = [
            [sum(y[i] * c[j] for y, c in zip(y_t, basis)) for j in range(dim)]
            for i in range(dim)
        ]
    diff = [
        [scale * zp - az for zp, az in zip(zp_row, az_row)]
        for zp_row, az_row in zip(z_plus, matmul(a_num, z))
    ]
    # rows from lists, not generators: see the free-list note in lifting.hankel_system
    return FittedOperator(
        a_hat=tuple(tuple([Fraction(v, scale) for v in row]) for row in a_num),
        residual_sq=frobenius_sq(diff) / (scale * scale),
        fit_kind=fit_kind,
    )


@dataclass(frozen=True)
class OperatorComparison:
    """Exact comparison of a fitted operator against an analytic companion system."""

    entrywise_equal: bool
    prediction_equivalent: bool


def compare_on_values(
    fitted: FittedOperator,
    analytic: CompanionSystem,
    values,
    horizon: int,
) -> OperatorComparison:
    """Entrywise equality, and exact predictions A^k z_0 = z_k for k <= horizon.

    z_k = (values[k], ..., values[k+q]). The predictions hold exactly when
    A z_k = z_{k+1} for every k < horizon (induction), so each row A_i = N_i / d_i
    is checked as the integer identity N_i z_k = d_i z_{k+1,i} on all windows.
    """
    if fitted.dimension != analytic.dimension:
        raise ValueError(
            f"dimension mismatch: fitted {fitted.dimension}, analytic {analytic.dimension}"
        )
    q = analytic.q
    if len(values) < horizon + q + 1:
        raise ValueError(
            f"insufficient data: {len(values)} values cannot reach step {horizon} at order {q}"
        )
    data = values[: horizon + q + 1]
    prediction = True
    for i, row in enumerate(fitted.a_hat):
        den, coeffs = scale_to_integers((*row, 0))
        coeffs[i + 1] -= den
        prediction = annihilates(coeffs, data)
        if not prediction:
            break
    # the companion matrix is the shift above the row alpha
    shift = all(row.count(0) == q and row[i + 1] == 1 for i, row in enumerate(fitted.a_hat[:q]))
    entrywise = shift and list(fitted.a_hat[q]) == list(analytic.alpha)
    return OperatorComparison(entrywise_equal=entrywise, prediction_equivalent=prediction)


def max_state_error(fitted: FittedOperator, values, horizon: int) -> Fraction:
    """Largest |(A^k z_0)_0 - values[k]| over steps k = 1..horizon, z_0 = values[:q+1].

    A = N / d over the lcm d of its denominators, so A^k z_0 = w_k / d^k with
    w_0 = z_0 and w_{k+1} = N w_k, all in integers, and the error at step k is
    |w_k[0] - d^k values[k]| / d^k. Zero entries of N are skipped: a fit whose
    first q rows are the shift costs about 2q products a step.
    """
    dim = fitted.dimension
    if len(values) <= max(horizon, dim - 1):
        raise ValueError(
            f"insufficient data: {len(values)} values cannot reach step {horizon} "
            f"at order {dim - 1}"
        )
    d, flat = scale_to_integers([a for row in fitted.a_hat for a in row])
    rows = [
        [(j, c) for j, c in enumerate(flat[i : i + dim]) if c] for i in range(0, dim * dim, dim)
    ]
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
