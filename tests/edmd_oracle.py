"""Test-only oracles for the edmd module: the fits on the integer echelon,
the normal-equations fit on dense snapshot matrices, and predictions by
iterating the fitted operator in Fractions.

`echelon_fit` is the library's fit as it was before it became one square
solve: the same Gram sums, under full row rank one last-row solve and
otherwise the projector onto Z's column space (a column basis C of Z,
G_S^-1 C^T and a second solve for the last row), each solve on the
fraction-free integer echelon, and every product in Python integers. The
library fit must equal it exactly: den, rows, residual_sq and fit_kind.

The library fits from sliding Gram sums of the data's windows, one solve
of the normal equations on Z's independent rows above Z's left kernel;
`normal_equations_fit` builds Z and Z_plus, forms the dense Gram products
and solves for every row at once. The library decides
A^k z_0 = z_k through one-step integer identities on the data's windows,
and computes the prediction error on integer numerators over powers of A's
common denominator; `prediction_prefix` and `state_errors` compute every
power A^k z_0 itself, in reduced Fractions, and share no step with either.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from echelon_oracle import IntegerEchelon, window_profile
from field_oracle import frobenius_sq, matmul, transpose
from koopman_dh.edmd import EdmdDataset, FittedOperator, _sliding_gram


def echelon_fit(dataset: EdmdDataset) -> FittedOperator:
    """edmd_fit with every solve on the integer echelon, and its column
    basis of Z from window_profile."""
    pivots = window_profile(dataset.values, dataset.q, dataset.n)
    if len(pivots) == dataset.q + 1:
        return _echelon_fit_unique(dataset)
    return _echelon_fit_minimum_norm(dataset, pivots)


def _echelon_fit_unique(dataset):
    q = dataset.q
    r = _sliding_gram(dataset.values, q + 2, dataset.n)
    solver = IntegerEchelon(q + 2)
    for row in r[: q + 1]:
        solver.add_row(row)
    scale, x = solver.back_substitute(q + 1)
    a = [num for (num,) in x]
    shift = [tuple([scale if j == i + 1 else 0 for j in range(q + 1)]) for i in range(q)]
    return FittedOperator(
        den=scale,
        rows=(*shift, tuple(a)),
        residual_sq=Fraction(scale * r[q + 1][q + 1] - sum(map(mul, a, r[q + 1])), scale),
        fit_kind="unique",
    )


def _echelon_fit_minimum_norm(dataset, pivots):
    q, v = dataset.q, dataset.values
    dim, rank = q + 1, len(pivots)
    gram = _sliding_gram(v, dataset.n, dim)
    f = [gram[k] for k in pivots]
    c = [[v[k + i] for k in pivots] for i in range(dim)]
    solver = IntegerEchelon(rank + dim)
    for k, row in zip(pivots, f):
        solver.add_row([row[j] for j in pivots] + list(v[k : k + dim]))
    d, x = solver.back_substitute(rank)
    s = v[dim:]
    fs = [sum(map(mul, row, s)) for row in f]
    solver = IntegerEchelon(rank + 1)
    for row, rhs in zip(f, fs):
        solver.add_row([sum(map(mul, row, other)) for other in f] + [rhs])
    e, y = solver.back_substitute(rank)
    y = [num for (num,) in y]
    den = lcm(d, e)
    x_cols = [[den // d * row[l] for row in x] for l in range(dim)]
    lower = [[sum(map(mul, c[i], x_cols[l])) for l in range(i + 1)] for i in range(dim)]
    shift = [tuple(lower[i] + [lower[l][i] for l in range(i + 1, dim)]) for i in range(1, dim)]
    return FittedOperator(
        den=den,
        rows=(*shift, tuple([den // e * sum(map(mul, y, c_row)) for c_row in c])),
        residual_sq=Fraction(e * sum(map(mul, s, s)) - sum(map(mul, y, fs)), e),
        fit_kind="minimum-norm",
    )


def snapshot_matrices(values, q: int, n: int):
    """(Z, Z_plus) as (q+1) x n row lists: column k is values[k..k+q], resp. values[k+1..k+q+1]."""
    z = [list(values[i : i + n]) for i in range(q + 1)]
    z_plus = [list(values[i + 1 : i + 1 + n]) for i in range(q + 1)]
    return z, z_plus


def normal_equations_fit(z, z_plus) -> FittedOperator:
    """Z_plus Z^+ for any snapshot pair, shift-consistent or not.

    C is a column basis of Z: the identity under full row rank, otherwise
    the columns of Z that an echelon of Z's columns takes as pivots. Y
    solves the r x r integer system (C^T Z)(C^T Z)^T Y^T = (C^T Z) Z_plus^T
    for all right-hand sides in one elimination, and A = Y C^T.
    """
    dim = len(z)
    pivots = IntegerEchelon(dim)
    basis = [col for col in transpose(z) if pivots.add_row(col) is not None]
    if len(basis) == dim:
        basis, cz, fit_kind = None, z, "unique"
    else:
        cz, fit_kind = matmul(basis, z), "minimum-norm"
    r = len(cz)
    solver = IntegerEchelon(r + dim)
    for gram_row, rhs_row in zip(matmul(cz, transpose(cz)), matmul(cz, transpose(z_plus))):
        solver.add_row(gram_row + rhs_row)
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
    return FittedOperator(
        den=scale,
        rows=tuple(map(tuple, a_num)),
        residual_sq=frobenius_sq(diff) / (scale * scale),
        fit_kind=fit_kind,
    )


def a_hat(fit: FittedOperator) -> tuple[tuple[Fraction, ...], ...]:
    """The fitted operator A = rows / den, entry by entry as reduced Fractions."""
    return tuple(tuple(Fraction(a, fit.den) for a in row) for row in fit.rows)


def prediction_prefix(a_hat, values, horizon: int) -> int:
    """The largest k <= horizon with A^j z_0 = z_j for every j <= k.

    z_j = (values[j], ..., values[j+q]) and A^j z_0 is iterated in Fractions,
    so predictions hold up to a horizon h exactly when the prefix is >= h.
    """
    dim = len(a_hat)
    z = [Fraction(v) for v in values[:dim]]
    for k in range(1, horizon + 1):
        z = [sum(a * v for a, v in zip(row, z)) for row in a_hat]
        if z != [Fraction(v) for v in values[k : k + dim]]:
            return k - 1
    return horizon


def state_errors(a_hat, values, horizon: int) -> list[Fraction]:
    """|(A^k z_0)_0 - values[k]| for k = 1..horizon, A^k z_0 iterated in Fractions.

    The largest of the first h entries is the maximum state error at horizon h.
    """
    z = [Fraction(v) for v in values[: len(a_hat)]]
    errors = []
    for k in range(1, horizon + 1):
        z = [sum(a * v for a, v in zip(row, z)) for row in a_hat]
        errors.append(abs(z[0] - values[k]))
    return errors
