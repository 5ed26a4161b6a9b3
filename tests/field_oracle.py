"""Test-only oracle: textbook Gauss-Jordan over Q or GF(p).

A second route, independent of the package's modular elimination and of
the fraction-free integer echelon in echelon_oracle: dense products,
reduced row echelon form with one division per pivot, the inverse by
reducing [M | I], and the Moore-Penrose pseudo-inverse from the
full-rank factorization A = C F (C the pivot columns of A, F the nonzero
rows of its RREF), pinv(A) = F^T (F F^T)^-1 (C^T C)^-1 C^T. Also
primality by trial division, the reference for the package's Miller-Rabin.
"""

from fractions import Fraction
from math import isqrt


def is_prime_by_trial_division(n: int) -> bool:
    """Whether n is prime, by every trial divisor up to isqrt(n)."""
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def frobenius_sq(mat) -> Fraction:
    """Squared Frobenius norm, exact when entries are exact."""
    return Fraction(sum(v * v for row in mat for v in row))


def rref(mat, p=None):
    """Reduced row echelon form over Q (p None) or GF(p); returns (rows, pivot_cols)."""
    if p is None:
        rows = [[Fraction(v) for v in row] for row in mat]
        inv, red = (lambda v: 1 / v), (lambda v: v)
    else:
        rows = [[v % p for v in row] for row in mat]
        inv, red = (lambda v: pow(v, -1, p)), (lambda v: v % p)
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        best = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        f = inv(rows[r][c])
        rows[r] = [red(a * f) for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                g = rows[i][c]
                rows[i] = [red(a - g * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def solve(a_rows, b, p=None):
    """(solution | None, rank(A), rank(A|b)), free variables zero."""
    nvars = len(a_rows[0])
    rows, pivots = rref([list(row) + [rhs] for row, rhs in zip(a_rows, b)], p)
    if nvars in pivots:
        return None, len(pivots) - 1, len(pivots)
    solution = [Fraction(0) if p is None else 0] * nvars
    for row, col in zip(rows, pivots):
        solution[col] = row[nvars]
    return solution, len(pivots), len(pivots)


def inverse(mat):
    """Exact inverse of a square rational matrix; ValueError when singular."""
    n = len(mat)
    rows, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def pinv(mat):
    """Exact Moore-Penrose pseudo-inverse via full-rank factorization."""
    rows, pivots = rref(mat)
    if not pivots:
        return [[Fraction(0)] * len(mat) for _ in mat[0]]
    f = rows[: len(pivots)]
    c = [[Fraction(row[j]) for j in pivots] for row in mat]
    middle = matmul(inverse(matmul(f, transpose(f))), inverse(matmul(transpose(c), c)))
    return matmul(matmul(transpose(f), middle), transpose(c))
