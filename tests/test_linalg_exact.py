from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_oracle import frobenius_sq, inverse, matmul, pinv, rref, solve, transpose
from koopman_dh.linalg_exact import IntegerEchelon, solve_int_with_ranks

small_int = st.integers(-6, 6)


def small_matrix(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(small_int, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


def test_rank_examples():
    def rank(rows):
        echelon = IntegerEchelon(len(rows[0]))
        for row in rows:
            echelon.add_row(row)
        return echelon.rank

    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 2], [2, 4], [4, 3]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0


def test_solve_consistent():
    sol, ra, raug = solve_int_with_ranks([[1, 2], [3, 4]], [5, 6])
    assert (ra, raug) == (2, 2)
    assert sol == [Fraction(-4), Fraction(9, 2)]


def test_solve_inconsistent_reports_ranks():
    # x + 2y = 4, 2x + 4y = 3 has no solution
    sol, ra, raug = solve_int_with_ranks([[1, 2], [2, 4]], [4, 3])
    assert sol is None
    assert (ra, raug) == (1, 2)


def test_solve_underdetermined_pins_free_vars():
    sol, ra, raug = solve_int_with_ranks([[1, 2, 3]], [6])
    assert ra == raug == 1
    assert sum(c * v for c, v in zip([1, 2, 3], sol)) == 6


@settings(max_examples=80, deadline=None)
@given(small_matrix(), st.data())
def test_int_solve_agrees_with_field_solve(mat, data):
    """Dual route: fraction-free integer echelon vs textbook Gauss-Jordan,
    over the rationals and over a prime field."""
    b = data.draw(st.lists(small_int, min_size=len(mat), max_size=len(mat)))
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    for modulus in (None, p):
        got = solve_int_with_ranks(mat, b, modulus=modulus)
        assert got == solve(mat, b, modulus)
        if got[0] is not None:
            for row, rhs in zip(mat, b):
                residual = sum(c * v for c, v in zip(row, got[0])) - rhs
                assert residual == 0 if modulus is None else residual % modulus == 0


def test_rref_identity_pivot():
    rows, pivots = rref([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert pivots == [0, 1]
    assert rows == [[1, 0], [0, 1]]


def test_inverse_round_trip():
    m = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    assert matmul(m, inverse(m)) == [[int(i == j) for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError):
        inverse([[1, 2], [2, 4]])


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_pinv_moore_penrose_axioms(mat):
    a = [[Fraction(v) for v in row] for row in mat]
    ap = pinv(a)
    apa = matmul(a, matmul(ap, a))
    pap = matmul(ap, matmul(a, ap))
    assert apa == a
    assert pap == ap
    # symmetry of the projectors
    aap = matmul(a, ap)
    assert aap == transpose(aap)
    paa = matmul(ap, a)
    assert paa == transpose(paa)


def test_pinv_inverse_when_square_nonsingular():
    m = [[1, 2], [3, 4]]
    assert pinv(m) == inverse(m)


def test_solve_over_prime_field():
    p = 7
    a = [[2, 3], [1, 4]]
    b = [1, 4]
    sol, ra, raug = solve_int_with_ranks(a, b, modulus=p)
    assert ra == raug == 2
    assert all(0 <= v < p for v in sol)
    for row, rhs in zip(a, b):
        assert sum(c * v for c, v in zip(row, sol)) % p == rhs
    # rows independent over Q become dependent mod 7 (13 = 6 mod 7)
    assert solve_int_with_ranks([[1, 2], [3, 13]], [1, 2], modulus=p)[1:] == (1, 2)
    assert solve_int_with_ranks([[1, 2], [3, 13]], [1, 2])[1:] == (2, 2)


def test_matvec_and_frobenius():
    assert matmul([[1, 2], [3, 4]], [[5], [6]]) == [[17], [39]]
    assert frobenius_sq([[1, 2], [3, 4]]) == 30
    assert frobenius_sq([[Fraction(1, 2)]]) == Fraction(1, 4)
