import os
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echelon_oracle import echelon_solve, word_primes_by_search
from field_oracle import frobenius_sq, inverse, matmul, pinv, rref, solve, transpose
from koopman_dh import linalg_exact
from koopman_dh.dynamics import is_prime
from koopman_dh.linalg_exact import (
    IntegerEchelon,
    _MODULAR_COLUMNS,
    _solve_multimodular,
    _word_primes,
    solve_int_with_ranks,
)

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


def first_primes(count):
    primes = _word_primes()
    return [next(primes) for _ in range(count)]


FIRST_PRIME = first_primes(1)[0]


def primes_used(a_rows, b):
    """The modular solve's answer and how many primes of the list it read."""
    seen = []

    def counting():
        for prime in _word_primes():
            seen.append(prime)
            yield prime

    with patch.object(linalg_exact, "_word_primes", counting):
        got = _solve_multimodular(a_rows, b)
    return got, len(seen)


@st.composite
def rational_systems(draw):
    """A x = b with 1-6 rows and 1-6 unknowns (square, tall or wide).

    Entries are small (so singular and inconsistent systems are common) or,
    in half the draws, mixed with entries up to 2^80, whose solutions need
    denominators of several primes. Up to two extra rows are integer
    combinations of the others, their right-hand side kept or moved by 1.
    """
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = small_int
    if draw(st.booleans()):
        entry = st.one_of(small_int, st.integers(-(2**80), 2**80))
    rows = draw(st.lists(st.lists(entry, min_size=n + 1, max_size=n + 1), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        coefs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        row = [sum(c * r[j] for c, r in zip(coefs, rows)) for j in range(n + 1)]
        row[-1] += draw(st.sampled_from([0, 1]))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return [r[:-1] for r in rows], [r[-1] for r in rows]


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_modular_solve_matches_integer_echelon(system):
    """The certified modular solve returns exactly the integer echelon's answer."""
    a_rows, b = system
    assert _solve_multimodular(a_rows, b) == echelon_solve(a_rows, b)


def test_word_primes_are_the_primes_below_2_31():
    primes = first_primes(6)
    assert primes == sorted(primes, reverse=True) and primes[0] == 2**31 - 1
    assert all(is_prime(v) for v in primes)
    assert not any(is_prime(v) for v in range(primes[-1] + 1, primes[0]) if v not in primes)


def test_word_primes_walk_the_searched_sequence():
    expected = word_primes_by_search(20)
    assert first_primes(20) == expected
    assert linalg_exact._word_prime_list[:20] == expected
    assert all(is_prime(v) for v in expected)
    # two walks at once read the same list, and a walk searches only past its end
    a, b = _word_primes(), _word_primes()
    assert [(next(a), next(b)) for _ in range(22)] == [(v, v) for v in first_primes(22)]
    with patch.object(linalg_exact, "_is_word_prime", side_effect=AssertionError):
        assert list(islice(_word_primes(), 22)) == first_primes(22)


def test_concurrent_walks_share_one_list():
    """Walks in many threads from an empty list each see the searched sequence,
    and the list holds every prime once."""
    expected = word_primes_by_search(40)
    seen, threads = [], []
    barrier = threading.Barrier(8, timeout=60)

    def walk():
        barrier.wait()
        seen.append(first_primes(40))

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with patch.object(linalg_exact, "_word_prime_list", []):
            for _ in range(8):
                threads.append(threading.Thread(target=walk))
                threads[-1].start()
            for t in threads:
                t.join(timeout=60)
            assert linalg_exact._word_prime_list == expected
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [expected] * 8


def test_word_primes_are_found_on_demand():
    """Importing finds no prime; a solve finds only the primes it walks."""
    script = """
from fractions import Fraction
from koopman_dh import linalg_exact
assert linalg_exact._word_prime_list == []
assert linalg_exact._solve_multimodular([[3]], [1])[0] == [Fraction(1, 3)]
assert len(linalg_exact._word_prime_list) == 1
big = 2**40 + 1
for _ in range(2):
    assert linalg_exact._solve_multimodular([[big]], [1])[0] == [Fraction(1, big)]
    assert len(linalg_exact._word_prime_list) == 3
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_denominators_beyond_one_prime():
    big = 2**40 + 1  # 1/big needs a modulus above 2 * big^2: three primes
    (got, used) = primes_used([[big]], [1])
    assert got == echelon_solve([[big]], [1]) == ([Fraction(1, big)], 1, 1)
    assert used == 3
    a_rows = [[2**64 + 3, 2**70 - 1], [-(2**66), 5]]
    got, used = primes_used(a_rows, [1, 2**65])
    assert got == echelon_solve(a_rows, [1, 2**65]) and used > 2


@pytest.mark.parametrize(
    "a_rows,b",
    [
        ([[FIRST_PRIME]], [1]),
        ([[FIRST_PRIME, 1], [0, 1]], [1, 1]),
        ([[FIRST_PRIME, 1], [0, 1]], [0, 0]),
        ([[1, 1], [1, FIRST_PRIME + 1]], [2, 3]),
    ],
)
def test_unlucky_first_prime(a_rows, b):
    """Entries that vanish mod the first prime drop the rank there; only the
    integer substitution rejects that prime's answer, and the next is right."""
    got, used = primes_used(a_rows, b)
    assert got == echelon_solve(a_rows, b)
    assert used > 1


def test_unlucky_later_prime_is_skipped():
    """x = 1/l2 for the second prime l2: l2 is unlucky and skipped, and the
    first, third and fourth primes are merged."""
    second = first_primes(2)[1]
    got, used = primes_used([[second]], [1])
    assert got == echelon_solve([[second]], [1]) == ([Fraction(1, second)], 1, 1)
    assert used == 4


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_wide_systems_take_the_modular_path(data):
    """solve_int_with_ranks at and above the crossover width, against the oracle."""
    n = data.draw(st.integers(_MODULAR_COLUMNS - 1, _MODULAR_COLUMNS + 4))
    m = data.draw(st.integers(1, n + 3))
    rows = data.draw(st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=m, max_size=m))
    b = data.draw(st.lists(small_int, min_size=m, max_size=m))
    with patch.object(linalg_exact, "_solve_multimodular", wraps=_solve_multimodular) as spy:
        assert solve_int_with_ranks(rows, b) == echelon_solve(rows, b)
    assert spy.called
