import os
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import count, islice
from math import gcd
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echelon_oracle import (
    echelon_rref,
    echelon_solve,
    rref_mod_reference,
    window_profile,
    word_primes_by_search,
)
from field_oracle import (
    frobenius_sq,
    inverse,
    is_prime_by_trial_division,
    matmul,
    pinv,
    rref,
    solve,
    transpose,
)
from koopman_dh import linalg_exact
from koopman_dh.linalg_exact import (
    _int64,
    _relations_vanish,
    _rref_mod,
    _word_prime,
    annihilates,
    reduced_echelon,
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
        return len(reduced_echelon(rows, len(rows[0]))[0])

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
    """Dual route: the certified modular solve vs textbook Gauss-Jordan over
    the rationals."""
    b = data.draw(st.lists(small_int, min_size=len(mat), max_size=len(mat)))
    got = solve_int_with_ranks(mat, b)
    assert got == solve(mat, b)
    if got[0] is not None:
        for row, rhs in zip(mat, b):
            assert sum(c * v for c, v in zip(row, got[0])) == rhs


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
    """The oracle's GF(p) solve, which the exhaustive register oracle uses."""
    p = 7
    a = [[2, 3], [1, 4]]
    b = [1, 4]
    sol, ra, raug = solve(a, b, p)
    assert ra == raug == 2
    assert all(0 <= v < p for v in sol)
    for row, rhs in zip(a, b):
        assert sum(c * v for c, v in zip(row, sol)) % p == rhs
    # rows independent over Q become dependent mod 7 (13 = 6 mod 7)
    assert solve([[1, 2], [3, 13]], [1, 2], p)[1:] == (1, 2)
    assert solve_int_with_ranks([[1, 2], [3, 13]], [1, 2])[1:] == (2, 2)


def test_matvec_and_frobenius():
    assert matmul([[1, 2], [3, 4]], [[5], [6]]) == [[17], [39]]
    assert frobenius_sq([[1, 2], [3, 4]]) == 30
    assert frobenius_sq([[Fraction(1, 2)]]) == Fraction(1, 4)


def walk():
    """The modular solve's walk over the word primes."""
    return map(_word_prime, count())


def first_primes(n):
    return list(islice(walk(), n))


FIRST_PRIME = first_primes(1)[0]


def primes_used(a_rows, b):
    """The modular solve's answer and how many word primes it read."""
    seen = set()  # a set: finding prime k reads prime k - 1, which the walk read already

    def counting(k):
        seen.add(k)
        return _word_prime(k)

    with patch.object(linalg_exact, "_word_prime", counting):
        got = solve_int_with_ranks(a_rows, b)
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
    assert solve_int_with_ranks(a_rows, b) == echelon_solve(a_rows, b)


def test_word_primes_are_the_primes_below_2_26():
    primes = first_primes(6)
    assert primes == sorted(primes, reverse=True) and primes[0] == 2**26 - 5
    assert all(is_prime_by_trial_division(v) for v in primes)
    assert not any(
        is_prime_by_trial_division(v) for v in range(primes[-1] + 1, 2**26) if v not in primes
    )


def test_word_primes_walk_the_searched_sequence():
    expected = word_primes_by_search(20)
    assert first_primes(20) == expected
    assert all(is_prime_by_trial_division(v) for v in expected)
    # two walks at once read the same cache, and primes found once are not searched again
    a, b = walk(), walk()
    assert [(next(a), next(b)) for _ in range(22)] == [(v, v) for v in first_primes(22)]
    with patch.object(linalg_exact, "is_prime", side_effect=AssertionError):
        assert first_primes(22) == word_primes_by_search(22)


def test_concurrent_walks_share_one_list():
    """Walks in many threads from a cleared cache each see the searched
    sequence, and the cache then holds exactly those primes."""
    expected = word_primes_by_search(40)
    seen, threads = [], []
    barrier = threading.Barrier(8, timeout=60)

    def walk_40():
        barrier.wait()
        seen.append(first_primes(40))

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        _word_prime.cache_clear()
        for _ in range(8):
            threads.append(threading.Thread(target=walk_40))
            threads[-1].start()
        for t in threads:
            t.join(timeout=60)
        assert _word_prime.cache_info().currsize == 40
        with patch.object(linalg_exact, "is_prime", side_effect=AssertionError):
            assert first_primes(40) == expected
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [expected] * 8


def test_word_primes_are_found_on_demand():
    """Importing finds no prime; a solve finds only the primes it walks."""
    script = """
from fractions import Fraction
from koopman_dh import linalg_exact
found = lambda: linalg_exact._word_prime.cache_info().currsize
assert found() == 0
assert linalg_exact.reduced_echelon([[3, 1]], 1) == ([0], 3, [[1]])
assert found() == 1
big = 2**40 + 1
for _ in range(2):
    assert linalg_exact.reduced_echelon([[big, 1]], 1) == ([0], big, [[1]])
    assert found() == 4
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_denominators_beyond_one_prime():
    big = 2**40 + 1  # 1/big needs a modulus above 2 * big^2 > 2^81: four primes
    (got, used) = primes_used([[big]], [1])
    assert got == echelon_solve([[big]], [1]) == ([Fraction(1, big)], 1, 1)
    assert used == 4
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
    """solve_int_with_ranks on 13 to 19 unknowns and 13 to 22 equations,
    against the oracle."""
    n = data.draw(st.integers(13, 19))
    m = data.draw(st.integers(13, n + 3))
    rows = data.draw(st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=m, max_size=m))
    b = data.draw(st.lists(small_int, min_size=m, max_size=m))
    assert solve_int_with_ranks(rows, b) == echelon_solve(rows, b)


def check_rref(rows, nvars):
    """reduced_echelon against the integer echelon, and the answer against
    Gauss-Jordan over Fractions: every column from nvars on, consistent or
    not; returns the answer."""
    want = echelon_rref(rows, nvars)
    assert reduced_echelon(rows, nvars) == want
    pivots, d, y = want
    reduced, field_pivots = rref(rows)
    assert pivots == field_pivots
    assert d > 0 and gcd(d, *[v for row in y for v in row]) == 1
    assert [[Fraction(v, d) for v in row] for row in y] == [
        row[nvars:] for row in reduced[: len(pivots)]
    ]
    return want


@st.composite
def echelon_systems(draw):
    """[A | B] with 1-7 rows, 0-7 unknowns and 1-40 right-hand sides.

    A is square, tall or wide. Entries are small (singular and inconsistent
    systems are common), mixed with entries up to 2^80 (whose solutions need
    several primes and the Python substitution), or near 2^26, where the
    word primes lie, and near 2^31 (whose substitution products straddle the
    int64 bound). Up to two extra rows are integer combinations of the
    others, their right-hand sides kept or moved by 1.
    """
    m, nvars, rhs = draw(st.integers(1, 7)), draw(st.integers(0, 7)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["small", "huge", "word"]))
    entry = {
        "small": small_int,
        "huge": st.one_of(small_int, st.integers(-(2**80), 2**80)),
        "word": st.one_of(
            small_int,
            st.integers(2**24, 2**28).map(lambda v: v * (-1) ** v),
            st.integers(2**29, 2**33).map(lambda v: v * (-1) ** v),
        ),
    }[kind]
    width = nvars + rhs
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        coefs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        row = [sum(c * r[j] for c, r in zip(coefs, rows)) for j in range(width)]
        row[-1] += draw(st.sampled_from([0, 1]))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows, nvars


@settings(max_examples=250, deadline=None)
@given(echelon_systems())
def test_reduced_echelon_matches_integer_echelon(system):
    """Pivots, denominator and numerators of the certified reduced echelon
    form equal the integer echelon's."""
    check_rref(*system)


@st.composite
def residue_matrices(draw):
    """An int64 matrix of residues mod FIRST_PRIME with 1-12 rows and 1-12
    columns: square, tall or wide.

    Entries are 0, 1, p - 1 or any residue. Sparse matrices (most entries 0)
    often hold a zero where a column's pivot goes, so a row from below is
    swapped in; all-zero ones come up too. Up to three rows are combinations
    of others, so the rank falls short, and a few rows under many columns
    are used up mid-panel.
    """
    prime = FIRST_PRIME
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    nonzero = st.one_of(st.sampled_from([1, prime - 1]), st.integers(1, prime - 1))
    zeros = draw(st.sampled_from([0, 1, 3, 8]))  # zeros per nonzero draw
    entry = st.one_of(nonzero, *[st.just(0)] * zeros) if zeros else nonzero
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 3))):
        coef = st.sampled_from([0, 1, 2, prime - 1])
        coefs = draw(st.lists(coef, min_size=len(rows), max_size=len(rows)))
        row = [sum(c * r[j] for c, r in zip(coefs, rows)) % prime for j in range(n)]
        rows.insert(draw(st.integers(0, len(rows))), row)
    return np.array(rows, dtype=np.int64)


def check_rref_mod(a, prime):
    """_rref_mod against the per-pivot reference: the same pivots and the
    same first len(pivots) rows."""
    want, got = a.copy(), a.copy()
    pivots = rref_mod_reference(want, prime)
    assert _rref_mod(got, prime) == pivots
    assert (got[: len(pivots)] == want[: len(pivots)]).all()


@pytest.mark.parametrize("panel", [1, 2, 3, 8, linalg_exact._PANEL])
@settings(max_examples=120, deadline=None)
@given(a=residue_matrices())
def test_panel_kernel_matches_per_pivot_reference(panel, a):
    """The lazy panel kernel reduces exactly as the per-pivot one did, at the
    default panel width and at widths that split every matrix into panels."""
    with patch.object(linalg_exact, "_PANEL", panel):
        check_rref_mod(a, FIRST_PRIME)


@pytest.mark.parametrize("shape", [(140, 300), (300, 140), (200, 200)])
def test_panel_kernel_past_one_default_panel(shape):
    """Wide, tall and square systems with more columns than one default
    panel, sparse and rank-deficient: pivot rows come from below, and the
    columns after the first panel take its product."""
    rng, prime = np.random.default_rng(sum(shape)), FIRST_PRIME
    m, n = shape
    a = np.where(rng.random((m, n)) < 0.05, rng.integers(0, prime, (m, n)), 0)
    a[: m // 3] = (a[m // 3 : 2 * (m // 3)] * 2 + a[-(m // 3) :]) % prime
    a[:, ::7] = prime - 1
    check_rref_mod(a, prime)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(48, 62), st.data())
def test_known_solutions_across_the_int64_bound(size, bits, data):
    """[A | A Y] for a nonsingular A with entries near 2^bits and a small Y:
    max|M| * max(|Y|, d) * (|P| + 1) falls on either side of 2^62, and the
    largest entries pass 2^63, so every substitution path runs."""
    scale = 2**bits
    a = [[int(i == j) * scale + data.draw(small_int) for j in range(size)] for i in range(size)]
    row = st.lists(st.integers(-4, 4), min_size=3, max_size=3)
    y = data.draw(st.lists(row, min_size=size, max_size=size))
    b = matmul(a, y)
    rows = [ra + rb for ra, rb in zip(a, b)]
    pivots, d, got = check_rref(rows, size)
    assert pivots == list(range(size)) and (d, got) == (1, y)


def span_proof(rows, m64, pivots, free, d, scaled, asked=None):
    """reduced_echelon's acceptance proof: d M[:, free[j]] == M[:, pivots] @
    scaled[:, j] for every j, by _relations_vanish. m64 None keeps it in Python;
    asked, when given, collects the columns the Python loop reads."""

    def column(c):
        if asked is not None:
            asked.append(c)
        return [row[c] for row in rows]

    relations = [[row[j] for row in scaled] for j in range(len(free))]
    return _relations_vanish(relations, pivots, column, len(rows), lambda: m64, None, d, free)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 12),
    st.sampled_from([1, 3, 1031]),
    st.integers(-3, 3),
    st.data(),
)
def test_span_proof_agrees_across_the_int64_bound(size, y_bits, d, slack, data):
    """The span proof in int64, where its bound holds, and in Python integers
    agree, on the true reduced echelon form and on one entry of it moved by one.

    M = [A | A Y] with A near 2^bits times the identity: its reduced echelon
    form is [I | Y], which is d Y / d, and bits is chosen so that the bound
    max|M| * max(|d Y|, d) * (|P| + 1) lies within a factor 2^4 of 2^62."""
    bits = max(1, 62 - 2 * y_bits - d.bit_length() - 2 * size.bit_length() + slack)
    a = [[int(i == j) * 2**bits + data.draw(small_int) for j in range(size)] for i in range(size)]
    entry = st.integers(-(2**y_bits), 2**y_bits)
    y = data.draw(st.lists(st.lists(entry, min_size=2, max_size=2), min_size=size, max_size=size))
    rows = [ra + rb for ra, rb in zip(a, matmul(a, y))]
    free, pivots = [size, size + 1], list(range(size))
    scaled = [[d * v for v in row] for row in y]
    holds = data.draw(st.booleans())
    if not holds:
        scaled[data.draw(st.integers(0, size - 1))][data.draw(st.integers(0, 1))] += 1
    with patch.object(linalg_exact, "_NUMPY_PRODUCTS", 1):
        assert span_proof(rows, _int64(rows), pivots, free, d, scaled) is holds
    assert span_proof(rows, None, pivots, free, d, scaled) is holds


def test_span_proof_takes_both_paths():
    """The int64 product runs when the bound holds, the Python loop otherwise:
    the loop is seen by the columns it reads."""
    rows = [[2**30, 3 * 2**30], [1, 3]]
    m64 = _int64(rows)
    with patch.object(linalg_exact, "_NUMPY_PRODUCTS", 1):
        asked = []
        assert span_proof(rows, m64, [0], [1], 1, [[3]], asked)
        assert asked == []
        assert span_proof(rows, m64, [0], [1], 2**31, [[3 * 2**31]], asked)
        assert asked == [1, 0]
    asked = []
    assert span_proof(rows, m64, [0], [1], 1, [[3]], asked)  # two multiplications stay in Python
    assert asked == [1, 0]


@pytest.mark.parametrize(
    "rows,nvars",
    [
        ([[FIRST_PRIME, 1]], 1),
        ([[FIRST_PRIME, 1, 1], [0, 1, 1]], 2),
        ([[1, 1, 2, 7], [1, FIRST_PRIME + 1, 3, 7]], 2),
        ([[2**40 + 1, 1, 5]], 1),
    ],
)
def test_unlucky_and_many_prime_echelons(rows, nvars):
    """A first prime that drops the rank, and denominators beyond two primes,
    with several right-hand sides."""
    check_rref(rows, nvars)


@pytest.mark.parametrize(
    "rows,nvars",
    [
        ([[]], 0),
        ([[], []], 0),
        ([[3, 1]], 1),
        ([[0, 4, 6]], 1),
        ([[0, 0], [0, 0]], 1),
        ([[1, 1, 2], [0, 0, 0]], 2),
        ([[0, 0, 0]], 3),
        ([[2, 4, 6]], 3),
        ([[1, 2], [2, 4], [0, 0]], 2),
        ([[0, 5]], 1),
        ([[5]], 0),
        ([[2, 4, 6], [1, 2, 4], [3, 6, 10]], 0),
    ],
)
def test_degenerate_shapes(rows, nvars):
    """Zero columns, one row, all-zero rows, no right-hand side (the rank
    profile alone), no unknowns (the whole reduced form) and inconsistent
    systems, against check_rref's oracles; with one right-hand side,
    solve_int_with_ranks too ([[5]] with no unknowns is the system 0 = 5)."""
    check_rref(rows, nvars)
    if len(rows[0]) == nvars + 1:
        a_rows, b = [r[:nvars] for r in rows], [r[nvars] for r in rows]
        assert solve_int_with_ranks(a_rows, b) == echelon_solve(a_rows, b)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_window_rank_profile(data):
    """The pivot columns of Z (row i: values[i..i+n-1]) are the windows the
    integer echelon took as independent of those before them."""
    q, n = data.draw(st.integers(0, 20)), data.draw(st.integers(1, 24))
    kind = data.draw(st.sampled_from(["small", "periodic", "huge"]))
    count = n + q
    if kind == "periodic":
        base = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=8))
        values = [base[k % len(base)] for k in range(count)]
    else:
        bound = 2**80 if kind == "huge" else 2
        values = data.draw(st.lists(st.integers(-bound, bound), min_size=count, max_size=count))
    z = [values[i : i + n] for i in range(q + 1)]
    want = window_profile(values, q, n)
    assert reduced_echelon(z, n) == (want, 1, [[] for _ in want])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.integers(40, 62), st.data())
def test_window_product_agrees_with_annihilates(period, extra, bits, data):
    """annihilates with its int64 product admitted and annihilates held to
    its Python loop agree on rows whose bound max|row| * max|seq| * len(row)
    lies near 2^62, on either side.

    c x_k - c x_{k+period} vanishes on every window of a period-periodic
    sequence; a moved coefficient or a moved value breaks it."""
    seq_bits = data.draw(st.integers(1, bits - 8))
    entry = st.integers(-(2**seq_bits), 2**seq_bits)
    base = data.draw(st.lists(entry, min_size=period, max_size=period))
    seq = [base[k % period] for k in range(period + extra + 8)]
    width = period + 1 + extra
    c = data.draw(st.integers(1, 2 ** (bits - seq_bits)))
    row = [0] * width
    row[0], row[period] = c, -c
    if data.draw(st.booleans()):
        row[data.draw(st.integers(0, width - 1))] += data.draw(st.sampled_from([-1, 1]))
    if data.draw(st.booleans()):
        seq[data.draw(st.integers(0, len(seq) - 1))] += 1
    rows = [row, [0] * width]
    with patch.object(linalg_exact, "_int64", lambda values: None):
        want = all(annihilates([r], seq) for r in rows)
    with patch.object(linalg_exact, "_NUMPY_PRODUCTS", 1):
        assert annihilates(rows, seq) is want
    assert annihilates(rows, seq) is want


def fits_int64(values) -> bool:
    return all(-(2**63) <= v < 2**63 for v in values)


def relations_vanish_by_sums(matrix, rows, support, d, own, modulus) -> bool:
    """The oracle: each relation of _relations_vanish, sum_i rows[j][i]
    M[:, support[i]] - d M[:, own[j]], summed row by row in plain Python."""
    for j, row in enumerate(rows):
        for line in matrix:
            total = sum(v * line[c] for c, v in zip(support, row))
            total -= d * line[own[j]] if d else 0
            if (total if modulus is None else total % modulus) != 0:
                return False
    return True


def takes_int64(matrix, rows, support, d, own, threshold) -> bool:
    """Whether _relations_vanish may use its int64 product: the Python loop
    would cost at least threshold multiplications, every entry of M and of
    the relations fits in 64 bits, and max|M| * max(|rows|, |d|) * (k + 1)
    < 2^62, k the support columns some relation reads and max|M| taken over
    the columns read."""
    read = [c for i, c in enumerate(support) if any(row[i] for row in rows)]
    columns = read + (list(own) if d else [])
    passes = sum(v != 0 for row in rows for v in row) + (len(own) if d else 0)
    if passes * (len(matrix) + linalg_exact._PASS_PRODUCTS) < threshold:
        return False
    if not fits_int64([v for line in matrix for v in line]) or not fits_int64(
        [v for row in rows for v in row]
    ):
        return False
    largest = max((abs(line[c]) for line in matrix for c in columns), default=0)
    coefficient = max([abs(d)] + [abs(v) for row in rows for v in row])
    return largest * coefficient * (len(read) + 1) < 2**62


@st.composite
def relation_cases(draw):
    """(M, rows, support, d, own, modulus, seq) for _relations_vanish.

    "echelon": M = [A | A Y] with A near 2^bits times the identity, and the
    relations d Y, which express column size + j of M as d Y[:, j] times the
    first size columns over d, as reduced_echelon's acceptance proof does.
    bits puts max|M| * max(|d Y|, d) * (size + 1) within a factor 2^3 below
    and 2^12 above 2^62, so the largest entries pass 2^63 too.
    "windows": the window matrix of a period-periodic seq (seq set, not
    None) and the rows (c, 0, ..., -c, 0, ...) and (0, ..., 0), which hold
    on every window; max|c| * max|seq| * 3 is about 3 * 2^bits, on either
    side of 2^62, and c or seq may pass 2^63. Coefficients include zeros;
    one of them, or one entry of M, may move by one; a modulus may be drawn.
    """
    modulus = draw(st.sampled_from([None, None, 7, 2**61 - 1, 2**64 + 13]))
    if draw(st.booleans()):
        size, y_bits = draw(st.integers(1, 4)), draw(st.integers(1, 12))
        d, slack = draw(st.sampled_from([1, 3, 1031])), draw(st.integers(-3, 12))
        bits = max(1, 62 - 2 * y_bits - d.bit_length() - 2 * size.bit_length() + slack)
        a = [[int(i == j) * 2**bits + draw(small_int) for j in range(size)] for i in range(size)]
        entry = st.integers(-(2**y_bits), 2**y_bits)
        y = draw(st.lists(st.lists(entry, min_size=2, max_size=2), min_size=size, max_size=size))
        matrix = [ra + rb for ra, rb in zip(a, matmul(a, y))]
        rows = [[d * y[i][j] for i in range(size)] for j in range(2)]
        support, own, seq = list(range(size)), [size, size + 1], None
    else:
        period, extra = draw(st.integers(1, 6)), draw(st.integers(0, 3))
        bits = draw(st.integers(48, 72))
        seq_bits = draw(st.integers(1, bits - 1))
        top = draw(st.sampled_from([-1, 1])) * 2**seq_bits
        entry = st.integers(-(2**seq_bits), 2**seq_bits)
        base = [top] + draw(st.lists(entry, min_size=period - 1, max_size=period - 1))
        seq = [base[k % period] for k in range(period + extra + draw(st.integers(8, 40)))]
        width = period + 1 + extra
        c = 2 ** (bits - seq_bits) - draw(st.integers(0, 3)) or 1
        row = [0] * width
        row[0], row[period] = c, -c
        rows, support, d, own = [row, [0] * width], list(range(width)), 0, ()
    if draw(st.booleans()):
        moved = draw(st.sampled_from(rows))
        moved[draw(st.integers(0, len(moved) - 1))] += draw(st.sampled_from([-1, 1]))
    if draw(st.booleans()):
        if seq is None:
            matrix[draw(st.integers(0, len(matrix) - 1))][-1] += 1
        else:
            seq[draw(st.integers(0, len(seq) - 1))] += 1
    if seq is not None:
        windows = len(seq) - len(support) + 1
        matrix = [seq[k : k + len(support)] for k in range(windows)]
    return matrix, rows, support, d, own, modulus, seq


@settings(max_examples=400, deadline=None)
@given(relation_cases())
@example(([[2**30, 3 * 2**30], [1, 3]], [[3]], [0], 1, [1], None, None))
@example(([[2**30, 3 * 2**30], [1, 3]], [[3 * 2**31]], [0], 2**31, [1], None, None))
def test_relation_check_agrees_with_a_python_sum(case):
    """_relations_vanish equals the plain sum, and takes its int64 product
    exactly where takes_int64 says: with every size admitted and with the
    default size rule. The Python loop is seen by the columns it asks for,
    each one a relation reads; a window case runs annihilates too."""
    matrix, rows, support, d, own, modulus, seq = case
    want = relations_vanish_by_sums(matrix, rows, support, d, own, modulus)
    for threshold in (1, linalg_exact._NUMPY_PRODUCTS):
        asked = []

        def column(c):
            asked.append(c)
            return [line[c] for line in matrix]

        with patch.object(linalg_exact, "_NUMPY_PRODUCTS", threshold):
            got = _relations_vanish(
                rows, support, column, len(matrix), lambda: _int64(matrix), modulus, d, own
            )
            if seq is not None:
                assert annihilates(rows, seq, modulus) is want
        assert got is want
        int64 = takes_int64(matrix, rows, support, d, own, threshold)
        assert (not asked) is int64
        nonzero = {c for row in rows for c, v in zip(support, row) if v}
        assert set(asked) <= nonzero | set(own if d else ())
