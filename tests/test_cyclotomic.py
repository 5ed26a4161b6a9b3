from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopman_dh.cyclotomic import RootSum, cyclotomic_degree, cyclotomic_divides

from cyclotomic_oracle import cyclotomic_poly, cyclotomic_remainder, poly_mul
from spectral_oracle import ZERO, inv_root_minus_one, turn_to_complex
from spectral_oracle import ExactRootSum as R

F = Fraction


def test_cyclotomic_poly_known_values():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


@st.composite
def divisibility_cases(draw):
    """(S, d, expected or None): multiples of Phi_d, near misses, zeros and arbitrary S."""
    d = draw(st.integers(1, 300))
    rnd = draw(st.randoms(use_true_random=False))
    lo, hi = draw(st.sampled_from([(0, d - 1), (d, 3 * d), (3 * d + 1, 4 * d)]))
    length = rnd.randint(lo, hi)
    bound = draw(st.sampled_from([1, 2**70]))  # small values divide by chance, large pass 2^64
    cofactor = [rnd.randint(-bound, bound) for _ in range(length)]
    kind = draw(st.sampled_from(["multiple", "near miss", "zero", "arbitrary"]))
    if kind == "zero":
        return [0] * length, d, True
    if kind == "arbitrary":
        return cofactor, d, None
    multiple = poly_mul(cyclotomic_poly(d), cofactor)
    if kind == "multiple":
        return multiple, d, True
    # Phi_d never divides x^i, so moving one coefficient by 1 leaves a non-multiple
    moved = multiple or [0]
    moved[rnd.randrange(len(moved))] += rnd.choice((-1, 1))
    return moved, d, False


@settings(max_examples=300, deadline=None)
@given(divisibility_cases())
def test_divisibility_matches_dense_remainder(case):
    coeffs, d, expected = case
    divides = cyclotomic_divides(coeffs, d)
    assert divides == (not any(cyclotomic_remainder(coeffs, d)))
    assert expected is None or divides == expected


@pytest.mark.parametrize("d", [1, 2, 6, 30, 210])
def test_zero_and_empty_polynomials_are_divisible(d):
    assert cyclotomic_divides([], d)
    assert cyclotomic_divides([0] * (3 * d + 1), d)
    assert not cyclotomic_divides([1], d)


def test_cyclotomic_degree_is_phi():
    for d in range(1, 301):
        assert cyclotomic_degree(d) == len(cyclotomic_poly(d)) - 1, d
    # the dense oracle takes ~20 s to reach 2000; count the units mod d instead
    for d in range(1, 2000):
        assert cyclotomic_degree(d) == sum(gcd(k, d) == 1 for k in range(1, d + 1)), d


def test_half_turn_folds_to_negation():
    # e^(i*pi) = -1, so root(1/2) + 1 must be zero: 1 + x cancels modulo Phi_2
    s = RootSum({F(1, 2): 1, F(0): 1})
    assert s.is_zero()


def test_cube_roots_sum_to_zero_requires_cyclotomic_reduction():
    # 1 + w + w^2 = 0 for w a cube root: no pair of terms is antipodal,
    # so only the minimal-polynomial reduction can certify zero.
    s = RootSum({F(0): 1, F(1, 3): 1, F(2, 3): 1})
    assert s.terms  # the stored terms are not literally empty
    assert s.is_zero()


def test_turns_are_taken_modulo_a_full_turn():
    # turns are kept as given; the reduction modulo x^n - 1 merges t, t + 1 and t - 1
    assert RootSum({F(0): 1, F(4, 3): 1, F(-1, 3): 1}).is_zero()  # 1 + w + w^2
    assert RootSum({F(0): 1, F(1): -1}).is_zero()
    assert RootSum({F(5, 2): 1, F(-2): 1}).is_zero()  # -1 + 1
    assert not RootSum({F(7, 3): 1, F(-1, 3): -1}).is_zero()  # w - w^2


def test_nonzero_detected():
    assert not RootSum({F(0): F(1, 7)}).is_zero()
    assert not RootSum({F(1, 5): 1, F(2, 5): -1}).is_zero()


def test_equality_via_field_value():
    lhs = R.root(F(1, 3)) * R.root(F(1, 3))
    assert lhs == R.root(F(2, 3))
    # (w + w^4)(w^2 + w^3) at 5th roots: expands into a zero-sum pattern
    w = lambda k: R.root(F(k, 5))
    golden = (w(1) + w(4)) * (w(2) + w(3))
    assert golden == w(1) + w(2) + w(3) + w(4)
    assert golden == R.root(0, -1)  # 5th roots of unity sum to -1 excluding 1


turns = st.fractions(min_value=0, max_value=1, max_denominator=12).map(lambda f: f % 1)
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(turns, coeffs), max_size=5))
def test_zero_test_matches_float_evaluation(pairs):
    s = sum((R.root(t, c) for t, c in pairs), ZERO)
    value = complex(s)
    if s.is_zero():
        assert abs(value) < 1e-9
    else:
        # a sound nonzero verdict permits tiny values only from rounding;
        # exact terms this coarse cannot hide below 1e-6 without being zero
        assert abs(value) > 1e-6


@settings(max_examples=100, deadline=None)
@given(st.tuples(turns, coeffs), st.tuples(turns, coeffs))
def test_product_matches_complex_multiplication(a, b):
    sa = R.root(*a)
    sb = R.root(*b)
    assert abs(complex(sa * sb) - complex(sa) * complex(sb)) < 1e-12


@pytest.mark.parametrize("n,k", [(4, 1), (6, 1), (6, 5), (10, 3), (14, 7)])
def test_inv_root_minus_one(n, k):
    turn = F(k, n)
    inv = inv_root_minus_one(turn, n)
    z_minus_one = R.root(turn) - R.root(0, 1)
    assert (z_minus_one * inv) == R.root(0, 1)
    assert abs(complex(inv) - 1 / (turn_to_complex(turn) - 1)) < 1e-12


def test_inv_root_minus_one_rejects_one():
    with pytest.raises(ValueError):
        inv_root_minus_one(F(0), 6)
    with pytest.raises(ValueError):
        inv_root_minus_one(F(1, 5), 6)

