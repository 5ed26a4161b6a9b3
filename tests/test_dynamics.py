import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRIMES_TO_199
from field_oracle import is_prime_by_trial_division
from koopman_dh.dynamics import (
    DhParams,
    all_primitive_roots,
    discrete_log_bruteforce,
    find_primitive_root,
    full_period_trajectory,
    is_prime,
    is_primitive_root,
    prime_factors,
    shared_secret_intersection,
    simulate,
)

# psi_12 and psi_13: the least composites that are strong pseudoprimes to
# the first 12 and the first 13 primes as bases.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def naive_pow(base, exp, p):
    """Independent oracle: repeated multiplication."""
    acc = 1 % p
    for _ in range(exp):
        acc = (acc * base) % p
    return acc


def orbit_length(m, p):
    """Independent oracle for multiplicative order: walk until 1 reappears."""
    x = m % p
    n = 1
    while x != 1:
        x = (x * m) % p
        n += 1
    return n


class TestModPow:
    """The orbit from x0 = 1 is the power map k -> m^k mod p, which callers
    compute with the built-in pow."""

    def test_example(self):
        traj = simulate(3, DhParams(7, 3), 1, 4)
        assert traj.values[4] == pow(3, 4, 7) == 4 == naive_pow(3, 4, 7)

    def test_zero_exponent(self):
        assert simulate(3, DhParams(7, 3), 1, 0).values == (pow(3, 0, 7),)

    @pytest.mark.parametrize("p,m", [(5, 2), (7, 3), (23, 5)])
    def test_fermat(self, p, m):
        assert full_period_trajectory(DhParams(p, m)).values[-1] == pow(m, p - 1, p) == 1

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            DhParams(2, 1)
        with pytest.raises(ValueError):
            simulate(3, DhParams(7, 3), 1, -1)

    @settings(deadline=None)
    @given(st.sampled_from(PRIMES_TO_199), st.integers(0, 10**6), st.integers(0, 60))
    def test_matches_repeated_multiplication(self, p, base, exp):
        multiplier = base % p or 1
        traj = simulate(multiplier, DhParams.with_smallest_root(p), 1, exp)
        assert traj.values[-1] == pow(multiplier, exp, p) == naive_pow(multiplier, exp, p)


class TestPrimitiveRoots:
    def test_examples(self):
        assert is_primitive_root(2, 5)
        assert not is_primitive_root(4, 5)
        assert is_primitive_root(3, 7)

    def test_oracle_orbit_length(self):
        assert orbit_length(2, 5) == 4
        assert orbit_length(4, 5) == 2
        assert orbit_length(3, 7) == 6

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            is_primitive_root(2, 9)

    @pytest.mark.parametrize("p,root", [(5, 2), (7, 3), (23, 5)])
    def test_find_smallest(self, p, root):
        assert find_primitive_root(p) == root
        for m in range(2, root):
            assert not is_primitive_root(m, p)

    def test_find_rejects_composite(self):
        with pytest.raises(ValueError):
            find_primitive_root(15)

    @pytest.mark.parametrize("p", PRIMES_TO_199[:12])
    def test_against_orbit_oracle(self, p):
        for m in range(2, p):
            assert is_primitive_root(m, p) == (orbit_length(m, p) == p - 1)

    def test_prime_factors(self):
        assert prime_factors(60) == {2, 3, 5}
        assert prime_factors(97) == {97}


class TestParams:
    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            DhParams(9, 2)
        with pytest.raises(ValueError):
            DhParams(3, 2)

    def test_rejects_non_generator(self):
        with pytest.raises(ValueError):
            DhParams(7, 2)

    def test_q_tilde(self):
        assert DhParams(23, 5).q_tilde == 11


class TestSimulate:
    def test_examples(self):
        assert simulate(2, DhParams(5, 2), 1, 4).values == (1, 2, 4, 3, 1)
        assert simulate(3, DhParams(7, 3), 1, 6).values == (1, 3, 2, 6, 4, 5, 1)
        assert simulate(3, DhParams(7, 3), 1, 0).values == (1,)

    def test_rejects_collapsing_start(self):
        with pytest.raises(ValueError):
            simulate(3, DhParams(7, 3), 7, 3)

    def test_value_at_periodic_extension(self):
        traj = full_period_trajectory(DhParams(7, 3))
        assert traj.value_at(6 + 2) == traj.value_at(2)
        with pytest.raises(ValueError):
            simulate(3, DhParams(7, 3), 1, 2).value_at(10)

    @pytest.mark.parametrize("p", PRIMES_TO_199)
    def test_full_period_is_permutation(self, p):
        params = DhParams.with_smallest_root(p)
        traj = simulate(params.m, params, 1, p - 1)
        assert sorted(traj.values[: p - 1]) == list(range(1, p))
        assert traj.values[p - 1] == 1
        assert 1 not in traj.values[1 : p - 1]

    @pytest.mark.parametrize("p", [7, 23, 101])
    def test_periodicity(self, p):
        params = DhParams.with_smallest_root(p)
        traj = simulate(params.m, params, 1, 2 * (p - 1))
        for k in range(len(traj.values)):
            assert traj.values[k] == traj.values[k % (p - 1)]


class TestEulerCriterion:
    """Euler's criterion by built-in pow: m^((p-1)/2) mod p is 1 for a
    quadratic residue and p-1 otherwise, and no residue generates the group."""

    def test_examples(self):
        for m, p in ((2, 7), (1, 7), (1, 13)):  # 3^2 = 9 = 2 mod 7
            assert pow(m, (p - 1) // 2, p) == 1
            assert not is_primitive_root(m, p)

    @pytest.mark.parametrize("p", PRIMES_TO_199)
    def test_generators_are_nonresidues(self, p):
        assert pow(find_primitive_root(p), (p - 1) // 2, p) == p - 1

    def test_quadratic_residues_detected(self):
        residues = {(x * x) % 11 for x in range(1, 11)}
        for m in range(1, 11):
            assert pow(m, 5, 11) == (1 if m in residues else 10)
            assert not (m in residues and is_primitive_root(m, 11))

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            is_primitive_root(14, 7)
        with pytest.raises(ValueError):
            simulate(14, DhParams(7, 3), 1, 3)


def exchange(params, e, d):
    """The exchange by built-in pow, checked against the orbit: the public
    values are its states at steps e and d, the shared secret at step e*d."""
    p, traj = params.p, full_period_trajectory(params)
    c_e, c_d = pow(params.m, e, p), pow(params.m, d, p)
    secret = pow(c_e, d, p)
    assert secret == pow(c_d, e, p)
    assert (c_e, c_d, secret) == (traj.value_at(e), traj.value_at(d), traj.value_at(e * d))
    return c_e, c_d, secret


class TestExchange:
    def test_example_p7(self):
        assert exchange(DhParams(7, 3), 2, 5) == (2, 5, 4)

    def test_trivial_exponents(self):
        assert exchange(DhParams(11, 2), 1, 1) == (2, 2, 2)

    def test_example_p5(self):
        assert exchange(DhParams(5, 2), 3, 2) == (3, 4, 4)

    def test_rejects_out_of_range(self):
        # a public value outside [1, p-1] is no state of the orbit
        with pytest.raises(ValueError):
            shared_secret_intersection(0, 2, DhParams(7, 3))
        with pytest.raises(ValueError):
            shared_secret_intersection(2, 7, DhParams(7, 3))


class TestDiscreteLog:
    def test_examples(self):
        params = DhParams(7, 3)
        assert discrete_log_bruteforce(4, params) == 4
        assert discrete_log_bruteforce(3, params) == 1
        assert discrete_log_bruteforce(1, params) == 6

    @pytest.mark.parametrize("p", [5, 7, 23, 101])
    def test_round_trip_all_exponents(self, p):
        params = DhParams.with_smallest_root(p)
        for e in range(1, p):
            assert discrete_log_bruteforce(pow(params.m, e, p), params) == e

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            discrete_log_bruteforce(7, DhParams(7, 3))


class TestIntersection:
    def test_example_p7(self):
        r = shared_secret_intersection(2, 5, DhParams(7, 3))
        assert (r.secret, r.e, r.d) == (4, 2, 5)

    def test_trivial(self):
        r = shared_secret_intersection(3, 3, DhParams(7, 3))
        assert (r.secret, r.e, r.d) == (3, 1, 1)

    def test_example_p5(self):
        r = shared_secret_intersection(3, 4, DhParams(5, 2))
        assert (r.secret, r.e, r.d) == (4, 3, 2)

    @pytest.mark.parametrize("p", [5, 13])
    def test_exhaustive_secret_match(self, p):
        params = DhParams.with_smallest_root(p)
        for e in range(1, p):
            for d in range(1, p):
                c_e, c_d, secret = exchange(params, e, d)
                r = shared_secret_intersection(c_e, c_d, params)
                assert r.secret == secret
                assert (r.e, r.d) == (e, d)


def test_primitive_root_counts():
    # Euler phi of p-1 generators exist; spot values
    assert len(all_primitive_roots(7)) == 2
    assert len(all_primitive_roots(23)) == 10
    assert len(all_primitive_roots(61)) == 16


def test_is_prime_small():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 200_000) if is_prime(n) != is_prime_by_trial_division(n)] == []


@pytest.mark.parametrize(
    "n",
    [
        PSI_12,  # a strong pseudoprime to the bases 2..37: only base 41 catches it
        3825123056546413051,  # a strong pseudoprime to the bases 2..31
        3215031751,  # a strong pseudoprime to the bases 2, 3, 5 and 7
        25326001,  # a strong pseudoprime to the bases 2, 3 and 5: below it, base 7 catches it
        43 * 43,  # the least composite past the trial divisors
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_at_word_and_field_scale():
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


@pytest.mark.parametrize("n", [PSI_13, 2**89 - 1])
def test_is_prime_refuses_psi_13_and_above(n):
    # psi_13 passes all 13 bases, so from it on no answer would be proven
    with pytest.raises(ValueError, match="primality"):
        is_prime(n)


def test_is_prime_still_finds_small_factors_above_psi_13():
    assert not is_prime(PSI_13 + 1) and not is_prime(3 * PSI_13)
