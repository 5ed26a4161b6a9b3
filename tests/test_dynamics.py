import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRIMES_TO_199
from koopman_dh.dynamics import (
    DhParams,
    all_primitive_roots,
    dh_exchange,
    discrete_log_bruteforce,
    euler_criterion,
    find_primitive_root,
    full_period_trajectory,
    is_prime,
    is_primitive_root,
    mod_pow,
    prime_factors,
    shared_secret_intersection,
    simulate,
)


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
    def test_example(self):
        assert mod_pow(3, 4, 7) == 4 == naive_pow(3, 4, 7)

    def test_zero_exponent(self):
        assert mod_pow(3, 0, 7) == 1

    @pytest.mark.parametrize("p,m", [(5, 2), (7, 3), (23, 5)])
    def test_fermat(self, p, m):
        assert mod_pow(m, p - 1, p) == 1

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            mod_pow(3, 4, 1)
        with pytest.raises(ValueError):
            mod_pow(3, -1, 7)

    @settings(deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 60), st.integers(2, 10**4))
    def test_matches_repeated_multiplication(self, base, exp, p):
        assert mod_pow(base, exp, p) == naive_pow(base, exp, p)


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
    def test_examples(self):
        assert euler_criterion(2, 7) == 1  # 3^2 = 9 = 2 mod 7
        assert euler_criterion(1, 7) == 1
        assert euler_criterion(1, 13) == 1

    @pytest.mark.parametrize("p", PRIMES_TO_199)
    def test_generators_are_nonresidues(self, p):
        assert euler_criterion(find_primitive_root(p), p) == -1

    def test_quadratic_residues_detected(self):
        residues = {(x * x) % 11 for x in range(1, 11)}
        for m in range(1, 11):
            assert euler_criterion(m, 11) == (1 if m in residues else -1)

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            euler_criterion(14, 7)


class TestExchange:
    def test_example_p7(self):
        t = dh_exchange(DhParams(7, 3), 2, 5)
        assert (t.c_e, t.c_d, t.c_ed) == (2, 5, 4)

    def test_trivial_exponents(self):
        t = dh_exchange(DhParams(11, 2), 1, 1)
        assert t.c_e == t.c_d == t.c_ed == 2

    def test_example_p5(self):
        t = dh_exchange(DhParams(5, 2), 3, 2)
        assert (t.c_e, t.c_d, t.c_ed) == (3, 4, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            dh_exchange(DhParams(7, 3), 0, 2)
        with pytest.raises(ValueError):
            dh_exchange(DhParams(7, 3), 2, 7)


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
            assert discrete_log_bruteforce(mod_pow(params.m, e, p), params) == e

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
                t = dh_exchange(params, e, d)
                r = shared_secret_intersection(t.c_e, t.c_d, params)
                assert r.secret == t.c_ed
                assert (r.e, r.d) == (e, d)


def test_primitive_root_counts():
    # Euler phi of p-1 generators exist; spot values
    assert len(all_primitive_roots(7)) == 2
    assert len(all_primitive_roots(23)) == 10
    assert len(all_primitive_roots(61)) == 16


def test_is_prime_small():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
