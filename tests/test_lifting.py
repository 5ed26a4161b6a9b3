from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRIMES_TO_61, PRIMES_TO_199
from cyclotomic_oracle import cyclotomic_poly, poly_mul
from koopman_dh.cli import main as cli_main
from koopman_dh.complexity import lfsr_generate
from koopman_dh.dynamics import (
    DhParams,
    all_primitive_roots,
    discrete_log_bruteforce,
    find_primitive_root,
    full_period_trajectory,
)
from koopman_dh.lifting import (
    additive_complex_lift,
    affine_augment_system,
    canonical_alpha,
    char_alpha,
    closing_divisors,
    companion_matrix,
    full_period_alpha,
    hankel_system,
    index_lookup_attack,
    lift_ciphertext,
    lift_shift,
    minimal_lifting_dimension,
    solve_alpha_exact,
    verify_closing,
)
from lifting_oracle import (
    minimal_lifting_dimension_scan,
    periodic_trajectory,
    verify_closing_fractions,
)

F = Fraction
P5 = DhParams(5, 2)
P7 = DhParams(7, 3)


def certified_generators(p):
    """Every generator up to 61, the smallest one above."""
    return all_primitive_roots(p) if p in PRIMES_TO_61 else [find_primitive_root(p)]


# small periodic integer sequences: arbitrary, constant (zero included) and all-zero
PERIODS = st.one_of(
    st.lists(st.integers(-3, 3), min_size=1, max_size=12),
    st.lists(st.integers(-50, 50), min_size=1, max_size=12),
    st.builds(lambda c, n: [c] * n, st.integers(-3, 3), st.integers(1, 12)),
    st.builds(lambda n: [0] * n, st.integers(1, 12)),
)


class TestLiftShift:
    def test_examples(self):
        assert lift_shift(full_period_trajectory(P5), 2, 0) == (1, 2, 4)
        assert lift_shift(full_period_trajectory(P7), 3, 0) == (1, 3, 2, 6)
        traj = full_period_trajectory(P7)
        assert lift_shift(traj, 0, 4) == (traj.values[4],)

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError):
            lift_shift(full_period_trajectory(P5), 2, -1)

    def test_periodic_extension(self):
        traj = full_period_trajectory(P5)
        assert lift_shift(traj, 2, 3) == (3, 1, 2)


class TestLiftCiphertext:
    def test_examples(self):
        assert lift_ciphertext(4, P7, 3) == (4, 5, 1, 3)
        assert lift_ciphertext(3, P5, 2) == (3, 1, 2)
        traj = full_period_trajectory(P5)
        assert lift_ciphertext(1, P5, 2) == lift_shift(traj, 2, 0)

    @pytest.mark.parametrize("p", [7, 23])
    def test_equals_shift_lift_at_exponent(self, p):
        params = DhParams.with_smallest_root(p)
        traj = full_period_trajectory(params)
        q = params.q_tilde
        for e in range(1, p):
            c = pow(params.m, e, p)
            assert lift_ciphertext(c, params, q) == lift_shift(traj, q, e)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            lift_ciphertext(0, P7, 2)
        # a negative order is no lifting, as in lift_shift
        with pytest.raises(ValueError, match="dictionary order must be nonnegative, got -1"):
            lift_ciphertext(4, P7, -1)


class TestCanonicalAlpha:
    def test_examples(self):
        assert canonical_alpha(5, 2) == (1, -1, 1)
        assert canonical_alpha(7, 3) == (1, -1, 0, 1)
        assert canonical_alpha(7, 4) == (0, 1, -1, 0, 1)

    def test_rejects_below_threshold(self):
        with pytest.raises(ValueError):
            canonical_alpha(7, 2)

    @pytest.mark.parametrize("p", PRIMES_TO_61)
    def test_rows_and_matrices_hold_ints(self, p):
        # a closing row is a plain tuple of ints, and so is each matrix entry
        qt = (p - 1) // 2
        rows = [char_alpha(qt), full_period_alpha(p)]
        rows += [canonical_alpha(p, q) for q in range(qt, p - 1)]
        entries = [v for alpha in rows for v in alpha]
        for alpha in rows:
            entries += [v for row in companion_matrix(alpha) for v in row]
        m = find_primitive_root(p)
        entries += [v for row in affine_augment_system(m, p, 1).matrix for v in row]
        assert entries and all(type(v) is int for v in entries)


class TestVerifyClosing:
    def test_examples(self):
        assert verify_closing(full_period_trajectory(P5), (1, -1, 1))
        assert verify_closing(full_period_trajectory(P7), (1, -1, 0, 1))
        assert not verify_closing(full_period_trajectory(P5), (0, 2))

    @pytest.mark.parametrize("p", PRIMES_TO_199)
    def test_canonical_closes_everywhere(self, p):
        params = DhParams.with_smallest_root(p)
        traj = full_period_trajectory(params)
        assert verify_closing(traj, canonical_alpha(p, params.q_tilde))

    @pytest.mark.parametrize("p", [7, 11, 13, 23])
    def test_mod_p_only_solution_rejected(self, p):
        # at order q_tilde - 1 the sign-flip recurrence holds only mod p
        params = DhParams.with_smallest_root(p)
        traj = full_period_trajectory(params)
        q = params.q_tilde - 1
        alpha = (-1,) + (0,) * q
        assert not verify_closing(traj, alpha)
        for k in range(p - 1):
            lhs = traj.value_at(k + q + 1)
            rhs = -traj.value_at(k)
            assert (lhs - rhs) % p == 0

    def test_shifted_canonical_alpha_closes(self):
        traj = full_period_trajectory(P7)
        assert verify_closing(traj, canonical_alpha(7, 4))
        assert verify_closing(traj, canonical_alpha(7, 5))

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([(5, 2), (7, 3), (11, 2), (13, 6), (23, 5)]),
        st.integers(0, 30),
        st.lists(st.tuples(st.integers(0, 30), st.integers(-3, 3)), max_size=3),
        st.sampled_from(["int", "float", "fraction"]),
        st.integers(1, 4),
    )
    def test_matches_fraction_loop(self, case, order, perturb, kind, scale):
        # odd draws: the canonical alpha at or above the threshold (it closes);
        # even draws: any order, below the threshold a zero alpha; then a few
        # perturbed entries, and each entry type
        params = DhParams(*case)
        traj = full_period_trajectory(params)
        q = max(order, params.q_tilde) if order % 2 else order
        alpha = list(canonical_alpha(params.p, q)) if q >= params.q_tilde else [F(0)] * (q + 1)
        for j, delta in perturb:
            alpha[j % (q + 1)] += F(delta, scale)
        if kind == "int":
            alpha = [int(a) for a in alpha]
        elif kind == "float":
            alpha = [float(a) for a in alpha]
        assert verify_closing(traj, alpha) == verify_closing_fractions(traj, alpha)

    @settings(max_examples=300, deadline=None)
    @given(
        PERIODS,
        st.integers(0, 14),
        st.booleans(),
        st.lists(
            st.tuples(st.integers(0, 14), st.fractions(-2, 2, max_denominator=6)), max_size=3
        ),
    )
    def test_matches_fraction_loop_on_periodic_sequences(self, values, q, shift, noise):
        # the pure shift x_{k+q+1} = x_{k+q+1-N} closes for q + 1 >= N
        traj = periodic_trajectory(values)
        n = len(values)
        if shift:
            q = max(q, n - 1)
        alpha = [F(0)] * (q + 1)
        if shift:
            alpha[q + 1 - n] = F(1)
        for j, delta in noise:
            alpha[j % (q + 1)] += delta
        assert verify_closing(traj, alpha) == verify_closing_fractions(traj, alpha)

    @settings(max_examples=200, deadline=None)
    @given(
        PERIODS,
        st.integers(0, 14),
        st.fractions(-2, 2, max_denominator=6),
        st.lists(
            st.tuples(st.integers(0, 14), st.fractions(-2, 2, max_denominator=6)), max_size=2
        ),
    )
    def test_matches_fraction_loop_on_rational_closing_alpha(self, values, q, t, noise):
        # for q + 1 >= N both the pure shift and the full-period Hankel
        # solution close, so every affine combination of them does: a
        # rational alpha that closes, unless noise breaks it
        traj = periodic_trajectory(values)
        n = len(values)
        q = max(q, n - 1)
        shift = [F(int(j == q + 1 - n)) for j in range(q + 1)]
        solution = solve_alpha_exact(*hankel_system(traj, q)).solution
        alpha = [t * a + (1 - t) * b for a, b in zip(solution, shift)]
        for j, delta in noise:
            alpha[j % (q + 1)] += delta
        if not noise:
            assert verify_closing(traj, alpha)
        assert verify_closing(traj, alpha) == verify_closing_fractions(traj, alpha)

    def test_short_trajectory_rejected(self):
        traj = full_period_trajectory(P7)
        short = type(traj)(params=P7, values=traj.values[:3])
        with pytest.raises(ValueError):
            verify_closing(short, (0,))


class TestHankelSystem:
    def test_example_p5(self):
        a_rows, b = hankel_system(full_period_trajectory(P5), 2)
        assert a_rows == ((1, 2, 4), (2, 4, 3), (4, 3, 1), (3, 1, 2))
        assert b == (3, 1, 2, 4)

    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_row_count_is_period(self, q):
        a_rows, b = hankel_system(full_period_trajectory(P7), q)
        assert len(a_rows) == len(b) == 6

    def test_order_zero(self):
        a_rows, b = hankel_system(full_period_trajectory(P5), 0)
        assert a_rows == ((1,), (2,), (4,), (3,))
        assert b == (2, 4, 3, 1)

    def test_window_longer_than_period_wraps(self):
        a_rows, b = hankel_system(full_period_trajectory(P5), 5)
        assert a_rows[:2] == ((1, 2, 4, 3, 1, 2), (2, 4, 3, 1, 2, 4))
        assert b == (4, 3, 1, 2)


class TestSolveAlpha:
    def test_solvable_at_threshold(self):
        result = solve_alpha_exact(*hankel_system(full_period_trajectory(P5), 2))
        assert result.solvable
        assert result.solution == (1, -1, 1)

    def test_unsolvable_with_ranks(self):
        result = solve_alpha_exact(*hankel_system(full_period_trajectory(P5), 1))
        assert not result.solvable
        assert (result.rank_a, result.rank_augmented) == (2, 3)

    def test_p7_below_threshold_unsolvable(self):
        result = solve_alpha_exact(*hankel_system(full_period_trajectory(P7), 2))
        assert not result.solvable

    @pytest.mark.parametrize("p", [7, 11, 13, 23])
    def test_below_threshold_never_closes(self, p):
        params = DhParams.with_smallest_root(p)
        traj = full_period_trajectory(params)
        for q in range(params.q_tilde):
            result = solve_alpha_exact(*hankel_system(traj, q))
            assert (not result.solvable) or not verify_closing(traj, result.solution)


class TestMinimalDimension:
    @pytest.mark.parametrize("p,m,expected", [(5, 2, 3), (7, 3, 4), (23, 5, 12)])
    def test_examples(self, p, m, expected):
        assert minimal_lifting_dimension(DhParams(p, m)) == expected

    @pytest.mark.parametrize("p,m", [(401, 3), (1009, 11)])
    def test_desk_scale_primes(self, p, m):
        """The leading-block solve at 202 and 506 columns runs on the modular kernel."""
        assert minimal_lifting_dimension(DhParams(p, m)) == (p - 1) // 2 + 1

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_independent_of_generator(self, p):
        for m in all_primitive_roots(p):
            assert minimal_lifting_dimension(DhParams(p, m)) == (p - 1) // 2 + 1

    @settings(max_examples=400, deadline=None)
    @given(PERIODS)
    def test_closing_order_matches_scan(self, values):
        traj = periodic_trajectory(values)
        order = sum(len(cyclotomic_poly(d)) - 1 for d in closing_divisors(traj.values))
        oracle = minimal_lifting_dimension_scan(traj.params, traj)
        assert max(order, 1) == oracle
        assert minimal_lifting_dimension(traj.params, traj) == oracle

    def test_zero_and_constant_sequences(self):
        assert closing_divisors((0, 0, 0, 0)) == ()
        assert closing_divisors((5, 5, 5)) == (1,)
        assert closing_divisors((1, -1)) == (2,)
        zeros = periodic_trajectory((0, 0, 0))
        assert minimal_lifting_dimension(zeros.params, zeros) == 1

    def test_failed_certificate_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr("koopman_dh.lifting.verify_closing", lambda traj, alpha: False)
        with pytest.raises(RuntimeError):
            minimal_lifting_dimension(P7)
        assert cli_main(["verify-theorem", "--primes", "5..13"]) == 4


class TestClosingCertificate:
    @pytest.mark.parametrize("p", PRIMES_TO_199)
    def test_surviving_divisors(self, p):
        # {1} and the d | 2q with d not dividing q: the factors of (x - 1)(x^q + 1)
        q = (p - 1) // 2
        expected = (1,) + tuple(d for d in range(1, 2 * q + 1) if (2 * q) % d == 0 and q % d)
        for m in certified_generators(p):
            values = full_period_trajectory(DhParams(p, m)).values[: p - 1]
            assert closing_divisors(values) == expected, m

    @pytest.mark.parametrize("p", PRIMES_TO_199)
    def test_factor_product_is_the_canonical_recurrence(self, p):
        q = (p - 1) // 2
        for m in certified_generators(p):
            product = [1]
            for d in closing_divisors(full_period_trajectory(DhParams(p, m)).values[: p - 1]):
                product = poly_mul(product, cyclotomic_poly(d))
            assert product == poly_mul([-1, 1], [1] + [0] * (q - 1) + [1])  # (x - 1)(x^q + 1)
            assert tuple(-c for c in product[:-1]) == canonical_alpha(p, q), m


class TestCompanionSystem:
    def test_matrix_structure(self):
        assert companion_matrix(canonical_alpha(5, 2)) == [
            [0, 1, 0],
            [0, 0, 1],
            [1, -1, 1],
        ]

    @pytest.mark.parametrize("p", [5, 7, 23])
    def test_powers_reproduce_trajectory(self, p):
        # over two periods, each power of the companion matrix applied to the
        # lifted start state is the register sequence's window at that step
        params = DhParams.with_smallest_root(p)
        traj = full_period_trajectory(params)
        q = params.q_tilde
        alpha = canonical_alpha(p, q)
        matrix = companion_matrix(alpha)
        z = list(lift_shift(traj, q, 0))
        seq = lfsr_generate(alpha[::-1], z, 2 * (p - 1) + q + 1)
        for k in range(2 * (p - 1) + 1):
            assert z[0] == traj.value_at(k)
            assert z == seq[k : k + q + 1]
            z = [sum(a * v for a, v in zip(row, z)) for row in matrix]

    def test_companion_matrix_helper(self):
        assert companion_matrix([2]) == [[2]]


class TestFullPeriodSystem:
    def test_dimension_and_alpha(self):
        alpha = full_period_alpha(5)
        assert len(alpha) == 4
        assert alpha == (1, 0, 0, 0)
        assert verify_closing(full_period_trajectory(P5), alpha)

    @pytest.mark.parametrize("p", [5, 7, 11, 23])
    def test_reduction_identity(self, p):
        # x_{p-1} = x_{q~-1} - x_{q~} + x_{p-2} collapses the cyclic closure
        # onto the sparse one
        params = DhParams.with_smallest_root(p)
        traj = full_period_trajectory(params)
        qt = params.q_tilde
        assert traj.value_at(p - 1) == (
            traj.value_at(qt - 1) - traj.value_at(qt) + traj.value_at(p - 2)
        )


class TestIndexLookup:
    def test_examples(self):
        assert index_lookup_attack(4, P7) == 4
        assert index_lookup_attack(3, P7) == 1
        assert index_lookup_attack(1, P7) == 6

    @pytest.mark.parametrize("p", PRIMES_TO_61)
    def test_matches_bruteforce_oracle(self, p):
        for m in all_primitive_roots(p):
            params = DhParams(p, m)
            for c in range(1, p):
                assert index_lookup_attack(c, params) == discrete_log_bruteforce(c, params)

    @pytest.mark.parametrize("c", [0, 7, -1])
    def test_rejects_out_of_range(self, c):
        with pytest.raises(ValueError, match="c must lie in"):
            index_lookup_attack(c, P7)


class TestAffineAugment:
    def test_example_sequence(self):
        assert affine_augment_system(2, 2, 1).generate(5) == [1, 4, 10, 22, 46]

    def test_constant(self):
        assert affine_augment_system(1, 0, 9).generate(4) == [9, 9, 9, 9]

    def test_direct_recursion_oracle(self):
        system = affine_augment_system(3, 1, 0)
        assert system.generate(4) == [0, 1, 4, 13]
        x, oracle = 0, []
        for _ in range(9):
            oracle.append(x)
            x = 3 * x + 1
        assert affine_augment_system(3, 1, 0).generate(9) == oracle

    def test_matrix_and_first_step(self):
        system = affine_augment_system(2, 2, 1)
        assert system.matrix == [[2, 1], [0, 1]]
        # z_1 = matrix (x0, a) = (4, 2), and x_1 is its first entry
        assert system.generate(2) == [1, 4]

    def test_generate_runs_through_the_matrix(self, monkeypatch):
        # x -> 3x + a in place of the stated 2x + a
        system = affine_augment_system(2, 2, 1)
        monkeypatch.setattr(type(system), "matrix", property(lambda self: [[3, 1], [0, 1]]))
        assert system.generate(5) == [1, 5, 17, 53, 161]


class TestAdditiveComplex:
    def test_example_mod3(self):
        system = additive_complex_lift(3, 0)
        assert system.generate(6) == [0, 1, 2, 0, 1, 2]
        assert system.dimension == 1

    def test_mod4(self):
        assert additive_complex_lift(4, 0).generate(5) == [0, 1, 2, 3, 0]

    def test_scalar_beats_register_length(self):
        from koopman_dh.complexity import SequenceSample, berlekamp_massey

        system = additive_complex_lift(3, 0)
        seq = system.generate(9)
        assert system.dimension == 1 < berlekamp_massey(SequenceSample(terms=seq)).length

    @pytest.mark.parametrize("modulus, x0", [(1, 0), (5, 3), (7, -2), (6, 15)])
    def test_matches_the_additive_recursion(self, modulus, x0):
        x, oracle = x0 % modulus, []
        for _ in range(3 * modulus + 2):
            oracle.append(x)
            x = (x + 1) % modulus
        assert additive_complex_lift(modulus, x0).generate(3 * modulus + 2) == oracle
