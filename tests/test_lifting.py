from fractions import Fraction

import pytest

from conftest import PRIMES_TO_199
from koopman_dh.dynamics import (
    DhParams,
    all_primitive_roots,
    discrete_log_bruteforce,
    full_period_trajectory,
    mod_pow,
)
from koopman_dh.lifting import (
    CompanionSystem,
    additive_complex_lift,
    affine_augment_system,
    canonical_alpha,
    companion_matrix,
    full_period_system,
    hankel_system,
    index_lookup_attack,
    lift_ciphertext,
    lift_complex,
    lift_shift,
    minimal_lifting_dimension,
    solve_alpha_exact,
    verify_closing,
)

F = Fraction
P5 = DhParams(5, 2)
P7 = DhParams(7, 3)


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
            c = mod_pow(params.m, e, p)
            assert lift_ciphertext(c, params, q) == lift_shift(traj, q, e)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            lift_ciphertext(0, P7, 2)


class TestLiftComplex:
    def test_example_turns(self):
        assert lift_complex(1, P5, 1) == (F(2, 5), F(4, 5))

    def test_shift_property_example(self):
        assert lift_complex(2, P5, 1)[0] == lift_complex(1, P5, 1)[1]

    @pytest.mark.parametrize("p", [5, 7, 23])
    def test_shift_property_exact_everywhere(self, p):
        # h_j(m*x mod p) = h_{j+1}(x), compared as exact turns
        params = DhParams.with_smallest_root(p)
        q = params.q_tilde
        for x in range(1, p):
            shifted = lift_complex((params.m * x) % p, params, q)
            original = lift_complex(x, params, q)
            for j in range(q):
                assert shifted[j] == original[j + 1]

    def test_unit_modulus(self):
        from koopman_dh.cyclotomic import turn_to_complex

        for t in lift_complex(3, P7, 3):
            assert abs(abs(turn_to_complex(t)) - 1) < 1e-12


class TestCanonicalAlpha:
    def test_examples(self):
        assert canonical_alpha(5, 2) == (1, -1, 1)
        assert canonical_alpha(7, 3) == (1, -1, 0, 1)
        assert canonical_alpha(7, 4) == (0, 1, -1, 0, 1)

    def test_rejects_below_threshold(self):
        with pytest.raises(ValueError):
            canonical_alpha(7, 2)


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


class TestHankelSystem:
    def test_example_p5(self):
        sys = hankel_system(full_period_trajectory(P5), 2)
        assert sys.a_rows == ((1, 2, 4), (2, 4, 3), (4, 3, 1), (3, 1, 2))
        assert sys.b == (3, 1, 2, 4)

    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_row_count_is_period(self, q):
        assert len(hankel_system(full_period_trajectory(P7), q).a_rows) == 6

    def test_order_zero(self):
        sys = hankel_system(full_period_trajectory(P5), 0)
        assert sys.a_rows == ((1,), (2,), (4,), (3,))
        assert sys.b == (2, 4, 3, 1)

    def test_window_longer_than_period_wraps(self):
        sys = hankel_system(full_period_trajectory(P5), 5)
        assert sys.a_rows[:2] == ((1, 2, 4, 3, 1, 2), (2, 4, 3, 1, 2, 4))
        assert sys.b == (4, 3, 1, 2)


class TestSolveAlpha:
    def test_solvable_at_threshold(self):
        sys = hankel_system(full_period_trajectory(P5), 2)
        result = solve_alpha_exact(sys)
        assert result.solvable
        assert result.solution == (1, -1, 1)

    def test_unsolvable_with_ranks(self):
        result = solve_alpha_exact(hankel_system(full_period_trajectory(P5), 1))
        assert not result.solvable
        assert (result.rank_a, result.rank_augmented) == (2, 3)

    def test_p7_below_threshold_unsolvable(self):
        result = solve_alpha_exact(hankel_system(full_period_trajectory(P7), 2))
        assert not result.solvable

    @pytest.mark.parametrize("p", [7, 11, 13, 23])
    def test_below_threshold_never_closes(self, p):
        params = DhParams.with_smallest_root(p)
        traj = full_period_trajectory(params)
        for q in range(params.q_tilde):
            result = solve_alpha_exact(hankel_system(traj, q))
            assert (not result.solvable) or not verify_closing(traj, result.solution)


class TestMinimalDimension:
    @pytest.mark.parametrize("p,m,expected", [(5, 2, 3), (7, 3, 4), (23, 5, 12)])
    def test_examples(self, p, m, expected):
        assert minimal_lifting_dimension(DhParams(p, m)) == expected

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_independent_of_generator(self, p):
        for m in all_primitive_roots(p):
            assert minimal_lifting_dimension(DhParams(p, m)) == (p - 1) // 2 + 1


class TestCompanionSystem:
    def test_matrix_structure(self):
        system = CompanionSystem(q=2, alpha=canonical_alpha(5, 2))
        assert system.matrix == [
            [0, 1, 0],
            [0, 0, 1],
            [1, -1, 1],
        ]

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CompanionSystem(q=3, alpha=(F(1), F(2)))

    @pytest.mark.parametrize("p", [5, 7, 23])
    def test_powers_reproduce_trajectory(self, p):
        params = DhParams.with_smallest_root(p)
        traj = full_period_trajectory(params)
        q = params.q_tilde
        system = CompanionSystem(q=q, alpha=canonical_alpha(p, q))
        z = [F(v) for v in lift_shift(traj, q, 0)]
        for k in range(2 * (p - 1) + 1):
            assert z[0] == traj.value_at(k)
            z = system.step(z)

    def test_companion_matrix_helper(self):
        assert companion_matrix([2]) == [[2]]


class TestFullPeriodSystem:
    def test_dimension_and_alpha(self):
        system = full_period_system(P5)
        assert system.dimension == 4
        assert system.alpha == (1, 0, 0, 0)
        assert verify_closing(full_period_trajectory(P5), system.alpha)

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

    @pytest.mark.parametrize("p", [7, 23])
    def test_matches_bruteforce_oracle(self, p):
        params = DhParams.with_smallest_root(p)
        for c in range(1, p):
            assert index_lookup_attack(c, params) == discrete_log_bruteforce(c, params)


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

    def test_matrix_and_recovery(self):
        system = affine_augment_system(2, 2, 1)
        assert system.matrix == [[2, 1], [0, 1]]
        assert system.recover(system.step(system.z0)) == 4


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

    def test_recovery_is_exact_angle_readout(self):
        system = additive_complex_lift(5, 3)
        turn = system.z0_turn
        for expected in system.generate(7):
            assert system.recover(turn) == expected
            turn = system.step_turn(turn)
