import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from math import pi, sin

import numpy as np
import pytest

from conftest import PRIMES_TO_61, PRIMES_TO_199
from koopman_dh import cyclotomic, spectral
from koopman_dh.cyclotomic import turn_to_complex
from koopman_dh.dynamics import (
    DhParams,
    all_primitive_roots,
    discrete_log_bruteforce,
    full_period_trajectory,
)
from koopman_dh.lifting import canonical_alpha, lift_ciphertext, lift_shift
from koopman_dh.spectral import (
    ExponentEstimate,
    RecoveryError,
    char_alpha,
    eigen_canonical,
    eigenpair_residuals_exact_zero,
    parity,
    recover_exponent,
    transform,
)
from spectral_oracle import (
    ZERO,
    eigenpair_residual_float,
    eigenpair_residuals_by_rootsum,
    recover_by_rounding,
    transform_exact,
    vandermonde,
    vandermonde_exact,
    vinv_exact,
)
from spectral_oracle import ExactRootSum as R

F = Fraction


def setup_case(p):
    params = DhParams.with_smallest_root(p)
    q = params.q_tilde
    dec = eigen_canonical(p, q)
    traj = full_period_trajectory(params)
    z0 = lift_shift(traj, q, 0)
    return params, q, dec, traj, z0


class TestEigenCanonical:
    def test_p5_eigenvalues(self):
        dec = eigen_canonical(5, 2)
        assert set(dec.turns) == {F(0), F(1, 4), F(3, 4)}  # 1, i, -i

    def test_p7_eigenvalues(self):
        dec = eigen_canonical(7, 3)
        assert set(dec.turns) == {F(0), F(1, 2), F(1, 6), F(5, 6)}

    @pytest.mark.parametrize("p", [5, 7, 23, 101])
    def test_one_always_present_unit_modulus(self, p):
        dec = eigen_canonical(p, (p - 1) // 2)
        assert F(0) in dec.turns
        assert np.allclose(np.abs(dec.eigenvalues), 1.0)

    def test_char_alpha_matches_canonical_at_threshold(self):
        assert char_alpha(3) == canonical_alpha(7, 3)
        assert char_alpha(11) == canonical_alpha(23, 11)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            eigen_canonical(9, 4)
        with pytest.raises(ValueError):
            eigen_canonical(7, 0)


class TestEigenSetupReference:
    """Vinv and the eigenvalues against a build from Fraction turns."""

    @pytest.mark.parametrize("p,q", [(5, 1), (5, 2), (7, 3), (11, 4), (11, 5), (23, 11), (29, 14)])
    def test_bit_equal_to_fraction_build(self, p, q):
        dec = eigen_canonical(p, q)
        turns = (F(0),) + tuple(F(2 * k + 1, 2 * q) for k in range(q))
        v = np.array([[turn_to_complex((r * t) % 1) for t in turns] for r in range(q + 1)])
        l = np.array([turn_to_complex(t) for t in turns])
        # the Lagrange rows of (x - 1)(x^q + 1): (1 + x^q) / 2 at l = 1, and
        # otherwise l^-k / q but -1 / (q (l - 1)) at k = 0 and -l / (q (l - 1)) at k = q
        vinv = np.array([[turn_to_complex((-k * t) % 1) for k in range(q + 1)] for t in turns]) / q
        vinv[1:, 0] = -1 / (q * (l[1:] - 1))
        vinv[1:, q] = l[1:] * vinv[1:, 0]
        vinv[0] = [0.5] + [0] * (q - 1) + [0.5]
        assert dec.turns == turns
        assert np.array_equal(dec.eigenvalues, l)
        assert np.array_equal(dec.Vinv, vinv)
        assert np.array_equal(vandermonde(dec), v)
        # the integer turn data that recovery matches with
        assert dec.index.tolist() == [t * 2 * q for t in turns]
        assert dec.order.tolist() == [t.denominator for t in turns]
        assert all(
            t.numerator * inv % t.denominator == 1 % t.denominator
            for t, inv in zip(turns, dec.inverse.tolist())
        )
        assert dec.separation.tolist() == [sin(pi / t.denominator) for t in turns]
        assert dec.roots.tolist() == [turn_to_complex(F(n, 2 * q)) for n in range(2 * q)]


def with_turns(dec, turns):
    return replace(dec, turns=tuple(turns))


class TestEigenpairs:
    @pytest.mark.parametrize("p", [5, 7, 23, 101, 199, 401])
    def test_exact_residual_zero(self, p):
        assert eigenpair_residuals_exact_zero(eigen_canonical(p, (p - 1) // 2))

    @pytest.mark.parametrize("q", range(1, 31))
    def test_agrees_with_rootsum_oracle(self, q):
        dec = eigen_canonical(61, q)
        assert eigenpair_residuals_exact_zero(dec) is eigenpair_residuals_by_rootsum(dec) is True
        # a nonzero turn moved by a quarter step is no longer a root of (x^q + 1)(x - 1)
        for j in sorted({1, (q + 1) // 2, q}):
            tampered = list(dec.turns)
            tampered[j] = (tampered[j] + F(1, 4 * q)) % 1
            bad = with_turns(dec, tampered)
            assert eigenpair_residuals_exact_zero(bad) is False
            assert eigenpair_residuals_by_rootsum(bad) is False

    @pytest.mark.parametrize("q", range(1, 13))
    def test_agrees_with_rootsum_oracle_on_every_small_turn(self, q):
        # every turn n/d with d | 4q, eigenvalue or not
        dec = eigen_canonical(61, q)
        for d in range(1, 4 * q + 1):
            if (4 * q) % d:
                continue
            for n in range(d):
                one = with_turns(dec, [F(n, d)])
                assert eigenpair_residuals_exact_zero(one) == eigenpair_residuals_by_rootsum(one)

    @pytest.mark.parametrize("p", [7, 11, 23, 199])
    def test_minus_one_at_odd_q(self, p):
        # at odd q, l = -1 puts alpha_1 = -1 and alpha_q = 1 on the same turn 1/2:
        # their sum, not either alone, enters the closing row
        q = (p - 1) // 2
        dec = eigen_canonical(p, q)
        assert F(1, 2) in dec.turns
        assert eigenpair_residuals_exact_zero(with_turns(dec, [F(1, 2)]))

    @pytest.mark.parametrize("q", [2, 4, 6])
    def test_minus_one_is_no_eigenvalue_at_even_q(self, q):
        dec = eigen_canonical(61, q)
        assert not eigenpair_residuals_exact_zero(with_turns(dec, [F(1, 2)]))

    def test_one_reduction_per_eigenvalue_order(self, monkeypatch):
        # every zero test reaches Phi_d with terms left: the divisibility
        # test, not a cancellation of equal turns, decides each eigenvalue order
        calls, tested = [], []
        is_zero, divides = cyclotomic.RootSum.is_zero, cyclotomic.cyclotomic_divides

        def spy_is_zero(self):
            calls.append(self)
            return is_zero(self)

        def spy_divides(coeffs, d):
            tested.append(list(coeffs))
            return divides(coeffs, d)

        monkeypatch.setattr(cyclotomic.RootSum, "is_zero", spy_is_zero)
        monkeypatch.setattr(cyclotomic, "cyclotomic_divides", spy_divides)
        for p in PRIMES_TO_199:
            dec = eigen_canonical(p, (p - 1) // 2)
            calls.clear()
            tested.clear()
            assert eigenpair_residuals_exact_zero(dec), p
            assert len(calls) == len({t.denominator for t in dec.turns}), p
            assert len(tested) == len(calls), p
            assert all(any(coeffs) for coeffs in tested), p

    @pytest.mark.parametrize("p", [61, 199])
    def test_moved_closing_coefficient_is_rejected(self, p, monkeypatch):
        # Phi_d never divides x^j, so moving any one alpha_j by 1 breaks every order
        q = (p - 1) // 2
        dec = eigen_canonical(p, q)
        for j in range(q + 1):
            moved = list(char_alpha(q))
            moved[j] += 1
            monkeypatch.setattr(spectral, "char_alpha", lambda order, moved=moved: tuple(moved))
            assert eigenpair_residuals_exact_zero(dec) is False, j

    @pytest.mark.parametrize("p", [5, 7, 23, 101, 199])
    def test_float_residual_small(self, p):
        assert eigenpair_residual_float(eigen_canonical(p, (p - 1) // 2)) <= 1e-9


class TestExactInverse:
    @pytest.mark.parametrize("q", [1, 2, 3, 5, 11])
    def test_inverse_against_identity(self, q):
        v = vandermonde_exact(q)
        vinv = vinv_exact(q)
        n = q + 1
        for r in range(n):
            for c in range(n):
                acc = ZERO
                for k in range(n):
                    acc = acc + v[r][k] * vinv[k][c]
                assert acc == R.root(0, int(r == c))

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 23, 29, 41])
    def test_floating_mirror_agrees(self, p):
        q = (p - 1) // 2
        dec = eigen_canonical(p, q)
        exact = np.array([[complex(e) for e in row] for row in vinv_exact(q)])
        assert np.max(np.abs(exact - dec.Vinv)) < 1e-12

    @pytest.mark.parametrize("p", [199, 401, 1009, 4001])
    def test_inverts_the_eigenvector_matrix(self, p):
        dec = eigen_canonical(p, (p - 1) // 2)
        assert np.max(np.abs(vandermonde(dec) @ dec.Vinv - np.eye(dec.dimension))) <= 1e-12


class TestTransform:
    def test_round_trip(self):
        params, q, dec, traj, z0 = setup_case(5)
        assert np.max(np.abs(vandermonde(dec) @ transform(z0, dec) - np.asarray(z0))) < 1e-9

    def test_zero_vector(self):
        dec = eigen_canonical(5, 2)
        assert np.allclose(transform([0, 0, 0], dec), 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transform([1, 2], eigen_canonical(5, 2))

    def test_diagonal_propagation_float(self):
        # z~_e = Lambda^e z~_0 for the true exponent
        params, q, dec, traj, z0 = setup_case(7)
        e = 4
        ze = lift_ciphertext(pow(params.m, e, 7), params, q)
        lhs = transform(ze, dec)
        rhs = (dec.eigenvalues**e) * transform(z0, dec)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    @pytest.mark.parametrize("p", [5, 7])
    def test_diagonal_propagation_exact(self, p):
        # the exact eigencoordinates rotate by e times the eigenvalue turn
        params, q, dec, traj, z0 = setup_case(p)
        for e in (1, 2, p - 1):
            ze = lift_shift(traj, q, e)
            lhs = transform_exact(ze, q)
            rhs = [coord.rotated(t * e) for coord, t in zip(transform_exact(z0, q), dec.turns)]
            assert all((a - b).is_zero() for a, b in zip(lhs, rhs))

    def test_conservation_of_magnitudes(self):
        params, q, dec, traj, z0 = setup_case(23)
        zt0 = np.abs(transform(z0, dec))
        for e in (1, 7, 22):
            ze = lift_shift(traj, q, e)
            assert np.max(np.abs(np.abs(transform(ze, dec)) - zt0)) < 1e-9

    @pytest.mark.parametrize("p", [23, 199, 1009])
    def test_equals_the_complex_product_on_every_input_kind(self, p):
        # an integer state goes to float64 and every other to complex128;
        # both must give the complex128 product's values exactly
        params, q, dec, traj, z0 = setup_case(p)
        ze = lift_ciphertext(pow(params.m, p // 3, p), params, q)
        # entries of up to 62 bits: exact in float64 below 2^53, rounded above it
        wide = [v << (40 + k % 13) | k for k, v in enumerate(ze)]
        big = [v * 2**70 + k for k, v in enumerate(ze)]  # past uint64: an object array
        states = [
            z0,
            list(ze),
            wide,
            np.array(ze) % 2 == 1,
            np.array(wide, dtype=np.int64) * np.resize([1, -1, -1], q + 1),
            np.array(ze, dtype=np.uint64),
            np.array(wide, dtype=np.uint64) + np.uint64(2**63),
            big,
            [-v for v in big],
            [2**63 + v if k % 2 else -v for k, v in enumerate(ze)],  # int64 and uint64: float64
            [v / 3 if k % 3 else (0.0, -0.0)[k % 2] for k, v in enumerate(ze)],
            np.array(ze) * (0.75 - 1.5j),
        ]
        assert {np.asarray(z).dtype.kind for z in states} == set("biufcO")
        for z in states:
            assert np.array_equal(transform(z, dec), dec.Vinv @ np.asarray(z, dtype=complex))

    @pytest.mark.parametrize("p", [23, 199, 1009])
    def test_dimension_message_on_every_input_kind(self, p):
        dec = eigen_canonical(p, (p - 1) // 2)
        n = dec.dimension
        bad = [
            tuple(range(n - 1)),
            np.ones(n + 1, dtype=np.int64),
            np.ones(n - 1, dtype=np.uint64),
            [2**70] * (n - 1),
            [-0.0] * (n + 1),
            np.ones(n - 1, dtype=complex),
            np.ones((n, 1), dtype=int),
            5,
        ]
        for z in bad:
            with pytest.raises(ValueError) as info:
                transform(z, dec)
            assert str(info.value) == f"state has dimension {np.shape(z)}, expected ({n},)"


class TestRecoverExponent:
    def test_example_p7(self):
        params, q, dec, traj, z0 = setup_case(7)
        estimate = recover_exponent(lift_ciphertext(4, params, q), z0, dec, 7)
        assert estimate.e == 4 == discrete_log_bruteforce(4, params)
        assert estimate.parity == "even"

    def test_identity_state_maps_to_full_period(self):
        params, q, dec, traj, z0 = setup_case(7)
        assert recover_exponent(z0, z0, dec, 7).e == 6

    def test_example_p23(self):
        params, q, dec, traj, z0 = setup_case(23)
        c = pow(5, 17, 23)
        assert recover_exponent(lift_ciphertext(c, params, q), z0, dec, 23).e == 17

    @pytest.mark.parametrize("p", [5, 7, 11, 23, 101])
    def test_totality(self, p):
        params, q, dec, traj, z0 = setup_case(p)
        for e in range(1, p):
            c = pow(params.m, e, p)
            estimate = recover_exponent(lift_ciphertext(c, params, q), z0, dec, p)
            assert estimate.e == e == discrete_log_bruteforce(c, params)

    def test_scale_invariance(self):
        params, q, dec, traj, z0 = setup_case(11)
        ze = lift_shift(traj, q, 7)
        scale = 2.375 - 1.25j
        scaled = recover_exponent(
            [scale * v for v in ze], [scale * v for v in z0], dec, 11
        )
        assert scaled.e == recover_exponent(ze, z0, dec, 11).e == 7

    def test_residue_evidence_consistent(self):
        params, q, dec, traj, z0 = setup_case(11)
        e = 7
        estimate = recover_exponent(lift_shift(traj, q, e), z0, dec, 11)
        for j, t, err in estimate.per_eigenvalue_residues:
            order = dec.turns[j].denominator
            assert (e - t) % order == 0
            assert err < 1e-9

    def test_off_orbit_state_raises(self):
        params, q, dec, traj, z0 = setup_case(7)
        with pytest.raises(RecoveryError):
            recover_exponent([1.0, 100.0, -3.0, 0.5], z0, dec, 7)

    def test_all_coordinates_vanishing_raises(self):
        dec = eigen_canonical(7, 3)
        with pytest.raises(RecoveryError):
            recover_exponent([0, 0, 0, 0], [0, 0, 0, 0], dec, 7)


class TestParity:
    def test_examples_p7(self):
        params, q, dec, traj, z0 = setup_case(7)
        z4 = lift_ciphertext(pow(3, 4, 7), params, q)
        z5 = lift_ciphertext(pow(3, 5, 7), params, q)
        assert parity(z4, z0, dec) == "even"
        assert parity(z5, z0, dec) == "odd"

    def test_unavailable_when_order_even(self):
        params, q, dec, traj, z0 = setup_case(5)
        ze = lift_shift(traj, q, 3)
        assert parity(ze, z0, dec) == "unavailable"

    def test_vanishing_coordinate_raises(self):
        dec = eigen_canonical(7, 3)
        with pytest.raises(RecoveryError):
            parity([1, 2, 3, 4], [0, 0, 0, 0], dec)

    @pytest.mark.parametrize("p", [7, 11, 19, 23])
    def test_matches_exponent_parity(self, p):
        params, q, dec, traj, z0 = setup_case(p)
        for e in range(1, p):
            ze = lift_shift(traj, q, e)
            assert parity(ze, z0, dec) == ("even" if e % 2 == 0 else "odd")


def warm(call, z_e, z_0, dec, *rest):
    """call's result, or the type and message of the error it raises."""
    try:
        return call(z_e, z_0, dec, *rest)
    except (RecoveryError, ValueError) as exc:
        return type(exc), str(exc)


def cold(call, z_e, z_0, p, *rest):
    """warm on a decomposition that has seen no start state, so the transform
    of z_0 is computed: the answer without the start memo."""
    return warm(call, z_e, z_0, eigen_canonical(p, (p - 1) // 2), *rest)


class TestPreparedStart:
    """The decomposition keeps the last start state's eigencoordinates."""

    @pytest.mark.parametrize("p", [7, 11, 13, 23, 101])
    def test_hit_equals_cold_estimate(self, p):
        params, q, dec, traj, z0 = setup_case(p)
        recover_exponent(z0, z0, dec, p)
        for e in range(1, p):
            ze = lift_ciphertext(pow(params.m, e, p), params, q)
            hit = recover_exponent(ze, z0, dec, p)
            assert dec._start[0] is z0
            # dataclass == compares e, parity and every (j, t, match error)
            assert hit == cold(recover_exponent, ze, z0, p, p)
            assert repr(hit) == repr(cold(recover_exponent, ze, z0, p, p))

    def test_alternating_starts_never_go_stale(self):
        p = 23
        params, q, dec, traj, z0 = setup_case(p)
        other = DhParams(p, all_primitive_roots(p)[-1])
        assert other.m != params.m
        starts = [
            z0,
            lift_shift(full_period_trajectory(other), q, 0),
            lift_shift(traj, q, 3),
            [2.5 * v for v in z0],
            [(0.75 - 1.5j) * v for v in z0],
            list(z0),
            np.array(z0),
            np.array(z0, dtype=float) / 7,
        ]
        rng = random.Random(p)
        for _ in range(60):
            z_0 = rng.choice(starts)
            ze = lift_ciphertext(pow(params.m, rng.randrange(1, p), p), params, q)
            assert warm(recover_exponent, ze, z_0, dec, p) == cold(recover_exponent, ze, z_0, p, p)
            assert warm(parity, ze, z_0, dec) == cold(parity, ze, z_0, p)

    def test_start_changed_in_place_is_a_new_start(self):
        params, q, dec, traj, z0 = setup_case(11)
        ze = lift_ciphertext(pow(params.m, 4, 11), params, q)
        for start in (list(z0), np.array(z0)):
            assert recover_exponent(ze, start, dec, 11).e == 4
            start[1], start[2] = start[2], start[1]
            assert warm(recover_exponent, ze, start, dec, 11) == cold(
                recover_exponent, ze, start, 11, 11
            )
            assert warm(recover_exponent, ze, start, dec, 11) != recover_exponent(ze, z0, dec, 11)

    def test_unusable_start_raises_on_every_call(self):
        params, q, dec, traj, z0 = setup_case(7)
        ze = lift_ciphertext(4, params, q)
        for _ in range(3):
            with pytest.raises(RecoveryError, match="no usable eigenvalues"):
                recover_exponent(ze, [0, 0, 0, 0], dec, 7)
            with pytest.raises(RecoveryError, match="parity unreadable"):
                parity(ze, (0.0, 0.0, 0.0, 0.0), dec)
        assert recover_exponent(ze, z0, dec, 7).e == 4

    def test_wrong_dimension_keeps_its_message(self):
        params, q, dec, traj, z0 = setup_case(11)
        ze = lift_ciphertext(pow(params.m, 3, 11), params, q)
        column = np.array(z0).reshape(-1, 1)
        bad = [z0[:-1], list(z0) + [1], column, list(column), list(np.eye(6)), np.array(z0[0]), 5]
        for z_0 in bad:
            recover_exponent(ze, z0, dec, 11)  # the memo holds the good start
            message = cold(recover_exponent, ze, z_0, 11, 11)
            assert message[0] is ValueError and "state has dimension" in message[1]
            assert warm(recover_exponent, ze, z_0, dec, 11) == message
            assert warm(parity, ze, z_0, dec) == cold(parity, ze, z_0, 11) == message
        assert dec._start[0] is z0

    @pytest.mark.parametrize("p", [7, 11, 13, 23])
    def test_parity_agrees_with_estimate_on_hits_and_misses(self, p):
        params, q, dec, traj, z0 = setup_case(p)
        for e in range(1, p):
            ze = lift_ciphertext(pow(params.m, e, p), params, q)
            fresh = eigen_canonical(p, q)
            assert parity(ze, z0, fresh) == recover_exponent(ze, z0, dec, p).parity
            assert parity(ze, z0, dec) == recover_exponent(ze, z0, fresh, p).parity

    def test_concurrent_queries_with_alternating_starts(self):
        p = 23
        params, q, dec, traj, z0 = setup_case(p)
        starts = [z0, lift_shift(traj, q, 5), [0.5 * v for v in z0]]
        lifts = [lift_ciphertext(pow(params.m, e, p), params, q) for e in range(1, p)]
        queries = [(ze, z_0) for ze in lifts for z_0 in starts]
        expected = [cold(recover_exponent, ze, z_0, p, p) for ze, z_0 in queries]
        results, threads = {}, []

        def run(seed):
            order = random.Random(seed).sample(range(len(queries)), len(queries))
            results[seed] = all(
                warm(recover_exponent, *queries[i], dec, p) == expected[i] for i in order
            )

        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for seed in range(6):
                threads.append(threading.Thread(target=run, args=(seed,)))
                threads[-1].start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {seed: True for seed in range(6)}

    def test_one_transform_per_query_after_the_first(self, monkeypatch):
        calls = []
        original = spectral.transform

        def counting(z, dec):
            calls.append(z)
            return original(z, dec)

        monkeypatch.setattr(spectral, "transform", counting)
        params, q, dec, traj, z0 = setup_case(23)
        k = 7
        for e in range(1, k + 1):
            recover_exponent(lift_ciphertext(pow(params.m, e, 23), params, q), z0, dec, 23)
        assert len(calls) == k + 1
        parity(z0, list(z0), dec)
        assert len(calls) == k + 2  # an equal list is the same start


def recover_by_scan(z_e, z_0, dec, p):
    """Reference matcher: scan every power of each eigenvalue, then every e.

    O(q * order) per query; recover_exponent must agree with it exactly,
    float match errors included. Like recover_by_rounding, it takes the
    eigencoordinates as the complex128 product, not from spectral.transform.
    """
    zt0 = dec.Vinv @ np.asarray(z_0, dtype=complex)
    zte = dec.Vinv @ np.asarray(z_e, dtype=complex)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(zt0))))
    constraints = []
    residues = []
    for j, turn in enumerate(dec.turns):
        if turn == 0 or abs(zt0[j]) < tol:
            continue
        order = turn.denominator
        ratio = zte[j] / zt0[j]
        best_t, best_dist = 0, abs(ratio - 1.0)
        for t in range(1, order):
            dist = abs(ratio - turn_to_complex((turn * t) % 1))
            if dist < best_dist:
                best_t, best_dist = t, dist
        if best_dist >= sin(pi / order):
            raise RecoveryError(
                f"eigenvalue {j}: ratio {ratio:.6g} matches no power within separation"
            )
        constraints.append((best_t, order))
        residues.append((j, best_t, best_dist))
    if not constraints:
        raise RecoveryError("no usable eigenvalues: initial eigencoordinates all vanish")
    candidates = [
        e for e in range(1, p) if all((e - t) % order == 0 for t, order in constraints)
    ]
    if not candidates:
        # every order divides 2q, so consistent constraints have a solution below 2q
        if any(all((e - t) % order == 0 for t, order in constraints) for e in range(2 * dec.q)):
            raise RecoveryError("no exponent in [1, p-1] meets the eigenvalue constraints")
        raise RecoveryError("eigenvalue constraints are mutually inconsistent")
    if len(candidates) > 1:
        raise RecoveryError(f"constraints leave {len(candidates)} admissible exponents")
    return ExponentEstimate(
        e=candidates[0],
        per_eigenvalue_residues=tuple(residues),
        parity=parity(z_e, z_0, dec),
    )


def outcome(recover, z_e, z_0, dec, p):
    try:
        return recover(z_e, z_0, dec, p)
    except RecoveryError as exc:
        return str(exc)


def eigen_state(dec, coeffs, e=0):
    """State V diag(l^e) c: eigencoordinates c rotated by e steps (one count,
    or one count per coordinate)."""
    return vandermonde(dec) @ (dec.eigenvalues**e * np.asarray(coeffs, dtype=complex))


class TestRecoverAgainstScan:
    @pytest.mark.parametrize(
        "p,count", [(5, 4), (7, 6), (11, 10), (23, 22), (61, 12), (101, 8), (199, 4), (401, 2)]
    )
    def test_sampled_exponents_and_perturbed_states(self, p, count):
        params, q, dec, traj, z0 = setup_case(p)
        rng = random.Random(p)
        for e in rng.sample(range(1, p), count):
            ze = lift_ciphertext(pow(params.m, e, p), params, q)
            states = [ze] + [
                [v + rng.gauss(0.0, scale * p) for v in ze] for scale in (1e-6, 1e-3, 0.02, 0.3)
            ]
            for z in states:
                assert outcome(recover_exponent, z, z0, dec, p) == outcome(
                    recover_by_scan, z, z0, dec, p
                ), (p, e)

    def test_one_eigenpair_leaves_several_exponents(self):
        # p = 13, q = 6: turns 1/4 and 3/4 are a conjugate pair of order 4,
        # so their coordinates fix e only mod 4: three exponents in [1, 12]
        dec = eigen_canonical(13, 6)
        pair = [j for j, t in enumerate(dec.turns) if t.denominator == 4]
        coeffs = np.zeros(dec.dimension)
        coeffs[pair] = 1.0
        z0 = eigen_state(dec, coeffs)
        for e in range(1, 13):
            ze = eigen_state(dec, coeffs, e)
            got = outcome(recover_exponent, ze, z0, dec, 13)
            assert got == "constraints leave 3 admissible exponents"
            assert got == outcome(recover_by_scan, ze, z0, dec, 13)

    def test_order_not_matching_p(self):
        # 2q = 8 does not divide p - 1 = 10: e and e + 8 both lie in [1, 10]
        # for e = 1, 2, and the count must come out exact
        dec = eigen_canonical(11, 4)
        coeffs = [0.5, 1.0, 2.0 - 1.0j, 0.75j, 1.5]
        z0 = eigen_state(dec, coeffs)
        for e in range(1, 11):
            ze = eigen_state(dec, coeffs, e)
            got = outcome(recover_exponent, ze, z0, dec, 11)
            assert got == outcome(recover_by_scan, ze, z0, dec, 11)
            if e % 8 in (1, 2):
                assert got == "constraints leave 2 admissible exponents"
            else:
                assert got.e == e

    def test_non_finite_state_raises(self):
        params, q, dec, traj, z0 = setup_case(7)
        for bad in (float("nan"), float("inf")):
            with np.errstate(invalid="ignore"), pytest.raises(RecoveryError, match="matches no power"):
                recover_exponent([bad, 1.0, 2.0, 3.0], z0, dec, 7)

    def test_constraints_inconsistent_or_outside_range(self):
        # p = 7, q = 4: every nonzero turn has order 8 > p - 1, so e = 7 and 8
        # give consistent residues 7 and 0 mod 8 that no exponent in [1, 6] meets
        dec = eigen_canonical(7, 4)
        coeffs = [0.5, 1.0, 2.0 - 1.0j, 0.75j, 1.5]
        z0 = eigen_state(dec, coeffs)
        for e in (7, 8):
            ze = eigen_state(dec, coeffs, e)
            got = outcome(recover_exponent, ze, z0, dec, 7)
            assert got == "no exponent in [1, p-1] meets the eigenvalue constraints"
            assert got == outcome(recover_by_scan, ze, z0, dec, 7)
        # coordinate 1 turned one step, the others two: 1 and 2 mod 8 conflict
        ze = eigen_state(dec, coeffs, np.array([0, 1, 2, 2, 2]))
        got = outcome(recover_exponent, ze, z0, dec, 7)
        assert got == "eigenvalue constraints are mutually inconsistent"
        assert got == outcome(recover_by_scan, ze, z0, dec, 7)
        # p = 13, q = 6: orders 12 and 4 turned 1 and 2 steps conflict mod gcd = 4
        dec = eigen_canonical(13, 6)
        steps = np.array([1 if t.denominator == 12 else 2 for t in dec.turns])
        z0 = eigen_state(dec, np.ones(dec.dimension))
        ze = eigen_state(dec, np.ones(dec.dimension), steps)
        got = outcome(recover_exponent, ze, z0, dec, 13)
        assert got == "eigenvalue constraints are mutually inconsistent"
        assert got == outcome(recover_by_scan, ze, z0, dec, 13)


def assert_same_as_rounding(z_e, z_0, dec, p):
    """Equal estimates, with e, parity and every (j, t, match error) compared by
    ==, or equal error messages."""
    assert outcome(recover_exponent, z_e, z_0, dec, p) == outcome(
        recover_by_rounding, z_e, z_0, dec, p
    ), p


class TestRecoverAgainstRounding:
    """The array pass against the per-eigenvalue Fraction loop it replaced."""

    @pytest.mark.parametrize("p", PRIMES_TO_61)
    def test_every_exponent_of_every_generator(self, p):
        q = (p - 1) // 2
        dec = eigen_canonical(p, q)
        for m in all_primitive_roots(p):
            params = DhParams(p, m)
            z0 = lift_shift(full_period_trajectory(params), q, 0)
            for e in range(1, p):
                ze = lift_ciphertext(pow(m, e, p), params, q)
                estimate = recover_exponent(ze, z0, dec, p)
                assert estimate == recover_by_rounding(ze, z0, dec, p)
                assert estimate.e == e

    @pytest.mark.parametrize("p", [101, 127, 151, 199, 251, 307, 401, 1009])
    def test_seeded_exponents_on_the_recover_ladder(self, p):
        params, q, dec, traj, z0 = setup_case(p)
        for e in random.Random(p).sample(range(1, p), 20):
            assert_same_as_rounding(lift_ciphertext(pow(params.m, e, p), params, q), z0, dec, p)

    @pytest.mark.parametrize("p,count", [(5, 4), (7, 6), (11, 10), (23, 22), (61, 12), (101, 8)])
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 0.02, 0.3])
    def test_perturbed_states(self, p, count, scale):
        params, q, dec, traj, z0 = setup_case(p)
        rng = random.Random(p)
        for e in rng.sample(range(1, p), count):
            ze = lift_ciphertext(pow(params.m, e, p), params, q)
            assert_same_as_rounding([v + rng.gauss(0.0, scale * p) for v in ze], z0, dec, p)

    @pytest.mark.parametrize("p,q", [(7, 4), (11, 4), (13, 6)])
    def test_orders_not_matching_p(self, p, q):
        # random eigencoordinates, some zeroed, each turned by one exponent
        # or, for the last states, by two exponents that may conflict
        dec = eigen_canonical(p, q)
        rng = np.random.default_rng(p * q)
        for _ in range(20):
            coeffs = rng.standard_normal(dec.dimension) + 1j * rng.standard_normal(dec.dimension)
            coeffs[rng.random(dec.dimension) < 0.3] = 0.0
            z0 = eigen_state(dec, coeffs)
            for e in range(1, 2 * q + 1):
                assert_same_as_rounding(eigen_state(dec, coeffs, e), z0, dec, p)
            steps = rng.integers(1, 2 * q + 1, size=2)[rng.integers(0, 2, size=dec.dimension)]
            assert_same_as_rounding(eigen_state(dec, coeffs, steps), z0, dec, p)


class TestPerOrderMerge:
    """recover_exponent merges one residue per distinct eigenvalue order and
    checks every usable eigenvalue against the merged residue."""

    @pytest.mark.parametrize("p", [101, 127, 151, 199, 251, 307, 401, 1009])
    def test_one_crt_step_per_eigenvalue_order(self, p, monkeypatch):
        moduli = []
        original = spectral._crt

        def counting(r1, m1, r2, m2):
            moduli.append(m2)
            return original(r1, m1, r2, m2)

        monkeypatch.setattr(spectral, "_crt", counting)
        params, q, dec, traj, z0 = setup_case(p)
        for e in random.Random(p).sample(range(1, p), 5):
            moduli.clear()
            estimate = recover_exponent(lift_ciphertext(pow(params.m, e, p), params, q), z0, dec, p)
            assert estimate.e == e
            orders = [dec.turns[j].denominator for j, _, _ in estimate.per_eigenvalue_residues]
            assert len(orders) == q
            # the distinct orders, in order of first occurrence
            assert moduli == list(dict.fromkeys(orders))

    @pytest.mark.parametrize("p,q", [(7, 3), (11, 4), (13, 6), (23, 11), (31, 15), (61, 30)])
    def test_disagreement_within_an_order_and_dropped_indices(self, p, q):
        # random eigencoordinates, a few zeroed and, where another order is
        # left, every one of some order; turned by one exponent, or with the
        # first or the last eigenvalue of an order turned further than the rest
        dec = eigen_canonical(p, q)
        orders = dec.order
        distinct = sorted(set(orders[1:].tolist()))
        rng = np.random.default_rng(p * q)
        messages = set()
        for _ in range(10):
            coeffs = rng.standard_normal(dec.dimension) + 1j * rng.standard_normal(dec.dimension)
            zeroed = rng.random(dec.dimension) < 0.2
            if len(distinct) > 1:
                zeroed |= orders == rng.choice(distinct)
            coeffs[zeroed] = 0.0
            z0 = eigen_state(dec, coeffs)
            e = int(rng.integers(1, 2 * q + 1))
            states = [eigen_state(dec, coeffs, e)]
            for d in distinct:
                members = np.flatnonzero(orders == d)
                for k in {members[0], members[-1]} if members.size > 1 else ():
                    steps = np.full(dec.dimension, e)
                    steps[k] += int(rng.integers(1, d))
                    states.append(eigen_state(dec, coeffs, steps))
            for ze in states:
                got = outcome(recover_exponent, ze, z0, dec, p)
                assert got == outcome(recover_by_rounding, ze, z0, dec, p)
                assert got == outcome(recover_by_scan, ze, z0, dec, p)
                messages.add(got if isinstance(got, str) else "estimate")
        assert "eigenvalue constraints are mutually inconsistent" in messages
