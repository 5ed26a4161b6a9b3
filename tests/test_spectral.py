import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from conftest import PRIMES_TO_61, PRIMES_TO_199
from cyclotomic_oracle import cyclotomic_poly, poly_mul
from koopman_dh import cyclotomic, spectral
from koopman_dh.dynamics import (
    DhParams,
    all_primitive_roots,
    discrete_log_bruteforce,
    full_period_trajectory,
    is_prime,
)
from koopman_dh.lifting import canonical_alpha, lift_ciphertext, lift_shift
from koopman_dh.spectral import (
    RecoveryError,
    char_alpha,
    eigen_canonical,
    eigenpair_residuals_exact_zero,
    parity,
    recover_exponent,
)
from spectral_oracle import (
    ZERO,
    eigenpair_residual_float,
    eigenpair_residuals_by_rootsum,
    eigenvalues,
    g_of,
    mirror,
    recover_by_rounding,
    recover_by_scan,
    state_from_g,
    transform_exact,
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


def orders_of(dec):
    """The eigenvalue orders other than 1, ascending."""
    return sorted({t.denominator for t in dec.turns} - {1})


def class_states(dec, classes, base=(1,)):
    """(z_0, z_e) with G_0 = sum_i A_i and G_e = sum_i x^(t_i) A_i, where A_i
    is base times Phi_d for every eigenvalue order d outside the i-th class.

    classes lists disjoint (orders, t_i): at an order of class i the
    eigencoordinates turn by t_i steps, at an order in no class both vanish,
    and z_e[0] + z_e[q] = z_0[0] + z_0[q], as the coefficient sums of G_0 and
    G_e modulo x^q + 1 agree in parity.
    """
    g0, ge = [0], [0]
    for members, t in classes:
        a = list(base)
        for d in orders_of(dec):
            if d not in members:
                a = poly_mul(a, cyclotomic_poly(d))
        g0 = [x + y for x, y in zip(g0 + [0] * len(a), a + [0] * len(g0))]
        shifted = [0] * t + a
        ge = [x + y for x, y in zip(ge + [0] * len(shifted), shifted + [0] * len(ge))]
    z0 = state_from_g(g0, dec.q)
    return z0, state_from_g(ge, dec.q, fixed=z0[0] + z0[-1])


def outcome(recover, z_e, z_0, dec, p):
    """The estimate, or the error message up to its first colon."""
    try:
        return recover(z_e, z_0, dec, p)
    except RecoveryError as exc:
        return str(exc).split(":")[0]


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
        assert np.allclose(np.abs(eigenvalues(dec)), 1.0)

    def test_char_alpha_matches_canonical_at_threshold(self):
        assert char_alpha(3) == canonical_alpha(7, 3)
        assert char_alpha(11) == canonical_alpha(23, 11)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            eigen_canonical(9, 4)
        with pytest.raises(ValueError):
            eigen_canonical(7, 0)


class TestEigenSetupReference:
    """The turns, the orders and the word prime field against a build from
    Fraction turns and pow."""

    @pytest.mark.parametrize("p,q", [(5, 1), (5, 2), (7, 3), (11, 4), (11, 5), (23, 11), (29, 14)])
    def test_bit_equal_to_fraction_build(self, p, q):
        dec = eigen_canonical(p, q)
        turns = (F(0),) + tuple(F(2 * k + 1, 2 * q) for k in range(q))
        assert dec.turns == turns
        assert dec.order.tolist() == [t.denominator for t in turns]
        ell, orders, powers, log = dec._field
        n, top = 2 * q, isqrt((2**63 - 1) // (q + 1))
        # the largest prime ell = 1 (mod 2q) whose int64 sums are exact
        assert is_prime(ell) and ell % n == 1 and ell**2 * (q + 1) < 2**63
        assert not any(is_prime(c) for c in range(ell + n, top + 1, n))
        assert orders.tolist() == orders_of(dec)
        w = next(v for v, k in log.items() if k == 1)
        assert log == {pow(w, k, ell): k for k in range(n)}  # n distinct powers: order n
        assert pow(w, n, ell) == 1
        for d, row in zip(orders.tolist(), powers.tolist()):
            assert row == [pow(w, n // d * s, ell) for s in range(q)]


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
        exact = np.array([[complex(e) for e in row] for row in vinv_exact(q)])
        assert np.max(np.abs(exact - mirror(q)[2])) < 1e-12

    @pytest.mark.parametrize("p", [199, 401, 1009, 4001])
    def test_inverts_the_eigenvector_matrix(self, p):
        # in the library's field: the eigencoordinates G_z(l) / P'(l) at l^q = -1,
        # with P'(l) = -q (l - 1) / l, and (z[0] + z[q]) / 2 at 1, give z back
        # through the Vandermonde matrix, so they are Vinv z
        q = (p - 1) // 2
        dec = eigen_canonical(p, q)
        ell, _, _, log = dec._field
        pw = sorted(log, key=log.get)  # w^n for n < 2q
        l = np.array([pw[int(t * 2 * q)] for t in dec.turns], dtype=np.int64)
        rng = random.Random(p)
        z = [rng.randrange(-(10**6), 10**6) for _ in range(q + 1)]
        g, fixed = spectral._coefficients(z, q)
        at = np.zeros(q + 1, dtype=np.int64)  # G_z(l) by Horner's rule
        for c in (g % ell).tolist()[::-1]:
            at = (at * l + c) % ell
        derivative = [(-q * (v - 1) * pow(v, -1, ell)) % ell for v in l.tolist()[1:]]
        coords = [fixed * pow(2, -1, ell) % ell]
        coords += [a * pow(d, -1, ell) % ell for a, d in zip(at.tolist()[1:], derivative)]
        column, back = np.array(coords, dtype=np.int64), []
        for _ in range(q + 1):  # entry r of V c is sum_j l_j^r c_j
            back.append(int(column.sum() % ell))
            column = column * l % ell
        assert back == [v % ell for v in z]


class TestTransform:
    """The state transform z -> (G_z modulo x^q + 1, z[0] + z[q]) that recovery reads."""

    def test_round_trip(self):
        params, q, dec, traj, z0 = setup_case(5)
        g, fixed = spectral._coefficients(z0, q)
        assert state_from_g(g.tolist(), q, fixed) == list(z0)
        # and through the floating mirror: V (G_z(l) / P'(l)) = z
        lam, v, _ = mirror(q)
        coords = [fixed / 2] + [
            np.polyval(g.tolist()[::-1], x) * x / (-q * (x - 1)) for x in lam[1:].tolist()
        ]
        assert np.max(np.abs(v @ np.array(coords) - np.asarray(z0))) < 1e-9

    def test_zero_vector(self):
        g, fixed = spectral._coefficients([0, 0, 0], 2)
        assert g.tolist() == [0, 0] and fixed == 0

    def test_dimension_mismatch(self):
        params, q, dec, traj, z0 = setup_case(5)
        with pytest.raises(ValueError):
            recover_exponent([1, 2], z0, dec, 5)
        with pytest.raises(ValueError):
            parity(z0, [1, 2], dec)

    def test_diagonal_propagation_float(self):
        # z~_e = Lambda^e z~_0 for the true exponent, in the floating mirror
        params, q, dec, traj, z0 = setup_case(7)
        lam, _, vinv = mirror(q)
        e = 4
        ze = lift_ciphertext(pow(params.m, e, 7), params, q)
        lhs = vinv @ np.asarray(ze, dtype=complex)
        rhs = (lam**e) * (vinv @ np.asarray(z0, dtype=complex))
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    @pytest.mark.parametrize("p", [5, 7])
    def test_diagonal_propagation_exact(self, p):
        # the exact eigencoordinates rotate by e times the eigenvalue turn, and
        # G_e is x^e G_0 modulo x^q + 1
        params, q, dec, traj, z0 = setup_case(p)
        for e in (1, 2, p - 1):
            ze = lift_shift(traj, q, e)
            lhs = transform_exact(ze, q)
            rhs = [coord.rotated(t * e) for coord, t in zip(transform_exact(z0, q), dec.turns)]
            assert all((a - b).is_zero() for a, b in zip(lhs, rhs))
            turned = state_from_g([0] * e + g_of(list(z0)), q, z0[0] + z0[q])
            assert turned == list(ze)

    def test_conservation_of_magnitudes(self):
        params, q, dec, traj, z0 = setup_case(23)
        _, _, vinv = mirror(q)
        zt0 = np.abs(vinv @ np.asarray(z0, dtype=complex))
        for e in (1, 7, 22):
            zte = vinv @ np.asarray(lift_shift(traj, q, e), dtype=complex)
            assert np.max(np.abs(np.abs(zte) - zt0)) < 1e-9

    @pytest.mark.parametrize("p", [23, 199, 1009])
    def test_equals_the_complex_product_on_every_input_kind(self, p):
        # every integer input kind gives the Python-int differences exactly, and
        # on the orbit states their eigencoordinates are the complex128 product
        # of the mirror's Vinv with the state
        params, q, dec, traj, z0 = setup_case(p)
        ze = lift_ciphertext(pow(params.m, p // 3, p), params, q)
        wide = [v << (40 + k % 13) | k for k, v in enumerate(ze)]  # past 2^62 / (q + 1)
        big = [v * 2**70 + k for k, v in enumerate(ze)]  # past uint64
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
            [2**63 + v if k % 2 else -v for k, v in enumerate(ze)],  # numpy makes it float64
            np.array([np.int64(v) for v in ze], dtype=object),
            # int64 entries whose differences and sums would wrap in int64
            np.array([(2**62 + v) * (-1) ** k for k, v in enumerate(ze)], dtype=np.int64),
        ]
        assert {np.asarray(z).dtype.kind for z in states} == set("biufO")
        for z in states:
            ints = [int(v) for v in np.asarray(z, dtype=object).tolist()]
            g, fixed = spectral._coefficients(z, q)
            assert g.tolist() == [ints[q - s] - ints[q - 1 - s] for s in range(q)]
            assert fixed == ints[0] + ints[q]
        lam, _, vinv = mirror(q)
        for z in (z0, ze):
            g, fixed = spectral._coefficients(z, q)
            at = np.polyval(g.tolist()[::-1], lam[1:])
            coords = np.concatenate(([fixed / 2], at * lam[1:] / (-q * (lam[1:] - 1))))
            product = vinv @ np.asarray(z, dtype=complex)
            assert np.max(np.abs(coords - product)) <= 1e-9 * np.max(np.abs(product))

    @pytest.mark.parametrize("p", [23, 199, 1009])
    def test_dimension_message_on_every_input_kind(self, p):
        params, q, dec, traj, z0 = setup_case(p)
        n = q + 1
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
            for call in (lambda z: recover_exponent(z, z0, dec, p), lambda z: parity(z, z0, dec)):
                with pytest.raises(ValueError) as info:
                    call(z)
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
        # one integer scale on both states, as Python ints past int64 too,
        # leaves every eigencoordinate ratio; a scale on one state alone does not
        params, q, dec, traj, z0 = setup_case(11)
        ze = lift_shift(traj, q, 7)
        want = recover_exponent(ze, z0, dec, 11)
        assert want.e == 7
        for scale in (3, -5, 2**40, 2**70, -(2**70) - 1):
            scaled = recover_exponent([scale * v for v in ze], [scale * v for v in z0], dec, 11)
            assert scaled == want, scale
            with pytest.raises(RecoveryError):
                recover_exponent([scale * v for v in ze], z0, dec, 11)

    def test_residue_evidence_consistent(self):
        params, q, dec, traj, z0 = setup_case(11)
        e = 7
        estimate = recover_exponent(lift_shift(traj, q, e), z0, dec, 11)
        assert [j for j, _ in estimate.per_eigenvalue_residues] == list(range(1, q + 1))
        for j, t in estimate.per_eigenvalue_residues:
            order = dec.turns[j].denominator
            assert 0 <= t < order and (e - t) % order == 0

    def test_off_orbit_state_raises(self):
        params, q, dec, traj, z0 = setup_case(7)
        with pytest.raises(RecoveryError):
            recover_exponent([1, 100, -3, 5], z0, dec, 7)

    def test_all_coordinates_vanishing_raises(self):
        dec = eigen_canonical(7, 3)
        with pytest.raises(RecoveryError):
            recover_exponent([0, 0, 0, 0], [0, 0, 0, 0], dec, 7)

    @pytest.mark.parametrize("p", [7, 23, 101])
    def test_equal_mod_ell_fails_the_certificate(self, p):
        # a state equal to the true one modulo ell reads the same residues in F_ell;
        # only the certificate over the integers tells it apart
        params, q, dec, traj, z0 = setup_case(p)
        ell = dec._field[0]
        rng = random.Random(p)
        for e in rng.sample(range(1, p), min(p - 1, 6)):
            ze = list(lift_shift(traj, q, e))
            k = rng.randrange(q + 1)
            for step in (ell, -ell, ell**3):
                moved = ze[:k] + [ze[k] + step] + ze[k + 1 :]
                with pytest.raises(RecoveryError, match="certificate failed"):
                    recover_exponent(moved, z0, dec, p)
            assert recover_exponent(ze, z0, dec, p).e == e

    @pytest.mark.parametrize("p,q", [(13, 6), (23, 11), (101, 50), (61, 30)])
    def test_start_vanishing_mod_ell_moves_to_the_next_prime(self, p, q):
        # G_0 = x - w_d vanishes at w_d modulo ell, but Phi_d does not divide it:
        # the start is read in the next prime, and dec keeps its own field
        dec = eigen_canonical(p, q)
        ell, orders, powers, _ = dec._field
        for i, d in enumerate(orders.tolist()):
            g0 = [-int(powers[i, 1]), 1]
            z0 = tuple(state_from_g(g0, q))  # dec keeps a tuple start
            g, _ = spectral._coefficients(z0, q)
            assert int(powers[i] @ (g % ell) % ell) == 0
            for e in (1, 2, 2 * q - 1):
                ze = state_from_g([0] * e + g0, q, z0[0] + z0[q])
                estimate = recover_exponent(ze, z0, dec, 2 * q + 1)
                assert estimate == recover_by_scan(ze, z0, dec, 2 * q + 1)
                assert estimate.e == e
                moved = dec._start[1][0]
                assert moved < ell and moved % (2 * q) == 1 and is_prime(moved)
            assert dec._field[0] == ell


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
        # a ratio at -1 other than +1 or -1 is no parity either
        params, q, dec, traj, z0 = setup_case(7)
        with pytest.raises(RecoveryError, match="not \\+1 or -1"):
            parity([2 * v for v in z0], z0, dec)

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
    """warm on a decomposition that has seen no start state, so the start is
    prepared afresh: the answer without the start memo."""
    return warm(call, z_e, z_0, eigen_canonical(p, (p - 1) // 2), *rest)


class TestPreparedStart:
    """The decomposition keeps what recovery needs of the last start state."""

    @pytest.mark.parametrize("p", [7, 11, 13, 23, 101])
    def test_hit_equals_cold_estimate(self, p):
        params, q, dec, traj, z0 = setup_case(p)
        recover_exponent(z0, z0, dec, p)
        for e in range(1, p):
            ze = lift_ciphertext(pow(params.m, e, p), params, q)
            hit = recover_exponent(ze, z0, dec, p)
            assert dec._start[0] is z0
            # dataclass == compares e, parity and every (j, t)
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
            [3 * v for v in z0],
            [-(2**70) * v for v in z0],
            list(z0),
            np.array(z0),
            np.array(z0, dtype=object),
            [v / 1 for v in z0],  # equal values as floats: no integer state
            [0] * (q + 1),
        ]
        rng = random.Random(p)
        for _ in range(80):
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
                parity(ze, (0, 0, 0, 0), dec)
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
        starts = [z0, lift_shift(traj, q, 5), [3 * v for v in z0]]
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
        original = spectral._coefficients

        def counting(z, q):
            calls.append(z)
            return original(z, q)

        monkeypatch.setattr(spectral, "_coefficients", counting)
        params, q, dec, traj, z0 = setup_case(23)
        k = 7
        for e in range(1, k + 1):
            recover_exponent(lift_ciphertext(pow(params.m, e, 23), params, q), z0, dec, 23)
        assert len(calls) == k + 1
        parity(z0, list(z0), dec)
        # an equal list is prepared anew and leaves the kept tuple start as it is
        assert len(calls) == k + 3
        assert dec._start[0] is z0

    def test_equal_list_start_is_prepared_on_every_call(self):
        params, q, dec, traj, z0 = setup_case(23)
        ze = lift_ciphertext(pow(params.m, 5, 23), params, q)
        assert recover_exponent(ze, z0, dec, 23).e == 5
        kept = dec._start
        starts = [list(z0), list(z0)]
        prepared = [spectral._prepared_start(start, dec) for start in starts]
        for fresh in prepared:
            # the list's own arrays, not the kept tuple's
            assert all(a is not b for a, b in zip(fresh[1:5], kept[2:6]))
            assert all(np.array_equal(a, b) for a, b in zip(fresh[1:5], kept[2:6]))
        assert prepared[0][4] is not prepared[1][4]
        assert all(recover_exponent(ze, start, dec, 23).e == 5 for start in starts)
        assert dec._start is kept and dec._start[0] is z0


class TestRecoverAgainstScan:
    """recover_exponent against the exact scan over powers and exponents."""

    @pytest.mark.parametrize(
        "p,count", [(5, 4), (7, 6), (11, 10), (23, 22), (61, 12), (101, 8), (199, 4), (401, 2)]
    )
    def test_sampled_exponents_and_perturbed_states(self, p, count):
        # moving entries by +-1 takes a state off the orbit; moving all of them
        # by the same step moves only the eigencoordinate at 1
        params, q, dec, traj, z0 = setup_case(p)
        rng = random.Random(p)
        for e in rng.sample(range(1, p), count):
            ze = list(lift_ciphertext(pow(params.m, e, p), params, q))
            assert outcome(recover_exponent, ze, z0, dec, p) == recover_by_scan(ze, z0, dec, p)
            everywhere = list(range(q + 1))
            one = [rng.randrange(1, q + 1)]
            for moves in ([0], [q], one, rng.sample(everywhere, 2), everywhere):
                z, step = list(ze), rng.choice((1, -1))
                for k in moves:
                    z[k] += step if moves is everywhere else rng.choice((1, -1))
                got = outcome(recover_exponent, z, z0, dec, p)
                assert isinstance(got, str), (p, e, moves)
                assert got == outcome(recover_by_scan, z, z0, dec, p), (p, e, moves)

    def test_one_eigenpair_leaves_several_exponents(self):
        # p = 13, q = 6: G_0 = Phi_12 vanishes at the order-12 eigenvalues, so
        # the order-4 pair fixes e only mod 4: three exponents in [1, 12]
        dec = eigen_canonical(13, 6)
        for e in range(1, 13):
            z0, ze = class_states(dec, [({4}, e)])
            got = outcome(recover_exponent, ze, z0, dec, 13)
            assert got == "constraints leave 3 admissible exponents"
            assert got == outcome(recover_by_scan, ze, z0, dec, 13)

    def test_order_not_matching_p(self):
        # 2q = 8 does not divide p - 1 = 10: e and e + 8 both lie in [1, 10]
        # for e = 1, 2, and the count must come out exact
        dec = eigen_canonical(11, 4)
        for e in range(1, 11):
            z0, ze = class_states(dec, [({8}, e)], base=(2, -1, 3))
            got = outcome(recover_exponent, ze, z0, dec, 11)
            assert got == outcome(recover_by_scan, ze, z0, dec, 11)
            if e % 8 in (1, 2):
                assert got == "constraints leave 2 admissible exponents"
            else:
                assert got.e == e

    def test_non_finite_state_raises(self):
        # floats (finite, integral, infinite or NaN), complex numbers and other
        # numbers are no integer state, whichever of the two states they are in
        params, q, dec, traj, z0 = setup_case(7)
        for bad in (float("nan"), float("inf"), 2.0, 1.5, 1j, F(1, 2), None, "1"):
            state = [bad, 1, 2, 3]
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="integers"):
                recover_exponent(state, z0, dec, 7)
            with pytest.raises(ValueError, match="integers"):
                recover_exponent(z0, state, dec, 7)
            with pytest.raises(ValueError, match="integers"):
                parity(state, z0, dec)
        assert recover_exponent(z0, z0, dec, 7).e == 6

    def test_constraints_inconsistent_or_outside_range(self):
        # p = 7, q = 4: the one order 8 exceeds p - 1, so e = 7 and 8 give
        # consistent residues 7 and 0 mod 8 that no exponent in [1, 6] meets
        dec = eigen_canonical(7, 4)
        for e in (7, 8):
            z0, ze = class_states(dec, [({8}, e)], base=(1, 1, 2))
            got = outcome(recover_exponent, ze, z0, dec, 7)
            assert got == "no exponent in [1, p-1] meets the eigenvalue constraints"
            assert got == outcome(recover_by_scan, ze, z0, dec, 7)
        # p = 13, q = 6: orders 12 and 4 turned 1 and 2 steps conflict mod gcd = 4
        dec = eigen_canonical(13, 6)
        z0, ze = class_states(dec, [({12}, 1), ({4}, 2)])
        got = outcome(recover_exponent, ze, z0, dec, 13)
        assert got == "eigenvalue constraints are mutually inconsistent"
        assert got == outcome(recover_by_scan, ze, z0, dec, 13)


def assert_same_as_rounding(z_e, z_0, dec, p):
    """Equal estimates, with e, parity and every (j, t) compared by ==, or
    equal error messages, against the floating rounding loop."""
    assert outcome(recover_exponent, z_e, z_0, dec, p) == outcome(
        recover_by_rounding, z_e, z_0, dec, p
    ), p


class TestRecoverAgainstRounding:
    """The exact path against the per-eigenvalue float rounding loop it replaced."""

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
        # a share `scale` of the entries, at least one, moved by +-1: the
        # rounding loop may still round such a state onto the orbit, but the
        # exact path refuses it, as the exact scan does
        params, q, dec, traj, z0 = setup_case(p)
        rng = random.Random(p)
        for e in rng.sample(range(1, p), count):
            z = list(lift_ciphertext(pow(params.m, e, p), params, q))
            for k in rng.sample(range(q + 1), max(1, round(scale * (q + 1)))):
                z[k] += rng.choice((1, -1))
            got = outcome(recover_exponent, z, z0, dec, p)
            assert isinstance(got, str) and got == outcome(recover_by_scan, z, z0, dec, p)

    @pytest.mark.parametrize("p,q", [(7, 4), (11, 4), (13, 6)])
    def test_orders_not_matching_p(self, p, q):
        # random integer G_0, some orders vanishing, each order turned by one
        # exponent or, for the last states, by two exponents that may conflict
        dec = eigen_canonical(p, q)
        orders = orders_of(dec)
        rng = random.Random(p * q)
        for _ in range(20):
            base = [rng.randint(-9, 9) for _ in range(3)] + [rng.randint(1, 9)]
            kept = {d for d in orders if rng.random() < 0.7}
            for e in range(1, 2 * q + 1):
                z0, ze = class_states(dec, [(kept, e)], base)
                assert_same_as_rounding(ze, z0, dec, p)
                assert outcome(recover_exponent, ze, z0, dec, p) == outcome(
                    recover_by_scan, ze, z0, dec, p
                )
            split = rng.sample(orders, rng.randint(0, len(orders)))
            classes = [(set(split), rng.randint(1, 2 * q)), (set(orders) - set(split), 1)]
            z0, ze = class_states(dec, classes, base)
            assert_same_as_rounding(ze, z0, dec, p)


class TestPerOrderMerge:
    """recover_exponent merges one residue per usable eigenvalue order."""

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
            orders = [dec.turns[j].denominator for j, _ in estimate.per_eigenvalue_residues]
            assert len(orders) == q
            # the distinct orders, ascending
            assert moduli == sorted(set(orders))

    @pytest.mark.parametrize("p,q", [(7, 3), (11, 4), (13, 6), (23, 11), (31, 15), (61, 30)])
    def test_disagreement_within_an_order_and_dropped_indices(self, p, q):
        # integer states with some orders dropped (G_0 vanishes there), turned
        # by one exponent, or with one order turned further than the rest, or
        # with a ratio at one order that is no power at all. An integer state
        # cannot turn the conjugate eigenvalues of one order by different steps
        # (the ratio G_e / G_0 modulo Phi_d is one element of Q(w_d)), so a
        # disagreement within an order shows as a ratio that is no power
        dec = eigen_canonical(p, q)
        orders = orders_of(dec)
        rng = random.Random(p * q)
        messages = set()
        for _ in range(10):
            base = [rng.randint(-9, 9) for _ in range(2)] + [rng.randint(1, 9)]
            kept = set(orders)
            if len(orders) > 1 and rng.random() < 0.5:
                kept -= {rng.choice(orders)}
            e = rng.randint(1, 2 * q)
            states = [class_states(dec, [(kept, e)], base)]
            for d in kept:
                further = e + rng.randint(1, d - 1)
                states.append(class_states(dec, [(kept - {d}, e), ({d}, further)], base))
                z0, ze = states[0]
                nudge = [2]  # vanishes at every order but d, where it breaks the ratio
                for other in orders:
                    if other != d:
                        nudge = poly_mul(nudge, cyclotomic_poly(other))
                g = [a + b for a, b in zip(g_of(ze) + [0] * len(nudge), nudge + [0] * (q + 1))]
                states.append((z0, state_from_g(g, q, ze[0] + ze[-1])))
            for z0, ze in states:
                got = outcome(recover_exponent, ze, z0, dec, p)
                assert got == outcome(recover_by_scan, ze, z0, dec, p)
                messages.add(got if isinstance(got, str) else "estimate")
        assert "estimate" in messages
        assert any(m.startswith("eigenvalue order") for m in messages)
        if len(orders) > 1:
            assert "eigenvalue constraints are mutually inconsistent" in messages
