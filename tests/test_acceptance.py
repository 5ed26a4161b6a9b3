"""Acceptance suite: every criterion at its stated scope and tolerance.

All claims are exact algebraic identities at desk scale, so almost every
assertion is an exact integer/rational comparison, exponent recovery
included; the only floating checks are criterion 10's declared mirrors
(1e-9), which the test computes from the exact turns. Run with
`pytest tests/test_acceptance.py -v -s` to see one PASS line per criterion.
"""

import json
import random
from fractions import Fraction

import numpy as np

from conftest import PRIMES_TO_61, PRIMES_TO_199
from lifting_oracle import minimal_lifting_dimension_scan
from koopman_dh.cli import main as cli_main
from koopman_dh.complexity import SequenceSample, berlekamp_massey
from koopman_dh.cyclotomic import cyclotomic_degree
from koopman_dh.dynamics import (
    DhParams,
    all_primitive_roots,
    discrete_log_bruteforce,
    full_period_trajectory,
    shared_secret_intersection,
    simulate,
)
from koopman_dh.edmd import compare_on_values, dataset_from_values, edmd_fit
from koopman_dh.lifting import (
    additive_complex_lift,
    affine_augment_system,
    canonical_alpha,
    closing_divisors,
    full_period_alpha,
    lift_ciphertext,
    lift_shift,
    minimal_lifting_dimension,
    verify_closing,
)
from koopman_dh.spectral import (
    eigen_canonical,
    eigenpair_residuals_exact_zero,
    parity,
    recover_exponent,
)
from spectral_oracle import eigenpair_residual_float, eigenvalues

F = Fraction


def test_criterion_1_minimal_dimension_theorem():
    """The minimal lifting dimension from cyclotomic factors, the brute-force
    Hankel scan oracle and (p-1)/2 + 1 all agree for every prime
    5 <= p <= 61 and every primitive root."""
    checked = 0
    for p in PRIMES_TO_61:
        expected = (p - 1) // 2 + 1
        for m in all_primitive_roots(p):
            params = DhParams(p, m)
            library = minimal_lifting_dimension(params)
            assert library == minimal_lifting_dimension_scan(params) == expected, (p, m)
            checked += 1
    print(
        f"PASS criterion 1: minimal dimension law (library == scan oracle) on {checked} "
        f"(p, m) pairs up to p=61"
    )


def test_criterion_1_certificate_at_10007():
    """Criterion 1's certificate at p = 10007, smallest generator 5: the
    surviving cyclotomic factors of one period have degrees summing to
    (p-1)/2 + 1, the lower bound, and the canonical coefficients of that
    order close over the whole period, the upper bound."""
    params = DhParams.with_smallest_root(10007)
    p, q = params.p, params.q_tilde
    assert params.m == 5
    traj = full_period_trajectory(params)
    divisors = closing_divisors(traj.values[: p - 1])
    assert divisors == (1, 2, 10006)
    assert sum(map(cyclotomic_degree, divisors)) == q + 1 == 5004
    assert verify_closing(traj, canonical_alpha(p, q))
    print(
        f"PASS criterion 1 at p = {p}: the factors Phi_d, d in {divisors}, have degrees summing to "
        f"(p-1)/2 + 1 = {q + 1}, and the canonical recurrence of that order closes (m = {params.m})"
    )


def test_criterion_2_closing_condition_two_periods():
    """Canonical coefficients satisfy the integer recurrence for all k over
    two periods, primes up to 199, smallest root. Exact, no tolerance."""
    for p in PRIMES_TO_199:
        params = DhParams.with_smallest_root(p)
        q = params.q_tilde
        alpha = canonical_alpha(p, q)
        traj = simulate(params.m, params, 1, 2 * (p - 1) + q + 1)
        for k in range(2 * (p - 1)):
            lhs = traj.values[k + q + 1]
            rhs = sum(int(a) * traj.values[k + j] for j, a in enumerate(alpha))
            assert lhs == rhs, (p, k)
    print(f"PASS criterion 2: integer closing identity over two periods, {len(PRIMES_TO_199)} primes up to 199")


def test_criterion_3_exponent_recovery_totality():
    """Spectral recovery returns every e in [1, p-1] for p in {5, 7, 11, 23,
    101, 199, 401}, matching the brute-force oracle exactly."""
    total = 0
    for p in (5, 7, 11, 23, 101, 199, 401):
        params = DhParams.with_smallest_root(p)
        q = params.q_tilde
        dec = eigen_canonical(p, q)
        z0 = lift_shift(full_period_trajectory(params), q, 0)
        for e in range(1, p):
            c = pow(params.m, e, p)
            estimate = recover_exponent(lift_ciphertext(c, params, q), z0, dec, p)
            assert estimate.e == e == discrete_log_bruteforce(c, params), (p, e)
            total += 1
    print(f"PASS criterion 3: exact recovery of all {total} exponents across p in {{5,7,11,23,101,199,401}}")


def test_criterion_4_parity():
    """The eigenvalue -1 decides e mod 2 for every p = 3 (mod 4) up to 199;
    for p = 1 (mod 4) parity is reported unavailable."""
    available = unavailable = 0
    for p in PRIMES_TO_199:
        params = DhParams.with_smallest_root(p)
        q = params.q_tilde
        dec = eigen_canonical(p, q)
        traj = full_period_trajectory(params)
        z0 = lift_shift(traj, q, 0)
        if p % 4 == 3:
            for e in range(1, p):
                got = parity(lift_shift(traj, q, e), z0, dec)
                assert got == ("even" if e % 2 == 0 else "odd"), (p, e, got)
                available += 1
        else:
            assert parity(lift_shift(traj, q, 3), z0, dec) == "unavailable", p
            unavailable += 1
    print(f"PASS criterion 4: parity exact on {available} cases, unavailable on {unavailable} primes = 1 (mod 4)")


def test_criterion_3_exponent_recovery_at_1009():
    """Criterion 3 at p = 1009, smallest generator: spectral recovery returns
    every e in [1, p-1], matching the brute-force oracle exactly."""
    params = DhParams.with_smallest_root(1009)
    p, q = params.p, params.q_tilde
    dec = eigen_canonical(p, q)
    z0 = lift_shift(full_period_trajectory(params), q, 0)
    for e in range(1, p):
        c = pow(params.m, e, p)
        estimate = recover_exponent(lift_ciphertext(c, params, q), z0, dec, p)
        assert estimate.e == e == discrete_log_bruteforce(c, params), e
    print(f"PASS criterion 3 at p = {p}: exact recovery of all {p - 1} exponents, smallest generator m = {params.m}")


def test_criterion_4_parity_at_1019():
    """Criterion 4 at p = 1019 = 3 (mod 4), smallest generator: the eigenvalue
    -1 decides e mod 2 for every e in [1, p-1]."""
    params = DhParams.with_smallest_root(1019)
    p, q = params.p, params.q_tilde
    dec = eigen_canonical(p, q)
    traj = full_period_trajectory(params)
    z0 = lift_shift(traj, q, 0)
    for e in range(1, p):
        assert parity(lift_shift(traj, q, e), z0, dec) == ("even" if e % 2 == 0 else "odd"), e
    print(f"PASS criterion 4 at p = {p}: parity exact on all {p - 1} exponents, smallest generator m = {params.m}")


def exponents_at_10007():
    """The smallest generator 5 of p = 10007, and 100 seeded exponents plus 1, 2, p-2, p-1."""
    params = DhParams.with_smallest_root(10007)
    assert params.m == 5
    p = params.p
    return params, sorted(set(random.Random(p).sample(range(3, p - 2), 100)) | {1, 2, p - 2, p - 1})


def test_criterion_3_exponent_recovery_at_10007():
    """Criterion 3 at p = 10007, generator 5: exact spectral recovery of 104
    exponents (100 seeded, and both ends of the range), each matching the
    brute-force oracle."""
    params, exponents = exponents_at_10007()
    p, q = params.p, params.q_tilde
    dec = eigen_canonical(p, q)
    z0 = lift_shift(full_period_trajectory(params), q, 0)
    for e in exponents:
        c = pow(params.m, e, p)
        estimate = recover_exponent(lift_ciphertext(c, params, q), z0, dec, p)
        assert estimate.e == e == discrete_log_bruteforce(c, params), e
        assert len(estimate.per_eigenvalue_residues) == q
    print(f"PASS criterion 3 at p = {p}: exact recovery of {len(exponents)} exponents, m = {params.m}")


def test_criterion_4_parity_at_10007():
    """Criterion 4 at p = 10007 = 3 (mod 4), generator 5: q = 5003 is odd, so
    the eigenvalue -1 decides e mod 2 on the same 104 exponents."""
    params, exponents = exponents_at_10007()
    p, q = params.p, params.q_tilde
    assert q % 2 == 1
    dec = eigen_canonical(p, q)
    traj = full_period_trajectory(params)
    z0 = lift_shift(traj, q, 0)
    for e in exponents:
        assert parity(lift_shift(traj, q, e), z0, dec) == ("even" if e % 2 == 0 else "odd"), e
    print(f"PASS criterion 4 at p = {p}: parity exact on {len(exponents)} exponents, m = {params.m}")


def test_criterion_10_eigenstructure_at_10007():
    """Criterion 10's exact check at q = 5003: the eigenvalues are 1 and the
    odd-index 10006-th roots of unity, of orders 1, 2 and 10006, and the
    eigenpair residual is exactly zero."""
    p, q = 10007, 5003
    dec = eigen_canonical(p, q)
    assert dec.turns == (F(0),) + tuple(F(2 * k + 1, 2 * q) for k in range(q))
    assert {t.denominator for t in dec.turns} == {1, 2, 2 * q}
    assert eigenpair_residuals_exact_zero(dec)
    print(f"PASS criterion 10 at p = {p}: exact eigenstructure at q = {q}")


def test_criterion_5_edmd_exactness():
    """At q = (p-1)/2 the fitted operator equals the canonical companion
    entrywise with residual exactly 0; at q = p-2 prediction equivalence
    over two periods is exact (entrywise equality recorded, not asserted)."""
    entrywise_at_full = []
    for p in PRIMES_TO_61:
        params = DhParams.with_smallest_root(p)
        traj = full_period_trajectory(params)
        qt = params.q_tilde
        horizon = 2 * (p - 1)
        values = [traj.value_at(i) for i in range(horizon + p - 1)]
        fitted = edmd_fit(dataset_from_values(values, qt, qt + 1))
        assert fitted.residual_sq == 0, p
        comparison = compare_on_values(fitted, canonical_alpha(p, qt), values, horizon)
        assert comparison.entrywise_equal and comparison.prediction_equivalent, p

        full = edmd_fit(dataset_from_values(values, p - 2, qt + 1))
        assert full.residual_sq == 0, p
        comparison_full = compare_on_values(full, full_period_alpha(p), values, horizon)
        assert comparison_full.prediction_equivalent, p
        entrywise_at_full.append(comparison_full.entrywise_equal)
    observed = sum(entrywise_at_full)
    print(
        f"PASS criterion 5: exact operator at q=(p-1)/2 for {len(PRIMES_TO_61)} primes; "
        f"q=p-2 prediction exact, entrywise equality observed in {observed}/{len(entrywise_at_full)} cases (recorded)"
    )


def test_criterion_6_rank_law():
    """rank(Z) = (p-1)/2 + 1 under the data-richness condition and
    rank(Z) <= (p-1)/2 + 1 always, exactly, for p <= 61 and q in
    [(p-1)/2, p-2]."""
    cases = 0
    for p in PRIMES_TO_61:
        params = DhParams.with_smallest_root(p)
        traj = full_period_trajectory(params)
        qt = params.q_tilde
        values = [traj.value_at(i) for i in range(2 * (p - 1))]
        for q in range(qt, p - 1):
            ds = dataset_from_values(values, q, qt + 1)
            assert ds.rank_z == qt + 1, (p, q, ds.rank_z)
            cases += 1
        for q in (0, qt // 2, qt - 1):
            ds = dataset_from_values(values, q, p - 1)
            assert ds.rank_z <= qt + 1, (p, q)
    print(f"PASS criterion 6: exact rank law on {cases} (p, q) cases up to p=61")


DESK_SCALE_EDMD_PRIMES = (101, 199)


def check_edmd_exactness(p):
    """Criterion 5 at p, smallest generator: at q = (p-1)/2 the fit is
    unique and equals the canonical companion entrywise with residual
    exactly 0; at q = p-2 it is of minimum norm with residual exactly 0 and
    exact predictions over two periods. Returns whether the q = p-2 fit is
    also entrywise equal to the full-period companion (recorded only)."""
    params = DhParams.with_smallest_root(p)
    traj = full_period_trajectory(params)
    qt = params.q_tilde
    horizon = 2 * (p - 1)
    values = [traj.value_at(i) for i in range(horizon + p - 1)]
    fitted = edmd_fit(dataset_from_values(values, qt, qt + 1))
    assert fitted.fit_kind == "unique" and fitted.residual_sq == 0, p
    comparison = compare_on_values(fitted, canonical_alpha(p, qt), values, horizon)
    assert comparison.entrywise_equal and comparison.prediction_equivalent, p

    full = edmd_fit(dataset_from_values(values, p - 2, qt + 1))
    assert full.fit_kind == "minimum-norm" and full.residual_sq == 0, p
    comparison_full = compare_on_values(full, full_period_alpha(p), values, horizon)
    assert comparison_full.prediction_equivalent, p
    return comparison_full.entrywise_equal


def check_rank_law(p, qs):
    """Criterion 6 at p, smallest generator: rank(Z) = (p-1)/2 + 1 exactly
    for each q in qs (all at least (p-1)/2) under the data-richness
    condition, and rank(Z) <= (p-1)/2 + 1 below it. Returns the count of
    exact cases."""
    params = DhParams.with_smallest_root(p)
    traj = full_period_trajectory(params)
    qt = params.q_tilde
    values = [traj.value_at(i) for i in range(2 * (p - 1))]
    for q in qs:
        ds = dataset_from_values(values, q, qt + 1)
        assert ds.rank_z == qt + 1, (p, q, ds.rank_z)
    for q in (0, qt // 2, qt - 1):
        ds = dataset_from_values(values, q, p - 1)
        assert ds.rank_z <= qt + 1, (p, q)
    return len(qs)


def test_criterion_5_edmd_exactness_at_101_and_199():
    """Criterion 5 at p = 101 and 199, smallest generator: at q = (p-1)/2
    the fitted operator equals the canonical companion entrywise with
    residual exactly 0; at q = p-2 the residual is exactly 0 and predictions
    over two periods are exact (entrywise equality recorded, not asserted)."""
    entrywise_at_full = [check_edmd_exactness(p) for p in DESK_SCALE_EDMD_PRIMES]
    print(
        f"PASS criterion 5 at desk scale: exact operator at q=(p-1)/2 for p in "
        f"{DESK_SCALE_EDMD_PRIMES}; q=p-2 prediction exact over two periods, "
        f"entrywise equality observed in "
        f"{sum(entrywise_at_full)}/{len(entrywise_at_full)} cases (recorded)"
    )


def test_criterion_6_rank_law_at_101_and_199():
    """Criterion 6 at p = 101 and 199, smallest generator: rank(Z) =
    (p-1)/2 + 1 exactly for every q in [(p-1)/2, p-2] under the
    data-richness condition, and rank(Z) <= (p-1)/2 + 1 below it."""
    cases = sum(check_rank_law(p, range((p - 1) // 2, p - 1)) for p in DESK_SCALE_EDMD_PRIMES)
    print(
        f"PASS criterion 6 at desk scale: exact rank law on {cases} (p, q) cases "
        f"for p in {DESK_SCALE_EDMD_PRIMES}"
    )


def test_criterion_5_edmd_exactness_at_401():
    """Criterion 5 at p = 401, smallest generator (m = 3): the unique fit at
    q = 200 is the companion matrix entry by entry with residual 0; the
    minimum-norm fit at q = 399 has residual 0 and exact predictions over
    two periods (entrywise equality recorded, not asserted)."""
    entrywise = check_edmd_exactness(401)
    print(
        "PASS criterion 5 at p=401: exact unique operator at q=200; minimum-norm fit at "
        f"q=399 with residual 0 and predictions exact over two periods, entrywise equality "
        f"{'observed' if entrywise else 'not observed'} (recorded)"
    )


def test_criterion_5_edmd_exactness_at_1009():
    """Criterion 5 at p = 1009, smallest generator (m = 11): the unique fit at
    q = 504 is the companion matrix entry by entry with residual 0; the
    minimum-norm fit at q = 1007 has residual 0 and exact predictions over
    two periods (entrywise equality recorded, not asserted). Both fits come
    from the data's certified register, with no elimination."""
    entrywise = check_edmd_exactness(1009)
    print(
        "PASS criterion 5 at p=1009: exact unique operator at q=504; minimum-norm fit at "
        f"q=1007 with residual 0 and predictions exact over two periods, entrywise equality "
        f"{'observed' if entrywise else 'not observed'} (recorded)"
    )


def test_criterion_6_rank_law_at_401():
    """Criterion 6 at p = 401, smallest generator (m = 3): rank(Z) = 201
    exactly at every eighth q from 200 and at q = 399 under the
    data-richness condition, and rank(Z) <= 201 below it. Every q in
    [200, 399] would take about 20 s."""
    cases = check_rank_law(401, [*range(200, 400, 8), 399])
    print(f"PASS criterion 6 at p=401: exact rank law on {cases} (p, q) cases, q from 200 to 399")


def test_criterion_6_rank_law_at_1009():
    """Criterion 6 at p = 1009, smallest generator (m = 11): rank(Z) = 505
    exactly at q = 504, 630, 756, 882 and 1007 under the data-richness
    condition, and rank(Z) <= 505 below it. Each rank at q >= 504 is the length
    of the data's certified register; below it no register of the first
    2(q+1) values holds for all of them, and each rank is one reduced echelon
    form of the windows."""
    qs = (504, 630, 756, 882, 1007)
    cases = check_rank_law(1009, qs)
    print(f"PASS criterion 6 at p=1009: exact rank law on {cases} (p, q) cases, q in {qs}")


def test_criterion_7_linear_complexity_attainment():
    """Berlekamp-Massey over the rationals on two periods returns exactly
    (p-1)/2 + 1, matching the lifted dimension, for every generator of
    every p <= 61 and for the smallest generator at p = 101, 199 and 401."""
    cases = [DhParams(p, m) for p in PRIMES_TO_61 for m in all_primitive_roots(p)]
    cases += [DhParams.with_smallest_root(p) for p in (101, 199, 401)]
    for params in cases:
        p = params.p
        terms = simulate(params.m, params, 1, 2 * (p - 1) - 1).values
        length = berlekamp_massey(SequenceSample(terms=terms)).length
        assert length == (p - 1) // 2 + 1, (p, params.m, length)
        assert length == minimal_lifting_dimension(params), (p, params.m)
    print(
        f"PASS criterion 7: register length equals lifted dimension for {len(cases)} "
        f"(p, m) pairs: every generator of the {len(PRIMES_TO_61)} primes up to 61, "
        "and the smallest generator at 101, 199 and 401"
    )


def test_criterion_7_linear_complexity_at_1009():
    """Criterion 7 at p = 1009, smallest generator: Berlekamp-Massey over the
    rationals on two periods returns (p-1)/2 + 1 = 505, the lifted dimension."""
    params = DhParams.with_smallest_root(1009)
    p = params.p
    terms = simulate(params.m, params, 1, 2 * (p - 1) - 1).values
    length = berlekamp_massey(SequenceSample(terms=terms)).length
    assert length == (p - 1) // 2 + 1 == minimal_lifting_dimension(params), length
    print(
        f"PASS criterion 7 at desk scale: register length equals lifted dimension "
        f"{length} at p = {p}, smallest generator m = {params.m}"
    )


def test_criterion_8_worked_examples(tmp_path, capsys):
    """Rotation sequence: complexity 3 over the rationals, regenerated by a
    one-dimensional complex lifting. Affine sequence: regenerated exactly by
    the two-dimensional lifting; its computed rational complexity is
    reported with an explicit discrepancy note against a supplied expected
    register length of 51."""
    rotation = (0, 1, 2, 0, 1, 2, 0, 1, 2)
    assert berlekamp_massey(SequenceSample(terms=rotation)).length == 3
    scalar = additive_complex_lift(3, 0)
    assert scalar.dimension == 1
    assert tuple(scalar.generate(9)) == rotation

    affine = affine_augment_system(2, 2, 1)
    assert affine.dimension == 2
    assert affine.generate(5) == [1, 4, 10, 22, 46]

    seq_path = tmp_path / "affine.csv"
    seq_path.write_text("".join(f"{v}\n" for v in affine.generate(12)))
    code = cli_main(
        ["complexity", "--sequence", str(seq_path), "--expected", "51"]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["complexity_rational"] == 2
    assert report["matches_expected"] is False
    assert "not reproducible" in report["note"]
    print("PASS criterion 8: both worked examples regenerate exactly; expected length 51 flagged as not reproducible (computed 2)")


def test_criterion_9_shared_secret_intersection():
    """The brute-force intersection returns m^(e*d) mod p for all exponent
    pairs with p <= 31, cross-checked against both sides of the exchange."""
    pairs = 0
    for p in [q for q in PRIMES_TO_61 if q <= 31]:
        params = DhParams.with_smallest_root(p)
        for e in range(1, p):
            for d in range(1, p):
                c_e, c_d = pow(params.m, e, p), pow(params.m, d, p)
                result = shared_secret_intersection(c_e, c_d, params)
                assert result.secret == pow(c_e, d, p) == pow(c_d, e, p) == pow(params.m, e * d, p)
                pairs += 1
    print(f"PASS criterion 9: intersection secret equals m^(e*d) on {pairs} exponent pairs, p <= 31")


def test_criterion_10_eigenstructure():
    """Eigenvalues are exactly the odd-index 2q-th roots of unity plus 1,
    all unit modulus; the companion-Vandermonde eigenpair residual is
    exactly zero in rational-angle form."""
    for p in PRIMES_TO_199:
        q = (p - 1) // 2
        dec = eigen_canonical(p, q)
        expected = {F(0)} | {F(2 * k + 1, 2 * q) % 1 for k in range(q)}
        assert set(dec.turns) == expected, p
        assert F(0) in dec.turns
        assert np.max(np.abs(np.abs(eigenvalues(dec)) - 1.0)) < 1e-12, p
        assert eigenpair_residuals_exact_zero(dec), p
        assert eigenpair_residual_float(dec) <= 1e-9, p
    print(f"PASS criterion 10: exact eigenstructure for all {len(PRIMES_TO_199)} primes up to 199")
