from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRIMES_TO_61
from echelon_oracle import IntegerEchelon, window_profile
from edmd_oracle import (
    a_hat,
    echelon_fit,
    elimination_dataset,
    elimination_fit,
    normal_equations_fit,
    prediction_prefix,
    snapshot_matrices,
    state_errors,
)
from field_oracle import frobenius_sq, matmul, pinv, rref
from koopman_dh import complexity
from koopman_dh import edmd as edmd_module
from koopman_dh.dynamics import DhParams, all_primitive_roots, full_period_trajectory
from koopman_dh.edmd import (
    EdmdDataset,
    FittedOperator,
    _register_fit,
    _sliding_gram,
    check_assumption,
    compare_on_values,
    dataset_from_values,
    edmd_fit,
    max_state_error,
    operator_to_json,
)
from koopman_dh.lifting import (
    canonical_alpha,
    companion_matrix,
    full_period_alpha,
    lift_shift,
)
from koopman_dh.serialize import MalformedDataError, frac_json, read_integer_csv

F = Fraction
P5 = DhParams(5, 2)
P7 = DhParams(7, 3)


def orbit(traj, count):
    return [traj.value_at(i) for i in range(count)]


class TestDataset:
    def test_rank_examples(self):
        traj = full_period_trajectory(P7)
        assert dataset_from_values(orbit(traj, 11), 3, 7).rank_z == 4
        assert dataset_from_values(orbit(traj, 6), 3, 2).rank_z == 2
        assert dataset_from_values(orbit(full_period_trajectory(P5), 11), 4, 6).rank_z == 3

    def test_shift_consistency(self):
        # the dataset holds the n+q+1 values it windows, so rows 0..q-1 of
        # Z_plus are rows 1..q of Z
        values = orbit(full_period_trajectory(P7), 16)
        ds = dataset_from_values(values, 3, 7)
        assert ds.values == tuple(values[:11]) and (ds.q, ds.n) == (3, 7)
        z, z_plus = snapshot_matrices(ds.values, ds.q, ds.n)
        assert z_plus[:-1] == z[1:]
        for k in range(ds.n - 1):
            assert [row[k + 1] for row in z] == [row[k] for row in z_plus]

    def test_columns_are_lifts(self):
        traj = full_period_trajectory(P7)
        ds = dataset_from_values(orbit(traj, 11), 3, 7)
        z, z_plus = snapshot_matrices(ds.values, ds.q, ds.n)
        for k in range(ds.n):
            assert tuple(row[k] for row in z) == lift_shift(traj, 3, k)
            assert tuple(row[k] for row in z_plus) == lift_shift(traj, 3, k + 1)

    def test_pivot_rows_and_left_kernel(self):
        # rows (1, 2, 4, 8) and (2, 4, 8, 3) of Z are independent: no kernel
        ds = dataset_from_values([1, 2, 4, 8, 3, 6], 1, 4)
        assert ds.pivot_rows == (0, 1) and ds.kernel == () and ds.rank_z == 2
        assert dataset_from_values([0, 0, 1, 0, 0, 1, 0], 2, 4).pivot_rows == (0, 1, 2)
        ds = dataset_from_values([0] * 5, 1, 3)
        assert ds.pivot_rows == () and ds.kernel == ((1, 0), (0, 1))
        # each row of Z is -1 or +1 times row 0
        ds = dataset_from_values([2, -2, 2, -2, 2, -2, 2], 3, 3)
        assert ds.pivot_rows == (0,)
        assert ds.kernel == ((1, 1, 0, 0), (-1, 0, 1, 0), (1, 0, 0, 1))
        ds = dataset_from_values([3, 3, 3, 3], 2, 1)
        assert ds.pivot_rows == (0,) and ds.kernel == ((-1, 1, 0), (-1, 0, 1))
        for ds in (
            dataset_from_values([1, 1, 1, 2, 2], 1, 3),
            dataset_from_values(orbit(full_period_trajectory(P7), 14), 5, 8),
            dataset_from_values([5, -1, 7, 5, -1, 7, 5, -1, 7, 5], 6, 3),
        ):
            check_rows_and_kernel(ds)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_kernel_of_recurrence_data(self, data):
        """Data from an integer recurrence of order r < q + 1 leaves Z rank
        deficient; seeds up to 2^70 keep Z past int64."""
        r = data.draw(st.integers(1, 4))
        q, n = data.draw(st.integers(r, 12)), data.draw(st.integers(1, 16))
        coefs = data.draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
        bits = data.draw(st.sampled_from([3, 70]))
        values = data.draw(st.lists(st.integers(-(2**bits), 2**bits), min_size=r, max_size=r))
        while len(values) < n + q + 1:
            values.append(sum(map(mul, coefs, values[-r:])))
        ds = dataset_from_values(values, q, n)
        assert ds.rank_z <= r
        check_rows_and_kernel(ds)

    def test_refuses_what_it_cannot_window(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EdmdDataset(values=(1, 2, 3), q=-1)
        with pytest.raises(ValueError, match="at least one snapshot pair"):
            EdmdDataset(values=(1, 2, 3), q=2)
        with pytest.raises(ValueError, match="at least one snapshot pair"):
            dataset_from_values([1, 2, 3, 4], 1, 0)

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            dataset_from_values([1, 2, 3], 2, 2)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_rank_bounded_by_q_tilde_plus_one(self, p):
        params = DhParams.with_smallest_root(p)
        traj = full_period_trajectory(params)
        for q in range(0, p - 1):
            ds = dataset_from_values(orbit(traj, p + q), q, p - 1)
            assert ds.rank_z <= params.q_tilde + 1


class TestAssumption:
    def test_examples(self):
        traj = full_period_trajectory(P7)
        ds = dataset_from_values(orbit(traj, 11), 3, 7)
        assert check_assumption(ds, 7) is True
        assert ds.rank_z == 4
        assert check_assumption(dataset_from_values(orbit(traj, 7), 3, 3), 7) is False
        assert check_assumption(dataset_from_values(orbit(traj, 13), 2, 10), 7) is False


class TestFit:
    def test_exact_fit_p7(self):
        traj = full_period_trajectory(P7)
        fit = edmd_fit(dataset_from_values(orbit(traj, 11), 3, 7))
        assert fit.fit_kind == "unique"
        assert fit.residual_sq == 0
        assert [list(r) for r in a_hat(fit)] == companion_matrix(canonical_alpha(7, 3))

    def test_exact_fit_p5(self):
        fit = edmd_fit(dataset_from_values(orbit(full_period_trajectory(P5), 7), 2, 4))
        assert fit.residual_sq == 0
        assert [list(r) for r in a_hat(fit)] == companion_matrix(canonical_alpha(5, 2))

    def test_lowest_terms(self):
        # numerators over one positive denominator, reduced on construction
        fit = FittedOperator(den=4, rows=((2, 0), (6, -4)), residual_sq=F(0), fit_kind="unique")
        assert (fit.den, fit.rows) == (2, ((1, 0), (3, -2)))
        same = FittedOperator(den=2, rows=((1, 0), (3, -2)), residual_sq=F(0), fit_kind="unique")
        assert fit == same
        assert a_hat(fit) == ((F(1, 2), 0), (F(3, 2), -1))
        zero = FittedOperator(den=6, rows=((0,),), residual_sq=F(1), fit_kind="minimum-norm")
        assert (zero.den, zero.rows) == (1, ((0,),))

    def test_scalar_linear_system(self):
        fit = edmd_fit(dataset_from_values([1, 2, 4, 8, 16, 32], 0, 4))
        assert a_hat(fit) == ((2,),)
        assert fit.residual_sq == 0

    def test_minimum_norm_branch_smaller_than_alternative(self):
        # at q = p-2 the cyclic companion also solves exactly; the
        # minimum-norm solution must not exceed its Frobenius norm
        traj = full_period_trajectory(P7)
        fit = edmd_fit(dataset_from_values(orbit(traj, 13), 5, 7))
        assert fit.fit_kind == "minimum-norm"
        assert fit.residual_sq == 0
        cyclic = companion_matrix(full_period_alpha(7))
        assert frobenius_sq([list(r) for r in a_hat(fit)]) <= frobenius_sq(cyclic)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=12), st.data())
    def test_sliding_gram_is_the_direct_sum(self, values, data):
        length = data.draw(st.integers(1, len(values)))
        size = len(values) - length + 1
        assert _sliding_gram(values, size, length) == [
            [sum(values[i + k] * values[l + k] for k in range(length)) for l in range(size)]
            for i in range(size)
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 3).flatmap(
            lambda q: st.integers(1, 5).flatmap(
                lambda n: st.tuples(
                    st.lists(st.integers(-2, 2), min_size=n + q + 1, max_size=n + q + 1),
                    st.just(q),
                    st.just(n),
                )
            )
        )
    )
    def test_matches_pseudo_inverse_oracle(self, case):
        # every snapshot pair windows one integer sequence: full rank or not,
        # zero residual or not, both routes agree on it
        check_against_oracles(*case)

    @pytest.mark.parametrize(
        "values, q, kind, exact",
        [
            ([1, 2, 4, 8, 16, 32], 0, "unique", True),
            ([1, 3, 2, 6, 4, 5, 1, 3], 1, "unique", False),
            ([1, 3, 2, 6, 4, 5, 1, 3, 2, 6], 5, "minimum-norm", True),
            ([0, 0, 1, 0, 0, 1, 0, 0, 3], 3, "minimum-norm", False),
            ([0, 0, 0, 0, 5], 1, "minimum-norm", False),
            ([0] * 5, 1, "minimum-norm", True),
        ],
    )
    def test_explicit_cases_of_both_kinds(self, values, q, kind, exact):
        # the last two have Z = 0: the fit is 0 and the residual is |Z_plus|^2
        fit = check_against_oracles(values, q, len(values) - q - 1)
        assert fit.fit_kind == kind
        assert (fit.residual_sq == 0) == exact


def check_against_oracles(values, q, n, pseudo_inverse=True):
    """edmd_fit against the normal equations on dense Z, Z_plus and, unless
    told otherwise, against Z_plus pinv(Z) by Gauss-Jordan; returns the fit."""
    fit = edmd_fit(dataset_from_values(values, q, n))
    assert fit.den > 0 and gcd(fit.den, *[a for row in fit.rows for a in row]) == 1
    z, z_plus = snapshot_matrices(values, q, n)
    assert fit == normal_equations_fit(z, z_plus)
    if fit.fit_kind == "unique":
        assert [list(row) for row in a_hat(fit)[:q]] == [
            [int(j == i + 1) for j in range(q + 1)] for i in range(q)
        ]
    if pseudo_inverse:
        want = matmul(z_plus, pinv(z))
        assert [list(row) for row in a_hat(fit)] == want
        residual = [[zp - v for zp, v in zip(zr, ar)] for zr, ar in zip(z_plus, matmul(want, z))]
        assert fit.residual_sq == frobenius_sq(residual)
        assert (fit.fit_kind == "unique") == (len(rref(z)[1]) == q + 1)
    return fit


class TestFitOracles:
    """Orbit fits at the orders q~ - 1, q~, q~ + 2 and p - 2 (q~ = (p-1)/2),
    each at the sweep's n and in the `edmd --data` shape, where the data is
    exactly the n + q + 1 values it windows."""

    @staticmethod
    def shapes(p):
        params = DhParams.with_smallest_root(p)
        qt = params.q_tilde
        values = orbit(full_period_trajectory(params), 3 * (p - 1))
        for q in (qt - 1, qt, qt + 2, p - 2):
            yield values, q, 2 * (p - 1) - q - 1 if q < qt else qt + 1
            yield values[: p + q], q, p - 1

    @pytest.mark.parametrize("p", PRIMES_TO_61)
    def test_orbit_fits(self, p):
        # Gauss-Jordan over Fractions takes seconds a prime above the sweep's
        # largest prime, 37; the normal equations cover every prime
        for values, q, n in self.shapes(p):
            check_against_oracles(values, q, n, pseudo_inverse=p <= 37)


def check_rows_and_kernel(ds):
    """The pivot rows are the rows of Z that the integer echelon takes as
    independent of those before them (row i of Z is the length-n window at
    i), and the kernel is q + 1 - rank_z independent integer vectors k with
    k Z = 0 over the integers: one per other row of Z, in order, nonzero
    there and zero at every other row that is not a pivot row."""
    assert list(ds.pivot_rows) == window_profile(ds.values, ds.n - 1, ds.q + 1)
    free = [r for r in range(ds.q + 1) if r not in ds.pivot_rows]
    assert len(ds.kernel) == len(free) == ds.q + 1 - ds.rank_z
    z, _ = snapshot_matrices(ds.values, ds.q, ds.n)
    independent = IntegerEchelon(ds.q + 1)
    for c, k in zip(free, ds.kernel):
        assert all(type(v) is int for v in k)
        assert [sum(map(mul, k, col)) for col in zip(*z)] == [0] * ds.n
        assert [k[r] != 0 for r in free] == [r == c for r in free]
        assert independent.add_row(k) is not None


def check_against_echelon(ds):
    """The fit on the certified solve equals the fit on the integer echelon:
    den, rows, residual_sq and fit_kind; the snapshot rank profile and left
    kernel pass check_rows_and_kernel. Returns the fit."""
    check_rows_and_kernel(ds)
    fit, want = edmd_fit(ds), echelon_fit(ds)
    assert (fit.den, fit.rows, fit.residual_sq, fit.fit_kind) == (
        want.den,
        want.rows,
        want.residual_sq,
        want.fit_kind,
    )
    return fit


class TestEchelonOracle:
    """Orbit fits at the sweep's orders q~ - 1, q~ and p - 2 (q~ = (p-1)/2),
    each at the sweep's n, and fits of external data, against the fits on
    the integer echelon."""

    @staticmethod
    def orbit_dataset(params, q):
        p, qt = params.p, params.q_tilde
        n = 2 * (p - 1) - q - 1 if q < qt else qt + 1
        return dataset_from_values(orbit(full_period_trajectory(params), n + q + 1), q, n)

    @pytest.mark.parametrize("p", [p for p in PRIMES_TO_61 if p <= 37])
    def test_every_generator(self, p):
        for m in all_primitive_roots(p):
            params = DhParams(p, m)
            for q in (params.q_tilde - 1, params.q_tilde, p - 2):
                check_against_echelon(self.orbit_dataset(params, q))

    @pytest.mark.parametrize("p", [61, 101])
    def test_smallest_generator(self, p):
        params = DhParams.with_smallest_root(p)
        for q in (params.q_tilde - 1, params.q_tilde, p - 2):
            check_against_echelon(self.orbit_dataset(params, q))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_small_data(self, data):
        q, n = data.draw(st.integers(0, 20)), data.draw(st.integers(1, 24))
        values = data.draw(st.lists(st.integers(-3, 3), min_size=n + q + 1, max_size=n + q + 1))
        check_against_echelon(dataset_from_values(values, q, n))

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_values_of_thirty_digits(self, data):
        # Gram sums past 2^200: every product and substitution takes Python integers
        q = data.draw(st.sampled_from([2, 15, 17]))
        n = data.draw(st.sampled_from([q - 1, q + 3])) if q > 2 else 4
        big = st.integers(-(10**30), 10**30)
        values = data.draw(st.lists(big, min_size=n + q + 1, max_size=n + q + 1))
        check_against_echelon(dataset_from_values(values, q, n))

    @pytest.mark.parametrize("q, n", [(1, 3), (16, 20), (20, 16)])
    def test_all_zeros(self, q, n):
        fit = check_against_echelon(dataset_from_values([0] * (n + q + 1), q, n))
        assert fit.fit_kind == "minimum-norm" and fit.rows == ((0,) * (q + 1),) * (q + 1)

    @pytest.mark.parametrize("period", [1, 2, 5, 12])
    @pytest.mark.parametrize("q, n", [(3, 9), (16, 20), (30, 18)])
    def test_rank_deficient_data(self, period, q, n):
        base = [(-1) ** k * (k * k + 3) for k in range(period)]
        values = [base[k % period] for k in range(n + q + 1)]
        values[-1] += 1  # only the last successor leaves the period
        ds = dataset_from_values(values, q, n)
        assert ds.rank_z <= period
        fit = check_against_echelon(ds)
        assert fit.fit_kind == ("minimum-norm" if ds.rank_z <= q else "unique")
        assert period > 2 or fit.fit_kind == "minimum-norm"


def check_against_elimination(values, q, n):
    """The dataset and fit equal the elimination oracle's in every field:
    pivot_rows, kernel, den, rows, residual_sq and fit_kind. Returns the dataset."""
    ds = dataset_from_values(values, q, n)
    assert (ds.pivot_rows, ds.kernel) == elimination_dataset(ds.values, q)
    fit, want = edmd_fit(ds), elimination_fit(ds)
    assert (fit.den, fit.rows, fit.residual_sq, fit.fit_kind) == (
        want.den,
        want.rows,
        want.residual_sq,
        want.fit_kind,
    )
    return ds


def register_values(connection, seed, count):
    """count terms of s_k = sum_i connection_i s_(k-i) from the rational seed,
    scaled by the lcm of their denominators."""
    s = [F(v) for v in seed]
    while len(s) < count:
        s.append(sum(c * v for c, v in zip(connection, reversed(s))))
    d = lcm(*[v.denominator for v in s[:count]])
    return [int(v * d) for v in s[:count]]


ORBIT_M = (-1, 1, 0, 0, 0, -1, 1)  # (x - 1)(x^5 + 1), the register of every orbit at p = 11


class TestRegisterPath:
    """The register path against the elimination oracle, and the conditions
    that send a dataset or a fit back to elimination."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_elimination_oracle(self, data):
        mode = data.draw(st.sampled_from(["orbit", "register", "altered", "zeros", "random"]))
        q, n = data.draw(st.integers(0, 9)), data.draw(st.integers(1, 12))
        count = n + q + 1
        if mode == "orbit":
            p = data.draw(st.sampled_from([5, 7, 11, 13, 17, 19, 23]))
            q = data.draw(st.integers(0, p - 2))
            n = data.draw(st.integers(1, 2 * (p - 1)))
            m = data.draw(st.sampled_from(all_primitive_roots(p)))
            values = orbit(full_period_trajectory(DhParams(p, m)), n + q + 1)
        elif mode in ("register", "altered"):
            r = data.draw(st.integers(1, 4))
            small = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
            connection = data.draw(st.lists(small, min_size=r, max_size=r))
            seed = data.draw(st.lists(small, min_size=r, max_size=r))
            values = register_values(connection, seed, count)
            if mode == "altered":
                values[data.draw(st.integers(0, count - 1))] += 1
        elif mode == "zeros":
            values = [0] * count
        else:
            values = data.draw(st.lists(st.integers(-3, 3), min_size=count, max_size=count))
        check_against_elimination(values, q, n)

    ORBIT_11 = orbit(full_period_trajectory(DhParams(11, 2)), 30)

    @pytest.mark.parametrize(
        "values, q, n, register, eliminations",
        [
            # certified, k = 0: the fit is the companion matrix
            (ORBIT_11, 5, 6, ORBIT_M, 0),
            # certified, k = 4, autocorrelation (4, -2, 0, 0): closed form
            (ORBIT_11, 9, 6, ORBIT_M, 0),
            # M = x - 1, autocorrelation (2, -1, 0): closed form
            ([3] * 8, 3, 4, (-1, 1), 0),
            # M = x - 2 at k = 1: the one lag, 5, is always closed
            ([2**i for i in range(6)], 1, 4, (-2, 1), 0),
            # M = x - 2 at k = 2: autocorrelation (5, -2) sends the fit to elimination
            ([2**i for i in range(7)], 2, 4, (-2, 1), 1),
            # M = 1, L = 0: closed at k = 1, elimination at k = 3 (autocorrelation (1, 0, 0))
            ([0] * 4, 0, 3, (1,), 0),
            ([0] * 6, 2, 3, (1,), 1),
            # a connection of 200 has no reconstruction below 127: no register
            ([200**i for i in range(6)], 1, 4, None, 2),
            # L = 4 on the four values read: 2L > 4, no register
            ([0, 0, 0, 1, 0, 0], 1, 4, None, 2),
            # L = 6 > n = 3
            (ORBIT_11[:13], 9, 3, None, 2),
            # the register of the first 6 values fails on the 13 values
            (ORBIT_11[:13], 2, 10, None, 2),
        ],
    )
    def test_each_condition(self, monkeypatch, values, q, n, register, eliminations):
        calls = []
        real = edmd_module.reduced_echelon
        monkeypatch.setattr(
            edmd_module, "reduced_echelon", lambda *args: calls.append(1) or real(*args)
        )
        ds = dataset_from_values(values, q, n)
        fit = edmd_fit(ds)
        assert ds.register == register
        assert len(calls) == eliminations
        monkeypatch.undo()
        check_against_elimination(values, q, n)
        if register is not None:
            assert ds.pivot_rows == tuple(range(len(register) - 1))
            assert fit.residual_sq == 0

    @pytest.mark.parametrize("kind", ["orbit", "no register"])
    def test_attempt_reads_two_orders_and_never_the_fraction_free_loop(self, monkeypatch, kind):
        read = []
        real = edmd_module._modular_register
        monkeypatch.setattr(
            edmd_module, "_modular_register", lambda s: read.append(len(s)) or real(s)
        )

        def fraction_free(*args):
            raise AssertionError("the fraction-free loop ran")

        monkeypatch.setattr(complexity, "_fraction_free", fraction_free)
        values = self.ORBIT_11 * 10 if kind == "orbit" else [200**i for i in range(300)]
        cases = [(3, 200), (9, 6), (9, 200), (20, 3)]
        for q, n in cases:
            dataset_from_values(values, q, n)
        assert read == [min(n + q + 1, 2 * (q + 1)) for q, n in cases]

    def test_python_int_numerators_match_int64(self):
        # scaling M by 2^40 leaves C P unchanged and puts |m|_1^3 (k+1)^2 past 2^62
        fit = _register_fit(ORBIT_M, 9)
        assert _register_fit(tuple(2**40 * a for a in ORBIT_M), 9) == fit
        assert fit == elimination_fit(dataset_from_values(self.ORBIT_11, 9, 6))


class TestCompare:
    def test_p7_flags(self):
        values = orbit(full_period_trajectory(P7), 16)
        fit = edmd_fit(dataset_from_values(values, 3, 7))
        comparison = compare_on_values(fit, canonical_alpha(7, 3), values, 12)
        assert comparison.entrywise_equal and comparison.prediction_equivalent

    def test_between_thresholds(self):
        # q_tilde < q < p-2: prediction equivalence holds; entrywise equality
        # is recorded as observed
        values = orbit(full_period_trajectory(P7), 17)
        fit = edmd_fit(dataset_from_values(values, 4, 7))
        comparison = compare_on_values(fit, canonical_alpha(7, 4), values, 12)
        assert comparison.prediction_equivalent
        assert isinstance(comparison.entrywise_equal, bool)

    def test_identical_inputs(self):
        values = orbit(full_period_trajectory(P5), 11)
        fit = edmd_fit(dataset_from_values(values, 2, 4))
        comparison = compare_on_values(fit, canonical_alpha(5, 2), values, 8)
        assert comparison.entrywise_equal and comparison.prediction_equivalent

    def test_dimension_mismatch(self):
        values = orbit(full_period_trajectory(P5), 8)
        fit = edmd_fit(dataset_from_values(values, 2, 4))
        with pytest.raises(ValueError):
            compare_on_values(fit, full_period_alpha(5), values, 4)

    def test_insufficient_data(self):
        values = orbit(full_period_trajectory(P5), 7)
        fit = edmd_fit(dataset_from_values(values, 2, 4))
        with pytest.raises(ValueError, match="cannot reach step 5"):
            compare_on_values(fit, canonical_alpha(5, 2), values, 5)

    def test_negative_horizon_is_refused(self):
        # horizon -1 checks no window, which is no evidence of equivalence
        values = orbit(full_period_trajectory(P5), 7)
        fit = edmd_fit(dataset_from_values(values, 2, 4))
        with pytest.raises(ValueError, match="horizon must be nonnegative, got -1"):
            compare_on_values(fit, canonical_alpha(5, 2), values, -1)
        assert compare_on_values(fit, canonical_alpha(5, 2), values, 0).prediction_equivalent

    def test_entrywise_flag_matches_matrix_comparison(self):
        # the fits above, and a full-order one against the cyclic shift
        cases = [(P7, 3, 16, 7), (P7, 4, 17, 7), (P5, 2, 11, 4), (P5, 3, 8, 3)]
        flags = set()
        for params, q, count, n in cases:
            values = orbit(full_period_trajectory(params), count)
            fit = edmd_fit(dataset_from_values(values, q, n))
            alpha = canonical_alpha(params.p, q)
            if q == params.p - 2:
                alpha = full_period_alpha(params.p)
            flag = compare_on_values(fit, alpha, values, 0).entrywise_equal
            assert flag == ([list(row) for row in a_hat(fit)] == companion_matrix(alpha))
            flags.add(flag)
        assert flags == {True, False}

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_entrywise_flag_on_altered_data_fits(self, p):
        # the orbit data (i = -1), then each value altered by one: altered
        # data keeps the shift rows of the closing-order fit but moves alpha
        params = DhParams.with_smallest_root(p)
        n = params.q_tilde + 1
        for q in (params.q_tilde, p - 2):
            values = orbit(full_period_trajectory(params), n + q + 1)
            alpha = canonical_alpha(p, q)
            for i in range(-1, len(values)):
                altered = list(values)
                if i >= 0:
                    altered[i] += 1
                fit = edmd_fit(dataset_from_values(altered, q, n))
                flag = compare_on_values(fit, alpha, altered, 0).entrywise_equal
                assert flag == ([list(row) for row in a_hat(fit)] == companion_matrix(alpha)), (q, i)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_entrywise_flag_on_perturbed_companions(self, data):
        q = data.draw(st.integers(0, 3))
        small = st.builds(F, st.integers(-2, 2), st.integers(1, 2))
        alpha = tuple(data.draw(st.lists(small, min_size=q + 1, max_size=q + 1)))
        rows = companion_matrix(alpha)
        rows[data.draw(st.integers(0, q))][data.draw(st.integers(0, q))] += data.draw(small)
        den = lcm(*[a.denominator for row in rows for a in row])
        nums = tuple(tuple(int(a * den) for a in row) for row in rows)
        fit = FittedOperator(den=den, rows=nums, residual_sq=F(0), fit_kind="unique")
        assert a_hat(fit) == tuple(map(tuple, rows))
        flag = compare_on_values(fit, alpha, list(range(q + 1)), 0).entrywise_equal
        assert flag == (rows == companion_matrix(alpha))


class TestPredictionOracle:
    """compare_on_values checks one-step integer identities on the data's
    windows; the oracle iterates A^k z_0 in Fractions."""

    @staticmethod
    def fits(p):
        # the unique fit at q = (p-1)/2 and the minimum-norm one at q = p-2,
        # each from (p-1)/2 + 1 pairs, with data for two periods of predictions
        params = DhParams.with_smallest_root(p)
        top = 2 * (p - 1)
        values = orbit(full_period_trajectory(params), top + p - 1)
        for q in (params.q_tilde, p - 2):
            fit = edmd_fit(dataset_from_values(values, q, params.q_tilde + 1))
            yield fit, canonical_alpha(p, q), values[: top + q + 1], top

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
    def test_orbit_fits_at_every_horizon(self, p):
        for fit, alpha, values, top in self.fits(p):
            prefix = prediction_prefix(a_hat(fit), values, top)
            assert prefix == top
            for horizon in range(top + 1):
                comparison = compare_on_values(fit, alpha, values, horizon)
                assert comparison.prediction_equivalent == (prefix >= horizon)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_one_altered_value_at_every_index(self, p):
        # altering values[i], i > q, first breaks step i - q, so the first
        # failing step runs through 1..top, the first and last window included
        for fit, alpha, values, top in self.fits(p):
            prefixes = set()
            for i in range(len(values)):
                altered = list(values)
                altered[i] += 1
                prefix = prediction_prefix(a_hat(fit), altered, top)
                prefixes.add(prefix)
                for horizon in range(top + 1):
                    comparison = compare_on_values(fit, alpha, altered, horizon)
                    assert comparison.prediction_equivalent == (prefix >= horizon), (i, horizon)
            assert set(range(top)) <= prefixes

    @pytest.mark.parametrize("p", [5, 11, 23, 37])
    def test_one_moved_entry_breaks_predictions(self, p):
        # every entry of the fit, shift rows included, moved by one: the
        # orbit's values are all nonzero, so the moved row fails on a window
        for fit, alpha, values, top in self.fits(p):
            assert compare_on_values(fit, alpha, values, top).prediction_equivalent
            entries = [(i, j) for i in range(len(fit.rows)) for j in range(len(fit.rows))]
            if p == 37:
                entries = entries[:: len(fit.rows) + 1] + entries[7::97]
            for i, j in entries:
                rows = [list(row) for row in fit.rows]
                rows[i][j] += 1
                moved = FittedOperator(
                    fit.den, tuple(map(tuple, rows)), fit.residual_sq, fit.fit_kind
                )
                comparison = compare_on_values(moved, alpha, values, top)
                assert not comparison.prediction_equivalent, (i, j)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_periodic_aperiodic_and_altered_data(self, data):
        # every window up to the horizon is checked, periodic data included;
        # the oracle iterates every step
        q = data.draw(st.integers(0, 3))
        horizon = data.draw(st.integers(1, 16))
        count = horizon + q + 1
        mode = data.draw(st.sampled_from(["periodic", "aperiodic", "altered"]))
        if mode == "aperiodic":
            values = data.draw(st.lists(st.integers(-2, 2), min_size=count, max_size=count))
        else:
            period = data.draw(st.integers(1, 6))
            base = data.draw(st.lists(st.integers(-2, 2), min_size=period, max_size=period))
            values = [base[k % period] for k in range(count)]
            if mode == "altered":
                values[data.draw(st.integers(0, count - 1))] += data.draw(st.sampled_from([-1, 1]))
        n = data.draw(st.integers(1, count - q - 1))
        fit = edmd_fit(dataset_from_values(values, q, n))
        comparison = compare_on_values(fit, (F(0),) * (q + 1), values, horizon)
        assert comparison.prediction_equivalent == (
            prediction_prefix(a_hat(fit), values, horizon) >= horizon
        )


class TestUnderparameterized:
    # an orbit's error over one period, as the CLI reports it
    def test_p23_example(self):
        values = orbit(full_period_trajectory(DhParams(23, 5)), 28)
        fit = edmd_fit(dataset_from_values(values, 5, 22))
        assert fit.residual_sq > 0
        assert max_state_error(fit, values, 22) == F(
            3746905360168635855986047, 318191741299674193671875
        )

    def test_p7_example(self):
        values = orbit(full_period_trajectory(P7), 8)
        fit = edmd_fit(dataset_from_values(values, 1, 6))
        assert fit.residual_sq > 0
        assert max_state_error(fit, values, 6) == F(17605, 4761)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 23])
    def test_residual_positive_below_threshold(self, p):
        params = DhParams.with_smallest_root(p)
        traj = full_period_trajectory(params)
        for q in range(params.q_tilde):
            fit = edmd_fit(dataset_from_values(orbit(traj, p + q), q, p - 1))
            assert fit.residual_sq > 0

    def test_optimality_spot_check(self):
        # perturbing any single entry of the fitted operator by 1/1000
        # in either direction cannot decrease the exact residual
        traj = full_period_trajectory(P7)
        values = orbit(traj, 8)
        fit = edmd_fit(dataset_from_values(values, 1, 6))
        z, z_plus = snapshot_matrices(values, 1, 6)

        def residual_sq(a):
            az = matmul(a, z)
            return frobenius_sq(
                [[zp - v for zp, v in zip(zr, ar)] for zr, ar in zip(z_plus, az)]
            )

        base = residual_sq([list(r) for r in a_hat(fit)])
        assert base == fit.residual_sq
        eps = F(1, 1000)
        for i in range(2):
            for j in range(2):
                for delta in (eps, -eps):
                    perturbed = [list(r) for r in a_hat(fit)]
                    perturbed[i][j] += delta
                    assert residual_sq(perturbed) >= base


class TestStateErrorOracle:
    """max_state_error iterates A on integer numerators over powers of its
    common denominator; the oracle iterates A^k z_0 in Fractions."""

    @staticmethod
    def check_every_horizon(fit, values, top):
        errors = state_errors(a_hat(fit), values, top)
        for horizon in range(top + 1):
            assert max_state_error(fit, values, horizon) == max(errors[:horizon], default=0)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
    def test_orbit_fits_at_every_horizon(self, p):
        params = DhParams.with_smallest_root(p)
        top = 2 * (p - 1)
        values = orbit(full_period_trajectory(params), top + 1)
        for q in range(params.q_tilde):
            fit = edmd_fit(dataset_from_values(values, q, p - 1))
            self.check_every_horizon(fit, values, top)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_small_data(self, data):
        values = data.draw(st.lists(st.integers(-3, 3), min_size=2, max_size=12))
        q = data.draw(st.integers(0, min(3, len(values) - 2)))
        n = data.draw(st.integers(1, len(values) - q - 1))
        fit = edmd_fit(dataset_from_values(values, q, n))
        self.check_every_horizon(fit, values, len(values) - 1)

    @pytest.mark.parametrize(
        "values, q",
        [
            ([0] * 6, 1),
            ([1] * 8, 2),
            ([2, -1, 2, -1, 2, -1, 2, 5], 3),
            ([0, 0, 1, 0, 0, 1, 0, 0, 3], 3),
        ],
    )
    def test_rank_deficient_fits(self, values, q):
        fit = edmd_fit(dataset_from_values(values, q, len(values) - q - 2))
        assert fit.fit_kind == "minimum-norm"
        self.check_every_horizon(fit, values, len(values) - 1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sets(st.builds(F, st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=3),
        st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=3, max_size=3),
    )
    def test_rational_recurrence_is_predicted_exactly(self, roots, weights):
        # s_k = D^top * sum_i a_i r_i^k, D the lcm of the roots' denominators,
        # is an integer sequence up to k = top that obeys the recurrence with
        # the rational coefficients of prod_i (x - r_i); distinct roots give
        # Z full row rank at order len(roots) - 1
        roots = sorted(roots)
        order = len(roots)
        top = 2 * order + 4
        scale = lcm(*[r.denominator for r in roots]) ** top
        values = [
            int(scale * sum(a * r**k for a, r in zip(weights, roots))) for k in range(top + 1)
        ]
        fit = edmd_fit(dataset_from_values(values, order - 1, top - order + 1))
        assert fit.fit_kind == "unique" and fit.residual_sq == 0
        assert state_errors(a_hat(fit), values, top) == [0] * top
        assert max_state_error(fit, values, top) == 0

    def test_insufficient_data(self):
        fit = edmd_fit(dataset_from_values([1, 2, 4, 8, 16], 2, 2))
        with pytest.raises(ValueError, match="cannot reach step 5"):
            max_state_error(fit, [1, 2, 4, 8, 16], 5)
        with pytest.raises(ValueError, match="cannot reach step 0 at order 2"):
            max_state_error(fit, [1, 2], 0)

    def test_negative_horizon_is_refused(self):
        fit = edmd_fit(dataset_from_values([1, 2, 4, 8, 16], 2, 2))
        with pytest.raises(ValueError, match="horizon must be nonnegative, got -1"):
            max_state_error(fit, [1, 2, 4, 8, 16], -1)
        assert max_state_error(fit, [1, 2, 4, 8, 16], 0) == 0


class TestExternalInterfaces:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("1\n3\n2\n6\n4\n5\n1\n3\n2\n6\n4\n")
        values = read_integer_csv(str(path))
        assert values[:7] == [1, 3, 2, 6, 4, 5, 1]
        ds = dataset_from_values(values, 3, 7)
        assert edmd_fit(ds).residual_sq == 0

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1\ntwo\n3\n")
        with pytest.raises(MalformedDataError):
            read_integer_csv(str(path))

    @pytest.mark.parametrize("p, m", [(7, 3), (11, 2), (13, 2)])
    def test_operator_json_entries_are_fractions(self, p, m):
        """Every entry is written as frac_json writes Fraction(a, den): fits
        at q = 1..p-2 have negative and zero entries, entries sharing a
        factor with den, and den = 1."""
        traj = full_period_trajectory(DhParams(p, m))
        n = (p - 1) // 2 + 1
        seen = set()
        for q in range(1, p - 1):
            fit = edmd_fit(dataset_from_values(orbit(traj, n + q + 1), q, n))
            want = [[frac_json(Fraction(a, fit.den)) for a in row] for row in fit.rows]
            assert operator_to_json(fit)["matrix"] == want
            entries = [a for row in fit.rows for a in row]
            cases = {
                "negative": min(entries) < 0,
                "zero": 0 in entries,
                "common factor": any(a and gcd(a, fit.den) > 1 for a in entries),
                "integer": fit.den == 1,
            }
            seen |= {case for case, hit in cases.items() if hit}
        assert seen == {"negative", "zero", "common factor", "integer"}

    def test_operator_json_rationals(self):
        fit = edmd_fit(dataset_from_values([1, 2, 4, 8, 16], 0, 3))
        doc = operator_to_json(fit)
        assert doc["matrix"] == [[{"num": "2", "den": "1"}]]
        assert doc["residual_sq"] == {"num": "0", "den": "1"}
        assert doc["fit_kind"] == "unique"
