import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexity_oracle import berlekamp_massey_fractions, bruteforce_min_lfsr
from conftest import PRIMES_TO_61
from koopman_dh import complexity
from koopman_dh.complexity import (
    RATIONAL,
    SequenceSample,
    berlekamp_massey,
    compare_koopman_vs_lfsr,
    lfsr_generate,
)
from koopman_dh.dynamics import DhParams, simulate

F = Fraction

EX1 = (0, 1, 2, 0, 1, 2, 0, 1, 2)


def two_periods(p, m):
    params = DhParams(p, m)
    return simulate(m, params, 1, 2 * (p - 1) - 1).values


class TestBerlekampMassey:
    def test_example1_rational(self):
        result = berlekamp_massey(SequenceSample(terms=EX1))
        assert result.length == 3
        assert result.connection == (0, 0, 1)

    def test_p5_trajectory(self):
        result = berlekamp_massey(SequenceSample(terms=two_periods(5, 2)))
        assert result.length == 3
        assert result.connection == (1, -1, 1)

    def test_all_zero(self):
        result = berlekamp_massey(SequenceSample(terms=(0, 0, 0, 0)))
        assert result.length == 0
        assert result.connection == ()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SequenceSample(terms=())

    def test_nonprime_field_rejected(self):
        with pytest.raises(ValueError):
            SequenceSample(terms=(1, 2), field=6)

    def test_rational_terms_map_into_prime_field(self):
        # 1/2 is 2 in GF(3) (2 * 2 = 4 = 1), not the truncation 0
        assert SequenceSample(terms=(F(1, 2), 1), field=3).terms == (2, 1)
        assert SequenceSample(terms=(F(-3, 4), F(6, 2)), field=7).terms == (1, 3)

    def test_rational_term_without_image_rejected(self):
        with pytest.raises(ValueError, match="GF\\(3\\)"):
            SequenceSample(terms=(F(1, 3), 1), field=3)

    def test_field_sensitivity_example1(self):
        # complexity 3 over the rationals but 2 over GF(3)
        assert berlekamp_massey(SequenceSample(terms=EX1)).length == 3
        mod3 = berlekamp_massey(SequenceSample(terms=EX1, field=3))
        assert mod3.length == 2
        assert lfsr_generate(mod3.connection, EX1[:2], len(EX1), field=3) == list(EX1)

    def test_prime_field_recovers_register(self):
        # over GF(7) the update divides by discrepancies with inverses != themselves
        terms = lfsr_generate((2, 3), (1, 4), 12, field=7)
        result = berlekamp_massey(SequenceSample(terms=tuple(terms), field=7))
        assert (result.length, result.connection) == (2, (2, 3))

    def test_affine_example_sequence(self):
        # 1,4,10,22,46,... satisfies s_k = 3 s_{k-1} - 2 s_{k-2}
        terms = lfsr_generate((3, -2), (1, 4), 12)
        result = berlekamp_massey(SequenceSample(terms=terms))
        assert result.length == 2
        assert result.connection == (3, -2)

    def test_companion_last_row_mapping(self):
        # the companion matrix's last row, oldest first, is the reversed
        # connection (the complexity report's companion_last_row): it maps
        # each window of the sequence to the next term
        terms = two_periods(5, 2)
        result = berlekamp_massey(SequenceSample(terms=terms))
        row, n = result.connection[::-1], result.length
        for k in range(len(terms) - n):
            assert sum(c * s for c, s in zip(row, terms[k : k + n])) == terms[k + n]


@st.composite
def samples(draw):
    """Sequences over Q or a small GF(p): arbitrary, register-generated or all zero.

    Terms are rationals with small denominators (units mod p over GF(p)),
    negative values included, after up to four leading zeros.
    """
    field = draw(st.sampled_from([RATIONAL, 2, 3, 5, 7, 23]))
    dens = [b for b in range(1, 7) if field == RATIONAL or b % field]
    term = st.builds(F, st.integers(-20, 20), st.sampled_from(dens))
    kind = draw(st.sampled_from(["arbitrary", "register", "zero"]))
    if kind == "zero":
        return SequenceSample(terms=(0,) * draw(st.integers(1, 10)), field=field)
    lead = [0] * draw(st.integers(0, 4))
    if kind == "arbitrary":
        body = draw(st.lists(term, min_size=0 if lead else 1, max_size=12))
    else:
        order = draw(st.integers(1, 4))
        connection = draw(st.lists(term, min_size=order, max_size=order))
        seed = draw(st.lists(term, min_size=order, max_size=order))
        body = lfsr_generate(connection, seed, draw(st.integers(order, 14)), field)
    return SequenceSample(terms=tuple(lead + list(body)), field=field)


class TestAgainstFractionOracle:
    """The package's Berlekamp-Massey against the textbook division form."""

    @settings(max_examples=400, deadline=None)
    @given(samples())
    def test_equal_to_oracle(self, sample):
        result = berlekamp_massey(sample)
        assert result == berlekamp_massey_fractions(sample)
        kind = F if sample.field == RATIONAL else int
        assert all(type(c) is kind for c in result.connection)

    @pytest.mark.parametrize("p", [61, 101, 199])
    def test_orbit_two_periods_equal_to_oracle(self, p):
        sample = SequenceSample(terms=two_periods(p, DhParams.with_smallest_root(p).m))
        assert berlekamp_massey(sample) == berlekamp_massey_fractions(sample)

    def test_leading_zeros_keep_the_unscaled_register(self):
        # after eleven zeros the first update sets c_12 = -s_11, which the
        # input does not constrain: scaling the terms by 2 must not double it
        terms = (0,) * 11 + (2, 3, F(-3, 2), 3, -1, F(5, 2), 0, 1, 0, 2)
        sample = SequenceSample(terms=terms)
        result = berlekamp_massey(sample)
        assert result == berlekamp_massey_fractions(sample)
        assert result.connection[-1] == 2

    def test_failed_recurrence_check_raises(self, monkeypatch):
        monkeypatch.setattr(complexity, "annihilates", lambda c, s, p: False)
        with pytest.raises(RuntimeError, match="fails to regenerate"):
            berlekamp_massey(SequenceSample(terms=two_periods(7, 3)))

    def test_recurrence_check_rejects_a_wrong_register(self):
        # C = (1, -1) says s_k = s_{k-1}; the check takes it oldest first
        assert complexity.annihilates([[-1, 1]], [5, 5, 5], None)
        assert not complexity.annihilates([[-1, 1]], [5, 5, 6], None)
        assert not complexity.annihilates([[-1, 1]], [5, 6, 6], None)  # the first window counts
        assert complexity.annihilates([[-1, 1]], [5, 5, 12], 7)
        assert not complexity.annihilates([[-1, 1]], [5, 5, 12], 5)


@pytest.fixture
def division_runs(monkeypatch):
    """(prime, length) of every GF(l) run of complexity._division_form, in order."""
    runs = []
    real = complexity._division_form

    def spy(s, prime):
        result = real(s, prime)
        runs.append((prime, result[0]))
        return result

    monkeypatch.setattr(complexity, "_division_form", spy)
    return runs


@pytest.fixture
def fraction_free_calls(monkeypatch):
    """How often the fraction-free loop ran, as a one-entry list."""
    calls = [0]
    real = complexity._fraction_free

    def spy(s, scale):
        calls[0] += 1
        return real(s, scale)

    monkeypatch.setattr(complexity, "_fraction_free", spy)
    return calls


class TestModularLift:
    """The GF(32749) run and its lift to Q against the textbook division form."""

    def test_integer_register_takes_one_prime(self, division_runs, fraction_free_calls):
        sample = SequenceSample(terms=two_periods(61, 2))
        assert berlekamp_massey(sample) == berlekamp_massey_fractions(sample)
        assert division_runs == [(32749, 31)]
        assert fraction_free_calls == [0]

    def test_small_rational_register_lifts(self, division_runs, fraction_free_calls):
        connection = (F(5, 7), F(-3, 4))
        sample = SequenceSample(terms=tuple(lfsr_generate(connection, (1, F(2, 3)), 10)))
        result = berlekamp_massey(sample)
        assert result == berlekamp_massey_fractions(sample)
        assert result.connection == connection
        assert division_runs == [(32749, 2)]
        assert fraction_free_calls == [0]

    def test_unlucky_prime_goes_to_the_fraction_loop(self, division_runs, fraction_free_calls):
        # s_k = -3 s_{k-2} from (94/5, 79/5): scaled by 5 the terms are
        # 94, 79, -282, ..., and the discrepancy at the length change 1 -> 2
        # is (94 * -282 - 79^2) / 94 = -32749 / 94. Mod 32749 the terms are
        # geometric, so the prime finds the register (79/94,), which
        # reconstructs and fails the integer check.
        terms = lfsr_generate((0, -3), (F(94, 5), F(79, 5)), 12)
        sample = SequenceSample(terms=tuple(terms))
        result = berlekamp_massey(sample)
        assert result == berlekamp_massey_fractions(sample)
        assert (result.length, result.connection) == (2, (0, -3))
        assert division_runs == [(32749, 1)]
        assert fraction_free_calls == [1]

    def test_terms_all_divisible_by_the_prime(self, division_runs, fraction_free_calls):
        # length 0 mod 32749, and the empty register fails the integer check
        sample = SequenceSample(terms=(32749, 65498, 130996, 261992))
        result = berlekamp_massey(sample)
        assert result == berlekamp_massey_fractions(sample)
        assert (result.length, result.connection) == (1, (2,))
        assert division_runs == [(32749, 0)]
        assert fraction_free_calls == [1]

    def test_large_rational_register_goes_to_the_fraction_loop(
        self, division_runs, fraction_free_calls
    ):
        # numerators and denominators far above sqrt(32749 / 2) = 127
        connection = (F(1000, 7), F(-3, 1001))
        terms = lfsr_generate(connection, (1, 2), 10)
        sample = SequenceSample(terms=tuple(terms))
        result = berlekamp_massey(sample)
        assert result == berlekamp_massey_fractions(sample)
        assert result.connection == connection
        assert division_runs == [(32749, 2)]
        assert fraction_free_calls == [1]

    def test_tall_register_of_random_terms(self, division_runs, fraction_free_calls):
        rng = random.Random(30)
        sample = SequenceSample(terms=tuple(rng.getrandbits(30) for _ in range(40)))
        result = berlekamp_massey(sample)
        assert result == berlekamp_massey_fractions(sample)
        assert result.length == 20
        assert division_runs == [(32749, 20)]
        assert fraction_free_calls == [1]

    @pytest.mark.parametrize(
        "terms", [(3, 1, 4, 1, 5), (0, 0, 0, 5), (7,), (1, 2, 5), (2, F(1, 3), 5, 0, 1)]
    )
    def test_underdetermined_goes_to_the_fraction_loop(self, terms, fraction_free_calls):
        sample = SequenceSample(terms=terms)
        result = berlekamp_massey(sample)
        assert 2 * result.length > len(terms)
        assert result == berlekamp_massey_fractions(sample)
        assert fraction_free_calls == [1]

    def test_never_passing_check_raises(self, monkeypatch, division_runs):
        monkeypatch.setattr(complexity, "annihilates", lambda c, s, p: False)
        with pytest.raises(RuntimeError, match="fails to regenerate"):
            berlekamp_massey(SequenceSample(terms=two_periods(7, 3)))
        assert division_runs == [(32749, 4)]

    @pytest.mark.parametrize("seed", range(5))
    def test_prime_field_above_2_15(self, seed):
        rng = random.Random(seed)
        l = 1000003
        terms = lfsr_generate(
            [rng.randrange(l) for _ in range(4)], [rng.randrange(l) for _ in range(4)], 12, l
        )
        for sample in (
            SequenceSample(terms=tuple(terms), field=l),
            SequenceSample(terms=tuple(rng.randrange(-l, l) for _ in range(9)), field=l),
        ):
            result = berlekamp_massey(sample)
            assert result == berlekamp_massey_fractions(sample)
            assert all(type(c) is int for c in result.connection)


class TestLfsrGenerate:
    def test_affine_sequence(self):
        assert lfsr_generate((3, -2), (1, 4), 5) == [1, 4, 10, 22, 46]

    def test_pure_delay(self):
        assert lfsr_generate((0, 0, 1), (0, 1, 2), 6) == [0, 1, 2, 0, 1, 2]

    def test_seed_only(self):
        assert lfsr_generate((F(5), F(-3)), (7, 9), 2) == [7, 9]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lfsr_generate((1, 2), (1,), 5)

    def test_prime_field_generation(self):
        assert lfsr_generate((2, 2), (0, 1), 9, field=3) == list(EX1)


class TestBruteforceOracle:
    def test_example1(self):
        assert bruteforce_min_lfsr(SequenceSample(terms=EX1), 5).length == 3

    def test_p7_two_periods(self):
        sample = SequenceSample(terms=two_periods(7, 3))
        assert bruteforce_min_lfsr(sample, 6).length == 4

    def test_constant_sequence(self):
        assert bruteforce_min_lfsr(SequenceSample(terms=(5, 5, 5, 5)), 3).length == 1

    def test_none_above_bound(self):
        sample = SequenceSample(terms=two_periods(23, 5))
        assert bruteforce_min_lfsr(sample, 5) is None

    def test_bound_capped(self):
        with pytest.raises(ValueError):
            bruteforce_min_lfsr(SequenceSample(terms=EX1), 13)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=10))
    def test_oracle_agreement_rational(self, terms):
        sample = SequenceSample(terms=tuple(terms))
        bm = berlekamp_massey(sample)
        brute = bruteforce_min_lfsr(sample, min(12, len(terms)))
        assert brute is not None
        assert bm.length == brute.length

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=9))
    def test_oracle_agreement_prime_field(self, terms):
        sample = SequenceSample(terms=tuple(terms), field=3)
        bm = berlekamp_massey(sample)
        brute = bruteforce_min_lfsr(sample, min(12, len(terms)))
        assert brute is not None
        assert bm.length == brute.length


class TestRegeneration:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=12))
    def test_connection_regenerates_input(self, terms):
        sample = SequenceSample(terms=tuple(terms))
        result = berlekamp_massey(sample)
        regenerated = lfsr_generate(
            result.connection, sample.terms[: result.length], len(terms)
        )
        assert tuple(regenerated) == sample.terms

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda L: st.tuples(
                st.lists(st.integers(-2, 2), min_size=L, max_size=L),
                st.lists(st.integers(-2, 2), min_size=L, max_size=L),
            )
        )
    )
    def test_bm_never_exceeds_generating_register(self, conn_seed):
        connection, seed = conn_seed
        terms = lfsr_generate(tuple(connection), tuple(seed), 14)
        result = berlekamp_massey(SequenceSample(terms=tuple(terms)))
        assert result.length <= len(connection)


class TestComparison:
    @pytest.mark.parametrize("p,m,expected", [(5, 2, 3), (7, 3, 4), (23, 5, 12)])
    def test_examples(self, p, m, expected):
        report = compare_koopman_vs_lfsr(DhParams(p, m))
        assert (report.lfsr_length, report.koopman_dimension, report.equal) == (
            expected,
            expected,
            True,
        )

    @pytest.mark.parametrize("p", PRIMES_TO_61[:8])
    def test_attainment(self, p):
        report = compare_koopman_vs_lfsr(DhParams.with_smallest_root(p))
        assert report.equal
        assert report.lfsr_length == (p - 1) // 2 + 1
