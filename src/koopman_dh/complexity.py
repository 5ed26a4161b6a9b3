"""Linear complexity over exact fields: Berlekamp-Massey, LFSR generation,
and the comparison against the minimal lifted dimension.

The default field is the rationals: the lifted linear systems live over the
reals, and several small-modulus sequences have strictly lower complexity
over their own prime field (a recorded, deliberate distinction). Connection
coefficients are newest-first: s_k = c_1 s_{k-1} + ... + c_L s_{k-L}.
Reversing the connection vector gives the last row of the equivalent
companion matrix (alpha_j = c_{L-j}).

Berlekamp-Massey runs in its division form over GF(l), l = 32749 the
largest prime below 2^15, so that every residue product fits in one 30-bit
CPython digit: two periods of an orbit at p = 1009 take about a tenth of a
second. Over GF(p) that loop is the answer, with l = p. Over Q it is proven
over the integers. Let s be the n terms scaled to integers, L_Q their
complexity over Q and L_l that of s mod l:

- Upper bound. The register lifted from GF(l) by rational reconstruction
  is accepted only if it annihilates s over the integers, so L_Q <= L_l.
- Lower bound, when 2 L_l <= n. Take a minimal Q register C (C(0) = 1,
  deg C <= L_Q, C(x) S(x) = P(x) mod x^n with deg P < L_Q), scale it to
  l-integral coefficients not all divisible by l, and reduce it mod l. If
  its constant term survives, it is a register of length <= L_Q for s mod
  l, so L_l <= L_Q: a primitive integer relation stays nonzero mod l.
  Otherwise it is x^t E with t >= 1 and E(0) != 0, a register of length
  <= L_Q - t for the first n - t terms mod l; past them the length can only
  jump to some k + 1 - L_k >= n + 1 - L_Q, so either L_l <= L_Q - t or
  L_l + L_Q > n, and with 2 L_l <= n the latter gives L_l < L_Q as well.
- So a passing check with 2 L_l <= n proves L_l = L_Q, hence 2 L_Q <= n,
  and then the minimal register is unique (Massey 1969, "Shift-register
  synthesis and BCH decoding"): it is the fraction loop's register, byte
  for byte.

Every other rational input runs the fraction-free loop: 2 L_l > n, a
register whose numerators or common denominator exceed sqrt(l / 2) = 127,
or a failed check (l divides the numerator of a discrepancy of the
rational loop, or the reconstruction is not the register). Every input
with 2 L_Q > n lands there, since no register of length at most n / 2
passes the check, and there the register is not determined by the data,
so no modular run can prove which one the loop returns. The orbits of the
DH map have small integer registers, which the one prime settles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .dynamics import DhParams, is_prime, simulate
from .lifting import minimal_lifting_dimension
from .linalg_exact import _reconstruct, annihilates, scale_to_integers

RATIONAL = "rational"

# The largest prime below 2^15: every residue product fits in one 30-bit digit.
_PRIME = 32749


def _modulus(field) -> int | None:
    """None for the rationals, else the checked prime p of GF(p)."""
    if field == RATIONAL:
        return None
    p = int(field)
    if not is_prime(p):
        raise ValueError(f"prime-field modulus must be prime, got {p}")
    return p


def _residue(v, p: int) -> int:
    """The image of a rational a/b in GF(p), a * b^-1 mod p; b must be a unit."""
    if isinstance(v, int):
        return v % p
    v = Fraction(v)
    if v.denominator % p == 0:
        raise ValueError(f"{v} has no image in GF({p}): its denominator is divisible by {p}")
    return v.numerator * pow(v.denominator, -1, p) % p


def _elements(values, p: int | None) -> list:
    """Field elements: ints and Fractions over the rationals, residues in [0, p) over GF(p)."""
    if p is None:
        return [v if isinstance(v, int) else Fraction(v) for v in values]
    return [_residue(v, p) for v in values]


@dataclass(frozen=True)
class SequenceSample:
    """A finite sequence tagged with the field its terms live in."""

    terms: tuple
    field: object = RATIONAL

    def __post_init__(self):
        if not self.terms:
            raise ValueError("sequence must be nonempty")
        object.__setattr__(self, "terms", tuple(_elements(self.terms, _modulus(self.field))))


@dataclass(frozen=True)
class LinearComplexityResult:
    """Minimal register length L with connection coefficients (newest-first)."""

    length: int
    connection: tuple


def berlekamp_massey(sample: SequenceSample) -> LinearComplexityResult:
    """Minimal LFSR of a sequence by the Berlekamp-Massey algorithm.

    Over GF(p), the division form mod p. Over Q, the terms are scaled to
    integers, the division form runs mod l = 32749, and its register is
    lifted by rational reconstruction. The proof is two-sided (module
    docstring): the lift must annihilate the scaled terms over the
    integers, so L_Q <= L_l; and when 2 L_l <= n a primitive integer
    relation of length L_Q stays a register mod l, or the length profile
    forces L_l < L_Q, so L_l <= L_Q. Then L_l = L_Q <= n/2 and the minimal
    register is unique: the fraction loop's, byte for byte. Any other
    rational input goes to the fraction-free loop, among them every input
    with 2 L_Q > n: there the data do not determine the register, and only
    that loop says which one it returns. Every register is checked against
    the whole input before it is returned. Cost: O(n * L) word operations
    for n terms and length L, plus the fraction-free loop when the lift
    fails.
    """
    p = _modulus(sample.field)
    if p is not None:
        length, c = _division_form(sample.terms, p)
        if not annihilates([c[::-1]], sample.terms, p):
            raise RuntimeError("internal error: synthesized register fails to regenerate input")
        connection = tuple(-v % p for v in c[1:])
    else:
        scale, s = scale_to_integers(sample.terms)
        found = _modular_register(s)
        length, connection = found if found is not None else _fraction_free(s, scale)
    return LinearComplexityResult(length=length, connection=connection)


def _division_form(s, prime: int) -> tuple[int, list[int]]:
    """(L, C): Berlekamp-Massey over GF(prime) on the residues s, C[0] = 1.

    C = [1, -c_1, ..., -c_L] is the connection polynomial, entries in
    [0, prime). Each update subtracts (d / db) x^m B, with db the
    discrepancy at the last length change and B the polynomial before it.
    """
    rs = s[::-1]
    top = len(s) - 1
    c, b = [1], [1]
    db_inv, length, m = 1, 0, 1
    for n in range(len(s)):
        start = top - n
        d = sum(map(mul, c, rs[start : start + length + 1])) % prime
        if not d:
            m += 1
            continue
        coef = prime - d * db_inv % prime
        old = c[:] if 2 * length <= n else None
        end = m + len(b)
        if len(c) < end:
            c += [0] * (end - len(c))
        c[m:end] = [(x + coef * y) % prime for x, y in zip(c[m:end], b)]
        if old is None:
            m += 1
        else:
            length, b, db_inv, m = n + 1 - length, old, pow(d, -1, prime), 1
    return length, (c + [0] * length)[: length + 1]


def _modular_register(s) -> tuple[int, tuple] | None:
    """(L, connection) over Q of the integer terms s from one run mod
    _PRIME, or None for the fraction-free loop (module docstring).

    None when 2L > n mod _PRIME, when the register has no rational form
    with numerators and common denominator at most sqrt(_PRIME / 2) = 127,
    or when the lifted register fails the integer check.
    """
    length, c = _division_form([v % _PRIME for v in s], _PRIME)
    if 2 * length > len(s):
        return None
    candidate = _reconstruct([-v % _PRIME for v in c[1:]], _PRIME)
    if candidate is None:
        return None
    den, nums = candidate
    if not annihilates([[-v for v in reversed(nums)] + [den]], s, None):
        return None
    return length, tuple(Fraction(v, den) for v in nums)


def _fraction_free(s, scale: int) -> tuple[int, tuple]:
    """(L, connection) of the integer terms s by fraction-free Berlekamp-Massey over Q.

    The iterates are integer multiples C of the connection polynomial,
    whose discrepancy is D = C_0 s_n + sum_i C_i s_{n-i}, so the update
    C <- Db*C - D*x^m*B divides nothing; the content of C is then divided
    out. The connection is -C_i / C_0, the same Fractions the division form
    gives on the unscaled terms (s divided by scale).
    """
    c = [1]  # an integer multiple of the current connection polynomial
    b = [1]  # c as it was before the last length change, with discrepancy db
    # The first update divides by a unit discrepancy in the input's own
    # units. After leading zeros it sets a coefficient the input does not
    # constrain, so db starts at the scale to keep the unscaled register.
    db = scale
    length = 0
    m = 1
    for n in range(len(s)):
        d = c[0] * s[n]
        for i in range(1, min(length + 1, len(c))):
            d += c[i] * s[n - i]
        if d == 0:
            m += 1
            continue
        new = [db * v for v in c] + [0] * (len(b) + m - len(c))
        for i, bv in enumerate(b):
            new[i + m] -= d * bv
        g = 0
        for v in new:
            g = gcd(g, v)
            if g == 1:
                break
        if g > 1:
            new = [v // g for v in new]
        if 2 * length <= n:
            length = n + 1 - length
            b, db = c, d
            m = 1
        else:
            m += 1
        c = new
    c = (c + [0] * length)[: length + 1]
    if not annihilates([c[::-1]], s, None):
        raise RuntimeError("internal error: synthesized register fails to regenerate input")
    return length, tuple(Fraction(-v, c[0]) for v in c[1:])


def lfsr_generate(connection, seed, n: int, field=RATIONAL) -> list:
    """Extend a seed by the register rule s_k = sum_i connection_i * s_{k-i}."""
    if len(seed) != len(connection):
        raise ValueError(
            f"seed length {len(seed)} must equal connection length {len(connection)}"
        )
    p = _modulus(field)
    zero = Fraction(0) if p is None else 0
    coeffs = _elements(connection, p)
    out = _elements(seed, p)[:n]
    while len(out) < n:
        nxt = zero
        for i, ci in enumerate(coeffs):
            nxt = nxt + ci * out[-1 - i]
        out.append(nxt if p is None else nxt % p)
    return out


@dataclass(frozen=True)
class KoopmanLfsrComparison:
    """Side-by-side of register length and minimal lifted dimension."""

    lfsr_length: int
    koopman_dimension: int
    equal: bool
    connection: tuple


def compare_koopman_vs_lfsr(params: DhParams) -> KoopmanLfsrComparison:
    """Berlekamp-Massey on two periods of the orbit vs the minimal lifted dimension.

    The dimension comes from the orbit's cyclotomic certificate
    (lifting.closing_divisors, via minimal_lifting_dimension). Two full
    periods certify the recurrence across the wraparound; one period would
    under-determine periodic registers.
    """
    traj = simulate(params.m, params, 1, 2 * params.period - 1)
    result = berlekamp_massey(SequenceSample(terms=traj.values, field=RATIONAL))
    dimension = minimal_lifting_dimension(params, traj)
    return KoopmanLfsrComparison(
        lfsr_length=result.length,
        koopman_dimension=dimension,
        equal=result.length == dimension,
        connection=result.connection,
    )
