"""Linear complexity over exact fields: Berlekamp-Massey, LFSR generation,
and the comparison against the minimal lifted dimension.

The default field is the rationals: the lifted linear systems live over the
reals, and several small-modulus sequences have strictly lower complexity
over their own prime field (a recorded, deliberate distinction). Connection
coefficients are newest-first: s_k = c_1 s_{k-1} + ... + c_L s_{k-L}.
Reversing the connection vector gives the last row of the equivalent
companion matrix (alpha_j = c_{L-j}).

Berlekamp-Massey runs fraction-free on integers (residues over GF(p)), with
no division inside its loop, so one O(n * L) loop serves both fields: two
periods of an orbit at p = 401 take a few hundredths of a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .dynamics import DhParams, is_prime, simulate
from .lifting import minimal_lifting_dimension
from .linalg_exact import annihilates, scale_to_integers

RATIONAL = "rational"


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
    """Field elements: Fractions over the rationals, residues in [0, p) over GF(p)."""
    if p is None:
        return [Fraction(v) for v in values]
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
    field: object

    @property
    def companion_last_row(self) -> tuple:
        """The equivalent companion-matrix last row (oldest-first ordering)."""
        return tuple(reversed(self.connection))


def berlekamp_massey(sample: SequenceSample) -> LinearComplexityResult:
    """Minimal LFSR of a sequence by the Berlekamp-Massey algorithm.

    Fraction-free, one loop for both fields. Over Q the terms are scaled to
    integers by the lcm of their denominators. The iterates are kept as
    integer multiples C of the connection polynomial, whose discrepancy is
    D = C_0 s_n + sum_i C_i s_{n-i}, so the update C <- Db*C - D*x^m*B
    divides nothing; the content of C is then divided out over Q, and over
    GF(p) everything is reduced mod p. The connection is -C_i / C_0, the
    same Fractions or residues the division form gives. The register is
    verified to satisfy its recurrence across the whole input before being
    returned. Cost: O(n * L) integer operations for n terms and length L.
    """
    p = _modulus(sample.field)
    s = sample.terms
    scale, s = scale_to_integers(s) if p is None else (1, s)
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
        if p is not None:
            d %= p
        if d == 0:
            m += 1
            continue
        new = [db * v for v in c] + [0] * (len(b) + m - len(c))
        for i, bv in enumerate(b):
            new[i + m] -= d * bv
        if p is None:
            g = 0
            for v in new:
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                new = [v // g for v in new]
        else:
            new = [v % p for v in new]
        if 2 * length <= n:
            length = n + 1 - length
            b, db = c, d
            m = 1
        else:
            m += 1
        c = new
    c = (c + [0] * length)[: length + 1]
    if not annihilates(c[::-1], s, p):
        raise RuntimeError("internal error: synthesized register fails to regenerate input")
    if p is None:
        connection = [Fraction(-v, c[0]) for v in c[1:]]
    else:
        inv = pow(c[0], -1, p)
        connection = [-v * inv % p for v in c[1:]]
    return LinearComplexityResult(length=length, connection=tuple(connection), field=sample.field)


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
    """Berlekamp-Massey on two periods of the orbit vs the minimal lifting scan.

    Two full periods certify the recurrence across the wraparound; one
    period would under-determine periodic registers.
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
