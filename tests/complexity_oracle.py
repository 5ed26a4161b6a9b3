"""Test-only oracle: textbook Berlekamp-Massey in field arithmetic.

The package's register synthesis is fraction-free (integer multiples of the
connection polynomial, no division in the loop). This is the classical
division form over Q (Fractions) or GF(p) (residues), with the register
checked by regenerating the input, so the two share no arithmetic step.
"""

from fractions import Fraction

from koopman_dh.complexity import (
    RATIONAL,
    LinearComplexityResult,
    lfsr_generate,
)


def berlekamp_massey_fractions(sample) -> LinearComplexityResult:
    """Minimal LFSR by Berlekamp-Massey with one field division per update."""
    p = None if sample.field == RATIONAL else int(sample.field)
    zero, one = (Fraction(0), Fraction(1)) if p is None else (0, 1)
    s = sample.terms
    c = [one]
    b = [one]
    length = 0
    m = 1
    last_d = one
    for n in range(len(s)):
        d = s[n]
        for i in range(1, length + 1):
            if i < len(c):
                d = d + c[i] * s[n - i]
        if p is not None:
            d %= p
        if d == zero:
            m += 1
            continue
        coef = d / last_d if p is None else d * pow(last_d, -1, p) % p
        prev_c = c[:]
        if len(c) < len(b) + m:
            c = c + [zero] * (len(b) + m - len(c))
        for i, bv in enumerate(b):
            c[i + m] = c[i + m] - coef * bv
        if p is not None:
            c = [v % p for v in c]
        if 2 * length <= n:
            length = n + 1 - length
            b = prev_c
            last_d = d
            m = 1
        else:
            m += 1
    coeffs = [-c[i] if i < len(c) else zero for i in range(1, length + 1)]
    connection = tuple(coeffs if p is None else [v % p for v in coeffs])
    if tuple(lfsr_generate(connection, s[:length], len(s), sample.field)) != s:
        raise RuntimeError("oracle register fails to regenerate input")
    return LinearComplexityResult(length=length, connection=connection, field=sample.field)
