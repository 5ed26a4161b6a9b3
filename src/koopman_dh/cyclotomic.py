"""Cyclotomic polynomials and an exact zero test for sums of unit roots.

A point on the unit circle is stored as its *turn*, a rational t with value
exp(2*pi*i*t). A RootSum is a finite rational combination of such points,
kept only to be tested for zero: scaled to integers, it is S(w) for an
integer polynomial S and w a primitive n-th root of unity, n the lcm of the
turn denominators, and it is zero exactly when Phi_n, the minimal polynomial
of w, divides S. cyclotomic_remainder decides that divisibility; the same
reduction modulo Phi_d finds the closing divisors of a period polynomial.
Conversion to complex floats happens only at output boundaries.
"""

from __future__ import annotations

from cmath import exp as cexp
from fractions import Fraction
from functools import lru_cache
from math import pi

from .linalg_exact import scale_to_integers


def turn_to_complex(turn: Fraction) -> complex:
    return cexp(2j * pi * float(turn))


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_exact_div(poly, cyclotomic_poly(d))
    return tuple(poly)


def _poly_divmod(num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (ascending), den monic."""
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * (len(num) - deg_d)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + deg_d]
        if c:
            quot[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    return quot, num[:deg_d]


def _poly_exact_div(num: list[int], den) -> list[int]:
    # den is monic, division is exact by construction
    quot, rem = _poly_divmod(num, den)
    if any(rem):
        raise ArithmeticError("polynomial division was not exact")
    return quot


def cyclotomic_remainder(coeffs, d: int) -> list[int]:
    """S(x) mod Phi_d(x) for an integer polynomial S (ascending coefficients).

    Phi_d divides x^d - 1, so S is first folded modulo x^d - 1 (coefficient
    k adds into k mod d) in one pass, then divided by the monic Phi_d.
    """
    folded = [sum(coeffs[r::d]) for r in range(d)]
    return _poly_divmod(folded, cyclotomic_poly(d))[1]


class RootSum:
    """Finite sum of rational multiples of unit roots, with an exact zero test.

    Turns are kept as given: t and t + 1 name one root, and the reduction
    modulo x^n - 1 in is_zero merges them.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Fraction, Fraction]):
        self.terms = {Fraction(t): Fraction(c) for t, c in terms.items() if c}

    def is_zero(self) -> bool:
        """Exact zero test: whether Phi_n divides the sum's integer polynomial."""
        n, powers = scale_to_integers(self.terms)  # turn t is the power t * n
        low = min(powers, default=0)  # dividing by w^low keeps every power nonnegative
        coeffs = [0] * (max(powers, default=0) - low + 1)
        for k, c in zip(powers, scale_to_integers(self.terms.values())[1]):
            coeffs[k - low] += c
        return not any(cyclotomic_remainder(coeffs, n))
