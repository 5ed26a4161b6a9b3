"""Exact arithmetic with sums of unit-circle roots.

A point on the unit circle is stored as its *turn*, the rational t in [0, 1)
with value exp(2*pi*i*t). A RootSum is a finite rational combination of such
points, closed under addition and multiplication, with an exact zero test:
after folding antipodal turns (t + 1/2 has value -1 times t), the element is
written as an integer polynomial in a primitive n-th root of unity and
reduced modulo the n-th cyclotomic polynomial, the minimal polynomial of
that root. Conversion to complex floats happens only at output boundaries.
"""

from __future__ import annotations

from cmath import exp as cexp
from fractions import Fraction
from functools import lru_cache
from math import lcm, pi

HALF = Fraction(1, 2)


def _fold(turn: Fraction, coeff: Fraction) -> tuple[Fraction, Fraction]:
    turn %= 1
    if turn >= HALF:
        return turn - HALF, -coeff
    return turn, coeff


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
    """Exact finite sum of rational multiples of unit roots."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Fraction, Fraction] | None = None):
        folded: dict[Fraction, Fraction] = {}
        for turn, coeff in (terms or {}).items():
            turn, coeff = _fold(Fraction(turn), Fraction(coeff))
            folded[turn] = folded.get(turn, Fraction(0)) + coeff
        self.terms = {t: c for t, c in folded.items() if c != 0}

    @classmethod
    def zero(cls) -> "RootSum":
        return cls()

    @classmethod
    def from_scalar(cls, value) -> "RootSum":
        return cls({Fraction(0): Fraction(value)})

    @classmethod
    def root(cls, turn: Fraction) -> "RootSum":
        return cls({Fraction(turn): Fraction(1)})

    def __add__(self, other: "RootSum") -> "RootSum":
        terms = dict(self.terms)
        for t, c in other.terms.items():
            terms[t] = terms.get(t, Fraction(0)) + c
        return RootSum(terms)

    def __sub__(self, other: "RootSum") -> "RootSum":
        return self + (-other)

    def __neg__(self) -> "RootSum":
        return RootSum({t: -c for t, c in self.terms.items()})

    def __mul__(self, other) -> "RootSum":
        if isinstance(other, RootSum):
            terms: dict[Fraction, Fraction] = {}
            for t1, c1 in self.terms.items():
                for t2, c2 in other.terms.items():
                    t, c = _fold(t1 + t2, c1 * c2)
                    terms[t] = terms.get(t, Fraction(0)) + c
            return RootSum(terms)
        return self.scaled(other)

    __rmul__ = __mul__

    def scaled(self, factor) -> "RootSum":
        return RootSum({t: c * Fraction(factor) for t, c in self.terms.items()})

    def rotated(self, turn: Fraction) -> "RootSum":
        """Multiply by the unit root of the given turn."""
        return RootSum({t + turn: c for t, c in self.terms.items()})

    def conjugate(self) -> "RootSum":
        return RootSum({-t: c for t, c in self.terms.items()})

    def is_zero(self) -> bool:
        """Exact zero test by reduction modulo a cyclotomic polynomial."""
        if not self.terms:
            return True
        n = lcm(*[t.denominator for t in self.terms])
        if n == 1:
            return False  # a single nonzero multiple of 1
        scale = lcm(*[c.denominator for c in self.terms.values()])
        coeffs = [0] * n
        for t, c in self.terms.items():
            coeffs[int(t * n)] += int(c * scale)
        return not any(_poly_divmod(coeffs, cyclotomic_poly(n))[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootSum):
            return NotImplemented
        return (self - other).is_zero()

    def __complex__(self) -> complex:
        return sum((complex(c) * turn_to_complex(t) for t, c in self.terms.items()), 0j)

    def __repr__(self) -> str:
        if not self.terms:
            return "RootSum(0)"
        parts = [f"{c}*e({t})" for t, c in sorted(self.terms.items())]
        return "RootSum(" + " + ".join(parts) + ")"


def inv_root_minus_one(turn: Fraction, n: int) -> RootSum:
    """Exact 1/(z - 1) for a unit root z of the given turn with z^n = 1, z != 1.

    Since z^n = 1 and z != 1, (z - 1) * sum_{t=0}^{n-1} t z^t = n, so the
    inverse is that weighted power sum divided by n.
    """
    turn = Fraction(turn) % 1
    if (turn * n).denominator != 1:
        raise ValueError(f"turn {turn} is not an n-th root of unity for n={n}")
    if turn == 0:
        raise ValueError("z = 1 has no inverse of z - 1")
    terms: dict[Fraction, Fraction] = {}
    inv_n = Fraction(1, n)
    for t in range(1, n):
        key, coeff = _fold(turn * t, t * inv_n)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return RootSum(terms)
