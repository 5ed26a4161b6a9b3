"""One exact cyclotomic divisibility test, and an exact zero test for sums of unit roots.

cyclotomic_divides decides whether Phi_d divides an integer polynomial S
without building Phi_d or dividing. Over Q, Q[x]/(x^d - 1) is the product of
the fields Q[x]/Phi_e over e | d, and x^(d/r) - 1 is zero modulo Phi_e
exactly when e | d/r. So the product of x^(d/r) - 1 over the primes r | d is
zero modulo every Phi_e with e a proper divisor of d and a unit modulo Phi_d:
S times it vanishes modulo x^d - 1 exactly when Phi_d divides S. All these
polynomials are monic integer ones, so the same holds over Z. S is folded
modulo x^d - 1 once, and each prime r costs one rotation minus the vector.

A point on the unit circle is stored as its *turn*, a rational t with value
exp(2*pi*i*t). A RootSum is a finite rational combination of such points,
kept only to be tested for zero: scaled to integers, it is S(w) for an
integer polynomial S and w a primitive n-th root of unity, n the lcm of the
turn denominators, and it is zero exactly when Phi_n, the minimal polynomial
of w, divides S.
"""

from __future__ import annotations

from fractions import Fraction

from .dynamics import prime_factors
from .linalg_exact import scale_to_integers


def cyclotomic_degree(d: int) -> int:
    """phi(d), the degree of Phi_d."""
    for r in prime_factors(d):
        d = d // r * (r - 1)
    return d


def cyclotomic_divides(coeffs, d: int) -> bool:
    """Whether Phi_d divides the integer polynomial with these ascending coefficients."""
    g = [sum(coeffs[k::d]) for k in range(d)]  # S modulo x^d - 1
    for r in prime_factors(d):
        s = d // r
        g = [a - b for a, b in zip(g[-s:] + g[:-s], g)]  # g * (x^s - 1) modulo x^d - 1
    return not any(g)


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
        return cyclotomic_divides(coeffs, n)
