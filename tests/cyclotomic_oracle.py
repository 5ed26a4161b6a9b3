"""Test-only reference for the cyclotomic module: dense cyclotomic polynomials,
the remainder modulo Phi_d, and the product of two polynomials.

cyclotomic_poly builds Phi_n by exact division of x^n - 1 by every Phi_d,
d a proper divisor of n, and cyclotomic_remainder divides by it densely. The
library's divisibility test shares no step with either: it never builds
Phi_d and never divides.
"""

from functools import lru_cache


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


def poly_mul(a, b) -> list[int]:
    """Product of two polynomials (ascending coefficients); empty when either is."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out
