"""Test-only exact references for the spectral module: RootSum ring
arithmetic, the exact Lagrange rows of the eigenvector inverse, and the
eigenpair check built entry by entry.

The library keeps only the RootSum zero test; these references build whole
RootSum expressions and zero-test them, so they share the test but none of
the library's shortcuts (the float Vinv, the integer shift-row identities).
"""

from fractions import Fraction
from functools import lru_cache

from koopman_dh.cyclotomic import RootSum, turn_to_complex
from koopman_dh.spectral import char_alpha


class ExactRootSum(RootSum):
    """RootSum closed under addition and multiplication."""

    __slots__ = ()

    @classmethod
    def root(cls, turn, coeff=1) -> "ExactRootSum":
        """coeff times the unit root of the given turn; root(0, c) is the scalar c."""
        return cls({Fraction(turn): Fraction(coeff)})

    @classmethod
    def of(cls, pairs) -> "ExactRootSum":
        """Sum of (turn, coeff) pairs; turns may repeat or exceed a full turn."""
        terms: dict[Fraction, Fraction] = {}
        for t, c in pairs:
            terms[t] = terms.get(t, Fraction(0)) + c
        return cls(terms)

    def __add__(self, other: "ExactRootSum") -> "ExactRootSum":
        return self.of([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other: "ExactRootSum") -> "ExactRootSum":
        return self + other * -1

    def __mul__(self, other) -> "ExactRootSum":
        if not isinstance(other, RootSum):
            other = self.root(0, other)
        return self.of(
            (t1 + t2, c1 * c2) for t1, c1 in self.terms.items() for t2, c2 in other.terms.items()
        )

    __rmul__ = __mul__

    def rotated(self, turn) -> "ExactRootSum":
        """Multiply by the unit root of the given turn."""
        return self * self.root(turn)

    def __eq__(self, other) -> bool:
        return (self - other).is_zero()

    def __complex__(self) -> complex:
        return sum((complex(c) * turn_to_complex(t) for t, c in self.terms.items()), 0j)


ZERO = ExactRootSum({})


def inv_root_minus_one(turn, n: int) -> ExactRootSum:
    """Exact 1/(z - 1) for a unit root z of the given turn with z^n = 1, z != 1.

    Since z^n = 1 and z != 1, (z - 1) * sum_{t=0}^{n-1} t z^t = n, so the
    inverse is that weighted power sum divided by n.
    """
    turn = Fraction(turn) % 1
    if (turn * n).denominator != 1:
        raise ValueError(f"turn {turn} is not an n-th root of unity for n={n}")
    if turn == 0:
        raise ValueError("z = 1 has no inverse of z - 1")
    return ExactRootSum.of((turn * t, Fraction(t, n)) for t in range(1, n))


def _turns(q: int) -> tuple[Fraction, ...]:
    return (Fraction(0),) + tuple(Fraction(2 * k + 1, 2 * q) for k in range(q))


@lru_cache(maxsize=None)
def vandermonde_exact(q: int) -> tuple[tuple[ExactRootSum, ...], ...]:
    """Exact eigenvector matrix: entry (r, j) is the unit root of turn r*t_j."""
    return tuple(tuple(ExactRootSum.root(r * t) for t in _turns(q)) for r in range(q + 1))


@lru_cache(maxsize=None)
def vinv_exact(q: int) -> tuple[tuple[ExactRootSum, ...], ...]:
    """Exact rows of the inverse eigenvector matrix via Lagrange interpolation.

    Row j holds the coefficients of the Lagrange basis polynomial of node
    l_j within the spectrum, so row_j(l_k) = delta_jk. For l = 1 the row is
    (x^q + 1)/2. For an odd root l the quotient (x^q + 1)/(x - l) has
    coefficient l^(q-1-c) at x^c and the node weight is -l/(q*(l - 1)),
    with 1/(l - 1) expanded exactly as a weighted power sum of l.
    """
    half = ExactRootSum.root(0, Fraction(1, 2))
    rows = [(half,) + (ZERO,) * (q - 1) + (half,)]
    for t in _turns(q)[1:]:
        weight = inv_root_minus_one(t, 2 * q).rotated(t) * Fraction(-1, q)
        row = [weight.rotated(t * (q - 1)) * -1]
        row += [weight.rotated(t * (q - c)) - weight.rotated(t * (q - 1 - c)) for c in range(1, q)]
        rows.append(tuple(row + [weight]))
    return tuple(rows)


def transform_exact(z, q: int) -> list[ExactRootSum]:
    """Exact eigencoordinates Vinv z of an integer lifted state."""
    return [sum((entry * val for entry, val in zip(row, z)), ZERO) for row in vinv_exact(q)]


def eigenpair_residuals_by_rootsum(dec) -> bool:
    """Reference check: every row of A v(l) - l v(l) built and zero-tested in RootSum.

    (q+1)^2 zero tests per decomposition; eigenpair_residuals_exact_zero must
    agree with it.
    """
    alpha = char_alpha(dec.q)
    for t in dec.turns:
        v = [ExactRootSum.root(r * t) for r in range(dec.q + 1)]
        shifted = [x.rotated(t) for x in v]
        av = v[1:] + [sum((a * x for a, x in zip(alpha, v)), ZERO)]
        if any(not (lhs - rhs).is_zero() for lhs, rhs in zip(av, shifted)):
            return False
    return True
