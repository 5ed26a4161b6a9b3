"""Test-only references for the spectral module: RootSum ring arithmetic,
the exact Lagrange rows of the eigenvector inverse, the eigenpair check built
entry by entry, the floating eigenpair residual, and exponent recovery as a
per-eigenvalue rounding loop over Fraction turns.

The library keeps only the RootSum zero test; these references build whole
RootSum expressions and zero-test them, so they share the test but none of
the library's shortcuts (the closed-form float Vinv, the untested shift rows).
"""

from cmath import isfinite, phase
from fractions import Fraction
from functools import lru_cache
from math import gcd, pi, sin

import numpy as np

from koopman_dh.cyclotomic import RootSum, turn_to_complex
from koopman_dh.lifting import companion_matrix
from koopman_dh.spectral import ExponentEstimate, RecoveryError, char_alpha


class ExactRootSum(RootSum):
    """RootSum closed under addition and multiplication, its turns kept in [0, 1)."""

    __slots__ = ()

    @classmethod
    def root(cls, turn, coeff=1) -> "ExactRootSum":
        """coeff times the unit root of the given turn; root(0, c) is the scalar c."""
        return cls.of([(turn, coeff)])

    @classmethod
    def of(cls, pairs) -> "ExactRootSum":
        """Sum of (turn, coeff) pairs; turns may repeat or exceed a full turn."""
        terms: dict[Fraction, Fraction] = {}
        for t, c in pairs:
            t = t % 1
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


def vandermonde(dec) -> np.ndarray:
    """Floating eigenvector matrix V: entry (r, j) is l_j^r, the root of turn
    (r * index[j] mod 2q) / 2q. The library keeps only its inverse."""
    q = dec.q
    return dec.roots[np.outer(np.arange(q + 1), dec.index) % (2 * q)]


def eigenpair_residual_float(dec) -> float:
    """Max-norm residual of A V - V diag(eigenvalues) in the floating mirror."""
    a = np.array(companion_matrix(char_alpha(dec.q)), dtype=float)
    v = vandermonde(dec)
    return float(np.max(np.abs(a @ v - v * dec.eigenvalues[None, :])))


def _crt(r1: int, m1: int, r2: int, m2: int):
    """(r, lcm(m1, m2)) with x = r mod lcm exactly when x = r1 mod m1 and
    x = r2 mod m2; None when no x satisfies both."""
    g = gcd(m1, m2)
    if (r2 - r1) % g:
        return None
    step = (r2 - r1) // g * pow(m1 // g, -1, m2 // g) % (m2 // g)
    lcm = m1 // g * m2
    return (r1 + m1 * step) % lcm, lcm


def recover_by_rounding(z_e, z_0, dec, p):
    """Reference recovery: one eigenvalue at a time over its Fraction turn.

    Each ratio is rounded to the nearest power by cmath.phase, the power is
    converted with turn_to_complex, and the residues are merged pairwise by
    the Chinese remainder theorem. recover_exponent must agree with it
    exactly, float match errors and error messages included. The
    eigencoordinates are the complex128 product itself, not
    spectral.transform, so that agreement also covers transform's
    conversion of the state.
    """
    zt0 = dec.Vinv @ np.asarray(z_0, dtype=complex)
    zte = dec.Vinv @ np.asarray(z_e, dtype=complex)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(zt0))))
    residues = []
    for j, turn in enumerate(dec.turns):
        if turn == 0 or abs(zt0[j]) < tol:
            continue
        order = turn.denominator
        ratio = zte[j] / zt0[j]
        t = 0
        if isfinite(ratio):
            steps = round(order * phase(ratio) / (2 * pi)) % order
            t = steps * pow(turn.numerator, -1, order) % order
        dist = abs(ratio - 1.0) if t == 0 else abs(ratio - turn_to_complex((turn * t) % 1))
        if not dist < sin(pi / order):
            raise RecoveryError(
                f"eigenvalue {j}: ratio {ratio:.6g} matches no power within separation"
            )
        residues.append((j, t, dist))
    if not residues:
        raise RecoveryError("no usable eigenvalues: initial eigencoordinates all vanish")
    residue, modulus = 0, 1
    for j, t, _ in residues:
        merged = _crt(residue, modulus, t, dec.turns[j].denominator)
        if merged is None:
            raise RecoveryError("eigenvalue constraints are mutually inconsistent")
        residue, modulus = merged
    admissible = range(residue or modulus, p, modulus)
    if not admissible:
        raise RecoveryError("no exponent in [1, p-1] meets the eigenvalue constraints")
    if len(admissible) > 1:
        raise RecoveryError(f"constraints leave {len(admissible)} admissible exponents")
    parity = "unavailable"
    if Fraction(1, 2) in dec.turns:
        j = dec.turns.index(Fraction(1, 2))
        if abs(zt0[j]) < tol:
            raise RecoveryError("initial eigencoordinate at -1 vanishes; parity unreadable")
        parity = "even" if (zte[j] / zt0[j]).real > 0 else "odd"
    return ExponentEstimate(e=admissible[0], per_eigenvalue_residues=tuple(residues), parity=parity)
