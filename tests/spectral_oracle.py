"""Test-only references for the spectral module: RootSum ring arithmetic,
the exact Lagrange rows of the eigenvector inverse, the eigenpair check built
entry by entry, a floating mirror of the eigenvectors and their inverse built
from the turns, exponent recovery by rounding in that mirror, an exact scan
over powers and exponents, and integer states built back from a polynomial.

The library keeps only the RootSum zero test and integer arithmetic; these
references share none of its shortcuts (the word prime field and its table of
powers, the negacyclic certificate, the untested shift rows).
"""

from cmath import exp as cexp
from cmath import isfinite, phase
from fractions import Fraction
from functools import lru_cache
from math import gcd, pi, sin

import numpy as np

from cyclotomic_oracle import cyclotomic_remainder
from koopman_dh.cyclotomic import RootSum
from koopman_dh.lifting import companion_matrix
from koopman_dh.spectral import ExponentEstimate, RecoveryError, char_alpha


def turn_to_complex(turn) -> complex:
    """The unit root exp(2 pi i turn)."""
    return cexp(2j * pi * float(turn))


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


@lru_cache(maxsize=None)
def mirror(q: int):
    """(eigenvalues, V, Vinv) of order q in complex128, from the turns alone.

    Entry (r, j) of V is l_j^r. Row j of Vinv is the Lagrange polynomial
    P(x) / ((x - l_j) P'(l_j)) of P = (x - 1)(x^q + 1): (1 + x^q) / 2 at l = 1
    and, as P'(l) = -q (l - 1) / l where l^q = -1, l^-k / q at 0 < k < q,
    -1 / (q (l - 1)) at k = 0 and -l / (q (l - 1)) at k = q.
    """
    roots = np.array([turn_to_complex(Fraction(n, 2 * q)) for n in range(2 * q)])
    index = np.array([int(t * 2 * q) for t in _turns(q)])
    v = roots[np.outer(np.arange(q + 1), index) % (2 * q)]
    vinv = (roots / q)[np.outer(index, np.arange(2 * q, q - 1, -1)) % (2 * q)]
    vinv[1:, 0] = -1 / (q * (roots[index[1:]] - 1))
    vinv[1:, q] = roots[index[1:]] * vinv[1:, 0]
    vinv[0] = np.where(np.arange(q + 1) % q, 0, 0.5)
    return roots[index], v, vinv


def eigenvalues(dec) -> np.ndarray:
    """The eigenvalues of dec in complex128, from its turns."""
    return np.array([turn_to_complex(t) for t in dec.turns])


def eigenpair_residual_float(dec) -> float:
    """Max-norm residual of A V - V diag(eigenvalues) in the floating mirror."""
    a = np.array(companion_matrix(char_alpha(dec.q)), dtype=float)
    _, v, _ = mirror(dec.q)
    return float(np.max(np.abs(a @ v - v * eigenvalues(dec)[None, :])))


def _crt(r1: int, m1: int, r2: int, m2: int):
    """(r, lcm(m1, m2)) with x = r mod lcm exactly when x = r1 mod m1 and
    x = r2 mod m2; None when no x satisfies both."""
    g = gcd(m1, m2)
    if (r2 - r1) % g:
        return None
    step = (r2 - r1) // g * pow(m1 // g, -1, m2 // g) % (m2 // g)
    lcm = m1 // g * m2
    return (r1 + m1 * step) % lcm, lcm


def _merge(constraints, p):
    """The one e in [1, p-1] with e = t mod d for every (t, d), or RecoveryError."""
    residue, modulus = 0, 1
    for t, d in constraints:
        merged = _crt(residue, modulus, t, d)
        if merged is None:
            raise RecoveryError("eigenvalue constraints are mutually inconsistent")
        residue, modulus = merged
    admissible = range(residue or modulus, p, modulus)
    if not admissible:
        raise RecoveryError("no exponent in [1, p-1] meets the eigenvalue constraints")
    if len(admissible) > 1:
        raise RecoveryError(f"constraints leave {len(admissible)} admissible exponents")
    return admissible[0]


def recover_by_rounding(z_e, z_0, dec, p):
    """Reference recovery for states near the orbit: one eigenvalue at a time
    in the floating mirror, over its Fraction turn.

    Each eigencoordinate ratio is rounded to the nearest power by cmath.phase
    and accepted within half the separation of distinct powers, the residues
    are merged pairwise by the Chinese remainder theorem, and an initial
    eigencoordinate below 1e-9 of the largest counts as vanishing.
    """
    _, _, vinv = mirror(dec.q)
    zt0 = vinv @ np.asarray(z_0, dtype=complex)
    zte = vinv @ np.asarray(z_e, dtype=complex)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(zt0))))
    residues, constraints = [], []
    for j, turn in enumerate(dec.turns):
        if turn == 0 or abs(zt0[j]) < tol:
            continue
        order = turn.denominator
        ratio = zte[j] / zt0[j]
        t = 0
        if isfinite(ratio):
            steps = round(order * phase(ratio) / (2 * pi)) % order
            t = steps * pow(turn.numerator, -1, order) % order
        if not abs(ratio - turn_to_complex((turn * t) % 1)) < sin(pi / order):
            raise RecoveryError(
                f"eigenvalue {j}: ratio {ratio:.6g} matches no power within separation"
            )
        residues.append((j, t))
        constraints.append((t, order))
    if not residues:
        raise RecoveryError("no usable eigenvalues: initial eigencoordinates all vanish")
    e = _merge(constraints, p)
    parity = "unavailable"
    if Fraction(1, 2) in dec.turns:
        j = dec.turns.index(Fraction(1, 2))
        if abs(zt0[j]) < tol:
            raise RecoveryError("initial eigencoordinate at -1 vanishes; parity unreadable")
        parity = "even" if (zte[j] / zt0[j]).real > 0 else "odd"
    return ExponentEstimate(e=e, per_eigenvalue_residues=tuple(residues), parity=parity)


def g_of(z) -> list[int]:
    """G_z of degree q: z[q] - z[q-1] + z[0], then z[q-s] - z[q-1-s], then z[0]."""
    q = len(z) - 1
    return [z[q] - z[q - 1] + z[0]] + [z[q - s] - z[q - 1 - s] for s in range(1, q)] + [z[0]]


def state_from_g(g, q: int, fixed=None) -> list[int]:
    """An integer state z whose G_z is g modulo x^q + 1 (g of any length) and
    with z[0] + z[q] = fixed (by default z[0] = 0)."""
    reduced = [0] * q
    for s, c in enumerate(g):
        reduced[s % q] += -c if s // q % 2 else c
    first = 0
    if fixed is not None:
        if (fixed - sum(reduced)) % 2:
            raise ValueError("z[0] + z[q] and the coefficient sum of g differ in parity")
        first = (fixed - sum(reduced)) // 2
    z = [first]
    for k in range(q):  # z[k+1] - z[k] is the coefficient at x^(q-1-k)
        z.append(z[-1] + reduced[q - 1 - k])
    return z


def _at(g, x: int) -> int:
    return sum(c * x**s for s, c in enumerate(g))


def recover_by_scan(z_e, z_0, dec, p):
    """Exact reference recovery: scan every power of each eigenvalue order,
    then every exponent, then step the companion recurrence.

    Order d is usable when cyclotomic_remainder(G_0, d) is not zero, and
    gives the t < d with Phi_d dividing G_e - x^t G_0. The one exponent e
    the residues leave in [1, p-1] must carry z_0 to z_e in e steps of the
    closing recurrence over the integers. Error messages agree with
    recover_exponent's up to their first colon.
    """
    q = dec.q
    g0, ge = g_of(list(z_0)), g_of(list(z_e))
    residues, constraints = [], []
    for d in sorted({t.denominator for t in dec.turns} - {1}):
        if not any(cyclotomic_remainder(g0, d)):
            continue
        for t in range(d):
            shifted = [0] * t + g0
            diff = [a - b for a, b in zip(ge + [0] * len(shifted), shifted)]
            if not any(cyclotomic_remainder(diff, d)):
                break
        else:
            raise RecoveryError(f"eigenvalue order {d}: matches no power")
        constraints.append((t, d))
        residues += [(j, t) for j, turn in enumerate(dec.turns) if turn.denominator == d]
    if not residues:
        raise RecoveryError("no usable eigenvalues: initial eigencoordinates all vanish")
    e = _merge(constraints, p)
    alpha, z = char_alpha(q), list(z_0)
    for _ in range(e):
        z = z[1:] + [sum(a * v for a, v in zip(alpha, z))]
    if z != list(z_e):
        raise RecoveryError(f"certificate failed: z_e is not A^{e} z_0")
    parity = "unavailable"
    if q % 2:
        at0, at = _at(g0, -1), _at(ge, -1)
        if at0 == 0:
            raise RecoveryError("initial eigencoordinate at -1 vanishes; parity unreadable")
        if abs(at) != abs(at0):
            raise RecoveryError(f"eigencoordinate ratio at -1 is {at}/{at0}, not +1 or -1")
        parity = "even" if at == at0 else "odd"
    return ExponentEstimate(e=e, per_eigenvalue_residues=tuple(sorted(residues)), parity=parity)
