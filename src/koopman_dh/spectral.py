"""Analytic eigendecomposition of the canonical companion system and
exponent recovery from lifted states.

The canonical closing coefficients give the characteristic polynomial
P(x) = (x - 1)(x^q + 1), so the spectrum is {1} plus the odd-indexed 2q-th
roots of unity, with Vandermonde eigenvectors (1, l, ..., l^q). Eigenvalue
angles are exact rational turns; recovery runs on the floating eigenvector
inverse Vinv, where matching is separation-based and so tolerance-free.

The exact eigenpair check costs one RootSum zero test per eigenvalue order:
the shift rows of A v = l v hold for every Vandermonde vector, and the
closing row holds at an eigenvalue of order d exactly when Phi_d divides
(x - 1)(x^q + 1), the divisibility test that also finds closing divisors.

Set-up is O(q^2), as Vinv has a closed form (see SpectralDecomposition). A
recovery query is one O(q^2) product with Vinv plus O(q) array matching in
numpy: every eigencoordinate ratio is rounded at once to the nearest power
of its eigenvalue by angle, the Chinese remainder theorem merges one residue
per distinct eigenvalue order (a divisor of 2q), and every usable eigenvalue
is checked against the merged residue. The decomposition keeps all that
depends on the last start state it was asked about (its eigencoordinates,
the gathers at the usable eigenvalues and one position per order), so only a
new start state costs a second product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, pi, sin

import numpy as np

from .cyclotomic import RootSum, turn_to_complex
from .dynamics import is_prime
from .lifting import char_alpha


class RecoveryError(RuntimeError):
    """Recovery could not pin a unique exponent consistent with all eigenvalues."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Unit-circle spectrum of the canonical companion matrix of order q.

    turns[j] is the exact rational angle of eigenvalue j as a fraction of a
    full turn, index[j] / 2q = n / order[j] in lowest terms; inverse[j] =
    1/n mod order[j], separation[j] = sin(pi / order[j]), and roots[n] has
    turn n / 2q. eigenvalues and Vinv are floating mirrors. Row j of Vinv
    is the Lagrange polynomial P(x) / ((x - l_j) P'(l_j)), so Vinv inverts
    the Vandermonde matrix of eigenvectors (1, l, ..., l^q): (1 + x^q) / 2
    at l = 1 and, as P'(l) = -q (l - 1) / l where l^q = -1, l^-k / q at
    0 < k < q, -1 / (q (l - 1)) at k = 0 and -l / (q (l - 1)) at k = q.
    _start holds, for the last start state that recovery was asked about,
    its key, zt0 and tolerance, the usable indices j, zt0, order, inverse,
    separation and index gathered at j, and one position in j per distinct
    order (see _prepared_start).
    """

    q: int
    turns: tuple[Fraction, ...]
    eigenvalues: np.ndarray
    Vinv: np.ndarray
    index: np.ndarray
    order: np.ndarray
    inverse: np.ndarray
    separation: np.ndarray
    roots: np.ndarray
    _start: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def dimension(self) -> int:
        return self.q + 1


def eigen_canonical(p: int, q: int) -> SpectralDecomposition:
    """Decomposition for the canonical companion system of order q.

    Its closing row is char_alpha(q), so the eigenvalues are 1 together with
    exp(i*pi*(2k+1)/q) for k = 0..q-1.
    """
    if not is_prime(p) or p <= 3:
        raise ValueError(f"p must be a prime > 3, got {p}")
    if q < 1:
        raise ValueError(f"order must be at least 1, got {q}")
    turns = (Fraction(0),) + tuple(Fraction(2 * k + 1, 2 * q) for k in range(q))
    roots = np.array([turn_to_complex(Fraction(n, 2 * q)) for n in range(2 * q)])
    index = np.array([0] + [2 * k + 1 for k in range(q)])
    order = np.array([t.denominator for t in turns])
    inverse = np.array([pow(t.numerator, -1, t.denominator) for t in turns])
    separation = np.array([sin(pi / d) for d in order.tolist()])
    # row j > 0 of Vinv is l_j^-k / q, of turn (2q - k) * index[j] / 2q, but at k = 0, q
    at = np.outer(index, np.arange(2 * q, q - 1, -1))
    vinv = (roots / q)[np.remainder(at, 2 * q, out=at)]
    vinv[1:, 0] = -1 / (q * (roots[index[1:]] - 1))
    vinv[1:, q] = roots[index[1:]] * vinv[1:, 0]
    vinv[0] = np.where(np.arange(q + 1) % q, 0, 0.5)  # (1 + x^q) / 2
    return SpectralDecomposition(q, turns, roots[index], vinv, index, order, inverse, separation, roots)


def eigenpair_residuals_exact_zero(dec: SpectralDecomposition) -> bool:
    """Exact check that A v(l) = l v(l) for every eigenpair.

    Entry r of v(l) is l^r. Rows 0..q-1 of the companion matrix A shift,
    (A v)_r = v_(r+1) = l^(r+1) = l v_r, so they hold for every l and need
    no test. Only the closing row constrains l: it says that l is a root of
    the integer polynomial S(x) = sum_j alpha_j x^j - x^(q+1). Phi_d is
    irreducible over Q, so S vanishes at one primitive d-th root exactly when
    it vanishes at all of them: the check is one RootSum zero test of S at
    turn 1/d per distinct eigenvalue order d.
    """
    closing = [*char_alpha(dec.q), -1]
    return all(
        RootSum({Fraction(j, d): c for j, c in enumerate(closing) if c}).is_zero()
        for d in {t.denominator for t in dec.turns}
    )


def transform(z, dec: SpectralDecomposition) -> np.ndarray:
    """Eigencoordinates z~ = Vinv z (floating mirror)."""
    a = np.asarray(z)
    # numpy promotes a float64 state inside the product to the same complex
    # values, so an integer state skips the slower complex conversion
    z = a.astype(float) if a.dtype.kind in "biu" else np.asarray(z, dtype=complex)
    if z.shape != (dec.dimension,):
        raise ValueError(f"state has dimension {z.shape}, expected ({dec.dimension},)")
    return dec.Vinv @ z


@dataclass(frozen=True)
class ExponentEstimate:
    """Recovered exponent with the per-eigenvalue matching evidence."""

    e: int
    per_eigenvalue_residues: tuple[tuple[int, int, float], ...]
    parity: str


def _prepared_start(z_0, dec: SpectralDecomposition):
    """What recovery needs of the start state z_0 alone: (zt0, tolerance,
    usable indices j, j as a list, then zt0, order, inverse, separation and
    index gathered at j, and reps: per distinct order among j, in order of
    first occurrence, the position of its last occurrence).

    dec keeps them for the last start it was asked about, keyed by the
    state's values: a repeated start costs one O(q) tuple comparison (by
    identity for the same tuple) instead of an O(q^2) transform. The entry is
    replaced in one assignment, so a concurrent reader never sees half of it.
    """
    try:  # an array's own tuple would hold its rows
        key = tuple(z_0.tolist() if isinstance(z_0, np.ndarray) else z_0)
    except TypeError:
        key = None  # not a sequence; transform raises the dimension error
    start = dec._start
    if start is not None and key is not None and (
        start[0] is key
        # an array entry would equal a scalar by broadcasting: never a hit
        or (not any(isinstance(v, np.ndarray) for v in key) and start[0] == key)
    ):
        return start[1:]
    zt0 = transform(z_0, dec)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(zt0))))
    usable = np.array(list(map(abs, zt0.tolist()))) >= tol
    j = np.flatnonzero(usable[1:]) + 1  # eigenvalue 0 is l = 1
    order = dec.order[j]
    # a later occurrence replaces the value but keeps the key's first position
    last = {d: k for k, d in enumerate(order.tolist())}
    reps = np.array(list(last.values()), dtype=int)
    gathered = (zt0[j], order, dec.inverse[j], dec.separation[j], dec.index[j], reps)
    start = (key, zt0, tol, j, j.tolist(), *gathered)
    object.__setattr__(dec, "_start", start)
    return start[1:]


def recover_exponent(z_e, z_0, dec: SpectralDecomposition, p: int) -> ExponentEstimate:
    """Recover e in [1, p-1] from lifted terminal and initial states.

    For each eigenvalue except l = 1 (zero angle, no information) and except
    coordinates where the initial eigencoordinate vanishes, the ratio
    z~_e,j / z~_0,j must equal l_j^e. Each ratio is matched to the power of
    l_j nearest in angle (on a circle of any radius, the nearest root in
    angle is also the nearest in distance), accepted only within half the
    minimum separation of distinct powers, and the matches are merged as
    residue constraints on e. All usable eigenvalues must agree on a single
    exponent; anything less raises RecoveryError.
    """
    zt0, tol, j, js, zt0_j, order, inverse, separation, index, reps = _prepared_start(z_0, dec)
    zte = transform(z_e, dec)
    if not j.size:
        raise RecoveryError("no usable eigenvalues: initial eigencoordinates all vanish")
    ratio = zte[j] / zt0_j
    # np.angle may differ from cmath.phase in the last ulp; that moves the rounding
    # only at a half step, where the separation test rejects both nearest powers
    steps = np.rint(np.where(np.isfinite(ratio), order * np.angle(ratio) / (2 * pi), 0.0))
    # l_j^t has turn numerator * t / order; invert that at the rounded angle
    t = steps.astype(np.int64) % order * inverse % order
    # scalar abs, not np.abs: the two differ in the last ulp, and match errors are reported
    dist = list(map(abs, (ratio - dec.roots[index * t % (2 * dec.q)]).tolist()))
    unmatched = np.flatnonzero(~(np.array(dist) < separation))
    if unmatched.size:
        k = unmatched[0]
        raise RecoveryError(
            f"eigenvalue {js[k]}: ratio {ratio[k]:.6g} matches no power within separation"
        )
    residue, modulus = 0, 1
    for d, r in zip(order[reps].tolist(), t[reps].tolist()):
        residue, modulus = _crt(residue, modulus, r, d)  # a conflict fails the check below
    if np.any((residue - t) % order):
        raise RecoveryError("eigenvalue constraints are mutually inconsistent")
    admissible = range(residue or modulus, p, modulus)
    if not admissible:
        raise RecoveryError("no exponent in [1, p-1] meets the eigenvalue constraints")
    if len(admissible) > 1:
        raise RecoveryError(f"constraints leave {len(admissible)} admissible exponents")
    return ExponentEstimate(
        e=admissible[0],
        per_eigenvalue_residues=tuple(zip(js, t.tolist(), dist)),
        parity=_parity_of(zte, zt0, tol, dec),
    )


def _crt(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """(r, L) with L = lcm(m1, m2) such that x = r1 mod m1 and x = r2 mod m2
    exactly when x = r mod L, provided some x satisfies both."""
    g = gcd(m1, m2)
    step = (r2 - r1) // g * pow(m1 // g, -1, m2 // g) % (m2 // g)
    lcm = m1 // g * m2
    return (r1 + m1 * step) % lcm, lcm


def parity(z_e, z_0, dec: SpectralDecomposition) -> str:
    """Parity of the exponent from the eigenvalue -1, when it is present.

    -1 is an eigenvalue exactly when q is odd; its eigencoordinate flips
    sign once per step, so the ratio is +1 for even e and -1 for odd e.
    """
    zte = transform(z_e, dec)
    zt0, tol, *_ = _prepared_start(z_0, dec)
    return _parity_of(zte, zt0, tol, dec)


def _parity_of(zte: np.ndarray, zt0: np.ndarray, tol: float, dec: SpectralDecomposition) -> str:
    if dec.q % 2 == 0:
        return "unavailable"
    j = (dec.q + 1) // 2  # index[j] = 2j - 1 = q: the eigenvalue -1
    if abs(zt0[j]) < tol:
        raise RecoveryError("initial eigencoordinate at -1 vanishes; parity unreadable")
    ratio = zte[j] / zt0[j]
    return "even" if ratio.real > 0 else "odd"
