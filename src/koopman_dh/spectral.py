"""Analytic eigendecomposition of the canonical companion system and exact
exponent recovery from lifted states.

The canonical closing coefficients give the characteristic polynomial
P(x) = (x - 1)(x^q + 1), so the spectrum is {1} plus the odd-indexed 2q-th
roots of unity, with Vandermonde eigenvectors (1, l, ..., l^q) and exact
rational angles (turns).

Recovery is exact, with no floating point and no tolerance. Row j of the
inverse eigenvector matrix is the Lagrange polynomial P(x) / ((x - l_j) P'(l_j)),
so the eigencoordinate of a state z at an eigenvalue l with l^q = -1 is
G_z(l) / P'(l), where G_z modulo x^q + 1 has z[q-s] - z[q-1-s] at x^s, and at
l = 1 it is (z[0] + z[q]) / 2. Phi_d is irreducible over Q, so one residue per
eigenvalue order d says what all eigenvalues of that order say: it is read in
a word prime field F_ell, ell = 1 (mod 2q), at a primitive d-th root w_d
(Pollard, Math. Comp. 1971), and the residues merge by the Chinese remainder
theorem, as Pohlig & Hellman (IEEE Trans. Inf. Theory 1978) do. An order d is
usable when Phi_d does not divide G_0; G_0(w_d) != 0 (mod ell) proves it, and
where G_0(w_d) = 0 (mod ell) although Phi_d does not divide G_0
(cyclotomic_divides decides), the start state is read in the next such ell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .cyclotomic import RootSum, cyclotomic_divides
from .dynamics import is_prime, prime_factors
from .lifting import char_alpha


class RecoveryError(RuntimeError):
    """Recovery could not pin a unique exponent consistent with all eigenvalues."""


def _field(q: int, below: int = 2**63) -> tuple:
    """(ell, orders, powers, log) for the largest prime ell below `below` with
    ell = 1 (mod 2q) and ell^2 (q + 1) < 2^63 (every int64 sum of q + 1
    products of residues is exact) and a primitive 2q-th root w mod ell:
    orders are the eigenvalue orders d > 1 (2q/d odd), ascending, row i of
    powers is w_d^s for s < q, d = orders[i], w_d = w^(2q/d), and log[w^n] = n.
    """
    n = 2 * q
    top = min(below - 1, isqrt((2**63 - 1) // (q + 1)))
    ell = top - (top - 1) % n  # the largest ell <= top with ell = 1 (mod n)
    while not is_prime(ell):
        ell -= n
        if ell < n:
            raise ValueError(f"no word prime ell = 1 (mod {n}) is left")
    # a^((ell-1)/r) != 1 for every prime r | 2q: then a^((ell-1)/2q) has order 2q
    a, factors = 2, prime_factors(n)
    while any(pow(a, (ell - 1) // r, ell) == 1 for r in factors):
        a += 1
    w = pow(a, (ell - 1) // n, ell)
    pw = [1] * n
    for k in range(1, n):
        pw[k] = pw[k - 1] * w % ell
    orders = np.array([d for d in range(1, n + 1) if n % d == 0 and n // d % 2])
    powers = np.array(pw)[np.outer(n // orders, np.arange(q)) % n]
    return ell, orders, powers, dict(zip(pw, range(n)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Unit-circle spectrum of the canonical companion matrix of order q.

    turns[j] is the exact angle of eigenvalue j as a fraction of a full turn,
    (2j - 1) / 2q in lowest terms for j > 0, and order[j] its denominator.
    _field is the prime field recovery reads residues in (see _field), and
    _start what it needs of the last start state it was asked about.
    """

    q: int
    turns: tuple[Fraction, ...]
    order: np.ndarray
    _field: tuple
    _start: tuple | None = field(default=None, init=False, compare=False, repr=False)


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
    return SpectralDecomposition(q, turns, np.array([t.denominator for t in turns]), _field(q))


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


@dataclass(frozen=True)
class ExponentEstimate:
    """Recovered exponent with its evidence: (j, e mod order[j]) for every
    eigenvalue j of a usable order."""

    e: int
    per_eigenvalue_residues: tuple[tuple[int, int], ...]
    parity: str


def _coefficients(z, q: int) -> tuple[np.ndarray, int]:
    """(G_z modulo x^q + 1, z[0] + z[q]) for an integer state z of any size.

    G_z is int64 when every sum recovery takes of it is exact in int64 (each
    |z[k]| at most 2^62 / (q + 1)), else Python ints in an object array.
    """
    a = np.asarray(z)
    if a.dtype.kind not in "biu" and not isinstance(z, np.ndarray):
        a = np.array(z, dtype=object)  # numpy turns ints past int64 into floats
    if a.shape != (q + 1,):
        raise ValueError(f"state has dimension {a.shape}, expected ({q + 1},)")
    bound = 2**62 // (q + 1)
    if a.dtype.kind == "b" or (a.dtype.kind in "iu" and -bound <= a.min() and a.max() <= bound):
        a = a.astype(np.int64)
    elif a.dtype.kind in "iuO" and all(isinstance(v, (int, np.integer)) for v in a.tolist()):
        a = np.array([int(v) for v in a.tolist()], dtype=object)
    else:
        raise ValueError(f"state entries must be integers, got {a.dtype} entries")
    return (a[1:] - a[:-1])[::-1], int(a[0] + a[-1])


def _prepared_start(z_0, dec: SpectralDecomposition):
    """What recovery needs of the start state z_0 alone: (field, usable orders,
    their rows of powers, 1 / G_0(w_d) mod ell at them, G_0, z_0[0] + z_0[q],
    the eigenvalues j of usable order as a list, order[j], G_0(-1)).

    dec keeps them for the last start it was asked about, keyed by the state's
    values: a repeated start costs an O(q) check, the same tuple nothing. The
    entry is replaced in one assignment, so no reader sees half of it.
    """
    try:  # an array's own tuple would hold its rows
        key = tuple(z_0.tolist() if isinstance(z_0, np.ndarray) else z_0)
    except TypeError:
        key = None  # not a sequence; _coefficients raises the dimension error
    start = dec._start
    if start is not None and start[0] is key:
        return start[1:]
    g0, fixed = _coefficients(z_0, dec.q)
    if start is not None and start[0] == key:  # equal values of a checked state
        return start[1:]
    fld = dec._field
    while True:
        ell, orders, powers, _ = fld
        at = powers @ np.remainder(g0, ell).astype(np.int64) % ell
        vanish = at == 0
        coeffs = g0.tolist() if vanish.any() else []
        if all(cyclotomic_divides(coeffs, d) for d in orders[vanish].tolist()):
            break
        fld = _field(dec.q, below=ell)  # G_0(w_d) = 0 (mod ell) only by chance
    orders, powers = orders[~vanish], powers[~vanish]
    inverse = np.array([pow(v, -1, ell) for v in at[~vanish].tolist()], dtype=np.int64)
    j = np.flatnonzero(np.bincount(orders, minlength=2 * dec.q + 1)[dec.order])
    at0 = int(g0[::2].sum() - g0[1::2].sum())
    start = (key, fld, orders, powers, inverse, g0, fixed, j.tolist(), dec.order[j], at0)
    object.__setattr__(dec, "_start", start)
    return start[1:]


def recover_exponent(z_e, z_0, dec: SpectralDecomposition, p: int) -> ExponentEstimate:
    """Recover e in [1, p-1] from integer lifted terminal and initial states.

    Every usable eigenvalue order d gives t = e mod d, the power of w_d that
    G_e(w_d) / G_0(w_d) is in F_ell; the residues merge by the Chinese
    remainder theorem, and the one exponent they leave in [1, p-1] is
    certified over the integers: G_e = x^e G_0 (mod x^q + 1), a negacyclic
    rotation, and z_e[0] + z_e[q] = z_0[0] + z_0[q] say z~_e = l^e z~_0 at
    every eigenvalue l, that is z_e = A^e z_0. Anything less raises
    RecoveryError.
    """
    ge, fixed_e = _coefficients(z_e, dec.q)
    start = _prepared_start(z_0, dec)
    (ell, _, _, log), orders, powers, inverse, g0, fixed, js, order_j, at0 = start
    if not orders.size:
        raise RecoveryError("no usable eigenvalues: initial eigencoordinates all vanish")
    q, n = dec.q, 2 * dec.q
    ratios = powers @ np.remainder(ge, ell).astype(np.int64) % ell * inverse % ell
    residue, modulus, steps = 0, 1, []
    for d, ratio in zip(orders.tolist(), ratios.tolist()):
        k = log.get(ratio)  # ratio = w^k = w_d^t exactly when k = t 2q/d
        if k is None or k % (n // d):
            raise RecoveryError(f"eigenvalue order {d}: ratio {ratio} in F_{ell} matches no power")
        steps.append(k // (n // d))
        residue, modulus = _crt(residue, modulus, steps[-1], d)  # a conflict fails below
    if any((residue - t) % d for t, d in zip(steps, orders.tolist())):
        raise RecoveryError("eigenvalue constraints are mutually inconsistent")
    admissible = range(residue or modulus, p, modulus)
    if not admissible:
        raise RecoveryError("no exponent in [1, p-1] meets the eigenvalue constraints")
    if len(admissible) > 1:
        raise RecoveryError(f"constraints leave {len(admissible)} admissible exponents")
    e = admissible[0]
    r = e % n  # x^q = -1: x^e G_0 is G_0 turned by e mod q places, negated past each wrap
    turned = -g0 if r >= q else g0
    turned = np.concatenate((-turned[q - r % q :], turned[: q - r % q]))
    if fixed_e != fixed or not np.array_equal(ge, turned):
        raise RecoveryError(f"certificate failed: z_e is not A^{e} z_0")
    return ExponentEstimate(e, tuple(zip(js, (e % order_j).tolist())), _parity_of(ge, at0, q))


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
    sign once per step, so G_e(-1) is G_0(-1) for even e and -G_0(-1) for odd e.
    """
    ge, _ = _coefficients(z_e, dec.q)
    return _parity_of(ge, _prepared_start(z_0, dec)[-1], dec.q)


def _parity_of(ge: np.ndarray, at0: int, q: int) -> str:
    if q % 2 == 0:
        return "unavailable"
    if at0 == 0:
        raise RecoveryError("initial eigencoordinate at -1 vanishes; parity unreadable")
    at = int(ge[::2].sum() - ge[1::2].sum())  # G_e(-1), as (-1)^q = -1
    if abs(at) != abs(at0):
        raise RecoveryError(f"eigencoordinate ratio at -1 is {at}/{at0}, not +1 or -1")
    return "even" if (at > 0) == (at0 > 0) else "odd"
