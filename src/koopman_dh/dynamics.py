"""Exact integer dynamics over the multiplicative group mod p.

Everything at desk scale: deterministic trial-division primality, smallest
primitive roots, orbit simulation for x_{k+1} = c * x_k (mod p), and the
brute-force oracles (discrete logarithm, shared-secret intersection) that the
lifted linear machinery is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (fine for desk-scale n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f <= isqrt(n):
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> set[int]:
    """Set of prime factors of n by trial division."""
    if n < 1:
        raise ValueError("n must be positive")
    factors = set()
    while n % 2 == 0:
        factors.add(2)
        n //= 2
    f = 3
    while f * f <= n:
        while n % f == 0:
            factors.add(f)
            n //= f
        f += 2
    if n > 1:
        factors.add(n)
    return factors


def mod_pow(base: int, exp: int, p: int) -> int:
    """base**exp mod p, by the built-in three-argument pow."""
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    if exp < 0:
        raise ValueError(f"exponent must be nonnegative, got {exp}")
    return pow(base, exp, p)


def is_primitive_root(m: int, p: int) -> bool:
    """True iff m generates the full multiplicative group mod p.

    Decided by checking m^((p-1)/r) != 1 (mod p) for every prime factor r
    of p - 1. Rejects composite p.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not 1 <= m < p:
        raise ValueError(f"m must lie in [1, p-1], got {m}")
    order = p - 1
    return all(mod_pow(m, order // r, p) != 1 for r in prime_factors(order))


def find_primitive_root(p: int) -> int:
    """Smallest primitive root modulo a prime p."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    for m in range(2, p):
        if is_primitive_root(m, p):
            return m
    raise ValueError(f"no primitive root below {p}; p must be an odd prime")


def all_primitive_roots(p: int) -> list[int]:
    """Every generator of the multiplicative group mod p, ascending."""
    return [m for m in range(2, p) if is_primitive_root(m, p)]


@dataclass(frozen=True)
class DhParams:
    """Public parameters: odd prime modulus p > 3 and a generator m."""

    p: int
    m: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p <= 3:
            raise ValueError(f"p must be a prime > 3, got {self.p}")
        if not 2 <= self.m <= self.p - 1:
            raise ValueError(f"m must lie in [2, p-1], got {self.m}")
        if not is_primitive_root(self.m, self.p):
            raise ValueError(f"{self.m} is not a primitive root mod {self.p}")

    @classmethod
    def with_smallest_root(cls, p: int) -> "DhParams":
        return cls(p, find_primitive_root(p))

    @property
    def q_tilde(self) -> int:
        """Half the group order, the threshold dictionary order."""
        return (self.p - 1) // 2

    @property
    def period(self) -> int:
        return self.p - 1


@dataclass(frozen=True)
class ModTrajectory:
    """Finite orbit of x_{k+1} = multiplier * x_k (mod p), states in [1, p-1]."""

    params: DhParams
    multiplier: int
    x0: int
    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def value_at(self, i: int) -> int:
        """State x_i, extending by the order-(p-1) periodicity when needed."""
        if i < 0:
            raise ValueError(f"step index must be nonnegative, got {i}")
        if i < len(self.values):
            return self.values[i]
        period = self.params.period
        if len(self.values) < period:
            raise ValueError(
                f"trajectory of length {len(self.values)} cannot reach step {i}; "
                f"need one full period of {period} states to extend"
            )
        return self.values[i % period]


def simulate(multiplier: int, params: DhParams, x0: int, steps: int) -> ModTrajectory:
    """Run the multiplicative orbit for `steps` steps (steps+1 states)."""
    p = params.p
    if gcd(multiplier, p) != 1 or not 1 <= multiplier <= p - 1:
        raise ValueError(f"multiplier must lie in [1, p-1] and be coprime to p, got {multiplier}")
    if x0 % p == 0:
        raise ValueError(f"x0 must not be divisible by p; the orbit of {x0} collapses to 0")
    if not 1 <= x0 <= p - 1:
        raise ValueError(f"x0 must lie in [1, p-1], got {x0}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    values = [x0]
    x = x0
    for _ in range(steps):
        x = (multiplier * x) % p
        values.append(x)
    return ModTrajectory(params=params, multiplier=multiplier, x0=x0, values=tuple(values))


def full_period_trajectory(params: DhParams) -> ModTrajectory:
    """The canonical orbit from x0 = 1 covering one period."""
    return simulate(params.m, params, 1, params.period)


def euler_criterion(m: int, p: int) -> int:
    """+1 if m is a quadratic residue mod p, -1 otherwise (Euler's criterion)."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if gcd(m, p) != 1:
        raise ValueError(f"m and p must be coprime, got m={m}, p={p}")
    r = mod_pow(m, (p - 1) // 2, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    raise RuntimeError(f"m^((p-1)/2) mod p = {r}, expected 1 or p-1")


@dataclass(frozen=True)
class DhTranscript:
    """One full key exchange: secret exponents, public values, shared secret."""

    params: DhParams
    e: int
    d: int
    c_e: int
    c_d: int
    c_ed: int


def dh_exchange(params: DhParams, e: int, d: int) -> DhTranscript:
    """Run both sides of the exchange and cross-check the shared secret."""
    p, m = params.p, params.m
    for name, value in (("e", e), ("d", d)):
        if not 1 <= value <= p - 1:
            raise ValueError(f"{name} must lie in [1, p-1], got {value}")
    c_e = mod_pow(m, e, p)
    c_d = mod_pow(m, d, p)
    c_ed = mod_pow(c_e, d, p)
    c_de = mod_pow(c_d, e, p)
    if c_ed != c_de:
        raise RuntimeError(f"shared-secret mismatch: {c_ed} != {c_de}")
    return DhTranscript(params=params, e=e, d=d, c_e=c_e, c_d=c_d, c_ed=c_ed)


def discrete_log_bruteforce(c: int, params: DhParams) -> int:
    """The unique e in [1, p-1] with m^e = c (mod p), found by walking the orbit."""
    p, m = params.p, params.m
    if c % p == 0:
        raise ValueError(f"c must not be divisible by p, got {c}")
    if not 1 <= c <= p - 1:
        raise ValueError(f"c must lie in [1, p-1], got {c}")
    x = 1
    for e in range(1, p):
        x = (m * x) % p
        if x == c:
            return e
    raise RuntimeError(f"{c} not reached by the orbit of {m} mod {p}")


@dataclass(frozen=True)
class IntersectionResult:
    """Shared secret plus the first exponent pair certifying it."""

    secret: int
    e: int
    d: int


def shared_secret_intersection(c_e: int, c_d: int, params: DhParams) -> IntersectionResult:
    """Recover the shared secret from the two public values by intersection.

    Expands the orbit of c_d (indexed by e) and the orbit of c_e (indexed by
    d) breadth-first in the step index s = max(e, d), ties broken by
    smallest e then smallest d. A candidate pair is accepted when the two
    orbits intersect there (c_d^e = c_e^d), the common value equals the base
    orbit's state at step e*d, and the steps connect the base orbit to the
    known endpoints (x_e = c_e and x_d = c_d). Without the endpoint
    conditions the congruences admit spurious pairs whose step product is
    wrong mod p-1, so the returned value would not always be the secret.
    """
    p, m = params.p, params.m
    for name, value in (("c_e", c_e), ("c_d", c_d)):
        if not 1 <= value <= p - 1:
            raise ValueError(f"{name} must lie in [1, p-1], got {value}")
    n = p - 1
    base = simulate(m, params, 1, n).values
    by_e = simulate(c_d, params, 1, n).values
    by_d = simulate(c_e, params, 1, n).values
    for s in range(1, n + 1):
        for e, d in [(e, s) for e in range(1, s)] + [(s, d) for d in range(1, s + 1)]:
            if (
                by_e[e] == by_d[d]
                and by_e[e] == base[(e * d) % n]
                and base[e] == c_e
                and base[d] == c_d
            ):
                return IntersectionResult(secret=by_e[e], e=e, d=d)
    raise RuntimeError(
        f"no intersection found for c_e={c_e}, c_d={c_d} mod {p}; inputs are inconsistent"
    )
