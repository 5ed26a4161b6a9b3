"""Exact integer dynamics over the multiplicative group mod p.

Everything at desk scale: deterministic Miller-Rabin primality, smallest
primitive roots, orbit simulation for x_{k+1} = c * x_k (mod p), and the
brute-force oracles (discrete logarithm, shared-secret intersection) that the
lifted linear machinery is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

# The first 13 primes: the trial divisors, then the Miller-Rabin bases.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprimes to all 13 bases (Sorenson & Webster 2017) and to the first 4.
_PSI_13, _PSI_4 = 3317044064679887385961981, 3215031751


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below psi_13 = 3317044064679887385961981.

    Trial division by the first 13 primes settles n below 41^2 and n with
    one of them as a factor. Other n get Miller-Rabin with those 13 bases,
    which no composite below psi_13 passes ("Strong pseudoprimes to twelve
    prime bases", Math. Comp. 2017); below psi_4 the first 4 suffice (Jaeschke
    1993). psi_13 passes all 13, so any n at or above it raises ValueError.
    """
    if n < 2:
        return False
    for a in _SMALL_PRIMES:
        if n % a == 0:
            return n == a
    if n < 41 * 41:
        return True
    if n >= _PSI_13:
        raise ValueError(f"primality is decided only below {_PSI_13}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES[: 4 if n < _PSI_4 else 13]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
    return all(pow(m, order // r, p) != 1 for r in prime_factors(order))


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
    """Finite orbit of x_{k+1} = multiplier * x_k (mod p) from values[0], states in [1, p-1]."""

    params: DhParams
    values: tuple[int, ...]

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
    return ModTrajectory(params=params, values=tuple(values))


def full_period_trajectory(params: DhParams) -> ModTrajectory:
    """The canonical orbit from x0 = 1 covering one period."""
    return simulate(params.m, params, 1, params.period)


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
    """Shared secret plus the exponent pair certifying it."""

    secret: int
    e: int
    d: int


def shared_secret_intersection(c_e: int, c_d: int, params: DhParams) -> IntersectionResult:
    """Recover the shared secret from the two public values by intersection.

    The orbit of c_d indexed by e and the orbit of c_e indexed by d meet
    where c_d^e = c_e^d = m^(e*d) and the steps connect the base orbit to
    the known endpoints (m^e = c_e, m^d = c_d). A generator m fixes each
    endpoint's step in [1, p-1] uniquely, and the meeting then holds by
    itself, so two orbit walks find the pair: e and d are the brute-force
    logs of c_e and c_d, and the secret is c_d^e.
    """
    p = params.p
    for name, value in (("c_e", c_e), ("c_d", c_d)):
        if not 1 <= value <= p - 1:
            raise ValueError(f"{name} must lie in [1, p-1], got {value}")
    e, d = discrete_log_bruteforce(c_e, params), discrete_log_bruteforce(c_d, params)
    return IntersectionResult(secret=pow(c_d, e, p), e=e, d=d)
