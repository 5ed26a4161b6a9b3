"""Observable dictionaries and exact lifted linear representations.

The shift dictionary stacks future orbit states, turning the nonlinear
modular map into a companion-form linear system once the recurrence
coefficients close over the integers. The machinery here builds the periodic
Hankel systems certifying (or refuting) that closure for each candidate
order, scans for the minimal order, and provides the auxiliary liftings
(complex-exponential observables, affine augmentation, additive rotation)
plus the table-lookup attack available at full dictionary length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dynamics import DhParams, ModTrajectory, full_period_trajectory
from .linalg_exact import solve_int_with_ranks

def companion_matrix(alpha) -> list[list[Fraction]]:
    """Companion matrix with sub-diagonal shift and alpha as the last row."""
    dim = len(alpha)
    rows = [[Fraction(int(j == i + 1)) for j in range(dim)] for i in range(dim - 1)]
    rows.append([Fraction(a) for a in alpha])
    return rows


@dataclass(frozen=True)
class CompanionSystem:
    """Linear system z_{k+1} = A z_k with A in companion form of order q."""

    q: int
    alpha: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.alpha) != self.q + 1:
            raise ValueError(f"alpha must have length q+1={self.q + 1}, got {len(self.alpha)}")

    @property
    def dimension(self) -> int:
        return self.q + 1

    @property
    def matrix(self) -> list[list[Fraction]]:
        return companion_matrix(self.alpha)

    def step(self, z):
        """One exact application of the companion matrix."""
        head = [Fraction(v) for v in z[1:]]
        head.append(sum(Fraction(a) * Fraction(v) for a, v in zip(self.alpha, z)))
        return head


def lift_shift(traj: ModTrajectory, q: int, k: int) -> tuple[int, ...]:
    """Lifted state (x_k, x_{k+1}, ..., x_{k+q}) of the orbit."""
    if k < 0:
        raise ValueError(f"step index must be nonnegative, got {k}")
    if q < 0:
        raise ValueError(f"dictionary order must be nonnegative, got {q}")
    return tuple(traj.value_at(k + j) for j in range(q + 1))


def lift_ciphertext(c: int, params: DhParams, q: int) -> tuple[int, ...]:
    """Lift a single observed value by iterating the public map forward.

    Equals lift_shift at the (unknown) step e whenever c = x_e, because the
    next q orbit states after x_e are m*c, m^2*c, ... mod p.
    """
    p = params.p
    if not 1 <= c <= p - 1:
        raise ValueError(f"c must lie in [1, p-1], got {c}")
    out = [c]
    for _ in range(q):
        out.append((params.m * out[-1]) % p)
    return tuple(out)


def lift_complex(x: int, params: DhParams, q: int) -> tuple[Fraction, ...]:
    """Unit-circle dictionary: turns of exp(i*(2*pi/p)*m^(j+1)*x), j = 0..q.

    Angles are exact rationals (m^(j+1)*x mod p)/p of a full turn; convert
    with cyclotomic.turn_to_complex at output boundaries.
    """
    p, m = params.p, params.m
    if not 1 <= x <= p - 1:
        raise ValueError(f"x must lie in [1, p-1], got {x}")
    turns = []
    acc = (m * x) % p
    for _ in range(q + 1):
        turns.append(Fraction(acc, p))
        acc = (m * acc) % p
    return tuple(turns)


def canonical_alpha(p: int, q: int) -> tuple[Fraction, ...]:
    """The sparse closing coefficients at order q >= (p-1)/2.

    Entry q - (p-1)/2 is 1, the next is -1, entry q is 1, the rest vanish.
    """
    q_tilde = (p - 1) // 2
    if q < q_tilde:
        raise ValueError(f"q must be at least (p-1)/2 = {q_tilde}, got {q}")
    alpha = [Fraction(0)] * (q + 1)
    alpha[q - q_tilde] += 1
    alpha[q - q_tilde + 1] -= 1
    alpha[q] += 1
    return tuple(alpha)


def verify_closing(traj: ModTrajectory, alpha) -> bool:
    """Check x_{k+q+1} = sum_j alpha_j x_{k+j} over the integers, all k in one period.

    The check is exact and deliberately not mod p: a residue-only identity
    does not make the lifted system linear over the reals.
    """
    q = len(alpha) - 1
    alpha = [Fraction(a) for a in alpha]
    period = traj.params.period
    for k in range(period):
        lhs = Fraction(traj.value_at(k + q + 1))
        rhs = sum(a * traj.value_at(k + j) for j, a in enumerate(alpha))
        if lhs != rhs:
            return False
    return True


@dataclass(frozen=True)
class HankelSystem:
    """Periodic Hankel pair (A, b): row r of A is (x_r, ..., x_{r+q}), b_r = x_{r+q+1}."""

    q: int
    period: int
    a_rows: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]


def hankel_system(traj: ModTrajectory, q: int) -> HankelSystem:
    """Build the full-period Hankel system with wraparound indexing."""
    period = traj.params.period
    if len(traj.values) < period:
        raise ValueError(f"need a full period of {period} states, got {len(traj.values)}")
    # repeat the period so every wrapped window is a plain slice: slices are
    # built at their final size, where tuple(<generator>) is resized and its
    # leftovers pile up in CPython's tuple free lists
    ext = tuple(traj.values[:period]) * (q // period + 2)
    a_rows = tuple(ext[r : r + q + 1] for r in range(period))
    b = ext[q + 1 : q + 1 + period]
    return HankelSystem(q=q, period=period, a_rows=a_rows, b=b)


@dataclass(frozen=True)
class AlphaSolveResult:
    """Outcome of the exact Hankel solve: a solution or a rank certificate."""

    solution: tuple[Fraction, ...] | None
    rank_a: int
    rank_augmented: int

    @property
    def solvable(self) -> bool:
        return self.solution is not None


def solve_alpha_exact(sys: HankelSystem, full_ranks: bool = True) -> AlphaSolveResult:
    """Solve b = A alpha over the rationals, or certify rank(A) < rank(A|b).

    Unsolvable is an informative outcome (Kronecker-Capelli failure). With
    full_ranks=False the elimination stops at the first inconsistency and
    the reported ranks are lower bounds; solvability is still exact.
    """
    sol, rank_a, rank_aug = solve_int_with_ranks(
        sys.a_rows, sys.b, early_abort=not full_ranks
    )
    solution = None if sol is None else tuple(sol)
    return AlphaSolveResult(solution=solution, rank_a=rank_a, rank_augmented=rank_aug)


def minimal_lifting_dimension(params: DhParams, traj: ModTrajectory | None = None) -> int:
    """Smallest lifted dimension q+1 that closes linearly over the integers.

    Brute-force scan over q = 0, 1, 2, ...: solve the exact Hankel system,
    confirm any solution with verify_closing, stop at the first success.
    The scan is capped at q = p-2, which is always solvable (the pure cyclic
    shift), so exceeding the cap is an internal error.
    """
    if traj is None:
        traj = full_period_trajectory(params)
    for q in range(params.p - 1):
        result = solve_alpha_exact(hankel_system(traj, q), full_ranks=False)
        if result.solvable and verify_closing(traj, result.solution):
            return q + 1
    raise RuntimeError(f"no closing order up to q = p-2 for p={params.p}, m={params.m}")


def full_period_system(params: DhParams) -> CompanionSystem:
    """The (p-1)-dimensional pure cyclic shift, always an exact representation."""
    p = params.p
    alpha = tuple(Fraction(int(j == 0)) for j in range(p - 1))
    return CompanionSystem(q=p - 2, alpha=alpha)


def index_lookup_attack(c: int, params: DhParams) -> int:
    """Read the exponent straight off the full-length lifted initial state.

    At order q = p-2 the initial lift lists every orbit value in order, so c
    sits at entry e+1. Index 0 (c = 1) maps to exponent p-1 by periodicity.
    """
    p = params.p
    if not 1 <= c <= p - 1:
        raise ValueError(f"c must lie in [1, p-1], got {c}")
    z0 = lift_shift(full_period_trajectory(params), p - 2, 0)
    idx = z0.index(c)
    return idx if idx > 0 else p - 1


@dataclass(frozen=True)
class AffineAugmentSystem:
    """Two-state linear form of x_{k+1} = m x_k + a via z_k = (x_k, a)."""

    m: int
    a: int
    x0: int

    @property
    def dimension(self) -> int:
        return 2

    @property
    def matrix(self) -> list[list[Fraction]]:
        return [[Fraction(self.m), Fraction(1)], [Fraction(0), Fraction(1)]]

    @property
    def z0(self) -> tuple[int, int]:
        return (self.x0, self.a)

    def step(self, z):
        return (self.m * z[0] + z[1], z[1])

    def recover(self, z) -> int:
        return z[0]

    def generate(self, count: int) -> list[int]:
        """First `count` states produced by iterating the linear system."""
        out = []
        z = self.z0
        for _ in range(count):
            out.append(self.recover(z))
            z = self.step(z)
        return out


def affine_augment_system(m: int, a: int, x0: int) -> AffineAugmentSystem:
    return AffineAugmentSystem(m=m, a=a, x0=x0)


@dataclass(frozen=True)
class AdditiveComplexSystem:
    """Scalar unit-circle form of x_{k+1} = x_k + 1 (mod n).

    The lifted state is the turn x_k/n; one step multiplies by the unit root
    of turn 1/n. Recovery reads the integer state off the exact angle.
    """

    modulus: int
    x0: int

    @property
    def dimension(self) -> int:
        return 1

    @property
    def multiplier_turn(self) -> Fraction:
        return Fraction(1, self.modulus)

    @property
    def z0_turn(self) -> Fraction:
        return Fraction(self.x0 % self.modulus, self.modulus)

    def step_turn(self, turn: Fraction) -> Fraction:
        return (turn + self.multiplier_turn) % 1

    def recover(self, turn: Fraction) -> int:
        state = turn * self.modulus
        if state.denominator != 1:
            raise ValueError(f"turn {turn} is not a multiple of 1/{self.modulus}")
        return int(state) % self.modulus

    def generate(self, count: int) -> list[int]:
        out = []
        turn = self.z0_turn
        for _ in range(count):
            out.append(self.recover(turn))
            turn = self.step_turn(turn)
        return out


def additive_complex_lift(modulus: int, x0: int) -> AdditiveComplexSystem:
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    return AdditiveComplexSystem(modulus=modulus, x0=x0)
