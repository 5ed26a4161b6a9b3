"""Observable dictionaries and exact lifted linear representations.

The shift dictionary stacks future orbit states, turning the nonlinear
modular map into a companion-form linear system once the recurrence
coefficients close over the integers. Such a system is its closing row, a
tuple of ints alpha with x_{k+q+1} = sum_j alpha_j x_{k+j}
(companion_matrix(alpha) is its matrix; lfsr_generate(alpha[::-1], ...)
iterates it). The minimal closing order is the linear complexity of one
period, read off the cyclotomic factors of the period polynomial
(closing_divisors, one cyclotomic_divides test per divisor); the closing
coefficients are then solved once from the leading block of the periodic
Hankel pair (a_rows, b) (by the certified word-size modular solve of
linalg_exact) and certified by integer substitution (verify_closing). Also
here: the auxiliary liftings (affine augmentation, additive rotation) and
the table-lookup attack available at full dictionary length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import cyclotomic_degree, cyclotomic_divides
from .dynamics import DhParams, ModTrajectory, full_period_trajectory
from .linalg_exact import annihilates, scale_to_integers, solve_int_with_ranks


def companion_matrix(alpha) -> list[list]:
    """Companion matrix with sub-diagonal shift and alpha as the last row."""
    dim = len(alpha)
    return [[int(j == i + 1) for j in range(dim)] for i in range(dim - 1)] + [list(alpha)]


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
    p, m = params.p, params.m
    if not 1 <= c <= p - 1:
        raise ValueError(f"c must lie in [1, p-1], got {c}")
    x, out = c, [c]
    for _ in range(q):
        x = x * m % p
        out.append(x)
    return tuple(out)


def char_alpha(q: int) -> tuple[int, ...]:
    """Companion last row whose characteristic polynomial is (x^q + 1)(x - 1)."""
    if q < 1:
        raise ValueError(f"order must be at least 1, got {q}")
    alpha = [0] * (q + 1)
    alpha[0] += 1
    alpha[1] -= 1
    alpha[q] += 1
    return tuple(alpha)


def canonical_alpha(p: int, q: int) -> tuple[int, ...]:
    """The sparse closing coefficients at order q >= (p-1)/2: q - (p-1)/2
    zeros, then the row of (x^((p-1)/2) + 1)(x - 1)."""
    q_tilde = (p - 1) // 2
    if q < q_tilde:
        raise ValueError(f"q must be at least (p-1)/2 = {q_tilde}, got {q}")
    return (0,) * (q - q_tilde) + char_alpha(q_tilde)


def full_period_alpha(p: int) -> tuple[int, ...]:
    """The order-(p-2) closing row x_{k+p-1} = x_k: the pure cyclic shift,
    an exact representation at full dictionary length."""
    return (1,) + (0,) * (p - 2)


def _one_period(traj: ModTrajectory) -> tuple[int, ...]:
    period = traj.params.period
    if len(traj.values) < period:
        raise ValueError(f"need a full period of {period} states, got {len(traj.values)}")
    return tuple(traj.values[:period])


def _windows(traj: ModTrajectory, q: int) -> tuple[int, ...]:
    """The period repeated so every wrapped window x_r..x_{r+q+1}, r < period, is a slice.

    Slices are built at their final size, where tuple(<generator>) is resized
    and its leftovers pile up in CPython's tuple free lists.
    """
    return _one_period(traj) * (q // traj.params.period + 2)


def verify_closing(traj: ModTrajectory, alpha) -> bool:
    """Check x_{k+q+1} = sum_j alpha_j x_{k+j} over the integers, all k in one period.

    The check is exact and deliberately not mod p: a residue-only identity
    does not make the lifted system linear over the reals. Alpha is scaled
    by the lcm of its denominators, so the comparison runs in integers.
    """
    q = len(alpha) - 1
    # ints and Fractions scale as they are; Fraction() only for other numbers, such as floats
    alpha = [a if isinstance(a, (int, Fraction)) else Fraction(a) for a in alpha]
    den, nums = scale_to_integers(alpha)
    return annihilates([nums + [-den]], _windows(traj, q)[: traj.params.period + q + 1])


def hankel_system(traj: ModTrajectory, q: int, rows: int | None = None):
    """The periodic Hankel pair (a_rows, b): row r is (x_r, ..., x_{r+q}), b_r = x_{r+q+1}.

    Indices wrap around the period. With `rows` set, only the leading rows
    r < rows are built; otherwise one row per step of the period.
    """
    ext = _windows(traj, q)
    count = traj.params.period if rows is None else rows
    a_rows = tuple([ext[r : r + q + 1] for r in range(count)])  # final size: see _windows
    return a_rows, ext[q + 1 : q + 1 + count]


@dataclass(frozen=True)
class AlphaSolveResult:
    """Outcome of the exact Hankel solve: a solution or a rank certificate."""

    solution: tuple[Fraction, ...] | None
    rank_a: int
    rank_augmented: int

    @property
    def solvable(self) -> bool:
        return self.solution is not None


def solve_alpha_exact(a_rows, b) -> AlphaSolveResult:
    """Solve b = A alpha over the rationals, or certify rank(A) < rank(A|b).

    Unsolvable is an informative outcome (Kronecker-Capelli failure). Both
    ranks are exact.
    """
    sol, rank_a, rank_aug = solve_int_with_ranks(a_rows, b)
    solution = None if sol is None else tuple(sol)
    return AlphaSolveResult(solution=solution, rank_a=rank_a, rank_augmented=rank_aug)


def closing_divisors(values) -> tuple[int, ...]:
    """The divisors d of N = len(values) whose Phi_d does not divide S(x) = sum_k x_k x^k.

    For a sequence of period N over Q, the generating function is
    S(x) / (1 - x^N), and x^N - 1 is the product of the distinct Phi_d,
    d | N; what cancels is exactly the Phi_d that divide S. So the minimal
    polynomial of the sequence is the product of Phi_d over the returned d,
    and its linear complexity is the sum of their degrees phi(d) (Blahut's
    theorem). One cyclotomic_divides test per d finds these factors, the
    certificate of a minimal dimension.
    """
    # a list, so the residue-class slices that fold S modulo x^d - 1 are lists:
    # CPython keeps up to 2000 freed tuples of each size below 21 for reuse
    values, n = list(values), len(values)
    return tuple(
        [d for d in range(1, n + 1) if n % d == 0 and not cyclotomic_divides(values, d)]
    )


def minimal_lifting_dimension(params: DhParams, traj: ModTrajectory | None = None) -> int:
    """Smallest lifted dimension q+1 that closes linearly over the integers.

    The dimension is the linear complexity of one period, from its
    cyclotomic factors (closing_divisors), and at least 1. At that order the
    leading (q+1) x (q+1) Hankel block is nonsingular: the first q+1 shifts
    of the sequence are independent, and each is fixed by its first q+1
    terms. Its one solution must pass verify_closing over the whole period;
    if the solve or the check fails, that is an internal error.
    """
    if traj is None:
        traj = full_period_trajectory(params)
    divisors = closing_divisors(_one_period(traj))
    q = max(sum(map(cyclotomic_degree, divisors)), 1) - 1
    result = solve_alpha_exact(*hankel_system(traj, q, rows=q + 1))
    if not (result.solvable and verify_closing(traj, result.solution)):
        raise RuntimeError(
            f"the order-{q + 1} recurrence from the cyclotomic factors {divisors} "
            f"does not close for p={params.p}, m={params.m}"
        )
    return q + 1


def index_lookup_attack(c: int, params: DhParams) -> int:
    """Read the exponent straight off the full-length lifted initial state.

    At order q = p-2 the initial lift lists every orbit value in order, as
    the full-period trajectory x_0, ..., x_{p-1} = x_0 does, so c sits at
    index e >= 1 there; c = 1 is exponent p-1.
    """
    p = params.p
    if not 1 <= c <= p - 1:
        raise ValueError(f"c must lie in [1, p-1], got {c}")
    return full_period_trajectory(params).values.index(c, 1)


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
    def matrix(self) -> list[list[int]]:
        return [[self.m, 1], [0, 1]]

    def generate(self, count: int) -> list[int]:
        """First `count` states x_k = z_k[0], iterating z_{k+1} = matrix z_k."""
        out, z = [], (self.x0, self.a)
        for _ in range(count):
            out.append(z[0])
            z = tuple(a * z[0] + b * z[1] for a, b in self.matrix)
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

    def generate(self, count: int) -> list[int]:
        """First `count` states, n times the turn, which each step advances by 1/n."""
        n, out = self.modulus, []
        turn = Fraction(self.x0 % n, n)
        for _ in range(count):
            out.append(int(turn * n))
            turn = (turn + Fraction(1, n)) % 1
        return out


def additive_complex_lift(modulus: int, x0: int) -> AdditiveComplexSystem:
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    return AdditiveComplexSystem(modulus=modulus, x0=x0)
