"""How many stacked future states make the modular orbit exactly linear?

The shift dictionary lifts x_k to z_k = (x_k, ..., x_{k+q}). The lift closes
into a linear system z_{k+1} = A z_k precisely when one coefficient vector
reproduces x_{k+q+1} from the window for every k, over the integers. This
script solves the Hankel system order by order and shows the closure appears
first at q = (p-1)/2, with the sparse coefficients (1, -1, 0, ..., 0, 1).
The library reads that order off the cyclotomic factors of the period
polynomial, and prints them as its certificate.

Run: python demos/02_minimal_linear_lifting.py
"""

from koopman_dh import (
    DhParams,
    canonical_alpha,
    closing_divisors,
    full_period_alpha,
    full_period_trajectory,
    hankel_system,
    index_lookup_attack,
    lfsr_generate,
    lift_shift,
    minimal_lifting_dimension,
    solve_alpha_exact,
    verify_closing,
)
from koopman_dh.cyclotomic import cyclotomic_degree

params = DhParams(23, 5)
p, q_tilde = params.p, params.q_tilde
traj = full_period_trajectory(params)
print(f"p = {p}, generator m = {params.m}, half period q~ = {q_tilde}")

# Exact solvability of the periodic Hankel system, order by order.
print("\norder q -> rank(A), rank(A|b), closes over the integers?")
for q in range(q_tilde + 2):
    result = solve_alpha_exact(*hankel_system(traj, q))
    closes = result.solvable and verify_closing(traj, result.solution)
    print(f"  q={q:2d}: {result.rank_a:2d}, {result.rank_augmented:2d}, {closes}")

# The period polynomial S(x) = sum x_k x^k keeps the cyclotomic factors
# Phi_d, d | p-1, that the recurrence needs; their degrees add up to the order.
divisors = closing_divisors(traj.values[: p - 1])
dim = minimal_lifting_dimension(params)
print(f"\nsurviving cyclotomic factors Phi_d, d in {list(divisors)}: "
      f"degrees {[cyclotomic_degree(d) for d in divisors]}")
print(f"minimal lifted dimension: {dim} = (p-1)/2 + 1 = {q_tilde + 1}")

# The closure coefficients are sparse and integer valued.
alpha = canonical_alpha(p, q_tilde)
print(f"closing coefficients at q~: {list(alpha)}")
assert verify_closing(traj, alpha)

# One step below, the residue-only recurrence x_{k+q~} = -x_k (mod p) exists
# but is not linear over the integers, so it is rejected.
near_miss = (-1,) + (0,) * (q_tilde - 1)
print(f"one order below: alpha = {list(near_miss)} holds mod p only -> "
      f"verify_closing = {verify_closing(traj, near_miss)}")

# Iterating the companion matrix of alpha from the lifted start state is the
# register rule x_{k+q+1} = sum_j alpha_j x_{k+j}; it reproduces the whole
# orbit exactly.
orbit = lfsr_generate(alpha[::-1], lift_shift(traj, q_tilde, 0), 2 * (p - 1))
assert orbit == [traj.value_at(k) for k in range(2 * (p - 1))]
print("companion iteration reproduces the orbit over two periods, exactly")

# At full length q = p-2 the system is a pure cyclic shift and the initial
# lift lists the whole orbit, so the exponent can simply be looked up.
cyclic = full_period_alpha(p)
print(f"\nfull-length fallback: dimension {len(cyclic)}, alpha = (1, 0, ..., 0)")
c = 18
print(f"index lookup attack on c={c}: e = {index_lookup_attack(c, params)}")
