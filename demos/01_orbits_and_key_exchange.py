"""Orbits of multiplication mod p, the key exchange built on them, and the
brute-force baselines everything else is measured against.

Run: python demos/01_orbits_and_key_exchange.py
"""

from koopman_dh import (
    DhParams,
    discrete_log_bruteforce,
    find_primitive_root,
    shared_secret_intersection,
    simulate,
)

p = 23
m = find_primitive_root(p)
params = DhParams(p, m)
print(f"modulus p = {p}, smallest generator m = {m}")

# The orbit x_{k+1} = m x_k (mod p) from x_0 = 1 walks every nonzero residue
# exactly once before returning to 1 (one full period of length p - 1).
traj = simulate(m, params, 1, p - 1)
print(f"orbit of {m}: {list(traj.values)}")
assert sorted(traj.values[: p - 1]) == list(range(1, p))
assert traj.values[p - 1] == 1

# A generator is never a quadratic residue: by Euler's criterion its
# half-period power is -1.
half = pow(m, (p - 1) // 2, p)
print(f"{m}^((p-1)/2) mod {p} = {half} = p - 1 (generators are non-residues)")
assert half == p - 1

# Both parties pick secret exponents; the public values are orbit endpoints,
# and each side raises the other's public value to its own exponent.
e, d = 7, 15
c_e, c_d = pow(m, e, p), pow(m, d, p)
secret = pow(c_e, d, p)
assert secret == pow(c_d, e, p)
print(f"\nsecrets e={e}, d={d}: public c_e={c_e}, c_d={c_d}, shared secret {secret}")

# Breaking one side is finding how long the orbit ran: a trajectory-length
# question. The brute-force oracle just walks the orbit.
recovered = discrete_log_bruteforce(c_e, params)
print(f"brute-force walk recovers e = {recovered}")
assert recovered == e

# The shared secret is also where the two derived orbits meet (the c_d-orbit
# indexed by e, the c_e-orbit indexed by d). A generator fixes the steps that
# reach c_e and c_d, so the meeting is at their two logs: two orbit walks.
result = shared_secret_intersection(c_e, c_d, params)
print(f"intersection search: secret={result.secret} at (e={result.e}, d={result.d})")
assert result.secret == secret
print("\nboth brute-force baselines agree with the exchange")
