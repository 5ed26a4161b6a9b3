"""Reading the secret exponent off the spectrum of the lifted system.

With the lifting closed at order q = (p-1)/2, the companion matrix has
characteristic polynomial (x^q + 1)(x - 1): eigenvalue 1 plus the
odd-indexed 2q-th roots of unity, all on the unit circle with Vandermonde
eigenvectors. In eigencoordinates one step multiplies coordinate j by its
eigenvalue, so e steps leave a per-eigenvalue angular fingerprint e * angle.
Rounding each observed rotation to the nearest of the eigenvalue's finitely
many powers and merging the residue constraints pins e modulo p-1.

Run: python demos/03_spectral_exponent_recovery.py
"""

import numpy as np

from koopman_dh import (
    DhParams,
    discrete_log_bruteforce,
    eigen_canonical,
    full_period_trajectory,
    lift_ciphertext,
    lift_shift,
    parity,
    recover_exponent,
    transform,
)
from koopman_dh.spectral import eigenpair_residuals_exact_zero

params = DhParams(23, 5)
p, q = params.p, params.q_tilde
dec = eigen_canonical(p, q)
print(f"p = {p}: lifted dimension {q + 1}")
print(f"eigenvalue turns (fractions of a full circle): {[str(t) for t in dec.turns]}")
assert eigenpair_residuals_exact_zero(dec)
print("eigenpair identity A v = l v verified exactly in rational-angle arithmetic")

traj = full_period_trajectory(params)
z0 = lift_shift(traj, q, 0)

# An eavesdropper sees c = m^e and can lift it without knowing e, because
# the next window entries are just m*c, m^2*c, ... mod p.
e_secret = 17
c = pow(params.m, e_secret, p)
ze = lift_ciphertext(c, params, q)
print(f"\nobserved ciphertext c = {c}")

# The transformed magnitudes are conserved (unit-circle spectrum); only the
# angles move, by e times each eigenvalue angle.
zt0, zte = transform(z0, dec), transform(ze, dec)
print(f"magnitude drift |z~_e| vs |z~_0|: {np.max(np.abs(np.abs(zte) - np.abs(zt0))):.2e}")

estimate = recover_exponent(ze, z0, dec, p)
print(f"recovered exponent: {estimate.e} (oracle: {discrete_log_bruteforce(c, params)})")
print("per-eigenvalue evidence (index, matched power, match error):")
for j, t, err in estimate.per_eigenvalue_residues[:5]:
    print(f"  eigenvalue {j:2d}: power {t:2d}, error {err:.2e}")
print(f"  ... {len(estimate.per_eigenvalue_residues)} eigenvalues total, all consistent")

# p = 23 has (p-1)/2 odd, so -1 is an eigenvalue and already its sign flip
# reveals the exponent's parity.
print(f"\nparity from the eigenvalue -1: {estimate.parity} (e = {e_secret})")
for e in (4, 9):
    z = lift_ciphertext(pow(params.m, e, p), params, q)
    print(f"  e={e}: parity = {parity(z, z0, dec)}")

# For p = 1 (mod 4) the eigenvalue -1 is absent and parity is unavailable.
params13 = DhParams.with_smallest_root(13)
dec13 = eigen_canonical(13, params13.q_tilde)
traj13 = full_period_trajectory(params13)
z0_13 = lift_shift(traj13, params13.q_tilde, 0)
z5_13 = lift_shift(traj13, params13.q_tilde, 5)
print(f"p=13 (q~ even): parity = {parity(z5_13, z0_13, dec13)}")
