"""Reading the secret exponent off the spectrum of the lifted system.

With the lifting closed at order q = (p-1)/2, the companion matrix has
characteristic polynomial (x^q + 1)(x - 1): eigenvalue 1 plus the
odd-indexed 2q-th roots of unity, all on the unit circle with Vandermonde
eigenvectors. In eigencoordinates one step multiplies coordinate j by its
eigenvalue, so e steps multiply it by l_j^e. All eigenvalues of one order d
say the same thing, e mod d, and the residues of all orders merge by the
Chinese remainder theorem; an integer certificate then proves z_e = A^e z_0.

Run: python demos/03_spectral_exponent_recovery.py
"""

from koopman_dh import (
    DhParams,
    RecoveryError,
    discrete_log_bruteforce,
    eigen_canonical,
    full_period_trajectory,
    lift_ciphertext,
    lift_shift,
    parity,
    recover_exponent,
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

estimate = recover_exponent(ze, z0, dec, p)
print(f"recovered exponent: {estimate.e} (oracle: {discrete_log_bruteforce(c, params)})")
residues = {}
for j, t in estimate.per_eigenvalue_residues:
    residues.setdefault(dec.turns[j].denominator, set()).add(t)
print("per-order residues (every eigenvalue of an order gives the same one):")
for d, ts in sorted(residues.items()):
    print(f"  order {d:2d}: e = {ts.pop()} (mod {d})")
count = len(estimate.per_eigenvalue_residues)
print(f"  {count} eigenvalues, merged by the Chinese remainder theorem")

# The certificate: e steps of the companion recurrence carry z_0 to z_e over
# the integers, which recover_exponent proves as G_e = x^e G_0 (mod x^q + 1).
stepped = list(z0)
for _ in range(estimate.e):
    stepped = stepped[1:] + [stepped[0] - stepped[1] + stepped[q]]
print(f"certificate: A^{estimate.e} z_0 == z_e over the integers: {stepped == list(ze)}")
try:
    recover_exponent([v + (k == 3) for k, v in enumerate(ze)], z0, dec, p)
except RecoveryError as exc:
    print(f"a state one unit off the orbit is refused: {exc}")

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
