"""Learning the lifted operator from snapshot data, exactly.

Arrange lifted states as columns of Z and their one-step successors as
Z_plus, then solve the least-squares problem min |Z_plus - A Z| in exact
rational arithmetic. With enough data at order q >= (p-1)/2 the residual is
exactly zero and at q = (p-1)/2 the estimate *is* the analytic companion
matrix, entry for entry. Below that order no linear operator fits: the
residual is strictly positive. The data is a plain integer sequence, here
three periods of an orbit; predictions are checked on it as one-step
integer identities.

Run: python demos/04_operator_fitting_from_data.py
"""

from koopman_dh import (
    DhParams,
    canonical_alpha,
    check_assumption,
    dataset_from_values,
    edmd_fit,
    full_period_alpha,
    full_period_trajectory,
)
from koopman_dh.edmd import compare_on_values, max_state_error, operator_to_json

params = DhParams(23, 5)
p, q_tilde = params.p, params.q_tilde
traj = full_period_trajectory(params)
values = [traj.value_at(i) for i in range(3 * (p - 1))]

# Snapshot ranks saturate at q~ + 1 no matter how long the trajectory is:
# every later column is a fixed combination of the first q~ + 1.
print("snapshot rank vs dictionary order (n = p-1 pairs):")
for q in (2, 5, q_tilde - 1, q_tilde, q_tilde + 3, p - 2):
    ds = dataset_from_values(values, q, p - 1)
    print(f"  q={q:2d}: rank(Z) = {ds.rank_z}  (cap {q_tilde + 1})")

# Exact fit at the closing order, from the minimum amount of data.
ds = dataset_from_values(values, q_tilde, q_tilde + 1)
print(f"\ndata-richness condition holds: {check_assumption(ds, p)}")
fitted = edmd_fit(ds)
report = compare_on_values(fitted, canonical_alpha(p, q_tilde), values, 2 * (p - 1))
print(f"fit kind: {fitted.fit_kind}; residual^2 = {fitted.residual_sq}")
print(f"equals analytic companion entrywise: {report.entrywise_equal}")
print(f"prediction-equivalent over two periods: {report.prediction_equivalent}")

# At full order q = p-2 the snapshot matrix is row-rank-deficient, so the
# minimum-norm solution is taken. It predicts the orbit exactly, though it
# is not the cyclic shift matrix entry for entry.
full = edmd_fit(dataset_from_values(values, p - 2, q_tilde + 1))
full_report = compare_on_values(full, full_period_alpha(p), values, 2 * (p - 1))
print(f"\nq = p-2: fit kind {full.fit_kind}, residual^2 = {full.residual_sq}, "
      f"entrywise = {full_report.entrywise_equal}, prediction = {full_report.prediction_equivalent}")

# Below the closing order the best exact fit still misses.
under = edmd_fit(dataset_from_values(values, 5, p - 1))
print(f"\nq = 5 < q~: residual^2 = {under.residual_sq} > 0; "
      f"worst one-period state error = {max_state_error(under, values, p - 1)}")

# Operators serialize losslessly (rationals as num/den string pairs).
small = full_period_trajectory(DhParams(5, 2))
doc = operator_to_json(edmd_fit(dataset_from_values([small.value_at(i) for i in range(6)], 2, 3)))
print(f"\nserialized 3x3 operator for p=5: {doc['matrix']}")
