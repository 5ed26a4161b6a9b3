"""Shift registers vs liftings: when does a lifting beat the register?

The linear complexity of a sequence is the length of the shortest linear
feedback shift register generating it. A register is a companion-form
linear system whose state holds sequence values, so linear complexity upper
bounds the minimal lifted dimension when observables are linear in the
sequence, and the orbit sequences attain that bound. Nonlinear observables
can do strictly better: a rotation sequence needs a length-3 register but
only a 1-dimensional complex lifting, and an affine sequence with the
parameter folded into the state needs 2 dimensions.

Run: python demos/05_linear_complexity.py
"""

from koopman_dh import (
    DhParams,
    SequenceSample,
    additive_complex_lift,
    affine_augment_system,
    berlekamp_massey,
    compare_koopman_vs_lfsr,
    lfsr_generate,
)

# Orbit sequences: register length equals the minimal lifted dimension.
print("orbit sequences (two periods, rational field):")
for p in (5, 7, 23):
    params = DhParams.with_smallest_root(p)
    report = compare_koopman_vs_lfsr(params)
    print(f"  p={p:2d}: register length {report.lfsr_length}, "
          f"lifted dimension {report.koopman_dimension}, equal: {report.equal}")

# The rotation sequence 0,1,2,0,1,2,... : complexity 3 over the rationals,
# only 2 over its own modulus, and a 1-dimensional unit-circle lifting.
rotation = (0, 1, 2, 0, 1, 2, 0, 1, 2)
rational = berlekamp_massey(SequenceSample(terms=rotation))
mod3 = berlekamp_massey(SequenceSample(terms=rotation, field=3))
print(f"\nrotation sequence: complexity {rational.length} over Q, {mod3.length} over GF(3)")
regenerated = [int(v) for v in lfsr_generate(rational.connection, rotation[: rational.length], 9)]
print(f"its register {tuple(int(c) for c in rational.connection)} regenerates it: "
      f"{regenerated}")
assert regenerated == list(rotation)
scalar = additive_complex_lift(3, 0)
print(f"unit-circle lifting regenerates it with dimension {scalar.dimension}: "
      f"{scalar.generate(9)}")

# The affine sequence 1,4,10,22,46,...: a 2-dimensional lifting regenerates
# it; the minimal register over the rationals has length just 2 as well
# (s_k = 3 s_{k-1} - 2 s_{k-2}), so claims of a much longer required
# register for this sequence do not survive exact recomputation.
affine = affine_augment_system(2, 2, 1)
terms = affine.generate(12)
print(f"\naffine sequence: {terms[:5]} ... (2-dimensional lifting)")
result = berlekamp_massey(SequenceSample(terms=terms))
print(f"computed rational complexity: {result.length}, "
      f"connection {tuple(int(c) for c in result.connection)}")
assert lfsr_generate(result.connection, terms[:2], 12) == terms

# The newest-first connection reverses into the companion-matrix last row.
p5 = compare_koopman_vs_lfsr(DhParams(5, 2))
print(f"\np=5 connection (newest first): {tuple(int(c) for c in p5.connection)}; "
      f"companion last row: {tuple(int(c) for c in reversed(p5.connection))}")
