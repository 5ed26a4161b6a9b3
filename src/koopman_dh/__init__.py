"""Exact lifted linear representations of modular multiplication dynamics.

The library turns the nonlinear orbit x_{k+1} = m x_k (mod p) into an exact
finite-dimensional linear system by stacking future states as observables,
locates the minimal dimension at which that lifting closes over the integers,
recovers secret exponents from the spectrum of the companion representation,
fits the operator from snapshot data with exact rational least squares, and
compares the lifted dimension against classical linear complexity.
"""

__version__ = "0.1.0"

from .complexity import (
    KoopmanLfsrComparison,
    LinearComplexityResult,
    SequenceSample,
    berlekamp_massey,
    compare_koopman_vs_lfsr,
    lfsr_generate,
)
from .cyclotomic import RootSum
from .dynamics import (
    DhParams,
    IntersectionResult,
    ModTrajectory,
    discrete_log_bruteforce,
    find_primitive_root,
    full_period_trajectory,
    is_primitive_root,
    shared_secret_intersection,
    simulate,
)
from .edmd import (
    EdmdDataset,
    FittedOperator,
    check_assumption,
    dataset_from_values,
    edmd_fit,
)
from .lifting import (
    additive_complex_lift,
    affine_augment_system,
    canonical_alpha,
    closing_divisors,
    full_period_alpha,
    hankel_system,
    index_lookup_attack,
    lift_ciphertext,
    lift_shift,
    minimal_lifting_dimension,
    solve_alpha_exact,
    verify_closing,
)
from .spectral import (
    ExponentEstimate,
    RecoveryError,
    SpectralDecomposition,
    eigen_canonical,
    parity,
    recover_exponent,
)

__all__ = [
    "__version__",
    "DhParams",
    "ModTrajectory",
    "IntersectionResult",
    "is_primitive_root",
    "find_primitive_root",
    "simulate",
    "full_period_trajectory",
    "discrete_log_bruteforce",
    "shared_secret_intersection",
    "lift_shift",
    "lift_ciphertext",
    "canonical_alpha",
    "full_period_alpha",
    "verify_closing",
    "hankel_system",
    "solve_alpha_exact",
    "minimal_lifting_dimension",
    "closing_divisors",
    "index_lookup_attack",
    "affine_augment_system",
    "additive_complex_lift",
    "SpectralDecomposition",
    "ExponentEstimate",
    "RecoveryError",
    "eigen_canonical",
    "recover_exponent",
    "parity",
    "EdmdDataset",
    "FittedOperator",
    "dataset_from_values",
    "check_assumption",
    "edmd_fit",
    "SequenceSample",
    "LinearComplexityResult",
    "KoopmanLfsrComparison",
    "berlekamp_massey",
    "lfsr_generate",
    "compare_koopman_vs_lfsr",
    "RootSum",
]
