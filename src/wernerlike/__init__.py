"""Hybrid spin-oscillator Werner-like mixtures: construction, entanglement
and teleportation metrics, tomographic simulation and linear inversion."""

from .fock import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    SPIN_DOWN,
    SPIN_UP,
    TruncationError,
    coherent_state,
    displacement_matrix,
    hermitian_eigenvalues,
    spin_rotation,
)
from .states import (
    BracketError,
    HybridState,
    build_hybrid_mixture,
    build_mapped_qubit,
    build_werner_qubit,
    fidelity_threshold,
    hilbert_schmidt_decomposition,
    kappa_from_alpha,
    metric_sweep,
    negativity,
    partial_transpose,
    teleportation_fidelity,
    von_neumann_entropy,
)
from .tomography import (
    MarginalData,
    SingularSystemError,
    TomographySettings,
    exact_marginal_data,
    reconstruct_full,
)
from .montecarlo import MeasurementRecord, estimate_marginals, simulate_acquisition
from .wigner import wigner_grid

__version__ = "0.1.0"
