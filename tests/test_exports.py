"""The public API: each module's ``__all__`` and the names the package
``__init__`` re-exports (none) exist and equal the lists written here, so a
change to the API shows up as a change to this file."""

import ast
import importlib
from pathlib import Path

import pytest

import wernerlike

PUBLIC = {
    "fock": [
        "SPIN_DOWN", "SPIN_UP", "SIGMA1", "SIGMA2", "SIGMA3", "TruncationError",
        "coherent_state", "displacement_amplitudes_batch", "displacement_matrix",
        "displaced_support", "spin_rotation", "hermitian_eigenvalues",
    ],
    "states": [
        "BracketError", "HybridState", "HSDecomposition", "build_hybrid_mixture",
        "build_mapped_qubit", "kappa_from_alpha", "mapped_qubit_from_alpha",
        "von_neumann_entropy", "partial_transpose", "negativity",
        "hilbert_schmidt_decomposition", "teleportation_fidelity", "fidelity_threshold",
        "metric_sweep", "sweep_monotonicity", "write_metrics_csv", "METRIC_COLUMNS",
        "CLASSICAL_FIDELITY",
    ],
    "tomography": [
        "SingularSystemError", "TomographySettings", "standard_setting_angles",
        "MarginalData", "BlockEstimate", "HybridEstimate", "spin_projector", "collapse_spin",
        "ideal_marginal_tables", "smeared_marginal_tables", "exact_marginal_data",
        "binomial_matrix", "detected_window", "inversion_systems", "reconstruct_hermitian",
        "reconstruct_full", "scalar_parts", "error_report",
    ],
    "montecarlo": [
        "MeasurementRecord", "sample_records", "simulate_acquisition", "write_records",
        "read_records", "estimate_marginals",
    ],
    "trapsim": [
        "SpinRotation", "Displacement", "ConditionalDisplacement", "apply_pulse",
        "apply_sequence", "pseudo_singlet_pulses", "COMPONENT_LABELS", "COMPONENT_WEIGHTS",
        "component_pulses", "component_state", "simulate_trap_acquisition",
    ],
    "wigner": ["default_axes", "wigner_grid", "WignerGrid", "profile_maxima", "write_grid_csv"],
}

#: the package root binds no public name: each is imported from its module
REEXPORTS = []


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"wernerlike.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"wernerlike.{name}.__all__ lists missing names {missing}"
    assert module.__all__ == PUBLIC[name]


def test_package_reexports_listed_names():
    tree = ast.parse(Path(wernerlike.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    exported = []
    for node in imports:
        module = importlib.import_module(f"wernerlike.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{alias.name} not in {node.module}.__all__"
            assert getattr(wernerlike, alias.asname or alias.name) is getattr(module, alias.name)
            exported.append(alias.asname or alias.name)
    assert exported == REEXPORTS
