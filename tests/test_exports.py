"""The public API: each module's ``__all__``, the names the package
``__init__`` re-exports (none), the parameters with a default of each public
function and method and the init fields with a default of each public
dataclass exist and equal the lists written here, so a change to the API, a
new knob or default included, shows up as a change to this file.
A small run of every CLI stage calls each public entry, so none exists only
for tests."""

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import wernerlike
from test_cli import SMALL_CONFIG
from wernerlike import cli

PUBLIC = {
    "fock": [
        "SPIN_DOWN", "SPIN_UP", "SIGMA1", "SIGMA2", "SIGMA3", "TruncationError",
        "coherent_state", "displacement_amplitudes_batch", "displacement_matrix",
        "displaced_support", "spin_rotation", "hermitian_eigenvalues",
    ],
    "states": [
        "HybridState", "build_hybrid_mixture",
        "build_mapped_qubit", "kappa_from_alpha", "von_neumann_entropy",
        "partial_transpose", "negativity", "teleportation_fidelity", "fidelity_threshold",
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

#: the parameters with a default of every public function and method of a
#: public class, module by module (cli included); each other parameter is required
DEFAULTED = {
    "cli.RunConfig.settings": ["theta", "phi_spin"],
    "cli.run": ["argv"],
    "cli.main": ["argv"],
    "tomography.reconstruct_full": ["systems"],
}

#: the init fields with a default of every public dataclass, module by module
#: (cli included); each other field is required.  RunConfig's are the run's defaults.
DEFAULTED_FIELDS = {
    "cli.RunConfig": [
        "alpha", "cutoff", "beta_abs", "n_max", "n_cutoff", "n_phases", "events_per_phase",
        "eta", "seed", "backend",
    ],
}

#: public entries that no CLI stage calls, each with the reason it stays
UNREACHED = {
    "montecarlo.MeasurementRecord.from_json":
        "perfbench/test_perfbench.py reads a record line through it",
}

#: a session of every stage, each stage's arguments after --config and --out
SESSION = {
    "density": [
        ["metrics"], ["simulate"], ["reconstruct"], ["reconstruct", "--exact"],
        ["wigner", "--source", "both"], ["verify"],
    ],
    "trap": [["simulate"], ["reconstruct"]],
}


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


def test_defaulted_parameters_are_listed():
    found = {}
    for path in sorted(Path(wernerlike.__file__).parent.glob("*.py")):
        scopes = [(path.stem, ast.parse(path.read_text()).body)]
        for prefix, body in scopes:
            for node in body:
                if getattr(node, "name", "_").startswith("_"):
                    continue
                if isinstance(node, ast.ClassDef):
                    scopes.append((f"{prefix}.{node.name}", node.body))
                elif isinstance(node, ast.FunctionDef):
                    args = node.args
                    positional = args.posonlyargs + args.args
                    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
                    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                    if names:
                        found[f"{prefix}.{node.name}"] = names
    assert found == DEFAULTED


def test_defaulted_dataclass_fields_are_listed():
    found = {}
    for name in [*PUBLIC, "cli"]:
        module = importlib.import_module(f"wernerlike.{name}")
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not inspect.isclass(obj)
                    or not dataclasses.is_dataclass(obj) or obj.__module__ != module.__name__):
                continue
            missing = dataclasses.MISSING
            names = [f.name for f in dataclasses.fields(obj) if f.init
                     and (f.default is not missing or f.default_factory is not missing)]
            if names:
                found[f"{name}.{attr}"] = names
    assert found == DEFAULTED_FIELDS


def public_entries():
    """{qualified name: function} of every public function, and every public
    method or property of a public class, of the modules in PUBLIC; a cached
    function is named by the function its cache wraps."""
    entries = {}
    for name in PUBLIC:
        module = importlib.import_module(f"wernerlike.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isclass(obj):
                for member, value in vars(obj).items():
                    value = getattr(value, "fget", getattr(value, "__func__", value))
                    if not member.startswith("_") and inspect.isfunction(value):
                        entries[f"{name}.{attr}.{member}"] = value
            elif callable(obj):
                entries[f"{name}.{attr}"] = inspect.unwrap(obj)
    return entries


def test_a_run_reaches_every_public_entry(tmp_path):
    entries = public_entries()
    for name in PUBLIC:  # a cache hit would skip the function it wraps
        module = importlib.import_module(f"wernerlike.{name}")
        for attr in module.__all__:
            getattr(getattr(module, attr), "cache_clear", lambda: None)()
    called = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        for backend, stages in SESSION.items():
            config = tmp_path / f"{backend}.cfg"
            config.write_text(SMALL_CONFIG.replace("backend = density", f"backend = {backend}"))
            for stage in stages:
                argv = ["--config", str(config), "--out", str(tmp_path / backend), *stage]
                assert cli.main(argv) == cli.EXIT_OK, argv
    finally:
        sys.setprofile(None)
    unreached = sorted(name for name, fn in entries.items() if fn.__code__ not in called)
    assert unreached == sorted(UNREACHED)
