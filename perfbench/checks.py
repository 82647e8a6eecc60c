"""Correctness checks on the benchmark's outputs, with their tolerances.

Every check returns a list of problems; an empty list means the output is
correct.  A problem makes the benchmark op that produced the output count as
failed.  numpy is imported only inside the functions that need it: worker.py
imports this module before it times the import of the package and numpy.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())

#: The fidelity threshold has the closed form sqrt(ln(4/3))/2 = 0.2681795...;
#: the CLI finds it by bisection to 1e-6.
ALPHA_STAR = 0.26818
ALPHA_STAR_TOL = 1e-5

#: The CSV carries 12 significant digits; the exported true surfaces match the
#: closed form below to 5e-13.
WIGNER_VALUE_TOL = 1e-8
#: The CLI's own tolerance on grid integral against block trace.
WIGNER_TRACE_TOL = 1e-3

#: Added to the truncated-tail bound of a noiseless design-scan estimate.
DESIGN_FLOOR = 1e-6


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_records(directory, seed, backend):
    """records_g0..2.jsonl against the stored hashes for this seed and backend."""
    golden = GOLDEN["records"][str(seed)][backend]
    problems = []
    for index, expected in enumerate(golden):
        path = Path(directory) / f"records_g{index}.jsonl"
        if sha256(path) != expected:
            problems.append(f"{backend} {path.name} at seed {seed} differs from the golden hash")
    return problems


def check_record_counts(records):
    """Every phase cell accounts for all of its events, overflow included."""
    problems = []
    for rec in records:
        total = (int(rec.counts_up.sum()) + int(rec.counts_down.sum())
                 + rec.overflow_up + rec.overflow_down)
        if total != rec.total_events:
            problems.append(
                f"phase {rec.phase_index}: counts sum to {total}, not {rec.total_events}")
    return problems


def check_alpha_star(metrics_meta_path):
    alpha_star = json.loads(Path(metrics_meta_path).read_text())["fidelity_threshold_alpha"]
    if abs(alpha_star - ALPHA_STAR) > ALPHA_STAR_TOL:
        return [f"fidelity threshold {alpha_star:.8f} is not {ALPHA_STAR} +- {ALPHA_STAR_TOL}"]
    return []


def coherent_wigner(gamma, a, b):
    """W(gamma) = (2/pi) <b| D(gamma) P D(gamma)+ |a> of the operator |a><b|."""
    import numpy as np

    ga, gb = a - gamma, b - gamma
    exponent = (
        0.5 * (np.conj(gamma) * a - gamma * np.conj(a))
        + 0.5 * (gamma * np.conj(b) - np.conj(gamma) * b)
        - 0.5 * np.abs(ga) ** 2
        - 0.5 * np.abs(gb) ** 2
        - np.conj(gb) * ga
    )
    return 2.0 / np.pi * np.exp(exponent)


def mixture_blocks(alpha):
    """Blocks of the Werner-like mixture as (weight, ket, bra) coherent terms."""
    return {
        "uu": ((0.125, alpha, alpha), (0.375, -alpha, -alpha)),
        "dd": ((0.375, alpha, alpha), (0.125, -alpha, -alpha)),
        "ud": ((-0.25, -alpha, alpha),),
        "du": ((-0.25, alpha, -alpha),),
    }


def block_trace(terms):
    """Tr |a><b| = <b|a> for real coherent amplitudes."""
    return sum(w * math.exp(-0.5 * (a - b) ** 2) for w, a, b in terms)


def check_wigner_true(outdir, alpha):
    """wigner_true.csv against the closed-form surfaces, and the integrals in
    wigner_meta.json against the block traces."""
    import numpy as np

    outdir = Path(outdir)
    blocks = mixture_blocks(alpha)
    with open(outdir / "wigner_true.csv", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))[1:]
    problems = []
    for name, terms in blocks.items():
        sel = [r for r in rows if r[2] == name]
        if not sel:
            problems.append(f"wigner_true.csv has no {name} rows")
            continue
        values = np.array([[float(r[0]), float(r[1]), float(r[3]), float(r[4])] for r in sel])
        gamma = values[:, 0] + 1j * values[:, 1]
        exact = sum(w * coherent_wigner(gamma, a, b) for w, a, b in terms)
        worst = float(np.max(np.abs(values[:, 2] + 1j * values[:, 3] - exact)))
        if worst > WIGNER_VALUE_TOL:
            problems.append(
                f"wigner_true.csv {name}: max |W - closed form| = {worst:.3e}"
                f" > {WIGNER_VALUE_TOL:.0e}")
    meta = json.loads((outdir / "wigner_meta.json").read_text())["true"]
    for name, check in meta["normalization"].items():
        integral = complex(*check["integral"])
        trace = block_trace(blocks[name])
        if abs(integral - trace) > WIGNER_TRACE_TOL:
            problems.append(
                f"wigner_meta.json {name}: integral {integral:.6g} misses trace {trace:.6g}")
    return problems


def design_tolerance(alpha, n_cutoff):
    """Largest |error| a noiseless estimate may show at this cutoff: the
    amplitude of the first Fock level outside the window, plus DESIGN_FLOOR."""
    n = n_cutoff + 1
    tail = math.exp(-0.5 * alpha**2 + n * math.log(alpha) - 0.5 * math.lgamma(n + 1.0))
    return tail + DESIGN_FLOOR


def check_design(report, alpha, n_cutoff):
    worst = max(report[name]["max_abs_error"] for name in ("uu", "dd", "ud"))
    tol = design_tolerance(alpha, n_cutoff)
    if not worst <= tol:
        return [f"n_cutoff {n_cutoff}: noiseless max |error| {worst:.3e} > {tol:.3e}"]
    return []
