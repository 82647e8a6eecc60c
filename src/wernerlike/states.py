"""Werner and Werner-like mixtures and their mixedness / entanglement /
teleportation metrics.

Two representations of the same family are provided:

* a 4x4 two-qubit density matrix in the product basis
  {|dd>, |du>, |ud>, |uu>} (first index = subsystem 1, index 0 = down);
* a hybrid spin (x) oscillator operator stored as truncated Fock-space
  blocks rho_uu, rho_ud, rho_dd, with rho_du = rho_ud^dagger derived.

The two pictures are isometric: replacing the coherent pair |--a>, |+a> by
|down>, |psi> with <psi|down> = kappa = exp(-2 a^2) preserves all overlaps,
hence spectra, entropy and purity.
"""

from dataclasses import dataclass, field

import numpy as np

from .fock import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    coherent_state,
    hermitian_eigenvalues,
)

__all__ = [
    "HybridState",
    "build_hybrid_mixture",
    "build_mapped_qubit",
    "kappa_from_alpha",
    "von_neumann_entropy",
    "partial_transpose",
    "negativity",
    "teleportation_fidelity",
    "fidelity_threshold",
    "metric_sweep",
    "sweep_monotonicity",
    "write_metrics_csv",
    "METRIC_COLUMNS",
    "CLASSICAL_FIDELITY",
]

#: PAULI_PRODUCTS[i, j] = P_i (x) P_j with P = (I, sigma1, sigma2, sigma3)
_PAULI_BASIS = (np.eye(2, dtype=complex), SIGMA1, SIGMA2, SIGMA3)
PAULI_PRODUCTS = np.array([[np.kron(p, q) for q in _PAULI_BASIS] for p in _PAULI_BASIS])

#: classical benchmark for teleporting an unknown qubit without entanglement
CLASSICAL_FIDELITY = 2.0 / 3.0

NEGATIVE_EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-10  # how far a density matrix's trace may stray from 1
MONOTONICITY_ATOL = 1e-12  # drop between alpha steps still counted as nondecreasing


# ----------------------------------------------------------------------
# state construction
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HybridState:
    """Spin (x) truncated-oscillator density operator stored blockwise.

    Blocks are <s| rho |s'> as (dim, dim) arrays.  The state holds read-only
    copies of the ``uu``, ``ud`` and ``dd`` it is given, and ``du`` is set
    once as ud^dagger, not passed.  ``tomography.smeared_marginal_tables``
    memoizes one design's forward pass, the tables of all three setting
    groups, per state object (equality and hashing are by identity), so
    neither a write through the state, which raises, nor a write into an
    array passed in can leave a stale entry.  Pass one state object for every
    group of an acquisition: an equal state built anew computes it again.
    """

    uu: np.ndarray
    ud: np.ndarray
    dd: np.ndarray
    du: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("uu", "ud", "dd"):
            block = np.array(getattr(self, name))
            block.setflags(write=False)
            object.__setattr__(self, name, block)
        du = self.ud.conj().T
        du.setflags(write=False)
        object.__setattr__(self, "du", du)

    @property
    def dim(self):
        return self.uu.shape[0]

    @classmethod
    def from_blocks(cls, uu, ud, dd):
        return cls(*(np.asarray(block, dtype=complex) for block in (uu, ud, dd)))

    def to_matrix(self):
        """Dense (2 dim, 2 dim) matrix with index s*dim + n, s=0 down."""
        d = self.dim
        out = np.zeros((2 * d, 2 * d), dtype=complex)
        out[:d, :d] = self.dd
        out[:d, d:] = self.du
        out[d:, :d] = self.ud
        out[d:, d:] = self.uu
        return out

    def validate(self):
        _density_eigenvalues(self.to_matrix())
        return self


def _density_eigenvalues(rho):
    """Descending eigenvalues of a density matrix: a ValueError unless its
    trace lies within TRACE_TOL of 1 and no eigenvalue lies below
    -NEGATIVE_EIGENVALUE_TOL."""
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
    vals = hermitian_eigenvalues(rho)
    if vals[-1] < -NEGATIVE_EIGENVALUE_TOL:
        raise ValueError(f"not a density operator (min eigenvalue {vals[-1]:.3e})")
    return vals


def build_hybrid_mixture(alpha, dim):
    """Equal-weight spin randomness plus a pseudo-singlet of coherent states.

    Blocks (closed forms):
        rho_uu = |a><a|/8 + 3 |-a><-a|/8
        rho_dd = 3 |a><a|/8 + |-a><-a|/8
        rho_ud = -|-a><a|/4
    """
    alpha = float(alpha)
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ValueError("alpha must be finite and nonnegative")
    plus = coherent_state(alpha, dim)
    minus = coherent_state(-alpha, dim)
    pp = np.outer(plus, plus.conj())
    mm = np.outer(minus, minus.conj())
    uu = pp / 8.0 + 3.0 * mm / 8.0
    dd = 3.0 * pp / 8.0 + mm / 8.0
    ud = -0.25 * np.outer(minus, plus.conj())
    return HybridState.from_blocks(uu, ud, dd).validate()


def kappa_from_alpha(alpha):
    """Overlap <a|-a> = exp(-2 a^2) of the coherent pair (real a)."""
    return float(np.exp(-2.0 * float(alpha) ** 2))


def build_mapped_qubit(kappa):
    """4x4 image of the hybrid mixture under |-a> -> |down>,
    |a> -> |psi> = kappa |down> + sqrt(1-kappa^2) |up>."""
    kappa = float(kappa)
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    down = np.array([1.0, 0.0], dtype=complex)
    up = np.array([0.0, 1.0], dtype=complex)
    psi = kappa * down + np.sqrt(1.0 - kappa**2) * up
    random_part = np.kron(
        np.eye(2, dtype=complex),
        np.outer(down, down.conj()) + np.outer(psi, psi.conj()),
    ) / 8.0
    v = np.kron(down, psi) - np.kron(up, down)
    return random_part + 0.25 * np.outer(v, v.conj())


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def von_neumann_entropy(rho):
    """S = -sum_i lambda_i log2 lambda_i in bits, 0 log 0 = 0, of a density matrix."""
    vals = np.clip(_density_eigenvalues(rho), 0.0, None)
    pos = vals[vals > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def partial_transpose(rho):
    """Transpose the second-qubit indices of a 4x4 two-qubit operator."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return r.transpose(0, 3, 2, 1).reshape(4, 4)


def negativity(rho):
    """E = -2 sum of negative eigenvalues of the partial transpose.

    Zero iff separable for two qubits.  Eigenvalues above the round-off
    threshold -1e-10 are not counted as negative.
    """
    vals = hermitian_eigenvalues(partial_transpose(rho))
    neg = vals[vals < -NEGATIVE_EIGENVALUE_TOL]
    return float(-2.0 * neg.sum())


def teleportation_fidelity(rho):
    """F = (1/2)[1 + Tr sqrt(T^t T) / 3] via the singular values of the
    correlation matrix T_nm = Tr[rho sigma_n (x) sigma_m]."""
    c = np.einsum("ab,ijba->ij", np.asarray(rho, dtype=complex), PAULI_PRODUCTS).real
    t = c[1:, 1:]  # c[i, j] = Tr[rho P_i (x) P_j], P_0 = I
    return float(0.5 * (1.0 + np.linalg.svd(t, compute_uv=False).sum() / 3.0))


def fidelity_threshold():
    """Coherent amplitude at which the mapped-state fidelity reaches the
    classical 2/3.

    T of the mapped qubit has singular values 1/2, s/2, s/2 with
    s = sqrt(1 - kappa^2), so F = 7/12 + s/6 rises from 7/12 at alpha = 0
    towards 3/4 and crosses 2/3 at s = 1/2: kappa^2 = 3/4 and
    alpha = sqrt(-ln(kappa) / 2) = sqrt(ln(4/3)) / 2.
    """
    return float(np.sqrt(np.log(4.0 / 3.0)) / 2.0)


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------

METRIC_COLUMNS = ("alpha", "kappa", "entropy_bits", "negativity", "fidelity")


def metric_row(alpha):
    kappa = kappa_from_alpha(alpha)
    rho = build_mapped_qubit(kappa)
    return (
        float(alpha),
        kappa,
        von_neumann_entropy(rho),
        negativity(rho),
        teleportation_fidelity(rho),
    )


def metric_sweep(alpha_min, alpha_max, steps):
    """(steps, 5) table of (alpha, kappa, S, E, F) on a uniform alpha grid."""
    if steps < 2:
        raise ValueError("steps must be at least 2")
    for name, bound in (("alpha_min", alpha_min), ("alpha_max", alpha_max)):
        if not (np.isfinite(bound) and bound >= 0):
            raise ValueError(f"{name}={bound} must be finite and nonnegative")
    if not alpha_max > alpha_min:
        raise ValueError(f"alpha_max={alpha_max} must exceed alpha_min={alpha_min}")
    alphas = np.linspace(float(alpha_min), float(alpha_max), int(steps))
    return np.array([metric_row(a) for a in alphas])


def sweep_monotonicity(table):
    """Nondecreasing flags for the entropy, negativity and fidelity columns."""
    flags = {}
    for name, col in zip(("entropy_bits", "negativity", "fidelity"), (2, 3, 4)):
        flags[name + "_nondecreasing"] = bool(np.all(np.diff(table[:, col]) >= -MONOTONICITY_ATOL))
    return flags


def write_metrics_csv(path, table, comments):
    """CSV export: a ``# `` line per comment, then the header (alpha, kappa,
    entropy_bits, negativity, fidelity); values round-trip exactly through
    repr precision."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(METRIC_COLUMNS) + "\r\n")
        for row in np.asarray(table):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\r\n")
