"""Forward model and linear inversion for hybrid-state tomography.

Measurement model: rotate the spin by U(theta, phi), displace the oscillator
by beta = |beta| e^{i phase}, then count (spin outcome s, excitation number n).
The marginal

    w(s, n; theta, phi, beta) = Tr[rho . D U (|s><s| (x) |n><n|) U+ D+]

is sampled on a uniform phase grid at fixed |beta|.  Writing
<k|D(|b|e^{i p})|n> = f_kn(|b|) e^{i(k-n)p} with real f, the phase-Fourier
coefficient of order r of w picks out the r-th lower diagonal of the
spin-collapsed block:

    w_hat(n; r) = sum_m G^(r)_nm <m+r| rho_Q |m>,   G^(r)_nm = f_(m+r)n f_mn

which is inverted per order by the least-squares pseudo-inverse
M = (G^T G)^-1 G^T.  The forward tables run the same operator the other way.
Every order's G^(r) of a table f is held as one zero-padded (orders, m, n)
array, entries with m + r past the table zero; the r-th lower diagonals of
the spin-collapsed operators, zero-padded the same way, meet it in one
batched product, and the phase waves sum the orders:

    w(n; phase_j) = Re sum_r c_r e^{-i r phase_j} (G^(r) diag_r(rho_Q))_n

with c_0 = 1, c_r = 2 and diag_r(rho_Q)_m = <m+r|rho_Q|m>.  Detector
efficiency eta folds the binomial response B(eta) into both directions: the
detected window is B applied to the ideal counts on the displaced support, and
the inverted system is B G^(r) on the same extended count range, so the
estimator stays unbiased.  The fold is always applied; B(1) is the identity
block, so at eta = 1 it only cuts the window.

One forward pass serves a design, the settings without the spin angles: one
``displaced_support`` search and one stacked product give the tables of all
three standard setting groups, both spin outcomes each.  The pass is memoized
for one design and one state object, so the second and third group of an
acquisition read it; settings at other angles run the same pass for their own
projector pair.

The four retained-outcome tables a full reconstruction needs (both outcomes
of the unrotated group, the up outcome of each rotated group) invert together.
``inversion_systems`` forms every order's B G^(r) from the same zero-padded
stack and decomposes them all in one batched SVD; order r's r padded columns
only add r zero singular values.  The pseudo-inverses M stay zero-padded as
one (orders, cdim, n_max+1) stack.  Cosine and sine phase weights cos(r
phase_j)/N and sin(r phase_j)/N give the real and imaginary parts of every
order's Fourier data, and their cos^2, sin^2 and cos.sin companions turn the
cell variances into the variance weights, so two real batched products, one
with M and one with M*M (elementwise), fill the lower diagonals of every
table's estimate and the variances of its real and imaginary parts and their
covariance.

Per-order systems whose singular values fall below an absolute floor are
truncated: a uniformly tiny G (e.g. the far off-diagonal orders at small
|beta|) has condition number near 1 yet amplifies data noise by 1/|G|, so a
relative rcond cannot catch it.  Dropped directions are reported per order.
"""

import json
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .fock import (
    SPIN_DOWN,
    SPIN_UP,
    _log_factorials,
    displaced_support,
    spin_rotation,
)
from .states import HybridState

__all__ = [
    "SingularSystemError",
    "TomographySettings",
    "standard_setting_angles",
    "MarginalData",
    "BlockEstimate",
    "HybridEstimate",
    "spin_projector",
    "collapse_spin",
    "ideal_marginal_tables",
    "smeared_marginal_tables",
    "exact_marginal_data",
    "binomial_matrix",
    "detected_window",
    "inversion_systems",
    "reconstruct_hermitian",
    "reconstruct_full",
    "scalar_parts",
    "error_report",
]

SINGULAR_FLOOR = 1e-9

#: (theta, phi) presets: diagonal blocks, real part, imaginary part
DIAGONAL_ANGLES = (0.0, 0.0)
REAL_PART_ANGLES = (np.pi / 4.0, -np.pi / 2.0)
IMAG_PART_ANGLES = (np.pi / 4.0, 0.0)


def standard_setting_angles():
    """The three (theta, phi) groups a full reconstruction needs."""
    return (DIAGONAL_ANGLES, REAL_PART_ANGLES, IMAG_PART_ANGLES)


class SingularSystemError(RuntimeError):
    """The least-squares system is numerically singular."""


@dataclass(frozen=True)
class TomographySettings:
    """One measurement-setting group plus the inversion window.

    n_max is the top measured excitation (histogram over 0..n_max), n_cutoff
    the reconstruction cutoff; n_phases must exceed 2*n_cutoff so no Fourier
    order up to n_cutoff aliases on the discrete phase grid.
    """

    theta: float
    phi_spin: float
    beta_abs: float
    n_phases: int
    n_max: int
    n_cutoff: int
    eta: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.beta_abs) and self.beta_abs > 0):
            raise ValueError(f"beta_abs must be finite and positive, got {self.beta_abs}")
        if self.n_cutoff < 0 or self.n_max < self.n_cutoff:
            raise ValueError("need n_max >= n_cutoff >= 0")
        if self.n_phases <= 2 * self.n_cutoff:
            raise ValueError(
                f"n_phases={self.n_phases} must exceed 2*n_cutoff={2 * self.n_cutoff}"
                " to resolve all Fourier orders"
            )
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")

    @property
    def phases(self):
        return 2.0 * np.pi * np.arange(self.n_phases) / self.n_phases

    def with_angles(self, theta, phi_spin):
        return replace(self, theta=float(theta), phi_spin=float(phi_spin))


@dataclass
class MarginalData:
    """Estimated (or exact) marginals for one setting group.

    w and variance have shape (2, n_phases, n_max+1); spin axis uses the
    package convention 0 = down, 1 = up.  Exact marginals have zero variance.
    """

    theta: float
    phi_spin: float
    beta_abs: float
    n_phases: int
    w: np.ndarray
    variance: np.ndarray

    @property
    def n_max(self):
        return self.w.shape[-1] - 1


# ----------------------------------------------------------------------
# forward model
# ----------------------------------------------------------------------

def spin_projector(theta, phi_spin, outcome):
    """U |s><s| U+ for the rotated spin measurement."""
    col = spin_rotation(theta, phi_spin)[:, outcome]
    return np.outer(col, col.conj())


def collapse_spin(state, projector):
    """Oscillator operator Tr_spin[(Q (x) 1) rho] for a 2x2 projector Q."""
    q = np.asarray(projector, dtype=complex)
    return (
        q[SPIN_UP, SPIN_UP] * state.uu
        + q[SPIN_DOWN, SPIN_DOWN] * state.dd
        + q[SPIN_DOWN, SPIN_UP] * state.ud
        + q[SPIN_UP, SPIN_DOWN] * state.du
    )


def _order_stack(f):
    """Every order's G^(r)_nm = f_(m+r)n f_mn of the real (cdim, rows) table
    f_kn = <k|D(|b|)|n> as one (cdim, cdim, rows) array indexed [r, m, n];
    the entries with m + r >= cdim are zero."""
    cdim = len(f)
    stack = np.zeros((cdim, *f.shape))
    for r in range(cdim):
        stack[r, : cdim - r] = f[r:] * f[: cdim - r]
    return stack


def ideal_marginal_tables(state, settings, f, groups=None):
    """Ideal (eta = 1) marginals for n < rows, summed over Fourier orders, from
    the real (state.dim, rows) table f_kn = <k|D(|beta|)|n>.

    ``groups`` lists the (theta, phi_spin) setting groups tabulated in the
    one pass, by default the settings' own angles; the result is
    w[g, s, j, n].
    """
    if groups is None:
        groups = ((settings.theta, settings.phi_spin),)
    dim, rows = f.shape
    ops = np.stack([
        collapse_spin(state, spin_projector(theta, phi, s))
        for theta, phi in groups
        for s in (SPIN_DOWN, SPIN_UP)
    ])
    k = len(ops)
    orders = np.arange(dim)
    # diagonals[q, r, m] = <m+r|rho_q|m>, zero-padded: the real parts of the
    # k operators, then their imaginary parts.  Each array is dropped once
    # used: every large array kept alive adds to the peak memory of a cold
    # design.
    shifted = orders[:, None] + orders
    diagonals = np.concatenate([ops.real, ops.imag])[:, np.minimum(shifted, dim - 1), orders]
    del ops
    diagonals[:, shifted >= dim] = 0.0
    # per_order[r, q, n] = (G^(r) diag_r)_n for every order in one product
    per_order = diagonals.transpose(1, 0, 2) @ _order_stack(f)
    del diagonals
    both = np.empty((k, dim, rows), dtype=complex)
    both.real = per_order[:, :k].transpose(1, 0, 2)
    both.imag = per_order[:, k:].transpose(1, 0, 2)
    del per_order
    waves = np.where(orders == 0, 1.0, 2.0) * np.exp(-1j * np.outer(settings.phases, orders))
    return (waves @ both).real.reshape(len(groups), 2, settings.n_phases, rows)


@lru_cache(maxsize=1)
def _design_tables(state, design, groups):
    """(window, overflow) of every listed group, w[g, s, j, n] and o[g, s, j]:
    one support search and one forward pass, read-only."""
    f = displaced_support(state.dim - 1, design.beta_abs)
    wide = ideal_marginal_tables(state, design, f, groups)
    tables = detected_window(wide, binomial_matrix(design.eta, design.n_max + 1, f.shape[1]))
    for table in tables:
        table.setflags(write=False)
    return tables


def smeared_marginal_tables(state, settings):
    """Detected-count marginals in the measured window plus the overflow mass.

    Returns (window, overflow): window[s, j, n] for n <= n_max after binomial
    smearing with eta, overflow[s, j] the detected mass beyond n_max.  Both
    are read-only.

    The first call for a design (beta_abs, n_phases, n_max and eta, the
    settings the pass reads) computes the tables of all three standard
    setting groups in one pass, and the other groups' calls read it; settings
    at other angles run the pass for their own group alone.  One pass is
    memoized, keyed on the state object and the design, so settings that
    differ only in n_cutoff share it.  A HybridState hashes by identity and
    holds read-only copies of its blocks, and the entry keeps its state
    alive, so a key cannot be reused by another state; an equal state built
    anew computes its tables again.
    """
    angles = (settings.theta, settings.phi_spin)
    groups = standard_setting_angles()
    if angles not in groups:
        groups = (angles,)
    design = replace(settings, theta=0.0, phi_spin=0.0, n_cutoff=0)
    window, overflow = _design_tables(state, design, groups)
    g = groups.index(angles)
    return window[g], overflow[g]


def exact_marginal_data(state, settings):
    """Infinite-statistics marginals (zero variance) for noiseless inversion;
    w is the memoized, read-only window."""
    window, _ = smeared_marginal_tables(state, settings)
    return MarginalData(
        theta=settings.theta,
        phi_spin=settings.phi_spin,
        beta_abs=settings.beta_abs,
        n_phases=settings.n_phases,
        w=window,
        variance=np.zeros_like(window),
    )


# ----------------------------------------------------------------------
# the per-order linear systems
# ----------------------------------------------------------------------

def binomial_matrix(eta, n_out, n_in):
    """B[n, k] = C(k, n) eta^n (1-eta)^(k-n): ideal counts -> detected counts."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if eta == 1.0:
        return np.eye(n_out, n_in)
    n = np.arange(n_out)[:, None]
    k = np.arange(n_in)[None, :]
    valid = k >= n
    lg = _log_factorials(max(n_out, n_in))
    logb = (
        lg[k]
        - lg[n]
        - lg[np.maximum(k - n, 0)]
        + n * np.log(eta)
        + (k - n) * np.log1p(-eta)
    )
    return np.where(valid, np.exp(np.where(valid, logb, -np.inf)), 0.0)


def detected_window(wide, b):
    """Fold ideal counts (last axis) through B: the detected window wide @ B^T
    and the detected mass beyond it, clipped at zero."""
    window = wide @ b.T
    overflow = np.clip(wide.sum(axis=-1) - window.sum(axis=-1), 0.0, None)
    return window, overflow


@lru_cache(maxsize=4)
def inversion_systems(settings):
    """(m, diagnostics) of the per-order folded systems for the given settings
    (cached for the last four settings), both read-only.

    The system of order r is B(eta) G^(r) on the ideal counts of the table
    ``displaced_support`` returns, as in the forward model, so the detected
    rows are exact (zero past a support narrower than the window).  Every
    order's system comes from the zero-padded ``_order_stack`` and all of
    them are decomposed in one batched SVD.  m[r] is order r's
    pseudo-inverse, shape (cdim, n_max+1), whose rows past cdim - r are zero.
    Singular values below SINGULAR_FLOOR are truncated; diagnostics[r] is
    (sigma_max, cond, dropped), with cond = (s_max / s_min)^2 over the kept
    singular values, the condition number of the normal equations (inf when
    none is kept), and dropped the count of truncated ones.
    """
    cdim = settings.n_cutoff + 1
    f = displaced_support(settings.n_cutoff, settings.beta_abs)
    b = binomial_matrix(settings.eta, settings.n_max + 1, f.shape[1])
    u, s, vt = np.linalg.svd(b @ _order_stack(f).transpose(0, 2, 1), full_matrices=False)
    keep = s > SINGULAR_FLOOR
    # m[r] = V diag(1/s) U^T over the kept directions; vt is scaled in place,
    # as a scaled copy would set a cold design's peak memory
    vt *= np.divide(1.0, s, out=np.zeros_like(s), where=keep)[:, :, None]
    m = vt.transpose(0, 2, 1) @ u.transpose(0, 2, 1)
    kept = keep.sum(axis=1)
    s_min = s[np.arange(cdim), np.maximum(kept - 1, 0)]
    ratio = np.divide(s[:, 0], s_min, out=np.full(cdim, np.inf), where=kept > 0)
    # order r's r zero-padded columns add r zero singular values
    dropped = (~keep).sum(axis=1) - np.arange(cdim)
    diagnostics = np.stack([s[:, 0], ratio**2, dropped], axis=1)
    m.setflags(write=False)
    diagnostics.setflags(write=False)
    return m, diagnostics


# ----------------------------------------------------------------------
# reconstruction and error propagation
# ----------------------------------------------------------------------

@dataclass
class BlockEstimate:
    """Reconstructed block with per-element uncertainties.

    values is (n_cutoff+1)^2 complex; sigma_re/sigma_im are the standard
    deviations of the real/imaginary parts.
    """

    values: np.ndarray
    sigma_re: np.ndarray
    sigma_im: np.ndarray


def reconstruct_hermitian(w, variance, settings, systems=None):
    """Invert k stacked retained-outcome marginal tables into Hermitian operators.

    w, variance: (k, n_phases, n_max+1).  The order-r Fourier data determine
    the r-th lower diagonal; the upper triangle is the conjugate transpose,
    which for real phase data equals the estimate the negative orders would
    give.  The cell variances, treated as independent, propagate through the
    composition of the discrete Fourier weights with M.  ``systems`` is the
    (m, diagnostics) pair ``inversion_systems`` returns, by default for these
    settings.

    Returns (values, moments, orders): values (k, cdim, cdim) complex;
    moments (3, k, cdim, cdim) holding the variances of the real and
    imaginary parts and their covariance; orders the per-order
    (r, sigma_max, cond, dropped) diagnostics as dicts made for this call.
    """
    w = np.asarray(w, dtype=float)
    variance = np.asarray(variance, dtype=float)
    if w.ndim != 3 or w.shape[1:] != (settings.n_phases, settings.n_max + 1):
        raise ValueError(
            f"marginal tables of shape {w.shape} are not a stack of settings grids "
            f"({settings.n_phases} phases x {settings.n_max + 1} counts)"
        )
    m, diagnostics = inversion_systems(settings) if systems is None else systems
    k, nphi = len(w), settings.n_phases
    cdim = settings.n_cutoff + 1
    angle = np.outer(np.arange(cdim), settings.phases)  # (cdim, n_phases): r phase_j
    c, s = np.cos(angle), np.sin(angle)
    # every order's Fourier data (real and imaginary parts) and variance
    # weights, (2 k, cdim, n_max+1) and (3 k, cdim, n_max+1)
    fourier = ((np.stack([c, s])[:, None] / nphi) @ w).reshape(2 * k, cdim, -1)
    spread = ((np.stack([c * c, s * s, c * s])[:, None] / nphi**2) @ variance).reshape(
        3 * k, cdim, -1
    )
    # per order r, the products with M and with M*M: parts[r, q, i]
    m = m.transpose(0, 2, 1)
    parts = np.concatenate(
        [fourier.transpose(1, 0, 2) @ m, spread.transpose(1, 0, 2) @ (m * m)], axis=1
    )
    # entry (i + r, i) of the lower triangle is parts[r, :, i]; the upper
    # triangle mirrors it with the imaginary part and the covariance negated
    out = np.zeros((5, k, cdim, cdim))
    row, col = np.tril_indices(cdim)
    out[:, :, row, col] = parts[row - col, :, col].T.reshape(5, k, -1)
    row, col = np.tril_indices(cdim, -1)
    sign = np.array([1.0, -1.0, 1.0, 1.0, -1.0])[:, None, None]
    out[:, :, col, row] = sign * out[:, :, row, col]
    values = np.empty((k, cdim, cdim), dtype=complex)
    values.real, values.imag = out[0], out[1]
    orders = tuple(
        {"r": r, "sigma_max": sigma_max, "cond": cond, "dropped": int(dropped)}
        for r, (sigma_max, cond, dropped) in enumerate(diagnostics.tolist())
    )
    return values, out[2:], orders


@dataclass
class HybridEstimate:
    """Raw linear-inversion estimate of all four blocks (positivity is not
    enforced; rho_du is rho_ud^dagger).  orders holds the (r, sigma_max, cond,
    dropped) diagnostics of each order of the inversion all blocks share."""

    uu: BlockEstimate
    dd: BlockEstimate
    ud: BlockEstimate
    settings: TomographySettings
    orders: tuple

    def to_state(self):
        return HybridState(uu=self.uu.values, ud=self.ud.values, dd=self.dd.values)


def _find_group(datas, settings, angles):
    """The group of ``datas`` at ``angles``; a ValueError when none is, or
    when its beta_abs, n_phases or n_max differ from the settings'."""
    theta, phi = angles
    for d in datas:
        if abs(d.theta - theta) <= 1e-9 and abs(d.phi_spin - phi) <= 1e-9:
            problems = [
                f"{name}: data {getattr(d, name)!r} vs settings {getattr(settings, name)!r}"
                for name in ("beta_abs", "n_phases", "n_max")
                if abs(getattr(d, name) - getattr(settings, name)) > 1e-9
            ]
            if problems:
                raise ValueError("marginal data inconsistent with settings: " + "; ".join(problems))
            return d
    raise ValueError(
        f"missing record group with (theta, phi_spin) = ({theta:.6g}, {phi:.6g})"
    )


def reconstruct_full(datas, settings, systems=None):
    """Assemble all four blocks from the three setting groups in one inversion.

    The diagonal group's up and down outcomes give rho_uu and rho_dd.  The
    retained up outcome projects onto (1 - sigma1)/2 at (pi/4, -pi/2) and
    (1 - sigma2)/2 at (pi/4, 0); subtracting the diagonal-block mean
    recovers the Hermitian and anti-Hermitian parts of rho_ud.
    """
    datas = list(datas)
    diag, real, imag = (_find_group(datas, settings, a) for a in standard_setting_angles())
    base = settings.with_angles(*DIAGONAL_ANGLES)
    if systems is None:
        systems = inversion_systems(base)
    tables = ((diag, SPIN_UP), (diag, SPIN_DOWN), (real, SPIN_UP), (imag, SPIN_UP))
    values, moments, orders = reconstruct_hermitian(
        np.stack([d.w[s] for d, s in tables]),
        np.stack([d.variance[s] for d, s in tables]),
        settings,
        systems,
    )
    var_re, var_im, _ = moments
    # the diagonal-block mean (uu + dd)/2 and its moments
    mean = 0.5 * (values[0] + values[1])
    mean_re, mean_im, mean_cov = 0.25 * (moments[:, 0] + moments[:, 1])
    # mean - q1 = (rho_ud + rho_du)/2 and q2 - mean = (rho_ud - rho_du)/(2i)
    ud = (mean - values[2]) + 1j * (values[3] - mean)
    ud_re = mean_re + mean_im + 2.0 * mean_cov + var_re[2] + var_im[3]
    ud_im = mean_re + mean_im - 2.0 * mean_cov + var_im[2] + var_re[3]

    def block(v, vr, vi):
        return BlockEstimate(
            values=v,
            sigma_re=np.sqrt(np.clip(vr, 0.0, None)),
            sigma_im=np.sqrt(np.clip(vi, 0.0, None)),
        )

    return HybridEstimate(
        uu=block(values[0], var_re[0], var_im[0]),
        dd=block(values[1], var_re[1], var_im[1]),
        ud=block(ud, ud_re, ud_im),
        settings=base,
        orders=orders,
    )


# ----------------------------------------------------------------------
# comparison and serialization
# ----------------------------------------------------------------------

def scalar_parts(estimate, truth, hermitian):
    """Independent scalar degrees of freedom as (error, sigma) rows, shape (n, 2).

    Hermitian blocks contribute the lower triangle (real parts everywhere,
    imaginary parts strictly below the diagonal); a general block contributes
    every entry's real and imaginary part.
    """
    err = estimate.values - np.asarray(truth, dtype=complex)
    n = err.shape[0]
    if hermitian:
        real, imag = np.tri(n, dtype=bool), np.tri(n, k=-1, dtype=bool)
    else:
        real = imag = np.ones((n, n), dtype=bool)
    return np.concatenate([
        np.stack([err.real[real], estimate.sigma_re[real]], axis=1),
        np.stack([err.imag[imag], estimate.sigma_im[imag]], axis=1),
    ])


def error_report(estimate, truth_state):
    """Per-block max |error| and 3-sigma containment against a known state."""
    cdim = estimate.settings.n_cutoff + 1
    report = {}
    pooled_hits = pooled_total = 0
    for name in ("uu", "dd", "ud"):
        est = getattr(estimate, name)
        # a truth of smaller dim is exactly zero past its cutoff
        truth = np.asarray(getattr(truth_state, name), dtype=complex)[:cdim, :cdim]
        truth = np.pad(truth, [(0, cdim - truth.shape[0]), (0, cdim - truth.shape[1])])
        err, sig = scalar_parts(est, truth, hermitian=name != "ud").T
        mask = sig > 0
        hits = int(np.sum(np.abs(err[mask]) <= 3.0 * sig[mask]))
        total = int(mask.sum())
        pooled_hits += hits
        pooled_total += total
        report[name] = {
            "max_abs_error": float(np.max(np.abs(est.values - truth))),
            "within_3sigma": hits / total if total else 1.0,
            "parts": total,
        }
    report["pooled_within_3sigma"] = pooled_hits / pooled_total if pooled_total else 1.0
    return report


def write_estimate_json(path, estimate, extra=None):
    """JSON file of the estimate, then the ``extra`` keys: complex values as
    [re, im] pairs, sigma arrays parallel, the settings window and the
    per-order diagnostics."""
    s = estimate.settings
    payload = {
        "settings": {
            "beta_abs": s.beta_abs,
            "n_phases": s.n_phases,
            "n_max": s.n_max,
            "n_cutoff": s.n_cutoff,
            "eta": s.eta,
        },
        "blocks": {
            name: {
                "values": np.stack([est.values.real, est.values.imag], axis=-1).tolist(),
                "sigma_re": est.sigma_re.tolist(),
                "sigma_im": est.sigma_im.tolist(),
            }
            for name, est in (("uu", estimate.uu), ("dd", estimate.dd), ("ud", estimate.ud))
        },
        "orders": list(estimate.orders),
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))


def _entry(payload, key, convert):
    """convert(payload[k1][k2]...) for the dotted ``key``, the one reader of
    record-line and estimate fields.  A ValueError reads ``missing field``
    for the first absent key, ``malformed field`` with the value for a
    non-object parent or a failed conversion, or ``expected a JSON object``."""
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    obj, name = payload, ""
    for part in key.split("."):
        if not isinstance(obj, dict):
            raise ValueError(f"malformed field '{name}': {obj!r:.40}")
        name = f"{name}.{part}".lstrip(".")
        if part not in obj:
            raise ValueError(f"missing field '{name}'")
        obj = obj[part]
    try:
        return convert(obj)
    except (IndexError, OverflowError, TypeError, ValueError):
        raise ValueError(f"malformed field '{key}': {obj!r:.40}") from None


def _complex_pairs(value):
    # parts assigned, not re + 1j*im, which turns a -0.0 imaginary part into +0.0
    pairs = np.asarray(value, dtype=float)
    if pairs.shape[-1:] != (2,):
        raise ValueError("not [re, im] pairs")
    values = np.empty(pairs.shape[:-1], dtype=complex)
    values.real, values.imag = pairs[..., 0], pairs[..., 1]
    return values


def _float_array(value):
    return np.asarray(value, dtype=float)


def load_estimate_json(path):
    """(HybridEstimate, payload) from a file written by write_estimate_json.

    A missing or malformed field raises a ValueError naming it, and a block
    whose values, sigma_re or sigma_im are not (n_cutoff+1)^2 or hold a NaN
    or an infinity a ValueError naming the block.
    """
    with open(path) as fh:
        payload = json.load(fh)
    settings = TomographySettings(
        theta=0.0,
        phi_spin=0.0,
        beta_abs=_entry(payload, "settings.beta_abs", float),
        n_phases=_entry(payload, "settings.n_phases", int),
        n_max=_entry(payload, "settings.n_max", int),
        n_cutoff=_entry(payload, "settings.n_cutoff", int),
        eta=_entry(payload, "settings.eta", float),
    )
    orders = _entry(payload, "orders", tuple) if "orders" in payload else ()

    cdim = settings.n_cutoff + 1

    def block(name):
        est = BlockEstimate(
            values=_entry(payload, f"blocks.{name}.values", _complex_pairs),
            sigma_re=_entry(payload, f"blocks.{name}.sigma_re", _float_array),
            sigma_im=_entry(payload, f"blocks.{name}.sigma_im", _float_array),
        )
        shapes = (est.values.shape, est.sigma_re.shape, est.sigma_im.shape)
        if set(shapes) != {(cdim, cdim)}:
            raise ValueError(
                f"block '{name}': values, sigma_re and sigma_im have shapes {shapes},"
                f" not ({cdim}, {cdim}) for n_cutoff {settings.n_cutoff}"
            )
        if not all(np.isfinite(part).all() for part in (est.values, est.sigma_re, est.sigma_im)):
            raise ValueError(f"block '{name}': values or sigmas hold a NaN or an infinity")
        return est

    blocks = {name: block(name) for name in ("uu", "dd", "ud")}
    return HybridEstimate(**blocks, settings=settings, orders=orders), payload
