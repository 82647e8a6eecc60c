"""Phase-space maps of the hybrid-state blocks.

Each block gets W(gamma) = (2/pi) Tr[block . D(gamma) P D(gamma)+] with P the
photon-number parity, i.e. the displaced-parity (symmetric-ordering) form of
the Wigner function, normalized so the plane integral of a block equals its
trace.  Diagonal blocks are real; W_du = conj(W_ud).

Since P D(-gamma) = D(gamma) P, the displaced parity is D(2 gamma) P (Royer,
PRA 15, 449, 1977): W(gamma) = (2/pi) sum_{m,n<dim} rho_nm <m|D(2 gamma)|n> (-1)^n.
The sum covers exactly the block's support, so it needs no parity cutoff.
With <m|D(x e^{i t})|n> = f_mn(x) e^{i(m-n) t} it splits by Fourier order
r = m - n, as the tomography does:

    W(gamma) = (2/pi) sum_r e^{i r arg gamma} S_r(|2 gamma|),
    S_r(x) = sum_{m-n=r} f_mn(x) (-1)^n rho_nm,

so a grid needs one real dim x dim Laguerre table per distinct |2 gamma|, not
per point (a symmetric grid repeats each |gamma| up to eight times).  Each S_r
is one product of a table diagonal and a block diagonal for all k blocks at
once, and its wave is added to the points order by order: no array holds both.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .fock import displacement_amplitudes_batch

__all__ = [
    "default_axes",
    "wigner_grid",
    "WignerGrid",
    "profile_maxima",
    "write_grid_csv",
]

BLOCK_NAMES = ("uu", "ud", "du", "dd")

NORMALIZATION_TOL = 1e-3  # largest |grid integral - block trace| accepted
CHUNK_POINTS = 512  # grid points per kernel call in ``wigner_grid``


def default_axes(alpha, re_pad, spacing, im_extent):
    """Symmetric grids containing 0; Re axis covers +-(alpha + re_pad).

    Raises ValueError unless the spacing is positive and finite and each
    axis has at least 2 points.
    """
    if not (np.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be positive and finite, got {spacing}")
    axes = []
    for name, extent in (("re_pad", abs(alpha) + re_pad), ("im_extent", im_extent)):
        if not (np.isfinite(extent) and extent > 0):
            raise ValueError(
                f"{name} gives the axis half-width {extent}; it must be positive and"
                " finite for the axis to have at least 2 points"
            )
        n = int(np.ceil(extent / spacing))
        axes.append(spacing * np.arange(-n, n + 1))
    return tuple(axes)


@dataclass
class WignerGrid:
    """Sampled W surfaces per block on a rectangular gamma grid.

    blocks[name] has shape (len(im_axis), len(re_axis)).
    """

    re_axis: np.ndarray
    im_axis: np.ndarray
    blocks: dict
    meta: dict

    @property
    def cell_area(self):
        return float((self.re_axis[1] - self.re_axis[0]) * (self.im_axis[1] - self.im_axis[0]))

    def block_integral(self, name):
        return complex(self.blocks[name].sum() * self.cell_area)

    def line_profile(self, name):
        """(re_axis, W values) along the Im gamma = 0 row (the row nearest it)."""
        row = int(np.argmin(np.abs(self.im_axis)))
        return self.re_axis, self.blocks[name][row]

    def check_normalization(self, expected_traces):
        """Record integrals against traces in meta; warn on a miss (a non-finite one too)."""
        checks = {}
        ok = True
        for name, expected in expected_traces.items():
            got = self.block_integral(name)
            expected = complex(expected)
            checks[name] = {
                "integral": [got.real, got.imag],
                "expected": [expected.real, expected.imag],
            }
            ok = ok and abs(got - expected) <= NORMALIZATION_TOL
        self.meta["normalization"] = checks
        self.meta["normalization_ok"] = ok
        if not ok:
            warnings.warn(
                "grid integrals miss the block traces; enlarge or refine the grid",
                stacklevel=2,
            )


def wigner_grid(blocks, re_axis, im_axis):
    """Evaluate the surfaces of named oscillator-space blocks on the grid.

    ``blocks`` is a mapping of names to square arrays (a HybridState's are its
    BLOCK_NAMES attributes); ``grid.blocks`` uses the same names.  Blocks of
    different sizes are zero-padded to the largest, ``meta["state_dim"]``.
    ``grid.check_normalization`` compares the grid integrals with the traces.
    """
    dim = max(len(block) for block in blocks.values())
    re_axis = np.asarray(re_axis, dtype=float)
    im_axis = np.asarray(im_axis, dtype=float)
    points = (re_axis[None, :] + 1j * im_axis[:, None]).ravel()
    # stacked[n, m, k] = rho_nm of block k; per order r = m - n, the block
    # diagonal m = n + r times (-1)^n, shape (dim - |r|, k)
    stacked = np.zeros((dim, dim, len(blocks)), dtype=complex)
    for k, block in enumerate(blocks.values()):
        stacked[: len(block), : len(block), k] = block
    orders = np.arange(1 - dim, dim)
    sign = (-1.0) ** np.arange(dim)
    diagonals = [
        np.diagonal(stacked, r).T * sign[max(-r, 0) : dim - max(r, 0), None] for r in orders
    ]
    xs = 2.0 * np.abs(points)
    by_x = np.argsort(xs, kind="stable")
    values = np.empty((points.size, len(blocks)), dtype=complex)
    for start in range(0, points.size, CHUNK_POINTS):
        idx = by_x[start : start + CHUNK_POINTS]
        distinct, which = np.unique(xs[idx], return_inverse=True)
        table = displacement_amplitudes_batch(distinct, dim, dim)
        angle = np.angle(points[idx])
        chunk = np.zeros((idx.size, len(blocks)), dtype=complex)
        for r, diagonal in zip(orders, diagonals):
            # S_r(x_u) per block: f_mn with m - n = r lies on table diagonal -r
            s_r = np.diagonal(table, -r, 1, 2) @ diagonal
            chunk += np.exp(1j * (angle * r))[:, None] * s_r[which]
        values[idx] = chunk
    shape = (im_axis.size, re_axis.size)
    surfaces = {k: 2.0 / np.pi * values[:, i].reshape(shape) for i, k in enumerate(blocks)}
    return WignerGrid(re_axis=re_axis, im_axis=im_axis, blocks=surfaces, meta={"state_dim": dim})


def profile_maxima(x, y):
    """Strict interior local maxima of a sampled line; [(x, y), ...]."""
    y = np.asarray(y, dtype=float)
    out = []
    for i in range(1, len(y) - 1):
        if y[i] > y[i - 1] and y[i] > y[i + 1]:
            out.append((float(x[i]), float(y[i])))
    return out


def write_grid_csv(path, grid, comments):
    """A ``# `` line per comment, then columns (re_gamma, im_gamma, block,
    re_W, im_W), one row per sample.

    Rows end in CRLF and no field is quoted, as ``csv.writer`` writes them;
    ``%.12g`` writes the same digits as ``format(x, ".12g")``.
    """
    re_text = [f"{gr:.12g}," for gr in grid.re_axis.tolist()]
    im_text = [f"{gi:.12g}," for gi in grid.im_axis.tolist()]
    fields = [None] * (3 * len(re_text) * len(im_text))
    fields[::3] = [gr + gi for gi in im_text for gr in re_text]
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("re_gamma,im_gamma,block,re_W,im_W\r\n")
        for name in BLOCK_NAMES:
            values = grid.blocks[name].ravel()
            fields[1::3] = values.real.tolist()
            fields[2::3] = values.imag.tolist()
            fh.write(f"%s{name},%.12g,%.12g\r\n" * values.size % tuple(fields))
