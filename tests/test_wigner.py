import csv
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from wernerlike import fock, states, wigner as wg
from wernerlike import tomography as tg

TWO_OVER_PI = 2.0 / np.pi


def expm_displaced_parity(gamma, dim):
    """Displaced parity via the matrix exponential, independent of fock.py."""
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    d = expm(gamma * a.conj().T - np.conj(gamma) * a)
    parity = np.diag((-1.0) ** np.arange(dim))
    return d @ parity @ d.conj().T


def coherent_wigner(gamma, a, b):
    """Closed-form W(gamma) = (2/pi) <b|D(gamma) P D(gamma)+|a> of |a><b|."""
    ga, gb = a - gamma, b - gamma
    exponent = (
        0.5 * (np.conj(gamma) * a - gamma * np.conj(a))
        + 0.5 * (gamma * np.conj(b) - np.conj(gamma) * b)
        - 0.5 * np.abs(ga) ** 2
        - 0.5 * np.abs(gb) ** 2
        - np.conj(gb) * ga
    )
    return TWO_OVER_PI * np.exp(exponent)


def state_blocks(state):
    """The name -> block mapping ``wigner_grid`` takes, of a HybridState."""
    return {name: getattr(state, name) for name in wg.BLOCK_NAMES}


def wigner_point(block, gamma):
    """W(gamma) for a single oscillator-space block (complex in general)."""
    grid = wg.wigner_grid({"w": block}, [np.real(gamma)], [np.imag(gamma)])
    return complex(grid.blocks["w"][0, 0])


def parity_cutoff_grid(blocks, re_axis, im_axis):
    """Reference: W = (2/pi) sum_k (-1)^k <k|D(gamma)+ block D(gamma)|k>,
    with the parity sum cut where every displaced number state of the block's
    space keeps all but fock.SUPPORT_TOL of its norm at the largest |gamma|."""
    dim = blocks["uu"].shape[0]
    points = (re_axis[None, :] + 1j * im_axis[:, None]).ravel()
    parity_dim = fock.displaced_support(dim - 1, np.abs(points).max()).shape[1]
    parity = (-1.0) ** np.arange(parity_dim)
    out = {name: np.empty(points.size, dtype=complex) for name in wg.BLOCK_NAMES}
    for p, gamma in enumerate(points):
        a = fock.displacement_matrix(gamma, dim, parity_dim)  # <j|D(gamma)|k>
        for name in wg.BLOCK_NAMES:
            c = np.einsum("jk,jl,lk->k", a.conj(), blocks[name], a)
            out[name][p] = TWO_OVER_PI * (parity * c).sum()
    return {name: v.reshape(im_axis.size, re_axis.size) for name, v in out.items()}


def per_point_grid(blocks, re_axis, im_axis, chunk=512):
    """Reference: the former per-point evaluation, one complex dim x dim table
    <m|D(2 gamma)|n> (-1)^n per grid point against all blocks at once."""
    dim = max(len(block) for block in blocks.values())
    points = (re_axis[None, :] + 1j * im_axis[:, None]).ravel()
    stacked = np.zeros((dim, dim, len(blocks)), dtype=complex)
    for k, block in enumerate(blocks.values()):
        stacked[: len(block), : len(block), k] = np.transpose(block)
    stacked = stacked.reshape(dim * dim, len(blocks))
    n = np.arange(dim)
    values = np.empty((points.size, len(blocks)), dtype=complex)
    for start in range(0, points.size, chunk):
        pts = points[start : start + chunk]
        rot = np.exp(1j * np.angle(pts)[:, None] * n)
        table = fock.displacement_amplitudes_batch(2.0 * np.abs(pts), dim, dim) * (-1.0) ** n
        table = table * rot[:, :, None] * rot.conj()[:, None, :]
        values[start : start + pts.size] = table.reshape(pts.size, dim * dim) @ stacked
    shape = (im_axis.size, re_axis.size)
    return {k: TWO_OVER_PI * values[:, i].reshape(shape) for i, k in enumerate(blocks)}


def csv_writer_grid(path, grid, comments):
    """Reference: the former ``csv.writer`` export, row by row."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(("re_gamma", "im_gamma", "block", "re_W", "im_W"))
        for name in wg.BLOCK_NAMES:
            surf = grid.blocks[name]
            for i, gi in enumerate(grid.im_axis):
                for j, gr in enumerate(grid.re_axis):
                    w = surf[i, j]
                    writer.writerow(
                        (f"{gr:.12g}", f"{gi:.12g}", name, f"{w.real:.12g}", f"{w.imag:.12g}")
                    )


def per_row_writer_grid(path, grid, comments):
    """Reference: the former export, one f-string per row."""
    coords = [f"{gr:.12g},{gi:.12g}," for gi in grid.im_axis for gr in grid.re_axis]
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("re_gamma,im_gamma,block,re_W,im_W\r\n")
        for name in wg.BLOCK_NAMES:
            values = grid.blocks[name].ravel().tolist()
            fh.write("".join(
                f"{xy}{name},{w.real:.12g},{w.imag:.12g}\r\n" for xy, w in zip(coords, values)
            ))


def random_blocks(rng, sizes, scale):
    """Hermitian and non-Hermitian blocks of mixed sizes, max |entry| = scale."""
    blocks = {}
    for k, dim in enumerate(sizes):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        blocks[f"b{k}"] = a + a.conj().T if k % 2 == 0 else a
    top = max(np.abs(b).max() for b in blocks.values())
    return {name: scale / top * b for name, b in blocks.items()}


@pytest.fixture(scope="module")
def hybrid07():
    return states.build_hybrid_mixture(0.7, 32)


@pytest.fixture(scope="module")
def grid07(hybrid07):
    re_axis, im_axis = wg.default_axes(0.7, 3.0, 0.1, 3.0)
    grid = wg.wigner_grid(state_blocks(hybrid07), re_axis, im_axis)
    grid.check_normalization({"uu": 0.5, "dd": 0.5, "ud": np.trace(hybrid07.ud)})
    return grid


class TestWignerPoint:
    def test_vacuum_origin(self):
        vac = np.zeros((12, 12), dtype=complex)
        vac[0, 0] = 1.0
        assert abs(wigner_point(vac, 0.0) - TWO_OVER_PI) < 1e-12
        assert abs(wigner_point(vac, 0.0) - 0.636620) < 1e-6

    @pytest.mark.parametrize("gamma", [0.4, -0.8, 0.3 + 0.6j, 1.1j])
    def test_vacuum_gaussian(self, gamma):
        vac = np.zeros((16, 16), dtype=complex)
        vac[0, 0] = 1.0
        expected = TWO_OVER_PI * np.exp(-2 * abs(gamma) ** 2)
        assert abs(wigner_point(vac, gamma) - expected) < 1e-10

    @pytest.mark.parametrize("c", [0.7, -0.7, 0.5 + 0.3j])
    def test_coherent_projector_gaussian(self, c):
        from wernerlike.fock import coherent_state

        v = coherent_state(c, 32)
        block = np.outer(v, v.conj())
        for gamma in (0.0, 0.4 - 0.2j, -0.9):
            expected = TWO_OVER_PI * np.exp(-2 * abs(gamma - c) ** 2)
            assert abs(wigner_point(block, gamma) - expected) < 1e-9

    def test_offdiagonal_block_against_series_oracle(self, hybrid07):
        # brute-force oracle: sum (-1)^n <n|D+ rho D|n> with expm-built D
        dim = 96
        block = np.zeros((dim, dim), dtype=complex)
        block[:32, :32] = hybrid07.ud
        for gamma in (0.0, 0.3, 0.2 - 0.5j):
            dp = expm_displaced_parity(gamma, dim)
            oracle = TWO_OVER_PI * np.trace(block @ dp)
            assert abs(wigner_point(hybrid07.ud, gamma) - oracle) < 1e-8

    def test_offdiagonal_origin_closed_form(self, hybrid07):
        # parity flips |-a> to |a>, so W_ud(0) = -(1/2pi) <a|a> = -1/(2pi)
        got = wigner_point(hybrid07.ud, 0.0)
        assert abs(got - (-1.0 / (2.0 * np.pi))) < 1e-10


class TestWignerGrid:
    def test_diagonal_blocks_real(self, grid07):
        assert np.max(np.abs(grid07.blocks["uu"].imag)) < 1e-10
        assert np.max(np.abs(grid07.blocks["dd"].imag)) < 1e-10

    def test_du_is_conjugate_of_ud(self, grid07):
        np.testing.assert_allclose(
            grid07.blocks["du"], grid07.blocks["ud"].conj(), atol=1e-12
        )

    def test_dd_is_mirror_of_uu(self, grid07):
        np.testing.assert_allclose(
            grid07.blocks["dd"], grid07.blocks["uu"][:, ::-1], atol=1e-10
        )

    def test_block_normalization(self, grid07):
        assert abs(grid07.block_integral("uu") - 0.5) < 1e-3
        assert abs(grid07.block_integral("dd") - 0.5) < 1e-3
        assert grid07.meta["normalization_ok"]

    def test_global_maximum_at_minus_alpha(self, grid07):
        x, y = grid07.line_profile("uu")
        peaks = wg.profile_maxima(x, y.real)
        assert peaks, "no interior maxima found"
        top_x, top_y = max(peaks, key=lambda p: p[1])
        assert abs(top_x + 0.7) <= 0.1
        # the +alpha side carries the smaller weight
        plus_value = y.real[np.argmin(np.abs(x - 0.7))]
        assert top_y > plus_value

    def test_two_hills_resolved_at_larger_amplitude(self):
        # 3:1 weights merge the hills below alpha ~ 0.85; at 1.2 both survive
        st = states.build_hybrid_mixture(1.2, 48)
        re_axis = np.arange(-4.2, 4.25, 0.1)
        grid = wg.wigner_grid(state_blocks(st), re_axis, np.array([-0.1, 0.0, 0.1]))
        x, y = grid.line_profile("uu")
        peaks = wg.profile_maxima(x, y.real)
        assert len(peaks) == 2
        (x_lo, y_lo), (x_hi, y_hi) = sorted(peaks)
        assert abs(x_lo + 1.2) <= 0.1 and abs(x_hi - 1.2) <= 0.1
        assert y_lo > y_hi

    def test_hill_ratio_approaches_weight_ratio(self):
        # peak heights follow the 3/8 vs 1/8 mixture weights once the hills
        # decouple
        st = states.build_hybrid_mixture(2.0, 80)
        lo = wigner_point(st.uu, -2.0)
        hi = wigner_point(st.uu, 2.0)
        assert abs(lo.real / hi.real - 3.0) < 0.15

    def test_interference_not_convex_combination(self, grid07):
        # the coherence block's surface cannot be fit by the diagonal
        # surfaces: entanglement shows up as interference structure
        uu = grid07.blocks["uu"].real.ravel()
        dd = grid07.blocks["dd"].real.ravel()
        target = grid07.blocks["ud"].real.ravel()
        basis = np.stack([uu, dd], axis=1)
        coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
        residual = np.linalg.norm(target - basis @ coef) / np.linalg.norm(target)
        assert residual > 0.2

    def test_non_finite_integral_is_a_miss(self, grid07):
        blocks = {name: grid07.blocks[name].copy() for name in ("uu", "dd")}
        blocks["uu"][0, 0] = np.nan
        grid = wg.WignerGrid(grid07.re_axis, grid07.im_axis, blocks, meta={})
        with pytest.warns(UserWarning, match="grid integrals"):
            grid.check_normalization({"uu": 0.5, "dd": 0.5})
        assert grid.meta["normalization_ok"] is False
        assert np.isnan(grid.meta["normalization"]["uu"]["integral"]).all()

    def test_coverage_warning_on_small_grid(self, hybrid07):
        axis = np.arange(-0.5, 0.55, 0.25)
        grid = wg.wigner_grid(state_blocks(hybrid07), axis, axis)
        with pytest.warns(UserWarning, match="grid"):
            grid.check_normalization({"uu": 0.5})

    def test_truth_matches_closed_form(self, grid07):
        # blocks as weighted coherent dyads |a><b|: (weight, a, b)
        a = 0.7
        terms = {
            "uu": ((0.125, a, a), (0.375, -a, -a)),
            "dd": ((0.375, a, a), (0.125, -a, -a)),
            "ud": ((-0.25, -a, a),),
            "du": ((-0.25, a, -a),),
        }
        gamma = grid07.re_axis[None, :] + 1j * grid07.im_axis[:, None]
        for name, dyads in terms.items():
            exact = sum(w * coherent_wigner(gamma, ket, bra) for w, ket, bra in dyads)
            assert np.max(np.abs(grid07.blocks[name] - exact)) < 1e-12

    def test_matches_parity_cutoff_reference_at_estimate_scale(self):
        # a raw linear-inversion estimate at the default design carries
        # entries up to ~4e4 across the whole Fock range
        rng = np.random.default_rng(11)
        dim, scale = 32, 4e4

        def noise():
            return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

        uu, dd, ud = noise(), noise(), noise()
        blocks = {"uu": uu + uu.conj().T, "dd": dd + dd.conj().T, "ud": ud, "du": ud.conj().T}
        top = max(np.abs(b).max() for b in blocks.values())
        blocks = {name: scale / top * b for name, b in blocks.items()}
        # corners reach the default desk grid's |gamma| = |3.7 + 3i|
        re_axis = np.array([-3.7, -1.3, 0.0, 0.6, 3.7])
        im_axis = np.array([-3.0, 0.0, 0.4, 3.0])
        ref = parity_cutoff_grid(blocks, re_axis, im_axis)
        grid = wg.wigner_grid(blocks, re_axis, im_axis)
        for name in wg.BLOCK_NAMES:
            assert np.max(np.abs(grid.blocks[name] - ref[name])) < 1e-12 * scale

    @pytest.mark.parametrize("axes", ["default", "skewed"])
    def test_per_order_sums_match_per_point_reference(self, axes):
        rng = np.random.default_rng(5)
        scale = 4e4
        blocks = random_blocks(rng, (20, 32, 32, 20), scale)
        if axes == "default":
            re_axis, im_axis = wg.default_axes(0.7, 3.0, 0.1, 3.0)
        else:  # no symmetry: every |gamma| distinct but the origin's
            re_axis = np.array([-2.9, -1.13, -0.4, 0.0, 0.52, 1.7, 3.3])
            im_axis = np.array([-2.2, -0.35, 0.0, 0.81, 2.6])
        ref = per_point_grid(blocks, re_axis, im_axis)
        grid = wg.wigner_grid(blocks, re_axis, im_axis)
        assert grid.meta["state_dim"] == 32
        for name in blocks:
            assert np.max(np.abs(grid.blocks[name] - ref[name])) < 1e-12 * scale
        origin = wg.wigner_grid(blocks, [0.0], [0.0])
        for name, block in blocks.items():
            # D(0) = 1: W(0) = (2/pi) sum_n (-1)^n rho_nn
            parity_trace = TWO_OVER_PI * np.sum((-1.0) ** np.arange(len(block)) * np.diag(block))
            assert abs(origin.blocks[name][0, 0] - parity_trace) < 1e-12 * scale

    def test_point_equals_grid_sample(self, grid07, hybrid07):
        for i, j in ((0, 0), (30, 37), (12, 50), (60, 74)):
            gamma = complex(grid07.re_axis[j], grid07.im_axis[i])
            for name in wg.BLOCK_NAMES:
                got = wigner_point(getattr(hybrid07, name), gamma)
                assert abs(got - grid07.blocks[name][i, j]) < 1e-15

    def test_noiseless_reconstruction_grid_matches_truth(self):
        state = states.build_hybrid_mixture(0.7, 16)
        base = tg.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=0.6,
            n_phases=36, n_max=15, n_cutoff=15, eta=1.0,
        )
        datas = [
            tg.exact_marginal_data(state, base.with_angles(*angles))
            for angles in tg.standard_setting_angles()
        ]
        est = tg.reconstruct_full(datas, base).to_state()
        axes = (np.arange(-1.5, 1.55, 0.25), np.arange(-1.0, 1.05, 0.25))
        g_true = wg.wigner_grid(state_blocks(state), *axes)
        g_est = wg.wigner_grid(state_blocks(est), *axes)
        for name in wg.BLOCK_NAMES:
            assert np.max(np.abs(g_true.blocks[name] - g_est.blocks[name])) < 1e-6

    def test_allocation_peak_of_two_sources_on_default_axes(self, hybrid07):
        # the 8 blocks `wigner --source both` maps peak at 3.7 MB; a gathered
        # (points x orders x blocks) operand per chunk takes that to 7.2 MB
        recon = random_blocks(np.random.default_rng(4), (32,) * 4, 4e4).values()
        named = {("true", n): getattr(hybrid07, n) for n in wg.BLOCK_NAMES}
        named.update({("recon", n): block for n, block in zip(wg.BLOCK_NAMES, recon)})
        axes = wg.default_axes(0.7, 3.0, 0.1, 3.0)
        wg.wigner_grid(named, *axes)  # first-call caches are not the map's peak
        tracemalloc.start()
        try:
            wg.wigner_grid(named, *axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6, f"wigner_grid allocated up to {peak / 1e6:.2f} MB"

    def test_two_sources_of_different_size_in_one_grid(self, hybrid07):
        # the CLI evaluates the true and reconstructed blocks together; the
        # smaller source is zero-padded to the larger one's dim
        small = states.build_hybrid_mixture(0.4, 20)
        re_axis, im_axis = np.array([-1.2, 0.0, 0.7]), np.array([-0.5, 0.0, 0.5])
        named = {("big", n): getattr(hybrid07, n) for n in wg.BLOCK_NAMES}
        named.update({("small", n): getattr(small, n) for n in wg.BLOCK_NAMES})
        joint = wg.wigner_grid(named, re_axis, im_axis)
        assert joint.meta["state_dim"] == 32
        for tag, state in (("big", hybrid07), ("small", small)):
            alone = wg.wigner_grid(state_blocks(state), re_axis, im_axis)
            for n in wg.BLOCK_NAMES:
                assert np.max(np.abs(joint.blocks[tag, n] - alone.blocks[n])) < 1e-15


class TestExport:
    def test_csv_bytes_match_csv_writer(self, tmp_path, grid07):
        im_axis = grid07.im_axis.copy()
        im_axis[0] = -0.0
        blocks = {name: grid07.blocks[name].copy() for name in wg.BLOCK_NAMES}
        blocks["uu"][0, :5] = [-0.0, 1e-300, -1e300 + 5e-324j, complex(-0.0, -0.0), np.nan]
        grid = wg.WignerGrid(grid07.re_axis, im_axis, blocks, meta={})
        comments = ["config_hash=xyz", "seed=7"]
        wg.write_grid_csv(tmp_path / "got.csv", grid, comments=comments)
        csv_writer_grid(tmp_path / "ref.csv", grid, comments=comments)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_csv_bytes_match_per_row_writer(self, tmp_path, grid07):
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e16, np.nan, np.inf, -np.inf]
        re_axis = grid07.re_axis.copy()
        im_axis = grid07.im_axis.copy()
        re_axis[: len(special)] = special
        im_axis[: len(special)] = special[::-1]
        blocks = {name: grid07.blocks[name].copy() for name in wg.BLOCK_NAMES}
        blocks["uu"][0, : len(special)] = special
        blocks["ud"][1, : len(special)].real = special[::-1]
        blocks["ud"][1, : len(special)].imag = special
        blocks["dd"][-1, -len(special) :].imag = special
        grid = wg.WignerGrid(re_axis, im_axis, blocks, meta={})
        comments = ["config_hash=xyz", "seed=7"]
        wg.write_grid_csv(tmp_path / "got.csv", grid, comments=comments)
        per_row_writer_grid(tmp_path / "ref.csv", grid, comments=comments)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        for text in (b"-0,", b",0,", b"4.94065645841e-324", b"1e+16", b"nan", b"-inf"):
            assert text in got

    def test_csv_and_sidecar(self, tmp_path, hybrid07):
        re_axis = np.arange(-1.0, 1.05, 0.5)
        im_axis = np.arange(-0.5, 0.55, 0.5)
        grid = wg.wigner_grid(state_blocks(hybrid07), re_axis, im_axis)
        csv_path = tmp_path / "grid.csv"
        wg.write_grid_csv(csv_path, grid, comments=["config_hash=xyz"])
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "# config_hash=xyz"
        assert lines[1] == "re_gamma,im_gamma,block,re_W,im_W"
        n_rows = len(re_axis) * len(im_axis) * 4
        assert len(lines) == 2 + n_rows
        # every sampled value is re-readable and matches the surface
        row = lines[2].split(",")
        i = int(np.argmin(np.abs(im_axis - float(row[1]))))
        j = int(np.argmin(np.abs(re_axis - float(row[0]))))
        assert abs(grid.blocks[row[2]][i, j].real - float(row[3])) < 1e-12
