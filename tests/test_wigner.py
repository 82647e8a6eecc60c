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


def parity_cutoff_grid(blocks, re_axis, im_axis):
    """Reference: W = (2/pi) sum_k (-1)^k <k|D(gamma)+ block D(gamma)|k>,
    with the parity sum cut where every displaced number state of the block's
    space keeps all but 1e-12 of its norm at the largest |gamma|."""
    dim = blocks["uu"].shape[0]
    points = (re_axis[None, :] + 1j * im_axis[:, None]).ravel()
    parity_dim = fock.displaced_support(dim - 1, np.abs(points).max(), tol=1e-12)
    parity = (-1.0) ** np.arange(parity_dim)
    out = {name: np.empty(points.size, dtype=complex) for name in wg.BLOCK_NAMES}
    for p, gamma in enumerate(points):
        a = fock.displacement_matrix(gamma, dim, parity_dim)  # <j|D(gamma)|k>
        for name in wg.BLOCK_NAMES:
            c = np.einsum("jk,jl,lk->k", a.conj(), blocks[name], a)
            out[name][p] = TWO_OVER_PI * (parity * c).sum()
    return {name: v.reshape(im_axis.size, re_axis.size) for name, v in out.items()}


@pytest.fixture(scope="module")
def hybrid07():
    return states.build_hybrid_mixture(0.7, 32)


@pytest.fixture(scope="module")
def grid07(hybrid07):
    re_axis, im_axis = wg.default_axes(0.7, spacing=0.1)
    return wg.wigner_grid(
        hybrid07,
        re_axis,
        im_axis,
        expected_traces={"uu": 0.5, "dd": 0.5, "ud": np.trace(hybrid07.ud)},
    )


class TestWignerPoint:
    def test_vacuum_origin(self):
        vac = np.zeros((12, 12), dtype=complex)
        vac[0, 0] = 1.0
        assert abs(wg.wigner_point(vac, 0.0) - TWO_OVER_PI) < 1e-12
        assert abs(wg.wigner_point(vac, 0.0) - 0.636620) < 1e-6

    @pytest.mark.parametrize("gamma", [0.4, -0.8, 0.3 + 0.6j, 1.1j])
    def test_vacuum_gaussian(self, gamma):
        vac = np.zeros((16, 16), dtype=complex)
        vac[0, 0] = 1.0
        expected = TWO_OVER_PI * np.exp(-2 * abs(gamma) ** 2)
        assert abs(wg.wigner_point(vac, gamma) - expected) < 1e-10

    @pytest.mark.parametrize("c", [0.7, -0.7, 0.5 + 0.3j])
    def test_coherent_projector_gaussian(self, c):
        from wernerlike.fock import coherent_state

        v = coherent_state(c, 32)
        block = np.outer(v, v.conj())
        for gamma in (0.0, 0.4 - 0.2j, -0.9):
            expected = TWO_OVER_PI * np.exp(-2 * abs(gamma - c) ** 2)
            assert abs(wg.wigner_point(block, gamma) - expected) < 1e-9

    def test_offdiagonal_block_against_series_oracle(self, hybrid07):
        # brute-force oracle: sum (-1)^n <n|D+ rho D|n> with expm-built D
        dim = 96
        block = np.zeros((dim, dim), dtype=complex)
        block[:32, :32] = hybrid07.ud
        for gamma in (0.0, 0.3, 0.2 - 0.5j):
            dp = expm_displaced_parity(gamma, dim)
            oracle = TWO_OVER_PI * np.trace(block @ dp)
            assert abs(wg.wigner_point(hybrid07.ud, gamma) - oracle) < 1e-8

    def test_offdiagonal_origin_closed_form(self, hybrid07):
        # parity flips |-a> to |a>, so W_ud(0) = -(1/2pi) <a|a> = -1/(2pi)
        got = wg.wigner_point(hybrid07.ud, 0.0)
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
        x, y = grid07.line_profile("uu", 0.0)
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
        grid = wg.wigner_grid(st, re_axis, np.array([-0.1, 0.0, 0.1]))
        x, y = grid.line_profile("uu", 0.0)
        peaks = wg.profile_maxima(x, y.real)
        assert len(peaks) == 2
        (x_lo, y_lo), (x_hi, y_hi) = sorted(peaks)
        assert abs(x_lo + 1.2) <= 0.1 and abs(x_hi - 1.2) <= 0.1
        assert y_lo > y_hi

    def test_hill_ratio_approaches_weight_ratio(self):
        # peak heights follow the 3/8 vs 1/8 mixture weights once the hills
        # decouple
        st = states.build_hybrid_mixture(2.0, 80)
        lo = wg.wigner_point(st.uu, -2.0)
        hi = wg.wigner_point(st.uu, 2.0)
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

    def test_coverage_warning_on_small_grid(self, hybrid07):
        with pytest.warns(UserWarning, match="grid"):
            wg.wigner_grid(
                hybrid07,
                np.arange(-0.5, 0.55, 0.25),
                np.arange(-0.5, 0.55, 0.25),
                expected_traces={"uu": 0.5},
            )

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

    def test_point_equals_grid_sample(self, grid07, hybrid07):
        for i, j in ((0, 0), (30, 37), (12, 50), (60, 74)):
            gamma = complex(grid07.re_axis[j], grid07.im_axis[i])
            for name in wg.BLOCK_NAMES:
                got = wg.wigner_point(getattr(hybrid07, name), gamma)
                assert abs(got - grid07.blocks[name][i, j]) < 1e-15

    def test_noiseless_reconstruction_grid_matches_truth(self):
        state = states.build_hybrid_mixture(0.7, 16)
        base = tg.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=0.6,
            n_phases=36, n_max=15, n_cutoff=15,
        )
        datas = [
            tg.exact_marginal_data(state, base.with_angles(*angles))
            for angles in tg.standard_setting_angles()
        ]
        est = tg.reconstruct_full(datas, base).to_state()
        axes = (np.arange(-1.5, 1.55, 0.25), np.arange(-1.0, 1.05, 0.25))
        g_true = wg.wigner_grid(state, *axes)
        g_est = wg.wigner_grid(est, *axes)
        for name in wg.BLOCK_NAMES:
            assert np.max(np.abs(g_true.blocks[name] - g_est.blocks[name])) < 1e-6


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
            alone = wg.wigner_grid(state, re_axis, im_axis)
            for n in wg.BLOCK_NAMES:
                assert np.max(np.abs(joint.blocks[tag, n] - alone.blocks[n])) < 1e-15


class TestExport:
    def test_csv_and_sidecar(self, tmp_path, hybrid07):
        re_axis = np.arange(-1.0, 1.05, 0.5)
        im_axis = np.arange(-0.5, 0.55, 0.5)
        grid = wg.wigner_grid(hybrid07, re_axis, im_axis)
        csv_path = tmp_path / "grid.csv"
        wg.write_grid_csv(csv_path, grid, comments=["config_hash=xyz"])
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "# config_hash=xyz"
        assert lines[1] == "re_gamma,im_gamma,block,re_W,im_W"
        n_rows = len(re_axis) * len(im_axis) * 4
        assert len(lines) == 2 + n_rows
        meta_path = tmp_path / "grid_meta.json"
        wg.write_grid_meta(meta_path, grid, extra={"config_hash": "xyz"})
        import json

        payload = json.loads(meta_path.read_text())
        assert payload["config_hash"] == "xyz"
        assert payload["blocks"] == ["uu", "ud", "du", "dd"]
        # every sampled value is re-readable and matches the surface
        row = lines[2].split(",")
        i = int(np.argmin(np.abs(im_axis - float(row[1]))))
        j = int(np.argmin(np.abs(re_axis - float(row[0]))))
        assert abs(grid.blocks[row[2]][i, j].real - float(row[3])) < 1e-12
