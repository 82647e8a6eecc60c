import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, factorial, gammaln

from wernerlike import cli, fock, tomography


def laguerre_diagonal(count, offset, y):
    """L_k^(offset)(y) for k < count by the degree recurrence, one diagonal."""
    y = np.asarray(y, dtype=float)
    out = np.empty((count,) + y.shape, dtype=float)
    out[0] = 1.0
    if count > 1:
        out[1] = 1.0 + offset - y
    for k in range(1, count - 1):
        out[k + 1] = ((2.0 * k + 1.0 + offset - y) * out[k] - (k + offset) * out[k - 1]) / (k + 1.0)
    return out


def amplitudes_per_diagonal(xs, n_rows, n_cols):
    """Reference table <m|D(x)|n>, the kernel's former per-diagonal loop: one
    Laguerre recurrence per matrix diagonal, each element evaluated in the
    same floating-point order as the in-place kernel."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.zeros((xs.size, n_rows, n_cols))
    zero = xs == 0.0
    for p in np.where(zero)[0]:
        np.fill_diagonal(out[p], 1.0)
    idx = np.where(~zero)[0]
    if idx.size == 0:
        return out
    x = xs[idx]
    y = x * x
    logx = np.log(x)
    lg = fock._log_factorials(max(n_rows, n_cols))
    block = np.zeros((idx.size, n_rows, n_cols))
    # lower triangle including the main diagonal: m = n + d
    for d in range(n_rows):
        count = min(n_cols, n_rows - d)
        if count <= 0:
            break
        lag = laguerre_diagonal(count, d, y)  # (count, batch)
        n_idx = np.arange(count)
        pref = np.exp(
            0.5 * (lg[n_idx][:, None] - lg[n_idx + d][:, None])
            + d * logx[None, :]
            - 0.5 * y[None, :]
        )
        block[:, n_idx + d, n_idx] = (pref * lag).T
    # strict upper triangle: n = m + d, sign (-1)^d
    for d in range(1, n_cols):
        count = min(n_rows, n_cols - d)
        if count <= 0:
            break
        lag = laguerre_diagonal(count, d, y)
        m_idx = np.arange(count)
        pref = np.exp(
            0.5 * (lg[m_idx][:, None] - lg[m_idx + d][:, None])
            + d * logx[None, :]
            - 0.5 * y[None, :]
        )
        block[:, m_idx, m_idx + d] = ((-1.0) ** d * pref * lag).T
    out[idx] = block
    return out


def support_axis0(n_top, beta_abs, tol=1e-13):
    """Reference support search: the former (K, n_top + 1) probe summed over
    axis 0, with no stop at the rounding floor (None where it gives up)."""
    x = float(abs(beta_abs))
    k = int(np.ceil((np.sqrt(n_top + 1.0) + x) ** 2 + 8.0 * (x + 1.0) + 8.0))
    while k < n_top + 4096:
        f = fock.displacement_amplitudes_batch([x], k, n_top + 1)[0]
        if float(np.max(1.0 - np.sum(f * f, axis=0))) < tol:
            return k
        k += 16
    return None


def expm_displacement(beta, dim):
    """Independent displacement operator via the matrix exponential."""
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    return expm(beta * a.conj().T - np.conj(beta) * a)


def test_log_factorials_match_gammaln():
    lg = fock._log_factorials(5000)
    assert lg[0] == 0.0 and lg[1] == 0.0
    ref = gammaln(np.arange(2, 5000) + 1.0)
    assert np.max(np.abs(lg[2:] - ref) / ref) < 1e-15


class TestCoherentState:
    def test_vacuum(self):
        amp = fock.coherent_state(0.0, 8)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(amp, expected)

    def test_pair_overlap_closed_form(self):
        plus = fock.coherent_state(0.7, 32)
        minus = fock.coherent_state(-0.7, 32)
        overlap = np.vdot(plus, minus)
        assert abs(overlap - np.exp(-2 * 0.49)) < 1e-12
        assert abs(overlap - 0.375311) < 1e-6

    def test_norm(self):
        assert abs(np.linalg.norm(fock.coherent_state(0.7, 32)) - 1.0) < 1e-12

    def test_truncation_rejected(self):
        with pytest.raises(fock.TruncationError):
            fock.coherent_state(3.0, 8)

    def test_matches_displaced_vacuum(self):
        for alpha in (0.7, -0.4, 0.3 + 0.5j):
            amp = fock.coherent_state(alpha, 32)
            column = fock.displacement_matrix(alpha, 32, 32)[:, 0]
            np.testing.assert_allclose(amp, column, atol=1e-10)


class TestDisplacementElement:
    """Single elements <m|D(beta)|n>, read from displacement_matrix blocks."""

    def test_vacuum_values(self):
        d = fock.displacement_matrix(0.6, 2, 1)
        assert abs(d[0, 0] - np.exp(-0.18)) < 1e-12
        assert abs(d[1, 0] - 0.6 * np.exp(-0.18)) < 1e-12
        assert abs(d[0, 0] - 0.835270) < 1e-6
        assert abs(d[1, 0] - 0.501162) < 1e-6

    @pytest.mark.parametrize("m,n", [(0, 0), (2, 2), (5, 1), (1, 5), (7, 7)])
    def test_zero_displacement_is_identity(self, m, n):
        expected = 1.0 if m == n else 0.0
        assert fock.displacement_matrix(0.0, m + 1, n + 1)[m, n] == expected

    @pytest.mark.parametrize("beta", [0.6, -0.35, 0.4 + 0.3j, 1.1j, -0.2 - 0.9j])
    def test_against_expm_oracle(self, beta):
        d = expm_displacement(beta, 48)
        got = fock.displacement_matrix(beta, 10, 10)
        for m in range(10):
            for n in range(10):
                assert abs(got[m, n] - d[m, n]) < 1e-10

    @pytest.mark.parametrize("m,n", [(6, 2), (2, 6), (9, 9), (12, 3)])
    def test_against_laguerre_closed_form(self, m, n):
        # scipy's generalized Laguerre as the independent special-function path
        beta = 0.45 + 0.2j
        y = abs(beta) ** 2
        if m >= n:
            ref = (
                np.sqrt(factorial(n) / factorial(m))
                * beta ** (m - n)
                * np.exp(-y / 2)
                * eval_genlaguerre(n, m - n, y)
            )
        else:
            ref = (
                np.sqrt(factorial(m) / factorial(n))
                * (-np.conj(beta)) ** (n - m)
                * np.exp(-y / 2)
                * eval_genlaguerre(m, n - m, y)
            )
        assert abs(fock.displacement_matrix(beta, m + 1, n + 1)[m, n] - ref) < 1e-12

    def test_rejects_negative_indices(self):
        # negative block sizes are rejected
        with pytest.raises(ValueError):
            fock.displacement_matrix(0.1, -1, 1)

    @pytest.mark.parametrize(
        "beta", [[0.6, -0.6], np.array([0.6j]), np.zeros((2, 2))], ids=["list", "1-d", "2-d"]
    )
    def test_rejects_non_scalar_beta(self, beta):
        with pytest.raises(ValueError, match=r"^beta must be one complex number, got shape \("):
            fock.displacement_matrix(beta, 4, 4)


class TestDisplacementOperator:
    def test_low_column_norms(self):
        d = fock.displacement_matrix(0.6, 32, 32)
        norms = np.linalg.norm(d[:, :9], axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_inverse_pair(self):
        d = fock.displacement_matrix(0.6, 32, 32)
        di = fock.displacement_matrix(-0.6, 32, 32)
        np.testing.assert_allclose((d @ di)[:8, :8], np.eye(8), atol=1e-8)

    def test_zero_is_identity(self):
        np.testing.assert_allclose(fock.displacement_matrix(0.0, 12, 12), np.eye(12))

    def test_matrix_matches_elements(self):
        # an element does not depend on the block it is read from
        beta = -0.3 + 0.7j
        mat = fock.displacement_matrix(beta, 9, 7)
        for m in range(9):
            for n in range(7):
                element = fock.displacement_matrix(beta, m + 1, n + 1)[m, n]
                assert abs(mat[m, n] - element) < 1e-12

    @pytest.mark.parametrize("beta", [0.3, 0.6 + 0.4j, 1.0, 2.0])
    def test_displaced_number_completeness(self, beta):
        # each displaced number state keeps unit norm once the row range
        # accommodates the displacement
        f = fock.displacement_matrix(beta, 64, 9)
        sums = np.sum(np.abs(f) ** 2, axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=1e-8)

    def test_amplitudes_at_wigner_grid_corner(self):
        # Wigner maps evaluate D(2 gamma); the default grid corner
        # gamma = 3.7 + 3i gives |2 gamma|^2 ~ 91, far past the small
        # arguments of the tomography path
        mpmath = pytest.importorskip("mpmath")
        x, dim = 9.53, 32
        ref = np.empty((dim, dim))
        with mpmath.workdps(40):
            y = mpmath.mpf(x) ** 2
            for m in range(dim):
                for n in range(dim):
                    k, d = min(m, n), abs(m - n)
                    val = (
                        mpmath.sqrt(mpmath.factorial(k) / mpmath.factorial(k + d))
                        * mpmath.mpf(x) ** d
                        * mpmath.exp(-y / 2)
                        * mpmath.laguerre(k, d, y)
                    )
                    ref[m, n] = float(val) * (-1.0) ** d if m < n else float(val)
        f = fock.displacement_amplitudes_batch([x], dim, dim)[0]
        assert np.max(np.abs(f - ref)) < 1e-13

    @pytest.mark.parametrize(
        "xs, n_rows, n_cols",
        [
            ([0.6], 32, 60),
            ([0.6], 60, 32),
            ([0.0, 0.3, 0.6, 2.0], 32, 92),
            (np.linspace(0.0, 9.6, 512), 32, 32),
            ([1.2], 163, 163),
            ([4.0], 80, 80),
            ([0.6], 1, 5),
            ([0.6], 5, 1),
            ([0.6], 7, 34),
            ([0.0, 0.6, 1.3], 15, 47),
            ([0.6], 32, 73),
        ],
    )
    def test_batch_is_bit_identical_to_per_diagonal_reference(self, xs, n_rows, n_cols):
        # record files depend on these tables bit for bit
        got = fock.displacement_amplitudes_batch(xs, n_rows, n_cols)
        assert np.array_equal(got, amplitudes_per_diagonal(xs, n_rows, n_cols))

    def test_displaced_support_is_sufficient(self):
        k = fock.displaced_support(8, 2.0).shape[1]
        f = fock.displacement_amplitudes_batch([2.0], k, 9)[0]
        assert 1.0 - np.min(np.sum(f * f, axis=0)) < 1e-12


class TestDisplacedSupport:
    def test_support_matches_the_axis0_search(self):
        for n_top in range(40):
            for beta_abs in np.round(np.arange(0.1, 3.01, 0.1), 10):
                k = fock.displaced_support(n_top, beta_abs).shape[1]
                assert k == support_axis0(n_top, beta_abs)

    @pytest.mark.parametrize("n_top, expected", [(60, 80), (80, 100)])
    def test_search_stops_at_the_rounding_floor(self, kernel_calls, n_top, expected):
        k = fock.displaced_support(n_top, 0.1).shape[1]
        assert k == expected and len(kernel_calls) <= 2
        # the largest deficit sits at the same rounding floor above tol = 1e-13
        # however many rows are added
        deficits = [
            np.max(1.0 - np.sum(fock.displacement_amplitudes_batch([0.1], n_top + 1, rows) ** 2,
                                axis=2))
            for rows in (k, k + 16, k + 160)
        ]
        assert 1e-13 < min(deficits) and max(deficits) < 1e-12

    def test_search_returns_the_accepted_table(self):
        f = fock.displaced_support(31, 0.6)
        assert np.array_equal(f, amplitudes_per_diagonal([0.6], 32, support_axis0(31, 0.6))[0])

    def test_forward_model_and_inversion_reuse_the_search_table(self, kernel_calls):
        config = cli.RunConfig()
        state, settings = config.truth_state(), config.settings()
        kernel_calls.clear()
        f = fock.displaced_support(state.dim - 1, settings.beta_abs)
        tomography.ideal_marginal_tables(state, settings, f, ((settings.theta, settings.phi_spin),))
        assert kernel_calls == [(state.dim, f.shape[1])]
        kernel_calls.clear()
        tomography.smeared_marginal_tables(state, settings)
        assert kernel_calls == [(state.dim, f.shape[1])]
        kernel_calls.clear()
        tomography.inversion_systems.__wrapped__(settings)
        assert len(kernel_calls) == 1

    def test_inversion_builds_a_window_wider_than_the_support(self, kernel_calls):
        # K = 28 <= n_max = 31: the detected window of 32 counts folds the
        # search's 28 columns, and its rows past them are zero
        settings = tomography.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=0.3, n_phases=14, n_max=31, n_cutoff=6, eta=1.0,
        )
        m, _ = tomography.inversion_systems.__wrapped__(settings)
        assert kernel_calls == [(7, 28)]
        assert m.shape == (7, 7, 32)


class TestSpinRotation:
    def test_zero_angle_is_identity(self):
        for phi in (0.0, 1.3, -2.2):
            np.testing.assert_allclose(fock.spin_rotation(0.0, phi), np.eye(2), atol=1e-15)

    def test_unitarity_random_angles(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            theta, phi = rng.uniform(-np.pi, np.pi, size=2)
            u = fock.spin_rotation(theta, phi)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_conjugation_maps_sigma3(self):
        u = fock.spin_rotation(np.pi / 4, -np.pi / 2)
        np.testing.assert_allclose(u @ fock.SIGMA3 @ u.conj().T, -fock.SIGMA1, atol=1e-12)
        u = fock.spin_rotation(np.pi / 4, 0.0)
        np.testing.assert_allclose(u @ fock.SIGMA3 @ u.conj().T, -fock.SIGMA2, atol=1e-12)

    def test_pauli_algebra(self):
        for s in (fock.SIGMA1, fock.SIGMA2, fock.SIGMA3):
            np.testing.assert_allclose(s @ s, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(
            fock.SIGMA1 @ fock.SIGMA2, 1j * fock.SIGMA3, atol=1e-15
        )


class TestHermitianEigenvalues:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(
            fock.hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4, atol=1e-14
        )

    def test_pauli(self):
        np.testing.assert_allclose(fock.hermitian_eigenvalues(fock.SIGMA1), [1.0, -1.0])

    def test_descending_and_trace(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = a + a.conj().T
        vals = fock.hermitian_eigenvalues(h)
        assert np.all(np.diff(vals) <= 0)
        assert abs(vals.sum() - np.trace(h).real) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            fock.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = a + a.conj().T
        base = fock.hermitian_eigenvalues(h)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
            rotated = fock.hermitian_eigenvalues(q @ h @ q.conj().T)
            np.testing.assert_allclose(rotated, base, atol=1e-8)
