import json
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

from wernerlike import cli, fock, montecarlo, states, trapsim
from wernerlike import tomography as tg


def settings_16(eta=1.0, n_phases=36):
    return tg.TomographySettings(
        theta=0.0, phi_spin=0.0, beta_abs=0.6,
        n_phases=n_phases, n_max=15, n_cutoff=15, eta=eta,
    )


def settings_full(eta=1.0):
    return tg.TomographySettings(
        theta=0.0, phi_spin=0.0, beta_abs=0.6,
        n_phases=96, n_max=31, n_cutoff=31, eta=eta,
    )


def random_hybrid(rng, dim):
    a = rng.normal(size=(2 * dim, 2 * dim)) + 1j * rng.normal(size=(2 * dim, 2 * dim))
    full = a @ a.conj().T
    full /= np.trace(full)
    return states.HybridState(uu=full[dim:, dim:], ud=full[dim:, :dim], dd=full[:dim, :dim])


def ref_order_operator(f, r):
    """Reference: the order-r system matrix G^(r)_nm = f_(m+r)n f_mn, shape
    (rows, cdim - r), of the real (cdim, rows) table f_kn = <k|D(|b|)|n>."""
    return (f[r:] * f[: len(f) - r]).T


def order_operator(r, beta_abs, cdim):
    """G^(r) with a measured window of cdim counts (n_max = n_cutoff)."""
    return ref_order_operator(fock.displacement_amplitudes_batch([beta_abs], cdim, cdim)[0], r)


def ref_ideal_marginal_tables(state, settings, f):
    """Reference: the per-order forward loop, one G^(r) product per order for
    the settings' own group, w[s, j, n]."""
    rows = f.shape[1]
    rho_q = [
        tg.collapse_spin(state, tg.spin_projector(settings.theta, settings.phi_spin, s))
        for s in (fock.SPIN_DOWN, fock.SPIN_UP)
    ]
    per_order = np.empty((2, state.dim, rows), dtype=complex)
    for r in range(state.dim):
        diagonals = np.stack([np.diagonal(q, -r) for q in rho_q])
        per_order[:, r] = diagonals @ ref_order_operator(f, r).T
    orders = np.arange(state.dim)
    waves = np.where(orders == 0, 1.0, 2.0) * np.exp(-1j * np.outer(settings.phases, orders))
    return (waves @ per_order).real


def marginal_w(state, spin_outcome, n, theta, phi_spin, beta):
    """Reference: a single ideal marginal probability by the rank-1
    projector route, independent of the per-order tables.

    Any count index n >= 0 is allowed: <k|D(beta)|n> for k < state dim is
    defined for every n.
    """
    if n < 0:
        raise ValueError("count index n must be nonnegative")
    chi_spin = fock.spin_rotation(theta, phi_spin)[:, spin_outcome]
    chi_osc = fock.displacement_matrix(beta, state.dim, n + 1)[:, n]
    blocks = {
        (fock.SPIN_UP, fock.SPIN_UP): state.uu,
        (fock.SPIN_UP, fock.SPIN_DOWN): state.ud,
        (fock.SPIN_DOWN, fock.SPIN_UP): state.du,
        (fock.SPIN_DOWN, fock.SPIN_DOWN): state.dd,
    }
    w = 0.0j
    for (s, sp), block in blocks.items():
        w += np.conj(chi_spin[s]) * chi_spin[sp] * (chi_osc.conj() @ block @ chi_osc)
    return float(w.real)


def exact_datas(state, base):
    return [
        tg.exact_marginal_data(state, base.with_angles(*angles))
        for angles in tg.standard_setting_angles()
    ]


def noisy_datas(state, base, seed=5):
    """Exact marginals carrying random positive cell variances."""
    rng = np.random.default_rng(seed)
    return [
        replace(d, variance=rng.uniform(1e-6, 1e-4, size=d.w.shape))
        for d in exact_datas(state, base)
    ]


def fourier_data(w, r):
    """(1/N) sum_j w[j] e^{i r phase_j} along the phase axis, through the FFT."""
    return np.conj(np.fft.fft(w, axis=0))[r] / w.shape[0]


@pytest.fixture(scope="module")
def hybrid07():
    return states.build_hybrid_mixture(0.7, 32)


class TestSettings:
    def test_window_ordering_enforced(self):
        with pytest.raises(ValueError):
            tg.TomographySettings(0.0, 0.0, 0.6, n_phases=96, n_max=10, n_cutoff=11, eta=1.0)

    def test_phase_count_guard(self):
        with pytest.raises(ValueError):
            tg.TomographySettings(0.0, 0.0, 0.6, n_phases=62, n_max=31, n_cutoff=31, eta=1.0)

    def test_eta_range(self):
        with pytest.raises(ValueError):
            tg.TomographySettings(0.0, 0.0, 0.6, n_phases=96, n_max=31, n_cutoff=31, eta=0.0)

    def test_beta_positive(self):
        with pytest.raises(ValueError):
            tg.TomographySettings(0.0, 0.0, 0.0, n_phases=96, n_max=31, n_cutoff=31, eta=1.0)

    def test_eta_is_required(self):
        # records taken at eta 0.9 would otherwise invert as if detection were perfect
        with pytest.raises(TypeError, match="eta"):
            tg.TomographySettings(0.0, 0.0, 0.6, n_phases=96, n_max=31, n_cutoff=31)


class TestMarginal:
    def test_completeness(self, hybrid07):
        total = sum(
            marginal_w(hybrid07, s, n, 0.4, -1.1, 0.3 + 0.2j)
            for s in (fock.SPIN_DOWN, fock.SPIN_UP)
            for n in range(32)
        )
        assert abs(total - 1.0) < 1e-8

    def test_vacuum_projection_value(self, hybrid07):
        w = marginal_w(hybrid07, fock.SPIN_UP, 0, 0.0, 0.0, 0.0)
        assert abs(w - 0.5 * np.exp(-0.49)) < 1e-12
        assert abs(w - 0.306313) < 1e-6

    def test_matches_block_double_sum(self, hybrid07):
        # independent evaluation: expand the displaced projector in the
        # spin-collapsed block's Fock representation
        beta, theta, phi = 0.6 * np.exp(0.7j), 0.0, 0.0
        rho_q = tg.collapse_spin(hybrid07, tg.spin_projector(theta, phi, fock.SPIN_UP))
        col = fock.displacement_matrix(beta, 32, 6)[:, 5]
        expected = (col.conj() @ rho_q @ col).real
        got = marginal_w(hybrid07, fock.SPIN_UP, 5, theta, phi, beta)
        assert abs(got - expected) < 1e-10

    def test_matches_batched_tables(self, hybrid07):
        base = settings_full()
        f = fock.displacement_amplitudes_batch([base.beta_abs], hybrid07.dim, 20)[0]
        tables = tg.ideal_marginal_tables(hybrid07, base, f, ((base.theta, base.phi_spin),))[0]
        j = 11
        beta = 0.6 * np.exp(1j * base.phases[j])
        for s in (fock.SPIN_DOWN, fock.SPIN_UP):
            for n in (0, 3, 9):
                direct = marginal_w(hybrid07, s, n, base.theta, base.phi_spin, beta)
                assert abs(tables[s, j, n] - direct) < 1e-12

    @pytest.mark.parametrize("group", range(3))
    def test_wide_tables_match_projector_route(self, hybrid07, group):
        # every phase, both spins, counts up to the displaced support; the
        # state is zero-padded so marginal_w accepts counts past its dim
        settings = settings_full().with_angles(*tg.standard_setting_angles()[group])
        f = fock.displaced_support(31, 0.6)
        rows = f.shape[1]
        assert rows == 60
        tables = tg.ideal_marginal_tables(
            hybrid07, settings, f, ((settings.theta, settings.phi_spin),)
        )[0]
        pad = [(0, rows - 32), (0, rows - 32)]
        wide = states.HybridState(
            **{name: np.pad(getattr(hybrid07, name), pad) for name in ("uu", "ud", "dd")}
        )
        for j, phase in enumerate(settings.phases):
            beta = 0.6 * np.exp(1j * phase)
            for s in (fock.SPIN_DOWN, fock.SPIN_UP):
                for n in (0, 1, 31, 59):
                    direct = marginal_w(wide, s, n, settings.theta, settings.phi_spin, beta)
                    assert abs(tables[s, j, n] - direct) < 1e-14

    @pytest.mark.parametrize("eta", [1.0, 0.9])
    def test_window_and_overflow_sum_to_one(self, hybrid07, eta):
        for angles in tg.standard_setting_angles():
            window, overflow = tg.smeared_marginal_tables(
                hybrid07, settings_full(eta).with_angles(*angles)
            )
            total = window.sum(axis=(0, 2)) + overflow.sum(axis=0)
            np.testing.assert_allclose(total, 1.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("group", range(3))
    def test_counts_past_the_state_dim(self, hybrid07, group):
        # the overflow counts n >= dim, without zero-padding the state
        settings = settings_full().with_angles(*tg.standard_setting_angles()[group])
        f = fock.displacement_amplitudes_batch([settings.beta_abs], hybrid07.dim, 60)[0]
        tables = tg.ideal_marginal_tables(
            hybrid07, settings, f, ((settings.theta, settings.phi_spin),)
        )[0]
        for j, phase in enumerate(settings.phases):
            beta = 0.6 * np.exp(1j * phase)
            for s in (fock.SPIN_DOWN, fock.SPIN_UP):
                for n in (32, 45, 59):
                    direct = marginal_w(hybrid07, s, n, settings.theta, settings.phi_spin, beta)
                    assert abs(tables[s, j, n] - direct) < 1e-14

    def test_count_range_guard(self, hybrid07):
        with pytest.raises(ValueError):
            marginal_w(hybrid07, fock.SPIN_UP, -1, 0.0, 0.0, 0.1)


class TestFourier:
    @pytest.mark.parametrize("r", [0, 1, 3, 7])
    def test_forward_model_consistency(self, hybrid07, r):
        # Fourier data of the exact marginals vs the system matrix applied
        # to the true block diagonals
        base = settings_full()
        data = tg.exact_marginal_data(hybrid07, base)
        what = fourier_data(data.w[fock.SPIN_UP], r)
        g = order_operator(r, 0.6, 32)
        diag = np.array([hybrid07.uu[m + r, m] for m in range(32 - r)])
        np.testing.assert_allclose(what, g @ diag, atol=1e-8)


class TestGMatrix:
    def test_zero_displacement_limits(self):
        g0 = order_operator(0, 1e-300, 16)
        np.testing.assert_allclose(g0, np.eye(16), atol=1e-12)
        g2 = order_operator(2, 1e-300, 16)
        np.testing.assert_allclose(g2, 0.0, atol=1e-12)

    def test_column_sums_with_adequate_truncation(self):
        g = order_operator(0, 0.6, 32)
        np.testing.assert_allclose(g[:, :9].sum(axis=0), 1.0, atol=1e-6)
        assert np.all(g >= 0.0)

    def test_shape(self):
        assert order_operator(5, 0.6, 32).shape == (32, 27)


def smear(w, eta):
    """Binomial detection response applied along the last axis."""
    return w @ tg.binomial_matrix(eta, w.shape[-1], w.shape[-1]).T


class TestEfficiencySmear:
    def test_identity_at_unit_efficiency(self):
        w = np.array([0.2, 0.5, 0.3])
        np.testing.assert_array_equal(smear(w, 1.0), w)

    def test_single_excitation_loss(self):
        w = np.array([0.0, 1.0])
        np.testing.assert_allclose(smear(w, 0.9), [0.1, 0.9], atol=1e-14)

    def test_total_probability_preserved(self):
        w = np.zeros(24)
        w[:6] = [0.1, 0.3, 0.25, 0.2, 0.1, 0.05]
        smeared = smear(w, 0.8)
        assert abs(smeared.sum() - 1.0) < 1e-12
        assert np.all(smeared >= 0.0)


def folded_table(settings):
    """(B(eta), f) on the extended count range, as inversion_systems forms them."""
    k = fock.displaced_support(settings.n_cutoff, settings.beta_abs).shape[1]
    kext = max(k, settings.n_max + 1)
    f = fock.displacement_amplitudes_batch([settings.beta_abs], settings.n_cutoff + 1, kext)[0]
    return tg.binomial_matrix(settings.eta, settings.n_max + 1, kext), f


def folded_operator(settings, r):
    """B(eta) G^(r) on the extended count range."""
    b, f = folded_table(settings)
    return b @ ref_order_operator(f, r)


#: one order's pseudo-inverse M, shape (cdim - r, n_max+1), and diagnostics
RefSystem = namedtuple("RefSystem", "r m sigma_max cond dropped")


def ref_order_systems(operators):
    """Reference: each order's system decomposed by its own SVD, singular
    values below SINGULAR_FLOOR truncated."""
    systems = []
    for r, g in enumerate(operators):
        u, s, vt = np.linalg.svd(g, full_matrices=False)
        keep = s > tg.SINGULAR_FLOOR
        if keep.any():
            m = (vt[keep].T / s[keep]) @ u[:, keep].T
            cond = float((s[0] / s[keep][-1]) ** 2)
        else:
            m = np.zeros((g.shape[1], g.shape[0]))
            cond = np.inf
        systems.append(RefSystem(r, m, float(s[0]), cond, int((~keep).sum())))
    return systems


def ref_inversion_systems(settings):
    """Reference: the folded systems B(eta) G^(r), one SVD per order."""
    b, f = folded_table(settings)
    return ref_order_systems([b @ ref_order_operator(f, r) for r in range(len(f))])


def unfolded_systems(settings):
    """Reference: the former eta = 1 branch of inversion_systems, G^(r) on the
    measured window alone with no binomial fold."""
    cdim = settings.n_cutoff + 1
    f = fock.displacement_amplitudes_batch([settings.beta_abs], cdim, settings.n_max + 1)[0]
    return ref_order_systems([ref_order_operator(f, r) for r in range(cdim)])


def unpack_systems(systems):
    """The (m, diagnostics) pair of inversion_systems as per-order RefSystems."""
    m, diagnostics = systems
    cdim = len(m)
    return [
        RefSystem(r, m[r, : cdim - r], sigma_max, cond, int(dropped))
        for r, (sigma_max, cond, dropped) in enumerate(diagnostics.tolist())
    ]


def assert_systems_match(settings, ref):
    """inversion_systems against per-order reference systems: dropped exact,
    M within 1e-8 of each order's largest |M|, sigma_max and cond within
    1e-9 relative, cond inf exactly where the reference's is."""
    got = unpack_systems(tg.inversion_systems(settings))
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.dropped == b.dropped
        assert a.m.shape == b.m.shape
        assert np.max(np.abs(a.m - b.m)) <= 1e-8 * np.max(np.abs(b.m))
        assert abs(a.sigma_max - b.sigma_max) <= 1e-9 * b.sigma_max
        assert np.isinf(a.cond) == np.isinf(b.cond)
        if np.isfinite(b.cond):
            assert abs(a.cond - b.cond) <= 1e-9 * b.cond


class TestPseudoInverse:
    """The per-order pseudo-inverses M of inversion_systems."""

    def test_identity_system(self):
        base = tg.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=1e-300, n_phases=36, n_max=15, n_cutoff=15, eta=1.0,
        )
        m, diagnostics = tg.inversion_systems(base)
        np.testing.assert_allclose(m[0], np.eye(16), atol=1e-12)
        assert diagnostics[0, 1] < 1.0 + 1e-9

    @pytest.mark.parametrize("r", range(6))
    def test_left_inverse_property(self, r):
        for eta in (1.0, 0.9):
            settings = settings_full(eta)
            g = folded_operator(settings, r)
            m, diagnostics = tg.inversion_systems(settings)
            np.testing.assert_allclose(m[r, : 32 - r] @ g, np.eye(32 - r), atol=1e-8)
            assert np.isfinite(diagnostics[r, 1])

    def test_noiseless_order_round_trip(self, hybrid07):
        for eta in (1.0, 0.9):
            base = settings_full(eta)
            data = tg.exact_marginal_data(hybrid07, base)
            r = 2
            what = fourier_data(data.w[fock.SPIN_UP], r)
            m, _ = tg.inversion_systems(base)
            est = m[r, :30] @ what
            truth = np.array([hybrid07.uu[k + r, k] for k in range(30)])
            np.testing.assert_allclose(est, truth, atol=1e-8)

    @pytest.mark.parametrize("eta", [0.9, 0.6])
    @pytest.mark.parametrize("beta_abs", [0.3, 0.6, 1.2])
    def test_batched_systems_match_per_order_svd(self, eta, beta_abs):
        # at cutoff 31 and |beta| <= 0.6 whole orders are dropped
        settings = replace(settings_full(eta), beta_abs=beta_abs)
        ref = ref_inversion_systems(settings)
        if beta_abs <= 0.6:
            assert any(system.dropped == 32 - system.r for system in ref)
        assert_systems_match(settings, ref)
        m, _ = tg.inversion_systems(settings)
        assert all(np.all(m[r, 32 - r :] == 0.0) for r in range(32))


class TestUnitEfficiencyFold:
    """At eta = 1 the binomial fold is the identity block."""

    # (6, 0.3) measures counts 0..31 past its support K = 28, so the
    # inversion builds its window table with a second kernel call
    @pytest.mark.parametrize(
        "n_cutoff, beta_abs, n_max",
        [(31, 0.6, 31), (6, 1.1, 6), (20, 0.33, 20), (6, 0.3, 31)],
        ids=["31-0.6", "6-1.1", "20-0.33", "6-0.3"],
    )
    def test_inversion_systems_match_unfolded_path(self, n_cutoff, beta_abs, n_max):
        settings = tg.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=beta_abs,
            n_phases=2 * n_cutoff + 2, n_max=n_max, n_cutoff=n_cutoff, eta=1.0,
        )
        assert_systems_match(settings, unfolded_systems(settings))

    @pytest.mark.parametrize("group", range(3))
    def test_smeared_tables_are_the_window_slice(self, hybrid07, group):
        settings = settings_full().with_angles(*tg.standard_setting_angles()[group])
        f = fock.displaced_support(31, 0.6)
        wide = tg.ideal_marginal_tables(
            hybrid07, settings, f, ((settings.theta, settings.phi_spin),)
        )[0]
        window, overflow = tg.smeared_marginal_tables(hybrid07, settings)
        assert np.array_equal(window, wide[..., :32])
        assert np.array_equal(overflow, np.clip(wide.sum(-1) - wide[..., :32].sum(-1), 0.0, None))

    def test_detected_window_of_pulse_probabilities(self):
        # the trap backend folds (2, rows) probability tables the same way
        probs = np.random.default_rng(4).dirichlet(np.ones(120)).reshape(2, 60)
        window, overflow = tg.detected_window(probs, tg.binomial_matrix(1.0, 32, 60))
        assert np.array_equal(window, probs[:, :32])
        assert np.array_equal(overflow, np.clip(probs.sum(1) - window.sum(1), 0.0, None))


class TestReconstruction:
    def test_noiseless_identity(self, hybrid07):
        base = settings_full()
        est = tg.reconstruct_full(exact_datas(hybrid07, base), base)
        assert np.max(np.abs(est.uu.values - hybrid07.uu)) < 1e-8
        assert np.max(np.abs(est.dd.values - hybrid07.dd)) < 1e-8
        assert np.max(np.abs(est.ud.values - hybrid07.ud)) < 1e-6
        np.testing.assert_array_equal(est.to_state().du, est.ud.values.conj().T)

    def test_noiseless_identity_with_efficiency(self, hybrid07):
        base = settings_full(eta=0.9)
        est = tg.reconstruct_full(exact_datas(hybrid07, base), base)
        for name, truth in (("uu", hybrid07.uu), ("dd", hybrid07.dd), ("ud", hybrid07.ud)):
            assert np.max(np.abs(getattr(est, name).values - truth)) < 1e-6

    def test_random_states_forward_inverse(self):
        rng = np.random.default_rng(123)
        base = settings_16()
        for _ in range(10):
            state = random_hybrid(rng, 16)
            est = tg.reconstruct_full(exact_datas(state, base), base)
            assert np.max(np.abs(est.uu.values - state.uu)) < 1e-6
            assert np.max(np.abs(est.dd.values - state.dd)) < 1e-6
            assert np.max(np.abs(est.ud.values - state.ud)) < 1e-6

    def test_efficiency_consistency(self, hybrid07):
        # smeared data through the folded system vs ideal data through the
        # plain system
        ideal = settings_full(eta=1.0)
        folded = settings_full(eta=0.9)
        est_ideal = tg.reconstruct_full(exact_datas(hybrid07, ideal), ideal)
        est_folded = tg.reconstruct_full(exact_datas(hybrid07, folded), folded)
        assert np.max(np.abs(est_ideal.uu.values - est_folded.uu.values)) < 1e-6

    def test_phase_grid_insensitivity(self, hybrid07):
        results = []
        for n_phases in (96, 192):
            base = tg.TomographySettings(
                theta=0.0, phi_spin=0.0, beta_abs=0.6,
                n_phases=n_phases, n_max=31, n_cutoff=31, eta=1.0,
            )
            est = tg.reconstruct_full(exact_datas(hybrid07, base), base)
            results.append(est.uu.values)
        assert np.max(np.abs(results[0] - results[1])) < 1e-9

    def test_degradation_as_displacement_shrinks(self):
        rng = np.random.default_rng(11)
        state = random_hybrid(rng, 8)
        errors = []
        for beta in (0.8, 0.4, 0.2, 0.1):
            base = tg.TomographySettings(
                theta=0.0, phi_spin=0.0, beta_abs=beta,
                n_phases=20, n_max=7, n_cutoff=7, eta=1.0,
            )
            est = tg.reconstruct_full(exact_datas(state, base), base)
            errors.append(float(np.max(np.abs(est.uu.values - state.uu))))
        assert all(np.isfinite(errors))
        for small, large in zip(errors, errors[1:]):
            assert large >= 0.9 * small

    def test_conditioning_diagnostics_logged(self):
        base = settings_full()
        _, diagnostics = tg.inversion_systems(base)
        for sigma_max, cond, _ in diagnostics[:11]:
            assert np.isfinite(cond)
            assert sigma_max > 0

    def test_missing_group_reported(self, hybrid07):
        base = settings_full()
        datas = exact_datas(hybrid07, base)[:2]
        with pytest.raises(ValueError, match=r"theta, phi_spin"):
            tg.reconstruct_full(datas, base)

    def test_inconsistent_settings_reported(self, hybrid07):
        base = settings_full()
        wrong = tg.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=0.7,
            n_phases=96, n_max=31, n_cutoff=31, eta=1.0,
        )
        with pytest.raises(ValueError, match="beta_abs"):
            tg.reconstruct_full(exact_datas(hybrid07, base), wrong)

    def test_group_of_another_count_range_named(self, hybrid07):
        base = settings_16()
        datas = exact_datas(hybrid07, base)
        datas[2] = replace(datas[2], w=datas[2].w[..., :-1], variance=datas[2].variance[..., :-1])
        with pytest.raises(ValueError, match="n_max: data 14 vs settings 15"):
            tg.reconstruct_full(datas, base)

    def test_rotated_projectors(self):
        up = np.array([0.0, 1.0], dtype=complex)
        proj = tg.spin_projector(np.pi / 4, -np.pi / 2, fock.SPIN_UP)
        np.testing.assert_allclose(proj, (np.eye(2) - fock.SIGMA1) / 2, atol=1e-12)
        proj = tg.spin_projector(np.pi / 4, 0.0, fock.SPIN_UP)
        np.testing.assert_allclose(proj, (np.eye(2) - fock.SIGMA2) / 2, atol=1e-12)
        proj = tg.spin_projector(0.0, 0.0, fock.SPIN_UP)
        np.testing.assert_allclose(proj, np.outer(up, up), atol=1e-15)


class TestErrorPropagation:
    def test_zero_variance_zero_sigma(self, hybrid07):
        base = settings_full()
        est = tg.reconstruct_full(exact_datas(hybrid07, base), base)
        for block in (est.uu, est.dd, est.ud):
            assert np.all(block.sigma_re == 0.0)
            assert np.all(block.sigma_im == 0.0)

    def test_event_scaling(self, hybrid07):
        base = settings_full()
        datas = noisy_datas(hybrid07, base)
        halved = [replace(d, variance=d.variance / 2.0) for d in datas]
        est1 = tg.reconstruct_full(datas, base)
        est2 = tg.reconstruct_full(halved, base)
        for name in ("uu", "dd", "ud"):
            for part in ("sigma_re", "sigma_im"):
                s1, s2 = getattr(getattr(est1, name), part), getattr(getattr(est2, name), part)
                assert np.array_equal(s1 > 0, s2 > 0)
                np.testing.assert_allclose(s1[s2 > 0] / s2[s2 > 0], np.sqrt(2.0), rtol=1e-12)

    def test_zero_order_estimates_are_real(self, hybrid07):
        base = settings_full()
        est = tg.reconstruct_full(noisy_datas(hybrid07, base), base)
        for block in (est.uu, est.dd):
            assert np.max(np.abs(np.diag(block.values).imag)) < 1e-14
            assert np.all(np.diag(block.sigma_im) == 0.0)
            assert np.all(np.diag(block.sigma_re) > 0.0)


class TestErrorReport:
    def test_truth_smaller_than_the_estimate(self, hybrid07):
        base = settings_full()
        est = tg.reconstruct_full(noisy_datas(hybrid07, base), base)
        small = states.build_hybrid_mixture(0.7, 14)
        padded = states.HybridState(**{
            name: np.pad(getattr(small, name), [(0, 18), (0, 18)])
            for name in ("uu", "ud", "dd")
        })
        assert tg.error_report(est, small) == tg.error_report(est, padded)

    def test_containment_counts_only_what_lies_within_3_sigma(self, hybrid07):
        # parts at known z = error / sigma, sigma = 1/4; a part with sigma 0 is not counted
        settings = tg.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=0.6, n_phases=4, n_max=1, n_cutoff=1, eta=1.0,
        )
        ones, sigma = np.ones((2, 2)), 0.25
        # uu (Hermitian): re (0,0), (1,0), (1,1) at z 0, 2.9, 3.1; im (1,0) at z 30
        uu = np.array([[0.0, 2.9 - 30j], [2.9 + 30j, 3.1]])
        # dd: only re (0,0) has sigma > 0, at z 0; re (1,1) misses with sigma 0
        dd, dd_sigma = np.array([[0.0, 0.0], [0.0, 2.0]]), np.array([[sigma, 0.0], [0.0, 0.0]])
        # ud (general): z -2.9, -3.1, 0 and 30, 2.9; three parts with sigma 0
        ud = np.array([[-2.9 + 30j, -3.1], [0.0 + 4j, 20.0 + 2.9j]])
        ud_re, ud_im = sigma * np.array([[1, 1], [1, 0]]), sigma * np.array([[1, 0], [0, 1]])

        def block(name, z, sigma_re, sigma_im):
            truth = getattr(hybrid07, name)[:2, :2]
            return tg.BlockEstimate(truth + sigma * z, sigma_re, sigma_im)

        estimate = tg.HybridEstimate(
            uu=block("uu", uu, sigma * ones, sigma * ones), dd=block("dd", dd, dd_sigma, 0 * ones),
            ud=block("ud", ud, ud_re, ud_im), settings=settings, orders=(),
        )
        report = tg.error_report(estimate, hybrid07)
        assert [(report[n]["within_3sigma"], report[n]["parts"]) for n in ("uu", "dd", "ud")] == [
            (0.5, 4), (1.0, 1), (0.6, 5),
        ]
        assert report["pooled_within_3sigma"] == 0.6
        for name, z in (("uu", uu), ("dd", dd), ("ud", ud)):
            want = sigma * np.abs(z).max()
            assert report[name]["max_abs_error"] == pytest.approx(want, rel=1e-12)


def ref_scalar_parts(estimate, truth, hermitian):
    """Reference: the entry-by-entry loop over the independent parts."""
    err = estimate.values - np.asarray(truth, dtype=complex)
    n = err.shape[0]
    pairs = []
    for i in range(n):
        for j in range(i + 1 if hermitian else n):
            pairs.append((err[i, j].real, estimate.sigma_re[i, j]))
            if not hermitian or i != j:
                pairs.append((err[i, j].imag, estimate.sigma_im[i, j]))
    return pairs


class TestScalarParts:
    @pytest.mark.parametrize("hermitian", [True, False])
    def test_matches_entry_loop(self, hermitian):
        rng = np.random.default_rng(41)
        n = 7
        values = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if hermitian:
            values = values + values.conj().T
        est = tg.BlockEstimate(
            values=values, sigma_re=rng.uniform(size=(n, n)),
            sigma_im=rng.uniform(size=(n, n)),
        )
        truth = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        parts = tg.scalar_parts(est, truth, hermitian)
        assert parts.shape == ((1 if hermitian else 2) * n * n, 2)
        expected = sorted(ref_scalar_parts(est, truth, hermitian))
        assert sorted(map(tuple, parts.tolist())) == expected


class TestSerialization:
    def test_json_round_trip(self, tmp_path, hybrid07):
        base = settings_full(eta=0.9)
        est = tg.reconstruct_full(noisy_datas(hybrid07, base), base)
        path = tmp_path / "est.json"
        tg.write_estimate_json(path, est, extra={"config_hash": "deadbeef"})
        loaded, payload = tg.load_estimate_json(path)
        assert payload["config_hash"] == "deadbeef"
        for name in ("uu", "dd", "ud"):
            for part in ("values", "sigma_re", "sigma_im"):
                np.testing.assert_array_equal(
                    getattr(getattr(loaded, name), part), getattr(getattr(est, name), part)
                )
        assert loaded.orders == est.orders
        assert loaded.settings == est.settings
        again = tmp_path / "again.json"
        tg.write_estimate_json(again, loaded, extra={"config_hash": "deadbeef"})
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "block, part, edit, message",
        [
            ("uu", "values", lambda v: [row[:3] for row in v[:3]], "block 'uu'"),
            ("dd", "sigma_re", lambda v: [[0.0]], "block 'dd'"),
            ("ud", "sigma_im", lambda v: v[:-1], "block 'ud'"),
            ("uu", "values", lambda v: [[[*pair, 0.0] for pair in row] for row in v],
             "malformed field 'blocks.uu.values'"),
        ],
        ids=["values-3x3", "sigma-1x1", "missing-row", "triple-parts"],
    )
    def test_wrong_block_shape_rejected(self, tmp_path, block, part, edit, message):
        base = settings_16(eta=0.9)
        est = tg.reconstruct_full(exact_datas(states.build_hybrid_mixture(0.7, 16), base), base)
        path = tmp_path / "est.json"
        tg.write_estimate_json(path, est, {})
        payload = json.loads(path.read_text())
        target = payload["blocks"][block]
        target[part] = edit(target[part])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            tg.load_estimate_json(path)


class TestForwardTableCache:
    def test_second_acquisition_reuses_the_tables(self, kernel_calls):
        state, settings = states.build_hybrid_mixture(0.7, 16), settings_16(eta=0.9)
        first = montecarlo.simulate_acquisition(state, settings, 500, seed=4, setting_index=0)
        kernel_calls.clear()
        second = montecarlo.simulate_acquisition(state, settings, 500, seed=4, setting_index=0)
        assert kernel_calls == []
        assert [r.to_json() for r in second] == [r.to_json() for r in first]

    def test_equal_state_built_anew_computes_again(self, kernel_calls):
        state, settings = states.build_hybrid_mixture(0.7, 16), settings_16(eta=0.9)
        window, overflow = tg.smeared_marginal_tables(state, settings)
        twin = states.HybridState(uu=state.uu, ud=state.ud, dd=state.dd)
        kernel_calls.clear()
        twin_window, twin_overflow = tg.smeared_marginal_tables(twin, settings)
        assert len(kernel_calls) == 1 and twin_window is not window
        np.testing.assert_array_equal(twin_window, window)
        np.testing.assert_array_equal(twin_overflow, overflow)

    def test_tables_and_state_blocks_are_read_only(self):
        truth = states.build_hybrid_mixture(0.7, 16)
        uu = np.array(truth.uu)
        state = states.HybridState(uu=uu, ud=truth.ud, dd=truth.dd)
        settings = settings_16(eta=0.9)
        window, overflow = tg.smeared_marginal_tables(state, settings)
        for array in (window, overflow, state.uu, state.ud, state.du, state.dd):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        # a write into the caller's array does not reach the state's copy
        uu[0, 0] = 0.5
        assert state.uu[0, 0] == truth.uu[0, 0]
        np.testing.assert_array_equal(
            tg.smeared_marginal_tables(truth, settings)[0], window
        )

    def test_cache_holds_one_design(self):
        # the memo is the one forward pass of a design, which serves its
        # three setting groups
        state = states.build_hybrid_mixture(0.7, 16)
        for beta_abs in np.linspace(0.3, 1.2, 10):
            for angles in tg.standard_setting_angles():
                settings = replace(settings_16(), beta_abs=float(beta_abs))
                tg.smeared_marginal_tables(state, settings.with_angles(*angles))
        info = tg._design_tables.cache_info()
        assert info.maxsize == info.currsize == 1

    def test_cutoff_alone_reuses_the_pass(self, hybrid07):
        # the pass reads |beta|, n_phases, n_max and eta, not n_cutoff
        tg._design_tables.cache_clear()
        for n_cutoff in (31, 4, 31):
            tg.smeared_marginal_tables(hybrid07, replace(settings_full(), n_cutoff=n_cutoff))
        info = tg._design_tables.cache_info()
        assert (info.hits, info.misses) == (2, 1)

    def test_inversion_cache_is_bounded(self):
        for beta_abs in np.linspace(0.3, 1.2, 10):
            tg.inversion_systems(replace(settings_16(), beta_abs=float(beta_abs)))
        info = tg.inversion_systems.cache_info()
        assert info.maxsize == 4
        assert info.currsize <= info.maxsize

    def test_cached_inversion_cannot_be_changed_through_its_outputs(self):
        settings = settings_16(eta=0.9)
        m, diagnostics = tg.inversion_systems(settings)
        for array in (m, diagnostics):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        datas = exact_datas(states.build_hybrid_mixture(0.7, 16), settings)
        first = tg.reconstruct_full(datas, settings)
        want = tuple(dict(order) for order in first.orders)
        first.orders[0]["cond"] = -1.0
        first.orders[3]["dropped"] = 99
        assert tg.reconstruct_full(datas, settings).orders == want


def count_searches(monkeypatch):
    searches = []
    search = fock.displaced_support

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(tg, "displaced_support", counted)
    return searches


class TestStackedForwardTables:
    """One pass per design, against the per-order forward loop."""

    def test_one_search_serves_the_three_groups(self, monkeypatch, kernel_calls):
        state, base = states.build_hybrid_mixture(0.7, 16), settings_16(eta=0.9)
        searches = count_searches(monkeypatch)
        groups = [base.with_angles(*angles) for angles in tg.standard_setting_angles()]
        first = tg.smeared_marginal_tables(state, groups[0])
        assert len(searches) == 1
        kernel_calls.clear()
        rest = [tg.smeared_marginal_tables(state, settings) for settings in groups[1:]]
        assert kernel_calls == [] and len(searches) == 1
        # a fresh state with equal blocks computes again
        twin = states.HybridState(uu=state.uu, ud=state.ud, dd=state.dd)
        again = [tg.smeared_marginal_tables(twin, settings) for settings in groups]
        assert len(searches) == 2 and len(kernel_calls) == 1
        for got, want in zip(again, [first, *rest]):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("eta", [0.9, 1.0])
    @pytest.mark.parametrize(
        "angles", [*tg.standard_setting_angles(), (0.4, -1.1)],
        ids=["diagonal", "real-part", "imag-part", "off-grid"],
    )
    def test_tables_match_per_order_reference(self, hybrid07, eta, angles):
        settings = settings_full(eta).with_angles(*angles)
        f = fock.displaced_support(hybrid07.dim - 1, settings.beta_abs)
        wide = ref_ideal_marginal_tables(hybrid07, settings, f)
        window, overflow = tg.detected_window(
            wide, tg.binomial_matrix(eta, settings.n_max + 1, f.shape[1])
        )
        got_window, got_overflow = tg.smeared_marginal_tables(hybrid07, settings)
        assert np.array_equal(got_window, window)
        assert np.array_equal(got_overflow, overflow)
        got = tg.ideal_marginal_tables(hybrid07, settings, f, (angles,))[0]
        assert np.array_equal(got, wide)


# ----------------------------------------------------------------------
# the former per-block reconstruction path, kept as the reference
# ----------------------------------------------------------------------

def ref_fourier_coefficients(w_of_phase, order):
    w = np.asarray(w_of_phase)
    n = w.shape[-1]
    phases = 2.0 * np.pi * np.arange(n) / n
    return w @ np.exp(1j * order * phases) / n


def ref_second_moments(m, phases, order, variance):
    nphi = len(phases)
    c = np.cos(order * phases)
    s = np.sin(order * phases)
    m2 = m * m
    var_re = m2 @ ((c * c) @ variance) / nphi**2
    var_im = m2 @ ((s * s) @ variance) / nphi**2
    cov = m2 @ ((c * s) @ variance) / nphi**2
    return var_re, var_im, cov


def ref_reconstruct_hermitian(w, variance, settings, systems):
    """One table: (values, var_re, var_im, cov, orders)."""
    phases = settings.phases
    cdim = settings.n_cutoff + 1
    values = np.zeros((cdim, cdim), dtype=complex)
    var_re = np.zeros((cdim, cdim))
    var_im = np.zeros((cdim, cdim))
    cov = np.zeros((cdim, cdim))
    diagnostics = []
    for sys_r in systems:
        r = sys_r.r
        est = sys_r.m @ ref_fourier_coefficients(w.T, r)
        vr, vi, cv = ref_second_moments(sys_r.m, phases, r, variance)
        idx = np.arange(cdim - r)
        values[idx + r, idx] = est
        var_re[idx + r, idx] = vr
        var_im[idx + r, idx] = vi
        cov[idx + r, idx] = cv
        if r > 0:
            values[idx, idx + r] = est.conj()
            var_re[idx, idx + r] = vr
            var_im[idx, idx + r] = vi
            cov[idx, idx + r] = -cv
        diagnostics.append(
            {"r": r, "sigma_max": sys_r.sigma_max, "cond": sys_r.cond, "dropped": sys_r.dropped}
        )
    return values, np.sqrt(var_re), np.sqrt(var_im), cov, tuple(diagnostics)


class TestStackedReconstruction:
    """The batched products of reconstruct_hermitian against the per-order
    loop of the reference."""

    @pytest.mark.parametrize("eta", [0.9, 1.0])
    def test_matches_per_order_reference(self, eta):
        settings = settings_16(eta=eta)
        rng = np.random.default_rng(17)
        shape = (4, settings.n_phases, settings.n_max + 1)
        w = rng.dirichlet(np.ones(shape[-1]), size=shape[:2])
        variance = rng.uniform(1e-6, 1e-4, size=shape)
        values, moments, orders = tg.reconstruct_hermitian(
            w, variance, settings, tg.inversion_systems(settings)
        )
        systems = unpack_systems(tg.inversion_systems(settings))
        upper = np.triu_indices(settings.n_cutoff + 1, 1)
        for q in range(len(w)):
            ref_values, sre, sim, cov, ref_orders = ref_reconstruct_hermitian(
                w[q], variance[q], settings, systems
            )
            for got, want in ((values[q], ref_values), (moments[0, q], sre**2),
                              (moments[1, q], sim**2), (moments[2, q], cov)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.array_equal(np.sign(moments[2, q][upper]), np.sign(cov[upper]))
            assert orders == ref_orders


def ref_combine_mean(a, b):
    values, sre_a, sim_a, cov_a, orders = a
    _, sre_b, sim_b, cov_b, _ = b
    return (
        0.5 * (values + b[0]),
        0.5 * np.sqrt(sre_a**2 + sre_b**2),
        0.5 * np.sqrt(sim_a**2 + sim_b**2),
        0.25 * (cov_a + cov_b),
        orders,
    )


def ref_reconstruct_full(datas, settings, systems):
    """{block: (values, sigma_re, sigma_im, orders)} through four per-table
    inversions with the per-order ``systems`` and the per-block off-diagonal
    algebra."""
    by_angles = {(d.theta, d.phi_spin): d for d in datas}
    diag, real, imag = (by_angles[a] for a in tg.standard_setting_angles())

    def invert(data, row):
        return ref_reconstruct_hermitian(data.w[row], data.variance[row], settings, systems)

    uu, dd = invert(diag, fock.SPIN_UP), invert(diag, fock.SPIN_DOWN)
    q1, q2 = invert(real, fock.SPIN_UP), invert(imag, fock.SPIN_UP)
    mean, m_sre, m_sim, m_cov, _ = ref_combine_mean(uu, dd)
    values = (mean - q1[0]) + 1j * (q2[0] - mean)
    var_re = m_sre**2 + m_sim**2 + 2.0 * m_cov + q1[1] ** 2 + q2[2] ** 2
    var_im = m_sre**2 + m_sim**2 - 2.0 * m_cov + q1[2] ** 2 + q2[1] ** 2
    ud = (values, np.sqrt(np.clip(var_re, 0.0, None)), np.sqrt(np.clip(var_im, 0.0, None)),
          q1[4])
    return {"uu": uu[:3] + (uu[4],), "dd": dd[:3] + (dd[4],), "ud": ud}


def sampled_datas(backend, seed):
    config = cli.RunConfig(seed=seed, backend=backend)
    datas = []
    for i, angles in enumerate(tg.standard_setting_angles()):
        settings = config.settings(*angles)
        if backend == "trap":
            records = trapsim.simulate_trap_acquisition(
                config.alpha, settings, config.events_per_phase, seed,
                dim=config.cutoff, setting_index=i,
            )
        else:
            records = montecarlo.simulate_acquisition(
                config.truth_state(), settings, config.events_per_phase, seed, setting_index=i,
            )
        datas.append(montecarlo.estimate_marginals(records))
    return config.settings(), datas


class TestPerBlockReference:
    """One stacked inversion reproduces the per-block path on sampled data."""

    @pytest.mark.parametrize("backend", ["density", "trap"])
    @pytest.mark.parametrize("seed", [20260801, 20260802])
    def test_sampled_default_config(self, backend, seed):
        settings, datas = sampled_datas(backend, seed)
        est = tg.reconstruct_full(datas, settings)
        ref = ref_reconstruct_full(datas, settings, unpack_systems(tg.inversion_systems(settings)))
        for name, (values, sigma_re, sigma_im, orders) in ref.items():
            block = getattr(est, name)
            for got, want in ((block.values, values), (block.sigma_re, sigma_re),
                              (block.sigma_im, sigma_im)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert est.orders == orders
