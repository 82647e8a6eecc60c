import numpy as np
import pytest

from wernerlike import fock, montecarlo as mc, states, trapsim as ts
from wernerlike import tomography as tg
from wernerlike.fock import SPIN_DOWN, SPIN_UP


def spin_up_vacuum(dim):
    """(2, dim) amplitudes of |up>|0>."""
    amp = np.zeros((2, dim), dtype=complex)
    amp[SPIN_UP, 0] = 1.0
    return amp


class TestPulses:
    def test_displacement_makes_coherent_state(self):
        for s in (SPIN_DOWN, SPIN_UP):
            amp = np.zeros((2, 24), dtype=complex)
            amp[s, 0] = 1.0
            out = ts.apply_pulse(amp, ts.Displacement(0.6 - 0.2j))
            np.testing.assert_allclose(out[s], fock.coherent_state(0.6 - 0.2j, 24), atol=1e-10)
            np.testing.assert_allclose(out[1 - s], 0.0, atol=1e-14)

    def test_conditional_displacement_splits_on_sigma1(self, kernel_calls):
        out = ts.apply_pulse(spin_up_vacuum(32), ts.ConditionalDisplacement(0.7))
        # one scalar displacement_matrix call each for D(+alpha) and D(-alpha)
        assert kernel_calls == [(32, 32), (32, 32)]
        plus = fock.coherent_state(0.7, 32)
        minus = fock.coherent_state(-0.7, 32)
        # (|+>|a> + |->|-a>)/sqrt(2) with |+-> = (|up> +- |down>)/sqrt(2)
        np.testing.assert_allclose(out[SPIN_UP], (plus + minus) / 2, atol=1e-12)
        np.testing.assert_allclose(out[SPIN_DOWN], (plus - minus) / 2, atol=1e-12)

    def test_norm_preserved_under_random_sequences(self):
        rng = np.random.default_rng(17)
        state = spin_up_vacuum(48)
        for _ in range(10):
            kind = rng.integers(3)
            if kind == 0:
                pulse = ts.SpinRotation(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
            elif kind == 1:
                pulse = ts.Displacement(rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5))
            else:
                pulse = ts.ConditionalDisplacement(rng.uniform(0.0, 0.5))
            state = ts.apply_pulse(state, pulse)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-8

    def test_truncation_refused(self):
        # the pulse obeys coherent_state's rule: one tolerance, one error
        with pytest.raises(fock.TruncationError, match=r"cutoff 6 .* lost 3\.63e-01 of the norm"):
            ts.apply_pulse(spin_up_vacuum(6), ts.Displacement(2.5))
        with pytest.raises(fock.TruncationError):
            fock.coherent_state(2.5, 6)

    def test_unknown_pulse_rejected(self):
        with pytest.raises(TypeError):
            ts.apply_pulse(spin_up_vacuum(4), "bad")


def pseudo_singlet_target(alpha, dim):
    """Reference: (|down>|a> - |up>|-a>)/sqrt(2) from coherent states."""
    amp = np.zeros((2, dim), dtype=complex)
    amp[SPIN_DOWN] = fock.coherent_state(alpha, dim) / np.sqrt(2.0)
    amp[SPIN_UP] = -fock.coherent_state(-alpha, dim) / np.sqrt(2.0)
    return amp


class TestPseudoSinglet:
    @pytest.mark.parametrize("alpha", [0.0, 0.4, 0.7, 1.1])
    def test_exact_overlap(self, alpha):
        got = ts.component_state("singlet", alpha, 32)
        overlap = np.vdot(pseudo_singlet_target(alpha, 32), got)
        assert abs(abs(overlap) - 1.0) < 1e-8

    def test_alpha_zero_is_product(self):
        amp = ts.component_state("singlet", 0.0, 8)
        # (|down> - |up>) (x) |0> up to a global phase
        assert np.max(np.abs(amp[:, 1:])) < 1e-12
        assert abs(abs(amp[SPIN_DOWN, 0]) - 1 / np.sqrt(2)) < 1e-12
        assert abs(amp[SPIN_DOWN, 0] + amp[SPIN_UP, 0]) < 1e-12

    def test_reduced_spin_purity(self):
        ps = ts.component_state("singlet", 0.7, 32)
        rho_spin = ps @ ps.conj().T
        purity = np.trace(rho_spin @ rho_spin).real
        kappa = states.kappa_from_alpha(0.7)
        assert abs(purity - (1 + kappa**2) / 2) < 1e-10
        assert abs(purity - 0.570429) < 1e-6


class TestMixtureSynthesis:
    def test_product_components_use_simple_pulses(self):
        for label in ts.COMPONENT_LABELS[:-1]:
            pulses = ts.component_pulses(label, 0.7)
            assert all(
                isinstance(p, (ts.SpinRotation, ts.Displacement)) for p in pulses
            )
        assert any(
            isinstance(p, ts.ConditionalDisplacement)
            for p in ts.component_pulses("singlet", 0.7)
        )

    def test_run_reports_matching_pulses(self):
        for label in ts.COMPONENT_LABELS:
            rebuilt = ts.apply_sequence(spin_up_vacuum(16), ts.component_pulses(label, 0.5))
            np.testing.assert_array_equal(rebuilt, ts.component_state(label, 0.5, 16))

    def test_component_states_are_read_only(self):
        for label in ts.COMPONENT_LABELS:
            amp = ts.component_state(label, 0.5, 16)
            with pytest.raises(ValueError, match="read-only"):
                amp[0, 0] = 0.0
            assert ts.component_state(label, 0.5, 16) is amp

    def test_ensemble_average_matches_density_operator(self):
        dim = 32
        for alpha in (0.0, 0.4, 0.7, 1.1):
            acc = np.zeros((2 * dim, 2 * dim), dtype=complex)
            for label, weight in zip(ts.COMPONENT_LABELS, ts.COMPONENT_WEIGHTS):
                amp = ts.component_state(label, alpha, dim)
                vec = np.concatenate([amp[SPIN_DOWN], amp[SPIN_UP]])
                acc += weight * np.outer(vec, vec.conj())
            truth = states.build_hybrid_mixture(alpha, dim).to_matrix()
            assert np.max(np.abs(acc - truth)) < 1e-13, alpha


class TestTrapAcquisition:
    def test_records_share_wire_format(self):
        settings = tg.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=0.6,
            n_phases=20, n_max=9, n_cutoff=9, eta=0.9,
        )
        recs = ts.simulate_trap_acquisition(0.7, settings, 300, seed=8, dim=16, setting_index=0)
        assert len(recs) == 20
        for rec in recs:
            total = rec.counts_up.sum() + rec.counts_down.sum()
            total += rec.overflow_up + rec.overflow_down
            assert total == 300
        # parses through the montecarlo estimator unchanged
        data = mc.estimate_marginals(recs)
        assert data.w.shape == (2, 20, 10)

    def test_setting_index_is_required(self):
        # a group left unnumbered would draw from group 0's streams
        settings = tg.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=0.6, n_phases=20, n_max=9, n_cutoff=9, eta=0.9)
        with pytest.raises(TypeError, match="setting_index"):
            ts.simulate_trap_acquisition(0.7, settings, 300, seed=8, dim=16)

    def test_determinism(self):
        settings = tg.TomographySettings(
            theta=np.pi / 4, phi_spin=0.0, beta_abs=0.6,
            n_phases=12, n_max=5, n_cutoff=5, eta=1.0,
        )
        a = ts.simulate_trap_acquisition(0.5, settings, 200, seed=3, dim=12, setting_index=0)
        b = ts.simulate_trap_acquisition(0.5, settings, 200, seed=3, dim=12, setting_index=0)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.counts_up, rb.counts_up)
            np.testing.assert_array_equal(ra.counts_down, rb.counts_down)

    def test_backends_agree_within_errors(self):
        base = tg.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=0.6,
            n_phases=36, n_max=15, n_cutoff=15, eta=0.9,
        )
        state = states.build_hybrid_mixture(0.7, 16)
        datas_a, datas_b = [], []
        for i, angles in enumerate(tg.standard_setting_angles()):
            settings = base.with_angles(*angles)
            datas_a.append(mc.estimate_marginals(
                mc.simulate_acquisition(state, settings, 3000, seed=11, setting_index=i)
            ))
            datas_b.append(mc.estimate_marginals(
                ts.simulate_trap_acquisition(0.7, settings, 3000, seed=12, dim=16,
                                             setting_index=i)
            ))
        est_a = tg.reconstruct_full(datas_a, base)
        est_b = tg.reconstruct_full(datas_b, base)
        hits = total = 0
        for name in ("uu", "dd", "ud"):
            a, b = getattr(est_a, name), getattr(est_b, name)
            diff = a.values - b.values
            sig_re = np.sqrt(a.sigma_re**2 + b.sigma_re**2)
            sig_im = np.sqrt(a.sigma_im**2 + b.sigma_im**2)
            m = sig_re > 0
            hits += int(np.sum(np.abs(diff.real)[m] <= 3 * sig_re[m]))
            total += int(m.sum())
            m = sig_im > 0
            hits += int(np.sum(np.abs(diff.imag)[m] <= 3 * sig_im[m]))
            total += int(m.sum())
        assert hits / total >= 0.98

    @pytest.mark.parametrize("angles", tg.standard_setting_angles())
    def test_sampler_tables_equal_per_phase_reference(self, angles, monkeypatch):
        # the per-component tables the sampler receives are those of the
        # per-phase route: D(-beta_j) blocks, the inverse rotation, |.|^2
        settings = tg.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=0.6,
            n_phases=96, n_max=31, n_cutoff=31, eta=0.9,
        ).with_angles(*angles)
        dim = 32
        captured = {}

        def capture(settings, events, seed, setting_index, weights, window, overflow):
            captured.update(window=window, overflow=overflow)
            return []

        monkeypatch.setattr(mc, "sample_records", capture)
        ts.simulate_trap_acquisition(0.7, settings, 100, seed=1, dim=dim, setting_index=0)
        amps = np.stack([ts.component_state(lbl, 0.7, dim) for lbl in ts.COMPONENT_LABELS])
        rows = fock.displaced_support(dim - 1, settings.beta_abs).shape[1]
        u_inv = fock.spin_rotation(-settings.theta, settings.phi_spin)
        moved = np.stack([
            u_inv @ (amps @ fock.displacement_matrix(-settings.beta_abs * np.exp(1j * phase),
                                                     rows, dim).T)
            for phase in settings.phases
        ])
        window, overflow = tg.detected_window(
            np.abs(moved.transpose(1, 2, 0, 3)) ** 2,
            tg.binomial_matrix(settings.eta, settings.n_max + 1, rows),
        )
        assert captured["window"].shape == window.shape == (5, 2, 96, 32)
        np.testing.assert_allclose(captured["window"], window, rtol=0, atol=2e-15)
        np.testing.assert_allclose(captured["overflow"], overflow, rtol=0, atol=2e-15)

    @pytest.mark.parametrize("angles", tg.standard_setting_angles())
    def test_mixture_tables_match_density_model(self, angles, monkeypatch):
        # the weight-summed per-component tables the sampler receives are the
        # smeared marginals of the mixture's density operator
        settings = tg.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=0.6,
            n_phases=36, n_max=15, n_cutoff=15, eta=0.9,
        ).with_angles(*angles)
        captured = {}

        def capture(settings, events, seed, setting_index, weights, window, overflow):
            captured.update(weights=weights, window=window, overflow=overflow)
            return []

        monkeypatch.setattr(mc, "sample_records", capture)
        ts.simulate_trap_acquisition(0.7, settings, 100, seed=1, dim=32, setting_index=0)
        assert captured["weights"] == ts.COMPONENT_WEIGHTS
        weights = np.asarray(captured["weights"])
        assert captured["window"].shape == (5, 2, 36, 16)
        window, overflow = tg.smeared_marginal_tables(
            states.build_hybrid_mixture(0.7, 32), settings
        )
        np.testing.assert_allclose(
            np.tensordot(weights, captured["window"], axes=1), window, rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(
            np.tensordot(weights, captured["overflow"], axes=1), overflow, rtol=0, atol=1e-13
        )
