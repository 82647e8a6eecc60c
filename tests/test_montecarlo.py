import hashlib

import hypothesis
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import chi2

from wernerlike import fock, montecarlo as mc, states
from wernerlike import tomography as tg


def small_settings(theta=0.0, phi_spin=0.0, eta=0.9):
    return tg.TomographySettings(
        theta=theta, phi_spin=phi_spin, beta_abs=0.6,
        n_phases=24, n_max=11, n_cutoff=11, eta=eta,
    )


@pytest.fixture(scope="module")
def state16():
    return states.build_hybrid_mixture(0.7, 16)


class TestSimulateAcquisition:
    def test_totals(self, state16):
        records = mc.simulate_acquisition(state16, small_settings(), 700, seed=5)
        assert len(records) == 24
        for rec in records:
            total = rec.counts_up.sum() + rec.counts_down.sum()
            total += rec.overflow_up + rec.overflow_down
            assert total == 700

    def test_determinism(self, state16, tmp_path):
        a = mc.simulate_acquisition(state16, small_settings(), 500, seed=9)
        b = mc.simulate_acquisition(state16, small_settings(), 500, seed=9)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.counts_up, rb.counts_up)
            np.testing.assert_array_equal(ra.counts_down, rb.counts_down)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        mc.write_records(pa, a)
        mc.write_records(pb, b)
        assert hashlib.sha256(pa.read_bytes()).digest() == hashlib.sha256(pb.read_bytes()).digest()

    def test_phase_order_independence(self, state16):
        # per-phase derived seeds: each phase's draw does not depend on the
        # order the phases are generated in
        settings = small_settings()
        full = mc.simulate_acquisition(state16, settings, 300, seed=4)
        rng = mc.phase_generator(4, 0, 13)
        window, overflow = tg.smeared_marginal_tables(state16, settings)
        counts, over = mc.sample_phase_counts(rng, 300, window[:, 13, :], overflow[:, 13])
        np.testing.assert_array_equal(full[13].counts_up, counts[fock.SPIN_UP])
        np.testing.assert_array_equal(full[13].counts_down, counts[fock.SPIN_DOWN])

    def test_multinomial_calibration(self, state16):
        # Pearson statistic over well-populated cells, low-expectation cells
        # lumped per phase; fixed seed keeps this a regression-style check
        settings = small_settings()
        events = 2000
        records = mc.simulate_acquisition(state16, settings, events, seed=21)
        window, overflow = tg.smeared_marginal_tables(state16, settings)
        stat = 0.0
        dof = 0
        for rec in records:
            exp_cells = np.concatenate([
                window[fock.SPIN_UP, rec.phase_index],
                window[fock.SPIN_DOWN, rec.phase_index],
                overflow[:, rec.phase_index],
            ]) * events
            obs_cells = np.concatenate([
                rec.counts_up, rec.counts_down,
                [rec.overflow_up, rec.overflow_down],
            ])
            big = exp_cells >= 5.0
            obs = np.append(obs_cells[big], obs_cells[~big].sum())
            exp = np.append(exp_cells[big], exp_cells[~big].sum())
            stat += float(((obs - exp) ** 2 / exp).sum())
            dof += len(obs) - 1
        lo, hi = chi2.ppf([0.005, 0.995], dof)
        assert lo < stat < hi


class TestSampleRecords:
    def test_component_runs_follow_the_weight_draw(self):
        # each component puts all its mass in its own cell, so a record's
        # counts show how many events each component received
        settings = small_settings()
        k, win = 3, settings.n_max + 1
        window = np.zeros((k, 2, settings.n_phases, win))
        overflow = np.zeros((k, 2, settings.n_phases))
        window[0, fock.SPIN_UP, :, 0] = 1.0
        window[1, fock.SPIN_DOWN, :, 4] = 1.0
        overflow[2, fock.SPIN_UP] = 1.0
        weights = (0.2, 0.3, 0.5)
        records = mc.sample_records(settings, 900, 6, 2, weights, window, overflow)
        assert [rec.phase_index for rec in records] == list(range(settings.n_phases))
        for j, rec in enumerate(records):
            runs = mc.phase_generator(6, 2, j).multinomial(900, weights)
            assert (rec.counts_up[0], rec.counts_down[4], rec.overflow_up) == tuple(runs)
            assert rec.counts_up.sum() + rec.counts_down.sum() + rec.overflow_up == 900
            assert rec.overflow_down == 0


class TestRecords:
    def test_jsonl_round_trip(self, state16, tmp_path):
        records = mc.simulate_acquisition(state16, small_settings(), 400, seed=2)
        path = tmp_path / "records.jsonl"
        mc.write_records(path, records)
        back = mc.read_records(path)
        assert len(back) == len(records)
        for ra, rb in zip(records, back):
            assert ra.theta == rb.theta
            assert ra.phase_index == rb.phase_index
            assert ra.seed == rb.seed
            np.testing.assert_array_equal(ra.counts_up, rb.counts_up)
            np.testing.assert_array_equal(ra.counts_down, rb.counts_down)

    def test_wire_schema(self, state16):
        import json

        rec = mc.simulate_acquisition(state16, small_settings(), 100, seed=1)[0]
        obj = json.loads(rec.to_json())
        assert set(obj) == {
            "setting", "phase_index", "n_phases", "total_events", "seed",
            "counts_up", "counts_down", "overflow_up", "overflow_down",
        }
        assert set(obj["setting"]) == {"theta", "phi_spin", "beta_abs"}
        assert len(obj["counts_up"]) == 12


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def records(draw):
    n_cells = draw(st.integers(0, 40))
    cells = st.lists(st.integers(0, 2**62), min_size=n_cells, max_size=n_cells)
    return mc.MeasurementRecord(
        theta=draw(finite), phi_spin=draw(finite), beta_abs=draw(finite),
        phase_index=draw(st.integers(0, 10**6)), n_phases=draw(st.integers(1, 10**6)),
        total_events=draw(st.integers(0, 2**62)), seed=draw(st.integers(0, 2**64 - 1)),
        counts_up=np.array(draw(cells), dtype=np.int64),
        counts_down=np.array(draw(cells), dtype=np.int64),
        overflow_up=draw(st.integers(0, 2**62)), overflow_down=draw(st.integers(0, 2**62)),
    )


@st.composite
def record_groups(draw):
    """A consistent group: every phase's counts plus overflow sum to total_events."""
    n_phases = draw(st.integers(1, 6))
    win = draw(st.integers(1, 5))
    total = draw(st.integers(1, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    group = []
    for j in range(n_phases):
        draw_j = rng.multinomial(total, np.full(2 * win + 2, 1.0 / (2 * win + 2)))
        group.append(mc.MeasurementRecord(
            theta=0.0, phi_spin=0.0, beta_abs=0.6, phase_index=j, n_phases=n_phases,
            total_events=total, seed=11,
            counts_up=draw_j[:win], counts_down=draw_j[win : 2 * win],
            overflow_up=int(draw_j[-2]), overflow_down=int(draw_j[-1]),
        ))
    return group


class TestRecordProperties:
    @given(records())
    def test_json_round_trip(self, rec):
        back = mc.MeasurementRecord.from_json(rec.to_json())
        for name in ("theta", "phi_spin", "beta_abs", "phase_index", "n_phases",
                     "total_events", "seed", "overflow_up", "overflow_down"):
            assert getattr(back, name) == getattr(rec, name)
        for name in ("counts_up", "counts_down"):
            assert getattr(back, name).dtype == np.int64
            np.testing.assert_array_equal(getattr(back, name), getattr(rec, name))
        assert back.to_json() == rec.to_json()

    @hypothesis.settings(max_examples=200)
    @given(record_groups(), st.data())
    def test_count_tampering_rejected(self, group, data):
        untouched = mc.estimate_marginals(group)
        assert untouched.w.shape == (2, group[0].n_phases, len(group[0].counts_up))
        j = data.draw(st.integers(0, len(group) - 1))
        rec = group[j]
        field = data.draw(st.sampled_from(
            ("counts_up", "counts_down", "overflow_up", "overflow_down")))
        delta = data.draw(st.integers(-50, 50).filter(bool))
        if field.startswith("counts"):
            cell = data.draw(st.integers(0, len(rec.counts_up) - 1))
            getattr(rec, field)[cell] += delta
        else:
            setattr(rec, field, getattr(rec, field) + delta)
        with pytest.raises(ValueError, match=f"phase {j}: (negative counts|counts plus overflow)"):
            mc.estimate_marginals(group)


class TestEstimateMarginals:
    def test_frequency_arithmetic(self):
        rec = mc.MeasurementRecord(
            theta=0.0, phi_spin=0.0, beta_abs=0.6, phase_index=0, n_phases=1,
            total_events=10**4, seed=0,
            counts_up=np.array([9000, 1000]), counts_down=np.array([0, 0]),
        )
        data = mc.estimate_marginals([rec])
        assert data.w[fock.SPIN_UP, 0, 0] == 0.9
        assert data.variance[fock.SPIN_UP, 0, 0] == pytest.approx(9e-5)
        # zero-count cells get zero variance under the Poissonian estimate
        assert data.variance[fock.SPIN_DOWN, 0, 0] == 0.0

    def test_incomplete_phase_coverage(self, state16):
        records = mc.simulate_acquisition(state16, small_settings(), 100, seed=3)
        with pytest.raises(ValueError, match="phase"):
            mc.estimate_marginals(records[:-1])

    def test_mixed_settings_rejected(self, state16):
        a = mc.simulate_acquisition(state16, small_settings(), 100, seed=3)
        b = mc.simulate_acquisition(state16, small_settings(theta=np.pi / 4), 100, seed=3)
        with pytest.raises(ValueError, match="settings"):
            mc.estimate_marginals([b[0]] + a[1:])

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda rec: rec.counts_up.__setitem__(0, -5), "phase 7: negative counts"),
            (lambda rec: setattr(rec, "counts_down", rec.counts_down[:-1]),
             "phase 7: 12 up and 11"),
            (lambda rec: rec.counts_up.__setitem__(0, rec.counts_up[0] + 25),
             "phase 7: counts plus overflow sum to 125, not total_events = 100"),
            (lambda rec: rec.counts_down.__setitem__(0, rec.counts_down[0] - 1),
             "phase 7: counts plus overflow sum to 99"),
            (lambda rec: setattr(rec, "seed", 4),
             "phase 7: records mix different settings or seeds"),
        ],
        ids=["negative", "unequal-length", "excess-events", "missing-event", "mixed-seed"],
    )
    def test_tampered_record_rejected(self, state16, tamper, message):
        records = mc.simulate_acquisition(state16, small_settings(), 100, seed=3)
        tamper(records[7])
        with pytest.raises(ValueError, match=message):
            mc.estimate_marginals(records)

    def test_unbiasedness_over_seeds(self, state16):
        settings = small_settings()
        events = 400
        window, _ = tg.smeared_marginal_tables(state16, settings)
        n_seeds = 100
        acc = np.zeros_like(window)
        for seed in range(n_seeds):
            data = mc.estimate_marginals(
                mc.simulate_acquisition(state16, settings, events, seed=seed)
            )
            acc += data.w
        mean = acc / n_seeds
        pooled_se = np.sqrt(np.clip(window * (1 - window), 1e-12, None) / (events * n_seeds))
        assert np.all(np.abs(mean - window) <= 5 * pooled_se + 1e-12)


class TestEstimatorConsistency:
    def test_error_decreases_with_statistics(self, state16):
        base = tg.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=0.6,
            n_phases=36, n_max=15, n_cutoff=15, eta=0.9,
        )
        medians = []
        for events in (10**3, 10**4, 10**5):
            datas = []
            for i, angles in enumerate(tg.standard_setting_angles()):
                settings = base.with_angles(*angles)
                recs = mc.simulate_acquisition(state16, settings, events, seed=60, setting_index=i)
                datas.append(mc.estimate_marginals(recs))
            est = tg.reconstruct_full(datas, base)
            errs = []
            for name, truth in (("uu", state16.uu), ("dd", state16.dd), ("ud", state16.ud)):
                errs.extend(np.abs(getattr(est, name).values - truth).ravel())
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[1] > medians[2]


class TestTraceRecovery:
    def test_block_traces_within_three_sigma(self):
        # full-size single-seed run; the trace estimator's standard deviation
        # follows from the zero-order inversion coefficients and the
        # per-cell variances
        state = states.build_hybrid_mixture(0.7, 32)
        base = tg.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=0.6,
            n_phases=96, n_max=31, n_cutoff=31, eta=0.9,
        )
        datas = []
        for i, angles in enumerate(tg.standard_setting_angles()):
            settings = base.with_angles(*angles)
            recs = mc.simulate_acquisition(state, settings, 10_000, seed=88, setting_index=i)
            datas.append(mc.estimate_marginals(recs))
        est = tg.reconstruct_full(datas, base)

        colsum = tg.inversion_systems(base)[0].m.sum(axis=0)

        def trace_var(variance_row):
            var_what = variance_row.sum(axis=0) / base.n_phases**2
            return float(np.sum(colsum**2 * var_what))

        var_uu = trace_var(datas[0].variance[fock.SPIN_UP])
        var_dd = trace_var(datas[0].variance[fock.SPIN_DOWN])
        var_q1 = trace_var(datas[1].variance[fock.SPIN_UP])
        tr_uu = np.trace(est.uu.values).real
        assert abs(tr_uu - 0.5) <= 3 * np.sqrt(var_uu)
        # Re tr(ud) = tr(S) - tr(Q1) with S the diagonal-block mean
        sigma_ud = np.sqrt((var_uu + var_dd) / 4 + var_q1)
        kappa = states.kappa_from_alpha(0.7)
        tr_ud = np.trace(est.ud.values).real
        assert abs(tr_ud + kappa / 4) <= 3 * sigma_ud
        assert abs(-kappa / 4 + 0.093828) < 1e-6

    def test_imaginary_part_vanishes_for_real_state(self):
        # the mixture has real amplitudes, so Im(ud) is pure noise
        state = states.build_hybrid_mixture(0.7, 16)
        base = tg.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=0.6,
            n_phases=36, n_max=15, n_cutoff=15, eta=0.9,
        )
        datas = []
        for i, angles in enumerate(tg.standard_setting_angles()):
            settings = base.with_angles(*angles)
            recs = mc.simulate_acquisition(state, settings, 5_000, seed=71, setting_index=i)
            datas.append(mc.estimate_marginals(recs))
        est = tg.reconstruct_full(datas, base)
        mask = est.ud.sigma_im > 0
        within = np.abs(est.ud.values.imag[mask]) <= 3 * est.ud.sigma_im[mask]
        assert within.mean() >= 0.9


class TestCoverageSmoke:
    def test_three_sigma_containment(self, state16):
        base = tg.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=0.6,
            n_phases=36, n_max=15, n_cutoff=15, eta=0.9,
        )
        hits = total = 0
        for seed in range(10):
            datas = []
            for i, angles in enumerate(tg.standard_setting_angles()):
                settings = base.with_angles(*angles)
                recs = mc.simulate_acquisition(state16, settings, 2000, seed=300 + seed,
                                               setting_index=i)
                datas.append(mc.estimate_marginals(recs))
            est = tg.reconstruct_full(datas, base)
            report = tg.error_report(est, state16)
            hits += report["pooled_within_3sigma"]
            total += 1
        assert hits / total >= 0.9
