import dataclasses
import hashlib
import json

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


def phase_generator(seed, setting_index, phase_index):
    """Reference: the generator of one phase, built by numpy's constructors;
    phases can be sampled in any order."""
    ss = np.random.SeedSequence(seed, spawn_key=(setting_index, phase_index))
    return np.random.Generator(np.random.PCG64(ss))


def sample_phase_counts(rng, events, window, overflow):
    """Reference: one multinomial draw over one phase's (spin, count) cells
    plus overflow bins, normalised per call."""
    win = window.shape[1]
    cells = np.concatenate([window[fock.SPIN_UP], window[fock.SPIN_DOWN], overflow])
    cells = np.clip(cells, 0.0, None)
    cells /= cells.sum()
    draw = rng.multinomial(events, cells)
    counts = np.zeros((2, win), dtype=np.int64)
    counts[fock.SPIN_UP] = draw[:win]
    counts[fock.SPIN_DOWN] = draw[win : 2 * win]
    return counts, np.array([draw[2 * win], draw[2 * win + 1]], dtype=np.int64)


def reference_sample_records(settings, events_per_phase, seed, setting_index, weights,
                             window, overflow):
    """Reference: the per-phase mixture sampler, one cell table per draw."""
    weights = np.asarray(weights, dtype=float)
    records = []
    for j in range(settings.n_phases):
        rng = phase_generator(seed, setting_index, j)
        counts = np.zeros((2, window.shape[-1]), dtype=np.int64)
        over = np.zeros(2, dtype=np.int64)
        for c, runs in enumerate(rng.multinomial(events_per_phase, weights).tolist()):
            if runs:
                drawn, drawn_over = sample_phase_counts(
                    rng, runs, window[c, :, j], overflow[c, :, j]
                )
                counts += drawn
                over += drawn_over
        records.append(mc.MeasurementRecord(
            theta=settings.theta, phi_spin=settings.phi_spin, beta_abs=settings.beta_abs,
            phase_index=j, n_phases=settings.n_phases, total_events=events_per_phase,
            seed=seed, counts_up=counts[fock.SPIN_UP], counts_down=counts[fock.SPIN_DOWN],
            overflow_up=int(over[fock.SPIN_UP]), overflow_down=int(over[fock.SPIN_DOWN]),
        ))
    return records


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
        rng = phase_generator(4, 0, 13)
        window, overflow = tg.smeared_marginal_tables(state16, settings)
        counts, over = sample_phase_counts(rng, 300, window[:, 13, :], overflow[:, 13])
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
            runs = phase_generator(6, 2, j).multinomial(900, weights)
            assert (rec.counts_up[0], rec.counts_down[4], rec.overflow_up) == tuple(runs)
            assert rec.counts_up.sum() + rec.counts_down.sum() + rec.overflow_up == 900
            assert rec.overflow_down == 0

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_the_per_phase_reference(self, k):
        # random component tables with a zero-weight component (k > 1) and
        # entries of -1e-18 that the sampler clips, as rounding leaves them
        settings = small_settings()
        rng = np.random.default_rng(k)
        shape = (k, 2, settings.n_phases, settings.n_max + 1)
        window = rng.dirichlet(np.ones(2 * shape[-1] + 2), size=(k, settings.n_phases))
        overflow = np.moveaxis(window[..., -2:], -1, 1).copy()
        window = np.moveaxis(window[..., :-2].reshape(k, settings.n_phases, 2, -1), 2, 1).copy()
        assert window.shape == shape
        window[:, :, ::5, 3] = -1e-18
        overflow[:, 0, ::7] = -1e-18
        weights = rng.dirichlet(np.ones(k))
        if k > 1:
            weights[1] = 0.0
            weights /= weights.sum()
        got = mc.sample_records(settings, 700, 12, 1, weights, window, overflow)
        want = reference_sample_records(settings, 700, 12, 1, weights, window, overflow)
        assert len(got) == len(want) == settings.n_phases
        for a, b in zip(got, want):
            assert a.to_json() == b.to_json()
            for name in ("counts_up", "counts_down"):
                assert getattr(a, name).dtype == np.int64
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            assert type(a.overflow_up) is int and type(a.overflow_down) is int


#: one word, two words, the 64-bit top and an entropy longer than the pool of 4
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**200 + 3, 20260801]


class TestPhaseSeeding:
    @pytest.mark.parametrize("setting_index", [0, 1, 2, 7, 2**32 + 1])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_equal_the_numpy_constructors(self, seed, setting_index):
        want = []
        for j in range(300):
            ss = np.random.SeedSequence(seed, spawn_key=(setting_index, j))
            state = np.random.PCG64(ss).state["state"]
            want.append((state["state"], state["inc"]))
        for n_phases in (1, 96, 300):
            assert mc._phase_states(seed, setting_index, n_phases) == want[:n_phases]

    @pytest.mark.parametrize("seed", [None, True, 7.0, -1],
                             ids=["none", "bool", "float", "negative"])
    def test_seed_a_record_cannot_hold_refused(self, state16, monkeypatch, seed):
        def no_generator(*args):
            raise AssertionError("a generator was built before the seed was checked")

        monkeypatch.setattr(np.random, "PCG64", no_generator)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            mc.simulate_acquisition(state16, small_settings(), 100, seed=seed)

    @pytest.mark.parametrize("events", [None, True, 100.0, 0, -5],
                             ids=["none", "bool", "float", "zero", "negative"])
    def test_event_count_a_record_cannot_hold_refused(self, state16, monkeypatch, events):
        def no_generator(*args):
            raise AssertionError("a generator was built before the event count was checked")

        monkeypatch.setattr(np.random, "PCG64", no_generator)
        with pytest.raises(ValueError, match="events_per_phase must be a positive integer"):
            mc.simulate_acquisition(state16, small_settings(), events, seed=1)

    def test_numpy_integer_event_count_is_taken_as_its_int(self, state16, tmp_path):
        got = mc.simulate_acquisition(state16, small_settings(), np.int64(100), seed=1)
        want = mc.simulate_acquisition(state16, small_settings(), 100, seed=1)
        assert all(type(rec.total_events) is int for rec in got)
        mc.write_records(tmp_path / "got.jsonl", got)
        mc.write_records(tmp_path / "want.jsonl", want)
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    def test_negative_setting_index_refused(self, state16):
        # its words would never run out: the check comes before the seeding
        with pytest.raises(ValueError, match="setting_index must be a non-negative integer"):
            mc.simulate_acquisition(state16, small_settings(), 100, seed=1, setting_index=-1)

    def test_numpy_integer_seed_is_taken_as_its_int(self, state16, tmp_path):
        got = mc.simulate_acquisition(state16, small_settings(), 100, seed=np.int64(7))
        want = mc.simulate_acquisition(state16, small_settings(), 100, seed=7)
        assert all(type(rec.seed) is int for rec in got)
        mc.write_records(tmp_path / "got.jsonl", got)
        mc.write_records(tmp_path / "want.jsonl", want)
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
        assert [rec.seed for rec in mc.read_records(tmp_path / "got.jsonl")] == [7] * 24


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

    def test_empty_group_writes_an_empty_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        mc.write_records(path, [])
        assert path.read_bytes() == b"" and mc.read_records(path) == []

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("phase_index", 2.9),
            ("phase_index", 2.0),
            ("total_events", "100"),
            ("overflow_down", True),
            ("counts_up", ["1", 1.8]),
            ("counts_down", [1, True]),
            ("counts_down", [[1, 2]]),
            ("counts_up", {"0": 1}),
        ],
    )
    def test_non_integer_values_rejected(self, state16, field, value):
        import json

        obj = json.loads(mc.simulate_acquisition(state16, small_settings(), 100, seed=1)[0]
                         .to_json())
        obj[field] = value
        with pytest.raises(ValueError, match=f"malformed field '{field}'"):
            mc.MeasurementRecord.from_json(json.dumps(obj))

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**70])
    @pytest.mark.parametrize("field", ["overflow_up", "overflow_down"])
    def test_overflow_outside_int64_named(self, state16, tmp_path, field, value):
        lines = [rec.to_json() for rec in
                 mc.simulate_acquisition(state16, small_settings(), 100, seed=1)]
        obj = json.loads(lines[2])
        obj[field] = value
        lines[2] = json.dumps(obj)
        message = f"malformed field '{field}': {value}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            mc.MeasurementRecord.from_json(lines[2])
        path = tmp_path / "records.jsonl"
        path.write_text("".join(f"{line}\n" for line in lines))  # every line plain: the batch
        with pytest.raises(ValueError, match=f"^line 3: {message}$"):
            mc.read_records(path)
        lines[5] = "[]"  # a line that is not plain: the line-by-line walk
        path.write_text("".join(f"{line}\n" for line in lines))
        with pytest.raises(ValueError, match=f"^line 3: {message}$"):
            mc.read_records(path)

    def test_setting_of_name_value_pairs_rejected(self, state16, tmp_path):
        # dict() builds a setting from [name, value] pairs; a record line must hold an object
        lines = [rec.to_json() for rec in
                 mc.simulate_acquisition(state16, small_settings(), 100, seed=1)]
        obj = json.loads(lines[2])
        obj["setting"] = [[name, value] for name, value in obj["setting"].items()]
        lines[2] = json.dumps(obj)
        with pytest.raises(ValueError, match="^malformed field 'setting': "):
            mc.MeasurementRecord.from_json(lines[2])
        path = tmp_path / "records.jsonl"
        path.write_text("".join(f"{line}\n" for line in lines))
        with pytest.raises(ValueError, match="^line 3: malformed field 'setting': "):
            mc.read_records(path)


finite = st.floats(allow_nan=False, allow_infinity=False)


def reference_to_json(rec):
    """Reference: the record line as json.dumps of a dict, which the
    template of MeasurementRecord.to_json must reproduce byte for byte."""
    return json.dumps(
        {
            "setting": {
                "theta": rec.theta,
                "phi_spin": rec.phi_spin,
                "beta_abs": rec.beta_abs,
            },
            "phase_index": rec.phase_index,
            "n_phases": rec.n_phases,
            "total_events": rec.total_events,
            "seed": rec.seed,
            "counts_up": [int(c) for c in rec.counts_up],
            "counts_down": [int(c) for c in rec.counts_down],
            "overflow_up": int(rec.overflow_up),
            "overflow_down": int(rec.overflow_down),
        }
    )


#: setting values as the writer may get them: ints (a theta of 0 stays 0),
#: floats with their non-finite constants, and numpy float64 scalars
setting_values = st.one_of(
    st.integers(-10**6, 10**6), st.floats(), st.floats().map(np.float64)
)
overflow_values = st.one_of(st.integers(0, 2**62), st.integers(0, 2**62).map(np.int64))


@st.composite
def template_records(draw):
    n_cells = draw(st.one_of(st.integers(0, 40), st.just(2000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return mc.MeasurementRecord(
        theta=draw(setting_values), phi_spin=draw(setting_values),
        beta_abs=draw(setting_values), phase_index=draw(st.integers(0, 10**6)),
        n_phases=draw(st.integers(1, 10**6)), total_events=draw(st.integers(0, 2**62)),
        seed=draw(st.integers(0, 2**64 - 1)),
        counts_up=rng.integers(0, 2**62, size=n_cells, dtype=np.int64),
        counts_down=rng.integers(0, 2**62, size=n_cells, dtype=np.int64),
        overflow_up=draw(overflow_values), overflow_down=draw(overflow_values),
    )


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


#: a field path into a record object; DELETE removes the field
FIELD_PATHS = [
    (), ("setting",), ("setting", "theta"), ("setting", "phi_spin"), ("setting", "beta_abs"),
    ("phase_index",), ("n_phases",), ("total_events",), ("seed",), ("counts_up",),
    ("counts_down",), ("overflow_up",), ("overflow_down",),
]
DELETE = object()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([2**63, -(2**63) - 1, 10**400]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)
#: what replaces a field: nothing, any JSON value, integer lists with a
#: bool, float or too-large entry, and the [name, number] pairs the walk's
#: dict() accepts as a setting
replacements = st.one_of(
    st.just(DELETE), json_values,
    st.lists(st.integers() | st.sampled_from([True, 1.0, 2**64]), max_size=4),
    st.lists(st.tuples(st.sampled_from(["theta", "phi_spin", "beta_abs"]), finite),
             min_size=3, max_size=3),
)


def edited_line(rec, path, value):
    """rec's line with the field at path replaced by value (or removed)."""
    obj = json.loads(rec.to_json())
    if not path:  # the whole line: removing it leaves an empty object
        return json.dumps({} if value is DELETE else value)
    *parents, key = path
    target = obj
    for name in parents:
        target = target[name]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    return json.dumps(obj)


def record_fields(rec):
    return [(type(value), value.dtype, value.tolist()) if isinstance(value, np.ndarray)
            else (type(value), value) for value in vars(rec).values()]


class TestRecordProperties:
    @hypothesis.settings(max_examples=300)
    @given(template_records())
    def test_template_matches_json_dumps(self, rec):
        # compared item by item: pytest's diff of two long one-line strings
        # would take minutes for each failing example Hypothesis tries
        assert rec.to_json().split(", ") == reference_to_json(rec).split(", ")

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

    @hypothesis.settings(max_examples=400)
    @given(records(), st.sampled_from(FIELD_PATHS), replacements)
    def test_one_pass_check_agrees_with_the_field_walk(self, tmp_path_factory, rec, path,
                                                       value):
        # read_records of a one-line file, whose plain line takes the one-pass
        # check (_plain, _plain_record), returns the walk's record or raises
        # the walk's message
        line = edited_line(rec, path, value)
        records_path = tmp_path_factory.mktemp("line") / "records.jsonl"
        records_path.write_text(f"{line}\n")
        try:
            want = mc._walked_record(json.loads(line))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                mc.read_records(records_path)
            assert str(got.value) == f"line 1: {exc}"
        else:
            got = mc.read_records(records_path)
            assert list(map(record_fields, got)) == [record_fields(want)]

    @hypothesis.settings(max_examples=200)
    @given(record_groups(), st.data())
    def test_file_reading_agrees_with_line_by_line(self, tmp_path_factory, group, data):
        j = data.draw(st.integers(0, len(group) - 1))
        lines = [rec.to_json() for rec in group]
        lines[j] = edited_line(group[j], data.draw(st.sampled_from(FIELD_PATHS)),
                               data.draw(replacements))
        path = tmp_path_factory.mktemp("records") / "records.jsonl"
        path.write_text("".join(f"{line}\n" for line in lines))
        try:
            want = [mc._walked_record(json.loads(line)) for line in lines]
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                mc.read_records(path)
            assert str(got.value) == f"line {j + 1}: {exc}"
        else:
            assert list(map(record_fields, mc.read_records(path))) == list(
                map(record_fields, want))


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

    @pytest.mark.parametrize(
        "n_phases, missing",
        [(25, [24]), (2**62, list(range(24, 32)))],
        ids=["one-more", "huge"],
    )
    def test_claimed_phase_count_sizes_nothing(self, state16, n_phases, missing):
        # 24 records that claim more phases: the first 8 missing indices are named
        records = mc.simulate_acquisition(state16, small_settings(), 100, seed=3)
        for rec in records:
            rec.n_phases = n_phases
        with pytest.raises(ValueError) as got:
            mc.estimate_marginals(records)
        assert str(got.value) == f"incomplete phase coverage; missing phase indices {missing}"

    @pytest.mark.parametrize(
        "indices, message",
        [((0, 1, 2), "phase 2: index outside 0..1 (n_phases = 2)"),
         ((-1, 0), "phase -1: index outside 0..1 (n_phases = 2)"),
         ((0, 5), "phase 5: index outside 0..1 (n_phases = 2)")],
        ids=["past-the-end", "negative", "in-place-of-1"],
    )
    def test_index_outside_the_phase_count_named(self, state16, indices, message):
        records = mc.simulate_acquisition(state16, small_settings(), 100, seed=3)[:len(indices)]
        for rec, j in zip(records, indices):
            rec.phase_index, rec.n_phases = j, 2
        with pytest.raises(ValueError) as got:
            mc.estimate_marginals(records)
        assert str(got.value) == message

    @pytest.mark.parametrize("position", ["appended", "in-place-of-6"])
    def test_repeated_phase_named(self, state16, position):
        records = mc.simulate_acquisition(state16, small_settings(), 100, seed=3)
        if position == "appended":
            records.append(dataclasses.replace(records[5]))
        else:
            records[6] = dataclasses.replace(records[5])
        with pytest.raises(ValueError, match="^phase 5: the phase index repeats$"):
            mc.estimate_marginals(records)

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

        m, _ = tg.inversion_systems(base)
        colsum = m[0].sum(axis=0)

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
