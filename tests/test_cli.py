import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_states import read_metrics_csv
from test_tomography import ref_inversion_systems, ref_reconstruct_full
from test_wigner import state_blocks
from wernerlike import cli, fock, montecarlo, states, tomography, trapsim, wigner
from wernerlike.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, RunConfig

SMALL_CONFIG = """\
# desk-scale run
alpha = 0.7
cutoff = 16
beta_abs = 0.6
n_max = 15
n_cutoff = 15
n_phases = 36
events_per_phase = 400
eta = 0.9
seed = 42
backend = density
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return path


def run_cli(*args):
    return cli.main([str(a) for a in args])


class TestConfig:
    def test_round_trip(self, config_path):
        cfg = RunConfig.from_file(config_path)
        assert cfg.alpha == 0.7
        assert cfg.backend == "density"
        again = RunConfig.from_file(config_path)
        assert cfg.to_text() == again.to_text()
        assert cfg.config_hash() == again.config_hash()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 0.7\nwibble = 3\n")
        with pytest.raises(cli.ConfigError, match="wibble"):
            RunConfig.from_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 0.7\nalpha = 0.8\n")
        with pytest.raises(cli.ConfigError, match="duplicate"):
            RunConfig.from_file(path)

    def test_invalid_settings_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_phases = 10\n")  # too few for the default cutoff
        with pytest.raises(cli.ConfigError):
            RunConfig.from_file(path)

    def test_readme_lists_the_defaults(self, tmp_path):
        # README's "Keys and defaults" block: every field, in order, at RunConfig()'s value
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.partition("and defaults:\n\n```\n")[2].partition("```")[0]
        keys = [line.partition("=")[0].strip() for line in block.splitlines()]
        assert keys == [field.name for field in dataclasses.fields(RunConfig)]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert RunConfig.from_file(path) == RunConfig()

    def test_bad_backend_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("backend = tape\n")
        with pytest.raises(cli.ConfigError, match="backend"):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("key, value", [
        ("beta_abs", "inf"), ("beta_abs", "nan"), ("alpha", "nan"), ("alpha", "inf"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG.replace(f"{key} = ", f"{key} = {value}  # ", 1))
        out = tmp_path / "run"
        assert run_cli("--config", path, "--out", out, "simulate") == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not list(out.glob("records_g*.jsonl"))


class TestMetrics:
    def test_threshold_row_and_round_trip(self, tmp_path, config_path):
        out = tmp_path / "m"
        assert run_cli("--config", config_path, "--out", out, "metrics", "--steps", 13) == EXIT_OK
        table, comments = read_metrics_csv(out / "metrics.csv")
        assert any(c.startswith("config_hash=") for c in comments)
        alpha_star = json.loads((out / "metrics_meta.json").read_text())[
            "fidelity_threshold_alpha"
        ]
        near = table[np.argmin(np.abs(table[:, 0] - alpha_star))]
        assert abs(near[4] - 2 / 3) < 1e-3
        zero_row = table[table[:, 0] == 0.0][0]
        assert zero_row[3] == 0.0
        # file parses back with identical values
        states.write_metrics_csv(out / "again.csv", table, comments)
        back, back_comments = read_metrics_csv(out / "again.csv")
        np.testing.assert_array_equal(back, table)
        assert back_comments == comments


class TestMetricsArguments:
    def test_reversed_alpha_range_rejected(self, tmp_path, config_path, capsys):
        out = tmp_path / "m"
        code = run_cli("--config", config_path, "--out", out,
                       "metrics", "--alpha-min", 3, "--alpha-max", 0)
        assert code == EXIT_VALIDATION
        assert "alpha_max" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_threshold_row_only_inside_the_range(self, tmp_path, config_path):
        # alpha* = 0.26818 lies below [0.5, 1]: the sweep's 3 rows, no fourth
        out = tmp_path / "m"
        assert run_cli("--config", config_path, "--out", out, "metrics",
                       "--alpha-min", 0.5, "--alpha-max", 1.0, "--steps", 3) == EXIT_OK
        table, _ = read_metrics_csv(out / "metrics.csv")
        np.testing.assert_array_equal(table[:, 0], [0.5, 0.75, 1.0])
        meta = json.loads((out / "metrics_meta.json").read_text())
        assert meta["rows"] == 3
        assert meta["fidelity_threshold_alpha"] == states.fidelity_threshold()


class TestSimulateReconstruct:
    def test_pipeline(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert run_cli("--config", config_path, "--out", out, "simulate") == EXIT_OK
        for i in range(3):
            lines = (out / f"records_g{i}.jsonl").read_text().splitlines()
            assert len(lines) == 36
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["backend"] == "density"
        assert len(manifest["files"]) == 3

        assert run_cli("--config", config_path, "--out", out, "reconstruct") == EXIT_OK
        payload = json.loads((out / "reconstruction.json").read_text())
        assert payload["config_hash"] == manifest["config_hash"]
        assert payload["truth_comparison"]["pooled_within_3sigma"] >= 0.9
        assert len(payload["orders"]) == 16
        summary = (out / "summary.txt").read_text()
        assert "cond" in summary and "r=0" in summary

    def test_same_seed_byte_identical(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("--config", config_path, "--out", out_a, "simulate")
        run_cli("--config", config_path, "--out", out_b, "simulate")
        for i in range(3):
            assert (out_a / f"records_g{i}.jsonl").read_bytes() == (
                out_b / f"records_g{i}.jsonl"
            ).read_bytes()

    def test_overwrite_needs_force(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert run_cli("--config", config_path, "--out", out, "simulate") == EXIT_OK
        assert run_cli("--config", config_path, "--out", out, "simulate") == EXIT_VALIDATION
        assert run_cli("--config", config_path, "--out", out, "--force", "simulate") == EXIT_OK

    def test_trap_backend_schema_identical(self, tmp_path, config_path):
        trap_cfg = tmp_path / "trap.cfg"
        trap_cfg.write_text(SMALL_CONFIG.replace("backend = density", "backend = trap"))
        out_d, out_t = tmp_path / "d", tmp_path / "t"
        run_cli("--config", config_path, "--out", out_d, "simulate")
        run_cli("--config", trap_cfg, "--out", out_t, "simulate")
        rec_d = json.loads((out_d / "records_g0.jsonl").read_text().splitlines()[0])
        rec_t = json.loads((out_t / "records_g0.jsonl").read_text().splitlines()[0])
        assert set(rec_d) == set(rec_t)
        assert set(rec_d["setting"]) == set(rec_t["setting"])
        assert run_cli("--config", trap_cfg, "--out", out_t, "reconstruct") == EXIT_OK

    def test_exact_mode_hits_truth(self, tmp_path, config_path):
        out = tmp_path / "exact"
        assert run_cli("--config", config_path, "--out", out, "reconstruct", "--exact") == EXIT_OK
        payload = json.loads((out / "reconstruction.json").read_text())
        for name in ("uu", "dd", "ud"):
            assert payload["truth_comparison"][name]["max_abs_error"] < 1e-6

    def test_exact_mode_reports_no_coverage(self, tmp_path, config_path, capsys):
        # a noiseless estimate has no sigma > 0: containment is not a pass
        out = tmp_path / "exact"
        assert run_cli("--config", config_path, "--out", out, "reconstruct", "--exact") == EXIT_OK
        report = json.loads((out / "reconstruction.json").read_text())["truth_comparison"]
        assert [report[name]["within_3sigma"] for name in ("uu", "dd", "ud")] == [None] * 3
        assert [report[name]["parts"] for name in ("uu", "dd", "ud")] == [0] * 3
        assert report["pooled_within_3sigma"] is None
        printed = capsys.readouterr().out
        assert printed.count("within 3 sigma = n/a (0 parts)") == 4

    def test_metrics_refuses_an_unbounded_sweep(self, tmp_path, capsys):
        code = run_cli("--out", tmp_path / "run", "metrics", "--alpha-max", "inf")
        assert code == EXIT_VALIDATION
        assert "alpha_max=inf must be finite and nonnegative" in capsys.readouterr().err

    def test_missing_group_diagnostic(self, tmp_path, config_path):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        (out / "records_g1.jsonl").unlink()
        code = run_cli("--config", config_path, "--out", out, "reconstruct")
        assert code == EXIT_VALIDATION

    def test_tampered_counts_rejected(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        path = out / "records_g2.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[5])
        record["counts_up"][0] += 25
        lines[5] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("--config", config_path, "--out", out, "reconstruct") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "records_g2.jsonl" in err and "phase 5" in err
        assert not (out / "reconstruction.json").exists()

    def test_repeated_record_line_named(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        path = out / "records_g1.jsonl"
        lines = path.read_text().splitlines()
        assert json.loads(lines[5])["phase_index"] == 5
        path.write_text("\n".join(lines + [lines[5]]) + "\n")
        capsys.readouterr()
        assert run_cli("--config", config_path, "--out", out, "reconstruct") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "records_g1.jsonl: phase 5: the phase index repeats" in err
        assert not (out / "reconstruction.json").exists()

    @pytest.mark.parametrize(
        "corrupt, field",
        [
            (lambda rec: rec.pop("counts_up"), "counts_up"),
            (lambda rec: rec.update(setting=None), "setting"),
            (lambda rec: rec.pop("overflow_up"), "overflow_up"),
            (None, "JSON object"),
            (lambda rec: rec.update(phase_index=2.9), "phase_index"),
            (lambda rec: rec.update(counts_up=["1", 1.8]), "counts_up"),
            (lambda rec: rec.update(overflow_down=True), "overflow_down"),
            (lambda rec: rec["setting"].update(theta="0.5"), "setting.theta"),
            (lambda rec: rec["setting"].update(beta_abs=True), "setting.beta_abs"),
            (lambda rec: rec["setting"].update(phi_spin=float("nan")), "setting.phi_spin"),
            (lambda rec: rec.update(overflow_up=2**70), "malformed field 'overflow_up'"),
        ],
        ids=["missing-counts", "null-setting", "missing-overflow", "array-line",
             "float-index", "non-integer-counts", "bool-overflow", "string-theta",
             "bool-beta", "nan-phi-spin", "overflow-outside-int64"],
    )
    def test_malformed_record_line_rejected(self, tmp_path, config_path, capsys,
                                            corrupt, field):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        path = out / "records_g1.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        if corrupt is None:
            record = list(record.values())
        else:
            corrupt(record)
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("--config", config_path, "--out", out, "reconstruct") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "records_g1.jsonl: line 4:" in err and field in err
        assert "Traceback" not in err
        assert not (out / "reconstruction.json").exists()

    def test_zero_event_records_rejected(self, tmp_path, config_path, capsys):
        # consistent records of no events estimate nothing: w = 0/0
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        path = out / "records_g0.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in records:
            rec.update(total_events=0, overflow_up=0, overflow_down=0,
                       counts_up=[0] * len(rec["counts_up"]),
                       counts_down=[0] * len(rec["counts_down"]))
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        capsys.readouterr()
        assert run_cli("--config", config_path, "--out", out, "reconstruct") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "records_g0.jsonl" in err and "total_events" in err
        assert not (out / "reconstruction.json").exists()

    def test_truth_smaller_than_the_estimate(self, tmp_path):
        # cutoff 14 < n_cutoff + 1 = 32: the truth is zero past its cutoff
        path = tmp_path / "run.cfg"
        path.write_text("cutoff = 14\nevents_per_phase = 200\n")
        out = tmp_path / "run"
        assert run_cli("--config", path, "--out", out, "simulate") == EXIT_OK
        assert run_cli("--config", path, "--out", out, "reconstruct") == EXIT_OK
        report = json.loads((out / "reconstruction.json").read_text())["truth_comparison"]
        for name in ("uu", "dd", "ud"):
            assert np.isfinite(report[name]["max_abs_error"])
            assert np.isfinite(report[name]["within_3sigma"])
        assert np.isfinite(report["pooled_within_3sigma"])

    def test_seed_override_changes_outputs(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("--config", config_path, "--out", out_a, "simulate")
        run_cli("--config", config_path, "--seed", 43, "--out", out_b, "simulate")
        assert (out_a / "records_g0.jsonl").read_bytes() != (
            out_b / "records_g0.jsonl"
        ).read_bytes()

    def test_no_truth_skips_the_comparison(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        for flags, compared in (((), True), (("--no-truth",), False)):
            capsys.readouterr()
            assert run_cli("--config", config_path, "--out", out, "--force",
                           "reconstruct", "--exact", *flags) == EXIT_OK
            printed = capsys.readouterr().out.splitlines()
            report = json.loads((out / "reconstruction.json").read_text())["truth_comparison"]
            assert (report is not None) == compared
            assert any(line.startswith("block ") for line in printed) == compared

    def test_no_truth_builds_no_truth(self, tmp_path, config_path):
        # records of alpha 0.7 with no manifest, inverted under alpha 5.5, whose
        # coherent states the cutoff 16 cannot hold: only the comparison needs them
        out = tmp_path / "run"
        assert run_cli("--config", config_path, "--out", out, "simulate") == EXIT_OK
        (out / "manifest.json").unlink()
        path = tmp_path / "wide.cfg"
        path.write_text(SMALL_CONFIG.replace("alpha = 0.7", "alpha = 5.5"))
        assert run_cli("--config", path, "--out", out, "reconstruct", "--no-truth") == EXIT_OK
        assert run_cli("--config", path, "--out", out, "reconstruct") == EXIT_VALIDATION

    @pytest.mark.parametrize("backend", ["density", "trap"])
    def test_state_past_the_cutoff_refused(self, tmp_path, capsys, backend):
        # |alpha| 5.5 loses 22.5 % of its norm past cutoff 32: both backends
        # refuse it before a record file is written
        path = tmp_path / "run.cfg"
        path.write_text(f"backend = {backend}\nalpha = 5.5\nn_cutoff = 8\nn_max = 8\n"
                        "n_phases = 24\nevents_per_phase = 200\n")
        out = tmp_path / "run"
        assert run_cli("--config", path, "--out", out, "simulate") == EXIT_VALIDATION
        assert "cutoff 32 too small" in capsys.readouterr().err
        assert not list(out.glob("records_g*.jsonl"))


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


@pytest.mark.parametrize(
    "seed, backend",
    [(seed, "density") for seed in (20260801, 20260805)]
    + [(int(seed), "trap") for seed in json.loads(GOLDEN.read_text())["records"]],
)
def test_records_match_golden_hashes(tmp_path, seed, backend):
    # the record bytes of the default config are pinned per seed and backend;
    # the trap tables' last bits depend on the route, so it runs every seed
    golden = json.loads(GOLDEN.read_text())["records"][str(seed)][backend]
    path = tmp_path / "run.cfg"
    path.write_text(f"backend = {backend}\n")
    out = tmp_path / "run"
    assert run_cli("--config", path, "--seed", seed, "--out", out, "simulate") == EXIT_OK
    got = [hashlib.sha256((out / f"records_g{i}.jsonl").read_bytes()).hexdigest()
           for i in range(3)]
    assert got == golden


@pytest.mark.parametrize("backend", ["density", "trap"])
def test_records_read_back_to_their_bytes_and_estimates(tmp_path, backend):
    # the default-seed groups, written, read and written again, keep their
    # bytes, and the records read back estimate what the sampled ones do
    config = RunConfig(backend=backend)
    golden = json.loads(GOLDEN.read_text())["records"][str(config.seed)][backend]
    truth = config.truth_state()
    for i, angles in enumerate(tomography.standard_setting_angles()):
        settings = config.settings(*angles)
        if backend == "trap":
            sampled = trapsim.simulate_trap_acquisition(
                config.alpha, settings, config.events_per_phase, config.seed,
                dim=config.cutoff, setting_index=i)
        else:
            sampled = montecarlo.simulate_acquisition(
                truth, settings, config.events_per_phase, config.seed, setting_index=i)
        first, second = tmp_path / f"first_g{i}.jsonl", tmp_path / f"second_g{i}.jsonl"
        montecarlo.write_records(first, sampled)
        assert hashlib.sha256(first.read_bytes()).hexdigest() == golden[i]
        read = montecarlo.read_records(first)
        montecarlo.write_records(second, read)
        assert second.read_bytes() == first.read_bytes()
        want, got = montecarlo.estimate_marginals(sampled), montecarlo.estimate_marginals(read)
        np.testing.assert_array_equal(got.w, want.w)
        np.testing.assert_array_equal(got.variance, want.variance)


#: sha256 of wigner_true.csv at seed 20260801 (density backend, default
#: config); its bytes do not depend on the inversion
TRUE_SURFACE_SHA256 = "d3b0b5111d474af05f4ab9744d54eecd2b7f25c50758bbc3565a216898d8fc66"

#: the fields of reconstruction.json at that seed that are compared exactly
PINNED_RECONSTRUCTION = {
    "settings": {"beta_abs": 0.6, "n_phases": 96, "n_max": 31, "n_cutoff": 31, "eta": 0.9},
    "backend": "density",
    "exact_marginals": False,
    "config_hash": "fca215a889c637c44eafac26f8c39e43595648ac2317842cdf5fa67105e1d857",
    "seed": 20260801,
}
PINNED_COVERAGE = {"uu": (1.0, 952), "dd": (1.0, 952), "ud": (1.0, 1904)}


def read_surfaces(path):
    """{block: W values} of a file written by wigner.write_grid_csv."""
    rows = [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")][1:]
    values = {name: [] for name in wigner.BLOCK_NAMES}
    for row in rows:
        values[row[2]].append(float(row[3]) + 1j * float(row[4]))
    return {name: np.array(v) for name, v in values.items()}


def assert_close(got, want, scale, tol=1e-9):
    assert np.max(np.abs(np.asarray(got) - want)) <= tol * scale


@pytest.mark.filterwarnings("ignore:grid integrals")  # the raw estimate's surface
def test_outputs_match_pinned_hashes(tmp_path):
    # the true surface is pinned by bytes; the estimate and its surface by
    # value, against the per-block reference path with one SVD per order
    path = tmp_path / "run.cfg"
    path.write_text("backend = density\n")
    out = tmp_path / "run"
    for stage in (("simulate",), ("reconstruct",), ("wigner", "--source", "both")):
        assert run_cli("--config", path, "--seed", 20260801, "--out", out, *stage) == EXIT_OK
    assert hashlib.sha256((out / "wigner_true.csv").read_bytes()).hexdigest() == (
        TRUE_SURFACE_SHA256
    )

    config = RunConfig(backend="density", seed=20260801)
    base = config.settings()
    datas = [montecarlo.estimate_marginals(montecarlo.read_records(out / f"records_g{i}.jsonl"))
             for i in range(3)]
    systems = ref_inversion_systems(base)
    ref = ref_reconstruct_full(datas, base, systems)
    payload = json.loads((out / "reconstruction.json").read_text())
    assert {key: payload[key] for key in PINNED_RECONSTRUCTION} == PINNED_RECONSTRUCTION
    for name, (values, sigma_re, sigma_im, _) in ref.items():
        block = payload["blocks"][name]
        pairs = np.array(block["values"])
        assert_close(pairs[..., 0] + 1j * pairs[..., 1], values, np.max(np.abs(values)))
        assert_close(block["sigma_re"], sigma_re, np.max(sigma_re))
        assert_close(block["sigma_im"], sigma_im, np.max(sigma_im))
    assert [(o["r"], o["dropped"]) for o in payload["orders"]] == [
        (system.r, system.dropped) for system in systems
    ]
    for order, system in zip(payload["orders"], systems):
        assert order["sigma_max"] == pytest.approx(system.sigma_max, rel=1e-9, abs=0.0)
        assert order["cond"] == pytest.approx(system.cond, rel=1e-9, abs=0.0)

    estimate = tomography.HybridEstimate(
        **{name: tomography.BlockEstimate(*ref[name][:3]) for name in ("uu", "dd", "ud")},
        settings=base, orders=ref["uu"][3],
    )
    report = payload["truth_comparison"]
    want = tomography.error_report(estimate, config.truth_state())
    for name, (within, parts) in PINNED_COVERAGE.items():
        assert (report[name]["within_3sigma"], report[name]["parts"]) == (within, parts)
        assert report[name]["max_abs_error"] == pytest.approx(
            want[name]["max_abs_error"], rel=1e-9, abs=0.0
        )
    assert report["pooled_within_3sigma"] == 1.0

    blocks = state_blocks(estimate.to_state())
    grid = wigner.wigner_grid(blocks, *wigner.default_axes(config.alpha, 3.0, 0.1, 3.0))
    got = read_surfaces(out / "wigner_recon.csv")
    scale = max(np.max(np.abs(w)) for w in grid.blocks.values())
    for name in wigner.BLOCK_NAMES:
        assert_close(got[name], grid.blocks[name].ravel(), scale)


def test_simulate_builds_one_truth_and_searches_once(tmp_path, monkeypatch):
    # the three density groups share one truth state, and so one forward pass
    kernel, build = fock.displacement_amplitudes_batch, states.build_hybrid_mixture
    probes, builds = [], []
    monkeypatch.setattr(fock, "displacement_amplitudes_batch",
                        lambda *a: probes.append(a) or kernel(*a))
    monkeypatch.setattr(states, "build_hybrid_mixture", lambda *a: builds.append(a) or build(*a))
    config = RunConfig()
    fock.displaced_support(config.cutoff - 1, config.beta_abs)
    search = len(probes)
    del probes[:]
    assert run_cli("--out", tmp_path / "run", "simulate") == EXIT_OK
    assert len(probes) == search >= 1
    assert len(builds) == 1


def test_support_at_the_rounding_floor_simulates(tmp_path):
    # at |beta| 0.1 the largest norm deficit of a 61-dim state's displaced
    # support stays at the kernel's rounding floor, above tol = 1e-13
    path = tmp_path / "run.cfg"
    path.write_text("cutoff = 61\nn_max = 60\nn_cutoff = 60\nn_phases = 128\nbeta_abs = 0.1\n")
    assert run_cli("--config", path, "--out", tmp_path / "run", "simulate") == EXIT_OK


def _edit_reconstruction(edit):
    def corrupt(out):
        path = out / "reconstruction.json"
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
    return corrupt


def _shrink_blocks(payload):
    # a 3x3 estimate with 1x1 errors in a file whose n_cutoff is 15
    for block in payload["blocks"].values():
        block["values"] = [row[:3] for row in block["values"][:3]]
        block["sigma_re"] = [[0.0]]


def _nan_value(payload):
    # one real part of an estimate of finite shape
    payload["blocks"]["uu"]["values"][2][1][0] = float("nan")


@pytest.mark.parametrize(
    "corrupt, command, name",
    [
        (_edit_reconstruction(lambda p: p["settings"].pop("eta")),
         ("wigner", "--source", "recon"), "reconstruction.json"),
        (_edit_reconstruction(lambda p: p.update(orders=5)),
         ("wigner", "--source", "recon"), "reconstruction.json"),
        (_edit_reconstruction(lambda p: p.pop("orders")),
         ("wigner", "--source", "recon"), "reconstruction.json: missing field 'orders'"),
        (lambda out: (out / "manifest.json").write_text("[1, 2]"), ("reconstruct",),
         "manifest.json"),
        (lambda out: (out / "manifest.json").write_text("[1, 2]"), ("verify",),
         "manifest.json"),
        (lambda out: (out / "extra.json").write_text("7"), ("verify",), "extra.json"),
        (lambda out: (out / "manifest.json").write_text('{"config_text": 3}'), ("verify",),
         "manifest.json"),
        (lambda out: (out / "manifest.json").write_text('{"files": [1]}'), ("verify",),
         "manifest.json"),
        (_edit_reconstruction(_shrink_blocks), ("wigner", "--source", "recon"),
         "reconstruction.json: block 'uu'"),
        (_edit_reconstruction(_nan_value), ("wigner", "--source", "recon"),
         "reconstruction.json: block 'uu'"),
    ],
    ids=["recon-without-eta", "recon-number-orders", "recon-without-orders",
         "list-manifest-reconstruct", "list-manifest-verify",
         "bare-number-json", "number-config-text", "number-file-entry", "recon-block-shape",
         "recon-nan-value"],
)
def test_malformed_json_input_rejected(tmp_path, config_path, capsys, corrupt, command, name):
    out = tmp_path / "run"
    run_cli("--config", config_path, "--out", out, "simulate")
    run_cli("--config", config_path, "--out", out, "reconstruct", "--exact")
    corrupt(out)
    capsys.readouterr()
    assert run_cli("--config", config_path, "--out", out, *command) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err and "Traceback" not in err
    assert not list(out.glob("wigner_*"))


class TestManifestCheck:
    def test_seed_override_rejected_before_inversion(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        capsys.readouterr()
        code = run_cli("--config", config_path, "--seed", 43, "--out", out, "reconstruct")
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "manifest.json" in err and "seed" in err
        assert not (out / "reconstruction.json").exists()
        # exact marginals read no records, so the manifest does not apply
        assert run_cli("--config", config_path, "--seed", 43, "--out", out,
                       "reconstruct", "--exact") == EXIT_OK

    def test_backend_mismatch_rejected(self, tmp_path, config_path, capsys):
        trap_cfg = tmp_path / "trap.cfg"
        trap_cfg.write_text(SMALL_CONFIG.replace("backend = density", "backend = trap"))
        out = tmp_path / "run"
        run_cli("--config", trap_cfg, "--out", out, "simulate")
        capsys.readouterr()
        assert run_cli("--config", config_path, "--out", out, "reconstruct") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "manifest.json" in err and "backend" in err
        assert not (out / "reconstruction.json").exists()

    def test_matching_manifest_accepted(self, tmp_path, config_path):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--seed", 43, "--out", out, "simulate")
        assert run_cli("--config", config_path, "--seed", 43, "--out", out,
                       "reconstruct") == EXIT_OK
        payload = json.loads((out / "reconstruction.json").read_text())
        assert payload["seed"] == 43

    def test_records_of_another_directory(self, tmp_path, config_path, capsys):
        # the records and the manifest checked are those of --records, not of --out
        records, out = tmp_path / "records", tmp_path / "run"
        run_cli("--config", config_path, "--out", records, "simulate")
        run_cli("--config", config_path, "--out", records, "reconstruct")
        run_cli("--config", config_path, "--seed", 43, "--out", out, "simulate")
        assert run_cli("--config", config_path, "--out", out,
                       "reconstruct", "--records", records) == EXIT_OK
        assert (out / "reconstruction.json").read_bytes() == (
            records / "reconstruction.json").read_bytes()
        (out / "reconstruction.json").unlink()
        capsys.readouterr()
        assert run_cli("--config", config_path, "--seed", 43, "--out", out,
                       "reconstruct", "--records", records) == EXIT_VALIDATION
        assert f"{records / 'manifest.json'}: seed 42 does not match" in capsys.readouterr().err
        assert not (out / "reconstruction.json").exists()

    def test_edited_records_rejected(self, tmp_path, config_path, capsys):
        # 5 counts moved between two cells of one line: every total still holds
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        path = out / "records_g1.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[4])
        counts = record["counts_up"]
        top = int(np.argmax(counts))
        counts[top] -= 5
        counts[top - 1 if top else 1] += 5
        lines[4] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("--config", config_path, "--out", out, "reconstruct") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "records_g1.jsonl" in err and "sha256" in err
        assert not (out / "reconstruction.json").exists()

    def test_entries_hold_path_and_sha256(self, tmp_path, config_path):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert [set(entry) for entry in files] == [{"path", "sha256"}] * 3

    @pytest.mark.parametrize(
        "tamper, problem",
        [
            (lambda m: m["files"][1].update(sha256="0" * 64),
             "records_g1.jsonl: sha256 differs from the manifest's"),
            (lambda m: m["files"].__setitem__(0, dict(m["files"][1])),
             "records_g1.jsonl: listed 2 times"),
            (lambda m: m["files"][0].pop("path"), "None: missing"),
            (lambda m: m["files"][0].update(path="../outside.txt"),
             "../outside.txt: not a record file"),
            (lambda m: m.update(config_text=m["config_text"].replace("0.7", "0.8")),
             "manifest config_hash does not match its config_text"),
        ],
        ids=["sha256-differs", "listed-twice", "missing", "not-a-record-file",
             "config-text-edited"],
    )
    def test_verify_problems_stop_reconstruct(self, tmp_path, config_path, capsys,
                                              tamper, problem):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        (tmp_path / "outside.txt").write_text("not a record\n")
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        tamper(manifest)
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("--config", config_path, "--out", out, "verify") == EXIT_VALIDATION
        reported = [line.removeprefix("verify: ") for line in capsys.readouterr().err.splitlines()]
        assert any(line.startswith(problem) for line in reported)
        assert run_cli("--config", config_path, "--out", out, "reconstruct") == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {path}: {reported[0]}\n"
        assert not (out / "reconstruction.json").exists()


def test_cli_import_needs_no_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, wernerlike.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


class TestWignerCommand:
    @pytest.mark.filterwarnings("ignore:grid integrals")  # narrow grid on purpose
    def test_true_and_reconstructed_export(self, tmp_path, config_path):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "reconstruct", "--exact")
        code = run_cli(
            "--config", config_path, "--out", out,
            "wigner", "--source", "both", "--spacing", 0.25, "--im-extent", 1.0,
        )
        assert code == EXIT_OK
        meta = json.loads((out / "wigner_meta.json").read_text())
        assert (out / "wigner_true.csv").exists()
        assert (out / "wigner_recon.csv").exists()
        assert meta["max_pointwise_gap"] < 1e-6
        assert meta["true"]["uu_profile_maxima"]

    @pytest.mark.parametrize("args, name", [
        (("--spacing", 0), "spacing"),
        (("--spacing", -0.1), "spacing"),
        (("--im-extent", 0), "im_extent"),
    ])
    def test_bad_axis_arguments_rejected(self, tmp_path, config_path, capsys, args, name):
        out = tmp_path / "run"
        assert run_cli("--config", config_path, "--out", out, "wigner", *args) == EXIT_VALIDATION
        assert name in capsys.readouterr().err
        assert not (out / "wigner_true.csv").exists()

    def test_missing_reconstruction_reported(self, tmp_path, config_path):
        out = tmp_path / "empty"
        code = run_cli("--config", config_path, "--out", out, "wigner", "--source", "recon")
        assert code == EXIT_VALIDATION

    def test_estimate_of_another_config_rejected(self, tmp_path, capsys):
        made, out = tmp_path / "made", tmp_path / "run"
        assert run_cli("--out", made, "reconstruct", "--exact") == EXIT_OK
        other = tmp_path / "other.cfg"
        other.write_text("alpha = 0.5\n")
        capsys.readouterr()
        assert run_cli("--config", other, "--out", out, "wigner", "--source", "recon",
                       "--reconstruction", made / "reconstruction.json") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "reconstruction.json" in err and "config_hash" in err
        assert not list(out.glob("wigner_*"))

    @pytest.mark.filterwarnings("ignore:grid integrals")  # coarse grid on purpose
    def test_named_reconstruction_mapped(self, tmp_path, config_path):
        made, out = tmp_path / "made", tmp_path / "run"
        run_cli("--config", config_path, "--out", made, "reconstruct", "--exact")
        args = ("wigner", "--source", "recon", "--spacing", 0.5)
        assert run_cli("--config", config_path, "--out", made, *args) == EXIT_OK
        assert run_cli("--config", config_path, "--out", out, *args,
                       "--reconstruction", made / "reconstruction.json") == EXIT_OK
        assert (out / "wigner_recon.csv").read_bytes() == (made / "wigner_recon.csv").read_bytes()
        assert not (out / "reconstruction.json").exists()

    @pytest.mark.filterwarnings("ignore:grid integrals")  # narrow grid on purpose
    def test_re_pad_sets_the_re_half_width(self, tmp_path, config_path):
        # alpha 0.7 + re_pad 0.55 = 1.25, five steps of 0.25; Im keeps its 3.0
        out = tmp_path / "run"
        assert run_cli("--config", config_path, "--out", out, "wigner",
                       "--spacing", 0.25, "--re-pad", 0.55) == EXIT_OK
        rows = [line.split(",") for line in (out / "wigner_true.csv").read_text().splitlines()
                if not line.startswith("#")][1:]
        re_values, im_values = ({float(row[k]) for row in rows} for k in (0, 1))
        assert (min(re_values), max(re_values), len(re_values)) == (-1.25, 1.25, 11)
        assert (min(im_values), max(im_values)) == (-3.0, 3.0)


class TestVerify:
    def test_consistent_run_passes(self, tmp_path, config_path):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        run_cli("--config", config_path, "--out", out, "metrics", "--steps", 5)
        assert run_cli("--config", config_path, "--out", out, "verify") == EXIT_OK

    def test_tampered_hash_detected(self, tmp_path, config_path):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config_hash"] = "0" * 64
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("--config", config_path, "--out", out, "verify") == EXIT_VALIDATION

    def test_tampered_summary_stamp_detected(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "reconstruct", "--exact")
        path = out / "summary.txt"
        path.write_text(path.read_text().replace("# config_hash=", "# config_hash=0", 1))
        capsys.readouterr()
        assert run_cli("--config", config_path, "--out", out, "verify") == EXIT_VALIDATION
        assert "summary.txt: config_hash mismatch" in capsys.readouterr().err

    def test_tampered_csv_stamp_detected(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "metrics", "--steps", 5)
        path = out / "metrics.csv"
        text = path.read_text()
        path.write_text(text.replace("# config_hash=", "# config_hash=0", 1))
        assert run_cli("--config", config_path, "--out", out, "verify") == EXIT_VALIDATION
        assert "metrics.csv: config_hash mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, unstamp",
        [
            ("metrics.csv", lambda text: "".join(
                line for line in text.splitlines(keepends=True)
                if not line.startswith("# config_hash="))),
            ("metrics_meta.json", lambda text: json.dumps(
                {k: v for k, v in json.loads(text).items() if k != "config_hash"})),
        ],
        ids=["csv-comment", "json-key"],
    )
    def test_deleted_stamp_detected(self, tmp_path, config_path, capsys, name, unstamp):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "metrics", "--steps", 5)
        path = out / name
        path.write_text(unstamp(path.read_text()))
        capsys.readouterr()
        assert run_cli("--config", config_path, "--out", out, "verify") == EXIT_VALIDATION
        assert f"{name}: config_hash missing" in capsys.readouterr().err

    def test_run_of_another_seed_rejected(self, tmp_path, config_path, capsys):
        # the manifest's own hash is consistent; the run's config is the reference
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        run_cli("--config", config_path, "--out", out, "metrics", "--steps", 5)
        capsys.readouterr()
        assert run_cli("--config", config_path, "--seed", 43, "--out", out,
                       "verify") == EXIT_VALIDATION
        err = capsys.readouterr().err
        for name in ("manifest.json", "metrics.csv", "metrics_meta.json"):
            assert f"{name}: config_hash mismatch" in err
        assert "does not match its config_text" not in err

    def test_manifest_holds_record_hashes(self, tmp_path, config_path):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert [f["path"] for f in files] == [f"records_g{i}.jsonl" for i in range(3)]
        for f in files:
            assert f["sha256"] == hashlib.sha256((out / f["path"]).read_bytes()).hexdigest()

    def test_edited_count_digit_detected(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        path = out / "records_g1.jsonl"
        text = path.read_text()
        start = text.index('"counts_up": [') + len('"counts_up": [')
        digit = text[start]
        path.write_text(text[:start] + str((int(digit) + 1) % 10) + text[start + 1 :])
        capsys.readouterr()
        assert run_cli("--config", config_path, "--out", out, "verify") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "records_g1.jsonl" in err and "records_g0.jsonl" not in err

    def test_missing_record_file_detected(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        (out / "records_g2.jsonl").unlink()
        capsys.readouterr()
        assert run_cli("--config", config_path, "--out", out, "verify") == EXIT_VALIDATION
        assert "records_g2.jsonl: missing" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["files"][0]["path"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("--config", config_path, "--out", out, "verify") == EXIT_VALIDATION
        assert "None: missing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, listed",
        [
            ({"path": "../outside.txt"}, "../outside.txt: not a record file"),
            ({"path": "records_g1.jsonl"}, "records_g1.jsonl: listed 2 times"),
        ],
        ids=["outside-path", "duplicate-name"],
    )
    def test_manifest_lists_only_the_record_files(self, tmp_path, config_path, capsys,
                                                  monkeypatch, entry, listed):
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        outside = tmp_path / "outside.txt"
        outside.write_text("not a record\n")
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        sha = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        manifest["files"][0].update(entry, sha256=sha)
        path.write_text(json.dumps(manifest))
        hashed = []
        sha256 = cli._sha256
        monkeypatch.setattr(cli, "_sha256", lambda p: hashed.append(p) or sha256(p))
        capsys.readouterr()
        assert run_cli("--config", config_path, "--out", out, "verify") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert listed in err and "records_g0.jsonl: listed 0 times" in err
        assert hashed and all(p.parent == out for p in hashed)

    @pytest.mark.parametrize("stages", [[("metrics", "--steps", 5), ("simulate",)], [("simulate",)]],
                             ids=["with-outputs", "records-only"])
    def test_records_without_manifest_reported(self, tmp_path, config_path, capsys, stages):
        out = tmp_path / "run"
        for stage in stages:
            run_cli("--config", config_path, "--out", out, *stage)
        (out / "manifest.json").unlink()
        capsys.readouterr()
        assert run_cli("--config", config_path, "--out", out, "verify") == EXIT_VALIDATION
        err = capsys.readouterr().err
        for i in range(3):
            assert f"records_g{i}.jsonl: no manifest.json lists it" in err
        assert "nothing to verify" not in err
        # records made outside simulate carry no manifest, and reconstruct reads them
        assert run_cli("--config", config_path, "--out", out, "reconstruct") == EXIT_OK

    def test_empty_directory_rejected(self, tmp_path, config_path):
        out = tmp_path / "nothing"
        out.mkdir()
        assert run_cli("--config", config_path, "--out", out, "verify") == EXIT_VALIDATION


@pytest.mark.filterwarnings("ignore:grid integrals")  # the raw estimate's coarse surface
@pytest.mark.parametrize("backend", ["density", "trap"])
def test_pipeline_verifies_per_backend(tmp_path, capsys, backend):
    # every stage in one directory; verify counts each output and each record file
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG.replace("backend = density", f"backend = {backend}"))
    out = tmp_path / "run"
    for stage in (("metrics",), ("simulate",), ("reconstruct",),
                  ("wigner", "--source", "both", "--spacing", 0.5)):
        assert run_cli("--config", path, "--out", out, *stage) == EXIT_OK
    capsys.readouterr()
    assert run_cli("--config", path, "--out", out, "verify") == EXIT_OK
    outputs = [p for pattern in ("*.json", "*.csv", "*.txt") for p in out.glob(pattern)]
    assert len(outputs) + 3 == 11
    assert f"verify: {len(outputs) + 3} hash stamps consistent" in capsys.readouterr().out


class TestExitCodes:
    def test_missing_config_file_is_io_error(self, tmp_path):
        assert run_cli("--config", tmp_path / "nope.cfg", "metrics") == EXIT_IO

    def test_bad_subcommand_is_validation(self):
        assert run_cli("frobnicate") == EXIT_VALIDATION

    @pytest.mark.parametrize("command", ["metrics", "simulate", "reconstruct", "wigner"])
    def test_locked_directory_is_io_error(self, tmp_path, config_path, command):
        out = tmp_path / "run"
        out.mkdir()
        (out / cli.LOCK_NAME).write_text("held")
        assert run_cli("--config", config_path, "--out", out, command) == EXIT_IO
        assert [p.name for p in out.iterdir()] == [cli.LOCK_NAME]
        assert (out / cli.LOCK_NAME).read_text() == "held"

    def test_verify_of_a_missing_directory_creates_nothing(self, tmp_path, config_path, capsys):
        out = tmp_path / "absent"
        assert run_cli("--config", config_path, "--out", out, "verify") == EXIT_VALIDATION
        assert "nothing to verify" in capsys.readouterr().err
        assert not out.exists()

    def test_module_entry_point(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = [sys.executable, "-m", "wernerlike"]
        done = subprocess.run(run + ["--out", str(tmp_path), "metrics"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert (tmp_path / "metrics.csv").is_file()
        done = subprocess.run(run + ["bogus"], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == EXIT_VALIDATION
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr

    def test_singular_system_maps_to_numerical_exit(self, monkeypatch, tmp_path, config_path):
        from wernerlike.tomography import SingularSystemError

        def boom(*args, **kwargs):
            raise SingularSystemError("synthetic failure")

        monkeypatch.setattr(cli.tomography, "reconstruct_full", boom)
        out = tmp_path / "run"
        run_cli("--config", config_path, "--out", out, "simulate")
        assert run_cli("--config", config_path, "--out", out, "reconstruct") == EXIT_NUMERICAL
