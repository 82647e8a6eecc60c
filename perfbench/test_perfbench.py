"""Tests of the benchmark's own checks, tracer and span arithmetic.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
from pathlib import Path

import checks
import tracing
from wernerlike import cli, fock, montecarlo, tomography

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0


def test_flipped_record_count_fails_golden_check(tmp_path):
    run_cli("--out", str(tmp_path), "simulate")
    seed = cli.RunConfig().seed
    assert checks.check_records(tmp_path, seed, "density") == []
    path = tmp_path / "records_g1.jsonl"
    lines = path.read_text().splitlines()
    record = montecarlo.MeasurementRecord.from_json(lines[5])
    record.counts_up[0] += 1
    lines[5] = record.to_json()
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check_records(tmp_path, seed, "density")
    assert len(problems) == 1 and "records_g1.jsonl" in problems[0]
    assert checks.check_record_counts([record])


def test_perturbed_wigner_value_fails_check(tmp_path):
    run_cli("--out", str(tmp_path), "wigner", "--spacing", "0.5")
    alpha = cli.RunConfig().alpha
    assert checks.check_wigner_true(tmp_path, alpha) == []
    path = tmp_path / "wigner_true.csv"
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("-0.5,0,uu,"))
    fields = lines[row].split(",")
    fields[3] = repr(float(fields[3]) + 10 * checks.WIGNER_VALUE_TOL)
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    problems = checks.check_wigner_true(tmp_path, alpha)
    assert len(problems) == 1 and "uu" in problems[0]


def test_wigner_integral_off_the_trace_fails_check(tmp_path):
    run_cli("--out", str(tmp_path), "wigner", "--spacing", "0.5")
    meta_path = tmp_path / "wigner_meta.json"
    meta = json.loads(meta_path.read_text())
    meta["true"]["normalization"]["dd"]["integral"][0] += 2 * checks.WIGNER_TRACE_TOL
    meta_path.write_text(json.dumps(meta))
    problems = checks.check_wigner_true(tmp_path, cli.RunConfig().alpha)
    assert len(problems) == 1 and "dd" in problems[0]


def test_design_tolerance_covers_noiseless_estimate():
    truth = cli.RunConfig().truth_state()
    settings = tomography.TomographySettings(
        theta=0.0, phi_spin=0.0, beta_abs=0.3, n_phases=96, n_max=31, n_cutoff=6, eta=1.0)
    datas = [tomography.exact_marginal_data(truth, settings.with_angles(*angles))
             for angles in tomography.standard_setting_angles()]
    report = tomography.error_report(tomography.reconstruct_full(datas, settings), truth)
    assert checks.check_design(report, 0.7, 6) == []
    assert checks.check_design(report, 0.7, 10)


def span(name, start, end, parent):
    return {"name": name, "op": 0, "parent": parent, "start": start, "end": end, "counts": {}}


def test_self_time_arithmetic_on_nested_trace():
    spans = [
        span("a", 0.0, 10.0, None),  # 0: children cover [1, 4] and [5, 9]
        span("b", 1.0, 4.0, 0),      # 1: child c covers [2, 3]
        span("c", 2.0, 3.0, 1),      # 2
        span("b", 5.0, 9.0, 0),      # 3: recursive child b covers [6, 7]
        span("b", 6.0, 7.0, 3),      # 4
        span("d", 11.0, 15.0, None),  # 5: overlapping children cover [12, 14]
        span("e", 12.0, 13.5, 5),    # 6
        span("e", 13.0, 14.0, 5),    # 7
    ]
    stats = tracing.layer_stats(spans)
    assert stats["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0, "child_calls": 2}
    # busy time counts only the outermost b spans; self time counts every one
    assert stats["b"] == {"calls": 3, "busy_s": 7.0, "self_s": 6.0, "child_calls": 2}
    assert stats["c"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0, "child_calls": 0}
    assert stats["d"]["self_s"] == 2.0
    assert stats["e"]["busy_s"] == 2.5
    metrics = tracing.per_layer_metrics({"cli.wigner": stats["a"]}, ops=2)
    assert metrics["cli.wigner.self_s"] == {"value": 1.5, "unit": "s"}
    assert metrics["wigner.wigner_grid.busy_s"]["value"] == 0


def test_tracer_wraps_every_binding_and_restores_them():
    original = fock.displaced_support
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tomography.displaced_support is fock.displaced_support is not original
        truth = cli.RunConfig().truth_state()
        tomography.smeared_marginal_tables(truth, cli.RunConfig().settings())
    finally:
        tracer.uninstall()
    assert tomography.displaced_support is fock.displaced_support is original
    stats = tracing.layer_stats(tracer.spans)
    assert stats["fock.displaced_support"]["calls"] == 1
    assert stats["fock.displaced_support"]["child_calls"] >= 1
    assert stats["fock.displacement_amplitudes_batch"]["elements"] > 0
    parents = {tracer.spans[s["parent"]]["name"] for s in tracer.spans
               if s["name"] == "fock.displaced_support"}
    assert parents == {"tomography.smeared_marginal_tables"}


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [(name, unit, better) for name, unit, better, _, _ in tracing.PER_LAYER]
