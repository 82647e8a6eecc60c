"""One benchmark child process: set a workload up, run its ops, report.

run.py starts one of these at a time, from the repository root, with
PYTHONPATH=src and the BLAS thread cap in the environment:

    python3 perfbench/worker.py {setup,run} WORKLOAD --seed N --seconds S \\
        --trace {0,1} --result PATH

``setup`` only times the workload's set-up and exits.  ``run`` on
desk_pipeline is one CLI session in this fresh interpreter; on the sweeps it
is set-up followed by the closed loop of ops for ``--seconds`` (or, with
``--trace 1``, a fixed list of TRACE_OPS ops, each run traced and then
untraced).

Only the standard library is imported before the timed import of the
package, so set-up time includes numpy and scipy.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing

WORK = Path(".bench_build") / "perfbench"

#: Ops per traced sweep run; a fixed list, so the per-op counts repeat exactly.
TRACE_OPS = 16

#: The CLI's default seed; seed_sweep warms up on it and checks its records.
DEFAULT_SEED = 20260801

DESK_STAGES = (
    ("metrics", ("density", "metrics")),
    ("simulate", ("density", "simulate")),
    ("reconstruct", ("density", "reconstruct")),
    ("wigner", ("density", "wigner", "--source", "both")),
    ("verify", ("density", "verify")),
    ("simulate_trap", ("trap", "simulate")),
    ("reconstruct_trap", ("trap", "reconstruct")),
)


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def desk_session(args, tracer):
    """One fresh-interpreter CLI session; checks run after the timing."""
    t0 = time.perf_counter()
    from wernerlike import cli

    setup_s = time.perf_counter() - t0
    if args.role == "setup":
        return {"setup_s": setup_s}
    # The CLI runs at one of the seeds with golden records.
    seeds = sorted(int(s) for s in checks.GOLDEN["records"])
    seed = seeds[args.seed % len(seeds)]
    workdir = Path(tempfile.mkdtemp(prefix="desk-", dir=WORK))
    dirs = {"density": workdir / "density", "trap": workdir / "trap"}
    trap_config = workdir / "trap.cfg"
    trap_config.write_text("backend = trap\n")
    stages = {}
    failures = []
    if tracer:
        tracer.install()
        tracer.op = 0
    try:
        for stage, (backend, *command) in DESK_STAGES:
            argv = ["--seed", str(seed), "--out", str(dirs[backend])]
            if backend == "trap":
                argv += ["--config", str(trap_config)]
            span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span, contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv + command)
            except Exception as exc:  # the session fails; later stages need this one
                failures.append(f"{stage} raised {exc!r}")
                break
            stages[stage] = time.perf_counter() - start
            if code != 0:
                failures.append(f"{stage} exited with code {code}")
        session_s = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
    try:
        failures += checks.check_records(dirs["density"], seed, "density")
        failures += checks.check_records(dirs["trap"], seed, "trap")
        failures += checks.check_alpha_star(dirs["density"] / "metrics_meta.json")
        failures += checks.check_wigner_true(dirs["density"], cli.RunConfig().alpha)
    except (OSError, KeyError, ValueError) as exc:
        failures.append(f"cannot check the session outputs: {exc!r}")
    shutil.rmtree(workdir)
    return {
        "setup_s": setup_s,
        "op_s": [session_s],
        "attempted": 1,
        "failed": 1 if failures else 0,
        "failures": failures,
        "rss_mb": peak_rss_mb(),
        "detail": {"session_seed": seed, "stages_s": stages},
    }


def trace_distance(estimate, truth, cdim):
    """Trace distance of the 2d x 2d estimate to the truth's d x d window."""
    import numpy as np

    window = type(truth).from_blocks(truth.uu[:cdim, :cdim], truth.ud[:cdim, :cdim],
                                     truth.dd[:cdim, :cdim])
    diff = estimate.to_state().to_matrix() - window.to_matrix()
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


class SeedSweep:
    """Library use at the default design, one op per sampled seed."""

    def __init__(self, workdir):
        from wernerlike import cli, montecarlo, tomography

        self.montecarlo, self.tomography = montecarlo, tomography
        self.config = cli.RunConfig()
        self.truth = self.config.truth_state()
        self.workdir = workdir
        self.warmup_input = DEFAULT_SEED

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            value = rng.randrange(2**32)
            if value != self.warmup_input:
                yield value

    def op(self, seed):
        mc, tomo, config = self.montecarlo, self.tomography, self.config
        datas, read_back = [], []
        for index, angles in enumerate(tomo.standard_setting_angles()):
            records = mc.simulate_acquisition(self.truth, config.settings(*angles),
                                              config.events_per_phase, seed,
                                              setting_index=index)
            path = self.workdir / f"records_g{index}.jsonl"
            mc.write_records(path, records)
            records = mc.read_records(path)
            read_back.append(records)
            datas.append(mc.estimate_marginals(records))
        estimate = tomo.reconstruct_full(datas, config.settings())
        report = tomo.error_report(estimate, self.truth)
        distance = trace_distance(estimate, self.truth, config.n_cutoff + 1)
        return {"records": read_back, "report": report, "trace_distance": distance}

    def check(self, outcome):
        problems = [p for records in outcome["records"]
                    for p in checks.check_record_counts(records)]
        if not math.isfinite(outcome["trace_distance"]):
            problems.append("trace distance is not finite")
        return problems

    def check_warmup(self, outcome):
        return self.check(outcome) + checks.check_records(self.workdir, DEFAULT_SEED, "density")

    @staticmethod
    def digest(outcome):
        return {"trace_distance": outcome["trace_distance"],
                "pooled_within_3sigma": outcome["report"]["pooled_within_3sigma"]}

    @staticmethod
    def summary(digests):
        return {f"{key}_median": statistics.median(d[key] for d in digests)
                for key in ("trace_distance", "pooled_within_3sigma")}


class DesignScan:
    """Noiseless inversion over cutoffs, efficiencies and drawn |beta|."""

    N_CUTOFFS = (6, 8, 10, 12, 16, 20, 24, 31)
    ETAS = (0.9, 1.0)
    BETA_RANGE = (0.3, 1.2)

    def __init__(self, workdir):
        from wernerlike import cli, tomography

        self.tomography = tomography
        self.config = cli.RunConfig()
        self.truth = self.config.truth_state()
        # The original function's cache, reachable while the tracer wraps it.
        self.clear_cache = getattr(tomography.inversion_systems, "cache_clear", lambda: None)
        self.warmup_input = (14, 0.95, 0.75)

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            for n_cutoff in self.N_CUTOFFS:
                for eta in self.ETAS:
                    yield n_cutoff, eta, rng.uniform(*self.BETA_RANGE)

    def op(self, design):
        tomo = self.tomography
        n_cutoff, eta, beta_abs = design
        settings = tomo.TomographySettings(
            theta=0.0, phi_spin=0.0, beta_abs=beta_abs, n_phases=self.config.n_phases,
            n_max=self.config.n_max, n_cutoff=n_cutoff, eta=eta)
        datas = [tomo.exact_marginal_data(self.truth, settings.with_angles(*angles))
                 for angles in tomo.standard_setting_angles()]
        systems = tomo.inversion_systems(settings)
        estimate = tomo.reconstruct_full(datas, settings, systems)
        report = tomo.error_report(estimate, self.truth)
        # Every |beta| is new, so a cached entry is never reused; dropping it
        # keeps memory independent of how many designs a run completes.
        self.clear_cache()
        return {"n_cutoff": n_cutoff, "report": report}

    def check(self, outcome):
        return checks.check_design(outcome["report"], self.config.alpha, outcome["n_cutoff"])

    check_warmup = check

    def digest(self, outcome):
        worst = max(outcome["report"][b]["max_abs_error"] for b in ("uu", "dd", "ud"))
        return worst / checks.design_tolerance(self.config.alpha, outcome["n_cutoff"])

    @staticmethod
    def summary(digests):
        return {"worst_error_over_tolerance": max(digests)}


SWEEPS = {"seed_sweep": SeedSweep, "design_scan": DesignScan}


def timed(workload, item):
    """(seconds, outcome) of one op; a raised exception is the outcome."""
    start = time.perf_counter()
    try:
        outcome = workload.op(item)
    except Exception as exc:  # a failed op is counted, and the loop goes on
        outcome = exc
    return time.perf_counter() - start, outcome


def run_ops(workload, plan, tracer=None):
    """Time each op of ``plan``; checks run outside the timed interval, and
    only a digest of each outcome is kept, so memory does not grow.

    With a tracer, each op first runs traced and then untraced, so the
    overhead compares the two under the same host conditions; the untraced
    time is the op's latency.
    """
    latencies, traced, digests, failures = [], [], [], []
    failed = 0
    for item in plan:
        if tracer:
            tracer.op = 0 if tracer.op is None else tracer.op + 1
            tracer.install()
            try:
                with tracer.span("bench.op"):
                    traced.append(timed(workload, item)[0])
            finally:
                tracer.uninstall()
        seconds, outcome = timed(workload, item)
        latencies.append(seconds)
        if isinstance(outcome, Exception):
            problems = [repr(outcome)]
        else:
            problems = workload.check(outcome)
            digests.append(workload.digest(outcome))
        failed += bool(problems)
        failures += [f"op {item!r}: {p}" for p in problems]
    return latencies, traced, digests, failed, failures


def until(deadline, items):
    for item in items:
        if time.perf_counter() >= deadline:
            return
        yield item


def sweep(args, tracer):
    t0 = time.perf_counter()
    import wernerlike.cli  # noqa: F401  (the timed import)

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = SWEEPS[args.workload](workdir)
        warmup = workload.op(workload.warmup_input)
        setup_s = time.perf_counter() - t0
        failures = [f"warm-up: {p}" for p in workload.check_warmup(warmup)]
        if args.role == "setup":
            return {"setup_s": setup_s, "attempted": 1, "failed": int(bool(failures)),
                    "failures": failures}
        inputs = workload.inputs(args.seed)
        if tracer:
            plan = itertools.islice(inputs, TRACE_OPS)
        else:
            plan = until(time.perf_counter() + args.seconds, inputs)
        latencies, traced, digests, failed, more = run_ops(workload, plan, tracer)
    finally:
        shutil.rmtree(workdir)
    result = {
        "setup_s": setup_s,
        "op_s": latencies,
        "attempted": 1 + len(latencies),
        "failed": int(bool(failures)) + failed,
        "failures": failures + more,
        "rss_mb": peak_rss_mb(),
        "detail": workload.summary(digests) if digests else {},
    }
    if tracer:
        result["trace_overhead"] = sum(traced) / sum(latencies) - 1.0
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "run"))
    parser.add_argument("workload", choices=("desk_pipeline", *SWEEPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    WORK.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace and args.role == "run" else None
    if args.workload == "desk_pipeline":
        result = desk_session(args, tracer)
    else:
        result = sweep(args, tracer)
    result["env"] = environment()
    if tracer:
        stats = tracing.layer_stats(tracer.spans)
        ops = len({span["op"] for span in tracer.spans})
        result["layers"] = {"ops": ops, "stats": stats}
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        result["spans_file"] = str(spans_path)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
