"""Benchmark runner for wernerlike: three closed-loop workloads, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload {desk_pipeline,seed_sweep,design_scan} \\
        --seed N --seconds S --trace {0,1}

The runner starts one child interpreter (worker.py) at a time with
PYTHONPATH=src and the BLAS threads capped at BLAS_THREADS.  It first times
SETUP_REPEATS set-ups in children of their own, then measures:

* desk_pipeline: fresh-interpreter CLI sessions, back to back, until
  ``--seconds`` have passed;
* seed_sweep, design_scan: one child that sets up and loops over ops for
  ``--seconds``.

Every op's outputs are checked (see checks.py); a failed check counts as a
failed op.  The last line of standard output is the result object; the lines
before it are a JSON report with the run environment, the per-stage and
per-layer detail and any failures.  ``--trace 1`` reports the per-layer
metrics of tracing.PER_LAYER instead of the end-to-end ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
WORKLOADS = ("desk_pipeline", "seed_sweep", "design_scan")
SETUP_REPEATS = 6
CHILD_TIMEOUT_S = 150
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One thread: with two, a BLAS call stalls whenever another process holds one
# of the CPUs (design_scan ran 2.3x slower on 2 vCPUs with one busy, against
# no change with one thread), while an idle 2-vCPU host gained at most 12 %.
BLAS_THREADS = 1


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_environment(root, threads):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_VARIABLES:
        env[name] = str(threads)
    return env


def git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Children:
    """Starts worker.py children one at a time and collects their results."""

    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.env = child_environment(root, BLAS_THREADS)
        self.work = root / ".bench_build" / "perfbench"
        self.work.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def run(self, role, trace=0):
        self.count += 1
        result_path = self.work / f"result-{os.getpid()}-{self.count}.json"
        command = [sys.executable, str(HERE / "worker.py"), role, self.args.workload,
                   "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
                   "--trace", str(trace), "--result", str(result_path)]
        try:
            proc = subprocess.run(command, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{role} child did not finish within {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0 or not result_path.exists():
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            raise BenchError(f"{role} child exited with code {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        return result


def latency_summary(samples):
    """Minimum, median, the highest percentile with at least ten samples
    beyond it (the maximum when there are ten samples or fewer), and the
    throughput of the closed loop."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > 10:
        tail, percentile = ordered[n - 11], 100.0 * (n - 10) / n
    else:
        tail, percentile = ordered[-1], 100.0
    return {"min_s": ordered[0], "median_s": statistics.median(ordered), "tail_s": tail,
            "tail_percentile": percentile, "samples": n, "ops_per_s": n / sum(ordered)}


def measure(children, args):
    """Untraced runs; returns (timed child results, setup results)."""
    setups = [children.run("setup") for _ in range(SETUP_REPEATS)]
    if args.workload != "desk_pipeline":
        return [children.run("run")], setups
    sessions = []
    start = time.perf_counter()
    while not sessions or time.perf_counter() - start < args.seconds:
        sessions.append(children.run("run"))
    return sessions, setups


def traced(children, args):
    """A traced run plus the untraced twin its overhead is measured against."""
    if args.workload == "desk_pipeline":
        result = children.run("run", trace=1)
        untraced = children.run("run")
        result["trace_overhead"] = result["op_s"][0] / untraced["op_s"][0] - 1.0
        return [result, untraced]
    return [children.run("run", trace=1)]


def report(args, root, runs, setups):
    everything = runs + setups
    attempted = sum(r.get("attempted", 0) for r in everything)
    failed = sum(r.get("failed", 0) for r in everything)
    failures = [f for r in everything for f in r.get("failures", [])]
    latency = latency_summary([t for r in runs for t in r["op_s"]])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {**runs[0]["env"], "nproc": nproc(), "blas_thread_cap": BLAS_THREADS,
                "git_commit": git_commit(root)},
        "setup_s_samples": [r["setup_s"] for r in everything],
        "op_latency": latency,
        "failures": failures[:20],
    }
    if args.workload == "desk_pipeline":
        stages = [r["detail"]["stages_s"] for r in runs]
        detail["session_seed"] = runs[0]["detail"]["session_seed"]
        names = dict.fromkeys(name for st in stages for name in st)
        detail["stages_s"] = {s: statistics.median(st[s] for st in stages if s in st)
                              for s in names}
        detail["pipeline_s"] = statistics.median(sum(st.values()) for st in stages)
    else:
        detail.update(runs[0]["detail"])
    if args.trace:
        layers = runs[0]["layers"]
        stats = layers["stats"]
        detail["trace_overhead"] = runs[0]["trace_overhead"]
        detail["spans_file"] = runs[0]["spans_file"]
        detail["traced_ops"] = layers["ops"]
        detail["layers_per_op"] = {
            name: {k: v / layers["ops"] for k, v in entry.items()}
            for name, entry in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])
        }
        metrics = tracing.per_layer_metrics(stats, layers["ops"])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(detail["setup_s_samples"]), "unit": "s"},
            "peak_rss_mb": {"value": max(r["rss_mb"] for r in runs), "unit": "MB"},
            "op_tail_s": {"value": latency["tail_s"], "unit": "s"},
        }
    print(json.dumps(detail, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "wernerlike" / "cli.py").is_file():
        print("error: src/wernerlike not found; run from the repository root",
              file=sys.stderr)
        return 2
    children = Children(root, args)
    try:
        if args.trace:
            runs, setups = traced(children, args), []
        else:
            runs, setups = measure(children, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args, root, runs, setups)
    return 0


if __name__ == "__main__":
    sys.exit(main())
