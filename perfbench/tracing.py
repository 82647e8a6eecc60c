"""Call spans for the traced benchmark run, recorded from outside the program.

``Tracer.install`` wraps every public function of the wernerlike modules
listed in MODULES, in every module namespace that binds it, so
``tomography.displaced_support`` is traced as well as
``fock.displaced_support``.  Each call becomes a span (name, start, end,
parent span, op id, counts) kept in memory; ``layer_stats`` turns the spans
into per-layer calls, busy time and self time.

A layer's busy time is the summed duration of its outermost spans; its self
time is each span's duration minus the part of that interval its child spans
cover.
"""

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("fock", "states", "tomography", "montecarlo", "trapsim", "wigner", "cli")

# The benchmark opens its own ``cli.<stage>`` span around each CLI call, which
# stands for these entry points; wrapping them too would move the stage's
# self time into them.
UNWRAPPED = frozenset({"cli.main", "cli.run"})


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _grid_counts(args, kwargs, grid):
    points = grid.re_axis.size * grid.im_axis.size
    state_dim = grid.meta["state_dim"]
    return {
        "points": points,
        "kernel_elements": points * state_dim * grid.meta.get("parity_dim", state_dim),
    }


#: Work counts taken at a layer boundary from the call's arguments and result.
COUNTERS = {
    "fock.displacement_amplitudes_batch": lambda args, kwargs, out: {"elements": int(out.size)},
    "wigner.wigner_grid": _grid_counts,
    "wigner.write_grid_csv": _file_bytes,
    "montecarlo.write_records": _file_bytes,
    "montecarlo.read_records": _file_bytes,
    "tomography.write_estimate_json": _file_bytes,
    "tomography.load_estimate_json": _file_bytes,
}


#: (metric, unit, better, layer, field) reported per op by ``--trace 1``.
#: ``child_calls`` of displaced_support counts the kernel probes its search
#: makes; ``hits``/``misses`` come from the function's own ``cache_info()``.
PER_LAYER = (
    ("wigner.wigner_grid.busy_s", "s", "lower", "wigner.wigner_grid", "busy_s"),
    ("wigner.wigner_grid.points", "count", "lower", "wigner.wigner_grid", "points"),
    ("wigner.wigner_grid.kernel_elements", "count", "lower", "wigner.wigner_grid",
     "kernel_elements"),
    ("wigner.write_grid_csv.busy_s", "s", "lower", "wigner.write_grid_csv", "busy_s"),
    ("wigner.write_grid_csv.bytes", "bytes", "lower", "wigner.write_grid_csv", "bytes"),
    ("fock.displacement_amplitudes_batch.calls", "count", "lower",
     "fock.displacement_amplitudes_batch", "calls"),
    ("fock.displacement_amplitudes_batch.busy_s", "s", "lower",
     "fock.displacement_amplitudes_batch", "busy_s"),
    ("fock.displacement_amplitudes_batch.elements", "count", "lower",
     "fock.displacement_amplitudes_batch", "elements"),
    ("fock.displacement_matrix.calls", "count", "lower", "fock.displacement_matrix", "calls"),
    ("fock.displacement_matrix.busy_s", "s", "lower", "fock.displacement_matrix", "busy_s"),
    ("fock.displaced_support.calls", "count", "lower", "fock.displaced_support", "calls"),
    ("fock.displaced_support.busy_s", "s", "lower", "fock.displaced_support", "busy_s"),
    ("fock.displaced_support.probes", "count", "lower", "fock.displaced_support",
     "child_calls"),
    ("tomography.ideal_marginal_tables.calls", "count", "lower",
     "tomography.ideal_marginal_tables", "calls"),
    ("tomography.ideal_marginal_tables.busy_s", "s", "lower",
     "tomography.ideal_marginal_tables", "busy_s"),
    ("tomography.smeared_marginal_tables.calls", "count", "lower",
     "tomography.smeared_marginal_tables", "calls"),
    ("tomography.smeared_marginal_tables.busy_s", "s", "lower",
     "tomography.smeared_marginal_tables", "busy_s"),
    ("tomography.inversion_systems.hits", "count", "higher", "tomography.inversion_systems",
     "hits"),
    ("tomography.inversion_systems.misses", "count", "lower", "tomography.inversion_systems",
     "misses"),
    ("tomography.inversion_systems.busy_s", "s", "lower", "tomography.inversion_systems",
     "busy_s"),
    ("tomography.reconstruct_hermitian.calls", "count", "lower",
     "tomography.reconstruct_hermitian", "calls"),
    ("tomography.reconstruct_hermitian.busy_s", "s", "lower",
     "tomography.reconstruct_hermitian", "busy_s"),
    ("tomography.error_report.busy_s", "s", "lower", "tomography.error_report", "busy_s"),
    ("tomography.write_estimate_json.busy_s", "s", "lower", "tomography.write_estimate_json",
     "busy_s"),
    ("tomography.write_estimate_json.bytes", "bytes", "lower",
     "tomography.write_estimate_json", "bytes"),
    ("tomography.load_estimate_json.busy_s", "s", "lower", "tomography.load_estimate_json",
     "busy_s"),
    ("tomography.load_estimate_json.bytes", "bytes", "lower", "tomography.load_estimate_json",
     "bytes"),
    ("montecarlo.simulate_acquisition.self_s", "s", "lower", "montecarlo.simulate_acquisition",
     "self_s"),
    ("montecarlo.write_records.busy_s", "s", "lower", "montecarlo.write_records", "busy_s"),
    ("montecarlo.write_records.bytes", "bytes", "lower", "montecarlo.write_records", "bytes"),
    ("montecarlo.read_records.busy_s", "s", "lower", "montecarlo.read_records", "busy_s"),
    ("montecarlo.read_records.bytes", "bytes", "lower", "montecarlo.read_records", "bytes"),
    ("montecarlo.estimate_marginals.busy_s", "s", "lower", "montecarlo.estimate_marginals",
     "busy_s"),
    ("trapsim.simulate_trap_acquisition.self_s", "s", "lower",
     "trapsim.simulate_trap_acquisition", "self_s"),
    ("trapsim.component_state.calls", "count", "lower", "trapsim.component_state", "calls"),
    ("states.metric_sweep.busy_s", "s", "lower", "states.metric_sweep", "busy_s"),
    ("states.fidelity_threshold.busy_s", "s", "lower", "states.fidelity_threshold", "busy_s"),
    ("states.build_hybrid_mixture.busy_s", "s", "lower", "states.build_hybrid_mixture",
     "busy_s"),
    ("cli.metrics.self_s", "s", "lower", "cli.metrics", "self_s"),
    ("cli.simulate.self_s", "s", "lower", "cli.simulate", "self_s"),
    ("cli.reconstruct.self_s", "s", "lower", "cli.reconstruct", "self_s"),
    ("cli.wigner.self_s", "s", "lower", "cli.wigner", "self_s"),
    ("cli.verify.self_s", "s", "lower", "cli.verify", "self_s"),
    ("cli.simulate_trap.self_s", "s", "lower", "cli.simulate_trap", "self_s"),
    ("cli.reconstruct_trap.self_s", "s", "lower", "cli.reconstruct_trap", "self_s"),
)


class Tracer:
    """Spans kept in memory; ``op`` tags the spans of the op being run."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def _open(self, name):
        self.spans.append({
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        })
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = cache_info() if cache_info else None
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            counts = self.spans[index]["counts"]
            if before is not None:
                after = cache_info()
                counts["hits"] = after.hits - before.hits
                counts["misses"] = after.misses - before.misses
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result

        wrapper.traced_name = name
        return wrapper

    def install(self):
        """Wrap the public functions of MODULES wherever they are bound."""
        package = importlib.import_module("wernerlike")
        modules = [importlib.import_module(f"wernerlike.{m}") for m in MODULES]
        namespaces = [package, *modules]
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED or inspect.isclass(fn)
                        or not callable(fn) or hasattr(fn, "traced_name")
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)
                            self._patches.append((ns, key, fn))

    def uninstall(self):
        while self._patches:
            ns, key, fn = self._patches.pop()
            setattr(ns, key, fn)


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_stats(spans):
    """Per span name: calls, busy_s, self_s, child_calls and summed counts."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(index)
    stats = {}
    for index, span in enumerate(spans):
        name = span["name"]
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "child_calls": 0})
        duration = span["end"] - span["start"]
        kids = [(spans[k]["start"], spans[k]["end"]) for k in children[index]]
        entry["calls"] += 1
        entry["child_calls"] += len(kids)
        entry["self_s"] += duration - _covered(span["start"], span["end"], kids)
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent is None:
            entry["busy_s"] += duration
        for key, value in span["counts"].items():
            entry[key] = entry.get(key, 0) + value
    return stats


def per_layer_metrics(stats, ops):
    """The PER_LAYER metrics as per-op values; layers never called read 0."""
    return {
        metric: {"value": stats.get(layer, {}).get(field, 0) / ops, "unit": unit}
        for metric, unit, _, layer, field in PER_LAYER
    }
