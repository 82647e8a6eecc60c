"""Finite-statistics acquisition: multinomial sampling per phase from a
mixture of components (one for the density backend, five for the trap
backend), frequency estimates, and the line-delimited JSON record format.

Each record is one (setting, phase) cell.  Counts with n > n_max land in an
overflow bin per spin outcome; overflow is recorded and excluded from the
inversion.  Cell variances follow the independent-Poissonian approximation
var[w_est] = w_est / events (the multinomial correction is negligible at the
rates used here and zero-count cells get zero variance).

A record is one JSON line, in this key order and with ", " and ": " as
separators:

    {"setting": {"theta": ., "phi_spin": ., "beta_abs": .}, "phase_index": .,
     "n_phases": ., "total_events": ., "seed": ., "counts_up": [...],
     "counts_down": [...], "overflow_up": ., "overflow_down": .}

``MeasurementRecord.to_json`` fills one fixed template instead of calling
``json.dumps`` on a dict, and must give the same bytes: a float field is
written by ``float.__repr__`` (so numpy's float64 writes as a plain number),
an int field by ``int.__repr__``, anything else by ``json.dumps``; a count
list is ``str`` of its integer array's ``tolist()``, and an overflow its
``int()``.  Record files are pinned byte for byte, so a change here is a
format change.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .fock import SPIN_DOWN, SPIN_UP
from .tomography import MarginalData, smeared_marginal_tables

__all__ = [
    "MeasurementRecord",
    "phase_generator",
    "sample_records",
    "simulate_acquisition",
    "write_records",
    "read_records",
    "estimate_marginals",
]


@dataclass
class MeasurementRecord:
    """Counts histogram over (spin outcome, excitation number) at one phase."""

    theta: float
    phi_spin: float
    beta_abs: float
    phase_index: int
    n_phases: int
    total_events: int
    seed: int
    counts_up: np.ndarray
    counts_down: np.ndarray
    overflow_up: int = 0
    overflow_down: int = 0

    def to_json(self):
        return _RECORD_LINE % (
            _json_scalar(self.theta),
            _json_scalar(self.phi_spin),
            _json_scalar(self.beta_abs),
            _json_scalar(self.phase_index),
            _json_scalar(self.n_phases),
            _json_scalar(self.total_events),
            _json_scalar(self.seed),
            np.asarray(self.counts_up).tolist(),
            np.asarray(self.counts_down).tolist(),
            int(self.overflow_up),
            int(self.overflow_down),
        )

    @classmethod
    def from_json(cls, line):
        """Parse one record line; every field is required, integer fields and
        counts must be JSON integers, setting angles and |beta| finite JSON
        numbers, and a missing or malformed field raises a ValueError naming
        it."""
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError(f"a record must be a JSON object, not {type(obj).__name__}")
        setting = _field(obj, "setting", dict)
        return cls(
            *[_field(setting, name, _number, "setting.") for name in _SETTING_FIELDS],
            *[_field(obj, name, convert) for name, convert in _RECORD_FIELDS],
        )


_RECORD_LINE = (
    '{"setting": {"theta": %s, "phi_spin": %s, "beta_abs": %s}, "phase_index": %s,'
    ' "n_phases": %s, "total_events": %s, "seed": %s, "counts_up": %s, "counts_down": %s,'
    ' "overflow_up": %d, "overflow_down": %d}'
)


def _json_scalar(value):
    # json.dumps(value) without its dispatch for the two types records hold;
    # it writes NaN and Infinity, which float.__repr__ does not
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _field(obj, name, convert, prefix=""):
    if name not in obj:
        raise ValueError(f"missing field '{prefix}{name}'")
    try:
        return convert(obj[name])
    except (OverflowError, TypeError, ValueError):
        raise ValueError(f"malformed field '{prefix}{name}': {obj[name]!r:.40}") from None


def _integer(value):
    # a JSON integer only: json.loads gives 2.9 as a float and true as a bool
    if type(value) is not int:
        raise ValueError("not an integer")
    return value


def _number(value):
    # a finite JSON number only: not a string, a bool or a non-finite constant
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError("not a finite number")
    return float(value)


def _count_list(value):
    if type(value) is not list or not set(map(type, value)) <= {int}:
        raise ValueError("not a list of integer counts")
    return np.array(value, dtype=np.int64)


#: the fields inside ``setting``, then the others, in MeasurementRecord's order
_SETTING_FIELDS = ("theta", "phi_spin", "beta_abs")
_RECORD_FIELDS = (
    ("phase_index", _integer),
    ("n_phases", _integer),
    ("total_events", _integer),
    ("seed", _integer),
    ("counts_up", _count_list),
    ("counts_down", _count_list),
    ("overflow_up", _integer),
    ("overflow_down", _integer),
)


def phase_generator(seed, setting_index, phase_index):
    """Deterministic per-phase generator; phases can be sampled in any order."""
    ss = np.random.SeedSequence(seed, spawn_key=(setting_index, phase_index))
    return np.random.Generator(np.random.PCG64(ss))


def sample_records(settings, events_per_phase, seed, setting_index, weights, window, overflow):
    """Sample one setting group of records from a mixture of k components.

    weights: (k,) mixture weights; window: (k, 2, n_phases, n_max+1) detected
    probabilities of each component; overflow: (k, 2, n_phases).  Per phase,
    one generator draws how many events each component gets, then one
    multinomial over each such component's cells: spin-up counts, spin-down
    counts, then the down and up overflow bins.
    """
    weights = np.asarray(weights, dtype=float)
    win = window.shape[-1]
    cells = np.concatenate(
        [window[:, SPIN_UP], window[:, SPIN_DOWN], np.swapaxes(overflow, 1, 2)], axis=-1
    )
    cells = np.clip(cells, 0.0, None)
    cells /= cells.sum(axis=-1, keepdims=True)
    counts = np.zeros(cells.shape[1:], dtype=np.int64)
    for j in range(settings.n_phases):
        rng = phase_generator(seed, setting_index, j)
        for c, runs in enumerate(rng.multinomial(events_per_phase, weights).tolist()):
            if runs:
                counts[j] += rng.multinomial(runs, cells[c, j])
    over = counts[:, 2 * win :].tolist()
    return [
        MeasurementRecord(
            theta=settings.theta,
            phi_spin=settings.phi_spin,
            beta_abs=settings.beta_abs,
            phase_index=j,
            n_phases=settings.n_phases,
            total_events=events_per_phase,
            seed=seed,
            counts_up=counts[j, :win],
            counts_down=counts[j, win : 2 * win],
            overflow_up=over[j][SPIN_UP],
            overflow_down=over[j][SPIN_DOWN],
        )
        for j in range(settings.n_phases)
    ]


def simulate_acquisition(state, settings, events_per_phase, seed, setting_index=0):
    """Sample one full setting group from the smeared forward model: a
    one-component mixture, whose weight draw takes no random numbers."""
    window, overflow = smeared_marginal_tables(state, settings)
    return sample_records(
        settings, events_per_phase, seed, setting_index, (1.0,), window[None], overflow[None]
    )


def write_records(path, records):
    """One record line per record, written in one call."""
    text = "".join([f"{rec.to_json()}\n" for rec in records])
    with open(path, "w") as fh:
        fh.write(text)


def read_records(path):
    """Records of a JSON-lines file; a bad line raises a ValueError naming its number."""
    with open(path) as fh:
        lines = fh.readlines()
    records = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                records.append(MeasurementRecord.from_json(line))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return records


def estimate_marginals(records):
    """Frequency estimates w_est = counts/events with var = w_est/events.

    Rejects, with a ValueError naming the phase index, records that mix
    settings or seeds, miss a phase, carry counts_up and counts_down of
    unequal length or negative counts, or whose counts plus overflow differ
    from total_events; and records with total_events < 1, which estimate
    nothing.
    """
    if not records:
        raise ValueError("no records given")
    first = records[0]
    win = len(first.counts_up)
    for rec in records:
        if len(rec.counts_up) != win or len(rec.counts_down) != win:
            raise ValueError(
                f"phase {rec.phase_index}: {len(rec.counts_up)} up and"
                f" {len(rec.counts_down)} down count cells, expected {win} each"
            )
        same = (
            rec.theta == first.theta
            and rec.phi_spin == first.phi_spin
            and rec.beta_abs == first.beta_abs
            and rec.n_phases == first.n_phases
            and rec.total_events == first.total_events
            and rec.seed == first.seed
        )
        if not same:
            raise ValueError(f"phase {rec.phase_index}: records mix different settings or seeds")
    seen = sorted(rec.phase_index for rec in records)
    if seen != list(range(first.n_phases)):
        missing = sorted(set(range(first.n_phases)) - set(seen))
        raise ValueError(f"incomplete phase coverage; missing phase indices {missing[:8]}")
    if first.total_events < 1:
        raise ValueError(f"total_events = {first.total_events}; a phase needs at least 1 event")
    # cells[s, j] holds the counts of spin outcome s at phase j, then its overflow
    cells = np.empty((2, first.n_phases, win + 1), dtype=np.int64)
    for rec in records:
        j = rec.phase_index
        cells[SPIN_UP, j, :win], cells[SPIN_DOWN, j, :win] = rec.counts_up, rec.counts_down
        cells[SPIN_UP, j, win], cells[SPIN_DOWN, j, win] = rec.overflow_up, rec.overflow_down
    negative = (cells < 0).any(axis=(0, 2))
    if negative.any():
        raise ValueError(f"phase {int(np.argmax(negative))}: negative counts")
    totals = cells.sum(axis=(0, 2))
    if np.any(totals != first.total_events):
        j = int(np.argmax(totals != first.total_events))
        raise ValueError(
            f"phase {j}: counts plus overflow sum to {totals[j]},"
            f" not total_events = {first.total_events}"
        )
    w = cells[..., :win] / first.total_events
    return MarginalData(
        theta=first.theta,
        phi_spin=first.phi_spin,
        beta_abs=first.beta_abs,
        n_phases=first.n_phases,
        w=w,
        variance=w / first.total_events,
    )
