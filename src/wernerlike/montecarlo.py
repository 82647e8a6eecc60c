"""Finite-statistics acquisition: multinomial sampling per phase, frequency
estimates, and the line-delimited JSON record format.

Each record is one (setting, phase) cell.  Counts with n > n_max land in an
overflow bin per spin outcome; overflow is recorded and excluded from the
inversion.  Cell variances follow the independent-Poissonian approximation
var[w_est] = w_est / events (the multinomial correction is negligible at the
rates used here and zero-count cells get zero variance).
"""

import json
from dataclasses import dataclass

import numpy as np

from .fock import SPIN_DOWN, SPIN_UP
from .tomography import MarginalData, smeared_marginal_tables

__all__ = [
    "MeasurementRecord",
    "phase_generator",
    "sample_phase_counts",
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

    @property
    def phase(self):
        return 2.0 * np.pi * self.phase_index / self.n_phases

    def to_json(self):
        return json.dumps(
            {
                "setting": {
                    "theta": self.theta,
                    "phi_spin": self.phi_spin,
                    "beta_abs": self.beta_abs,
                },
                "phase_index": self.phase_index,
                "n_phases": self.n_phases,
                "total_events": self.total_events,
                "seed": self.seed,
                "counts_up": [int(c) for c in self.counts_up],
                "counts_down": [int(c) for c in self.counts_down],
                "overflow_up": int(self.overflow_up),
                "overflow_down": int(self.overflow_down),
            }
        )

    @classmethod
    def from_json(cls, line):
        obj = json.loads(line)
        setting = obj["setting"]
        return cls(
            theta=float(setting["theta"]),
            phi_spin=float(setting["phi_spin"]),
            beta_abs=float(setting["beta_abs"]),
            phase_index=int(obj["phase_index"]),
            n_phases=int(obj["n_phases"]),
            total_events=int(obj["total_events"]),
            seed=int(obj["seed"]),
            counts_up=np.asarray(obj["counts_up"], dtype=np.int64),
            counts_down=np.asarray(obj["counts_down"], dtype=np.int64),
            overflow_up=int(obj.get("overflow_up", 0)),
            overflow_down=int(obj.get("overflow_down", 0)),
        )


def phase_generator(seed, setting_index, phase_index):
    """Deterministic per-phase generator; phases can be sampled in any order."""
    ss = np.random.SeedSequence(seed, spawn_key=(setting_index, phase_index))
    return np.random.Generator(np.random.PCG64(ss))


def sample_phase_counts(rng, events, window, overflow):
    """One multinomial draw over the (spin, count) cells plus overflow bins.

    window: (2, n_max+1) probabilities; overflow: (2,).  Returns
    (counts: (2, n_max+1), overflow_counts: (2,)).
    """
    win = window.shape[1]
    cells = np.concatenate([window[SPIN_UP], window[SPIN_DOWN], overflow])
    cells = np.clip(cells, 0.0, None)
    cells /= cells.sum()
    draw = rng.multinomial(events, cells)
    counts = np.zeros((2, win), dtype=np.int64)
    counts[SPIN_UP] = draw[:win]
    counts[SPIN_DOWN] = draw[win : 2 * win]
    return counts, np.array([draw[2 * win], draw[2 * win + 1]], dtype=np.int64)


def simulate_acquisition(state, settings, events_per_phase, seed, setting_index=0):
    """Sample one full setting group from the smeared forward model."""
    window, overflow = smeared_marginal_tables(state, settings)
    records = []
    for j in range(settings.n_phases):
        rng = phase_generator(seed, setting_index, j)
        counts, over = sample_phase_counts(
            rng, events_per_phase, window[:, j, :], overflow[:, j]
        )
        records.append(
            MeasurementRecord(
                theta=settings.theta,
                phi_spin=settings.phi_spin,
                beta_abs=settings.beta_abs,
                phase_index=j,
                n_phases=settings.n_phases,
                total_events=events_per_phase,
                seed=seed,
                counts_up=counts[SPIN_UP],
                counts_down=counts[SPIN_DOWN],
                overflow_up=int(over[SPIN_UP]),
                overflow_down=int(over[SPIN_DOWN]),
            )
        )
    return records


def write_records(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


def read_records(path):
    with open(path) as fh:
        return [MeasurementRecord.from_json(line) for line in fh if line.strip()]


def estimate_marginals(records):
    """Frequency estimates w_est = counts/events with var = w_est/events.

    Rejects, with a ValueError naming the phase index, records that mix
    settings or seeds, miss a phase, carry counts_up and counts_down of
    unequal length or negative counts, or whose counts plus overflow differ
    from total_events.
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
        events_per_phase=first.total_events,
    )
