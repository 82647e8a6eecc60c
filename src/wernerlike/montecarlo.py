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
an integral field other than a bool (a numpy integer too) by ``int.__repr__``
of its ``int()``, anything else by ``json.dumps``; a count list is ``str`` of
its integer array's ``tolist()``.  Record files are pinned byte for byte, so a
change here is a format change.

Phase j of setting group g draws from its own stream: the PCG64 generator
seeded by ``SeedSequence(seed, spawn_key=(g, j))``, so phases can be sampled
in any order.  ``sample_records`` computes every phase's PCG64 state of a
group in one vectorised pass of SeedSequence's hash and draws them all from
one reused generator; the record hashes in ``perfbench/golden.json`` pin
this contract for both backends.  Seeds are non-negative integers, the only
ones a record line can carry.
"""

import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .fock import SPIN_DOWN, SPIN_UP
from .tomography import MarginalData, _entry, smeared_marginal_tables

__all__ = [
    "MeasurementRecord",
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
    overflow_up: int
    overflow_down: int

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
            _json_scalar(self.overflow_up),
            _json_scalar(self.overflow_down),
        )

    @classmethod
    def from_json(cls, line):
        """Parse one line by ``read_records``' checks: every field required,
        integer fields and counts JSON integers, setting angles and |beta|
        finite JSON numbers, counts and overflow within int64; a missing or
        malformed field raises a ValueError naming it."""
        return _walked_record(json.loads(line))


_RECORD_LINE = (
    '{"setting": {"theta": %s, "phi_spin": %s, "beta_abs": %s}, "phase_index": %s,'
    ' "n_phases": %s, "total_events": %s, "seed": %s, "counts_up": %s, "counts_down": %s,'
    ' "overflow_up": %s, "overflow_down": %s}'
)


def _json_scalar(value):
    # json.dumps(value) without its dispatch for the numbers records hold: an
    # integral number other than a bool (a numpy integer too) writes as its
    # int, a finite float by its repr, anything else (NaN and Infinity too) by
    # json.dumps; the first test is the third's fast path
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int.__repr__(int(value))
    return json.dumps(value)


def _walked_record(obj):
    # the checks of read_records applied to one line, field by field: the
    # first missing or malformed field is named
    return MeasurementRecord(
        *[_entry(obj, name, lambda value, check=check: check([value])[0])
          for name, check in _FIELDS]
    )


def _numbers(column):
    # finite JSON numbers only: not a string, a bool or a non-finite constant
    if not {*map(type, column)} <= {int, float} or not all(map(math.isfinite, column)):
        raise ValueError("not finite numbers")
    return list(map(float, column))


def _integers(column):
    # JSON integers only: json.loads gives 2.9 as a float and true as a bool
    if not {*map(type, column)} <= {int}:
        raise ValueError("not integers")
    return column


def _int64s(column):
    # integers that fit int64, as the counts must: the array raises OverflowError
    np.array(_integers(column), dtype=np.int64)
    return column


def _count_lists(column):
    # lists of int64 counts, of any lengths: one array, cut into one view per list
    if not {*map(type, column)} <= {list}:
        raise ValueError("not lists of integer counts")
    flat = np.array(_integers(list(itertools.chain.from_iterable(column))), dtype=np.int64)
    ends = list(itertools.accumulate(map(len, column), initial=0))
    return [flat[start:stop] for start, stop in itertools.pairwise(ends)]


#: every field of a record line, dotted into ``setting``, with the check of
#: its kind, in MeasurementRecord's order; a check takes a column of values
#: and returns it converted, or raises
_FIELDS = (
    *[(f"setting.{name}", _numbers) for name in ("theta", "phi_spin", "beta_abs")],
    *[(name, _integers) for name in ("phase_index", "n_phases", "total_events", "seed")],
    ("counts_up", _count_lists), ("counts_down", _count_lists),
    ("overflow_up", _int64s), ("overflow_down", _int64s),
)


def _column(objs, name):
    # the values of one dotted field over all lines; KeyError or TypeError if one lacks it
    column = objs
    for part in name.split("."):
        column = [obj[part] for obj in column]
    return column


#: numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
#: PCG64's 128-bit LCG multiplier, which ``_phase_states`` reproduces
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _int_argument(value, name, least=0):
    # a numpy integer becomes an int; None, bools, floats and values below least are refused
    if isinstance(value, np.integer):
        value = int(value)
    if type(value) is not int or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, not {value!r}")
    return value


def _words(n):
    # a non-negative int as SeedSequence splits it: little-endian uint32 words
    words = []
    while True:
        words.append(n & _MASK32)
        n >>= 32
        if not n:
            return words


def _phase_states(seed, setting_index, n_phases):
    """The PCG64 (state, inc) of every phase j < n_phases: those of
    ``PCG64(SeedSequence(seed, spawn_key=(setting_index, j)))``.

    SeedSequence hashes its entropy words into a pool of four: the seed's
    words padded with zeros to four, the setting index's words, then j's one
    word.  Only the last word varies over a group, so the others mix once as
    Python ints masked to 32 bits and j mixes in as a uint32 array, whose
    products wrap.  The pool then hashes into two 128-bit words, a seed and
    an increment, and PCG64 seeds itself with two LCG steps.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
        return value ^ value >> 16

    entropy = _words(seed)
    entropy += [0] * (4 - len(entropy)) + _words(setting_index)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in [*entropy[4:], np.arange(n_phases, dtype=np.uint32)]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    halves = []
    for k in range(8):
        value = pool[k % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        halves.append((value ^ value >> 16).astype(np.uint64))
    # four uint64 words per phase: seed high, seed low, increment high, low
    words = [(halves[2 * i] | halves[2 * i + 1] << 32).tolist() for i in range(4)]
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(*words):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def sample_records(settings, events_per_phase, seed, setting_index, weights, window, overflow):
    """Sample one setting group of records from a mixture of k components.

    weights: (k,) mixture weights; window: (k, 2, n_phases, n_max+1) detected
    probabilities of each component; overflow: (k, 2, n_phases).  Per phase,
    the phase's stream draws how many events each component gets, then one
    multinomial over each component's cells (no random numbers for no events):
    spin-up counts, spin-down counts, then the down and up overflow bins.  seed
    and setting_index must be non-negative integers and events_per_phase a
    positive one (a numpy integer is taken as its int); any other value raises
    a ValueError before a draw.
    """
    events_per_phase = _int_argument(events_per_phase, "events_per_phase", least=1)
    seed = _int_argument(seed, "seed")
    setting_index = _int_argument(setting_index, "setting_index")
    weights = np.asarray(weights, dtype=float)
    win = window.shape[-1]
    cells = np.concatenate(
        [window[:, SPIN_UP], window[:, SPIN_DOWN], np.swapaxes(overflow, 1, 2)], axis=-1
    )
    cells = np.clip(cells, 0.0, None)
    cells /= cells.sum(axis=-1, keepdims=True)
    counts = np.zeros(cells.shape[1:], dtype=np.int64)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for j, (state, inc) in enumerate(_phase_states(seed, setting_index, settings.n_phases)):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        # one component gets every event: its weight draw takes no random numbers
        if len(weights) == 1:
            split = [events_per_phase]
        else:
            split = rng.multinomial(events_per_phase, weights).tolist()
        for c, runs in enumerate(split):
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


def simulate_acquisition(state, settings, events_per_phase, seed, setting_index):
    """Sample setting group ``setting_index`` (each group has its own phase
    streams) from the smeared forward model: a one-component mixture, whose
    weight draw takes no random numbers."""
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
    """Records of a JSON-lines file; a bad line raises a ValueError naming its number.

    Each line is parsed once, without its newline, and each field's check runs
    over its whole column; if a line does not parse or a column fails, the
    same checks walk the parsed lines in order and the first bad line is named.
    """
    with open(path) as fh:
        numbered = [(lineno, line) for lineno, line in enumerate(fh, start=1) if line.strip()]
    objs = []
    try:
        for _, line in numbered:
            objs.append(json.loads(line.rstrip("\n")))
        return list(map(MeasurementRecord, *[check(_column(objs, name))
                                             for name, check in _FIELDS]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        failure = exc
    for (lineno, _), obj in zip(numbered, objs):
        try:
            _walked_record(obj)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    # every parsed line passes the walk: the failure is the next line's JSON error
    raise ValueError(f"line {numbered[len(objs)][0]}: {failure}") from None


def estimate_marginals(records):
    """Frequency estimates w_est = counts/events with var = w_est/events.

    Rejects, with a ValueError naming the phase index, records that mix
    settings or seeds, miss or repeat a phase or have one outside
    0..n_phases-1, carry counts_up and counts_down of unequal length or
    negative counts, or whose counts plus overflow differ from total_events;
    and records with total_events < 1, which estimate nothing.
    """
    if not records:
        raise ValueError("no records given")
    first = records[0]
    win = len(first.counts_up)
    group = operator.attrgetter("theta", "phi_spin", "beta_abs", "n_phases", "total_events", "seed")
    key = group(first)
    for rec in records:
        if len(rec.counts_up) != win or len(rec.counts_down) != win:
            raise ValueError(
                f"phase {rec.phase_index}: {len(rec.counts_up)} up and"
                f" {len(rec.counts_down)} down count cells, expected {win} each"
            )
        if group(rec) != key:
            raise ValueError(f"phase {rec.phase_index}: records mix different settings or seeds")
    seen = sorted(rec.phase_index for rec in records)
    # the length first: n_phases comes from the file and sizes nothing here
    if len(seen) != first.n_phases or seen != list(range(first.n_phases)):
        outside = [j for j in seen if not 0 <= j < first.n_phases]
        if outside:
            raise ValueError(f"phase {outside[0]}: index outside 0..{first.n_phases - 1}"
                             f" (n_phases = {first.n_phases})")
        repeated = [j for j, after in zip(seen, seen[1:]) if j == after]
        if repeated:
            raise ValueError(f"phase {repeated[0]}: the phase index repeats")
        missing = itertools.filterfalse(set(seen).__contains__, range(first.n_phases))
        raise ValueError(f"incomplete phase coverage; missing phase indices"
                         f" {list(itertools.islice(missing, 8))}")
    if first.total_events < 1:
        raise ValueError(f"total_events = {first.total_events}; a phase needs at least 1 event")
    # cells[s, j] holds the counts of spin outcome s at phase j, then its overflow
    cells = np.empty((2, first.n_phases, win + 1), dtype=np.int64)
    phases = [rec.phase_index for rec in records]
    cells[SPIN_UP, phases, :win] = [rec.counts_up for rec in records]
    cells[SPIN_DOWN, phases, :win] = [rec.counts_down for rec in records]
    cells[SPIN_UP, phases, win] = [rec.overflow_up for rec in records]
    cells[SPIN_DOWN, phases, win] = [rec.overflow_down for rec in records]
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
        w=w,
        variance=w / first.total_events,
    )
