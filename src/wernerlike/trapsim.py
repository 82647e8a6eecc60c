"""Ideal-pulse synthesis of the hybrid mixture in a trapped-particle register.

Available pulses: spin rotations about equatorial axes, oscillator
displacements, and the conditional displacement D(alpha * sigma1) that
displaces the sigma1 = +1 spin component by +alpha and the sigma1 = -1
component by -alpha.  The mixture is four products |up/down>|+-alpha> at 1/8
each and the pseudo-singlet (|down>|a> - |up>|-a>)/sqrt(2) at 1/2.

A single equatorial rotation after D(alpha sigma1) cannot carry |up>|0> into
the pseudo-singlet even up to a global phase (the required spin map needs a
sigma3 component in its generator), so its sequence has three pulses; the
result matches the target with global phase exactly 1.

The trap backend evolves each component through the measurement pulses and
folds its ideal projective (sigma3, n) readout through the detector
efficiency; ``montecarlo.sample_records`` draws the records from the mixture.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .fock import (
    SPIN_DOWN,
    SPIN_UP,
    displacement_amplitudes_batch,
    displacement_matrix,
    displaced_support,
    spin_rotation,
)
from .tomography import binomial_matrix, detected_window

__all__ = [
    "SpinRotation",
    "Displacement",
    "ConditionalDisplacement",
    "JointPureState",
    "apply_pulse",
    "apply_sequence",
    "pseudo_singlet_pulses",
    "COMPONENT_LABELS",
    "COMPONENT_WEIGHTS",
    "component_pulses",
    "component_state",
    "simulate_trap_acquisition",
]

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SpinRotation:
    theta: float
    phi: float


@dataclass(frozen=True)
class Displacement:
    beta: complex


@dataclass(frozen=True)
class ConditionalDisplacement:
    alpha: complex


@dataclass(frozen=True, eq=False)
class JointPureState:
    """Pure state of spin (x) truncated oscillator; amplitudes (2, dim)."""

    amplitudes: np.ndarray

    @property
    def dim(self):
        return self.amplitudes.shape[1]

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    @classmethod
    def spin_up_vacuum(cls, dim):
        amp = np.zeros((2, dim), dtype=complex)
        amp[SPIN_UP, 0] = 1.0
        return cls(amp)


def apply_pulse(state, pulse):
    """One unitary pulse; warns when truncation eats more than 1e-6 of the norm."""
    amp = state.amplitudes
    if isinstance(pulse, SpinRotation):
        out = spin_rotation(pulse.theta, pulse.phi) @ amp
    elif isinstance(pulse, Displacement):
        out = amp @ displacement_matrix(pulse.beta, state.dim, state.dim).T
    elif isinstance(pulse, ConditionalDisplacement):
        plus = (amp[SPIN_UP] + amp[SPIN_DOWN]) / _SQRT2
        minus = (amp[SPIN_UP] - amp[SPIN_DOWN]) / _SQRT2
        vp = displacement_matrix(pulse.alpha, state.dim, state.dim) @ plus
        vm = displacement_matrix(-pulse.alpha, state.dim, state.dim) @ minus
        out = np.stack([(vp - vm) / _SQRT2, (vp + vm) / _SQRT2])
    else:
        raise TypeError(f"unknown pulse type {type(pulse).__name__}")
    result = JointPureState(out)
    if result.norm() < 1.0 - 1e-6:
        warnings.warn(
            f"pulse {pulse!r} lost {1.0 - result.norm():.2e} of the norm to truncation",
            stacklevel=2,
        )
    return result


def apply_sequence(state, pulses):
    for pulse in pulses:
        state = apply_pulse(state, pulse)
    return state


def pseudo_singlet_pulses(alpha):
    """Pulse sequence turning |up>|0> into (|down>|a> - |up>|-a>)/sqrt(2).

    The first rotation flips the spin, the conditional displacement splits
    the coherent pair on the sigma1 eigenstates, and the final rotation maps
    |+> -> |down>, |-> -> |up>; the global phase works out to exactly 1.
    """
    return (
        SpinRotation(np.pi / 2.0, np.pi / 2.0),
        ConditionalDisplacement(alpha),
        SpinRotation(np.pi / 4.0, np.pi / 2.0),
    )


COMPONENT_LABELS = ("down_minus", "up_minus", "down_plus", "up_plus", "singlet")
COMPONENT_WEIGHTS = (0.125, 0.125, 0.125, 0.125, 0.5)


def component_pulses(label, alpha):
    """Pulse sequence of one mixture component, from |up>|0>.

    Product components need only a spin flip and a displacement; the
    entangled component uses the pseudo-singlet sequence.
    """
    if label == "singlet":
        return pseudo_singlet_pulses(alpha)
    spin, sign = label.split("_")
    pulses = []
    if spin == "down":
        pulses.append(SpinRotation(np.pi / 2.0, np.pi / 2.0))
    pulses.append(Displacement(alpha if sign == "plus" else -alpha))
    return tuple(pulses)


_component_cache = {}


def component_state(label, alpha, dim):
    key = (label, float(alpha), int(dim))
    if key not in _component_cache:
        state = apply_sequence(JointPureState.spin_up_vacuum(dim), component_pulses(label, alpha))
        state.amplitudes.setflags(write=False)
        _component_cache[key] = state
    return _component_cache[key]


def simulate_trap_acquisition(alpha, settings, events_per_phase, seed, dim=32,
                              setting_index=0):
    """Record files from the pulse-level backend, drop-in compatible with the
    density-operator simulator.

    Each phase's detected tables come from the pulse-evolved amplitudes of
    all five components; pre-measurement pulses are D(-beta_j) then the
    inverse spin rotation.  The records are drawn from the mixture of those
    tables with the component weights.
    """
    amps = np.stack([component_state(lbl, alpha, dim).amplitudes for lbl in COMPONENT_LABELS])
    rows = displaced_support(dim - 1, settings.beta_abs).shape[1]
    smear = binomial_matrix(settings.eta, settings.n_max + 1, rows)
    u_inv = spin_rotation(-settings.theta, settings.phi_spin)
    # moved[j, c] = u_inv @ amps[c] @ D(beta_j)^T, stacked over the per-matrix
    # products of one phase at a time: one flattened product rounds differently
    moved = u_inv @ (amps @ _phase_displacements(settings, rows, dim).swapaxes(1, 2)[:, None])
    window, overflow = detected_window(np.abs(moved.transpose(1, 2, 0, 3)) ** 2, smear)
    return montecarlo.sample_records(
        settings, events_per_phase, seed, setting_index, COMPONENT_WEIGHTS, window, overflow
    )


def _phase_displacements(settings, rows, dim):
    """D(beta_j), beta_j = -beta_abs e^{i phase_j}, as (n_phases, rows, dim) blocks
    bit-identical to ``displacement_matrix``: the kernel is elementwise over a
    batch of |beta_j|, and each phase factor is raised once to every m - n."""
    betas = [complex(-(settings.beta_abs * np.exp(1j * phase))) for phase in settings.phases]
    xs = sorted(set(map(abs, betas)))
    tables = displacement_amplitudes_batch(xs, rows, dim)
    powers = np.array([b / abs(b) for b in betas])[:, None] ** np.arange(1 - dim, rows)
    mn = np.arange(rows)[:, None] - np.arange(dim) + dim - 1
    dmat = np.take(powers, mn, axis=1)
    dmat *= tables[[xs.index(abs(b)) for b in betas]]
    return dmat
