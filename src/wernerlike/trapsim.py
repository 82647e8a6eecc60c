"""Ideal-pulse synthesis of the hybrid mixture in a trapped-particle register.

Pulses act on (2, dim) spin (x) oscillator amplitude arrays, row 0 = spin
down: spin rotations about equatorial axes, oscillator displacements, and the
conditional displacement D(alpha * sigma1) that displaces the sigma1 = +1
spin component by +alpha and the sigma1 = -1 component by -alpha.  The
mixture is four products |up/down>|+-alpha> at 1/8 each and the
pseudo-singlet (|down>|a> - |up>|-a>)/sqrt(2) at 1/2.

A single equatorial rotation after D(alpha sigma1) cannot carry |up>|0> into
the pseudo-singlet even up to a global phase (the required spin map needs a
sigma3 component in its generator), so its sequence has three pulses; the
result matches the target with global phase exactly 1.

The trap backend evolves each component through the measurement pulses, all
phases of a group in one batched ``fock.displacement_matrix`` call, and folds
its ideal projective (sigma3, n) readout through the detector efficiency;
``montecarlo.sample_records`` draws the records from the mixture.
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import montecarlo
from .fock import (
    SPIN_DOWN,
    SPIN_UP,
    displacement_matrix,
    displaced_support,
    spin_rotation,
)
from .tomography import binomial_matrix, detected_window

__all__ = [
    "SpinRotation",
    "Displacement",
    "ConditionalDisplacement",
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


def apply_pulse(amplitudes, pulse):
    """One unitary pulse on (2, dim) amplitudes; warns when truncation eats
    more than 1e-6 of the norm."""
    dim = amplitudes.shape[1]
    if isinstance(pulse, SpinRotation):
        out = spin_rotation(pulse.theta, pulse.phi) @ amplitudes
    elif isinstance(pulse, Displacement):
        out = amplitudes @ displacement_matrix(pulse.beta, dim, dim).T
    elif isinstance(pulse, ConditionalDisplacement):
        plus = (amplitudes[SPIN_UP] + amplitudes[SPIN_DOWN]) / _SQRT2
        minus = (amplitudes[SPIN_UP] - amplitudes[SPIN_DOWN]) / _SQRT2
        d_plus, d_minus = displacement_matrix([pulse.alpha, -pulse.alpha], dim, dim)
        vp, vm = d_plus @ plus, d_minus @ minus
        out = np.stack([(vp - vm) / _SQRT2, (vp + vm) / _SQRT2])
    else:
        raise TypeError(f"unknown pulse type {type(pulse).__name__}")
    norm = np.linalg.norm(out)
    if norm < 1.0 - 1e-6:
        warnings.warn(
            f"pulse {pulse!r} lost {1.0 - norm:.2e} of the norm to truncation",
            stacklevel=2,
        )
    return out


def apply_sequence(amplitudes, pulses):
    for pulse in pulses:
        amplitudes = apply_pulse(amplitudes, pulse)
    return amplitudes


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


@lru_cache(maxsize=len(COMPONENT_LABELS))
def component_state(label, alpha, dim):
    """Read-only (2, dim) amplitudes of one mixture component, evolved from
    |up>|0>; cached for the components of one (alpha, dim)."""
    amplitudes = np.zeros((2, dim), dtype=complex)
    amplitudes[SPIN_UP, 0] = 1.0
    amplitudes = apply_sequence(amplitudes, component_pulses(label, alpha))
    amplitudes.setflags(write=False)
    return amplitudes


def simulate_trap_acquisition(alpha, settings, events_per_phase, seed, dim=32,
                              setting_index=0):
    """Record files from the pulse-level backend, drop-in compatible with the
    density-operator simulator.

    Each phase's detected tables come from the pulse-evolved amplitudes of
    all five components; pre-measurement pulses are D(-beta_j) then the
    inverse spin rotation.  The records are drawn from the mixture of those
    tables with the component weights.
    """
    amps = np.stack([component_state(lbl, alpha, dim) for lbl in COMPONENT_LABELS])
    rows = displaced_support(dim - 1, settings.beta_abs).shape[1]
    smear = binomial_matrix(settings.eta, settings.n_max + 1, rows)
    u_inv = spin_rotation(-settings.theta, settings.phi_spin)
    # moved[j, c] = u_inv @ amps[c] @ D(beta_j)^T, stacked over the per-matrix
    # products of one phase at a time: one flattened product rounds differently
    betas = -(settings.beta_abs * np.exp(1j * settings.phases))
    moved = u_inv @ (amps @ displacement_matrix(betas, rows, dim).swapaxes(1, 2)[:, None])
    window, overflow = detected_window(np.abs(moved.transpose(1, 2, 0, 3)) ** 2, smear)
    return montecarlo.sample_records(
        settings, events_per_phase, seed, setting_index, COMPONENT_WEIGHTS, window, overflow
    )

