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
phases of a group through the one real table ``fock.displaced_support``
returns, and folds its ideal projective (sigma3, n) readout through the
detector efficiency; ``montecarlo.sample_records`` draws the records from the
mixture.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import montecarlo
from .fock import NORM_LOSS_TOL, SPIN_DOWN, SPIN_UP, TruncationError, displaced_support
from .fock import displacement_matrix, spin_rotation
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
    """One unitary pulse on (2, dim) amplitudes; raises TruncationError when
    truncation eats more than NORM_LOSS_TOL of the norm, as ``coherent_state``
    does."""
    dim = amplitudes.shape[1]
    if isinstance(pulse, SpinRotation):
        out = spin_rotation(pulse.theta, pulse.phi) @ amplitudes
    elif isinstance(pulse, Displacement):
        out = amplitudes @ displacement_matrix(pulse.beta, dim, dim).T
    elif isinstance(pulse, ConditionalDisplacement):
        plus = (amplitudes[SPIN_UP] + amplitudes[SPIN_DOWN]) / _SQRT2
        minus = (amplitudes[SPIN_UP] - amplitudes[SPIN_DOWN]) / _SQRT2
        vp = displacement_matrix(pulse.alpha, dim, dim) @ plus
        vm = displacement_matrix(-pulse.alpha, dim, dim) @ minus
        out = np.stack([(vp - vm) / _SQRT2, (vp + vm) / _SQRT2])
    else:
        raise TypeError(f"unknown pulse type {type(pulse).__name__}")
    norm = np.linalg.norm(out)
    if norm < 1.0 - NORM_LOSS_TOL:
        raise TruncationError(
            f"cutoff {dim} too small for pulse {pulse!r}: it lost {1.0 - norm:.2e}"
            " of the norm to truncation"
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


def simulate_trap_acquisition(alpha, settings, events_per_phase, seed, dim, setting_index):
    """Record files from the pulse-level backend, drop-in compatible with the
    density-operator simulator.

    Phase j measures the five pulse-evolved components after D(-beta_j) and
    the inverse spin rotation; the records are drawn from the mixture of their
    detected tables with the component weights.  With f = ``displaced_support(
    dim - 1, |beta|)``, <k|D(-beta_j)|m> = f[m, k] e^{i(k-m) phi_j}: the
    rotation (spin axis only) goes first, level m takes e^{-i m phi_j}, and two
    real products with f serve every phase.  e^{i k phi_j} is common to both
    spin rows of level k, so it drops out of |.|^2 and is never formed.
    """
    amps = np.stack([component_state(lbl, alpha, dim) for lbl in COMPONENT_LABELS])
    f = displaced_support(dim - 1, settings.beta_abs)
    smear = binomial_matrix(settings.eta, settings.n_max + 1, f.shape[1])
    rotated = spin_rotation(-settings.theta, settings.phi_spin) @ amps
    turns = np.exp(-1j * np.multiply.outer(settings.phases, np.arange(dim)))
    # phased[c, s, j] @ f: D(-beta_j) on component c's spin row s, up to e^{i k phi_j}
    phased = rotated[:, :, None] * turns
    wide = (phased.real @ f) ** 2
    wide += (phased.imag @ f) ** 2
    window, overflow = detected_window(wide, smear)
    del phased, wide  # freed before sampling, which sets the group's allocation peak
    return montecarlo.sample_records(
        settings, events_per_phase, seed, setting_index, COMPONENT_WEIGHTS, window, overflow
    )
