"""Hybrid spin-oscillator Werner-like mixtures: construction, entanglement
and teleportation metrics, tomographic simulation and linear inversion.
Public names are imported from their modules; the root holds ``__version__``."""

__version__ = "0.1.0"
