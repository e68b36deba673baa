"""Desk-scale toolkit around an uncomputable phase transition: exact
rounding of rationals to m bits, prefix-free machine simulation on binary
words held as ``str``, staged halting probabilities, phase-estimation
error bounds, clock-Hamiltonian spectral theory, and the per-square
energy model that classifies phases."""

from .dyadic import truncate

__version__ = "0.1.0"

__all__ = [
    "truncate",
    "__version__",
]
