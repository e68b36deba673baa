"""Desk-scale toolkit around an uncomputable phase transition: exact
dyadic arithmetic, prefix-free machine simulation on binary words held
as ``str``, staged halting probabilities, phase-estimation error bounds,
clock-Hamiltonian spectral theory, and the per-square energy model that
classifies phases."""

from .dyadic import Dyadic, truncate

__version__ = "0.1.0"

__all__ = [
    "Dyadic",
    "truncate",
    "__version__",
]
