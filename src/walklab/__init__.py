"""Exact and simulated computation of return probabilities, level walks
and bridge statistics for random walks on graphs whose modular function
gives a level structure."""

__version__ = "0.1.0"

from .models import (ModelSpec, build_model, parse_model_config,
                     validate_collapse)
from .series import (ProbabilitySeries, SpectralRadius,
                     first_return_probabilities, return_probabilities,
                     spectral_radius, taboo_first_return)

__all__ = [
    "ModelSpec", "build_model", "parse_model_config", "validate_collapse",
    "ProbabilitySeries", "SpectralRadius", "return_probabilities",
    "first_return_probabilities", "taboo_first_return", "spectral_radius",
    "__version__",
]
