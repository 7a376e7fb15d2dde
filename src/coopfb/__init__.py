"""Link-level simulator and closed-form analysis toolkit for FDD multiuser
MIMO limited feedback with pairwise user cooperation."""

from .model import (
    ConfigError,
    GlobalCodebook,
    LocalCodebook,
    RandomStream,
    SystemConfig,
    derive_trial_rng,
)
from .montecarlo import ExperimentResult, run_experiment

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExperimentResult",
    "GlobalCodebook",
    "LocalCodebook",
    "RandomStream",
    "SystemConfig",
    "derive_trial_rng",
    "run_experiment",
    "__version__",
]
