"""Phase-transition analysis of majority-vote ensembles.

The estimated benefit of majority voting over a single ensemble member
jumps discontinuously as the member rates cross 1/2; this package
provides the closed-form analysis, exact finite-n oracles, seeded Monte
Carlo, grid sweeps over the (p, q) square, and diagnosis of real
prediction matrices.

The package exports what README documents; every other function is
importable from its own module. Importing the package loads neither
numpy nor the oracle, Monte Carlo and sampler modules: their exports
are listed in ``_LAZY`` and import their module on first access.
"""

import types as _types
from importlib import import_module as _import_module

from .analytic import Phase, PhaseVerdict, Side, delta, estimated_error, limiting_delta
from .diagnose import (
    DiagnosisReport,
    NonBinaryEntry,
    PredictionMatrix,
    SingleClassData,
    diagnose,
    read_prediction_csv,
)
from .grid import GridRow, sweep
from .model import (
    ASYMPTOTIC,
    BadParameter,
    BadSize,
    CorrelationModel,
    EnsembleConfig,
    Equicorrelated,
    Geometric,
    GRID_CELL_GUARD,
    GridSpec,
    Independent,
    Prior,
    RateOutOfRange,
    RatePair,
    VotePhaseError,
)

__version__ = "0.1.0"

# Exports of the numpy-backed modules, name -> module; see __getattr__.
_LAZY = {
    **dict.fromkeys(
        ["CORR_SIZE_GUARD", "MC_REPS_GUARD", "MC_SIZE_GUARD", "DegenerateVariance", "McEstimate"]
        + ["mc_conditional_error", "mc_correlation_matrix", "mc_error"],
        "montecarlo",
    ),
    **dict.fromkeys(
        ["BINOMIAL_SIZE_GUARD", "BRUTE_FORCE_SIZE_GUARD", "GEOMETRIC_SIZE_GUARD", "SizeGuardExceeded"]
        + ["VotePmf", "brute_force_error", "exact_error", "exact_vote_pmf"],
        "oracle",
    ),
    "RngSeed": "sampler",
}

# Every name imported above, less the submodules those imports bind, plus
# the lazy exports.
__all__ = sorted(
    [
        name
        for name, value in globals().items()
        if not name.startswith("_") and not isinstance(value, _types.ModuleType)
    ]
    + list(_LAZY)
)


def __getattr__(name: str):
    # PEP 562: called only for names the module does not hold, so the
    # eager exports and loaded submodules never reach it.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__() -> list:
    return sorted({*globals(), *_LAZY})
