"""Phase-transition analysis of majority-vote ensembles.

The estimated benefit of majority voting over a single ensemble member
jumps discontinuously as the member rates cross 1/2; this package
provides the closed-form analysis, exact finite-n oracles, seeded Monte
Carlo, grid sweeps over the (p, q) square, and diagnosis of real
prediction matrices.

The package exports what README documents; every other function is
importable from its own module.
"""

import types as _types

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
from .montecarlo import (
    CORR_SIZE_GUARD,
    MC_REPS_GUARD,
    MC_SIZE_GUARD,
    DegenerateVariance,
    McEstimate,
    mc_conditional_error,
    mc_correlation_matrix,
    mc_error,
)
from .oracle import (
    BINOMIAL_SIZE_GUARD,
    BRUTE_FORCE_SIZE_GUARD,
    GEOMETRIC_SIZE_GUARD,
    SizeGuardExceeded,
    VotePmf,
    brute_force_error,
    exact_error,
    exact_vote_pmf,
)
from .sampler import RngSeed

__version__ = "0.1.0"

# Every name imported above, less the submodules those imports bind.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
