"""Phase-transition analysis of majority-vote ensembles.

The estimated benefit of majority voting over a single ensemble member
jumps discontinuously as the member rates cross 1/2; this package
provides the closed-form analysis, exact finite-n oracles, seeded Monte
Carlo, grid sweeps over the (p, q) square, and diagnosis of real
prediction matrices.

The package exports what README documents; every other function is
importable from its own module. Every export but ``diagnose`` is listed
in one table, ``_LAZY``, and imports its module on first access, so
importing the package loads neither numpy nor the oracle, Monte Carlo
and sampler modules. ``diagnose`` is imported eagerly because it shares
its name with its module: importing a submodule binds it as a package
attribute, which would hide a lazy export of the same name.
"""

from importlib import import_module as _import_module

from .diagnose import diagnose

__version__ = "0.1.0"

# Every export but ``diagnose``, name -> module; see __getattr__.
_LAZY = {
    **dict.fromkeys(
        ["Phase", "PhaseVerdict", "Side", "delta", "estimated_error", "limiting_delta"], "analytic"
    ),
    **dict.fromkeys(
        ["DiagnosisReport", "NonBinaryEntry", "PredictionMatrix", "SingleClassData"]
        + ["read_prediction_csv"],
        "diagnose",
    ),
    **dict.fromkeys(["GridRow", "sweep"], "grid"),
    **dict.fromkeys(
        ["ASYMPTOTIC", "GRID_CELL_GUARD", "BadParameter", "BadSize", "CorrelationModel"]
        + ["EnsembleConfig", "Equicorrelated", "Geometric", "GridSpec", "Independent", "Prior"]
        + ["RateOutOfRange", "RatePair", "SizeGuardExceeded", "VotePhaseError"],
        "model",
    ),
    **dict.fromkeys(
        ["CORR_SIZE_GUARD", "MC_REPS_GUARD", "MC_SIZE_GUARD", "DegenerateVariance", "McEstimate"]
        + ["mc_conditional_error", "mc_correlation_matrix", "mc_error"],
        "montecarlo",
    ),
    **dict.fromkeys(
        ["BINOMIAL_SIZE_GUARD", "BRUTE_FORCE_SIZE_GUARD", "GEOMETRIC_SIZE_GUARD"]
        + ["VotePmf", "brute_force_error", "exact_error", "exact_vote_pmf"],
        "oracle",
    ),
    "RngSeed": "sampler",
}

__all__ = sorted(["diagnose", *_LAZY])


def __getattr__(name: str):
    # PEP 562: called only for names the module does not hold, so
    # ``diagnose`` and loaded submodules never reach it.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__() -> list:
    return sorted({*globals(), *_LAZY})
