"""The closed-form row at one (p, q) point, and sweeps of the unit square.

``point`` is the single evaluator of the row (err, err_hat, delta_n,
delta_inf, phase, abusive): the ``analytic`` subcommand prints it at
one point and ``sweep`` at every point of a grid. It computes err and
the model's asymptotic estimate once each, and at n = ``ASYMPTOTIC``
that estimate is err_hat too. No row involves sampling.

Axis values come from decimal-exact index arithmetic (see GridSpec), so
fine grids hit landmarks like 0.5 exactly instead of drifting past
them; boundary values appear only when the spec's endpoints and step
actually generate them.

``delta_inf`` in each row is the model's own n -> inf plug-in value:
the nine-region limit for finite-variance models, the n-free value for
a model whose class sets ``abusive`` (the equicorrelated one), which
the row's ``abusive`` copies. ``phase`` classifies its sign.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analytic import (
    Phase,
    estimated_error,
    estimated_error_asymptotic,
    mean_individual_error,
    phase_of,
)
from .model import ASYMPTOTIC, CorrelationModel, EnsembleConfig, GridSpec, Prior, RatePair


@dataclass(frozen=True)
class GridRow:
    """One grid point with its error estimates and phase label."""

    p: float
    q: float
    err: float
    err_hat: float
    delta_n: float
    delta_inf: float
    phase: Phase
    abusive: bool


def point(rates: RatePair, prior: Prior, model: CorrelationModel, n: int | str) -> GridRow:
    """The closed-form row at (p, q) for ensemble size n or ``ASYMPTOTIC``.

    delta_inf = err_inf - err, the model's own asymptotic estimate less
    one member's error.
    """
    err = mean_individual_error(rates, prior)
    err_inf = estimated_error_asymptotic(rates, prior, model)
    if n == ASYMPTOTIC:
        err_hat = err_inf
    else:
        err_hat = estimated_error(EnsembleConfig(n=n, rates=rates, prior=prior, model=model))
    delta_inf = err_inf - err
    return GridRow(
        p=rates.p,
        q=rates.q,
        err=err,
        err_hat=err_hat,
        delta_n=err_hat - err,
        delta_inf=delta_inf,
        phase=phase_of(delta_inf),
        abusive=model.abusive,
    )


def sweep(spec: GridSpec) -> list:
    """All grid rows in row-major order: p outer, q inner."""
    return [point(RatePair(p=p, q=q), spec.prior, spec.model, spec.n) for p, q in spec.points()]
