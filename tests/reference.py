"""Slow reference computations and sampling helpers for the tests."""

from dataclasses import dataclass

import numpy as np

from votephase.analytic import estimated_error_asymptotic, mean_individual_error
from votephase.grid import sweep
from votephase.model import (
    BadParameter,
    CorrelationModel,
    EnsembleConfig,
    Equicorrelated,
    Geometric,
    GridSpec,
    Independent,
    Prior,
    RatePair,
    _as_probability,
    _as_size,
)
from votephase.sampler import sample_matrix


def delta_asymptotic(rates: RatePair, prior: Prior, model: CorrelationModel) -> float:
    """n -> inf gap under the model's own asymptotic estimate.

    Finite-variance models reduce to ``limiting_delta(...).delta_inf``;
    the equicorrelated model uses its n-free plug-in value.
    """
    return estimated_error_asymptotic(rates, prior, model) - mean_individual_error(rates, prior)


@dataclass(frozen=True)
class Improvement:
    """Best-case majority benefit over a grid: max of -delta with argmax."""

    value: float
    at: tuple


def max_improvement(spec: GridSpec) -> Improvement:
    """Maximum of -delta_n over the grid, first argmax in row-major order."""
    best = max(sweep(spec), key=lambda row: -row.delta_n)
    return Improvement(value=-best.delta_n, at=(best.p, best.q))


def geometric_variance_factor_direct(gamma: float, n: int) -> float:
    """O(n) sum 1 + 2 sum_{j<n} (1 - j/n) gamma**j for the closed form."""
    g = _as_probability(gamma, "gamma", BadParameter)
    n = _as_size(n, "n")
    total = 1.0
    power = 1.0
    for j in range(1, n):
        power *= g
        total += 2.0 * (1.0 - j / n) * power
    return total


def sample_labeled_votes(
    cfg: EnsembleConfig, count: int, rng: np.random.Generator
) -> tuple:
    """(labels, votes): class draws from the prior, then vote vectors.

    Labels are drawn first in one block, then a single mixed-rate
    matrix; total uniforms consumed depend only on (model, n, count).
    """
    count = _as_size(count, "count")
    labels = (rng.random(count) < cfg.prior.pi).astype(np.uint8)
    rates = np.where(labels == 1, cfg.rates.p, cfg.rates.q)
    votes = sample_matrix(cfg.model, cfg.n, rates, count, rng)
    return labels, votes


def sample_matrix_reference(model, n: int, rate, count: int, rng: np.random.Generator):
    """Row-major sampler: one (count, n) draw, then a per-column loop.

    The straightforward construction that ``sample_matrix`` must
    reproduce bit for bit, generator state included.
    """
    rates = np.asarray(rate, dtype=float)
    if rates.ndim == 0:
        rates = np.full(count, float(rates))
    if isinstance(model, Independent):
        return (rng.random((count, n)) < rates[:, None]).astype(np.uint8)
    if isinstance(model, Geometric):
        t11, t01 = model.transitions(rates)
        u = rng.random((count, n))
        votes = np.empty((count, n), dtype=np.uint8)
        votes[:, 0] = u[:, 0] < rates
        for i in range(1, n):
            threshold = np.where(votes[:, i - 1] == 1, t11, t01)
            votes[:, i] = u[:, i] < threshold
        return votes
    if isinstance(model, Equicorrelated):
        shared_branch = rng.random(count) < model.lam
        shared_vote = (rng.random(count) < rates).astype(np.uint8)
        independent = (rng.random((count, n)) < rates[:, None]).astype(np.uint8)
        return np.where(shared_branch[:, None], shared_vote[:, None], independent)
    raise BadParameter(f"unknown correlation model {model!r}")


def parse_outcome(parse, source) -> tuple:
    """What a CSV parser makes of ``source``: the matrix, or the error."""
    try:
        matrix = parse(source)
    except Exception as exc:
        return type(exc), str(exc)
    return matrix.labels.tolist(), matrix.votes.tolist()
