"""Slow reference computations and sampling helpers for the tests."""

import numpy as np

from votephase.model import BadParameter, EnsembleConfig, _as_probability, _as_size
from votephase.sampler import sample_matrix


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
