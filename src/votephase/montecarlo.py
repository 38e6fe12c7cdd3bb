"""Seeded, parallel Monte Carlo estimation of the majority-vote error.

Replications are split into fixed-size chunks. Chunk i draws all of its
randomness from the substream ``make_rng(seed, i)``, and chunk results
are reduced in chunk-index order, so the estimate is a pure function of
(config, reps, seed): bit-identical across runs, thread counts, and
scheduling. Chunks run through ``model._thread_map`` with one worker
requested per chunk, so on one thread per CPU this process may use, at
most one per chunk; the thread count only changes wall time.

Standard errors use the plug-in binomial formula sqrt(v (1 - v) / reps);
replications are independent by construction so no batching correction
is needed. Correlations of sampled votes come from the exact-count
kernel ``diagnose`` uses on real votes: ``diagnose._gram`` forms each
chunk's Gram and ``diagnose._class_counts`` turns their sum into
correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .diagnose import _class_counts, _gram, _lag_means
from .model import (
    CorrelationModel,
    EnsembleConfig,
    VotePhaseError,
    _as_probability,
    _as_size,
    _check_guard,
    _thread_map,
)
from .sampler import RngSeed, make_rng, sample_matrix

# One substream per chunk of this many replications; fixed so that the
# chunk layout (and therefore the result) never depends on thread count.
CHUNK_REPS = 16384

# A geometric chunk holds two (n, CHUNK_REPS) bool matrices, about
# 330 MB at this n; refuse larger ensembles before any draw.
MC_SIZE_GUARD = 10_000

# About 61,000 chunks. The chunk sizes and the pool's futures are all
# built up front, and 10**18 reps would exhaust memory before the first
# draw; refuse larger counts instead. It must stay at or below
# diagnose.CLASS_ROWS_GUARD: diagnose._class_counts turns the summed
# chunk Grams into correlations through reps * n_ij in int64, which is
# exact only while reps <= 2**31.
MC_REPS_GUARD = 10**9

# mc_correlation_matrix holds a few n x n arrays at a time (the Gram
# each running chunk forms in diagnose._gram, their running int64 sum,
# then the numerator and the correlation of diagnose._class_counts,
# 16 bytes per pair); each int64 one takes 8 MB at this n and 800 MB at
# MC_SIZE_GUARD.
CORR_SIZE_GUARD = 1000


class DegenerateVariance(VotePhaseError, ValueError):
    """A vote position showed zero empirical variance; correlations undefined."""


@dataclass(frozen=True)
class McEstimate:
    """An error-rate estimate with its binomial standard error.

    What ``mc_error`` and ``mc_conditional_error`` return; callers do not
    build one. ``from_count`` makes it from a count of errors out of
    ``reps`` replications drawn from ``seed``.
    """

    value: float
    std_error: float
    reps: int
    seed: RngSeed

    @classmethod
    def from_count(cls, errors: int, reps: int, seed: RngSeed) -> "McEstimate":
        value = errors / reps
        return cls(
            value=value,
            std_error=math.sqrt(value * (1.0 - value) / reps),
            reps=reps,
            seed=seed,
        )

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "reps": self.reps,
            "seed": self.seed.seed,
            "stream": self.seed.stream,
        }


def _per_chunk(reps: int, seed: RngSeed, fn: Callable) -> Iterator:
    """fn(rng, m) for each chunk of the reps, yielded in chunk order.

    Chunk i holds CHUNK_REPS replications (the last one the remainder)
    and draws from ``make_rng(seed, i)``, so the results do not depend
    on how many workers run the chunks. ``_thread_map`` runs them, one
    worker requested per chunk. Callers reduce each result as it
    arrives, so earlier results need not stay alive, and read them all,
    so the pool is joined before they return.
    """
    _check_guard("Monte Carlo reps", reps, MC_REPS_GUARD)
    full, rest = divmod(reps, CHUNK_REPS)
    sizes = [CHUNK_REPS] * full + ([rest] if rest else [])

    def chunk(i: int):
        return fn(make_rng(seed, i), sizes[i])

    yield from _thread_map(chunk, range(len(sizes)), len(sizes))


def _majority_error(cfg: EnsembleConfig, reps: int, seed: RngSeed, classes: Callable) -> McEstimate:
    """Share of replications the strict-majority vote gets wrong.

    ``classes(rng, m)`` returns a chunk's classes (True for class 1)
    and their vote rates, each an array of m or one value for all m.
    """
    reps = _as_size(reps, "reps", minimum=100)
    _check_guard("Monte Carlo n", cfg.n, MC_SIZE_GUARD)

    def count(rng: np.random.Generator, m: int) -> int:
        labels, rates = classes(rng, m)
        votes = sample_matrix(cfg.model, cfg.n, rates, m, rng)
        return int(((2 * votes.sum(axis=1, dtype=np.int64) > cfg.n) != labels).sum())

    return McEstimate.from_count(sum(_per_chunk(reps, seed, count)), reps, seed)


def mc_error(cfg: EnsembleConfig, reps: int, seed: RngSeed) -> McEstimate:
    """Monte Carlo estimate of the majority-vote error rate.

    Each replication draws a class from the prior, a vote vector under
    the model at that class's rate, and scores the strict-majority
    prediction against the class.
    """
    pi, p, q = cfg.prior.pi, cfg.rates.p, cfg.rates.q

    def classes(rng: np.random.Generator, m: int) -> tuple:
        labels = rng.random(m) < pi
        return labels, np.where(labels, p, q)

    return _majority_error(cfg, reps, seed, classes)


def mc_conditional_error(
    cfg: EnsembleConfig, label: int, reps: int, seed: RngSeed
) -> McEstimate:
    """Estimate of one class's misclassification probability.

    label=1 estimates P(g <= n/2 | class 1) at rate p; label=0
    estimates P(g > n/2 | class 0) at rate q. These are the two terms
    the normal approximation models with its two Phi expressions.
    """
    rate = cfg.rates.rate_for_class(label)
    return _majority_error(cfg, reps, seed, lambda rng, m: (label == 1, rate))


@dataclass(frozen=True)
class CorrelationSummary:
    """Empirical pairwise correlation structure of sampled votes.

    ``mc_correlation_matrix`` builds it, with ``correlation`` (n x n)
    and ``lag_means`` (n - 1) read-only.
    """

    correlation: np.ndarray
    lag_means: np.ndarray


def mc_correlation_matrix(
    model: CorrelationModel,
    n: int,
    rate: float,
    reps: int,
    seed: RngSeed,
) -> CorrelationSummary:
    """Pearson correlations between vote positions, from exact counts.

    ``diagnose._gram`` forms each chunk's exact int64 Gram matrix of its
    0/1 votes (the count of ones at each position and of joint ones at
    each pair), the chunk Grams are summed, and ``diagnose._class_counts``
    turns the total into correlations, as it does for a class of
    ``diagnose``: each within a few ulps of its exact value, with a
    diagonal of exactly 1.0. ``lag_means`` holds the mean correlation at
    each positive lag (the gamma**k diagnostic).
    """
    n = _as_size(n, "n", minimum=2)
    _check_guard("Monte Carlo n", n, CORR_SIZE_GUARD)
    reps = _as_size(reps, "reps", minimum=10_000)
    r = _as_probability(rate, "rate")

    grams = _per_chunk(reps, seed, lambda rng, m: _gram(sample_matrix(model, n, r, m, rng)))
    *_, corr, constant = _class_counts(sum(grams), reps)
    if constant:
        raise DegenerateVariance(
            f"zero empirical variance at positions {constant}; "
            f"rate {r} too extreme for reps={reps}"
        )
    lag_means = _lag_means(corr)
    corr.flags.writeable = False
    lag_means.flags.writeable = False
    return CorrelationSummary(correlation=corr, lag_means=lag_means)
