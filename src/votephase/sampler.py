"""Seeded generation of correlated vote vectors.

Randomness is counter-based: every public operation derives a fresh
Philox generator from an ``RngSeed`` plus an explicit integer path, so
substreams are reproducible and statistically independent regardless of
evaluation order. A fixed number of uniforms is consumed per vector
independent of outcomes, which keeps mixed-class batches deterministic.

Generative constructions, conditioned on one class at marginal rate r:

* Independent: n i.i.d. Bernoulli(r) votes.
* Geometric: a stationary two-state Markov chain started from
  Bernoulli(r) with the transitions of ``Geometric.transitions``. The
  chain's second eigenvalue is gamma, so the lag-k autocorrelation is
  exactly gamma**k and the marginal stays r.
* Equicorrelated: with probability lam all n members copy one shared
  Bernoulli(r) coin; otherwise they vote independently. Pairwise
  correlation is lam for every pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import (
    BadParameter,
    CorrelationModel,
    Equicorrelated,
    Geometric,
    Independent,
    _as_size,
)

_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class RngSeed:
    """Root of all randomness: a 64-bit seed plus a substream index.

    Two RngSeeds differing in either field produce independent streams.
    Derived generators extend the key with integer path components
    (e.g. a chunk index) rather than consuming from a shared stream.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise BadParameter(f"{name} must be an integer, got {v!r}")
            if not 0 <= v <= _U64_MAX:
                raise BadParameter(f"{name} must fit in 64 unsigned bits, got {v}")


def make_rng(seed: RngSeed, *path: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream) and an integer path."""
    ss = np.random.SeedSequence(entropy=(seed.seed, seed.stream), spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def _per_row_rates(rate: Union[float, np.ndarray], count: int) -> np.ndarray:
    rates = np.asarray(rate, dtype=float)
    if rates.ndim == 0:
        rates = np.full(count, float(rates))
    if rates.shape != (count,):
        raise BadParameter(f"rate must be scalar or shape ({count},)")
    return rates


def sample_matrix(
    model: CorrelationModel,
    n: int,
    rate: Union[float, np.ndarray],
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(count, n) uint8 matrix of vote vectors; one rate per row.

    Per-row rates let mixed-class batches sample both classes in one
    pass with a draw order independent of the label pattern.
    """
    n = _as_size(n, "n")
    count = _as_size(count, "count")
    rates = _per_row_rates(rate, count)
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

