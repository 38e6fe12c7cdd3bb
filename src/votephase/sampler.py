"""Seeded generation of correlated vote vectors.

Every public operation derives a fresh PCG64DXSM generator from an
``RngSeed`` plus an explicit integer path. The path is the spawn key of
a ``SeedSequence``, which makes the substreams reproducible and
statistically independent regardless of evaluation order. A fixed
number of uniforms is consumed per vector independent of outcomes,
which keeps mixed-class batches deterministic.

Votes are built column-major: the uniforms of a (count, n) matrix are
drawn ``_BLOCK_ROWS`` rows at a time, in stream order, and compared into
C-contiguous (n, count) bool matrices, one row per vote position. Block
after block consumes the stream exactly as one (count, n) draw
does, so the votes and the generator state afterwards are the same as a
row-major draw's, while only one small block of floats is alive.

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
    Geometric,
    Independent,
    _as_size,
    _check_guard,
    _size_text,
    check_model,
)

_U64_MAX = 2**64 - 1

# Rows of uniforms drawn at a time: a 256 x 101 float block stays in cache.
_BLOCK_ROWS = 256

# ``montecarlo`` draws at most CHUNK_REPS = 16384 vectors per call. A
# count of 10**12 would ask numpy for terabytes; refuse counts above
# this before allocating anything.
SAMPLE_COUNT_GUARD = 10**6

# Most votes, n * count, one call returns: CHUNK_REPS vectors of
# montecarlo.MC_SIZE_GUARD votes, the largest Monte Carlo call, whose
# geometric chain holds two such bool matrices, about 330 MB. An n of
# 10**12 would otherwise ask numpy for terabytes.
SAMPLE_VOTES_GUARD = 16384 * 10_000


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
                raise BadParameter(f"{name} must fit in 64 unsigned bits, got {_size_text(v)}")


def make_rng(seed: RngSeed, *path: int) -> np.random.Generator:
    """PCG64DXSM generator keyed by (seed, stream) and an integer path.

    The path is the ``SeedSequence`` spawn key, so distinct paths give
    independent substreams.
    """
    ss = np.random.SeedSequence(entropy=(seed.seed, seed.stream), spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64DXSM(ss))


def _per_row_rates(rate: Union[float, np.ndarray], n: int, count: int) -> np.ndarray:
    rates = np.asarray(rate, dtype=float)
    if rates.ndim != 0 and rates.shape != (count,):
        raise BadParameter(f"rate must be scalar or shape ({_size_text(count)},)")
    _check_guard("count", count, SAMPLE_COUNT_GUARD)
    _check_guard("votes n * count", n * count, SAMPLE_VOTES_GUARD)
    if rates.ndim == 0:
        rates = np.full(count, float(rates))
    if not np.all((rates >= 0.0) & (rates <= 1.0)):
        raise BadParameter("every rate must be a probability in [0, 1]")
    return rates


def _below(rng: np.random.Generator, rates: np.ndarray, n: int, *thresholds) -> list:
    """One (n, count) bool matrix per per-row threshold t: u.T < t.

    u is the (count, n) uniform matrix, drawn ``_BLOCK_ROWS`` rows at a
    time. Position 0 of the first matrix is compared against ``rates``
    instead, which starts a geometric chain at its marginal.
    """
    count = rates.shape[0]
    outs = [np.empty((n, count), dtype=bool) for _ in thresholds]
    block = np.empty((min(_BLOCK_ROWS, count), n))
    for lo in range(0, count, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, count)
        u = rng.random(out=block[: hi - lo]).T
        for out, t in zip(outs, thresholds):
            np.less(u, t[lo:hi], out=out[:, lo:hi])
        np.less(u[0], rates[lo:hi], out=outs[0][0, lo:hi])
    return outs


def sample_matrix(
    model: CorrelationModel,
    n: int,
    rate: Union[float, np.ndarray],
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(count, n) uint8 matrix of vote vectors; one rate per row.

    Per-row rates let mixed-class batches sample both classes in one
    pass with a draw order independent of the label pattern. Every rate
    must be a probability in [0, 1]. A count above
    ``SAMPLE_COUNT_GUARD``, or more than ``SAMPLE_VOTES_GUARD`` votes in
    all, is refused before any array is allocated.
    The result is the transposed view of a C-contiguous (n, count)
    matrix, so it is not C-contiguous itself.

    The geometric chain runs down the positions with two bool ufuncs
    each. Rounding keeps t01 <= r <= t11 for r in [0, 1], so u < t01
    implies u < t11 and (u < t01) | (prev & (u < t11)) is exactly
    u < (t11 if prev else t01).
    """
    n = _as_size(n, "n")
    count = _as_size(count, "count")
    rates = _per_row_rates(rate, n, count)
    check_model(model)
    if isinstance(model, Independent):
        (votes,) = _below(rng, rates, n, rates)
    elif isinstance(model, Geometric):
        t11, t01 = model.transitions(rates)
        votes, stay = _below(rng, rates, n, t01, t11)
        for i in range(1, n):
            np.logical_and(stay[i], votes[i - 1], out=stay[i])
            np.logical_or(votes[i], stay[i], out=votes[i])
    else:  # Equicorrelated
        shared_branch = rng.random(count) < model.lam
        shared_vote = rng.random(count) < rates
        (votes,) = _below(rng, rates, n, rates)
        votes[:, shared_branch] = shared_vote[shared_branch]
    return votes.view(np.uint8).T
