"""Exact finite-n distributions of the vote sum.

These routines compute the probability mass function of g = sum of n
binary votes under each correlation model, with no sampling and no
normal approximation. They exist to pin down ground truth: the
analytic estimates and Monte Carlo results are both judged against
them in the tests.

Per model:

* Independent: Binomial(n, r).
* Geometric: dynamic program over a stationary two-state Markov chain
  whose lag-k correlations are gamma**k. It updates preallocated
  buffers in place, only over the window of sums whose mass can still
  be a normal double, so the far tails cost nothing. O(n^2) time at
  worst, O(n) memory; about 0.7 s at n = 20001 on one core of a
  2-vCPU Xeon VM.
* Equicorrelated: two-component mixture, lam * (shared coin) +
  (1 - lam) * Binomial(n, r).

``VotePmf`` and ``binomial_pmf`` report every mass below the smallest
normal double (``np.finfo(float).tiny``, about 2.2e-308) as exactly 0.

``brute_force_error`` enumerates all 2**n vote vectors and is the
slowest, most direct cross-check of all; it is guarded to n <= 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    BadParameter,
    CorrelationModel,
    EnsembleConfig,
    Equicorrelated,
    Geometric,
    Independent,
    VotePhaseError,
    _as_probability,
    _as_size,
)

# The geometric DP is quadratic; above this it would silently eat
# minutes of CPU, so refuse instead.
GEOMETRIC_SIZE_GUARD = 100_000

# The binomial pmf holds several float64 arrays of n + 1 entries and
# peaks near 300 MiB at this n; refuse larger n before allocating any.
BINOMIAL_SIZE_GUARD = 10**7

# 2**n vectors; 20 keeps the brute force under a second.
BRUTE_FORCE_SIZE_GUARD = 20

_PMF_SUM_TOL = 1e-12


class SizeGuardExceeded(VotePhaseError, ValueError):
    """An exact computation was requested beyond its size guard."""


@dataclass(frozen=True)
class VotePmf:
    """Distribution of the vote sum: mass[k] = P(g = k), k = 0..n."""

    n: int
    mass: np.ndarray

    def __post_init__(self) -> None:
        n = _as_size(self.n, "n")
        mass = np.asarray(self.mass, dtype=float)
        if mass.shape != (n + 1,):
            raise BadParameter(
                f"mass must have shape ({n + 1},), got {mass.shape}"
            )
        if not np.all(mass >= -_PMF_SUM_TOL):
            raise BadParameter("mass entries must be nonnegative")
        total = float(mass.sum())
        if not abs(total - 1.0) <= _PMF_SUM_TOL:
            raise BadParameter(f"mass sums to {total!r}, not 1 within 1e-12")
        mass = np.clip(mass, 0.0, None)
        # Subnormals have lost most or all of their precision; report 0.
        mass[mass < np.finfo(float).tiny] = 0.0
        mass.flags.writeable = False
        object.__setattr__(self, "mass", mass)

    @property
    def mean(self) -> float:
        return float(np.arange(self.n + 1) @ self.mass)

    @property
    def variance(self) -> float:
        k = np.arange(self.n + 1)
        m = self.mean
        return float(((k - m) ** 2) @ self.mass)

    # A partial sum of normalized masses can round to 1 + 1 ulp; a
    # probability is capped at 1.
    def cdf_at(self, k: int) -> float:
        """P(g <= k), summed directly over the lower masses."""
        if k < 0:
            return 0.0
        return min(1.0, float(self.mass[: min(k, self.n) + 1].sum()))

    def upper_tail(self, k: int) -> float:
        """P(g > k), summed over the upper masses (no 1 - cdf cancellation)."""
        if k >= self.n:
            return 0.0
        return min(1.0, float(self.mass[max(k, -1) + 1 :].sum()))


def binomial_pmf(n: int, rate: float) -> np.ndarray:
    """Binomial(n, r) pmf via a log-space recurrence.

    log P(k) - log P(k-1) = log((n - k + 1) / k) + log(r / (1 - r)),
    accumulated with a cumulative sum and exponentiated from the
    running maximum, then normalized. Stable for n up to at least 1e6
    where direct factorials or products would over/underflow. Masses
    below the smallest normal double are returned as 0, as in
    ``VotePmf``. n above ``BINOMIAL_SIZE_GUARD`` is refused.
    """
    n = _as_size(n, "n")
    if n > BINOMIAL_SIZE_GUARD:
        raise SizeGuardExceeded(f"binomial pmf n={n} exceeds guard {BINOMIAL_SIZE_GUARD}")
    r = _as_probability(rate, "rate")
    log_odds = math.log(r) - math.log1p(-r)
    logs = np.empty(n + 1)
    logs[0] = n * math.log1p(-r)
    k = np.arange(1, n + 1, dtype=float)
    logs[1:] = logs[0] + np.cumsum(np.log((n - k + 1.0) / k) + log_odds)
    out = np.exp(logs - logs.max())
    out /= out.sum()
    out[out < np.finfo(float).tiny] = 0.0
    return out


def _markov_sum_pmf(n: int, rate: float, model: Geometric) -> np.ndarray:
    """DP for the sum of a stationary two-state Markov chain.

    States track (running sum, last vote). Transitions are
    ``Geometric.transitions``, which keep the marginal at r and give
    lag-k correlation exactly gamma**k.

    The DP works in place on preallocated buffers and only over the
    window [lo, hi] of sums that may still hold a mass >= the smallest
    normal double. Each step widens the window by one at the top, then
    trims either end while both states there are below that threshold.
    So at most n entries are ever trimmed, each under 2 * tiny, and the
    output moves by less than 2 n tiny in total (4e-303 at the size
    guard). Without the trim the tails fill with subnormals, which are
    slow to compute and carry no correct digits (P(g = n) came out near
    1e-323 where the truth is near 1e-969). Each element keeps the
    operation order of the plain full-width recurrence, so masses far
    above the threshold are bit-identical to it. Cost is O(n * width)
    time, at most O(n^2), and O(n) memory.
    """
    t11, t01 = model.transitions(rate)
    s11, s01 = 1.0 - t11, 1.0 - t01
    tiny = np.finfo(float).tiny
    # last0[k] = P(sum over first i votes = k, vote i = 0); same for last1.
    # Invariant: both pairs are zero outside the current window.
    last0, last1, new0, new1, work = np.zeros((5, n + 1))
    last0[0] = 1.0 - rate
    last1[1] = rate
    lo, hi = 0, 1
    for _ in range(n - 1):
        prev0, prev1 = last0[lo : hi + 1], last1[lo : hi + 1]
        tmp = work[: hi + 1 - lo]
        up = new1[lo + 1 : hi + 2]
        np.multiply(prev1, t11, out=up)
        np.multiply(prev0, t01, out=tmp)
        np.add(up, tmp, out=up)
        new1[lo] = 0.0
        stay = new0[lo : hi + 1]
        np.multiply(prev1, s11, out=stay)
        np.multiply(prev0, s01, out=tmp)
        np.add(stay, tmp, out=stay)
        hi += 1
        # Zero trimmed entries in both pairs: the old pair is the next
        # step's output, and a stale mass there would leak back in.
        while lo < hi and new0[lo] < tiny and new1[lo] < tiny:
            new0[lo] = new1[lo] = last0[lo] = last1[lo] = 0.0
            lo += 1
        while hi > lo and new0[hi] < tiny and new1[hi] < tiny:
            new0[hi] = new1[hi] = last0[hi] = last1[hi] = 0.0
            hi -= 1
        last0, last1, new0, new1 = new0, new1, last0, last1
    out = last0 + last1
    out /= out.sum()
    return out


def exact_vote_pmf(model: CorrelationModel, n: int, rate: float) -> VotePmf:
    """Exact pmf of the vote sum at marginal rate r under the model."""
    n = _as_size(n, "n")
    r = _as_probability(rate, "rate")
    if isinstance(model, Independent):
        mass = binomial_pmf(n, r)
    elif isinstance(model, Geometric):
        if n > GEOMETRIC_SIZE_GUARD:
            raise SizeGuardExceeded(
                f"geometric pmf is O(n^2); n={n} exceeds guard {GEOMETRIC_SIZE_GUARD}"
            )
        mass = _markov_sum_pmf(n, r, model)
    elif isinstance(model, Equicorrelated):
        mass = (1.0 - model.lam) * binomial_pmf(n, r)
        mass[0] += model.lam * (1.0 - r)
        mass[n] += model.lam * r
    else:
        raise BadParameter(f"unknown correlation model {model!r}")
    return VotePmf(n=n, mass=mass)


def error_from_pmfs(pmf_p: VotePmf, pmf_q: VotePmf, pi: float) -> float:
    """Majority-vote error rate from the two class-conditional pmfs.

    Err(n) = P(g <= floor(n/2) | class 1) pi
           + P(g > floor(n/2) | class 0) (1 - pi).

    Strict majority with ties to class 0: class 1 is missed whenever
    g fails to exceed n/2, which for integer g means g <= floor(n/2).
    """
    tie = pmf_p.n // 2
    return pmf_p.cdf_at(tie) * pi + pmf_q.upper_tail(tie) * (1.0 - pi)


def exact_error(cfg: EnsembleConfig) -> float:
    """Exact majority-vote error rate; see ``error_from_pmfs``."""
    pmf_p = exact_vote_pmf(cfg.model, cfg.n, cfg.rates.p)
    pmf_q = exact_vote_pmf(cfg.model, cfg.n, cfg.rates.q)
    return error_from_pmfs(pmf_p, pmf_q, cfg.prior.pi)


def _vector_probabilities(
    bits: np.ndarray, rate: float, model: CorrelationModel
) -> np.ndarray:
    """P(votes = b) for every row b of bits, conditioned on one class."""
    n = bits.shape[1]
    ones = bits.sum(axis=1)
    independent = rate**ones * (1.0 - rate) ** (n - ones)
    if isinstance(model, Independent):
        return independent
    if isinstance(model, Geometric):
        t11, t01 = model.transitions(rate)
        prob = np.where(bits[:, 0] == 1, rate, 1.0 - rate)
        for i in range(1, n):
            stay = np.where(bits[:, i - 1] == 1, t11, t01)
            prob = prob * np.where(bits[:, i] == 1, stay, 1.0 - stay)
        return prob
    if isinstance(model, Equicorrelated):
        shared = np.zeros(len(bits))
        shared[ones == n] = rate
        shared[ones == 0] = 1.0 - rate
        return model.lam * shared + (1.0 - model.lam) * independent
    raise BadParameter(f"unknown correlation model {model!r}")


def brute_force_error(cfg: EnsembleConfig) -> float:
    """Majority error by explicit enumeration of all 2**n vote vectors.

    Exponential; guarded to n <= 20. This shares no code path with
    ``exact_error`` beyond the model parameters, which is the point.
    """
    n = cfg.n
    if n > BRUTE_FORCE_SIZE_GUARD:
        raise SizeGuardExceeded(
            f"brute force enumerates 2^n vectors; n={n} exceeds guard "
            f"{BRUTE_FORCE_SIZE_GUARD}"
        )
    index = np.arange(2**n, dtype=np.uint32)
    bits = (index[:, None] >> np.arange(n)[None, :]) & 1
    ones = bits.sum(axis=1)
    majority_one = 2 * ones > n
    prob_class1 = _vector_probabilities(bits, cfg.rates.p, cfg.model)
    prob_class0 = _vector_probabilities(bits, cfg.rates.q, cfg.model)
    pi = cfg.prior.pi
    miss = float(prob_class1[~majority_one].sum())
    false_alarm = float(prob_class0[majority_one].sum())
    return miss * pi + false_alarm * (1.0 - pi)
