"""Slow reference computations and sampling helpers for the tests."""

import decimal
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

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
    check_model,
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


def asymptotic_sigma_sq(model: CorrelationModel, rate: float) -> float:
    """lim_n Var(g)/n at rate r, validated; ``math.inf`` under
    equicorrelation. See the model's own ``asymptotic_sigma_sq``."""
    r = _as_probability(rate, "rate")
    check_model(model)
    return model.asymptotic_sigma_sq(r)


def geometric_variance_factor(gamma: float, n: int) -> float:
    """A validated ``Geometric(gamma).variance_factor(n)``."""
    return Geometric(gamma).variance_factor(_as_size(n, "n"))


def uses_abusive_variance(model: CorrelationModel) -> bool:
    """True when the normal plug-in formula is applied despite an
    infinite per-vote variance (equicorrelated model)."""
    return model.abusive


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


def markov_sum_pmf_dp(n: int, rate: float, model: Geometric) -> np.ndarray:
    """DP for the sum of a stationary two-state Markov chain.

    An independent reference for the transfer-matrix product in
    ``votephase.oracle``: the two share only the transition formulas.

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


def _run_count_terms(n, rate, gamma, k, log_fact):
    """The terms of the run-count form of P(g = k), 0 < k < n.

    For each start vote s and end vote e, yields (s, m, z, logs): the
    vectors with k ones in m 1-runs and n - k zeros in z 0-runs (0-runs
    alternate with the 1-runs), and the log of each term,
    C(k-1, m-1) C(n-k-1, z-1) start(s) t11^(k-m) (1-t11)^#10 t01^#01
    (1-t01)^(n-k-z), where #10 = z - (1 - s) counts every 0-run but a
    leading one and #01 = m - s every 1-run but a leading one.
    """
    t11 = rate + gamma * (1.0 - rate)
    t01 = rate * (1.0 - gamma)
    l11, l10 = math.log(t11), math.log1p(-t11)
    l01, l00 = math.log(t01), math.log1p(-t01)

    def log_choose(a, b):
        return log_fact[a] - log_fact[b] - log_fact[a - b]

    zeros = n - k
    m = np.arange(1, k + 1)
    for start, end in ((1, 1), (1, 0), (0, 1), (0, 0)):
        z = m - start + (1 - end)
        ok = (z >= 1) & (z <= zeros)
        mm, zz = m[ok], z[ok]
        n10 = zz - (1 - start)
        n01 = mm - start
        logs = (
            log_choose(k - 1, mm - 1)
            + log_choose(zeros - 1, zz - 1)
            + (math.log(rate) if start else math.log1p(-rate))
            + (k - mm) * l11
            + n10 * l10
            + n01 * l01
            + (zeros - zz) * l00
        )
        yield start, mm, zz, logs


def _log_factorials(n):
    return np.array([math.lgamma(j + 1.0) for j in range(n + 1)])


def run_count_log_pmf(n, rate, gamma, ks):
    """log P(g = k) for a stationary two-state Markov chain, in closed form.

    Counts vote vectors by their runs (Gabriel 1959, Biometrika 46): a
    vector with k ones in m 1-runs and n - k zeros in z 0-runs, starting
    with vote s, has C(k-1, m-1) C(n-k-1, z-1) arrangements, each of
    probability start(s) t11^(k-m) (1-t11)^#10 t01^#01 (1-t01)^(n-k-z)
    (``_run_count_terms``). Shares nothing with the DP but the
    transition formulas.
    """
    t11 = rate + gamma * (1.0 - rate)
    t01 = rate * (1.0 - gamma)
    log_fact = _log_factorials(n)
    out = []
    for k in ks:
        if k == 0:
            out.append(math.log1p(-rate) + (n - 1) * math.log1p(-t01))
            continue
        if k == n:
            out.append(math.log(rate) + (n - 1) * math.log(t11))
            continue
        logs = np.concatenate([t[-1] for t in _run_count_terms(n, rate, gamma, k, log_fact)])
        top = logs.max()
        out.append(top + math.log(np.exp(logs - top).sum()))
    return np.array(out)


def decimal_markov_pmf_at(n, rate, gamma, k, digits=50):
    """P(g = k) for the stationary two-state chain, as a ``Decimal``.

    The run-count form of ``run_count_log_pmf``, summed in stdlib
    ``decimal`` at ``digits`` significant digits on the exact values of
    the double r and of the doubles (t11, t01) that
    ``Geometric.transitions`` gives the oracle; 1 - t is exact too. The
    float log form finds the largest term, and terms below e**-120 of it
    are skipped: at most 4n of them, so together they move the sum by
    less than 4n e**-120 relative, under 1e-46 up to the size guard.

    Slow: 0.3-1.2 s per k at n = 20001, gamma = 0.8, and 7.5-17 s at
    gamma = 0.3 (window edges, 2-vCPU Xeon VM).
    """
    t11, t01 = Geometric(gamma=gamma).transitions(rate)
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        one = decimal.Decimal(1)
        r, t11, t01 = (decimal.Decimal(x) for x in (rate, t11, t01))
        if k == 0:
            return (one - r) * (one - t01) ** (n - 1)
        if k == n:
            return r * t11 ** (n - 1)
        zeros = n - k
        terms = list(_run_count_terms(n, rate, gamma, k, _log_factorials(n)))
        floor = max(t[-1].max() for t in terms if len(t[-1])) - 120.0
        total = decimal.Decimal(0)
        for start, mm, zz, logs in terms:
            for m, z in zip(mm[logs >= floor].tolist(), zz[logs >= floor].tolist()):
                ways = decimal.Decimal(math.comb(k - 1, m - 1) * math.comb(zeros - 1, z - 1))
                total += (
                    ways
                    * (r if start else one - r)
                    * t11 ** (k - m)
                    * (one - t11) ** (z - 1 + start)
                    * t01 ** (m - start)
                    * (one - t01) ** (zeros - z)
                )
        return total


def exact_binomial_pmf(n: int, rate: float) -> list:
    """Binomial(n, r) pmf as Fractions: exact for the double r."""
    r = Fraction(rate)
    return [math.comb(n, k) * r**k * (1 - r) ** (n - k) for k in range(n + 1)]


def exact_markov_sum_pmf(n: int, rate: float, model: Geometric) -> list:
    """pmf of the sum of the stationary two-state chain, as Fractions.

    The (running sum, last vote) recurrence of ``markov_sum_pmf_dp``,
    untrimmed, on the exact rationals of the double r and of the doubles
    ``Geometric.transitions`` returns; 1 - t is exact too. Each double
    is a ratio over a power of 2, so the recurrence runs on integer
    numerators over the common denominator, which is far faster than
    Fraction arithmetic at every step and gives the same values.
    """
    r, t11, t01 = (Fraction(x) for x in (rate, *model.transitions(rate)))
    scale = max(r.denominator, t11.denominator, t01.denominator)
    r, t11, t01 = (int(x * scale) for x in (r, t11, t01))
    # last0[k], last1[k]: numerator of P(first i votes sum to k, vote i is 0 / 1).
    last0, last1 = [scale - r, 0], [0, r]
    for _ in range(n - 1):
        last0, last1 = (
            [a * (scale - t01) + b * (scale - t11) for a, b in zip(last0, last1)] + [0],
            [0] + [a * t01 + b * t11 for a, b in zip(last0, last1)],
        )
    return [Fraction(a + b, scale**n) for a, b in zip(last0, last1)]


def exact_pmf(model: CorrelationModel, n: int, rate: float) -> list:
    """Exact vote-sum pmf of any model as Fractions; the equicorrelated
    one mixes the shared coin into the binomial."""
    if isinstance(model, Geometric):
        return exact_markov_sum_pmf(n, rate, model)
    mass = exact_binomial_pmf(n, rate)
    if isinstance(model, Equicorrelated):
        lam, r = Fraction(model.lam), Fraction(rate)
        mass = [(1 - lam) * m for m in mass]
        mass[0] += lam * (1 - r)
        mass[n] += lam * r
    return mass


def exact_error_fraction(cfg: EnsembleConfig) -> Fraction:
    """Majority error from the exact pmfs, as a Fraction."""
    tie = cfg.n // 2
    miss = sum(exact_pmf(cfg.model, cfg.n, cfg.rates.p)[: tie + 1])
    false_alarm = sum(exact_pmf(cfg.model, cfg.n, cfg.rates.q)[tie + 1 :])
    pi = Fraction(cfg.prior.pi)
    return miss * pi + false_alarm * (1 - pi)


def pmf_mean(pmf) -> float:
    """Mean of a ``VotePmf``'s vote sum."""
    return float(np.arange(pmf.n + 1) @ pmf.mass)


def pmf_variance(pmf) -> float:
    """Variance of a ``VotePmf``'s vote sum."""
    k = np.arange(pmf.n + 1)
    m = pmf_mean(pmf)
    return float(((k - m) ** 2) @ pmf.mass)


def off_diagonal_mean(correlation: np.ndarray) -> float:
    """Mean over all distinct pairs of a correlation matrix (the lambda
    diagnostic of ``mc_correlation_matrix``)."""
    off_mask = ~np.eye(correlation.shape[0], dtype=bool)
    return float(correlation[off_mask].mean())


def decimal_sqrt(x: Fraction) -> decimal.Decimal:
    """Square root of an exact rational to 50 significant digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return (decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)).sqrt()


def within_ulps(value: float, exact: decimal.Decimal, ulps: int) -> bool:
    """True when the double ``value`` is within ``ulps`` ulps of ``exact``."""
    return abs(decimal.Decimal(value) - exact) <= ulps * decimal.Decimal(math.ulp(float(exact)))


def exact_correlation(a: list, b: list):
    """Pearson correlation of two columns from its definition in exact
    rationals, as a 50-digit Decimal; None for a constant column.

    Equal (a, b) rows add equal terms to each sum, so each sum runs over
    the distinct rows, weighted by how often they occur.
    """
    n = len(a)
    ma, mb = Fraction(sum(a), n), Fraction(sum(b), n)
    rows = Counter(zip(a, b)).items()
    cov = sum(c * (x - ma) * (y - mb) for (x, y), c in rows)
    va = sum(c * (x - ma) ** 2 for (x, _), c in rows)
    vb = sum(c * (y - mb) ** 2 for (_, y), c in rows)
    if va == 0 or vb == 0:
        return None
    root = decimal_sqrt(cov * cov / (va * vb))
    return root if cov >= 0 else -root


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
