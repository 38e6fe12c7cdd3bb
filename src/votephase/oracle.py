"""Exact finite-n distributions of the vote sum.

These routines compute the probability mass function of g = sum of n
binary votes under each correlation model, with no sampling and no
normal approximation. They exist to pin down ground truth: the
analytic estimates and Monte Carlo results are both judged against
them in the tests.

Per model:

* Independent: Binomial(n, r), by a log-space recurrence outward from
  the mode over only the window of masses that are normal doubles,
  about 2 ms at n = 10**6.
* Geometric: transfer-matrix product for a stationary two-state Markov
  chain whose lag-k correlations are gamma**k, raised by halving and
  binary powering with direct convolutions, five per squaring. Every
  product keeps only the window of sums whose mass is at least
  ``_TRIM_FLOOR``, a subnormal far below the smallest normal double, so
  the far tails cost nothing, and is scaled by powers of two where its
  tails would compute in subnormals. The pmf holds the pgf as two
  factor pairs of at most n/2 + 1 masses each and reads each tail from
  them in O(n); its n + 1 masses are built on first read. O(n) memory.
  At r = 0.6 and gamma 0.3-0.99 on a 2-vCPU Xeon VM, the factors take
  0.015-0.037 s at n = 20001 and 0.14-1.04 s at n = 10**5, and the
  masses 0.01-0.05 s and 0.07-0.96 s more.
  From n = ``GEOMETRIC_THREAD_MIN_N`` the two class pmfs run on two
  threads (``class_pmfs``).
* Equicorrelated: two-component mixture, lam * (shared coin) +
  (1 - lam) * Binomial(n, r). Only the binomial's run of nonzero
  masses, found by two bisections from its mode, and the two endpoint
  masses are scaled and flushed; every other mass stays 0, so at
  n = 10**6 it takes what the binomial takes, 1.2-1.5 ms on a 2-vCPU
  Xeon VM.

``exact_vote_pmf`` returns a ``VotePmf``, a plain result type that
checks nothing: it is built only here, from masses that are already
flushed or from factors whose masses are flushed when built. Every mass
below the smallest normal double (``np.finfo(float).tiny``, about
2.2e-308) reads exactly 0, in a ``VotePmf`` and from ``binomial_pmf``.

``brute_force_error`` enumerates all 2**n vote vectors and is the
slowest, most direct cross-check of all; it is guarded to n <= 20.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .model import (
    CorrelationModel,
    EnsembleConfig,
    Equicorrelated,
    Geometric,
    _as_probability,
    _as_size,
    _check_guard,
    _thread_map,
    check_model,
)

# The geometric pmf costs O(w^2) for a window of w normal-double masses,
# at most O(n^2); at this n and r = 0.6 one pmf's factors take
# 0.14-1.04 s (gamma 0.3-0.99) on a 2-vCPU Xeon VM, and its masses
# 0.07-0.96 s more, so refuse larger n rather than silently eat minutes
# of CPU.
GEOMETRIC_SIZE_GUARD = 100_000

# The binomial pmf computes only its normal-double window but returns
# n + 1 float64 masses, which ``exact_vote_pmf`` keeps without a copy
# and, under the equicorrelated model, writes only in that window and
# at both ends; the untouched zero pages stay unmapped, so a fresh
# ``oracle --n 10**7`` peaks near 40 MiB under either model. Refuse
# larger n before allocating any.
BINOMIAL_SIZE_GUARD = 10**7

# 2**n vectors, each vote doubling the time; at 20 one brute force
# takes under 0.1 s on a 2-vCPU Xeon VM. A vector holds at most 20
# ones and twice that is 40, so ``brute_force_error`` counts in uint8.
BRUTE_FORCE_SIZE_GUARD = 20

# A geometric pair of pmfs at this n or above is computed on two
# threads (see ``class_pmfs``); below it the threads' contention for
# the GIL can cost more than the overlap saves. On a 2-vCPU Xeon VM at
# gamma 0.3 / 0.8 / 0.99 (p = 0.6, q = 0.4), threaded exact_error,
# which computes only the factors, ran 0.73-0.90x as fast as in turn
# at n = 5001 and, in medians over runs, 0.97 / 0.99 / 0.99x at 8001,
# 1.18 / 1.10 / 1.21x at 9001, 1.14 / 1.20 / 1.14x at 10001 and
# 1.42 / 1.56 / 1.58x at 20001 (each run the median of 11-15
# alternations). 9001 and 10001 are within the runs' spread of each
# other; the threshold stays where it was.
GEOMETRIC_THREAD_MIN_N = 10001

# The smallest normal double; see the module docstring.
_TINY = float(np.finfo(float).tiny)

# Intermediate geometric products drop end masses below this floor, not
# below tiny: an output mass near tiny is a sum of such masses with
# weights summing to at most 1, so a trim at tiny could cost it about
# tiny itself (21% at k = 4222 for n = 20001, r = 0.6, gamma = 0.8).
# Each mass trimmed here is below 5e-11 tiny, and a mass at the floor
# still holds 17 significant bits.
_TRIM_FLOOR = 1e-318


class VotePmf:
    """Distribution of the vote sum: mass[k] = P(g = k), k = 0..n.

    What ``exact_vote_pmf`` returns; callers do not build one. A
    binomial or equicorrelated pmf holds its n + 1 masses, flushed below
    tiny. A geometric pmf holds the pgf's transfer-matrix factors
    (``_markov_factors``), reads each tail from them in O(w) for a
    window of w masses, and builds ``mass`` from them on first read.
    ``mass`` is read-only.
    """

    def __init__(self, n: int, mass=None, factors=None) -> None:
        if mass is not None:
            mass.flags.writeable = False
        self.n, self._mass, self._factors = n, mass, factors

    @property
    def mass(self) -> np.ndarray:
        # Threads that first read it at once may each build it; every
        # build gives the same masses.
        if self._mass is None:
            self._mass = _markov_mass(self.n, self._factors[0])
        return self._mass

    # A partial sum of normalized masses can round to 1 + 1 ulp; a
    # probability is capped at 1. The slice bound is clamped at 0 so a
    # negative k cannot wrap; a bound past n gives an empty sum, 0.0.
    # A geometric tail takes k clamped to -1..n, with the same results.
    def cdf_at(self, k: int) -> float:
        """P(g <= k), summed over the lower masses, or over the factors'
        prefix sums for a geometric pmf (``_factor_tail``)."""
        if self._factors is None:
            return min(1.0, float(self._mass[: max(k + 1, 0)].sum()))
        return _factor_tail(min(max(k, -1), self.n), False, *self._factors)

    def upper_tail(self, k: int) -> float:
        """P(g > k), summed over the upper masses, or over the factors'
        suffix sums for a geometric pmf; no 1 - cdf cancellation."""
        if self._factors is None:
            return min(1.0, float(self._mass[max(k + 1, 0) :].sum()))
        return _factor_tail(min(max(k, -1), self.n), True, *self._factors)


def _binomial_mode(n: int, r: float) -> int:
    """A mode of Binomial(n, r), where ``binomial_pmf`` starts its window."""
    return min(n, int((n + 1) * r))


def binomial_pmf(n: int, rate: float) -> np.ndarray:
    """Binomial(n, r) pmf over its window of normal-double masses.

    log P(k) - log P(k-1) = log((n - k + 1) / k) + log(r / (1 - r)) is
    accumulated with cumulative sums outward from the mode
    int((n + 1) r), where log P is taken as 0. The window starts at
    half-width sqrt(2 * 745 * n r (1 - r)) + 2, where a normal tail is
    below exp(-745), and doubles until each end has reached 0 or n or
    fallen below log(tiny). P(mode) <= 1 and the pmf is log-concave, so
    no mass outside the window is a normal double. The window is
    exponentiated from its maximum and normalized. Rounding grows with
    the distance from the mode, not from k = 0, and only the window's
    log-ratios are computed: about 38,000 at n = 10**6 and r = 0.6, not
    n. Masses below the smallest normal double are returned as 0, as in
    ``VotePmf``. n above ``BINOMIAL_SIZE_GUARD`` is refused.

    Measured against the exact pmf of the same double rate
    (``tests/accuracy.py``), every mass at or above tiny is within
    6.3e-15 to 5.7e-14 relative at n = 60 and r = 0.01-0.99, but within
    only 1.4e-13 at n = 60, r = 0.99998, 1.5e-13 at n = 200, r = 0.0039,
    1.4e-13 at n = 200, r = 0.125, and 2.3e-13 at n = 400, r = 0.01: the
    rounding of the log-space sums grows with the distance from the mode,
    so 1e-13 holds only at moderate n and rates.
    """
    n = _as_size(n, "n")
    _check_guard("binomial pmf n", n, BINOMIAL_SIZE_GUARD)
    r = _as_probability(rate, "rate")
    log_odds = math.log(r) - math.log1p(-r)
    log_tiny = math.log(_TINY)
    mode = _binomial_mode(n, r)
    width = int(math.sqrt(2 * 745 * n * r * (1.0 - r))) + 2
    while True:
        lo, hi = max(0, mode - width), min(n, mode + width)
        k = np.arange(mode + 1, hi + 1, dtype=float)
        up = np.cumsum(np.log((n - k + 1.0) / k) + log_odds)
        k = np.arange(mode, lo, -1, dtype=float)
        down = np.cumsum(-np.log((n - k + 1.0) / k) - log_odds)
        if (hi == n or up[-1] < log_tiny) and (lo == 0 or down[-1] < log_tiny):
            break
        width *= 2
    logs = np.concatenate([down[::-1], [0.0], up])
    window = np.exp(logs - logs.max())
    window /= window.sum()
    window[window < _TINY] = 0.0
    out = np.zeros(n + 1)
    out[lo : hi + 1] = window
    return out


# A polynomial in z with nonnegative coefficients, as (offset, masses):
# masses[i] is the coefficient of z**(offset + i). Both end masses are
# at least ``_TRIM_FLOOR``, so they may be subnormal; None is the zero
# polynomial.


def _trimmed(offset: int, masses: np.ndarray):
    """Drop end masses below ``_TRIM_FLOOR``; None if none remain."""
    keep = np.flatnonzero(masses >= _TRIM_FLOOR)
    if keep.size == 0:
        return None
    return offset + int(keep[0]), masses[keep[0] : keep[-1] + 1]


def _poly_sum(a, b):
    if a is None or b is None:
        return b if a is None else a
    lo = min(a[0], b[0])
    out = np.zeros(max(a[0] + len(a[1]), b[0] + len(b[1])) - lo)
    out[a[0] - lo : a[0] - lo + len(a[1])] += a[1]
    out[b[0] - lo : b[0] - lo + len(b[1])] += b[1]
    return lo, out


def _poly_product(a, b):
    """a * b, trimmed. ``np.convolve`` multiplies directly: FFT error is
    absolute, so it would swamp the tail masses.

    x86 takes a slow path for every subnormal result. So when the
    product of the two factors' smaller end masses is below tiny, as it
    always is when an end mass is subnormal, the factors are scaled by
    2**s in all before the convolution and the result by 2**-s after
    it, with s = min(1022, 1022 - ea - eb - bit_length(shorter length))
    for largest masses below 2**ea and 2**eb: no partial sum can
    overflow, and a product of normal masses is subnormal only if it
    was below 2**-(1022 + s). Scaling up by a power of two is exact on
    every double short of overflow, subnormals included, and scaling
    down is exact on every result that stays normal (Goldberg 1991), so
    every mass is np.convolve's bit for bit unless one of its products
    underflows.
    """
    if a is None or b is None:
        return None
    x, y = a[1], b[1]
    if min(x[0], x[-1]) * min(y[0], y[-1]) >= _TINY:
        return _trimmed(a[0] + b[0], np.convolve(x, y))
    ea, eb = math.frexp(x.max())[1], math.frexp(y.max())[1]
    s = min(1022, 1022 - ea - eb - min(len(x), len(y)).bit_length())
    masses = np.convolve(np.ldexp(x, s // 2), np.ldexp(y, s - s // 2))
    return _trimmed(a[0] + b[0], np.ldexp(masses, -s))


def _vote(p: float) -> list:
    """pgf row of one vote that is 1 with probability p: [1 - p, p z]."""
    return [_trimmed(0, np.array([1.0 - p])), _trimmed(1, np.array([p]))]


def _matmul(a: list, b: list) -> list:
    """Product of two matrices (lists of rows) of polynomials."""
    out = []
    for row in a:
        out.append([])
        for column in zip(*b):
            total = None
            for x, y in zip(row, column):
                total = _poly_sum(total, _poly_product(x, y))
            out[-1].append(total)
    return out


def _square(m: list) -> list:
    """m @ m for a 2 x 2 matrix of polynomials, from five products:
    polynomials commute, so AB + BD = B(A + D) and CA + DC = C(A + D)."""
    (a, b), (c, d) = m
    bc, trace = _poly_product(b, c), _poly_sum(a, d)
    return [
        [_poly_sum(_poly_product(a, a), bc), _poly_product(b, trace)],
        [_poly_product(c, trace), _poly_sum(_poly_product(d, d), bc)],
    ]


def _markov_factors(n: int, rate: float, model: Geometric) -> tuple:
    """Factors of the pgf of the sum of a stationary two-state Markov chain.

    Transfer-matrix form of the Markov binomial (Gabriel 1959,
    Biometrika 46): with transitions (t11, t01) from
    ``Geometric.transitions``, which keep the marginal at r and give
    lag-k correlation exactly gamma**k, the pgf of the sum is
    v P(z)**(n-1) 1 for

        P(z) = [[1 - t01, t01 z], [1 - t11, t11 z]],  v = [1 - r, r z].

    Write n - 1 = 2h, after one step v <- v P if n - 1 is odd; then the
    pgf is sum_j L_j R_j with L = v P**h and R = P**h 1, the row sums
    of P**h. P**h comes from binary powering, each squaring from five
    polynomial products (``_square``). An entry of P**k holds
    w(k) = min(k + 1, O(sqrt(k))) masses at or above ``_TRIM_FLOOR``,
    so L_j and R_j hold w(n/2) each: a tail needs O(w) work from them
    (``_factor_tail``), the n + 1 masses two w(n/2) x w(n/2)
    convolutions (``_markov_mass``). Every product is trimmed at both
    ends to masses >= ``_TRIM_FLOOR``, and is scaled by powers of two
    where its deep tails would otherwise compute in subnormals
    (``_poly_product``). Each trimmed mass is under the
    floor, and every mass is a sum of nonnegative products, so every
    mass down to tiny keeps its relative precision. O(n) memory.

    Returns the pairs (L_j, R_j) with neither factor zero, and their
    total mass sum_j sum(L_j) sum(R_j).
    """
    t11, t01 = model.transitions(rate)
    step = [_vote(t01), _vote(t11)]
    first = [_vote(rate)]
    if (n - 1) % 2:
        first = _matmul(first, step)
    one = (0, np.ones(1))
    half = [[one, None], [None, one]]
    for bit in bin((n - 1) // 2)[2:]:
        half = _square(half)
        if bit == "1":
            half = _matmul(half, step)
    right = [_poly_sum(*row) for row in half]
    pairs = [(x, y) for x, y in zip(_matmul(first, half)[0], right) if x and y]
    total = sum(x[1].sum(dtype=np.longdouble) * y[1].sum(dtype=np.longdouble) for x, y in pairs)
    return pairs, total


def _markov_mass(n: int, pairs: list) -> np.ndarray:
    """The n + 1 masses of sum_j L_j R_j, normalized and read-only;
    below tiny reads 0."""
    offset, masses = _matmul([[x for x, _ in pairs]], [[y] for _, y in pairs])[0][0]
    out = np.zeros(n + 1)
    out[offset : offset + len(masses)] = masses
    out /= out.sum()
    out[out < _TINY] = 0.0
    out.flags.writeable = False
    return out


def _factor_tail(k: int, upper: bool, pairs: list, total) -> float:
    """P(g > k) if upper, else P(g <= k), from the pgf sum_j L_j R_j.

    For L_j = z**a sum_m x[m] z**m and R_j = z**b sum_i y[i] z**i, the
    tail sums y[i] times the sum of the x[m] with a + m + b + i on the
    tail's side of k: a prefix sum of x for P(g <= k) and a suffix sum
    for P(g > k), so neither tail is 1 minus the other. The sums run in
    long double, whose significand is 64 bits on x86 and whose exponent
    range holds every product of two masses, so the tail rounds to a
    double once. Capped at 1; a tail below tiny reads 0, as a mass below
    tiny does.
    """
    tail = 0.0
    for (a, x), (b, y) in pairs:
        cut = np.clip(k + 1 - a - b - np.arange(len(y)), 0, len(x))
        # sums[c] = x[:c].sum(), or for the upper tail x[len(x) - c :].sum()
        sums = np.cumsum(np.r_[0.0, x[::-1] if upper else x], dtype=np.longdouble)
        tail += (y * sums[len(x) - cut if upper else cut]).sum()
    tail = min(1.0, float(tail / total))
    return tail if tail >= _TINY else 0.0


def exact_vote_pmf(model: CorrelationModel, n: int, rate: float) -> VotePmf:
    """Exact pmf of the vote sum at marginal rate r under the model."""
    n = _as_size(n, "n")
    r = _as_probability(rate, "rate")
    check_model(model)
    if isinstance(model, Geometric):
        _check_guard("geometric pmf n", n, GEOMETRIC_SIZE_GUARD)
        return VotePmf(n, factors=_markov_factors(n, r, model))
    mass = binomial_pmf(n, r)
    if isinstance(model, Equicorrelated):
        # The binomial is unimodal, so its nonzero masses are one run
        # [lo, hi) through the mode; every mass outside it is 0 and
        # stays 0 when scaled, so two bisections bound all the work.
        mode = _binomial_mode(n, r)
        lo = bisect.bisect_left(range(mode), True, key=lambda k: mass[k] > 0.0)
        hi = bisect.bisect_left(range(n + 1), True, lo=mode, key=lambda k: mass[k] == 0.0)
        mass[lo:hi] *= 1.0 - model.lam
        mass[0] += model.lam * (1.0 - r)
        mass[n] += model.lam * r
        for part in (mass[lo:hi], mass[:1], mass[n:]):
            part[part < _TINY] = 0.0
    return VotePmf(n, mass)


def error_from_pmfs(pmf_p: VotePmf, pmf_q: VotePmf, pi: float) -> float:
    """Majority-vote error rate from the two class-conditional pmfs.

    Err(n) = P(g <= floor(n/2) | class 1) pi
           + P(g > floor(n/2) | class 0) (1 - pi).

    Strict majority with ties to class 0: class 1 is missed whenever
    g fails to exceed n/2, which for integer g means g <= floor(n/2).
    """
    tie = pmf_p.n // 2
    return pmf_p.cdf_at(tie) * pi + pmf_q.upper_tail(tie) * (1.0 - pi)


def class_pmfs(cfg: EnsembleConfig) -> tuple:
    """(pmf at p, pmf at q) of the vote sum, from ``exact_vote_pmf``.

    A geometric pair with n >= ``GEOMETRIC_THREAD_MIN_N`` asks
    ``model._thread_map`` for two workers, which it gets when the
    process may use more than one CPU: the large convolutions run
    without the GIL. Any other pair asks for one and is computed on the
    calling thread. The results are read in order, p first, so the
    caller gets the same values and the same error as from the pmfs in
    turn; both are read, so the workers are joined before the call
    returns or raises.
    """
    def pmf(rate: float) -> VotePmf:
        return exact_vote_pmf(cfg.model, cfg.n, rate)

    threaded = isinstance(cfg.model, Geometric) and cfg.n >= GEOMETRIC_THREAD_MIN_N
    return tuple(_thread_map(pmf, (cfg.rates.p, cfg.rates.q), 2 if threaded else 1))


def exact_error(cfg: EnsembleConfig) -> float:
    """Exact majority-vote error rate; see ``error_from_pmfs``."""
    return error_from_pmfs(*class_pmfs(cfg), cfg.prior.pi)


def _vector_probabilities(n: int, rate: float, model: CorrelationModel) -> np.ndarray:
    """P(votes = b) for all 2**n vote vectors, conditioned on one class.

    Index i holds the vector whose vote j is bit j of i. Every model is
    built from one two-state chain that appends one vote at a time, in
    place in one array: with h = size / 2, prob[:h] ends in a 0 and
    prob[h:size] in a 1, and the new vote writes the vectors that end in
    a 1 to prob[size:2 size] before it scales prob[:size] by the chance
    of a 0. The geometric chain moves with ``Geometric.transitions``;
    the independent chain's next vote ignores the last (t11 = t01 = r).
    The equicorrelated model mixes the shared coin into the independent
    chain: it gives only the all-zeros vector (index 0) and the all-ones
    vector (index -1).
    """
    t11, t01 = model.transitions(rate) if isinstance(model, Geometric) else (rate, rate)
    prob = np.empty(2**n)
    prob[:2] = 1.0 - rate, rate
    for size in (2**j for j in range(1, n)):
        h = size // 2
        np.multiply(prob[:h], t01, out=prob[size : size + h])
        np.multiply(prob[h:size], t11, out=prob[size + h : 2 * size])
        prob[:h] *= 1.0 - t01
        prob[h:size] *= 1.0 - t11
    if isinstance(model, Equicorrelated):
        prob *= 1.0 - model.lam
        prob[0] += model.lam * (1.0 - rate)
        prob[-1] += model.lam * rate
    return prob


def brute_force_error(cfg: EnsembleConfig) -> float:
    """Majority error by explicit enumeration of all 2**n vote vectors.

    Exponential; guarded to n <= 20. This shares no code path with
    ``exact_error`` beyond the model parameters and the size-guard
    check, which is the point.
    """
    n = cfg.n
    _check_guard("brute force enumerates 2^n vectors; n", n, BRUTE_FORCE_SIZE_GUARD)
    ones = np.zeros(2**n, dtype=np.uint8)
    for size in (2**j for j in range(n)):
        np.add(ones[:size], 1, out=ones[size : 2 * size])
    majority_one = 2 * ones > n
    prob_class1 = _vector_probabilities(n, cfg.rates.p, cfg.model)
    prob_class0 = _vector_probabilities(n, cfg.rates.q, cfg.model)
    pi = cfg.prior.pi
    miss = float(prob_class1[~majority_one].sum())
    false_alarm = float(prob_class0[majority_one].sum())
    return miss * pi + false_alarm * (1.0 - pi)
