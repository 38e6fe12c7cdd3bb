"""Closed-form error analysis of the majority vote.

With n members voting and a strict-majority rule (predict 1 iff the
vote sum g exceeds n/2, ties to class 0), the majority error rate is

    Err(n) = P(g <= n/2 | class 1) * pi + P(g > n/2 | class 0) * (1 - pi).

Applying a normal approximation to g conditioned on each class gives
the estimate

    ErrHat(n) = Phi((n/2 - n p) / s_p) * pi
              + (1 - Phi((n/2 - n q) / s_q)) * (1 - pi),

where s_r is the standard deviation of the vote sum at marginal rate r
under the chosen correlation model. Each model class in ``model.py``
owns that variance, ``sum_variance(n, r)``; this module validates the
arguments and calls it. The object of study is the gap

    delta(n) = ErrHat(n) - err,    err = (1 - p) pi + q (1 - pi),

between the estimated majority error and a single member's error. As
n -> inf the estimate converges to a step function of (p, q): each Phi
argument goes to -inf, 0, or +inf according to the side of 1/2 its rate
sits on, so the limiting gap delta(inf) is piecewise constant over nine
regions of the (p, q) square and jumps by pi/2 across p = 1/2 and by
(1 - pi)/2 across q = 1/2.

Under a model flagged ``abusive`` (the equicorrelated one) the
per-vote variance diverges, so the limit above does not describe the
estimator. Plugging the model's n**2 variance coefficient v(r), its
``plugin_variance``, into the normal formula anyway gives an n-free
value

    Phi((1/2 - p) / sqrt(v(p))) * pi
    + (1 - Phi((1/2 - q) / sqrt(v(q)))) * (1 - pi),

the same two-class formula as ErrHat(n), with gap 1/2 - r in place of
n/2 - n r and v(r) in place of s_r**2. This abuse of the normal limit
is still exposed because it is the number the plug-in formula actually
produces; every closed-form row flags it as ``abusive``.

The nine limiting values form one table, built once at import;
``limiting_error`` evaluates the one cell a (p, q) point falls in.
``grid.point`` combines the functions here into the closed-form row
(err, err_hat, delta_n, delta_inf, phase, abusive) that both the
``analytic`` subcommand and every phase-grid row print.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from .model import (
    BadParameter,
    CorrelationModel,
    EnsembleConfig,
    Prior,
    RatePair,
    _as_probability,
    _as_size,
    check_model,
)

_SQRT2 = math.sqrt(2.0)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc.

    erfc underflows to 0 and rounds to 2 in double precision, so the
    result is exactly 0.0 below about -38.5, exactly 1.0 above about
    8.3, and 0.0 or 1.0 at the infinities.
    """
    if x != x:
        raise BadParameter("std_normal_cdf is undefined at NaN")
    return 0.5 * math.erfc(-x / _SQRT2)


def _individual_error(p: float, q: float, pi: float) -> float:
    """(1 - p) pi + q (1 - pi) on raw floats, boundary rates included."""
    return (1.0 - p) * pi + q * (1.0 - pi)


def mean_individual_error(rates: RatePair, prior: Prior) -> float:
    """err = (1 - p) pi + q (1 - pi), one member's average error."""
    return _individual_error(rates.p, rates.q, prior.pi)


def sum_variance(model: CorrelationModel, n: int, rate: float) -> float:
    """Exact variance of the n-member vote sum at marginal rate r,
    validated; see the model's own ``sum_variance``."""
    r = _as_probability(rate, "rate")
    n = _as_size(n, "n")
    check_model(model)
    return model.sum_variance(n, r)


def _normal_estimate(n: int, rates: RatePair, prior: Prior, variance: Callable) -> float:
    """Phi((n/2 - n p)/s_p) pi + Phi((n q - n/2)/s_q) (1 - pi), s_r**2 = variance(r).

    The false-alarm tail is evaluated as Phi((n r - n/2)/s) rather than
    1 - Phi((n/2 - n r)/s); the two are equal exactly, but the
    subtraction would cancel away the tail's relative precision
    whenever it is small.

    A class variance underflows to 0 only where the true Phi argument
    exceeds 1e145 in size, or is 0 at r = 1/2: at r = 5e-324 and n = 1,
    lam r (1 - r) and (1 - lam) r (1 - r) both round to 0 at lam = 1/2.
    Flooring every variance at the smallest positive double gives
    exactly Phi(+-inf) or Phi(0) there, at finite n and in the n-free
    plug-in alike, and leaves every positive variance as it is.
    """

    def z(rate: float) -> float:
        return (n / 2.0 - n * rate) / math.sqrt(max(variance(rate), math.ulp(0.0)))

    return std_normal_cdf(z(rates.p)) * prior.pi + std_normal_cdf(-z(rates.q)) * (1.0 - prior.pi)


def estimated_error(cfg: EnsembleConfig) -> float:
    """Normal-approximation estimate of the majority error at finite n."""
    return _normal_estimate(cfg.n, cfg.rates, cfg.prior, lambda r: cfg.model.sum_variance(cfg.n, r))


def estimated_error_asymptotic(
    rates: RatePair, prior: Prior, model: CorrelationModel
) -> float:
    """n -> inf value of the normal plug-in estimate.

    For finite per-vote variance this is the step-function limit
    ``limiting_error``. For an ``abusive`` model the n's cancel inside
    the Phi arguments and the plug-in value is n-free: the estimate at
    n = 1 with the model's ``plugin_variance``. Under equicorrelation
    that is lam r (1 - r), equivalent to an independent ensemble of
    effective size 1/lam; ``_normal_estimate`` floors it where it
    underflows.
    """
    check_model(model)
    if not model.abusive:
        return limiting_error(rates, prior)
    return _normal_estimate(1, rates, prior, model.plugin_variance)


class Side(enum.Enum):
    """Position of a rate relative to the 1/2 phase boundary."""

    BELOW = "<1/2"
    ON = "=1/2"
    ABOVE = ">1/2"


def _side_index(r: float) -> int:
    """0, 1 or 2 as r sits below, on or above 1/2."""
    return (r >= 0.5) + (r > 0.5)


_SIDES = tuple(Side)


def side_of(rate: float) -> Side:
    return _SIDES[_side_index(_as_probability(rate, "rate"))]


class Phase(enum.Enum):
    """Sign of the limiting gap: does voting help, hurt, or neither."""

    BENEFICIAL = "-"
    HARMFUL = "+"
    NEUTRAL = "0"


def phase_of(delta_value: float) -> Phase:
    if delta_value != delta_value:
        raise BadParameter("phase is undefined at NaN")
    if delta_value < 0.0:
        return Phase.BENEFICIAL
    if delta_value > 0.0:
        return Phase.HARMFUL
    return Phase.NEUTRAL


# The nine cells of the n -> inf limit, each a function of pi, indexed
# [q side][p side] with sides 0, 1, 2 for below, on, above 1/2.
_LIMIT_TABLE = (
    (lambda pi: pi, lambda pi: pi / 2.0, lambda pi: 0.0),
    (lambda pi: (1.0 + pi) / 2.0, lambda pi: 0.5, lambda pi: (1.0 - pi) / 2.0),
    (lambda pi: 1.0, lambda pi: 1.0 - pi / 2.0, lambda pi: 1.0 - pi),
)


def limiting_error(rates: RatePair, prior: Prior) -> float:
    """n -> inf limit of the estimated majority error.

    Each class tail Phi((n/2 - n r)/s_r) converges to 1, 1/2, or 0 as
    r sits below, on, or above 1/2, giving nine constant values over
    the (p, q) square:

        q > 1/2:   1            1 - pi/2      1 - pi
        q = 1/2:   (1+pi)/2     1/2           (1-pi)/2
        q < 1/2:   pi           pi/2          0

    (rows: q side, columns: p < 1/2, p = 1/2, p > 1/2). The call looks
    up one cell of ``_LIMIT_TABLE``, built once at import, and
    evaluates only that cell's expression. The expressions are written
    literally so each value is the correctly rounded double of its
    closed form, not a re-rounded tail sum.
    """
    return _LIMIT_TABLE[_side_index(rates.q)][_side_index(rates.p)](prior.pi)


@dataclass(frozen=True)
class PhaseVerdict:
    """Limiting gap, its sign, and the (p, q) region it came from."""

    delta_inf: float
    phase: Phase
    p_side: Side
    q_side: Side

    @property
    def region(self) -> str:
        return f"p{self.p_side.value}, q{self.q_side.value}"


def limiting_delta(rates: RatePair, prior: Prior) -> PhaseVerdict:
    """delta(inf) = limiting_error - err with its phase classification.

    The value is piecewise constant in (p, q) with jump pi/2 across
    p = 1/2 and (1 - pi)/2 across q = 1/2; the sign partitions the
    square into regions where an infinite majority vote beats a single
    member (negative), loses to it (positive), or ties it (zero).
    """
    value = limiting_error(rates, prior) - mean_individual_error(rates, prior)
    return PhaseVerdict(
        delta_inf=value,
        phase=phase_of(value),
        p_side=side_of(rates.p),
        q_side=side_of(rates.q),
    )


def delta(cfg: EnsembleConfig) -> float:
    """delta(n) = estimated_error(cfg) - err, the finite-n gap."""
    return estimated_error(cfg) - mean_individual_error(cfg.rates, cfg.prior)
