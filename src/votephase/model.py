"""Domain types for correlated majority-vote ensembles.

An ensemble of n binary classifiers votes on an input; the ensemble
predicts class 1 when the vote sum exceeds n/2 (ties go to class 0).
Members share a true-positive rate p on class-1 inputs and a
false-positive rate q on class-0 inputs, and within each class their
votes may be dependent. Three dependence regimes are supported:

* ``Independent``: zero pairwise correlation.
* ``Geometric``: correlation gamma**|i - j| between members i and j,
  realized by a stationary two-state Markov chain along the ensemble
  ordering.
* ``Equicorrelated``: constant correlation lam between every pair,
  realized by a shared-coin mixture. The vote-sum variance grows like
  n**2 under this model, so no law of large numbers applies.

Each model class carries its own closed forms in pure Python: the
vote-sum variance ``sum_variance(n, r)``, its per-vote limit
``asymptotic_sigma_sq(r)``, and the ``abusive`` flag that marks a
model whose per-vote variance diverges. ``analytic`` and ``grid`` call
these after one ``check_model``; only the numpy constructions of the
oracle and the sampler, which must share no code, dispatch on the
class themselves.

Every type here is immutable and validates eagerly: construction either
succeeds with all invariants satisfied or raises a typed error. Rates,
priors and correlation parameters live in the open interval (0, 1);
degenerate endpoint values are rejected rather than silently handled.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from decimal import Decimal
from typing import Any, Callable, Iterable, Iterator, Union


class VotePhaseError(Exception):
    """Base class for all errors raised by this package."""


class RateOutOfRange(VotePhaseError, ValueError):
    """A probability-like rate fell outside the open interval (0, 1)."""


class BadParameter(VotePhaseError, ValueError):
    """A model or distribution parameter violated its domain."""


class BadSize(VotePhaseError, ValueError):
    """An ensemble size, resolution, or repetition count was invalid."""


class SizeGuardExceeded(BadSize):
    """A size was above its guard. Every guard in the package refuses
    through ``_check_guard``, except the grid's, which names both axes."""


def _as_float(value: Any, name: str, err: type = BadParameter) -> float:
    """Coerce to float, rejecting NaN and infinities."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise err(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(out):
        raise err(f"{name} must be finite, got {out!r}")
    return out


def _as_probability(value: Any, name: str, err: type = RateOutOfRange) -> float:
    """Coerce to float and require strict interior of (0, 1)."""
    out = _as_float(value, name, err)
    if not 0.0 < out < 1.0:
        raise err(f"{name} must lie strictly inside (0, 1), got {out!r}")
    return out


def _as_size(value: Any, name: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadSize(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise BadSize(f"{name} must be >= {minimum}, got {_size_text(value)}")
    return value


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_map(fn: Callable, items: Iterable, workers: int) -> Iterator:
    """fn(item) for each item, yielded in item order.

    The items run on min(workers, CPUs this process may use) threads, or
    on the calling thread when that is below 2. The pool is joined once
    every result is read, and when an item raises, before the exception
    reaches the reader. Results are yielded as they arrive: a reader
    that reduces each one need not hold the earlier ones.
    """
    workers = min(workers, _cpus())
    if workers < 2:
        yield from map(fn, items)
        return
    # Imported here: the closed-form subcommands import this module, and
    # concurrent.futures (with logging) would add about 9 ms to their
    # start-up on a 2-vCPU Xeon VM.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


def _check_type(value: Any, cls: type, name: str) -> None:
    if not isinstance(value, cls):
        raise BadParameter(f"{name} must be a {cls.__name__}, got {value!r}")


def _size_text(count: int) -> str:
    """``count`` in digits, or its sign and bit length once its size
    exceeds 2**53: an error message stays short, and Python refuses to
    print an integer of more than 4300 digits."""
    if abs(count) <= 2**53:
        return str(count)
    return f"a {'negative ' if count < 0 else ''}{count.bit_length()}-bit integer"


def _check_guard(what: str, size: int, guard: int) -> None:
    if size > guard:
        raise SizeGuardExceeded(f"{what}={_size_text(size)} exceeds guard {guard}")


def _as_ensemble_size(value: Any) -> int:
    """A positive n the tie rule can use: above 2**53 a double no longer
    holds n / 2 exactly, so g > n / 2 could round the wrong way."""
    n = _as_size(value, "n")
    if n > 2**53:
        raise BadSize(f"n must be <= 2**53, got {_size_text(n)}")
    return n


@dataclass(frozen=True)
class RatePair:
    """Per-class vote rates of an ensemble member.

    ``p`` is the probability of voting 1 on a class-1 input (true
    positive rate); ``q`` the probability of voting 1 on a class-0
    input (false positive rate). Both are interpreted as ensemble
    averages when members are heterogeneous.
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _as_probability(self.p, "p"))
        object.__setattr__(self, "q", _as_probability(self.q, "q"))

    def rate_for_class(self, label: int) -> float:
        """Marginal vote-1 rate conditioned on the true class label."""
        if label not in (0, 1):
            raise BadParameter(f"label must be 0 or 1, got {label!r}")
        return self.p if label == 1 else self.q


@dataclass(frozen=True)
class Prior:
    """Marginal probability ``pi`` of class 1."""

    pi: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pi", _as_probability(self.pi, "pi", BadParameter)
        )


class CorrelationModel:
    """Base for the three dependence regimes.

    Each subclass defines the model once: its ``kind`` and ``param``,
    the name of its one parameter as both JSON key and CLI flag
    (``--<param>``), or None for a model without one. The parameter is
    the subclass's only dataclass field.

    The subclass also holds the model's closed forms for valid
    arguments (an int n >= 1 and a float rate r in (0, 1)):
    ``sum_variance(n, r)``, the exact variance of the vote sum, and
    ``asymptotic_sigma_sq(r)``, its limit of Var(g)/n. ``abusive`` is
    True for a model whose per-vote variance diverges, so that a normal
    plug-in formula applied to it abuses the normal limit.
    """

    kind: str = ""
    param: Union[str, None] = None
    param_help: str = ""
    abusive: bool = False

    def __post_init__(self) -> None:
        """Check the parameter, if any, under its JSON name ``param``."""
        if self.param is not None:
            name = fields(self)[0].name
            value = _as_probability(getattr(self, name), self.param, BadParameter)
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.param is not None:
            out[self.param] = getattr(self, fields(self)[0].name)
        return out


@dataclass(frozen=True)
class Independent(CorrelationModel):
    """Conditionally independent votes."""

    kind = "independent"

    def sum_variance(self, n: int, rate: float) -> float:
        """n r (1 - r)."""
        return n * (rate * (1.0 - rate))

    def asymptotic_sigma_sq(self, rate: float) -> float:
        """r (1 - r)."""
        return rate * (1.0 - rate)


@dataclass(frozen=True)
class Geometric(CorrelationModel):
    """Correlation gamma**|i - j| between members i and j.

    Realized by a stationary two-state Markov chain whose second
    eigenvalue equals gamma, so lag-k correlations are exactly gamma**k.
    """

    gamma: float

    kind = "geometric"
    param = "gamma"
    param_help = "geometric decay"

    def transitions(self, rate):
        """Chain transitions (t11, t01) at marginal rate r, float or array.

        t11 = P(vote 1 | previous 1) = r + gamma (1 - r)
        t01 = P(vote 1 | previous 0) = r (1 - gamma)

        Stationarity at Bernoulli(r): (1 - r) t01 + r t11 = r. The lag-1
        autocorrelation is t11 - t01 = gamma.
        """
        return rate + self.gamma * (1.0 - rate), rate * (1.0 - self.gamma)

    def variance_factor(self, n: int) -> float:
        """Variance inflation M of the vote sum: Var(g) = n r (1 - r) M.

            M = 1 + 2 * sum_{j=1}^{n-1} (1 - j/n) gamma**j
              = 1 + 2 (gamma / (1 - gamma)) * (1 - (1 - gamma**n) / (n (1 - gamma)))

        The closed form follows from splitting the sum into a plain
        geometric series and a j-weighted one.
        """
        g = self.gamma
        one_minus = 1.0 - g
        # gamma**n underflows harmlessly to 0 for large n
        tail = (1.0 - g**n) / (n * one_minus)
        return 1.0 + 2.0 * (g / one_minus) * (1.0 - tail)

    def sum_variance(self, n: int, rate: float) -> float:
        """n r (1 - r) * M(gamma, n)."""
        return n * (rate * (1.0 - rate)) * self.variance_factor(n)

    def asymptotic_sigma_sq(self, rate: float) -> float:
        """r (1 - r) (1 + gamma)/(1 - gamma), the n -> inf limit of M."""
        return rate * (1.0 - rate) * (1.0 + self.gamma) / (1.0 - self.gamma)


@dataclass(frozen=True)
class Equicorrelated(CorrelationModel):
    """Constant pairwise correlation lam between all members.

    Realized as a mixture: with probability lam all members copy one
    shared coin flip, otherwise all vote independently. The vote-sum
    variance contains an n**2 term, so the per-vote asymptotic variance
    diverges and the usual normal limit does not hold.
    """

    lam: float

    kind = "equicorrelated"
    param = "lambda"
    param_help = "pairwise correlation"
    abusive = True

    def sum_variance(self, n: int, rate: float) -> float:
        """n**2 lam r (1 - r) + n (1 - lam) r (1 - r)."""
        base = rate * (1.0 - rate)
        return n * n * self.lam * base + n * (1.0 - self.lam) * base

    def asymptotic_sigma_sq(self, rate: float) -> float:
        """``math.inf``: the n**2 term makes the per-vote variance diverge."""
        return math.inf

    def plugin_variance(self, rate: float) -> float:
        """lam r (1 - r), the n**2 coefficient of the vote-sum variance."""
        return self.lam * rate * (1.0 - rate)


# kind -> model class; the JSON schema, the CLI flags and the --model
# choices are all read from here.
MODELS = {cls.kind: cls for cls in (Independent, Geometric, Equicorrelated)}


def check_model(model: Any) -> None:
    """Raise unless ``model`` is an instance of a registered model class."""
    if not isinstance(model, tuple(MODELS.values())):
        raise BadParameter(f"unknown correlation model {model!r}")


def model_class(kind: Any) -> type:
    """The model class registered under ``kind``."""
    if not isinstance(kind, str) or kind not in MODELS:
        raise BadParameter(f"unknown correlation model kind {kind!r}")
    return MODELS[kind]


def model_from_dict(data: dict) -> CorrelationModel:
    """Inverse of ``CorrelationModel.to_dict``; rejects any other key."""
    if not isinstance(data, dict) or "kind" not in data:
        raise BadParameter(f"correlation model must be a dict with 'kind', got {data!r}")
    cls = model_class(data["kind"])
    stray = sorted(map(str, set(data) - {"kind", cls.param}))
    if stray:
        raise BadParameter(f"{cls.kind} model takes no {', '.join(map(repr, stray))}")
    if cls.param is None:
        return cls()
    if cls.param not in data:
        raise BadParameter(f"{cls.kind} model requires {cls.param!r}")
    return cls(data[cls.param])


@dataclass(frozen=True)
class EnsembleConfig:
    """Complete description of one finite ensemble experiment."""

    n: int
    rates: RatePair
    prior: Prior
    model: CorrelationModel = field(default_factory=Independent)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _as_ensemble_size(self.n))
        _check_type(self.rates, RatePair, "rates")
        _check_type(self.prior, Prior, "prior")
        _check_type(self.model, CorrelationModel, "model")
        _check_type(self.model, model_class(self.model.kind), "model")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.rates.p,
            "q": self.rates.q,
            "pi": self.prior.pi,
            "model": self.model.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EnsembleConfig":
        required = {"n", "p", "q", "pi", "model"}
        missing = required - set(data)
        if missing:
            raise BadParameter(f"config missing keys: {sorted(missing)}")
        return cls(
            n=data["n"],
            rates=RatePair(p=data["p"], q=data["q"]),
            prior=Prior(pi=data["pi"]),
            model=model_from_dict(data["model"]),
        )


ASYMPTOTIC = "asymptotic"

# A grid row costs tens of microseconds and is held in memory, so a
# larger grid would run for minutes and eat gigabytes; refuse instead.
GRID_CELL_GUARD = 10**6

_GridSize = Union[int, str]


def step_resolution(p_min: Any, p_max: Any, q_min: Any, q_max: Any, step: Any) -> tuple:
    """The (p_axis, q_axis) point counts of a grid with a common axis step.

    Each axis span must be an exact whole multiple of the step in
    decimal arithmetic; otherwise the grid would silently miss its
    stated endpoint.
    """
    step_d = Decimal(repr(_as_float(step, "step")))
    if step_d <= 0:
        raise BadParameter(f"step must be positive, got {step!r}")
    resolutions = []
    for name, lo, hi in (("p", p_min, p_max), ("q", q_min, q_max)):
        lo, hi = _as_float(lo, f"{name}_min"), _as_float(hi, f"{name}_max")
        span = Decimal(repr(hi)) - Decimal(repr(lo))
        count = span / step_d
        if count != count.to_integral_value():
            raise BadParameter(
                f"{name}-axis span {span} is not a whole multiple of step {step_d}"
            )
        # A reversed or out-of-range axis is left to GridSpec.__post_init__.
        resolutions.append(abs(int(count)) + 1)
    return tuple(resolutions)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sweep over the (p, q) unit square.

    Axis values are generated with exact decimal index arithmetic from
    the endpoint reprs, so a 0.01-step axis contains 0.5 exactly rather
    than a float-accumulation neighbor of it.

    ``resolution`` is the number of points per axis, either one integer
    for both axes or a (p_axis, q_axis) pair. A resolution-1 axis is the
    degenerate single-point case and requires min == max. A grid of
    more than ``GRID_CELL_GUARD`` points in all is refused. ``n`` is a
    positive ensemble size or the string ``"asymptotic"`` for the
    infinite-ensemble limit.
    """

    p_min: float
    p_max: float
    q_min: float
    q_max: float
    resolution: Union[int, tuple]
    n: _GridSize
    prior: Prior
    model: CorrelationModel = field(default_factory=Independent)

    def __post_init__(self) -> None:
        for name in ("p_min", "p_max", "q_min", "q_max"):
            object.__setattr__(
                self, name, _as_probability(getattr(self, name), name)
            )
        res = self.resolution
        if isinstance(res, int) and not isinstance(res, bool):
            res = (res, res)
        try:
            rp, rq = res
        except (TypeError, ValueError):
            raise BadSize(
                f"resolution must be an int or an (int, int) pair, got {self.resolution!r}"
            ) from None
        rp = _as_size(rp, "p-axis resolution")
        rq = _as_size(rq, "q-axis resolution")
        if rp * rq > GRID_CELL_GUARD:
            size = f"{_size_text(rp)} x {_size_text(rq)}"
            raise SizeGuardExceeded(f"grid of {size} points exceeds guard {GRID_CELL_GUARD}")
        object.__setattr__(self, "resolution", (rp, rq))
        self._check_axis("p", self.p_min, self.p_max, rp)
        self._check_axis("q", self.q_min, self.q_max, rq)
        if self.n != ASYMPTOTIC:
            object.__setattr__(self, "n", _as_ensemble_size(self.n))
        _check_type(self.prior, Prior, "prior")
        _check_type(self.model, CorrelationModel, "model")
        _check_type(self.model, model_class(self.model.kind), "model")

    @staticmethod
    def _check_axis(name: str, lo: float, hi: float, res: int) -> None:
        if res == 1:
            if lo != hi:
                raise BadParameter(
                    f"{name}-axis with resolution 1 requires min == max, "
                    f"got [{lo}, {hi}]"
                )
        elif not lo < hi:
            raise BadParameter(f"{name}-axis requires min < max, got [{lo}, {hi}]")

    @staticmethod
    def _axis(lo: float, hi: float, res: int) -> list:
        if res == 1:
            return [lo]
        lo_d, hi_d = Decimal(repr(lo)), Decimal(repr(hi))
        step = (hi_d - lo_d) / (res - 1)
        return [float(lo_d + i * step) for i in range(res)]

    def p_values(self) -> list:
        return self._axis(self.p_min, self.p_max, self.resolution[0])

    def q_values(self) -> list:
        return self._axis(self.q_min, self.q_max, self.resolution[1])

    def points(self) -> Iterator[tuple]:
        """Row-major iteration: p outer, q inner."""
        qs = self.q_values()
        for p in self.p_values():
            for q in qs:
                yield p, q

    @classmethod
    def from_step(
        cls,
        p_min: float,
        p_max: float,
        q_min: float,
        q_max: float,
        step: float,
        n: _GridSize,
        prior: Prior,
        model: CorrelationModel = Independent(),
    ) -> "GridSpec":
        """Build a spec from a common axis step instead of a count; see
        ``step_resolution``."""
        return cls(
            p_min=p_min,
            p_max=p_max,
            q_min=q_min,
            q_max=q_max,
            resolution=step_resolution(p_min, p_max, q_min, q_max, step),
            n=n,
            prior=prior,
            model=model,
        )

    def to_dict(self) -> dict:
        rp, rq = self.resolution
        return {
            "p_min": self.p_min,
            "p_max": self.p_max,
            "q_min": self.q_min,
            "q_max": self.q_max,
            "resolution": rp if rp == rq else [rp, rq],
            "n": self.n,
            "pi": self.prior.pi,
            "model": self.model.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        required = {"p_min", "p_max", "q_min", "q_max", "resolution", "n", "pi", "model"}
        missing = required - set(data)
        if missing:
            raise BadParameter(f"grid spec missing keys: {sorted(missing)}")
        return cls(
            p_min=data["p_min"],
            p_max=data["p_max"],
            q_min=data["q_min"],
            q_max=data["q_max"],
            resolution=data["resolution"],
            n=data["n"],
            prior=Prior(pi=data["pi"]),
            model=model_from_dict(data["model"]),
        )
