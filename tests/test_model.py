import re
import threading
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votephase.analytic import estimated_error_asymptotic, sum_variance
from votephase.grid import point
from votephase.model import (
    ASYMPTOTIC,
    BadParameter,
    BadSize,
    CorrelationModel,
    EnsembleConfig,
    Equicorrelated,
    GRID_CELL_GUARD,
    Geometric,
    GridSpec,
    Independent,
    MODELS,
    Prior,
    RateOutOfRange,
    RatePair,
    SizeGuardExceeded,
    VotePhaseError,
    _size_text,
    _thread_map,
    model_from_dict,
)
from votephase.montecarlo import (
    CORR_SIZE_GUARD,
    MC_REPS_GUARD,
    MC_SIZE_GUARD,
    mc_correlation_matrix,
    mc_error,
)
from votephase.oracle import (
    BINOMIAL_SIZE_GUARD,
    BRUTE_FORCE_SIZE_GUARD,
    GEOMETRIC_SIZE_GUARD,
    brute_force_error,
    exact_vote_pmf,
)
from votephase.sampler import (
    SAMPLE_COUNT_GUARD,
    SAMPLE_VOTES_GUARD,
    RngSeed,
    make_rng,
    sample_matrix,
)
from reference import asymptotic_sigma_sq


class TestRatePair:
    def test_accepts_interior_values(self):
        rp = RatePair(p=0.6, q=0.4)
        assert rp.p == 0.6 and rp.q == 0.4

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, float("nan"), float("inf")])
    def test_rejects_boundary_and_nonfinite(self, bad):
        with pytest.raises(RateOutOfRange):
            RatePair(p=bad, q=0.4)
        with pytest.raises(RateOutOfRange):
            RatePair(p=0.4, q=bad)

    def test_rejects_non_numeric(self):
        with pytest.raises(RateOutOfRange):
            RatePair(p="not a number", q=0.4)

    def test_coerces_numeric_strings(self):
        assert RatePair(p="0.25", q="0.75").p == 0.25

    def test_rate_for_class(self):
        rp = RatePair(p=0.7, q=0.3)
        assert rp.rate_for_class(1) == 0.7
        assert rp.rate_for_class(0) == 0.3
        with pytest.raises(BadParameter):
            rp.rate_for_class(2)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RatePair(p=0.5, q=0.5).p = 0.6


class TestPrior:
    def test_validates(self):
        assert Prior(pi=0.5).pi == 0.5
        for bad in (0.0, 1.0, -1, float("nan")):
            with pytest.raises(BadParameter):
                Prior(pi=bad)


class TestCorrelationModels:
    @pytest.mark.parametrize("cls,field", [(Geometric, "gamma"), (Equicorrelated, "lam")])
    def test_open_interval_parameters(self, cls, field):
        assert getattr(cls(**{field: 0.5}), field) == 0.5
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(BadParameter):
                cls(**{field: bad})

    @pytest.mark.parametrize(
        "model,message",
        [
            (lambda: Geometric(gamma=1.5), r"^gamma must lie strictly inside \(0, 1\), got 1\.5$"),
            (lambda: Equicorrelated(lam=0.0), r"^lambda must lie strictly inside \(0, 1\), got 0\.0$"),
            (lambda: Equicorrelated(lam="x"), r"^lambda must be a real number, got 'x'$"),
        ],
        ids=["gamma", "lambda", "lambda-non-numeric"],
    )
    def test_parameter_errors_use_the_json_name(self, model, message):
        with pytest.raises(BadParameter, match=message):
            model()

    def test_dict_round_trip(self):
        for model in (
            Independent(),
            Geometric(gamma=0.8),
            Equicorrelated(lam=0.25),
        ):
            assert model_from_dict(model.to_dict()) == model

    def test_lambda_json_key(self):
        # the JSON schema key is "lambda"; the attribute avoids the keyword
        assert Equicorrelated(lam=0.3).to_dict() == {"kind": "equicorrelated", "lambda": 0.3}

    def test_model_from_dict_rejects_garbage(self):
        with pytest.raises(BadParameter):
            model_from_dict({"kind": "mystery"})
        with pytest.raises(BadParameter):
            model_from_dict({"gamma": 0.5})
        with pytest.raises(BadParameter):
            model_from_dict({"kind": "geometric"})
        with pytest.raises(BadParameter):
            model_from_dict("independent")
        with pytest.raises(BadParameter):
            model_from_dict({"kind": ["geometric"], "gamma": 0.5})

    @pytest.mark.parametrize(
        "data",
        [
            {"kind": "independent", "gamma": 0.9},
            {"kind": "independent", "heterogeneity": 5.0},
            {"kind": "geometric", "gamma": 0.9, "lambda": 0.3},
            {"kind": "equicorrelated", "lambda": 0.3, "lam": 0.3},
            {"kind": "geometric", "gamma": 0.9, 1: 2},
        ],
    )
    def test_model_from_dict_rejects_stray_keys(self, data):
        with pytest.raises(BadParameter, match="takes no"):
            model_from_dict(data)

    def test_registry_defines_each_model_once(self):
        assert list(MODELS) == ["independent", "geometric", "equicorrelated"]
        for kind, cls in MODELS.items():
            assert cls.kind == kind
            names = [f.name for f in fields(cls)]
            assert len(names) == (cls.param is not None)

    @given(rate=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=50)
    def test_transitions_on_arrays_match_scalars(self, rate):
        model = Geometric(gamma=0.7)
        t11, t01 = model.transitions(np.array([rate, 0.5]))
        assert (t11[0], t01[0]) == model.transitions(rate)
        assert (t11[1], t01[1]) == model.transitions(0.5)


_DISPATCH_CALLS = {
    "sum_variance": lambda model: sum_variance(model, 5, 0.6),
    "asymptotic_sigma_sq": lambda model: asymptotic_sigma_sq(model, 0.6),
    "exact_vote_pmf": lambda model: exact_vote_pmf(model, 5, 0.6),
    "sample_matrix": lambda model: sample_matrix(model, 5, 0.6, 10, make_rng(RngSeed(seed=1), 0)),
    "estimated_error_asymptotic": lambda model: estimated_error_asymptotic(
        RatePair(0.6, 0.4), Prior(0.5), model
    ),
    "grid_point_asymptotic": lambda model: point(RatePair(0.6, 0.4), Prior(0.5), model, ASYMPTOTIC),
}


@pytest.mark.parametrize(
    "call, non_model",
    [pytest.param(call, "geometric", id=name) for name, call in _DISPATCH_CALLS.items()]
    + [
        pytest.param(call, CorrelationModel(), id=f"{name}-bare_base")
        for name, call in _DISPATCH_CALLS.items()
    ],
)
def test_model_dispatch_rejects_a_non_model(call, non_model):
    with pytest.raises(BadParameter, match="unknown correlation model " + re.escape(repr(non_model))):
        call(non_model)


class _Impostor(CorrelationModel):
    """A registered kind on a class that has none of the closed forms."""

    kind = "independent"


def test_configs_reject_a_registered_kind_on_another_class():
    with pytest.raises(BadParameter, match="^model must be a Independent, got "):
        EnsembleConfig(n=5, rates=RatePair(p=0.7, q=0.3), prior=Prior(pi=0.5), model=_Impostor())
    with pytest.raises(BadParameter, match="^model must be a Independent, got "):
        GridSpec(0.1, 0.9, 0.1, 0.9, 3, 5, Prior(pi=0.5), _Impostor())

class TestEnsembleConfig:
    def _cfg(self, **kw):
        base = dict(n=5, rates=RatePair(p=0.7, q=0.3), prior=Prior(pi=0.5))
        base.update(kw)
        return EnsembleConfig(**base)

    def test_basic(self):
        cfg = self._cfg()
        assert cfg.n == 5
        assert isinstance(cfg.model, Independent)

    def test_n_limit_is_two_to_the_53(self):
        assert self._cfg(n=2**53).n == 2**53
        for n in (2**53 + 1, 10**400):
            with pytest.raises(BadSize, match="2\\*\\*53"):
                self._cfg(n=n)

    @pytest.mark.parametrize("bad_n", [0, -3, 2.5, True])
    def test_rejects_bad_n(self, bad_n):
        with pytest.raises(BadSize):
            self._cfg(n=bad_n)

    def test_rejects_wrong_types(self):
        with pytest.raises(BadParameter):
            EnsembleConfig(n=5, rates=(0.7, 0.3), prior=Prior(pi=0.5))
        with pytest.raises(BadParameter):
            self._cfg(prior=0.5)
        with pytest.raises(BadParameter):
            self._cfg(model="geometric")

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("rates", (0.7, 0.3), "rates must be a RatePair, got (0.7, 0.3)"),
            ("prior", 0.5, "prior must be a Prior, got 0.5"),
            ("model", "geometric", "model must be a CorrelationModel, got 'geometric'"),
            ("model", CorrelationModel(), "unknown correlation model kind ''"),
        ],
    )
    def test_wrong_type_messages(self, field, value, message):
        with pytest.raises(BadParameter) as info:
            self._cfg(**{field: value})
        assert str(info.value) == message

    def test_dict_round_trip(self):
        cfg = self._cfg(model=Geometric(gamma=0.6))
        assert EnsembleConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_missing_keys(self):
        with pytest.raises(BadParameter):
            EnsembleConfig.from_dict({"n": 5, "p": 0.7})


class TestGridSpec:
    def _spec(self, **kw):
        base = dict(
            p_min=0.1,
            p_max=0.9,
            q_min=0.1,
            q_max=0.9,
            resolution=5,
            n=ASYMPTOTIC,
            prior=Prior(pi=0.5),
        )
        base.update(kw)
        return GridSpec(**base)

    def test_from_dict_missing_keys(self):
        message = "grid spec missing keys: ['model', 'n', 'p_max', 'pi', 'q_max', 'q_min', 'resolution']"
        with pytest.raises(BadParameter, match=re.escape(message)):
            GridSpec.from_dict({"p_min": 0.1})

    def test_axis_hits_decimal_landmarks_exactly(self):
        spec = GridSpec(
            p_min=0.01,
            p_max=0.99,
            q_min=0.01,
            q_max=0.99,
            resolution=99,
            n=ASYMPTOTIC,
            prior=Prior(pi=0.5),
        )
        ps = spec.p_values()
        assert len(ps) == 99
        assert ps[0] == 0.01 and ps[-1] == 0.99
        assert 0.5 in ps and 0.25 in ps

    def test_from_step_matches_resolution(self):
        spec = GridSpec.from_step(0.01, 0.99, 0.01, 0.99, step=0.01, n=100, prior=Prior(pi=0.5))
        assert spec.resolution == (99, 99)
        ps = spec.p_values()
        assert ps[0] == 0.01 and ps[1] == 0.02 and ps[-1] == 0.99

    def test_from_step_rejects_uneven_span(self):
        with pytest.raises(BadParameter):
            GridSpec.from_step(0.1, 0.25, 0.1, 0.9, step=0.1, n=10, prior=Prior(pi=0.5))

    def test_from_step_allows_asymmetric_axes(self):
        spec = GridSpec.from_step(0.2, 0.4, 0.1, 0.9, step=0.1, n=10, prior=Prior(pi=0.5))
        assert spec.resolution == (3, 9)

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.1, float("inf")), (0.1, float("nan")), ("abc", 0.9), (0.1, [0.9]), (0.1, None)],
    )
    def test_from_step_rejects_non_finite_or_non_numeric_bounds(self, lo, hi):
        with pytest.raises(BadParameter):
            GridSpec.from_step(lo, hi, 0.1, 0.9, step=0.1, n=10, prior=Prior(pi=0.5))

    def test_cell_guard(self):
        side = int(GRID_CELL_GUARD**0.5)
        assert self._spec(resolution=(side, side)).resolution == (side, side)
        assert self._spec(resolution=(1, GRID_CELL_GUARD), p_max=0.1).resolution[0] == 1
        for resolution in [(side, side + 1), 10**9, (2, GRID_CELL_GUARD)]:
            with pytest.raises(BadSize, match="exceeds guard"):
                self._spec(resolution=resolution)
        with pytest.raises(BadSize, match="exceeds guard"):
            GridSpec.from_step(0.1, 0.7, 0.1, 0.7, step=1e-320, n=10, prior=Prior(pi=0.5))

    def test_resolution_one_requires_degenerate_axis(self):
        spec = self._spec(p_min=0.5, p_max=0.5, q_min=0.5, q_max=0.5, resolution=1)
        assert spec.p_values() == [0.5] and spec.q_values() == [0.5]
        with pytest.raises(BadParameter):
            self._spec(resolution=1)

    def test_min_less_than_max_required(self):
        with pytest.raises(BadParameter):
            self._spec(p_min=0.9, p_max=0.1)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "three"])
    def test_rejects_bad_resolution(self, bad):
        with pytest.raises(BadSize):
            self._spec(resolution=bad)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("prior", 0.5, "prior must be a Prior, got 0.5"),
            ("model", None, "model must be a CorrelationModel, got None"),
            ("model", CorrelationModel(), "unknown correlation model kind ''"),
        ],
    )
    def test_wrong_type_messages(self, field, value, message):
        with pytest.raises(BadParameter) as info:
            self._spec(**{field: value})
        assert str(info.value) == message

    def test_boundary_endpoints_rejected(self):
        with pytest.raises(RateOutOfRange):
            self._spec(p_min=0.0)
        with pytest.raises(RateOutOfRange):
            self._spec(q_max=1.0)

    def test_n_limit_is_two_to_the_53(self):
        assert self._spec(n=2**53).n == 2**53
        with pytest.raises(BadSize, match="2\\*\\*53"):
            self._spec(n=2**53 + 1)

    def test_n_validation(self):
        assert self._spec(n=100).n == 100
        assert self._spec(n=ASYMPTOTIC).n == ASYMPTOTIC
        with pytest.raises(BadSize):
            self._spec(n=0)

    def test_points_row_major(self):
        spec = self._spec(p_min=0.4, p_max=0.6, q_min=0.4, q_max=0.6, resolution=2)
        assert list(spec.points()) == [(0.4, 0.4), (0.4, 0.6), (0.6, 0.4), (0.6, 0.6)]

    def test_dict_round_trip(self):
        for spec in (
            self._spec(),
            self._spec(resolution=(3, 5), n=50, model=Equicorrelated(lam=0.7)),
        ):
            assert GridSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_reads_a_json_resolution_pair_as_written(self):
        data = {**self._spec().to_dict(), "resolution": [3, 5]}
        assert GridSpec.from_dict(data).resolution == (3, 5)
        data["resolution"] = [3]
        with pytest.raises(BadSize, match=re.escape("pair, got [3]")):
            GridSpec.from_dict(data)

    @given(
        lo=st.decimals(min_value="0.01", max_value="0.40", places=2),
        hi=st.decimals(min_value="0.60", max_value="0.99", places=2),
        res=st.integers(min_value=2, max_value=40),
    )
    @settings(max_examples=100)
    def test_axis_endpoints_exact(self, lo, hi, res):
        spec = self._spec(p_min=float(lo), p_max=float(hi), resolution=res)
        ps = spec.p_values()
        assert len(ps) == res
        assert ps[0] == float(lo) and ps[-1] == float(hi)
        assert all(a < b for a, b in zip(ps, ps[1:]))


class TestThreadMap:
    """``_thread_map`` yields in item order on at most the CPUs this
    process may use, and no thread outlives the read."""

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_results_come_back_in_order(self, cpus, workers, monkeypatch):
        monkeypatch.setattr("votephase.model._cpus", lambda: cpus)

        threads = set()

        def slow_first(i):
            # earlier items finish later when they run side by side
            threads.add(threading.get_ident())
            time.sleep(0.001 * (12 - i))
            return i * i

        before = threading.active_count()
        assert list(_thread_map(slow_first, range(12), workers)) == [i * i for i in range(12)]
        assert threading.active_count() == before
        if min(cpus, workers) < 2:
            assert threads == {threading.get_ident()}
        else:
            assert threading.get_ident() not in threads
            assert len(threads) <= min(cpus, workers)

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (1, 8), (8, 1)])
    def test_no_thread_starts(self, cpus, workers, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr("votephase.model._cpus", lambda: cpus)
        monkeypatch.setattr(threading, "Thread", refuse)
        assert list(_thread_map(str, range(3), workers)) == ["0", "1", "2"]
        # the patch does catch a pool
        monkeypatch.setattr("votephase.model._cpus", lambda: 2)
        with pytest.raises(AssertionError, match="a thread was started"):
            list(_thread_map(str, range(3), 2))

    @pytest.mark.parametrize("failing", [0, 2, 4])
    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_item_error_reaches_reader_and_no_thread_outlives_it(self, cpus, failing, monkeypatch):
        monkeypatch.setattr("votephase.model._cpus", lambda: cpus)
        error = ValueError("item failed")

        def fn(i):
            if i == failing:
                raise error
            return i

        before = threading.active_count()
        with pytest.raises(ValueError) as caught:
            list(_thread_map(fn, range(5), 5))
        assert caught.value is error
        assert threading.active_count() == before


class TestSizeText:
    def test_digits_up_to_two_to_the_53(self):
        for count in (0, 7, -7, 2**53, -(2**53)):
            assert _size_text(count) == str(count)

    def test_bit_length_beyond(self):
        assert _size_text(2**53 + 1) == "a 54-bit integer"
        assert _size_text(-(2**53) - 1) == "a negative 54-bit integer"
        assert _size_text(10**5000) == "a 16610-bit integer"

    # Python refuses to print an int of more than 4300 digits, so each of
    # these messages once ended in an untyped ValueError; each call's
    # error must have the type that the small bad value gives it.
    @pytest.mark.parametrize(
        "call, small",
        [
            (lambda v: EnsembleConfig(n=v, rates=RatePair(p=0.7, q=0.3), prior=Prior(pi=0.5)), -3),
            (lambda v: RngSeed(seed=v), 2**64),
            (lambda v: RngSeed(seed=1, stream=v), -1),
            (lambda v: mc_error(
                EnsembleConfig(n=5, rates=RatePair(p=0.7, q=0.3), prior=Prior(pi=0.5)),
                v, RngSeed(seed=1),
            ), MC_REPS_GUARD + 1),
            (lambda v: mc_correlation_matrix(Independent(), v, 0.5, 10_000, RngSeed(seed=1)),
             CORR_SIZE_GUARD + 1),
            (lambda v: exact_vote_pmf(Independent(), v, 0.5), BINOMIAL_SIZE_GUARD + 1),
            (lambda v: exact_vote_pmf(Geometric(gamma=0.5), v, 0.5), GEOMETRIC_SIZE_GUARD + 1),
            (lambda v: sample_matrix(Independent(), 5, np.array([0.5]), v, make_rng(RngSeed(1))),
             2),
        ],
        ids=["as-size-minimum", "seed", "stream", "mc-reps", "mc-n", "binomial", "geometric",
             "sampler-rate-shape"],
    )
    def test_huge_integers_keep_their_typed_error(self, call, small):
        with pytest.raises(VotePhaseError) as expected:
            call(small)
        huge = 10**5000 if small > 0 else -(10**5000)
        with pytest.raises(VotePhaseError) as got:
            call(huge)
        assert type(got.value) is type(expected.value)
        assert len(str(got.value)) < 200 and "16610-bit integer" in str(got.value)


def _config(n):
    return EnsembleConfig(n=n, rates=RatePair(p=0.7, q=0.3), prior=Prior(pi=0.5))


# Every size guard refuses with one type, and every message but the
# grid's, which names both axes, has one shape.
@pytest.mark.parametrize(
    "call, guard, message",
    [
        (lambda: GridSpec(p_min=0.1, p_max=0.9, q_min=0.1, q_max=0.9, n=ASYMPTOTIC,
                          resolution=(2, GRID_CELL_GUARD), prior=Prior(pi=0.5)),
         GRID_CELL_GUARD, "grid of 2 x 1000000 points"),
        (lambda: exact_vote_pmf(Geometric(gamma=0.5), GEOMETRIC_SIZE_GUARD + 1, 0.5),
         GEOMETRIC_SIZE_GUARD, "geometric pmf n=100001"),
        (lambda: exact_vote_pmf(Independent(), BINOMIAL_SIZE_GUARD + 1, 0.5),
         BINOMIAL_SIZE_GUARD, "binomial pmf n=10000001"),
        (lambda: brute_force_error(_config(BRUTE_FORCE_SIZE_GUARD + 1)),
         BRUTE_FORCE_SIZE_GUARD, "brute force enumerates 2^n vectors; n=21"),
        (lambda: mc_error(_config(MC_SIZE_GUARD + 1), 100, RngSeed(seed=1)),
         MC_SIZE_GUARD, "Monte Carlo n=10001"),
        (lambda: mc_correlation_matrix(Independent(), CORR_SIZE_GUARD + 1, 0.5, 10_000, RngSeed(seed=1)),
         CORR_SIZE_GUARD, "Monte Carlo n=1001"),
        (lambda: mc_error(_config(5), MC_REPS_GUARD + 1, RngSeed(seed=1)),
         MC_REPS_GUARD, "Monte Carlo reps=1000000001"),
        (lambda: sample_matrix(Independent(), 5, 0.5, SAMPLE_COUNT_GUARD + 1, make_rng(RngSeed(1))),
         SAMPLE_COUNT_GUARD, "count=1000001"),
        (lambda: sample_matrix(Independent(), SAMPLE_VOTES_GUARD + 1, 0.5, 1, make_rng(RngSeed(1))),
         SAMPLE_VOTES_GUARD, "votes n * count=163840001"),
    ],
    ids=["grid", "geometric", "binomial", "brute-force", "mc-n", "mc-corr", "mc-reps", "sample-count",
         "sample-votes"],
)
def test_every_size_guard_refuses_through_one_type(call, guard, message):
    with pytest.raises(SizeGuardExceeded) as caught:
        call()
    assert isinstance(caught.value, BadSize)
    assert str(caught.value) == f"{message} exceeds guard {guard}"
