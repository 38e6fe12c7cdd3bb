import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from votephase.model import (
    BadParameter,
    BadSize,
    EnsembleConfig,
    Equicorrelated,
    Geometric,
    Independent,
    Prior,
    RatePair,
    SizeGuardExceeded,
)
from votephase.oracle import exact_vote_pmf
from votephase.sampler import (
    SAMPLE_COUNT_GUARD,
    SAMPLE_VOTES_GUARD,
    RngSeed,
    make_rng,
    sample_matrix,
)

from reference import sample_labeled_votes, sample_matrix_reference

rates = st.floats(min_value=0.05, max_value=0.95)

MODELS = [Independent(), Geometric(gamma=0.8), Equicorrelated(lam=0.3)]
MODEL_IDS = ["independent", "geometric", "equicorrelated"]


class TestRngSeed:
    def test_valid(self):
        s = RngSeed(seed=42)
        assert s.stream == 0
        RngSeed(seed=2**64 - 1, stream=2**64 - 1)

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, True, "42"])
    def test_invalid(self, bad):
        with pytest.raises(BadParameter):
            RngSeed(seed=bad)
        with pytest.raises(BadParameter):
            RngSeed(seed=1, stream=bad)


class TestMakeRng:
    def test_same_key_same_stream(self):
        a = make_rng(RngSeed(seed=9, stream=2), 5)
        b = make_rng(RngSeed(seed=9, stream=2), 5)
        assert np.array_equal(a.random(16), b.random(16))

    def test_distinct_keys_distinct_streams(self):
        base = make_rng(RngSeed(seed=9)).random(16)
        for other in (
            make_rng(RngSeed(seed=10)),
            make_rng(RngSeed(seed=9, stream=1)),
            make_rng(RngSeed(seed=9), 1),
        ):
            assert not np.array_equal(base, other.random(16))


class TestMarkovTransitionProbs:
    def test_frozen_examples(self):
        assert Geometric(gamma=0.5).transitions(0.6) == (0.8, 0.3)
        t11, t01 = Geometric(gamma=0.9).transitions(0.5)
        assert t11 == pytest.approx(0.95, rel=1e-15)
        assert t01 == pytest.approx(0.05, rel=1e-15)

    @given(rate=rates, gamma=rates)
    @settings(max_examples=200)
    def test_stationarity_and_lag_one(self, rate, gamma):
        t11, t01 = Geometric(gamma=gamma).transitions(rate)
        assert 0.0 < t01 < 1.0 and 0.0 < t11 < 1.0
        # Bernoulli(rate) is stationary and the eigenvalue gap is gamma
        assert (1 - rate) * t01 + rate * t11 == pytest.approx(rate, abs=1e-15)
        assert t11 - t01 == pytest.approx(gamma, abs=1e-15)


class TestSampleVotes:
    def test_shape_dtype_determinism(self):
        seed = RngSeed(seed=123)
        v1 = sample_matrix(Geometric(gamma=0.5), 20, 0.6, 1, make_rng(seed))[0]
        v2 = sample_matrix(Geometric(gamma=0.5), 20, 0.6, 1, make_rng(seed))[0]
        assert v1.shape == (20,) and v1.dtype == np.uint8
        assert set(np.unique(v1)) <= {0, 1}
        np.testing.assert_array_equal(v1, v2)

    def test_high_rate_marginal_calibration(self):
        # r = 0.999, n = 4: empirical mean over 1e5 draws within
        # 4*sqrt(r(1-r)/(R*n)) of r
        r, n, reps = 0.999, 4, 100_000
        rng = make_rng(RngSeed(seed=7))
        votes = sample_matrix(Independent(), n, r, reps, rng)
        tol = 4 * math.sqrt(r * (1 - r) / (reps * n))
        assert votes.mean() == pytest.approx(r, abs=tol)

    def test_equicorrelated_near_one_is_mostly_constant(self):
        rng = make_rng(RngSeed(seed=11))
        votes = sample_matrix(Equicorrelated(lam=0.999), 8, 0.5, 50_000, rng)
        sums = votes.sum(axis=1)
        constant = np.mean((sums == 0) | (sums == 8))
        assert constant >= 0.998

    def test_geometric_lag_correlations(self):
        rng = make_rng(RngSeed(seed=13))
        votes = sample_matrix(Geometric(gamma=0.6), 50, 0.5, 50_000, rng).astype(float)
        corr = np.corrcoef(votes, rowvar=False)
        lag1 = np.mean(np.diag(corr, 1))
        lag3 = np.mean(np.diag(corr, 3))
        assert lag1 == pytest.approx(0.6, abs=0.02)
        assert lag3 == pytest.approx(0.6**3, abs=0.02)

    @given(rate=rates, gamma=rates)
    @settings(max_examples=20, deadline=None)
    def test_marginal_calibration_every_position(self, rate, gamma):
        reps = 20_000
        rng = make_rng(RngSeed(seed=17))
        votes = sample_matrix(Geometric(gamma=gamma), 10, rate, reps, rng)
        tol = 5 * math.sqrt(rate * (1 - rate) / reps)
        np.testing.assert_allclose(votes.mean(axis=0), rate, atol=tol)


class TestSampleLabeledVotes:
    def test_calibration_and_determinism(self):
        cfg = EnsembleConfig(
            n=9, rates=RatePair(p=0.8, q=0.2), prior=Prior(pi=0.3), model=Independent()
        )
        labels, votes = sample_labeled_votes(cfg, 50_000, make_rng(RngSeed(seed=31)))
        labels2, votes2 = sample_labeled_votes(cfg, 50_000, make_rng(RngSeed(seed=31)))
        np.testing.assert_array_equal(labels, labels2)
        np.testing.assert_array_equal(votes, votes2)
        assert labels.mean() == pytest.approx(0.3, abs=4 * math.sqrt(0.21 / 50_000))
        p_hat = votes[labels == 1].mean()
        q_hat = votes[labels == 0].mean()
        assert p_hat == pytest.approx(0.8, abs=0.01)
        assert q_hat == pytest.approx(0.2, abs=0.01)


class TestSampleMatrixValidation:
    def test_rate_vector_must_match_count(self):
        rng = make_rng(RngSeed(seed=1))
        with pytest.raises(BadParameter):
            sample_matrix(Independent(), 5, np.array([0.5, 0.5]), 3, rng)

    def test_unknown_model_rejected(self):
        rng = make_rng(RngSeed(seed=1))
        with pytest.raises(BadParameter):
            sample_matrix(object(), 5, 0.5, 3, rng)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1, 1.5])
    @pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per_row"])
    def test_rate_must_be_a_probability(self, model, bad, per_row):
        rate = np.array([0.5, bad, 0.5]) if per_row else bad
        with pytest.raises(BadParameter, match="probability"):
            sample_matrix(model, 5, rate, 3, make_rng(RngSeed(seed=1)))

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("count", [10**12, 10**5000], ids=["1e12", "1e5000"])
    def test_count_guard_refuses_before_any_draw(self, model, count):
        rng = make_rng(RngSeed(seed=1))
        state = rng.bit_generator.state
        with pytest.raises(BadSize) as caught:
            sample_matrix(model, 5, 0.5, count, rng)
        assert str(caught.value).endswith(f"exceeds guard {SAMPLE_COUNT_GUARD}")
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("n", [10**12, 10**5000], ids=["1e12", "1e5000"])
    def test_votes_guard_refuses_a_huge_n_before_any_draw(self, model, n):
        rng = make_rng(RngSeed(seed=1))
        state = rng.bit_generator.state
        with pytest.raises(SizeGuardExceeded) as caught:
            sample_matrix(model, n, 0.5, 3, rng)
        assert str(caught.value).startswith("votes n * count=")
        assert str(caught.value).endswith(f"exceeds guard {SAMPLE_VOTES_GUARD}")
        assert rng.bit_generator.state == state

    def test_votes_guard_bounds_n_times_count(self):
        rng = make_rng(RngSeed(seed=1))
        count = SAMPLE_VOTES_GUARD // 2**12
        with pytest.raises(SizeGuardExceeded, match=f"^votes n \\* count={SAMPLE_VOTES_GUARD + count} "):
            sample_matrix(Independent(), 2**12 + 1, 0.5, count, rng)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_closed_unit_interval_accepted(self, model):
        votes = sample_matrix(model, 4, np.array([0.0, 1.0]), 2, make_rng(RngSeed(seed=1)))
        np.testing.assert_array_equal(votes, [[0, 0, 0, 0], [1, 1, 1, 1]])


_unit_open = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_models = st.one_of(
    st.just(Independent()),
    st.one_of(st.sampled_from([1e-12, 1 - 1e-12]), _unit_open).map(
        lambda g: Geometric(gamma=g)
    ),
    _unit_open.map(lambda lam: Equicorrelated(lam=lam)),
)


class TestStreamPreservation:
    """Row-blocked, column-major sampling reproduces the row-major draw."""

    @given(
        model=_models,
        n=st.integers(1, 300),
        count=st.integers(1, 1100),
        rate=st.one_of(st.floats(0.0, 1.0), st.none()),
        seed=st.integers(0, 2**32),
    )
    @example(model=Geometric(gamma=0.8), n=101, count=255, rate=None, seed=1)
    @example(model=Geometric(gamma=1e-12), n=3, count=256, rate=0.6, seed=2)
    @example(model=Geometric(gamma=1 - 1e-12), n=50, count=257, rate=None, seed=3)
    @example(model=Equicorrelated(lam=0.3), n=20, count=512, rate=None, seed=4)
    @example(model=Independent(), n=1, count=257, rate=0.5, seed=5)
    @settings(max_examples=150, deadline=None)
    def test_matches_row_major_reference(self, model, n, count, rate, seed):
        if rate is None:
            # per-row rates, the exact endpoints included
            pool = np.array([0.0, 1.0, 0.2, 0.5, 0.9, 1e-12, 1 - 1e-12])
            rate = pool[make_rng(RngSeed(seed=seed), 1).integers(0, pool.size, count)]
        new_rng = make_rng(RngSeed(seed=seed))
        ref_rng = make_rng(RngSeed(seed=seed))
        votes = sample_matrix(model, n, rate, count, new_rng)
        expected = sample_matrix_reference(model, n, rate, count, ref_rng)
        assert votes.shape == (count, n) and votes.dtype == np.uint8
        assert np.array_equal(votes, expected)
        assert np.array_equal(new_rng.random(3), ref_rng.random(3))

    # sha256 of the votes and the next three uniforms, generated from
    # tests/reference.py:sample_matrix_reference (the row-major
    # sampler) on the PCG64DXSM stream that make_rng builds
    DIGESTS = {
        ("independent", 16384): "e4649f869c68609fe4b5472608cedc79a6172d5602d217a71bfc9f22d5c664a9",
        ("independent", 3392): "ad487f5be4ca7be62185cf5396690ebe32cf923a51926c2c55c3cc34d83c09fe",
        ("geometric", 16384): "931875743ab1434c8e64a75da9414059ac4a154c109a3f1073d3dbcd0b52d469",
        ("geometric", 3392): "586f9b06ad65cafb7b10e0544d6ace81a74096a2fe6c4e36dd86acda3386aa8b",
        ("equicorrelated", 16384): "bce21c04565622fe46115bd7611898464e80818ffd212cc64dc7c44654b5da9b",
        ("equicorrelated", 3392): "267be854867cfeb62358e2638704294e525201d63e37af79b9d8a240848d1666",
    }

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("count", [16384, 3392])
    def test_frozen_chunk_digest(self, model, count):
        rng = make_rng(RngSeed(seed=2026), count)
        rates = np.where(rng.random(count) < 0.5, 0.6, 0.4)
        votes = sample_matrix(model, 101, rates, count, rng)
        digest = hashlib.sha256(np.ascontiguousarray(votes).tobytes())
        digest.update(rng.random(3).tobytes())
        assert digest.hexdigest() == self.DIGESTS[model.kind, count]


class TestGoodnessOfFit:
    """Row sums of sampled votes follow the oracle's pmf of the vote sum."""

    @staticmethod
    def _pooled(observed: np.ndarray, expected: np.ndarray) -> tuple:
        """Adjacent sums pooled from k = 0 up until each pool expects >= 5."""
        starts, acc = [0], 0.0
        for k, e in enumerate(expected):
            acc += e
            if acc >= 5.0:
                starts.append(k + 1)
                acc = 0.0
        # the last start opens an empty or short pool: join it to the one before
        starts.pop()
        return np.add.reduceat(observed, starts), np.add.reduceat(expected, starts)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_row_sums_match_exact_pmf(self, model):
        n, rate, count = 101, 0.6, 200_000
        votes = sample_matrix(model, n, rate, count, make_rng(RngSeed(seed=83)))
        observed = np.bincount(votes.sum(axis=1), minlength=n + 1)
        expected = count * exact_vote_pmf(model, n, rate).mass
        observed, expected = self._pooled(observed, expected)
        assert expected.min() >= 5.0 and observed.sum() == count
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2.sf(statistic, expected.size - 1) >= 1e-4


class TestWorkingSet:
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_chunk_peak_at_most_6_mib(self, model):
        # the row-major sampler held the whole 16384 x 101 float block
        # (14.7 MiB); row blocks keep only the bool matrices alive
        rng = make_rng(RngSeed(seed=1))
        rates = np.full(16384, 0.6)
        tracemalloc.start()
        try:
            sample_matrix(model, 101, rates, 16384, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20
