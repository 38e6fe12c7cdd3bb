import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votephase.model import (
    BadParameter,
    EnsembleConfig,
    Equicorrelated,
    Geometric,
    Independent,
    Prior,
    RatePair,
)
from votephase.sampler import RngSeed, make_rng, sample_matrix

from reference import sample_labeled_votes

rates = st.floats(min_value=0.05, max_value=0.95)


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
