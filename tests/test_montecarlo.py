import importlib
import math
import os
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from votephase import model, montecarlo
from votephase.analytic import estimated_error, mean_individual_error
from votephase.diagnose import CLASS_ROWS_GUARD, CLASSIFIERS_GUARD
from votephase.model import (
    BadParameter,
    BadSize,
    EnsembleConfig,
    Equicorrelated,
    Geometric,
    Independent,
    Prior,
    RatePair,
)
from votephase.montecarlo import (
    CHUNK_REPS,
    CORR_SIZE_GUARD,
    MC_REPS_GUARD,
    MC_SIZE_GUARD,
    DegenerateVariance,
    McEstimate,
    _per_chunk,
    mc_conditional_error,
    mc_correlation_matrix,
    mc_error,
)
from votephase.oracle import exact_error
from votephase.sampler import SAMPLE_VOTES_GUARD, RngSeed, make_rng, sample_matrix

from reference import exact_correlation, off_diagonal_mean, within_ulps


def _cfg(n, p, q, pi=0.5, model=None):
    return EnsembleConfig(
        n=n, rates=RatePair(p=p, q=q), prior=Prior(pi=pi), model=model or Independent()
    )


class TestMcEstimate:
    def test_from_count(self):
        est = McEstimate.from_count(163, 1000, RngSeed(seed=1))
        assert est.value == 0.163
        assert est.std_error == pytest.approx(math.sqrt(0.163 * 0.837 / 1000))

    def test_to_dict(self):
        d = McEstimate.from_count(1, 100, RngSeed(seed=5, stream=7)).to_dict()
        assert d["seed"] == 5 and d["stream"] == 7 and d["reps"] == 100


class TestChunking:
    def test_chunk_sizes_partition_reps(self):
        for reps in (100, CHUNK_REPS, CHUNK_REPS + 1, 3 * CHUNK_REPS + 17):
            sizes = list(_per_chunk(reps, RngSeed(seed=1), lambda rng, m: m))
            assert sum(sizes) == reps
            assert all(0 < s <= CHUNK_REPS for s in sizes)
            assert all(s == CHUNK_REPS for s in sizes[:-1])

    def test_chunk_i_draws_from_substream_i(self, monkeypatch):
        seed = RngSeed(seed=5)
        monkeypatch.setattr("votephase.model._cpus", lambda: 8)
        draws = list(_per_chunk(3 * CHUNK_REPS, seed, lambda rng, m: rng.random()))
        assert draws == [make_rng(seed, i).random() for i in range(3)]

    def test_workers_are_chunks_capped_by_cpus(self, monkeypatch):
        pools = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", Pool)
        for cpus in (1, 2, 8):
            monkeypatch.setattr("votephase.model._cpus", lambda: cpus)
            list(_per_chunk(3 * CHUNK_REPS, RngSeed(seed=1), lambda rng, m: m))
        list(_per_chunk(100, RngSeed(seed=1), lambda rng, m: m))
        # one CPU or one chunk runs on the calling thread
        assert pools == [2, 3]

    def test_cpus_are_those_this_process_may_use(self):
        if hasattr(os, "sched_getaffinity"):
            assert model._cpus() == len(os.sched_getaffinity(0))
        else:
            assert model._cpus() == (os.cpu_count() or 1)


class TestMcError:
    def test_reps_floor(self):
        with pytest.raises(BadSize):
            mc_error(_cfg(3, 0.7, 0.3), 99, RngSeed(seed=1))

    def test_deterministic_across_threads_and_runs(self, monkeypatch):
        cfg = _cfg(11, 0.6, 0.4, model=Geometric(gamma=0.5))
        seed = RngSeed(seed=42)
        results = []
        for cpus in (1, 8, 1):
            monkeypatch.setattr("votephase.model._cpus", lambda: cpus)
            results.append(mc_error(cfg, 50_000, seed))
        assert results[0] == results[1] == results[2]

    def test_chunk_error_reaches_caller_and_no_thread_outlives_it(self, monkeypatch):
        monkeypatch.setattr("votephase.model._cpus", lambda: 8)
        error = RuntimeError("chunk failed")

        def rng(seed, i):
            if i == 1:
                raise error
            return make_rng(seed, i)

        monkeypatch.setattr(montecarlo, "make_rng", rng)
        before = threading.active_count()
        # chunk 2 of 3 raises
        with pytest.raises(RuntimeError) as caught:
            mc_error(_cfg(11, 0.6, 0.4), 3 * CHUNK_REPS, RngSeed(seed=3))
        assert caught.value is error
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "model",
        [Independent(), Geometric(gamma=0.5), Equicorrelated(lam=0.3)],
        ids=["independent", "geometric", "equicorrelated"],
    )
    def test_matches_exact_error(self, model):
        cfg = _cfg(15, 0.65, 0.35, pi=0.4, model=model)
        est = mc_error(cfg, 60_000, RngSeed(seed=101))
        assert abs(est.value - exact_error(cfg)) <= 4 * est.std_error

    def test_n_one_reduces_to_individual_error(self):
        cfg = _cfg(1, 0.7, 0.2, pi=0.3)
        est = mc_error(cfg, 100_000, RngSeed(seed=55))
        err = mean_individual_error(cfg.rates, cfg.prior)
        assert abs(est.value - err) <= 4 * est.std_error

    def test_clt_consistency_at_large_n(self):
        # deep in the beneficial region both the simulation and the
        # normal estimate are essentially zero
        cfg = _cfg(2001, 0.6, 0.4)
        est = mc_error(cfg, 100_000, RngSeed(seed=3))
        gap = abs(est.value - estimated_error(cfg))
        assert gap <= max(4 * est.std_error, 1e-3)


class TestMcConditionalError:
    def test_frozen_binomial_tail(self):
        cfg = _cfg(5, 0.7, 0.3)
        est1 = mc_conditional_error(cfg, 1, 100_000, RngSeed(seed=19))
        est0 = mc_conditional_error(cfg, 0, 100_000, RngSeed(seed=23))
        # this instance is symmetric: both class errors equal 0.16308
        assert abs(est1.value - 0.16308) <= 4 * est1.std_error
        assert abs(est0.value - 0.16308) <= 4 * est0.std_error

    def test_tie_counts_against_class_one(self):
        cfg = _cfg(2, 0.5, 0.3)
        est = mc_conditional_error(cfg, 1, 200_000, RngSeed(seed=29))
        assert abs(est.value - 0.75) <= 4 * est.std_error

    def test_label_validation(self):
        with pytest.raises(BadParameter):
            mc_conditional_error(_cfg(3, 0.7, 0.3), 2, 1000, RngSeed(seed=1))

    def test_class_pieces_recombine_to_overall_error(self):
        cfg = _cfg(7, 0.8, 0.25, pi=0.35)
        e1 = mc_conditional_error(cfg, 1, 200_000, RngSeed(seed=41))
        e0 = mc_conditional_error(cfg, 0, 200_000, RngSeed(seed=43))
        combined = e1.value * 0.35 + e0.value * 0.65
        assert combined == pytest.approx(exact_error(cfg), abs=0.005)


class TestMcCorrelationMatrix:
    def test_reps_floor(self):
        with pytest.raises(BadSize):
            mc_correlation_matrix(Independent(), 5, 0.5, 9_999, RngSeed(seed=1))

    def test_independent_off_diagonals_near_zero(self):
        s = mc_correlation_matrix(Independent(), 10, 0.5, 100_000, RngSeed(seed=47))
        off = s.correlation[~np.eye(10, dtype=bool)]
        assert np.max(np.abs(off)) <= 0.015
        assert abs(off_diagonal_mean(s.correlation)) <= 0.01

    def test_geometric_lag_profile(self):
        s = mc_correlation_matrix(
            Geometric(gamma=0.6), 50, 0.5, 200_000, RngSeed(seed=53)
        )
        assert s.lag_means[0] == pytest.approx(0.6, abs=0.01)
        assert s.lag_means[2] == pytest.approx(0.216, abs=0.01)

    def test_equicorrelated_off_diagonal_mean(self):
        s = mc_correlation_matrix(
            Equicorrelated(lam=0.3), 20, 0.5, 200_000, RngSeed(seed=59)
        )
        assert off_diagonal_mean(s.correlation) == pytest.approx(0.3, abs=0.01)

    def test_arrays_are_read_only(self):
        s = mc_correlation_matrix(Independent(), 4, 0.5, 10_000, RngSeed(seed=73))
        assert s.correlation.shape == (4, 4) and s.lag_means.shape == (3,)
        for array in (s.correlation, s.lag_means):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_degenerate_variance_raises(self):
        # rate so extreme no position ever votes 1 in 1e4 draws
        with pytest.raises(DegenerateVariance):
            mc_correlation_matrix(Independent(), 5, 1e-9, 10_000, RngSeed(seed=61))

    def test_deterministic(self, monkeypatch):
        monkeypatch.setattr("votephase.model._cpus", lambda: 1)
        a = mc_correlation_matrix(Independent(), 4, 0.5, 40_000, RngSeed(seed=67))
        monkeypatch.setattr("votephase.model._cpus", lambda: 8)
        b = mc_correlation_matrix(Independent(), 4, 0.5, 40_000, RngSeed(seed=67))
        np.testing.assert_array_equal(a.correlation, b.correlation)
        assert off_diagonal_mean(a.correlation) == off_diagonal_mean(b.correlation)

    @pytest.mark.parametrize(
        "model, n, rate, reps, seed",
        [
            (Geometric(gamma=0.3), 5, 0.45, 10_000, 6),
            (Independent(), 6, 0.5, 30_000, 5),
            # three chunks each
            (Independent(), 4, 0.3, 40_000, 1),
            (Equicorrelated(lam=0.2), 4, 0.3, 40_000, 7),
        ],
    )
    def test_correlations_match_exact_rationals(self, model, n, rate, reps, seed):
        s = mc_correlation_matrix(model, n, rate, reps, RngSeed(seed=seed))
        full, rest = divmod(reps, CHUNK_REPS)
        sizes = [CHUNK_REPS] * full + ([rest] if rest else [])
        votes = np.concatenate([
            sample_matrix(model, n, rate, size, make_rng(RngSeed(seed=seed), i))
            for i, size in enumerate(sizes)
        ]).astype(int)
        columns = votes.T.tolist()
        for i in range(n):
            assert s.correlation[i, i] == 1.0
            for j in range(n):
                if i != j:
                    exact = exact_correlation(columns[i], columns[j])
                    assert within_ulps(s.correlation[i, j], exact, 4), (i, j)

    def test_reps_guard_keeps_the_count_numerators_in_int64(self):
        # reps * n_ij is exact in int64 only for the row counts
        # diagnose accepts
        assert MC_REPS_GUARD <= CLASS_ROWS_GUARD

    def test_chunk_grams_go_through_the_sliced_kernel(self, monkeypatch):
        # with diagnose's Gram slices shorter than a chunk, each chunk
        # Gram is summed from many slices, and every bit stays the same
        diagnose = importlib.import_module("votephase.diagnose")
        assert montecarlo._gram is diagnose._gram
        args = (Geometric(gamma=0.5), 6, 0.4, 20_000, RngSeed(seed=79))
        whole = mc_correlation_matrix(*args)
        monkeypatch.setattr(diagnose, "_GRAM_ROWS", 16)
        sliced = mc_correlation_matrix(*args)
        assert sliced.correlation.tobytes() == whole.correlation.tobytes()
        assert sliced.lag_means.tobytes() == whole.lag_means.tobytes()

    def test_every_chunk_passes_the_sampler_and_gram_guards(self):
        assert CHUNK_REPS * MC_SIZE_GUARD <= SAMPLE_VOTES_GUARD
        assert CHUNK_REPS <= CLASS_ROWS_GUARD and CORR_SIZE_GUARD <= CLASSIFIERS_GUARD

    def test_peak_memory_flat_in_chunk_count(self, monkeypatch):
        # each chunk's n x n Gram matrix is added as it arrives;
        # holding them all until the last chunk grew the peak by one
        # Gram matrix per chunk
        monkeypatch.setattr("votephase.model._cpus", lambda: 1)
        n = 200

        def peak(chunks: int) -> int:
            tracemalloc.start()
            try:
                mc_correlation_matrix(Independent(), n, 0.5, chunks * CHUNK_REPS, RngSeed(seed=71))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) <= peak(2) + n * n * np.dtype(np.float32).itemsize


class TestSizeGuard:
    GUARD_ESTIMATORS = [
        lambda n: mc_error(_cfg(n, 0.6, 0.4, model=Geometric(gamma=0.5)), 100, RngSeed(seed=1)),
        lambda n: mc_conditional_error(
            _cfg(n, 0.6, 0.4, model=Geometric(gamma=0.5)), 1, 100, RngSeed(seed=1)
        ),
        lambda n: mc_correlation_matrix(Independent(), n, 0.5, 10_000, RngSeed(seed=1)),
    ]

    @pytest.mark.parametrize(
        "estimate", GUARD_ESTIMATORS, ids=["mc_error", "conditional", "correlation"]
    )
    def test_above_guard_refused_before_any_draw(self, estimate, monkeypatch):
        def no_draw(*args):
            raise AssertionError("sampled past the size guard")

        monkeypatch.setattr(montecarlo, "sample_matrix", no_draw)
        with pytest.raises(BadSize, match="guard"):
            estimate(MC_SIZE_GUARD + 1)

    def test_correlation_matrix_has_its_own_guard(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("sampled past the size guard")

        monkeypatch.setattr(montecarlo, "sample_matrix", no_draw)
        with pytest.raises(BadSize, match=f"exceeds guard {CORR_SIZE_GUARD}$"):
            mc_correlation_matrix(Independent(), CORR_SIZE_GUARD + 1, 0.5, 10_000, RngSeed(seed=1))

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda reps: mc_error(_cfg(11, 0.6, 0.4), reps, RngSeed(seed=1)),
            lambda reps: mc_conditional_error(_cfg(11, 0.6, 0.4), 0, reps, RngSeed(seed=1)),
        ],
        ids=["mc_error", "conditional"],
    )
    def test_reps_above_guard_refused_before_any_draw(self, estimate, monkeypatch):
        def no_draw(*args):
            raise AssertionError("sampled past the reps guard")

        monkeypatch.setattr(montecarlo, "sample_matrix", no_draw)
        monkeypatch.setattr(montecarlo, "make_rng", no_draw)
        with pytest.raises(BadSize, match=f"^Monte Carlo reps={MC_REPS_GUARD + 1} exceeds guard"):
            estimate(MC_REPS_GUARD + 1)

    @pytest.mark.parametrize("estimate", GUARD_ESTIMATORS[:2], ids=["mc_error", "conditional"])
    def test_at_guard_runs(self, estimate):
        # the correlation matrix is n x n, so it is not run at the guard
        est = estimate(MC_SIZE_GUARD)
        assert est.reps == 100 and 0.0 <= est.value <= 1.0
