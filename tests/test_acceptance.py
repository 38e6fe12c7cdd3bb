"""End-to-end checks of the headline quantitative claims.

Each test prints one [PASS]/[FAIL] line on the real terminal (visible
under plain ``pytest -v``) so the whole scoreboard can be read off a
single run. Tolerances are part of the claims and are asserted as-is.
"""

import math

import numpy as np

from votephase import analytic, montecarlo, oracle
from votephase.cli import main
from votephase.diagnose import PredictionMatrix, diagnose
from votephase.model import (
    ASYMPTOTIC,
    EnsembleConfig,
    Equicorrelated,
    Geometric,
    GridSpec,
    Independent,
    Prior,
    RatePair,
)
from votephase.sampler import RngSeed, make_rng

from reference import (
    delta_asymptotic,
    max_improvement,
    off_diagonal_mean,
    pmf_variance,
    sample_labeled_votes,
)


def _line(capsys, num: int, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{tag}] criterion {num:2d}: {detail}")


# representative point per cell; 0.5 sits exactly on the boundary
NINE_CELLS = [
    (0.25, 0.75), (0.5, 0.75), (0.75, 0.75),
    (0.25, 0.5), (0.5, 0.5), (0.75, 0.5),
    (0.25, 0.25), (0.5, 0.25), (0.75, 0.25),
]


def _table_value(p: float, q: float, pi: float) -> float:
    if q > 0.5:
        return 1.0 if p < 0.5 else (1.0 - pi / 2.0 if p == 0.5 else 1.0 - pi)
    if q == 0.5:
        return (1.0 + pi) / 2.0 if p < 0.5 else (0.5 if p == 0.5 else (1.0 - pi) / 2.0)
    return pi if p < 0.5 else (pi / 2.0 if p == 0.5 else 0.0)


def _cell_offset(p: float, q: float, pi: float) -> float:
    return _table_value(p, q, pi) - pi


def test_criterion_01_limit_table(capsys):
    ok = False
    detail = "nine-cell limiting error table at pi=0.3"
    try:
        pi = 0.3
        prior = Prior(pi=pi)
        worst = 0.0
        for p, q in NINE_CELLS:
            rates = RatePair(p=p, q=q)
            expected = _table_value(p, q, pi)
            assert analytic.limiting_error(rates, prior) == expected, (p, q)
            cfg = EnsembleConfig(n=10**6, rates=rates, prior=prior)
            gap = abs(analytic.estimated_error(cfg) - expected)
            worst = max(worst, gap)
            assert gap <= 1e-3, (p, q, gap)
        detail += f"; exact in all cells, n=1e6 estimate off by <= {worst:.2e}"
        ok = True
    finally:
        _line(capsys, 1, ok, detail)


def test_criterion_02_offset_algebra_and_jumps(capsys):
    ok = False
    detail = "delta_inf == pi*p - (1-pi)*q + cell offset"
    try:
        rng = np.random.default_rng(20260815)
        spans = {-1: (0.01, 0.49), 0: (0.5, 0.5), 1: (0.51, 0.99)}
        worst = 0.0
        for trial in range(10_000):
            p_cell = trial % 3 - 1
            q_cell = (trial // 3) % 3 - 1
            pi = (0.25, 0.5, 0.75)[(trial // 9) % 3]
            p = 0.5 if p_cell == 0 else float(rng.uniform(*spans[p_cell]))
            q = 0.5 if q_cell == 0 else float(rng.uniform(*spans[q_cell]))
            a_term = pi * p - (1.0 - pi) * q
            expected = a_term + _cell_offset(p, q, pi)
            got = analytic.limiting_delta(RatePair(p=p, q=q), Prior(pi=pi)).delta_inf
            worst = max(worst, abs(got - expected))
            assert abs(got - expected) <= 1e-15, (p, q, pi)
        # dyadic probes make the boundary jumps exact float arithmetic
        for pi in (0.25, 0.5, 0.75):
            prior = Prior(pi=pi)

            def off(p, q):
                verdict = analytic.limiting_delta(RatePair(p=p, q=q), prior)
                return verdict.delta_inf - (pi * p - (1.0 - pi) * q)

            assert off(0.25, 0.25) - off(0.5, 0.25) == pi / 2.0
            assert off(0.5, 0.25) - off(0.75, 0.25) == pi / 2.0
            assert off(0.75, 0.5) - off(0.75, 0.25) == (1.0 - pi) / 2.0
            assert off(0.75, 0.75) - off(0.75, 0.5) == (1.0 - pi) / 2.0
        detail += f"; max |gap| = {worst:.2e} over 10^4 points, jumps exact"
        ok = True
    finally:
        _line(capsys, 2, ok, detail)


def test_criterion_03_best_improvement_at_n_100(capsys):
    ok = False
    detail = "max -delta(100) on 0.01-step grid, pi=1/2"
    try:
        results = {}
        for gamma, lo, hi in ((0.0, 0.35, 0.43), (0.8, 0.19, 0.26)):
            model = Independent() if gamma == 0.0 else Geometric(gamma=gamma)
            spec = GridSpec.from_step(
                p_min=0.01, p_max=0.99, q_min=0.01, q_max=0.99,
                step=0.01, n=100, prior=Prior(pi=0.5), model=model,
            )
            best = max_improvement(spec)
            results[gamma] = best
            assert lo <= best.value <= hi, (gamma, best)
        detail += (
            f"; gamma=0 -> {results[0.0].value:.4f} at {results[0.0].at},"
            f" gamma=0.8 -> {results[0.8].value:.4f} at {results[0.8].at}"
        )
        ok = True
    finally:
        _line(capsys, 3, ok, detail)


def test_criterion_04_equicorrelated_abusive_grid(capsys):
    ok = False
    detail = "lam=0.7 abusive asymptotic estimate, pi=1/2"
    try:
        prior = Prior(pi=0.5)
        model = Equicorrelated(lam=0.7)
        spec = GridSpec.from_step(
            p_min=0.01, p_max=0.99, q_min=0.01, q_max=0.99,
            step=0.01, n=ASYMPTOTIC, prior=prior, model=model,
        )
        best = max_improvement(spec)
        assert 0.035 <= best.value <= 0.055, best
        inside = delta_asymptotic(RatePair(p=0.6, q=0.4), prior, model)
        assert inside > 0.0
        detail += (
            f"; max gain {best.value:.4f} at {best.at},"
            f" harmful inside golden region: delta(0.6,0.4)={inside:+.4f}"
        )
        ok = True
    finally:
        _line(capsys, 4, ok, detail)


def test_criterion_05_effective_size_equivalence(capsys):
    ok = False
    detail = "equicorrelated n-free estimate == Independent at n=1/lam"
    try:
        prior = Prior(pi=0.5)
        worst = 0.0
        for lam in (0.5, 0.1, 0.01):
            model = Equicorrelated(lam=lam)
            n_eff = round(1.0 / lam)
            for i in range(19):
                for j in range(19):
                    rates = RatePair(p=0.05 + 0.05 * i, q=0.05 + 0.05 * j)
                    lhs = analytic.estimated_error_asymptotic(rates, prior, model)
                    rhs = analytic.estimated_error(
                        EnsembleConfig(n=n_eff, rates=rates, prior=prior)
                    )
                    worst = max(worst, abs(lhs - rhs))
                    assert abs(lhs - rhs) <= 1e-12, (lam, rates)
        detail += f"; max |gap| = {worst:.2e} over 3 x 19 x 19 points"
        ok = True
    finally:
        _line(capsys, 5, ok, detail)


def test_criterion_06_oracle_matches_brute_force(capsys):
    ok = False
    detail = "exact_error == brute_force_error, all models, n <= 12"
    try:
        rng = np.random.default_rng(6)
        worst = 0.0
        for trial in range(200):
            n = int(rng.integers(1, 13))
            p = float(rng.uniform(0.05, 0.95))
            q = float(rng.uniform(0.05, 0.95))
            pi = float(rng.uniform(0.1, 0.9))
            model = (
                Independent(),
                Geometric(gamma=float(rng.uniform(0.0, 0.95))),
                Equicorrelated(lam=float(rng.uniform(0.0, 0.95))),
            )[trial % 3]
            cfg = EnsembleConfig(
                n=n, rates=RatePair(p=p, q=q), prior=Prior(pi=pi), model=model
            )
            gap = abs(oracle.exact_error(cfg) - oracle.brute_force_error(cfg))
            worst = max(worst, gap)
            assert gap <= 1e-12, (cfg, gap)
        detail += f"; max |gap| = {worst:.2e} over 200 draws"
        ok = True
    finally:
        _line(capsys, 6, ok, detail)


def test_criterion_07_variance_ledger(capsys):
    ok = False
    detail = "VotePmf variance == sum_variance, n in 1..64"
    try:
        rng = np.random.default_rng(7)
        worst = 0.0
        for n in range(1, 65):
            for _ in range(50):
                r = float(rng.uniform(0.05, 0.95))
                model = (
                    Independent(),
                    Geometric(gamma=float(rng.uniform(0.0, 0.9))),
                    Equicorrelated(lam=float(rng.uniform(0.0, 0.9))),
                )[int(rng.integers(0, 3))]
                expected = analytic.sum_variance(model, n, r)
                got = pmf_variance(oracle.exact_vote_pmf(model, n, r))
                rel = abs(got - expected) / expected
                worst = max(worst, rel)
                assert rel <= 1e-9, (model, n, r, rel)
        detail += f"; max relative gap = {worst:.2e}"
        ok = True
    finally:
        _line(capsys, 7, ok, detail)


def test_criterion_08_sampler_calibration(capsys):
    ok = False
    detail = "lag correlations, off-diagonal mean"
    try:
        reps = 200_000
        worst_lag = 0.0
        for gamma in (0.4, 0.8):
            summary = montecarlo.mc_correlation_matrix(
                Geometric(gamma=gamma), 32, 0.6, reps, RngSeed(seed=8)
            )
            for k in range(1, 6):
                gap = abs(summary.lag_means[k - 1] - gamma**k)
                worst_lag = max(worst_lag, gap)
                assert gap <= 0.01, (gamma, k, gap)
        lam = 0.3
        summary = montecarlo.mc_correlation_matrix(
            Equicorrelated(lam=lam), 32, 0.6, reps, RngSeed(seed=88)
        )
        gap_lam = abs(off_diagonal_mean(summary.correlation) - lam)
        assert gap_lam <= 0.01
        detail += f"; worst lag gap {worst_lag:.4f}, lambda gap {gap_lam:.4f}"

        ok = True
    finally:
        _line(capsys, 8, ok, detail)


def test_criterion_09_monte_carlo_consistency(capsys):
    ok = False
    detail = "|mc - exact| <= 4*SE at n=101, R=1e5, 100 seeds x 3 models"
    try:
        rates = RatePair(p=0.6, q=0.4)
        prior = Prior(pi=0.5)
        counts = {}
        for model in (Independent(), Geometric(gamma=0.5), Equicorrelated(lam=0.3)):
            cfg = EnsembleConfig(n=101, rates=rates, prior=prior, model=model)
            exact = oracle.exact_error(cfg)
            hits = 0
            for seed in range(100):
                est = montecarlo.mc_error(cfg, 100_000, RngSeed(seed=seed))
                if abs(est.value - exact) <= 4.0 * est.std_error:
                    hits += 1
            counts[model.kind] = hits
            assert hits >= 99, (model.kind, hits)
        detail += "; within-band seeds " + ", ".join(
            f"{kind}: {hits}/100" for kind, hits in counts.items()
        )
        ok = True
    finally:
        _line(capsys, 9, ok, detail)


def test_criterion_10_cli_determinism(capsys, tmp_path, monkeypatch):
    ok = False
    detail = "simulate and phase-grid byte-identical across runs and CPU counts {1,8}"
    try:
        sim_base = [
            "simulate", "--n", "25", "--p", "0.65", "--q", "0.35", "--pi", "0.4",
            "--model", "geometric", "--gamma", "0.5",
            "--reps", "50000", "--seed", "123",
        ]
        blobs = []
        for i, cpus in enumerate((1, 1, 8)):
            out = tmp_path / f"sim{i}.json"
            monkeypatch.setattr("votephase.model._cpus", lambda: cpus)
            code = main([*sim_base, "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

        grid_base = [
            "phase-grid", "--p-min", "0.05", "--p-max", "0.95",
            "--q-min", "0.05", "--q-max", "0.95", "--step", "0.05",
            "--pi", "0.5", "--n", "100",
        ]
        grids = []
        for i in range(3):
            out = tmp_path / f"grid{i}.csv"
            code = main([*grid_base, "--out", str(out)])
            assert code == 0
            grids.append(out.read_bytes())
        assert grids[0] == grids[1] == grids[2]
        detail += f"; simulate {len(blobs[0])} bytes, grid {len(grids[0])} bytes"
        ok = True
    finally:
        _line(capsys, 10, ok, detail)


def test_criterion_11_diagnose_round_trip(capsys):
    ok = False
    detail = "diagnose recovers (0.7, 0.3) and the true-parameter verdict"
    try:
        p, q, n_samples, m = 0.7, 0.3, 10_000, 25
        cfg = EnsembleConfig(n=m, rates=RatePair(p=p, q=q), prior=Prior(pi=0.5))
        truth = analytic.limiting_delta(cfg.rates, cfg.prior)
        hits = 0
        for seed in range(100):
            labels, votes = sample_labeled_votes(
                cfg, n_samples, make_rng(RngSeed(seed=seed))
            )
            report = diagnose(PredictionMatrix(labels=labels, votes=votes))
            n1 = int(labels.sum())
            n0 = n_samples - n1
            se_p = math.sqrt(p * (1.0 - p) / (m * n1))
            se_q = math.sqrt(q * (1.0 - q) / (m * n0))
            if (
                abs(report.p_hat - p) <= 4.0 * se_p
                and abs(report.q_hat - q) <= 4.0 * se_q
                and report.verdict.phase is truth.phase
            ):
                hits += 1
        assert hits >= 95, hits
        detail += f"; {hits}/100 seeds within 4*SE with matching verdict"
        ok = True
    finally:
        _line(capsys, 11, ok, detail)
