"""The three workloads: their inputs, operations and output checks.

A workload is one cycle of operations that a single client repeats in
a closed loop. Every random input comes from the workload seed through
``Inputs``; votephase sees only the generated values. Reference
answers are computed here, once, before any operation is timed.

Operations call the library through module attributes
(``vp.montecarlo.mc_error``), looked up at call time, so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import io
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks

PI = 0.5
MC_N = 101
MC_REPS = 200_000
CORR_N = 32
CORR_GAMMA = 0.5
GAMMA = 0.8
LAM = 0.3
GEOMETRIC_NS = (1001, 10001, 20001)
BINOMIAL_N = 1_000_000
BRUTE_N = 18
CLI_ORACLE_N = 5001
CLI_REPS = 100_000
GRID_STEP = 0.01
CSV_ROWS = 20_000
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Inputs:
    """Everything the seed decides."""

    seed: int
    p: float
    q: float
    mc_seed: int

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        r = random.Random(seed)
        return cls(seed, r.uniform(0.55, 0.65), r.uniform(0.35, 0.45), r.getrandbits(63))


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    reps: int = 0  # Monte Carlo replications done by one call


@dataclass
class Workload:
    name: str
    ops: list
    in_process: bool = True


def _reference(compute: Callable[[], Any]):
    """Run a reference computation; a failure fails every check that uses it."""
    try:
        return compute(), None
    except Exception as exc:  # the operations report it; the run goes on
        return None, f"reference failed: {exc!r}"


def _checked(bad, check: Callable[[Any], None]) -> Callable[[Any], None]:
    def run(result):
        if bad:
            raise checks.CheckFailed(bad)
        check(result)

    return run


def build_mc(vp, inputs: Inputs) -> Workload:
    """mc_error under three models, one conditional error, one correlation matrix."""
    from votephase import EnsembleConfig, Equicorrelated, Geometric, Independent, Prior, RatePair, RngSeed

    mc, oracle = vp.montecarlo, vp.oracle
    rates, prior = RatePair(inputs.p, inputs.q), Prior(PI)
    memo: dict = {}
    ops = []
    models = (("independent", Independent()), ("geometric", Geometric(GAMMA)), ("equicorrelated", Equicorrelated(LAM)))
    for stream, (label, model) in enumerate(models):
        cfg = EnsembleConfig(MC_N, rates, prior, model)
        seed = RngSeed(inputs.mc_seed, stream)
        exact, bad = _reference(lambda cfg=cfg: oracle.exact_error(cfg))
        kind = f"mc_error.{label}"

        def check(est, exact=exact, kind=kind):
            checks.within_sigmas(est.value, est.std_error, exact, kind)
            checks.repeats(memo, kind, (est.value, est.std_error))

        ops.append(Op(kind, lambda cfg=cfg, seed=seed: mc.mc_error(cfg, MC_REPS, seed), _checked(bad, check), MC_REPS))

    geo = EnsembleConfig(MC_N, rates, prior, Geometric(GAMMA))
    seed = RngSeed(inputs.mc_seed, len(models))
    exact, bad = _reference(lambda: oracle.exact_vote_pmf(geo.model, MC_N, inputs.p).cdf_at(MC_N // 2))

    def check_conditional(est):
        checks.within_sigmas(est.value, est.std_error, exact, "mc_conditional_error")
        checks.repeats(memo, "mc_conditional_error", (est.value, est.std_error))

    ops.append(
        Op("mc_conditional_error", lambda: mc.mc_conditional_error(geo, 1, MC_REPS, seed), _checked(bad, check_conditional), MC_REPS)
    )

    corr_model = Geometric(CORR_GAMMA)
    corr_seed = RngSeed(inputs.mc_seed, len(models) + 1)

    def check_corr(summary):
        checks.lag1_near_gamma(float(summary.lag_means[0]), CORR_GAMMA, MC_REPS)
        checks.repeats(memo, "mc_correlation_matrix", summary.correlation)

    ops.append(
        Op(
            "mc_correlation_matrix",
            lambda: mc.mc_correlation_matrix(corr_model, CORR_N, inputs.p, MC_REPS, corr_seed),
            check_corr,
        )
    )
    return Workload("mc", ops)


def _pmf_error_reference(vp, cfg) -> float:
    """Exact error from the two class pmfs, after checking their moments."""
    oracle, analytic = vp.oracle, vp.analytic
    n, tie = cfg.n, cfg.n // 2
    pmfs = []
    for rate in (cfg.rates.p, cfg.rates.q):
        pmf = oracle.exact_vote_pmf(cfg.model, n, rate)
        checks.pmf_moments(pmf.mass, n, rate, analytic.sum_variance(cfg.model, n, rate))
        pmfs.append(pmf)
    pi = cfg.prior.pi
    return pmfs[0].cdf_at(tie) * pi + pmfs[1].upper_tail(tie) * (1.0 - pi)


def build_exact(vp, inputs: Inputs) -> Workload:
    """exact_error across the geometric DP sizes and the binomial bypass,
    plus brute force as the reference-of-references."""
    from votephase import EnsembleConfig, Equicorrelated, Geometric, Independent, Prior, RatePair

    oracle = vp.oracle
    rates, prior = RatePair(inputs.p, inputs.q), Prior(PI)
    memo: dict = {}
    ops = []
    cases = [(f"exact_error.geometric.n{n}", n, Geometric(GAMMA)) for n in GEOMETRIC_NS]
    cases += [
        (f"exact_error.independent.n{BINOMIAL_N}", BINOMIAL_N, Independent()),
        (f"exact_error.equicorrelated.n{BINOMIAL_N}", BINOMIAL_N, Equicorrelated(LAM)),
    ]
    for kind, n, model in cases:
        cfg = EnsembleConfig(n, rates, prior, model)
        ref, bad = _reference(lambda cfg=cfg: _pmf_error_reference(vp, cfg))

        def check(value, ref=ref, kind=kind):
            checks.agrees(value, ref, 1e-9 * abs(ref), kind)
            checks.repeats(memo, kind, value)

        ops.append(Op(kind, lambda cfg=cfg: oracle.exact_error(cfg), _checked(bad, check)))

    brute_cfg = EnsembleConfig(BRUTE_N, rates, prior, Geometric(GAMMA))
    ref, bad = _reference(lambda: oracle.exact_error(brute_cfg))

    def check_brute(value):
        checks.agrees(value, ref, checks.BRUTE_FORCE_ATOL, "brute_force_error")
        checks.repeats(memo, "brute_force_error", value)

    ops.append(Op(f"brute_force_error.geometric.n{BRUTE_N}", lambda: oracle.brute_force_error(brute_cfg), _checked(bad, check_brute)))
    return Workload("exact", ops)


def write_prediction_csv(path: Path, inputs: Inputs) -> None:
    """A CSV_ROWS x MC_N prediction matrix whose votes follow a Markov
    chain along the columns (lag-k correlation CORR_GAMMA**k)."""
    rng = np.random.Generator(np.random.PCG64(inputs.seed))
    labels = (rng.random(CSV_ROWS) < PI).astype(np.uint8)
    rates = np.where(labels == 1, inputs.p, inputs.q)
    t11 = rates + CORR_GAMMA * (1.0 - rates)
    t01 = rates * (1.0 - CORR_GAMMA)
    u = rng.random((CSV_ROWS, MC_N))
    votes = np.empty((CSV_ROWS, MC_N), dtype=np.uint8)
    votes[:, 0] = u[:, 0] < rates
    for i in range(1, MC_N):
        votes[:, i] = u[:, i] < np.where(votes[:, i - 1] == 1, t11, t01)
    cells = np.concatenate([labels[:, None], votes], axis=1)
    text = np.empty((CSV_ROWS, 2 * (MC_N + 1)), dtype=np.uint8)
    text[:, 0::2] = cells + ord("0")
    text[:, 1::2] = ord(",")
    text[:, -1] = ord("\n")
    header = "y," + ",".join(f"f{i}" for i in range(1, MC_N + 1)) + "\n"
    path.write_bytes(header.encode() + text.tobytes())


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes


def _in_process(vp, argv: list) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = vp.cli.main(argv)
    return CliResult(code, out.getvalue().encode(), err.getvalue().encode())


def _subprocess(argv: list, root: Path, env: dict) -> CliResult:
    done = subprocess.run(
        [sys.executable, "-m", "votephase", *argv], cwd=root, env=env, capture_output=True, timeout=CLI_TIMEOUT_S
    )
    return CliResult(done.returncode, done.stdout, done.stderr)


def _fmt(x: float) -> str:
    """The CLI's CSV rendering of a number."""
    return format(float(x), ".9g")


def build_cli(vp, inputs: Inputs, csv_path: Path, root: Path, env: dict, in_process: bool) -> Workload:
    """The five subcommands, as fresh interpreters or, when traced, through
    ``votephase.cli.main`` in this process."""
    from votephase import EnsembleConfig, Geometric, GridSpec, Prior, RatePair, RngSeed

    analytic, oracle, mc, grid, diagnose = vp.analytic, vp.oracle, vp.montecarlo, vp.grid, vp.diagnose
    rates, prior, model = RatePair(inputs.p, inputs.q), Prior(PI), Geometric(GAMMA)
    common = ["--p", repr(inputs.p), "--q", repr(inputs.q), "--pi", repr(PI), "--model", "geometric", "--gamma", repr(GAMMA)]
    cfg = EnsembleConfig(MC_N, rates, prior, model)
    big = EnsembleConfig(CLI_ORACLE_N, rates, prior, model)

    def analytic_expected():
        return {"err": analytic.mean_individual_error(rates, prior), "err_hat": analytic.estimated_error(cfg)}

    def oracle_expected():
        return {
            "err_exact": oracle.exact_error(big),
            "pmf_class1": [float(v) for v in oracle.exact_vote_pmf(model, CLI_ORACLE_N, inputs.p).mass],
            "pmf_class0": [float(v) for v in oracle.exact_vote_pmf(model, CLI_ORACLE_N, inputs.q).mass],
        }

    def simulate_expected():
        est = mc.mc_error(cfg, CLI_REPS, RngSeed(inputs.mc_seed))
        return {"estimate.value": est.value, "estimate.std_error": est.std_error}

    def grid_expected():
        spec = GridSpec.from_step(0.01, 0.99, 0.01, 0.99, GRID_STEP, MC_N, prior, model)
        rows = grid.sweep(spec)
        return {col: [_fmt(getattr(r, col)) for r in rows] for col in ("p", "q", "err_hat", "delta_n")}

    def diagnose_expected():
        report = diagnose.diagnose(diagnose.read_prediction_csv(str(csv_path)), assume_ordered=True)
        return diagnose.format_report(report) + "\n"

    subcommands = [
        ("analytic", ["analytic", "--n", str(MC_N), *common], analytic_expected, checks.json_fields),
        ("oracle", ["oracle", "--pmf", "--n", str(CLI_ORACLE_N), *common], oracle_expected, checks.json_fields),
        (
            "simulate",
            ["simulate", "--n", str(MC_N), *common, "--reps", str(CLI_REPS), "--seed", str(inputs.mc_seed)],
            simulate_expected,
            checks.json_fields,
        ),
        (
            "phase_grid",
            ["phase-grid", "--step", repr(GRID_STEP), "--n", str(MC_N), "--pi", repr(PI), "--model", "geometric", "--gamma", repr(GAMMA)],
            grid_expected,
            checks.csv_columns,
        ),
        (
            "diagnose",
            ["diagnose", "--ordered", "--input", str(csv_path)],
            diagnose_expected,
            lambda stdout, want: checks.equals(stdout, want, "diagnose report"),
        ),
    ]
    memo: dict = {}
    ops = []
    for kind, argv, expected, compare in subcommands:
        want, bad = _reference(expected)

        def check(res, kind=kind, want=want, compare=compare):
            checks.exited_ok(res.returncode, res.stderr)
            checks.repeats(memo, kind, res.stdout)
            compare(res.stdout.decode(), want)

        if in_process:
            call = lambda argv=argv: _in_process(vp, argv)  # noqa: E731
        else:
            call = lambda argv=argv: _subprocess(argv, root, env)  # noqa: E731
        ops.append(Op(kind, call, _checked(bad, check)))
    return Workload("cli", ops, in_process)
