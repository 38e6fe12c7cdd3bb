"""Per-layer metrics from the spans of a traced run.

The layers are votephase's modules. ``TARGETS`` names the functions the
benchmark wraps at each layer boundary; ``layer_metrics`` turns the
recorded spans, the thread probe and the start-up probe into the
per-layer figures listed in BENCHMARK.json. A figure whose spans are
absent (its function was renamed or deleted) is left out and listed as
missing.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from stats import median, self_time
from workloads import BINOMIAL_N, GAMMA, GEOMETRIC_NS, MC_N, MC_REPS, PI

CHUNK_ROWS = 16384  # one chunk of the Monte Carlo layout
THREADS_ENV = "VOTEPHASE_THREADS"
PROBE_REPEATS = 3


def _model_kind(model) -> str:
    return getattr(model, "kind", type(model).__name__.lower())


def _subnormals(mass) -> int:
    m = np.asarray(mass)
    return int(np.count_nonzero((m > 0.0) & (m < np.finfo(m.dtype).tiny)))


# (patched attribute, span name, detail recorded from (args, kwargs, result))
TARGETS = [
    ("votephase.montecarlo.sample_matrix", "sampler.sample_matrix", lambda a, k, r: (_model_kind(a[0]), r.shape)),
    ("votephase.montecarlo.make_rng", "sampler.make_rng", None),
    ("votephase.montecarlo.mc_error", "montecarlo.mc_error", None),
    ("votephase.montecarlo.mc_conditional_error", "montecarlo.mc_conditional_error", None),
    ("votephase.montecarlo.mc_correlation_matrix", "montecarlo.mc_correlation_matrix", None),
    ("votephase.oracle.exact_error", "oracle.exact_error", None),
    (
        "votephase.oracle.exact_vote_pmf",
        "oracle.exact_vote_pmf",
        lambda a, k, r: (_model_kind(a[0]), r.n, _subnormals(r.mass)),
    ),
    ("votephase.oracle.binomial_pmf", "oracle.binomial_pmf", lambda a, k, r: len(r) - 1),
    ("votephase.oracle.brute_force_error", "oracle.brute_force_error", None),
    ("votephase.analytic.estimated_error", "analytic.estimated_error", None),
    ("votephase.grid.estimated_error", "analytic.estimated_error", None),
    ("votephase.grid.sweep", "grid.sweep", lambda a, k, r: (len(r), len({row.p for row in r}))),
    (
        "votephase.cli.read_prediction_csv",
        "diagnose.read_prediction_csv",
        lambda a, k, r: int(r.labels.size + r.votes.size),
    ),
    ("votephase.cli.run_diagnose", "diagnose.diagnose", None),
    ("votephase.cli.main", "cli.main", lambda a, k, r: a[0][0]),
]

SUBCOMMANDS = ("analytic", "oracle", "simulate", "phase_grid", "diagnose")

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "sampler.votes_per_s.independent": ("votes/s", "higher"),
    "sampler.votes_per_s.geometric": ("votes/s", "higher"),
    "sampler.votes_per_s.equicorrelated": ("votes/s", "higher"),
    "sampler.sample_matrix_self_s": ("s", "lower"),
    "montecarlo.reduce_self_s": ("s", "lower"),
    "montecarlo.chunks": ("count", "lower"),
    "montecarlo.thread_speedup": ("x", "higher"),
    "montecarlo.threads_effective": ("count", "higher"),
    "montecarlo.corr_matrix_s": ("s", "lower"),
    **{f"oracle.geometric_pmf_s.n{n}": ("s", "lower") for n in GEOMETRIC_NS},
    "oracle.subnormal_masses": ("count", "lower"),
    "oracle.binomial_pmf_s": ("s", "lower"),
    "oracle.brute_force_s": ("s", "lower"),
    "analytic.estimated_error_us": ("us", "lower"),
    "grid.row_s": ("s", "lower"),
    "grid.cells_per_s": ("1/s", "higher"),
    "diagnose.read_csv_s": ("s", "lower"),
    "diagnose.read_csv_cells_per_s": ("1/s", "higher"),
    "diagnose.diagnose_s": ("s", "lower"),
    "cli.interp_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    **{f"cli.{sub}_self_s": ("s", "lower") for sub in SUBCOMMANDS},
    "trace.overhead_share": ("ratio", "lower"),
}


def thread_probe(vp, tracer, inputs, nproc: int, ops: dict) -> dict:
    """One mc_error call at 1 thread and at nproc threads, PROBE_REPEATS times.

    The thread count is set only through the environment, so if the knob
    goes away the speed-up reads 1. The 1-thread call is repeated traced,
    for the reduction's self time with every chunk on the calling thread.
    """
    from votephase import EnsembleConfig, Geometric, Prior, RatePair, RngSeed

    cfg = EnsembleConfig(MC_N, RatePair(inputs.p, inputs.q), Prior(PI), Geometric(GAMMA))
    reps, seed = MC_REPS, RngSeed(inputs.mc_seed, 1)
    times: dict = {1: [], nproc: []}
    try:
        for _ in range(PROBE_REPEATS):
            for threads in times:
                os.environ[THREADS_ENV] = str(threads)
                t0 = time.perf_counter()
                vp.montecarlo.mc_error(cfg, reps, seed)
                times[threads].append(time.perf_counter() - t0)
            os.environ[THREADS_ENV] = "1"
            tracer.active = True
            ops[tracer.begin_op()] = ("probe", "mc_error.1thread", 0)
            try:
                tracer.span("op.probe", vp.montecarlo.mc_error, cfg, reps, seed)
            finally:
                tracer.active = False
    finally:
        os.environ[THREADS_ENV] = str(nproc)
    return {"speedup": median(times[1]) / median(times[nproc])}


def layer_metrics(tracer, ops: dict, startup: dict, probe: dict, overhead_share: float) -> tuple:
    """(metrics, missing): per-layer values by name, and the names with no data.

    ``ops`` maps an operation id to (workload, kind, cycle).
    """
    kids = tracer.children()
    by_name: dict = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name, workload, detailed=False):
        """Spans of one name under a workload's operations; ``detailed``
        keeps only those whose detail was recorded."""
        return [s for s in by_name.get(name, []) if ops[s.op][0] == workload and (s.info is not None or not detailed)]

    def own(s):
        return self_time(s.start, s.end, [(c.start, c.end) for c in kids.get(s.sid, [])])

    def descendants(s):
        out, todo = [], list(kids.get(s.sid, []))
        while todo:
            c = todo.pop()
            out.append(c)
            todo.extend(kids.get(c.sid, []))
        return out

    def per_cycle(selected, value):
        """Per traced cycle, the summed value of the selected spans."""
        sums: dict = {}
        for s in selected:
            cycle = ops[s.op][2]
            sums[cycle] = sums.get(cycle, 0) + value(s)
        return sums.values()

    def med(values):
        values = list(values)
        return median(values) if values else None

    def count(values):
        """Median of exact counts, kept a whole number."""
        values = list(values)
        return statistics.median_low(values) if values else None

    m: dict = {}
    sampler = spans("sampler.sample_matrix", "mc")
    for model in ("independent", "geometric", "equicorrelated"):
        chunk = [s.duration for s in sampler if s.info == (model, (CHUNK_ROWS, MC_N))]
        m[f"sampler.votes_per_s.{model}"] = CHUNK_ROWS * MC_N / median(chunk) if chunk else None
    m["sampler.sample_matrix_self_s"] = med(per_cycle(sampler, own))
    probe_calls = spans("montecarlo.mc_error", "probe")
    m["montecarlo.reduce_self_s"] = med(own(s) for s in probe_calls)
    mc_calls = spans("montecarlo.mc_error", "mc")
    chunks = [sum(c.name == "sampler.make_rng" for c in descendants(s)) for s in mc_calls]
    m["montecarlo.chunks"] = count(c for c in chunks if c)
    m["montecarlo.thread_speedup"] = probe.get("speedup")
    m["montecarlo.threads_effective"] = count(
        len({c.thread for c in descendants(s)}) for s in mc_calls if descendants(s)
    )
    m["montecarlo.corr_matrix_s"] = med(s.duration for s in spans("montecarlo.mc_correlation_matrix", "mc"))

    pmfs = spans("oracle.exact_vote_pmf", "exact", detailed=True)
    for n in GEOMETRIC_NS:
        m[f"oracle.geometric_pmf_s.n{n}"] = med(s.duration for s in pmfs if s.info[:2] == ("geometric", n))
    m["oracle.subnormal_masses"] = count(per_cycle(pmfs, lambda s: s.info[2]))
    m["oracle.binomial_pmf_s"] = med(s.duration for s in spans("oracle.binomial_pmf", "exact") if s.info == BINOMIAL_N)
    m["oracle.brute_force_s"] = med(s.duration for s in spans("oracle.brute_force_error", "exact"))

    est = spans("analytic.estimated_error", "cli")
    m["analytic.estimated_error_us"] = med(s.duration * 1e6 for s in est)
    sweeps = spans("grid.sweep", "cli", detailed=True)
    m["grid.row_s"] = med(s.duration / s.info[1] for s in sweeps)
    m["grid.cells_per_s"] = med(s.info[0] / s.duration for s in sweeps)
    reads = spans("diagnose.read_prediction_csv", "cli", detailed=True)
    m["diagnose.read_csv_s"] = med(s.duration for s in reads)
    m["diagnose.read_csv_cells_per_s"] = med(s.info / s.duration for s in reads)
    m["diagnose.diagnose_s"] = med(s.duration for s in spans("diagnose.diagnose", "cli"))
    m["cli.interp_s"] = startup["interp_s"]
    m["cli.import_s"] = startup["import_s"]
    mains = spans("cli.main", "cli")
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}_self_s"] = med(own(s) for s in mains if s.info == sub.replace("_", "-"))
    m["trace.overhead_share"] = overhead_share

    missing = [name for name in PER_LAYER if m.get(name) is None]
    return {name: m[name] for name in PER_LAYER if m.get(name) is not None}, missing
