"""votephase benchmark: three workloads, end-to-end and per-layer figures.

    python3 perfbench/run.py --workload {mc,exact,cli} --seed N --seconds S --trace {0,1}

Run from anywhere; the benchmark imports votephase from ``src/`` of the
checkout it sits in and never from an installed copy. It uses the
standard library and numpy only.

One client runs the workload's cycle of operations in a closed loop,
starting the next operation when the previous one has returned. A run
is a fixed number of whole cycles, sized from ``--seconds`` and the
cycle's duration on the reference machine (``NOMINAL_CYCLE_S``), so it
takes about ``--seconds`` there (an exact run, held to ``MIN_CYCLES``,
takes longer). Fixing the work rather than the time keeps the sample
count, and with it the rank the tail figure is read at, the same from
run to run and from commit to commit; a much slower program takes
longer instead of measuring less. Every output is
checked; an exception, a non-zero exit or a wrong answer fails the
operation.

``--trace 0`` reports the end-to-end figures with tracing off.
``--trace 1`` wraps the layer boundaries in spans and reports the
per-layer figures. Traced and untraced cycles alternate, and the
difference between their median durations is the tracing overhead.
Every traced run also traces one cycle of the other two workloads (the
cli one in-process through ``votephase.cli.main``) and a 1-thread /
n-thread mc_error probe, so that each per-layer figure is present
whichever workload is named.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The lines before it
name every figure with its unit, including those that only one workload
has, and the run's provenance. A copy of everything goes to
``.bench_out/BENCH_<workload>_seed<seed>_trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import numpy

import checks
import layers
import workloads
from spans import Tracer
from stats import error_rate, median, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("mc", "exact", "cli")
MODULES = ("analytic", "cli", "diagnose", "grid", "model", "montecarlo", "oracle", "sampler")

# name -> unit, reported by every workload with tracing off.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mib": "MiB",
}

# Seconds one cycle takes on the reference machine: 2 cores of an Intel
# Xeon, Python 3.11, numpy 2.4. A run makes round(seconds / this) cycles.
# The speed of that machine drifts by up to 2x over tens of seconds, and
# a time limit would let the tail's rank jump between operation kinds.
NOMINAL_CYCLE_S = {"mc": 1.0, "exact": 5.5, "cli": 3.0}
# But at least this many cycles: the two slowest operation kinds then
# give 12 samples or more, so the tail figure (the 11th largest latency,
# see stats.tail) is read among them, where the heavy layers show. It
# makes an exact run longer than --seconds.
MIN_CYCLES = 6

# What "ready for the first operation" means in a fresh interpreter.
READY = {
    "mc": "from votephase import EnsembleConfig, Independent, Prior, RatePair\n"
    "EnsembleConfig(101, RatePair(0.6, 0.4), Prior(0.5), Independent())",
    "exact": "from votephase import EnsembleConfig, Geometric, Prior, RatePair\n"
    "EnsembleConfig(1001, RatePair(0.6, 0.4), Prior(0.5), Geometric(0.8))",
    "cli": "import votephase.cli\nvotephase.cli.build_parser()",
}
SETUP_CODE = """\
import time
t0 = time.monotonic()
import numpy, votephase
t1 = time.monotonic()
{ready}
print(t0, t1, time.monotonic())
"""
# Fresh interpreters timed per run, at least one after every cycle, so
# that the set-up figure samples the whole run rather than one moment of
# a machine whose speed drifts.
SETUP_SAMPLES = 24


class SetupError(Exception):
    """The benchmark cannot run here: no votephase sources, or a probe failed."""


class StartupProbe:
    """Times fresh interpreters from spawn to the first operation being ready.

    The parent and the child read the same system-wide monotonic clock.
    The first spawn is a warm-up that also fills the bytecode cache of a
    fresh checkout; it is not counted. The others run after each cycle of
    the loop, off its clock.
    """

    def __init__(self, workload: str, env: dict, cycles: int) -> None:
        self.code = SETUP_CODE.format(ready=READY[workload])
        self.env = env
        self.per_cycle = -(-SETUP_SAMPLES // cycles)
        self.samples: list = []
        self._spawn()

    def _spawn(self) -> tuple:
        spawned = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", self.code], cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60
        )
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()}")
        t0, t1, t2 = map(float, done.stdout.split())
        return t0 - spawned, t1 - t0, t2 - spawned

    def after_cycle(self) -> None:
        for _ in range(self.per_cycle):
            self.samples.append(self._spawn())

    def summary(self) -> dict:
        return {
            "interp_s": median([s[0] for s in self.samples]),
            "import_s": median([s[1] for s in self.samples]),
            "setup_s": median([s[2] for s in self.samples]),
            "spawns": len(self.samples),
        }


def run_op(op, tracer, ops: dict, where: tuple) -> tuple:
    """(latency, error or None) of one operation, checked."""
    if tracer is not None:
        ops[tracer.begin_op()] = where
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result = tracer.span("op." + op.kind, op.call) if tracer is not None else op.call()
    except Exception as exc:  # a failing operation is counted, not fatal
        return time.perf_counter() - t0, f"{op.kind}: {exc!r}"
    finally:
        if tracer is not None:
            tracer.active = False
    latency = time.perf_counter() - t0
    try:
        op.check(result)
    except checks.CheckFailed as exc:
        return latency, f"{op.kind}: {exc}"
    return latency, None


def cycles_for(workload: str, seconds: float) -> int:
    return max(MIN_CYCLES, round(seconds / NOMINAL_CYCLE_S[workload]))


def run_loop(wl, cycles: int, tracer=None, ops: dict = None, after=None) -> dict:
    """``cycles`` whole cycles; with a tracer, odd cycles are traced.
    ``after`` runs after each cycle, off the clock."""
    records = []  # (op, latency, error)
    cycle_s: dict = {False: [], True: []}
    for cycle in range(cycles):
        traced = tracer is not None and cycle % 2 == 1
        c0 = time.perf_counter()
        for op in wl.ops:
            latency, err = run_op(op, tracer if traced else None, ops, (wl.name, op.kind, cycle))
            records.append((op, latency, err))
        cycle_s[traced].append(time.perf_counter() - c0)
        if after is not None:
            after()
    busy = sum(cycle_s[False]) + sum(cycle_s[True])
    return {"records": records, "elapsed": busy, "cycles": cycles, "cycle_s": cycle_s}


def end_to_end(wl, loop: dict, startup: dict) -> tuple:
    """(gated metrics, workload-only metrics, tail detail)."""
    records = loop["records"]
    lat = [r[1] for r in records]
    t = tail(lat)
    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": startup["setup_s"],
        "ops_per_s": len(records) / loop["elapsed"],
        "op_p50_s": median(lat),
        "op_tail_s": t.value,
        "peak_rss_mib": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    only: dict = {}
    mc_ops = [r for r in records if r[0].reps]
    if mc_ops:
        only["mc_reps_per_s"] = (sum(r[0].reps for r in mc_ops) / sum(r[1] for r in mc_ops), "1/s")
    if wl.name == "cli":
        for op in wl.ops:
            only[f"{op.kind}_s"] = (median([r[1] for r in records if r[0] is op]), "s")
    return metrics, only, t


def provenance(args, nproc: int, counts: dict, extra: dict) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or f"unknown: {done.stderr.strip()}"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "VOTEPHASE_THREADS": os.environ.get("VOTEPHASE_THREADS"),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_kind": counts,
        **extra,
    }


def import_votephase() -> types.SimpleNamespace:
    if not (SRC / "votephase" / "__init__.py").is_file():
        raise SetupError(f"no votephase sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"votephase.{name}") for name in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "votephase":
        raise SetupError(f"imported votephase from {mods['cli'].__file__}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def build(name: str, vp, inputs, csv_path: Path, env: dict, in_process: bool):
    if name == "mc":
        return workloads.build_mc(vp, inputs)
    if name == "exact":
        return workloads.build_exact(vp, inputs)
    return workloads.build_cli(vp, inputs, csv_path, ROOT, env, in_process)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    nproc = len(os.sched_getaffinity(0))
    os.environ["VOTEPHASE_THREADS"] = str(nproc)
    os.environ["PYTHONPATH"] = str(SRC)
    env = dict(os.environ)
    csv_path = OUT_DIR / f"predictions_{os.getpid()}.csv"
    try:
        vp = import_votephase()
        OUT_DIR.mkdir(exist_ok=True)
        startup = StartupProbe(args.workload, env, cycles_for(args.workload, args.seconds))
        inputs = workloads.Inputs.from_seed(args.seed)
        # Only the cli layers read the CSV. Writing it in an mc or exact
        # process would set that process's memory peak, not the program.
        if args.trace or args.workload == "cli":
            workloads.write_prediction_csv(csv_path, inputs)
        if args.trace:
            result = traced_run(args, vp, inputs, csv_path, env, startup, nproc)
        else:
            result = untraced_run(args, vp, inputs, csv_path, env, startup, nproc)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        csv_path.unlink(missing_ok=True)

    (OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    for err in result["errors"][:5]:
        print(f"failed: {err}", file=sys.stderr)
    for line in result["lines"]:
        print(line)
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(json.dumps(result["final"]))
    return 0


def run_all(args) -> int:
    """Every workload at one seed, each in its own process so that memory
    peaks do not mix; the last line sums them up."""
    finals = {}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            return done.returncode
        *lines, last = done.stdout.splitlines()
        print("\n".join(lines))
        finals[name] = json.loads(last)
    print(
        json.dumps(
            {
                "correct": all(f["correct"] for f in finals.values()),
                "attempted": sum(f["attempted"] for f in finals.values()),
                "failed": sum(f["failed"] for f in finals.values()),
                "metrics": {f"{w}.{k}": v for w, f in finals.items() for k, v in f["metrics"].items()},
            }
        )
    )
    return 0


def _summary(loop: dict) -> tuple:
    records = loop["records"]
    errors = [r[2] for r in records if r[2]]
    counts = dict(collections.Counter(r[0].kind for r in records))
    return errors, counts


def _line(name: str, value: float, unit: str) -> str:
    return f"{name} = {value!r} {unit}"


def untraced_run(args, vp, inputs, csv_path, env, startup, nproc) -> dict:
    wl = build(args.workload, vp, inputs, csv_path, env, in_process=False)
    loop = run_loop(wl, cycles_for(wl.name, args.seconds), after=startup.after_cycle)
    startup = startup.summary()
    metrics, only, t = end_to_end(wl, loop, startup)
    errors, counts = _summary(loop)
    attempted, failed = len(loop["records"]), len(errors)
    lines = [f"workload {wl.name}: {loop['cycles']} cycles, {attempted} operations, {loop['elapsed']:.3f} s"]
    lines += [_line(name, metrics[name], unit) for name, unit in END_TO_END.items()]
    lines.append(f"op_tail_s is p{t.percentile:.2f} of {t.samples} samples, {t.beyond} beyond it")
    lines.append(_line("error_rate", error_rate(failed, attempted), f"({failed}/{attempted})"))
    lines += [_line(name, value, unit) for name, (value, unit) in only.items()]
    return {
        "lines": lines,
        "errors": errors,
        "metrics": {**metrics, **{k: v for k, (v, _) in only.items()}},
        "tail": vars(t),
        "error_rate": error_rate(failed, attempted),
        "provenance": provenance(args, nproc, counts, {"inputs": vars(inputs), "startup": startup}),
        "final": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
        },
    }


def traced_run(args, vp, inputs, csv_path, env, startup, nproc) -> dict:
    tracer = Tracer()
    for target, name, info in layers.TARGETS:
        tracer.wrap(target, name, info)
    ops: dict = {}
    loops = {}
    try:
        # The named workload first, for the run's length; the others for
        # one untraced and one traced cycle each.
        for name in sorted(WORKLOADS, key=lambda w: w != args.workload):
            wl = build(name, vp, inputs, csv_path, env, in_process=True)
            if name == args.workload:
                loops[name] = run_loop(wl, cycles_for(name, args.seconds), tracer, ops, startup.after_cycle)
            else:
                loops[name] = run_loop(wl, 2, tracer, ops)
        probe = layers.thread_probe(vp, tracer, inputs, nproc, ops)
    finally:
        tracer.restore()

    own = loops[args.workload]
    traced_cycle, plain_cycle = median(own["cycle_s"][True]), median(own["cycle_s"][False])
    overhead = {
        "traced_cycle_s": traced_cycle,
        "untraced_cycle_s": plain_cycle,
        "overhead_s": traced_cycle - plain_cycle,
        "overhead_share": (traced_cycle - plain_cycle) / plain_cycle,
        "spans": len(tracer.spans),
    }
    metrics, missing = layers.layer_metrics(tracer, ops, startup.summary(), probe, overhead["overhead_share"])
    errors, counts = [], {}
    for name, loop in loops.items():
        e, c = _summary(loop)
        errors += e
        counts[name] = c
    attempted = sum(len(loop["records"]) for loop in loops.values())
    failed = len(errors)
    lines = [f"traced workload {args.workload}: {own['cycles']} cycles, tracing overhead {overhead['overhead_s']:.4f} s per cycle"]
    lines += [_line(name, metrics[name], layers.PER_LAYER[name][0]) for name in metrics]
    lines.append(f"missing: {', '.join(missing) or 'none'}; unwrapped targets: {', '.join(tracer.missing) or 'none'}")
    lines.append(_line("error_rate", error_rate(failed, attempted), f"({failed}/{attempted})"))
    return {
        "lines": lines,
        "errors": errors,
        "metrics": metrics,
        "missing": missing,
        "provenance": provenance(args, nproc, counts, {"inputs": vars(inputs), "tracing_overhead": overhead}),
        "final": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": layers.PER_LAYER[name][0]} for name, v in metrics.items()},
        },
    }


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
