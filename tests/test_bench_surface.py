"""The benchmark in perfbench/ must still find everything it uses.

The benchmark lists a traced function that has vanished as "missing"
rather than failing, so a refactor could silently drop a per-layer
metric. These tests resolve every name the benchmark takes from
votephase and run the benchmark's own unit tests.
"""

import ast
import contextlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SOURCES = ("workloads.py", "layers.py", "run.py")

sys.path.insert(0, str(PERFBENCH))
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from votephase import (  # noqa: E402
    EnsembleConfig,
    Equicorrelated,
    Geometric,
    Independent,
    Prior,
    RatePair,
    RngSeed,
    cli,
    montecarlo,
    oracle,
)


def _resolve(dotted: str):
    """getattr along ``dotted``, importing the longest module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def _dotted(node) -> str:
    """``a.b.c`` for a chain of attributes on a name, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return f"{head}.{node.attr}" if head else ""
    return ""


def _used_names(source: str) -> set:
    """Dotted votephase names that benchmark code uses.

    Covers ``from votephase[.mod] import name``, attribute chains on
    ``votephase`` or on the package handle ``vp``, chains on a name
    bound from ``vp.<mod>``, and code held in string constants (the
    set-up probes that run in a fresh interpreter).
    """
    tree = ast.parse(source)
    names, aliases = set(), {"vp": "votephase", "votephase": "votephase"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("votephase"):
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Constant) and "votephase" in str(node.value):
            try:
                names |= _used_names(node.value)
            except SyntaxError:
                pass
        elif isinstance(node, ast.Assign):
            target = node.targets[0]
            targets = target.elts if isinstance(target, ast.Tuple) else [target]
            values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
            for t, v in zip(targets, values):
                if isinstance(t, ast.Name) and _dotted(v).startswith("vp."):
                    aliases[t.id] = "votephase" + _dotted(v)[2:]
    for node in ast.walk(tree):
        root, _, rest = _dotted(node).partition(".")
        if rest and root in aliases:
            names.add(f"{aliases[root]}.{rest}")
    return names


@pytest.mark.parametrize("target", [t[0] for t in layers.TARGETS])
def test_traced_target_resolves(target):
    assert callable(_resolve(target))


def test_names_taken_from_votephase_resolve():
    names = set().union(*(_used_names((PERFBENCH / f).read_text()) for f in SOURCES))
    names.update(f"votephase.{module}" for module in run.MODULES)
    # a parse that found nothing would make this test vacuous
    assert {
        "votephase.EnsembleConfig",
        "votephase.cli.build_parser",
        "votephase.cli.main",
        "votephase.montecarlo.mc_error",
        "votephase.oracle.exact_vote_pmf",
    } <= names
    for name in sorted(names):
        _resolve(name)


def _recorded(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that records (args, kwargs, result)."""
    calls = []
    original = getattr(module, name)

    def record(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, name, record)
    return calls


@pytest.mark.parametrize(
    "model",
    [Independent(), Geometric(workloads.GAMMA), Equicorrelated(workloads.LAM)],
    ids=lambda m: m.kind,
)
def test_one_mc_chunk_makes_the_spans_the_sampler_metrics_read(model, monkeypatch):
    # layers.layer_metrics takes sampler.votes_per_s.* from sample_matrix
    # calls whose recorded detail is (model kind, (CHUNK_ROWS, MC_N)), and
    # montecarlo.chunks from make_rng calls under mc_error
    rngs = _recorded(monkeypatch, montecarlo, "make_rng")
    samples = _recorded(monkeypatch, montecarlo, "sample_matrix")
    cfg = EnsembleConfig(workloads.MC_N, RatePair(0.6, 0.4), Prior(workloads.PI), model)
    montecarlo.mc_error(cfg, layers.CHUNK_ROWS, RngSeed(seed=1))
    assert len(rngs) == 1
    [(args, kwargs, votes)] = samples
    shape = (layers.CHUNK_ROWS, workloads.MC_N)
    assert votes.shape == shape
    detail = dict((t[0], t[2]) for t in layers.TARGETS)["votephase.montecarlo.sample_matrix"]
    assert detail(args, kwargs, votes) == (model.kind, shape)


def test_every_traced_span_is_reached(tmp_path, monkeypatch):
    # A traced run reads each span name in layers.TARGETS from calls that
    # go through the patched module global. A layer that binds its callee
    # some other way (an import inside a function, say) is never seen, and
    # its per-layer figure goes missing. Record every target, make the
    # calls the three workloads make at small sizes, and check that each
    # span name is reached and its detail can be computed.
    recorded = {}
    for target, span, detail in layers.TARGETS:
        module, _, name = target.rpartition(".")
        calls = _recorded(monkeypatch, importlib.import_module(module), name)
        recorded[target] = (span, detail, calls)
    rates, prior = RatePair(0.6, 0.4), Prior(workloads.PI)

    # exact: layer_metrics keys the geometric pmf and binomial figures on
    # the detail of the pmfs that exact_error itself computes
    for model in (Geometric(workloads.GAMMA), Independent(), Equicorrelated(workloads.LAM)):
        oracle.exact_error(EnsembleConfig(21, rates, prior, model))
    _, pmf_detail, pmfs = recorded["votephase.oracle.exact_vote_pmf"]
    assert {pmf_detail(*call)[:2] for call in pmfs} == {
        ("geometric", 21),
        ("independent", 21),
        ("equicorrelated", 21),
    }
    # oracle.binomial_pmf_s takes a sample from each binomial-backed pmf
    _, binomial_detail, binomials = recorded["votephase.oracle.binomial_pmf"]
    assert [binomial_detail(*call) for call in binomials] == [21, 21, 21, 21]
    oracle.brute_force_error(EnsembleConfig(5, rates, prior, Geometric(workloads.GAMMA)))

    # mc: the correlation matrix is called directly; mc_error comes from simulate
    montecarlo.mc_correlation_matrix(Geometric(0.5), 4, 0.6, 10_000, RngSeed(seed=1))

    # cli: the five subcommands in-process, as a traced cli cycle runs them
    csv_path = tmp_path / "preds.csv"
    csv_path.write_bytes(b"y,f1,f2\n1,1,0\n0,0,1\n1,1,1\n0,0,0\n")
    ensemble = [
        "--n", "9", "--p", "0.6", "--q", "0.4", "--pi", "0.5",
        "--model", "geometric", "--gamma", repr(workloads.GAMMA),
    ]
    simulate = ["simulate", *ensemble, "--reps", "1000", "--seed", "1"]
    argvs = [
        ["analytic", *ensemble],
        ["oracle", "--pmf", *ensemble],
        simulate,
        [*simulate, "--conditional", "1"],
        ["phase-grid", "--resolution", "2", "--n", "9", "--pi", "0.5"],
        ["diagnose", "--ordered", "--input", str(csv_path)],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            assert cli.main(argv) == 0, argv

    # Counted per span name: grid.estimated_error and
    # analytic.estimated_error share one, and the cli reaches only grid's.
    reached: dict = {}
    for span, detail, calls in recorded.values():
        reached[span] = reached.get(span, 0) + len(calls)
        if detail is not None:
            for call in calls:
                detail(*call)
    assert [span for span, count in reached.items() if not count] == []


def test_benchmark_csv_takes_the_bulk_parser(tmp_path, monkeypatch):
    # diagnose.read_csv_s times cli.read_prediction_csv on the file that
    # write_prediction_csv makes; it must not reach the line-by-line parser
    def refuse(fh):
        raise AssertionError("line-by-line CSV parser called")

    monkeypatch.setattr(importlib.import_module("votephase.diagnose"), "_parse_csv", refuse)
    small = tmp_path / "small.csv"
    small.write_bytes(b"y,f1,f2\n1,1,0\n0,0,1\n")
    bench = tmp_path / "bench.csv"
    workloads.write_prediction_csv(bench, workloads.Inputs.from_seed(5))
    assert cli.read_prediction_csv(str(small)).votes.tolist() == [[1, 0], [0, 1]]
    matrix = cli.read_prediction_csv(str(bench))
    assert matrix.votes.shape == (workloads.CSV_ROWS, workloads.MC_N)


def test_perfbench_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", str(PERFBENCH)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
