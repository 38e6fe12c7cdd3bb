"""Byte-exact CLI output for a fixed set of small invocations.

Each case runs ``votephase.cli.main`` in a directory holding the files
in FILES and compares the exit status, stdout, stderr and any ``--out``
file with ``cli_golden.json``. The set covers every subcommand in every
format under every model, plus ``--pmf``, ``--conditional``,
``--stream``, ``--dump-config``, ``--config`` with and without a flag
override, ``--out`` and the common error paths.

To regenerate the expected file after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("cli_golden.json")

ENSEMBLE = ["--n", "21", "--p", "0.65", "--q", "0.3", "--pi", "0.4"]
MODELS = {
    "independent": [],
    "geometric": ["--model", "geometric", "--gamma", "0.6"],
    "equicorrelated": ["--model", "equicorrelated", "--lambda", "0.3"],
}
GRID = ["--p-min", "0.2", "--p-max", "0.8", "--q-min", "0.2", "--q-max", "0.8", "--pi", "0.5"]
SIMULATE = [*ENSEMBLE, "--reps", "20000", "--seed", "7"]
# At p = 5e-324, lambda p (1 - p) and (1 - lambda) p (1 - p) both round to 0.
UNDERFLOW = ["--n", "1", "--pi", "0.5", "--model", "equicorrelated", "--lambda", "0.5"]

FILES = {
    "ensemble.json": json.dumps(
        {"n": 15, "p": 0.7, "q": 0.35, "pi": 0.45, "model": {"kind": "geometric", "gamma": 0.4}}
    ),
    "grid.json": json.dumps(
        {
            "p_min": 0.1, "p_max": 0.9, "q_min": 0.1, "q_max": 0.9, "resolution": [3, 5],
            "n": 11, "pi": 0.3, "model": {"kind": "equicorrelated", "lambda": 0.2},
        }
    ),
    "bad.json": "{not json",
    "list.json": "[1, 2]",
    "preds.csv": "y,f1,f2,f3\n"
    + "1,1,1,0\n1,1,0,1\n1,0,1,1\n1,1,1,1\n0,0,0,1\n0,0,1,0\n0,1,0,0\n0,0,0,0\n" * 3,
}


def _cases() -> dict:
    cases = {}
    for model, flags in MODELS.items():
        for fmt in ("json", "csv"):
            cases[f"analytic-{model}-{fmt}"] = ["analytic", *ENSEMBLE, *flags, "--format", fmt]
            cases[f"oracle-{model}-{fmt}"] = ["oracle", *ENSEMBLE, *flags, "--format", fmt]
            cases[f"oracle-pmf-{model}-{fmt}"] = [
                "oracle", "--n", "7", "--p", "0.65", "--q", "0.3", "--pi", "0.4",
                *flags, "--pmf", "--format", fmt,
            ]
            cases[f"simulate-{model}-{fmt}"] = ["simulate", *SIMULATE, *flags, "--format", fmt]
            cases[f"grid-{model}-{fmt}"] = [
                "phase-grid", *GRID, "--resolution", "3", "--n", "21", *flags, "--format", fmt,
            ]
    cases.update(
        {
            "grid-step-asymptotic": ["phase-grid", *GRID, "--step", "0.15"],
            "analytic-equicorrelated-underflow": [
                "analytic", "--p", "5e-324", "--q", "0.4", *UNDERFLOW,
            ],
            "grid-equicorrelated-underflow": [
                "phase-grid", "--p-min", "5e-324", "--p-max", "5e-324", "--q-min", "0.4",
                "--q-max", "0.4", "--resolution", "1", *UNDERFLOW,
            ],
            "grid-default-axes": ["phase-grid", "--pi", "0.35", "--resolution", "4"],
            "simulate-conditional-1-stream": [
                "simulate", *SIMULATE, "--conditional", "1", "--stream", "3", "--format", "csv",
            ],
            "simulate-conditional-0": ["simulate", *SIMULATE, "--conditional", "0"],
            "diagnose-text": ["diagnose", "--input", "preds.csv"],
            "diagnose-json-ordered": [
                "diagnose", "--input", "preds.csv", "--ordered", "--format", "json",
            ],
            "diagnose-text-pi": ["diagnose", "--input", "preds.csv", "--pi", "0.25", "--ordered"],
            "dump-analytic": ["analytic", *ENSEMBLE, *MODELS["geometric"], "--dump-config"],
            "dump-oracle": ["oracle", *ENSEMBLE, "--dump-config", "--format", "csv"],
            "dump-simulate": ["simulate", *SIMULATE, *MODELS["equicorrelated"], "--dump-config"],
            "dump-grid": ["phase-grid", *GRID, "--step", "0.2", "--dump-config"],
            "config-analytic": ["analytic", "--config", "ensemble.json"],
            "config-analytic-override": [
                "analytic", "--config", "ensemble.json", "--p", "0.8", "--gamma", "0.7",
                "--format", "csv",
            ],
            "config-oracle-model-switch": [
                "oracle", "--config", "ensemble.json", "--model", "independent", "--pmf",
            ],
            "config-simulate": [
                "simulate", "--config", "ensemble.json", "--reps", "5000", "--seed", "3",
            ],
            "config-grid": ["phase-grid", "--config", "grid.json"],
            "config-grid-override": [
                "phase-grid", "--config", "grid.json", "--resolution", "2", "--p-min", "0.3",
                "--n", "asymptotic", "--format", "json",
            ],
            "config-grid-dump": [
                "phase-grid", "--config", "grid.json", "--lambda", "0.4", "--dump-config",
            ],
            "out-grid-csv": ["phase-grid", *GRID, "--resolution", "2", "--out", "out.txt"],
            "out-analytic-json": ["analytic", *ENSEMBLE, "--out", "out.txt"],
            "out-diagnose-text": ["diagnose", "--input", "preds.csv", "--out", "out.txt"],
            "out-dump-config": ["oracle", *ENSEMBLE, "--dump-config", "--out", "out.txt"],
            "error-missing-parameters": ["analytic", "--n", "5", "--p", "0.7"],
            "error-rate-range": ["oracle", "--n", "5", "--p", "1.5", "--q", "0.3", "--pi", "0.5"],
            "error-invalid-json": ["analytic", "--config", "bad.json"],
            "error-config-not-object": ["phase-grid", "--config", "list.json"],
            "error-missing-config": ["simulate", "--config", "nope.json", "--seed", "1"],
            "error-model-flag": ["analytic", *ENSEMBLE, "--gamma", "0.5"],
            "error-step-and-resolution": [
                "phase-grid", "--pi", "0.5", "--step", "0.1", "--resolution", "3",
            ],
            "error-no-axis": ["phase-grid", "--pi", "0.5"],
            "error-grid-no-pi": ["phase-grid", "--resolution", "3"],
            "error-bad-n": ["phase-grid", "--pi", "0.5", "--resolution", "3", "--n", "maybe"],
            "error-step-span": ["phase-grid", *GRID, "--step", "0.25"],
            "error-no-seed": ["simulate", *ENSEMBLE],
            "error-bad-csv-header": ["diagnose", "--input", "bad.json"],
            "error-missing-csv": ["diagnose", "--input", "nope.csv"],
        }
    )
    return cases


CASES = _cases()


def _invoke(argv: list) -> dict:
    from votephase.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    result = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        result["out"] = path.read_bytes().decode() if path.exists() else None
    return result


def _in_fixture_dir(directory: Path, argv: list) -> dict:
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8", newline="")
    previous = Path.cwd()
    os.chdir(directory)
    try:
        return _invoke(argv)
    finally:
        os.chdir(previous)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, golden, tmp_path):
    assert _in_fixture_dir(tmp_path, CASES[name]) == golden[name]


def _reject_constant(token):
    raise ValueError(f"not valid JSON: {token}")


def test_json_outputs_are_strict_json(golden):
    # json.loads accepts NaN and Infinity, which are not JSON.
    parsed = set()
    for name, result in golden.items():
        for text in (result["stdout"], result.get("out")):
            if text and text.startswith("{"):
                json.loads(text, parse_constant=_reject_constant)
                parsed.add(name)
    asked = {name for name, argv in CASES.items() if "json" in argv or "--dump-config" in argv}
    assert asked <= parsed


if __name__ == "__main__":
    import tempfile

    results = {}
    for name, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as directory:
            results[name] = _in_fixture_dir(Path(directory), argv)
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
