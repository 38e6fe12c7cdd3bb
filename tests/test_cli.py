import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from votephase import analytic, montecarlo, oracle
from votephase.cli import main
from votephase.diagnose import read_prediction_csv
from votephase.grid import GridRow
from votephase.model import (
    ASYMPTOTIC,
    GRID_CELL_GUARD,
    EnsembleConfig,
    Equicorrelated,
    Geometric,
    GridSpec,
    Independent,
    Prior,
    RatePair,
)
from votephase.sampler import RngSeed

from reference import parse_outcome

GRID_CSV_HEADER = ",".join(f.name for f in dataclasses.fields(GridRow))
BASE = ["--n", "15", "--p", "0.7", "--q", "0.3", "--pi", "0.5"]
# a valid value for each config key, other than BASE's and phase-grid's defaults
_OTHER_VALUES = {
    "n": 21,
    "p": 0.8,
    "q": 0.2,
    "pi": 0.4,
    "p_min": 0.2,
    "p_max": 0.8,
    "q_min": 0.1,
    "q_max": 0.6,
    "resolution": 5,
}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalytic:
    def test_json_matches_library(self, capsys):
        code, out, _ = _run(capsys, ["analytic", *BASE])
        assert code == 0
        payload = json.loads(out)
        cfg = EnsembleConfig(n=15, rates=RatePair(p=0.7, q=0.3), prior=Prior(pi=0.5))
        assert payload["err"] == analytic.mean_individual_error(cfg.rates, cfg.prior)
        assert payload["err_hat"] == analytic.estimated_error(cfg)
        assert payload["delta_n"] == payload["err_hat"] - payload["err"]
        assert payload["phase"] == "-"
        assert payload["abusive"] is False
        assert payload["sigma_sq"]["p"] == pytest.approx(0.21)
        assert payload["region"]["p_side"] == ">1/2"
        assert payload["region"]["table_delta_inf"] == payload["delta_inf"]

    def test_csv_format(self, capsys):
        code, out, _ = _run(capsys, ["analytic", *BASE, "--format", "csv"])
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "err,err_hat,delta_n,delta_inf,phase,abusive"
        cells = row.split(",")
        assert cells[0] == "0.3"
        assert cells[4] == "-" and cells[5] == "false"

    def test_equicorrelated_flags(self, capsys):
        code, out, _ = _run(
            capsys,
            ["analytic", *BASE, "--model", "equicorrelated", "--lambda", "0.2"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["abusive"] is True
        assert payload["sigma_sq"]["p"] == "infinite"
        assert payload["config"]["model"] == {"kind": "equicorrelated", "lambda": 0.2}

    def test_dump_config_round_trips(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys,
            ["analytic", *BASE, "--model", "geometric", "--gamma", "0.6", "--dump-config"],
        )
        assert code == 0
        assert json.loads(out) == EnsembleConfig(
            n=15,
            rates=RatePair(p=0.7, q=0.3),
            prior=Prior(pi=0.5),
            model=Geometric(gamma=0.6),
        ).to_dict()
        path = tmp_path / "config.json"
        path.write_text(out)
        assert _run(capsys, ["analytic", "--config", str(path), "--dump-config"]) == (0, out, "")


_RATES = st.one_of(st.just(0.5), st.floats(min_value=0.01, max_value=0.99))
_MODEL_FLAGS = st.one_of(
    st.just([]),
    st.builds(lambda g: ["--model", "geometric", "--gamma", repr(g)], _RATES),
    st.builds(lambda lam: ["--model", "equicorrelated", "--lambda", repr(lam)], _RATES),
)


class TestAnalyticIsOneGridRow:
    @given(p=_RATES, q=_RATES, pi=_RATES, n=st.integers(1, 10**9), model=_MODEL_FLAGS)
    @settings(max_examples=150, deadline=None)
    def test_csv_row_equals_one_point_phase_grid(self, p, q, pi, n, model):
        shared = ["--pi", repr(pi), "--n", str(n), *model, "--format", "csv"]
        code, out, _ = _run_quiet(["analytic", "--p", repr(p), "--q", repr(q), *shared])
        axes = ["--p-min", repr(p), "--p-max", repr(p), "--q-min", repr(q), "--q-max", repr(q)]
        grid_code, grid_out, _ = _run_quiet(["phase-grid", *axes, "--resolution", "1", *shared])
        assert code == grid_code == 0
        (header, row), (grid_header, grid_row) = out.splitlines(), grid_out.splitlines()
        assert grid_header.split(",") == ["p", "q", *header.split(",")]
        assert grid_row.split(",") == [format(p, ".9g"), format(q, ".9g"), *row.split(",")]


class _NoArrays:
    """Stands in for numpy where no array may be allocated."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} reached past a size guard")


_RATE_FLAGS = ["--p", "0.6", "--q", "0.4", "--pi", "0.5"]


class TestHugeN:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analytic", "--n", str(10**400), *_RATE_FLAGS],
            ["phase-grid", "--n", str(10**400), "--resolution", "3", "--pi", "0.5"],
            ["analytic", "--n", str(10**200), *_RATE_FLAGS, "--model", "equicorrelated",
             "--lambda", "0.3"],
            ["oracle", "--n", str(10**19), *_RATE_FLAGS],
            ["oracle", "--n", str(10**8), *_RATE_FLAGS],
        ],
        ids=["analytic-1e400", "phase-grid-1e400", "equicorrelated-1e200", "oracle-1e19",
             "oracle-binomial-1e8"],
    )
    def test_typed_error(self, argv, monkeypatch):
        monkeypatch.setattr(oracle, "np", _NoArrays())
        code, out, err = _run_quiet(argv)
        assert code == 1 and out == ""
        assert err.startswith("votephase: error: ") and err.count("\n") == 1

    def test_largest_exact_n_runs(self):
        code, out, err = _run_quiet(["analytic", "--n", str(2**53), *_RATE_FLAGS])
        assert code == 0 and err == ""
        assert json.loads(out)["config"]["n"] == 2**53


class TestConfigMerging:
    def test_flags_override_file(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 7, "p": 0.6, "q": 0.4, "pi": 0.5}))
        code, out, _ = _run(
            capsys, ["analytic", "--config", str(path), "--p", "0.9", "--dump-config"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == 0.9 and payload["n"] == 7

    def test_param_flag_reuses_file_model_kind(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "n": 7,
                    "p": 0.6,
                    "q": 0.4,
                    "pi": 0.5,
                    "model": {"kind": "geometric", "gamma": 0.2},
                }
            )
        )
        code, out, _ = _run(
            capsys, ["analytic", "--config", str(path), "--gamma", "0.8", "--dump-config"]
        )
        assert code == 0
        assert json.loads(out)["model"] == {"kind": "geometric", "gamma": 0.8}

    def test_model_param_without_kind_rejected(self, capsys):
        code, _, err = _run(capsys, ["analytic", *BASE, "--gamma", "0.5"])
        assert code == 1 and "--model" in err

    def test_mismatched_model_param_rejected(self, capsys):
        code, _, err = _run(
            capsys, ["analytic", *BASE, "--model", "independent", "--gamma", "0.5"]
        )
        assert code == 1 and "--gamma" in err and "independent" in err

    def test_missing_parameters_rejected(self, capsys):
        code, _, err = _run(capsys, ["analytic", "--n", "5", "--p", "0.7"])
        assert code == 1 and "q" in err and "pi" in err

    def test_invalid_json_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        code, _, err = _run(capsys, ["analytic", "--config", str(path)])
        assert code == 1 and "invalid JSON" in err

    def test_config_integer_past_the_digit_limit(self, capsys, tmp_path):
        # Python refuses to convert an int literal of more than 4300 digits
        path = tmp_path / "cfg.json"
        path.write_text('{"n": ' + "9" * 5000 + "}")
        code, out, err = _run(capsys, ["analytic", "--config", str(path)])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("votephase: error:")
        assert "invalid JSON" in err

    def test_missing_config_file_is_io_error(self, capsys, tmp_path):
        code, _, _ = _run(capsys, ["analytic", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_out_of_range_rate_rejected(self, capsys):
        code, _, err = _run(
            capsys, ["analytic", "--n", "5", "--p", "1.5", "--q", "0.3", "--pi", "0.5"]
        )
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("subcommand", ["oracle", "phase-grid"])
    @pytest.mark.parametrize(
        "model",
        [
            {"kind": "independent", "gamma": 0.9},
            {"kind": "geometric", "gamma": 0.9, "lambda": 0.3},
            {"kind": "independent", "heterogeneity": 5.0},
        ],
    )
    def test_stray_model_key_in_config_rejected(self, capsys, tmp_path, subcommand, model):
        config = {"pi": 0.5, "model": model}
        config.update({"n": 15, "p": 0.7, "q": 0.3} if subcommand == "oracle" else {"resolution": 3})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out, err = _run(capsys, [subcommand, "--config", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("votephase: error: ") and err.count("\n") == 1
        assert "takes no" in err

    @pytest.mark.parametrize("model", [{"kind": ["geometric"]}, 5, "geometric"])
    def test_malformed_config_model_with_flag_rejected(self, capsys, tmp_path, model):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 15, "p": 0.7, "q": 0.3, "pi": 0.5, "model": model}))
        code, out, err = _run(capsys, ["analytic", "--config", str(path), "--gamma", "0.5"])
        assert code == 1 and out == ""
        assert err.startswith("votephase: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("subcommand", ["analytic", "phase-grid"])
    def test_null_config_model_is_not_read_as_independent(self, capsys, tmp_path, subcommand):
        config = {"pi": 0.5, "model": None}
        config.update({"n": 11, "p": 0.6, "q": 0.4} if subcommand == "analytic" else {"resolution": 3})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [subcommand, "--config", str(path), "--dump-config"]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert err == "votephase: error: correlation model must be a dict with 'kind', got None\n"
        # --model replaces a null file model, as it replaces one of another kind
        code, out, _ = _run(capsys, [*argv, "--model", "geometric", "--gamma", "0.5"])
        assert code == 0
        assert json.loads(out)["model"] == {"kind": "geometric", "gamma": 0.5}

    def test_removed_flag_is_one_line_usage_error(self, capsys):
        code, out, err = _run(
            capsys, ["analytic", *BASE, "--model", "independent", "--beta-concentration", "5"]
        )
        assert code == 1 and out == ""
        assert err.startswith("votephase: error: ") and err.count("\n") == 1
        assert "--beta-concentration" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["analytic", *BASE, "--model", "equicorrelated", "--lam", "0.3"], "--lam"),
            (["analytic", *BASE, "--model", "geometric", "--gam", "0.3"], "--gam"),
            (["oracle", *BASE, "--dump"], "--dump"),
            (["simulate", *BASE, "--seed", "1", "--cond", "1"], "--cond"),
            (["simulate", *BASE, "--seed", "1", "--threads", "2"], "--threads"),
        ],
        ids=["lam", "gam", "dump", "cond", "threads"],
    )
    def test_flag_prefix_is_one_line_usage_error(self, capsys, argv, flag):
        # flags, like config keys, must be spelled in full
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("votephase: error: ") and err.count("\n") == 1
        assert flag in err

    @pytest.mark.parametrize("subcommand", ["analytic", "phase-grid"])
    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"pi": 0.5, "note": "\xff"}', "config is not UTF-8 text"),
            (b"[" * 100_000, "invalid JSON"),
        ],
        ids=["non-utf8", "deeply-nested"],
    )
    def test_unreadable_config_is_one_line_error(self, capsys, tmp_path, subcommand, data, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(data)
        code, out, err = _run(capsys, [subcommand, "--config", str(path)])
        assert code == 1 and out == ""
        assert err.startswith(f"votephase: error: {path}: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("subcommand", ["analytic", "phase-grid"])
    def test_config_byte_order_mark_is_dropped(self, capsys, tmp_path, subcommand):
        config = {"pi": 0.5, "model": {"kind": "geometric", "gamma": 0.5}}
        config.update({"n": 11, "p": 0.6, "q": 0.4} if subcommand == "analytic" else {"resolution": 3})
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_text(json.dumps(config))
        marked.write_bytes(b"\xef\xbb\xbf" + json.dumps(config).encode())
        results = [_run(capsys, [subcommand, "--config", str(path)]) for path in (plain, marked)]
        assert results[0][0] == 0 and results[1] == results[0]

    @pytest.mark.parametrize(
        "subcommand, extra",
        [
            ("simulate", {"reps": 10}),
            ("phase-grid", {"step": 0.49}),
            ("analytic", {"format": "csv"}),
            ("phase-grid", {"gama": 0.5}),
            ("oracle", {"gama": 0.5, "pmf": True}),
        ],
        ids=["reps", "step", "format", "typo", "two-keys"],
    )
    def test_unknown_config_key_rejected(self, capsys, tmp_path, subcommand, extra):
        if subcommand == "phase-grid":
            config = {"pi": 0.5, "resolution": 3}
        else:
            config = {"n": 15, "p": 0.7, "q": 0.3, "pi": 0.5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, **extra}))
        argv = [subcommand, "--config", str(path)]
        if subcommand == "simulate":
            argv += ["--seed", "1"]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("votephase: error: ") and err.count("\n") == 1
        assert "unknown config keys" in err and all(repr(key) in err for key in extra)

    @pytest.mark.parametrize(
        "subcommand, spec_flags, run_flags",
        [
            ("analytic", BASE, []),
            ("oracle", BASE, []),
            ("simulate", BASE, ["--seed", "1"]),
            ("phase-grid", ["--pi", "0.5", "--resolution", "3"], []),
        ],
    )
    def test_every_config_key_is_a_flag(self, capsys, tmp_path, subcommand, spec_flags, run_flags):
        code, dumped, _ = _run(capsys, [subcommand, *spec_flags, *run_flags, "--dump-config"])
        assert code == 0
        path = tmp_path / "cfg.json"
        path.write_text(dumped)
        config = json.loads(dumped)
        for key in sorted(set(config) - {"model"}):
            value = _OTHER_VALUES[key]
            assert config[key] != value
            flag = f"--{key.replace('_', '-')}"
            argv = [subcommand, "--config", str(path), flag, str(value), *run_flags]
            code, out, err = _run(capsys, [*argv, "--dump-config"])
            assert (code, err) == (0, ""), argv
            assert json.loads(out) == {**config, key: value}, argv

    @pytest.mark.parametrize(
        "subcommand, spec_flags, run_flags",
        [
            ("analytic", [*BASE, "--model", "geometric", "--gamma", "0.6"], ["--format", "csv"]),
            ("oracle", [*BASE, "--model", "equicorrelated", "--lambda", "0.3"], ["--pmf"]),
            ("simulate", BASE, ["--reps", "1000", "--seed", "5", "--conditional", "1"]),
            (
                "phase-grid",
                ["--pi", "0.4", "--p-min", "0.2", "--p-max", "0.8", "--q-min", "0.2",
                 "--q-max", "0.6", "--step", "0.2"],
                ["--format", "json"],
            ),
        ],
    )
    def test_dump_config_is_a_valid_config(
        self, capsys, tmp_path, subcommand, spec_flags, run_flags
    ):
        # --dump-config ignores the run flags; simulate requires --seed
        code, dumped, _ = _run(capsys, [subcommand, *spec_flags, *run_flags, "--dump-config"])
        assert code == 0
        path = tmp_path / "cfg.json"
        path.write_text(dumped)
        again = _run(capsys, [subcommand, "--config", str(path), *run_flags, "--dump-config"])
        assert again == (0, dumped, "")
        direct = _run(capsys, [subcommand, *spec_flags, *run_flags])
        assert direct[0] == 0
        assert _run(capsys, [subcommand, "--config", str(path), *run_flags]) == direct


class TestOracle:
    def test_exact_error_matches_library(self, capsys):
        code, out, _ = _run(capsys, ["oracle", *BASE])
        assert code == 0
        cfg = EnsembleConfig(n=15, rates=RatePair(p=0.7, q=0.3), prior=Prior(pi=0.5))
        assert json.loads(out)["err_exact"] == oracle.exact_error(cfg)

    def test_pmf_payload(self, capsys):
        code, out, _ = _run(capsys, ["oracle", *BASE, "--pmf"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["pmf_class1"]) == 16
        assert sum(payload["pmf_class1"]) == pytest.approx(1.0, abs=1e-12)
        assert sum(payload["pmf_class0"]) == pytest.approx(1.0, abs=1e-12)

    def test_pmf_csv(self, capsys):
        code, out, _ = _run(
            capsys, ["oracle", "--n", "2", "--p", "0.7", "--q", "0.3", "--pi", "0.5",
                     "--pmf", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,mass_class1,mass_class0"
        assert len(lines) == 5 and lines[-1].startswith("err_exact,")
        assert lines[1].split(",")[1] == "0.09"

    def test_identical_across_runs_and_cpu_counts(self, capsys, tmp_path, monkeypatch):
        # n = 10001 is above GEOMETRIC_THREAD_MIN_N, so 8 CPUs take the threaded path
        args = ["oracle", "--n", "10001", "--p", "0.6", "--q", "0.4", "--pi", "0.5",
                "--model", "geometric", "--gamma", "0.8", "--pmf"]
        paths = [tmp_path / f"run{i}.json" for i in range(3)]
        for path, cpus in zip(paths, (1, 1, 8)):
            monkeypatch.setattr("votephase.model._cpus", lambda: cpus)
            assert main([*args, "--out", str(path)]) == 0
        capsys.readouterr()
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]


class TestSimulate:
    ARGS = ["simulate", *BASE, "--reps", "20000", "--seed", "42"]

    def test_seed_required(self, capsys):
        code, _, err = _run(capsys, ["simulate", *BASE, "--reps", "1000"])
        assert code == 1 and "--seed" in err

    def test_matches_library_call(self, capsys):
        code, out, _ = _run(capsys, self.ARGS)
        assert code == 0
        payload = json.loads(out)
        cfg = EnsembleConfig(n=15, rates=RatePair(p=0.7, q=0.3), prior=Prior(pi=0.5))
        twin = montecarlo.mc_error(cfg, 20000, RngSeed(seed=42))
        assert payload["estimate"]["value"] == twin.value
        assert payload["estimate"]["seed"] == 42
        assert payload["estimate"]["stream"] == 0

    def test_identical_across_runs_and_threads(self, capsys, tmp_path, monkeypatch):
        paths = [tmp_path / f"run{i}.json" for i in range(3)]
        for path, cpus in zip(paths, (1, 1, 8)):
            monkeypatch.setattr("votephase.model._cpus", lambda: cpus)
            assert main([*self.ARGS, "--out", str(path)]) == 0
        capsys.readouterr()
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_conditional_csv(self, capsys):
        code, out, _ = _run(
            capsys,
            ["simulate", *BASE, "--reps", "10000", "--seed", "7", "--stream", "3",
             "--conditional", "1", "--format", "csv"],
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "value,std_error,reps,seed,stream"
        assert row.endswith(",10000,7,3")

    def test_giant_n_refused_before_any_draw(self, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("sampled past the size guard")

        monkeypatch.setattr(montecarlo, "sample_matrix", no_draw)
        code, out, err = _run(
            capsys,
            ["simulate", "--n", "1000000000", "--p", "0.6", "--q", "0.4",
             "--pi", "0.5", "--reps", "100", "--seed", "1"],
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("votephase: error:")
        assert str(montecarlo.MC_SIZE_GUARD) in err

    def test_giant_reps_refused_before_any_draw(self, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("sampled past the reps guard")

        monkeypatch.setattr(montecarlo, "sample_matrix", no_draw)
        code, out, err = _run(
            capsys,
            ["simulate", "--n", "11", "--p", "0.6", "--q", "0.4", "--pi", "0.5",
             "--reps", str(10**18), "--seed", "1"],
        )
        assert code == 1 and out == ""
        assert err == (
            "votephase: error: Monte Carlo reps=a 60-bit integer exceeds guard "
            f"{montecarlo.MC_REPS_GUARD}\n"
        )


    @pytest.mark.parametrize(
        "reps, start",
        [("9" * 4000, "Monte Carlo reps=a 13288-bit integer exceeds guard "),
         ("-" + "9" * 4000, "reps must be >= 100, got a negative 13288-bit integer")],
        ids=["positive", "negative"],
    )
    def test_reps_of_4000_digits_is_one_short_line(self, capsys, reps, start):
        code, out, err = _run(
            capsys,
            ["simulate", "--n", "11", "--p", "0.6", "--q", "0.4", "--pi", "0.5",
             "--reps", reps, "--seed", "1"],
        )
        assert code == 1 and out == ""
        assert err.startswith(f"votephase: error: {start}")
        assert err.count("\n") == 1 and len(err) < 200


class TestEquicorrelatedUnderflow:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analytic", "--n", "11", "--p", "0.6", "--q", "0.4", "--lambda", "5e-324"],
            ["analytic", "--n", "11", "--p", "1e-300", "--q", "0.4", "--lambda", "1e-30"],
            ["phase-grid", "--resolution", "3", "--lambda", "5e-324"],
        ],
        ids=["analytic-lambda-5e-324", "analytic-p-1e-300", "phase-grid-lambda-5e-324"],
    )
    def test_delta_inf_is_the_limit(self, capsys, argv):
        # lam r (1 - r) underflows to 0 for at least one class here
        code, out, err = _run(
            capsys, [*argv, "--pi", "0.5", "--model", "equicorrelated", "--format", "json"]
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        rows = payload["rows"] if "rows" in payload else [{**payload, **payload["config"]}]
        for row in rows:
            limit = analytic.limiting_delta(RatePair(p=row["p"], q=row["q"]), Prior(pi=0.5))
            assert row["delta_inf"] == limit.delta_inf


class TestPhaseGrid:
    def test_step_grid_csv(self, capsys):
        code, out, _ = _run(
            capsys,
            ["phase-grid", "--p-min", "0.1", "--p-max", "0.9", "--q-min", "0.1",
             "--q-max", "0.9", "--step", "0.1", "--pi", "0.5"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == GRID_CSV_HEADER
        assert len(lines) == 1 + 81
        assert lines[1].startswith("0.1,0.1,")

    def test_resolution_json_matches_sweep_size(self, capsys):
        code, out, _ = _run(
            capsys,
            ["phase-grid", "--resolution", "5", "--pi", "0.3", "--n", "25",
             "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 25
        assert payload["spec"]["n"] == 25

    _WHOLE_SQUARE = ["--p-min", "0.01", "--p-max", "0.99", "--q-min", "0.01", "--q-max", "0.99"]

    @pytest.mark.parametrize(
        "config, flags",
        [
            (None, ["--pi", "0.5", "--resolution", "5", "--step", "0.1"]),
            ({"pi": 0.5, "resolution": 3}, [*_WHOLE_SQUARE, "--step", "0.14", "--dump-config"]),
            ("step-dump", ["--step", "0.14"]),
        ],
        ids=["flag", "config-file", "step-dump"],
    )
    def test_step_and_resolution_conflict(self, capsys, tmp_path, config, flags):
        # A resolution in the config file conflicts with --step as the flag
        # does, and the dump of a --step run already holds one.
        path = tmp_path / "cfg.json"
        if config == "step-dump":
            code, dumped, _ = _run(capsys, ["phase-grid", "--pi", "0.5", *flags, "--dump-config"])
            assert code == 0 and "resolution" in json.loads(dumped)
            path.write_text(dumped)
        elif config is not None:
            path.write_text(json.dumps(config))
        argv = ["phase-grid", *(["--config", str(path)] if config else []), *flags]
        code, out, err = _run(capsys, argv)
        assert (code, out, err) == (
            1, "", "votephase: error: --step and --resolution are mutually exclusive\n"
        )

    @pytest.mark.parametrize(
        "axes, step, n, model",
        [
            ((0.01, 0.99, 0.01, 0.99), "0.01", ASYMPTOTIC, Independent()),
            ((0.2, 0.4, 0.1, 0.9), "0.1", 10, Independent()),
            ((0.1, 0.9, 0.5, 0.5), "0.2", ASYMPTOTIC, Geometric(gamma=0.8)),
            ((0.05, 0.95, 0.25, 0.75), "0.05", 51, Equicorrelated(lam=0.3)),
        ],
        ids=["99x99", "3x9", "5x1", "19x11"],
    )
    def test_step_dump_matches_from_step(self, capsys, axes, step, n, model):
        argv = ["phase-grid", "--pi", "0.4", "--n", str(n), "--step", step]
        for flag, value in zip(["--p-min", "--p-max", "--q-min", "--q-max"], axes):
            argv += [flag, str(value)]
        for key, value in model.to_dict().items():
            argv += ["--model" if key == "kind" else f"--{key}", str(value)]
        code, out, err = _run(capsys, [*argv, "--dump-config"])
        assert (code, err) == (0, "")
        spec = GridSpec.from_step(*axes, float(step), n, Prior(pi=0.4), model)
        assert json.loads(out) == spec.to_dict()

    _REVERSED = ["--p-min", "0.6", "--p-max", "0.4", "--q-min", "0.1", "--q-max", "0.9"]

    @pytest.mark.parametrize(
        "axes, message",
        [
            ([*_REVERSED, "--step", "0.1"], "p-axis requires min < max, got [0.6, 0.4]"),
            ([*_REVERSED, "--resolution", "3"], "p-axis requires min < max, got [0.6, 0.4]"),
            (["--p-min", "1.5", "--step", "0.01"], "p_min must lie strictly inside (0, 1), got 1.5"),
            (["--p-min", "1.5", "--resolution", "3"], "p_min must lie strictly inside (0, 1), got 1.5"),
            (["--step", "0"], "step must be positive, got 0.0"),
            (["--step", "-0.1"], "step must be positive, got -0.1"),
            (["--pi", "2", "--step", "0"], "step must be positive, got 0.0"),
        ],
        ids=["reversed-step", "reversed-resolution", "out-of-range-step",
             "out-of-range-resolution", "step-0", "step-negative", "step-before-pi"],
    )
    def test_axis_errors(self, capsys, axes, message):
        # A step that divides a reversed or out-of-range span evenly gets
        # the same axis error as --resolution, not a divisibility one. A
        # bad step is reported before a bad pi (a later --pi wins).
        code, out, err = _run(capsys, ["phase-grid", "--pi", "0.5", *axes])
        assert (code, out, err) == (1, "", f"votephase: error: {message}\n")

    def test_axis_spec_required(self, capsys):
        code, _, err = _run(capsys, ["phase-grid", "--pi", "0.5"])
        assert code == 1 and "--step or --resolution" in err

    def test_bad_n_rejected(self, capsys):
        code, _, err = _run(
            capsys, ["phase-grid", "--pi", "0.5", "--step", "0.1", "--n", "maybe"]
        )
        assert code == 1 and "asymptotic" in err

    def test_dump_config_round_trips(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys,
            ["phase-grid", "--resolution", "9", "--pi", "0.5", "--model", "geometric",
             "--gamma", "0.8", "--dump-config"],
        )
        assert code == 0
        spec = json.loads(out)
        assert spec["resolution"] == 9 and spec["model"] == Geometric(gamma=0.8).to_dict()
        path = tmp_path / "spec.json"
        path.write_text(out)
        assert _run(capsys, ["phase-grid", "--config", str(path), "--dump-config"]) == (0, out, "")

    @pytest.mark.parametrize(
        "axes",
        [
            ["--p-min", "0.1", "--p-max", "0.7", "--q-min", "0.1", "--q-max", "0.7",
             "--step", "1e-320"],
            ["--resolution", "1000000000"],
            ["--step", "1e-4", "--dump-config"],
            ["--resolution", "1001", "--format", "json"],
        ],
        ids=["step-1e-320", "resolution-1e9", "step-1e-4", "resolution-1001"],
    )
    def test_giant_grid_ends_at_guard(self, capsys, axes):
        code, out, err = _run(capsys, ["phase-grid", "--pi", "0.5", *axes])
        assert code == 1 and out == ""
        assert err.startswith("votephase: error: grid of ") and err.count("\n") == 1
        assert f"exceeds guard {GRID_CELL_GUARD}" in err

    @pytest.mark.parametrize("step", ["1e-300", "5e-324"])
    def test_tiny_step_states_axis_counts_by_bit_length(self, capsys, step):
        # Each axis count has about 300 digits; the error line gives its
        # bit length instead of printing it.
        code, out, err = _run(capsys, ["phase-grid", "--step", step, "--n", "3", "--pi", "0.5"])
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and len(err) < 200
        assert err.startswith("votephase: error: grid of a ") and "-bit integer x a " in err
        assert err.endswith(f"points exceeds guard {GRID_CELL_GUARD}\n")

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, out, _ = _run(
            capsys,
            ["phase-grid", "--resolution", "3", "--pi", "0.5", "--out", str(path)],
        )
        assert code == 0 and out == ""
        assert path.read_text().startswith(GRID_CSV_HEADER)


class TestDiagnoseCommand:
    @pytest.fixture()
    def csv_path(self, tmp_path):
        path = tmp_path / "preds.csv"
        rows = ["y,f1,f2,f3"]
        rows += ["1,1,1,0", "1,1,0,1", "1,0,1,1", "1,1,1,1"] * 5
        rows += ["0,0,0,1", "0,0,1,0", "0,1,0,0", "0,0,0,0"] * 5
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_text_report(self, capsys, csv_path):
        code, out, _ = _run(capsys, ["diagnose", "--input", csv_path])
        assert code == 0
        assert "p_hat" in out and "beneficial" in out

    def test_json_report_with_override(self, capsys, csv_path):
        code, out, _ = _run(
            capsys, ["diagnose", "--input", csv_path, "--pi", "0.25", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pi_used"] == 0.25 and payload["pi_source"] == "override"
        assert payload["verdict"]["phase"] == "beneficial"

    def test_ordered_flag_adds_lags(self, capsys, csv_path):
        code, out, _ = _run(
            capsys, ["diagnose", "--input", csv_path, "--ordered", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["lag_means_class1"] is not None

    def test_byte_order_mark_is_dropped(self, capsys, csv_path, tmp_path):
        plain = Path(csv_path).read_bytes()
        for body in (plain, plain.replace(b"\n", b"\r\n")):
            path = tmp_path / "bom.csv"
            path.write_bytes(b"\xef\xbb\xbf" + body)
            for fmt in ("text", "json"):
                want = _run(capsys, ["diagnose", "--input", csv_path, "--format", fmt])
                got = _run(capsys, ["diagnose", "--input", str(path), "--format", fmt])
                assert got == want and got[0] == 0

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, _ = _run(capsys, ["diagnose", "--input", str(tmp_path / "nope.csv")])
        assert code == 2

    def test_bad_cell_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,f1\n0,1\n1,2\n")
        code, _, err = _run(capsys, ["diagnose", "--input", str(path)])
        assert code == 1 and "line 3" in err

    def test_non_utf8_csv_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"y,f1\n1,1\n0,\xff\n")
        code, out, err = _run(capsys, ["diagnose", "--input", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("votephase: error: CSV is not UTF-8 text")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, nulls",
        [
            ("y,f1\n1,1\n0,0\n", ["p_std_error", "q_std_error", "corr_class1", "corr_class0"]),
            ("y,f1,f2\n1,1,0\n0,0,1\n0,1,0\n0,0,0\n", ["p_std_error", "corr_class1"]),
            (
                "y,f1,f2,f3\n1,1,1,0\n1,1,0,1\n0,0,0,0\n0,0,0,1\n",
                ["corr_class0", ("lag_means_class0", 0), ("lag_means_class0", 1)],
            ),
        ],
        ids=["one-column", "one-class-1-sample", "constant-class-0-columns"],
    )
    def test_json_writes_null_for_undefined_statistics(self, capsys, tmp_path, text, nulls):
        path = tmp_path / "tiny.csv"
        path.write_text(text)
        code, out, _ = _run(
            capsys, ["diagnose", "--input", str(path), "--ordered", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out, parse_constant=_reject_constant)
        for name in nulls:
            key, index = name if isinstance(name, tuple) else (name, None)
            value = payload[key] if index is None else payload[key][index]
            assert value is None, (name, value)
        code, out, _ = _run(capsys, ["diagnose", "--input", str(path), "--ordered"])
        assert code == 0 and "nan" in out


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        code, _, _ = _run(capsys, [])
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = _run(capsys, ["frobnicate"])
        assert code == 1

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "votephase", "analytic", *BASE],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["phase"] == "-"


# The model surface: each model kind, any mix of model parameters (its
# own, another model's, a removed one) and values in or out of range,
# given either as flags or in a --config file.
_FUZZ_KINDS = [None, "independent", "geometric", "equicorrelated", "mystery"]
# parameter -> (flag, config key); heterogeneity was removed
_FUZZ_PARAMS = {
    "gamma": ("--gamma", "gamma"),
    "lambda": ("--lambda", "lambda"),
    "heterogeneity": ("--beta-concentration", "heterogeneity"),
}
_FUZZ_VALUES = [0.3, 0.9, 0.0, 1.0, -0.5, 1.5, float("nan"), float("inf"), "abc"]
_OWN_PARAM = {"independent": None, "geometric": "gamma", "equicorrelated": "lambda"}


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _surface_argv(subcommand, kind, params, source, directory):
    if subcommand == "phase-grid":
        base = {"resolution": 3, "n": 15, "pi": 0.5}
    else:
        base = {"n": 15, "p": 0.7, "q": 0.3, "pi": 0.5}
    if source == "flag":
        argv = [subcommand]
        for key, value in base.items():
            argv += [f"--{key}", str(value)]
        if kind is not None:
            argv += ["--model", kind]
        for name, value in params.items():
            argv += [_FUZZ_PARAMS[name][0], str(value)]
        return argv
    model = {} if kind is None else {"kind": kind}
    model.update({_FUZZ_PARAMS[name][1]: value for name, value in params.items()})
    if model:
        base["model"] = model
    path = Path(directory) / "cfg.json"
    path.write_text(json.dumps(base))
    return [subcommand, "--config", str(path)]


class TestModelSurfaceFuzz:
    @given(
        subcommand=st.sampled_from(["analytic", "oracle", "phase-grid"]),
        kind=st.sampled_from(_FUZZ_KINDS),
        params=st.dictionaries(
            st.sampled_from(sorted(_FUZZ_PARAMS)), st.sampled_from(_FUZZ_VALUES), max_size=3
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_flag_and_config_agree(self, subcommand, kind, params):
        results = {}
        with tempfile.TemporaryDirectory() as directory:
            for source in ("flag", "config"):
                argv = _surface_argv(subcommand, kind, params, source, directory)
                code, out, err = _run_quiet(argv)
                if code == 0:
                    assert err == "", (argv, err)
                else:
                    assert code == 1 and out == "", (argv, code)
                    assert err.startswith("votephase: error: "), (argv, err)
                    assert err.count("\n") == 1, (argv, err)
                results[source] = (code, out)
        assert results["flag"] == results["config"]
        own = _OWN_PARAM.get(kind, "unknown kind")
        accepted = (kind is None and not params) or (
            set(params) == ({own} - {None})
            and all(isinstance(v, float) and 0.0 < v < 1.0 for v in params.values())
        )
        assert (results["flag"][0] == 0) == accepted, (kind, params)


# The phase-grid and simulate flags outside the model. Each flag is
# absent or takes a plausible value, except up to two that take an
# out-of-range or malformed one. A plausible grid is either small or
# over the cell guard, and --reps is never left at its large default,
# so every case is quick unless a guard fails.
_GRID_AXIS = ([None, "0.1", "0.5", "0.7"], ["0", "1", "-0.5", "nan", "inf", "abc"])
_GRID_FLAGS = {
    "--p-min": _GRID_AXIS,
    "--p-max": _GRID_AXIS,
    "--q-min": _GRID_AXIS,
    "--q-max": _GRID_AXIS,
    "--pi": (["0.5", "0.3"], [None, "0", "1", "nan", "abc"]),
    "--step": ([None, "0.1", "0.2", "1e-320", "1e-4"], ["0", "-0.1", "nan", "inf", "abc"]),
    "--resolution": (
        [None, "1", "3", "1001", "1000000", "1000000000"],
        ["0", "-2", "1.5", "abc", "1e3"],
    ),
    "--n": ([None, "asymptotic", "1", "21", "1000000000"], ["0", "-3", "1.5", "abc"]),
}
_SIMULATE_FLAGS = {
    "--reps": (["100", "1000"], ["99", "0", "-5", "1.5", "1e3", "abc", ""]),
    "--seed": (["0", "7", str(2**64 - 1)], [None, str(2**64), "-1", "1.5", "abc"]),
    "--stream": ([None, "0", "3", str(2**64 - 1)], [str(2**64), "-1", "abc"]),
    "--conditional": ([None, "0", "1"], ["2", "-1", "abc"]),
}


def _draw_flags(draw, flags: dict) -> list:
    broken = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = []
    for flag, (plausible, bad) in flags.items():
        value = draw(st.sampled_from(bad if flag in broken else plausible))
        if value is not None:
            argv += [flag, value]
    return argv


def _assert_exit_contract(argv, code, out, err):
    """Success with empty stderr, or exit 1 or 2 with one stderr line."""
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert code in (1, 2) and out == "", (argv, code)
        assert err.startswith("votephase: ") and err.count("\n") == 1, (argv, err)


class TestFlagSurfaceFuzz:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_phase_grid_flags(self, data):
        argv = ["phase-grid", *_draw_flags(data.draw, _GRID_FLAGS)]
        _assert_exit_contract(argv, *_run_quiet(argv))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_simulate_flags(self, data):
        argv = ["simulate", *BASE, *_draw_flags(data.draw, _SIMULATE_FLAGS)]
        _assert_exit_contract(argv, *_run_quiet(argv))


def _reject_constant(token):
    raise ValueError(f"not valid JSON: {token}")


# Malformed prediction CSVs for diagnose: random bytes, or a header
# (good, or BOM-prefixed, short, misnamed, non-UTF-8, with a NUL) over
# rows of the header's width or ragged, whose cells are all 0/1 or
# drawn from a mix of bad ones.
_GOOD_HEADERS = [b"y,f1", b"y,f1,f2", b"y,f1,f2,f3", b" y , f1 "]
_BAD_HEADERS = [
    b"\xef\xbb\xbfy,f1,f2", b"y", b"", b"label,f1", b"f1,y", b"y,\xff", b"y,f1\x00",
]
_CSV_CELLS = [
    b"0", b"1", b" 1 ", b'"0"', b"", b"2", b"-1", b"1.0", b"x", b"\x00",
    b"\xff", b"\xc3\xa9", b'"1\n0"', b'"',
]


@st.composite
def _csv_files(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=120))
    header = draw(st.sampled_from(_GOOD_HEADERS if draw(st.booleans()) else _BAD_HEADERS))
    width = header.count(b",") + 1
    cell = st.sampled_from([b"0", b"1"] if draw(st.booleans()) else _CSV_CELLS)
    size = st.just(width) if draw(st.booleans()) else st.integers(0, 5)
    rows = draw(st.lists(size.flatmap(lambda k: st.lists(cell, min_size=k, max_size=k)), max_size=8))
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))
    return eol.join([header, *(b",".join(row) for row in rows)]) + draw(
        st.sampled_from([b"", eol])
    )


class TestDiagnoseCsvFuzz:
    @given(data=_csv_files(), ordered=st.booleans())
    @example(data=b"y,f1\n1,1\n0,\xff\n", ordered=False)
    @example(data=b"y,f1\n1,1\n0,0\n", ordered=False)
    @settings(max_examples=300, deadline=None)
    def test_typed_error_or_valid_json(self, data, ordered):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "preds.csv"
            path.write_bytes(data)
            argv = ["diagnose", "--input", str(path), "--format", "json"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = _run_quiet(argv + ["--ordered"] * ordered)
            # a path, an open text file and a string stream read alike
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError:
                pass
            else:
                with open(path, encoding="utf-8", newline="") as fh:
                    sources = (path, fh, io.StringIO(text))
                    outcomes = [parse_outcome(read_prediction_csv, src) for src in sources]
                assert outcomes[0] == outcomes[1] == outcomes[2], (data, outcomes)
        if code == 0:
            assert err == "", (data, err)
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert code == 1 and out == "", (data, code)
            assert err.startswith("votephase: error: ") and err.count("\n") == 1, (data, err)
