"""Command-line surface: analytic, oracle, simulate, phase-grid, diagnose.

Each subcommand is two functions. ``spec`` builds what it computes: an
EnsembleConfig, a GridSpec, or None for diagnose. ``compute`` returns
``(payload, table)``, and ``_run`` writes one of them: the payload as
JSON, or the table, a list of rows with the header first (CSV) or the
report text. JSON output preserves full double precision (shortest
round-trip representation); CSV output rounds to 9 significant digits.

Every subcommand but diagnose takes --config, a JSON object with the
keys that --dump-config prints; a flag of the same name overrides the
file, and any other key is an error. Each spec's flags are exactly its
config keys: one table per spec lists them, and a key ``p_min`` is the
flag --p-min (the model's kind and parameter are --model and
--<param>). --step, --pmf, --reps, --seed, --stream and --conditional
are flags only; --step is turned into the config's resolution.
Exit status: 0 success, 1 validation/usage error, 2 I/O error.

Each subcommand imports only the layers it computes with. analytic and
phase-grid compute with ``math`` and never load numpy; oracle and
simulate import their module inside ``compute``, and diagnose loads
numpy when it parses the CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Union

from . import analytic, grid
from .diagnose import diagnose as run_diagnose, format_report, read_prediction_csv
from .model import (
    ASYMPTOTIC,
    BadParameter,
    EnsembleConfig,
    GridSpec,
    MODELS,
    Prior,
    VotePhaseError,
    model_class,
    step_resolution,
)


def _grid_size(text: str):
    if text == ASYMPTOTIC:
        return ASYMPTOTIC
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'n must be a positive integer or "{ASYMPTOTIC}", got {text!r}'
        ) from None


# Each spec's config keys besides "model", as key -> (flag type, help);
# _add_spec_flags gives every key the flag --<key>.
_ENSEMBLE_FLAGS = {
    "n": (int, "ensemble size"),
    "p": (float, "average true positive rate"),
    "q": (float, "average false positive rate"),
    "pi": (float, "class-1 prior"),
}
_GRID_FLAGS = {
    "p_min": (float, "lowest p on the grid"),
    "p_max": (float, "highest p on the grid"),
    "q_min": (float, "lowest q on the grid"),
    "q_max": (float, "highest q on the grid"),
    "resolution": (int, "points per axis"),
    "n": (_grid_size, 'ensemble size or "asymptotic"'),
    "pi": (float, "class-1 prior"),
}
_GRID_DEFAULTS = {"p_min": 0.01, "p_max": 0.99, "q_min": 0.01, "q_max": 0.99, "n": ASYMPTOTIC}


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are one `votephase: error:` line, exit 1.

    Flags must be spelled in full, as config keys are: no prefix of a
    flag is read as the flag. Subparsers are built from this class too.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs, allow_abbrev=False)

    def error(self, message: str) -> None:
        self.exit(1, f"votephase: error: {message}\n")


def _add_spec_flags(sub: argparse.ArgumentParser, table: dict) -> None:
    """--config, a flag --<key> per config key of ``table`` (``_`` spelled
    ``-``), the model flags and --dump-config."""
    sub.add_argument("--config", help="JSON config file; flags override its values")
    for key, (kind, text) in table.items():
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key, type=kind, help=text)
    sub.add_argument("--model", choices=list(MODELS), help="correlation model")
    for cls in MODELS.values():
        if cls.param is not None:
            sub.add_argument(
                f"--{cls.param}", type=float, help=f"{cls.param_help} ({cls.kind} model)"
            )
    sub.add_argument(
        "--dump-config", action="store_true", help="print the effective JSON config and exit"
    )


def _add_output_flags(sub: argparse.ArgumentParser, formats: list, spec, compute) -> None:
    """--format (default: the first of ``formats``), --out, and the
    subcommand's ``spec(args)`` and ``compute(args, spec)`` for ``_run``."""
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.set_defaults(spec=spec, compute=compute)


def _flags(names) -> str:
    return ", ".join(f"--{name}" for name in sorted(names))


def _model_dict(args: argparse.Namespace, config: dict) -> dict:
    """Merge model flags over the config file's "model", rejecting mismatches.

    With neither a model flag nor a "model" key, the model is independent.
    A "model" key that is present, even as null, is left for the
    spec's ``from_dict`` to check.
    """
    file_model = config.get("model")
    # Each model's parameter has the flag --<param>, stored as args.<param>.
    params = (cls.param for cls in MODELS.values() if cls.param is not None)
    given = {name: getattr(args, name) for name in params if getattr(args, name) is not None}
    from_file = isinstance(file_model, dict) and "kind" in file_model
    kind = args.model
    if kind is None:
        if not given:
            return config.get("model", {"kind": "independent"})
        if not from_file:
            raise BadParameter(f"model flags {_flags(given)} require --model or a config-file model")
        kind = file_model["kind"]
    stray = set(given) - {model_class(kind).param}
    if stray:
        raise BadParameter(f"{_flags(stray)} not valid for model {kind!r}")
    base = dict(file_model) if from_file and file_model["kind"] == kind else {"kind": kind}
    base.update(given)
    return base


def _merged(args: argparse.Namespace, keys: dict) -> dict:
    """The --config object with the flags of the config ``keys`` laid over it.

    A file key other than ``keys`` and "model" is an error. The model
    is merged by ``_model_dict``.
    """
    base, path = {}, args.config
    if path:
        # utf-8-sig drops a leading byte-order mark, as diagnose --input does.
        with open(path, encoding="utf-8-sig") as fh:
            try:
                base = json.load(fh)
            except UnicodeDecodeError as exc:
                raise BadParameter(f"{path}: config is not UTF-8 text: {exc}") from None
            # JSONDecodeError and the int digit limit's error are ValueErrors.
            except (ValueError, RecursionError) as exc:
                raise BadParameter(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(base, dict):
            raise BadParameter(f"{path}: config must be a JSON object")
    stray = sorted(set(base) - {*keys, "model"})
    if stray:
        raise BadParameter(f"{path}: unknown config keys {', '.join(map(repr, stray))}")
    merged = dict(base)
    merged.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    merged["model"] = _model_dict(args, base)
    return merged


def _ensemble(args: argparse.Namespace) -> EnsembleConfig:
    merged = _merged(args, _ENSEMBLE_FLAGS)
    missing = [k for k in _ENSEMBLE_FLAGS if k not in merged]
    if missing:
        raise BadParameter(f"missing required parameters: {', '.join(missing)}")
    return EnsembleConfig.from_dict(merged)


def _grid(args: argparse.Namespace) -> GridSpec:
    merged = {**_GRID_DEFAULTS, **_merged(args, _GRID_FLAGS)}
    if "pi" not in merged:
        raise BadParameter("missing required parameter: pi")
    if args.step is not None:
        if "resolution" in merged:
            raise BadParameter("--step and --resolution are mutually exclusive")
        axes = (merged[key] for key in ("p_min", "p_max", "q_min", "q_max"))
        merged["resolution"] = step_resolution(*axes, args.step)
    elif "resolution" not in merged:
        raise BadParameter("one of --step or --resolution is required")
    return GridSpec.from_dict(merged)


def _row_fields(row: grid.GridRow) -> dict:
    """A closed-form row as JSON fields, the phase as its sign."""
    return {**vars(row), "phase": row.phase.value}


def _analytic(args: argparse.Namespace, cfg: EnsembleConfig) -> tuple:
    row = _row_fields(grid.point(cfg.rates, cfg.prior, cfg.model, cfg.n))
    del row["p"], row["q"]
    verdict = analytic.limiting_delta(cfg.rates, cfg.prior)
    sigma = {
        name: cfg.model.asymptotic_sigma_sq(rate)
        for name, rate in (("p", cfg.rates.p), ("q", cfg.rates.q))
    }
    payload = {
        "config": cfg.to_dict(),
        **row,
        "sigma_sq": {k: s if math.isfinite(s) else "infinite" for k, s in sigma.items()},
        "region": {
            "p_side": verdict.p_side.value,
            "q_side": verdict.q_side.value,
            "table_delta_inf": verdict.delta_inf,
        },
    }
    return payload, [list(row), list(row.values())]


def _oracle(args: argparse.Namespace, cfg: EnsembleConfig) -> tuple:
    from . import oracle

    pmf_p, pmf_q = oracle.class_pmfs(cfg)
    err = oracle.error_from_pmfs(pmf_p, pmf_q, cfg.prior.pi)
    payload: dict = {"config": cfg.to_dict(), "err_exact": err}
    if not args.pmf:
        return payload, [["err_exact"], [err]]
    payload["pmf_class1"] = pmf_p.mass.tolist()
    payload["pmf_class0"] = pmf_q.mass.tolist()
    masses = zip(payload["pmf_class1"], payload["pmf_class0"])
    table = [["k", "mass_class1", "mass_class0"], *([k, *m] for k, m in enumerate(masses))]
    return payload, [*table, ["err_exact", err, ""]]


def _simulate(args: argparse.Namespace, cfg: EnsembleConfig) -> tuple:
    from . import montecarlo
    from .sampler import RngSeed

    seed = RngSeed(seed=args.seed, stream=args.stream)
    if args.conditional is None:
        estimate = montecarlo.mc_error(cfg, args.reps, seed)
    else:
        estimate = montecarlo.mc_conditional_error(cfg, args.conditional, args.reps, seed)
    row = estimate.to_dict()
    payload = {"config": cfg.to_dict(), "conditional": args.conditional, "estimate": row}
    return payload, [list(row), list(row.values())]


def _phase_grid(args: argparse.Namespace, spec: GridSpec) -> tuple:
    rows = [_row_fields(r) for r in grid.sweep(spec)]
    return {"spec": spec.to_dict(), "rows": rows}, [list(rows[0]), *(r.values() for r in rows)]


def _diagnose(args: argparse.Namespace, spec: None) -> tuple:
    matrix = read_prediction_csv(args.input)
    override = Prior(pi=args.pi) if args.pi is not None else None
    report = run_diagnose(matrix, prior_override=override, assume_ordered=args.ordered)
    return report.to_dict(), format_report(report)


def _cell(value) -> str:
    """A CSV cell: bools as true/false, floats to 9 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _run(args: argparse.Namespace) -> int:
    """Write the spec (--dump-config), the JSON payload or the table to --out or stdout."""
    spec = args.spec(args)
    if getattr(args, "dump_config", False):
        text = json.dumps(spec.to_dict(), indent=2, sort_keys=True)
    else:
        payload, table = args.compute(args, spec)
        if args.format == "json":
            text = json.dumps(payload, indent=2, sort_keys=True)
        elif isinstance(table, str):
            text = table
        else:
            text = "\n".join(",".join(map(_cell, row)) for row in table)
    if args.out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="votephase",
        description="Phase-transition analysis of majority-vote ensembles",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_analytic = sub.add_parser(
        "analytic", help="closed-form err, estimated error, and phase verdict"
    )
    _add_spec_flags(p_analytic, _ENSEMBLE_FLAGS)
    _add_output_flags(p_analytic, ["json", "csv"], _ensemble, _analytic)

    p_oracle = sub.add_parser("oracle", help="exact finite-n error and vote pmf")
    _add_spec_flags(p_oracle, _ENSEMBLE_FLAGS)
    p_oracle.add_argument(
        "--pmf", action="store_true", help="include the full vote-sum pmf per class"
    )
    _add_output_flags(p_oracle, ["json", "csv"], _ensemble, _oracle)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo error estimate")
    _add_spec_flags(p_sim, _ENSEMBLE_FLAGS)
    p_sim.add_argument("--reps", type=int, default=100_000, help="replications")
    p_sim.add_argument("--seed", type=int, required=True, help="64-bit RNG seed")
    p_sim.add_argument("--stream", type=int, default=0, help="substream index")
    p_sim.add_argument(
        "--conditional",
        type=int,
        choices=[0, 1],
        help="estimate one class's error instead of the overall rate",
    )
    _add_output_flags(p_sim, ["json", "csv"], _ensemble, _simulate)

    p_grid = sub.add_parser("phase-grid", help="sweep the (p,q) square to CSV/JSON")
    _add_spec_flags(p_grid, _GRID_FLAGS)
    p_grid.add_argument("--step", type=float, help="axis step (decimal-exact)")
    _add_output_flags(p_grid, ["csv", "json"], _grid, _phase_grid)

    p_diag = sub.add_parser("diagnose", help="analyze a real prediction matrix CSV")
    p_diag.add_argument("--input", required=True, help="CSV with header y,f1,...,fm")
    p_diag.add_argument("--pi", type=float, help="prior override (default: estimated)")
    p_diag.add_argument(
        "--ordered",
        action="store_true",
        help="classifier columns are meaningfully ordered; report per-lag correlations",
    )
    _add_output_flags(p_diag, ["text", "json"], lambda args: None, _diagnose)

    return parser


def main(argv: Union[list, None] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except VotePhaseError as exc:
        print(f"votephase: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"votephase: i/o error: {exc}", file=sys.stderr)
        return 2
