"""Command-line surface: analytic, oracle, simulate, phase-grid, diagnose.

Flags mirror the JSON config keys one-to-one and override values loaded
via --config. JSON output preserves full double precision (shortest
round-trip representation); CSV output rounds to 9 significant digits.
Exit status: 0 success, 1 validation/usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Union

from . import analytic, grid, montecarlo, oracle
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
    model_from_dict,
)
from .sampler import RngSeed

GRID_CSV_HEADER = "p,q,err,err_hat,delta_n,delta_inf,phase,abusive"


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are one `votephase: error:` line, exit 1.

    Flags must be spelled in full, as config keys are: no prefix of a
    flag is read as the flag. Subparsers are built from this class too.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs, allow_abbrev=False)

    def error(self, message: str) -> None:
        self.exit(1, f"votephase: error: {message}\n")


def _csv_num(x: float) -> str:
    return format(float(x), ".9g")


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", choices=list(MODELS), help="correlation model")
    for cls in MODELS.values():
        if cls.param is not None:
            sub.add_argument(
                f"--{cls.param}", type=float, help=f"{cls.param_help} ({cls.kind} model)"
            )


def _add_config_flags(sub: argparse.ArgumentParser, with_n: bool = True) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    if with_n:
        sub.add_argument("--n", type=int, help="ensemble size")
    sub.add_argument("--p", type=float, help="average true positive rate")
    sub.add_argument("--q", type=float, help="average false positive rate")
    sub.add_argument("--pi", type=float, help="class-1 prior")
    _add_model_flags(sub)
    sub.add_argument(
        "--dump-config",
        action="store_true",
        help="print the effective JSON config and exit",
    )


def _add_output_flags(sub: argparse.ArgumentParser, formats: list, default: str) -> None:
    sub.add_argument("--format", choices=formats, default=default)
    sub.add_argument("--out", help="output path (default: stdout)")


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BadParameter(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise BadParameter(f"{path}: config must be a JSON object")
    return data


def _flags(names) -> str:
    return ", ".join(f"--{name}" for name in sorted(names))


def _model_dict(args: argparse.Namespace, file_model: Union[dict, None]) -> Union[dict, None]:
    """Merge model flags over a config-file model, rejecting mismatches."""
    # Each model's parameter has the flag --<param>, stored as args.<param>.
    params = (cls.param for cls in MODELS.values() if cls.param is not None)
    given = {name: getattr(args, name) for name in params if getattr(args, name) is not None}
    from_file = isinstance(file_model, dict) and "kind" in file_model
    kind = args.model
    if kind is None:
        if not given:
            return file_model
        if not from_file:
            raise BadParameter(f"model flags {_flags(given)} require --model or a config-file model")
        kind = file_model["kind"]
    stray = set(given) - {model_class(kind).param}
    if stray:
        raise BadParameter(f"{_flags(stray)} not valid for model {kind!r}")
    base = dict(file_model) if from_file and file_model["kind"] == kind else {"kind": kind}
    base.update(given)
    return base


def _effective_config(args: argparse.Namespace) -> EnsembleConfig:
    base = _load_json(args.config) if args.config else {}
    merged = dict(base)
    for name in ("n", "p", "q", "pi"):
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    model = _model_dict(args, base.get("model"))
    merged["model"] = model if model is not None else {"kind": "independent"}
    missing = [k for k in ("n", "p", "q", "pi") if k not in merged]
    if missing:
        raise BadParameter(f"missing required parameters: {', '.join(missing)}")
    return EnsembleConfig.from_dict(merged)


def _emit(text: str, out: Union[str, None]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _maybe_dump_config(args: argparse.Namespace, config_dict: dict) -> bool:
    if getattr(args, "dump_config", False):
        _emit(_json_dumps(config_dict), getattr(args, "out", None))
        return True
    return False


def _cmd_analytic(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    if _maybe_dump_config(args, cfg.to_dict()):
        return 0
    err = analytic.mean_individual_error(cfg.rates, cfg.prior)
    err_hat = analytic.estimated_error(cfg)
    delta_n = err_hat - err
    delta_inf = analytic.delta_asymptotic(cfg.rates, cfg.prior, cfg.model)
    verdict = analytic.limiting_delta(cfg.rates, cfg.prior)
    sigma_p = analytic.asymptotic_sigma_sq(cfg.model, cfg.rates.p)
    sigma_q = analytic.asymptotic_sigma_sq(cfg.model, cfg.rates.q)
    payload = {
        "config": cfg.to_dict(),
        "err": err,
        "err_hat": err_hat,
        "delta_n": delta_n,
        "delta_inf": delta_inf,
        "phase": analytic.phase_of(delta_inf).value,
        "abusive": analytic.uses_abusive_variance(cfg.model),
        "sigma_sq": {
            "p": sigma_p.value if sigma_p.is_finite else "infinite",
            "q": sigma_q.value if sigma_q.is_finite else "infinite",
        },
        "region": {
            "p_side": verdict.p_side.value,
            "q_side": verdict.q_side.value,
            "table_delta_inf": verdict.delta_inf,
        },
    }
    if args.format == "json":
        _emit(_json_dumps(payload), args.out)
    else:
        header = "err,err_hat,delta_n,delta_inf,phase,abusive"
        row = ",".join(
            [
                _csv_num(err),
                _csv_num(err_hat),
                _csv_num(delta_n),
                _csv_num(delta_inf),
                analytic.phase_of(delta_inf).value,
                "true" if payload["abusive"] else "false",
            ]
        )
        _emit(f"{header}\n{row}\n", args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    if _maybe_dump_config(args, cfg.to_dict()):
        return 0
    pmf_p = oracle.exact_vote_pmf(cfg.model, cfg.n, cfg.rates.p)
    pmf_q = oracle.exact_vote_pmf(cfg.model, cfg.n, cfg.rates.q)
    err = oracle.error_from_pmfs(pmf_p, pmf_q, cfg.prior.pi)
    payload: dict = {"config": cfg.to_dict(), "err_exact": err}
    if args.pmf:
        payload["pmf_class1"] = [float(v) for v in pmf_p.mass]
        payload["pmf_class0"] = [float(v) for v in pmf_q.mass]
    if args.format == "json":
        _emit(_json_dumps(payload), args.out)
    elif args.pmf:
        lines = ["k,mass_class1,mass_class0"]
        for k in range(cfg.n + 1):
            lines.append(f"{k},{_csv_num(pmf_p.mass[k])},{_csv_num(pmf_q.mass[k])}")
        lines.append(f"err_exact,{_csv_num(err)},")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(f"err_exact\n{_csv_num(err)}\n", args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    if _maybe_dump_config(args, cfg.to_dict()):
        return 0
    seed = RngSeed(seed=args.seed, stream=args.stream)
    if args.conditional is None:
        estimate = montecarlo.mc_error(cfg, args.reps, seed)
    else:
        estimate = montecarlo.mc_conditional_error(cfg, args.conditional, args.reps, seed)
    payload = {
        "config": cfg.to_dict(),
        "conditional": args.conditional,
        "estimate": estimate.to_dict(),
    }
    if args.format == "json":
        _emit(_json_dumps(payload), args.out)
    else:
        header = "value,std_error,reps,seed,stream"
        row = (
            f"{_csv_num(estimate.value)},{_csv_num(estimate.std_error)},"
            f"{estimate.reps},{seed.seed},{seed.stream}"
        )
        _emit(f"{header}\n{row}\n", args.out)
    return 0


def _grid_spec(args: argparse.Namespace) -> GridSpec:
    base = _load_json(args.config) if args.config else {}
    merged = dict(base)
    for flag, key in (
        ("p_min", "p_min"),
        ("p_max", "p_max"),
        ("q_min", "q_min"),
        ("q_max", "q_max"),
        ("pi", "pi"),
        ("resolution", "resolution"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            merged[key] = value
    if args.n is not None:
        merged["n"] = args.n
    model = _model_dict(args, base.get("model"))
    merged["model"] = model if model is not None else {"kind": "independent"}
    merged.setdefault("p_min", 0.01)
    merged.setdefault("p_max", 0.99)
    merged.setdefault("q_min", 0.01)
    merged.setdefault("q_max", 0.99)
    merged.setdefault("n", ASYMPTOTIC)
    if "pi" not in merged:
        raise BadParameter("missing required parameter: pi")
    if args.step is not None:
        if args.resolution is not None:
            raise BadParameter("--step and --resolution are mutually exclusive")
        return GridSpec.from_step(
            p_min=merged["p_min"],
            p_max=merged["p_max"],
            q_min=merged["q_min"],
            q_max=merged["q_max"],
            step=args.step,
            n=merged["n"],
            prior=Prior(pi=merged["pi"]),
            model=model_from_dict(merged["model"]),
        )
    if "resolution" not in merged:
        raise BadParameter("one of --step or --resolution is required")
    return GridSpec.from_dict(merged)


def _cmd_phase_grid(args: argparse.Namespace) -> int:
    spec = _grid_spec(args)
    if _maybe_dump_config(args, spec.to_dict()):
        return 0
    rows = grid.sweep(spec)
    if args.format == "json":
        payload = {
            "spec": spec.to_dict(),
            "rows": [
                {
                    "p": r.p,
                    "q": r.q,
                    "err": r.err,
                    "err_hat": r.err_hat,
                    "delta_n": r.delta_n,
                    "delta_inf": r.delta_inf,
                    "phase": r.phase.value,
                    "abusive": r.abusive,
                }
                for r in rows
            ],
        }
        _emit(_json_dumps(payload), args.out)
    else:
        lines = [GRID_CSV_HEADER]
        for r in rows:
            lines.append(
                ",".join(
                    [
                        _csv_num(r.p),
                        _csv_num(r.q),
                        _csv_num(r.err),
                        _csv_num(r.err_hat),
                        _csv_num(r.delta_n),
                        _csv_num(r.delta_inf),
                        r.phase.value,
                        "true" if r.abusive else "false",
                    ]
                )
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    matrix = read_prediction_csv(args.input)
    override = Prior(pi=args.pi) if args.pi is not None else None
    report = run_diagnose(matrix, prior_override=override, assume_ordered=args.ordered)
    if args.format == "json":
        _emit(_json_dumps(report.to_dict()), args.out)
    else:
        _emit(format_report(report) + "\n", args.out)
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
    _add_config_flags(p_analytic)
    _add_output_flags(p_analytic, ["json", "csv"], "json")
    p_analytic.set_defaults(func=_cmd_analytic)

    p_oracle = sub.add_parser("oracle", help="exact finite-n error and vote pmf")
    _add_config_flags(p_oracle)
    p_oracle.add_argument(
        "--pmf", action="store_true", help="include the full vote-sum pmf per class"
    )
    _add_output_flags(p_oracle, ["json", "csv"], "json")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo error estimate")
    _add_config_flags(p_sim)
    p_sim.add_argument("--reps", type=int, default=100_000, help="replications")
    p_sim.add_argument("--seed", type=int, required=True, help="64-bit RNG seed")
    p_sim.add_argument("--stream", type=int, default=0, help="substream index")
    p_sim.add_argument(
        "--conditional",
        type=int,
        choices=[0, 1],
        help="estimate one class's error instead of the overall rate",
    )
    _add_output_flags(p_sim, ["json", "csv"], "json")
    p_sim.set_defaults(func=_cmd_simulate)

    p_grid = sub.add_parser("phase-grid", help="sweep the (p,q) square to CSV/JSON")
    p_grid.add_argument("--config", help="JSON grid spec; flags override its values")
    p_grid.add_argument("--p-min", dest="p_min", type=float)
    p_grid.add_argument("--p-max", dest="p_max", type=float)
    p_grid.add_argument("--q-min", dest="q_min", type=float)
    p_grid.add_argument("--q-max", dest="q_max", type=float)
    p_grid.add_argument("--pi", type=float, help="class-1 prior")
    p_grid.add_argument(
        "--n", type=_grid_size, help='ensemble size or "asymptotic"', default=None
    )
    p_grid.add_argument("--step", type=float, help="axis step (decimal-exact)")
    p_grid.add_argument("--resolution", type=int, help="points per axis")
    _add_model_flags(p_grid)
    p_grid.add_argument(
        "--dump-config", action="store_true", help="print the effective spec and exit"
    )
    _add_output_flags(p_grid, ["csv", "json"], "csv")
    p_grid.set_defaults(func=_cmd_phase_grid)

    p_diag = sub.add_parser("diagnose", help="analyze a real prediction matrix CSV")
    p_diag.add_argument("--input", required=True, help="CSV with header y,f1,...,fm")
    p_diag.add_argument("--pi", type=float, help="prior override (default: estimated)")
    p_diag.add_argument(
        "--ordered",
        action="store_true",
        help="classifier columns are meaningfully ordered; report per-lag correlations",
    )
    _add_output_flags(p_diag, ["text", "json"], "text")
    p_diag.set_defaults(func=_cmd_diagnose)

    return parser


def _grid_size(text: str):
    if text == ASYMPTOTIC:
        return ASYMPTOTIC
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'n must be a positive integer or "{ASYMPTOTIC}", got {text!r}'
        ) from None


def main(argv: Union[list, None] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VotePhaseError as exc:
        print(f"votephase: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"votephase: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
