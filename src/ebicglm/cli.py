"""Command-line interface: fit, select, simulate, cv-links, diagnose.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every output-producing run writes a ``manifest.json`` that reproduces it
bit for bit via ``--config manifest.json`` at the same BLAS thread count
(``OPENBLAS_NUM_THREADS``, which the manifest records under
``blas_threads``), whatever ``--threads`` (worker processes) is.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import _BLAS_THREADS, __version__
from .ebic import ebic_score, resolve_gamma
from .errors import DataError, EbicGlmError, InvalidArgs
from .glm import Dataset, ModelIndex, _tsv, c6_diagnostics, fit_mle
from .links import parse_link_family
from .select import SelectConfig, select_pipeline


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract wants 1
    def error(self, message):
        raise InvalidArgs(message)


def _threads(args) -> int:
    return args.threads if args.threads is not None else os.cpu_count() or 1


# never taken from a config file: they name this run, not the computation
_RUN_ONLY_KEYS = ("command", "out", "config", "threads")


def _param_actions(command_parser: argparse.ArgumentParser) -> dict:
    """The command's parameters, dest -> action: every flag of its parser
    except help and the run-only keys. They are its config keys and its
    manifest params."""
    return {
        a.dest: a for a in command_parser._actions
        if a.default is not argparse.SUPPRESS and a.dest not in _RUN_ONLY_KEYS
    }


def _config_scalar(action, key: str, value):
    """One config value checked and converted the way argparse treats the
    flag's text: a string for untyped flags, else the declared type applied
    to a JSON number or string (no bools, no silently truncated floats)."""
    kind = action.type or str
    wrong = InvalidArgs(f"config key {key!r} must be of type {kind.__name__}, got {value!r}")
    if kind is str:
        if not isinstance(value, str):
            raise wrong
    else:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)) or (
            kind is int and isinstance(value, float)
        ):
            raise wrong
        try:
            value = kind(value)
        except (ValueError, OverflowError):
            raise wrong from None
    if action.choices is not None and value not in action.choices:
        raise InvalidArgs(
            f"config key {key!r} must be one of {list(action.choices)}, got {value!r}"
        )
    return value


def _config_value(action, key: str, value):
    """A config value checked against the flag's declared type and action."""
    if value is None:
        # null stands for an unset optional flag, as manifests write it
        if action.required or action.default is not None:
            raise InvalidArgs(f"config key {key!r} cannot be null")
        return None
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise InvalidArgs(f"config key {key!r} must be true or false, got {value!r}")
        return value
    if isinstance(action, argparse._AppendAction):
        if not isinstance(value, list):
            raise InvalidArgs(f"config key {key!r} must be a list, got {value!r}")
        return [_config_scalar(action, key, v) for v in value]
    return _config_scalar(action, key, value)


def _merge_config_file(args, command_parser: argparse.ArgumentParser) -> None:
    """Values from --config override flags (flags override defaults)."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read config {args.config}: {exc}") from None
    params = payload.get("params", payload) if isinstance(payload, dict) else None
    if not isinstance(params, dict):
        raise InvalidArgs(f"config {args.config} must hold a JSON object of parameters")
    actions = _param_actions(command_parser)
    for key, value in params.items():
        attr = key.replace("-", "_")
        if attr in _RUN_ONLY_KEYS:
            continue
        if attr not in actions:
            raise InvalidArgs(f"unknown config key {key!r} in {args.config}")
        setattr(args, attr, _config_value(actions[attr], key, value))


# lowest value each integer flag accepts; a value below is a usage error,
# never clamped
_LOWER_BOUNDS = {
    "max_steps": 1,
    "path_length": 1,
    "threads": 1,
    "screen_threshold": 1,
    "screen_keep": 1,
    "dump_data": 0,
}


def _check_ranges(args) -> None:
    """Refuse flag values (from the command line or --config) below their bound."""
    for dest, low in _LOWER_BOUNDS.items():
        value = getattr(args, dest, None)
        if value is not None and value < low:
            raise InvalidArgs(f"--{dest.replace('_', '-')} must be >= {low}, got {value!r}")


# parameters that name a file; a manifest records them as absolute paths, so
# it replays from any working directory
_PATH_KEYS = ("input", "beta")


def _manifest(args, command_parser: argparse.ArgumentParser, stop_reason: str | None) -> str:
    """The run's manifest.json: its ``params``, the command parser's
    parameters, replay it through ``--config``; a path's ``stop_reason`` and
    the BLAS thread variables as ``import ebicglm`` left them sit beside
    ``params``, so replay ignores them."""
    params = {dest: getattr(args, dest) for dest in _param_actions(command_parser)}
    for dest in _PATH_KEYS:
        if params.get(dest) is not None:
            params[dest] = os.path.abspath(params[dest])
    manifest = {
        "tool": "ebicglm",
        "version": __version__,
        "command": args.command,
        "params": params,
        "blas_threads": _BLAS_THREADS,
    }
    if stop_reason is not None:
        manifest["stop_reason"] = stop_reason
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _select_config(args) -> SelectConfig:
    """select's flags as a SelectConfig; an unset flag keeps the field's default."""
    fields = {
        "gammas": tuple(args.gamma) if args.gamma else None,
        "max_steps": args.max_steps,
        "screen_threshold": args.screen_threshold,
        "screen_keep": args.screen_keep,
        "include_intercept": not args.no_intercept,
    }
    return SelectConfig(**{k: v for k, v in fields.items() if v is not None})


def _feature_names(data: Dataset) -> tuple:
    """The CSV's covariate names, or x1..xp for data that carry none."""
    return data.feature_names or tuple(f"x{j + 1}" for j in range(data.p))


# ---------------------------------------------------------------------------
# subcommands: each returns its result files, the table it prints and the
# path's stop reason (None where there is no path); main alone writes them,
# with the manifest, into --out and prints the table
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> tuple:
    data = Dataset.from_csv(args.input)
    lf = parse_link_family(args.link, args.family)
    gamma = resolve_gamma(args.gamma, data.n, data.p)
    if args.features is not None:
        try:
            cols = [int(t) for t in args.features.split(",")]  # 1-based
        except ValueError:
            raise InvalidArgs(
                f"--features must be comma-separated column numbers, got {args.features!r}"
            ) from None
        for c in cols:
            if not 1 <= c <= data.p:
                raise InvalidArgs(f"--features column {c} is not in 1..{data.p}")
        if len(set(cols)) < len(cols):
            raise InvalidArgs(f"--features names a column twice: {args.features!r}")
        idx = tuple(c - 1 for c in cols)
    else:
        if data.p > data.n - 2:
            raise InvalidArgs(
                f"--features is required when p={data.p} exceeds n-2={data.n - 2}"
            )
        idx = tuple(range(data.p))
    model = ModelIndex(idx, include_intercept=not args.no_intercept)
    fit = fit_mle(lf, data, model)
    sc = ebic_score(fit, model, data.n, data.p, gamma)

    names = _feature_names(data)
    terms = ["(intercept)"] if model.include_intercept else []
    terms += [names[j] for j in model.indices]
    table = _tsv([
        ("term", "coefficient"),
        *zip(terms, (float(b) for b in fit.beta)),
        ("log_lik", fit.log_lik),
        ("ebic", sc.ebic),
        ("gamma", gamma),
        ("converged", fit.converged),
        ("quasi_separated", fit.quasi_separated),
    ])
    return {"fit.tsv": table}, table, None


def _cmd_select(args) -> tuple:
    data = Dataset.from_csv(args.input)
    lf = parse_link_family(args.link, args.family)
    report = select_pipeline(lf, data, _select_config(args))
    path = report.path

    names = _feature_names(data)
    steps = [("step", "feature", "name", "log_lik", *(f"ebic_{s}" for s in report.gamma_specs)),
             (0, "-", "(null)", path.null_fit.log_lik, *(s.ebic for s in path.null_scores))]
    for i, step in enumerate(path.steps, start=1):
        steps.append((i, step.feature + 1, names[step.feature], step.fit.log_lik,
                      *(s.ebic for s in step.scores)))
    chosen = [("gamma_spec", "gamma", "size", "features", "feature_names", "log_lik")]
    for spec, g, model in zip(report.gamma_specs, report.gammas, report.final_models):
        chosen.append((spec, float(g), model.size,
                       ",".join(str(j + 1) for j in model.indices) or "-",
                       ",".join(names[j] for j in model.indices) or "-",
                       path.fit_for(g).log_lik))
    path_tsv, chosen_tsv = _tsv(steps), _tsv(chosen)
    return {"path.tsv": path_tsv, "chosen.tsv": chosen_tsv}, chosen_tsv, path.stop_reason


def _cmd_simulate(args) -> tuple:
    # the pool and the generators load with the two commands that use them
    # (README, "Start-up")
    from .experiments import run_simulation_batch
    from .simgen import design_for, generate_replicate

    design = design_for(args.setting, args.n, rho=args.rho)
    config = None
    if args.gamma:
        # the simulated model has no intercept, so replication fits none
        config = SelectConfig(gammas=tuple(args.gamma), include_intercept=False)
    summary = run_simulation_batch(
        design, args.reps, config=config, seed=args.seed, threads=_threads(args)
    )
    labels = [c.gamma_label for c in summary.cells]
    replicates = [("replicate", "gamma", "pdr", "fdr")]
    for rid, metrics in summary.replicate_metrics:
        replicates += [(rid, label, m.pdr, m.fdr) for label, m in zip(labels, metrics)]
    files = {"summary.tsv": summary.to_tsv(), "replicates.tsv": _tsv(replicates)}
    if summary.failures:
        files["failures.tsv"] = _tsv([("replicate", "error"), *summary.failures])
    for rid in range(min(args.reps, args.dump_data)):
        data = generate_replicate(design, args.seed, rid).dataset
        csv = io.StringIO()
        # %.17g round-trips every double, so a dump reloads the exact data
        np.savetxt(csv, np.column_stack([data.y, data.X]), fmt="%.17g", delimiter=",",
                   header=",".join(["y", *_feature_names(data)]), comments="")
        files[f"replicate_{rid}.csv"] = csv.getvalue()
    if args.dump_data:
        # the design's fields in declaration order, then its support
        files["design.json"] = json.dumps(
            {**asdict(design), "true_support_1based": [j + 1 for j in design.support]},
            indent=2,
        ) + "\n"
    return files, files["summary.tsv"], None


def _cmd_cv_links(args) -> tuple:
    from .experiments import cv_select_link

    report = cv_select_link(
        Dataset.from_csv(args.input),
        [s.strip() for s in args.links.split(",") if s.strip()],
        path_length=args.path_length,
        folds=args.folds,
        seed=args.seed,
        threads=_threads(args),
    )
    table = _tsv([
        ("link", "held_out_log_lik", "chosen"),
        *((name, value, "*" if name == report.chosen else "")
          for name, value in zip(report.link_names, report.criteria)),
    ])
    return {"cv_links.tsv": table}, table, None


def _cmd_diagnose(args) -> tuple:
    data = Dataset.from_csv(args.input)
    lf = parse_link_family(args.link, args.family)
    try:
        beta0 = np.loadtxt(args.beta, ndmin=1, dtype=float)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read coefficient file {args.beta}: {exc}") from None
    rep = c6_diagnostics(lf, data, beta0)
    quantities = ("first_ratio", "second_ratio", "n_threshold", "first_below_threshold",
                  "second_below_threshold", "max_abs_x", "max_abs_h_prime",
                  "max_abs_h_double_prime", "sigma2_min", "sigma2_max")
    table = _tsv([("quantity", "value"), *((q, getattr(rep, q)) for q in quantities)])
    return {"diagnostics.tsv": table}, table, None


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="ebicglm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ebicglm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser

    def common(p, needs_input=True, link=None):
        if needs_input:
            p.add_argument("--input", required=True, help="CSV with y as first column")
        if link:  # the command fits a family/link pair
            p.add_argument("--link", default=link)
            p.add_argument("--family", default=None)
        p.add_argument("--config", help="JSON config/manifest; overrides flags")
        p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("fit", help="fit one model, print coefficients + logLik + EBIC")
    common(p, link="logit")
    p.add_argument("--features", default=None, help="comma list of 1-based columns")
    p.add_argument("--gamma", default="bic")
    p.add_argument("--no-intercept", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("select", help="screen + forward selection on a CSV")
    common(p, link="logit")
    p.add_argument("--gamma", action="append", default=None,
                   help="gamma value or preset; repeatable, all read off one path")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--screen-threshold", type=int, default=None)
    p.add_argument("--screen-keep", type=int, default=None)
    p.add_argument("--no-intercept", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("simulate", help="replicate batch with PDR/FDR summary")
    common(p, needs_input=False)
    p.add_argument("--setting", default="1", choices=["1", "2", "3", "S1", "S2", "S3"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", action="append", default=None)
    p.add_argument("--dump-data", type=int, default=0,
                   help="also write the first K replicates as CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("cv-links", help="k-fold CV choice among link functions")
    common(p)
    p.add_argument("--links", default="logit,probit,cauchit,cloglog")
    p.add_argument("--folds", type=int, default=8)
    p.add_argument("--path-length", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cv_links)

    p = sub.add_parser("diagnose", help="information-ratio diagnostics at beta0")
    common(p, link="cloglog")
    p.add_argument("--beta", required=True, help="text file, one coefficient per row")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        command_parser = parser.commands[args.command]
        _merge_config_file(args, command_parser)
        _check_ranges(args)
        files, table, stop_reason = args.func(args)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            files["manifest.json"] = _manifest(args, command_parser, stop_reason)
            for name, content in files.items():
                (out / name).write_text(content, encoding="utf-8")
        sys.stdout.write(table)
        return 0
    except OSError as exc:
        print(f"ebicglm: data error: {exc}", file=sys.stderr)
        return 2
    except EbicGlmError as exc:
        # each error class names its own exit code and label (errors.py)
        print(f"ebicglm: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
