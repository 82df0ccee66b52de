"""Command-line interface: fit, select, simulate, cv-links, diagnose.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every output-producing run writes a ``manifest.json`` that reproduces it
bit for bit via ``--config manifest.json`` at the same BLAS thread count
(``OPENBLAS_NUM_THREADS``), whatever ``--threads`` (worker processes) is.
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

from . import __version__
from .ebic import ebic_score, resolve_gamma
from .errors import DataError, EbicGlmError, InvalidArgs
from .glm import Dataset, ModelIndex, c6_diagnostics, fit_mle
from .links import parse_link_family
from .select import SelectConfig, select_pipeline
from .simgen import design_for, generate_replicate
from .experiments import cv_select_link, run_simulation_batch

class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract wants 1
    def error(self, message):
        raise InvalidArgs(message)


def _fmt(x) -> str:
    if x is None:  # a statistic that does not apply
        return "NA"
    if isinstance(x, float):
        return "NA" if not np.isfinite(x) else f"{x:.6f}"
    return str(x)


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


def _manifest(args) -> dict:
    params = {dest: getattr(args, dest)
              for dest in _param_actions(_build_parser().commands[args.command])}
    for dest in _PATH_KEYS:
        if params.get(dest) is not None:
            params[dest] = os.path.abspath(params[dest])
    return {
        "tool": "ebicglm",
        "version": __version__,
        "command": args.command,
        "params": params,
    }


def _write_out(args, files: dict, stop_reason: str | None = None) -> None:
    """Write the result files and the run's manifest into ``args.out``; a
    path's ``stop_reason`` goes into the manifest beside ``params``, so
    ``--config`` replay ignores it."""
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (path / name).write_text(content, encoding="utf-8")
    manifest = _manifest(args)
    if stop_reason is not None:
        manifest["stop_reason"] = stop_reason
    (path / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    data = Dataset.from_csv(args.input)
    lf = parse_link_family(args.link, args.family)
    data.validate_for_family(lf.family)
    gamma = resolve_gamma(args.gamma, data.n, data.p)
    if args.features:
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

    lines = ["term\tcoefficient"]
    names = data.feature_names or tuple(f"x{j + 1}" for j in range(data.p))
    off = 0
    if model.include_intercept:
        lines.append(f"(intercept)\t{_fmt(float(fit.beta[0]))}")
        off = 1
    for pos, j in enumerate(model.indices):
        lines.append(f"{names[j]}\t{_fmt(float(fit.beta[off + pos]))}")
    lines += [
        f"log_lik\t{_fmt(fit.log_lik)}",
        f"ebic\t{_fmt(sc.ebic)}",
        f"gamma\t{_fmt(gamma)}",
        f"converged\t{fit.converged}",
        f"quasi_separated\t{fit.quasi_separated}",
    ]
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.out:
        _write_out(args, {"fit.tsv": table})
    return 0


def _cmd_select(args) -> int:
    data = Dataset.from_csv(args.input)
    lf = parse_link_family(args.link, args.family)
    data.validate_for_family(lf.family)
    config = _select_config(args)
    report = select_pipeline(lf, data, config)

    names = data.feature_names or tuple(f"x{j + 1}" for j in range(data.p))
    head = ["step", "feature", "name", "log_lik"]
    head += [f"ebic_{spec}" for spec in report.gamma_specs]
    lines = ["\t".join(head)]
    null_row = ["0", "-", "(null)", _fmt(report.path.null_fit.log_lik)]
    null_row += [_fmt(s.ebic) for s in report.path.null_scores]
    lines.append("\t".join(null_row))
    for i, step in enumerate(report.path.steps):
        row = [str(i + 1), str(step.feature + 1), names[step.feature], _fmt(step.fit.log_lik)]
        row += [_fmt(s.ebic) for s in step.scores]
        lines.append("\t".join(row))
    path_tsv = "\n".join(lines) + "\n"

    chosen = ["gamma_spec\tgamma\tsize\tfeatures\tfeature_names\tlog_lik"]
    for spec, g, model in zip(report.gamma_specs, report.gammas, report.final_models):
        feats = ",".join(str(j + 1) for j in model.indices) or "-"
        fnames = ",".join(names[j] for j in model.indices) or "-"
        fit = report.path.fit_for(g)
        chosen.append(
            f"{spec}\t{_fmt(float(g))}\t{model.size}\t{feats}\t{fnames}\t{_fmt(fit.log_lik)}"
        )
    chosen_tsv = "\n".join(chosen) + "\n"

    _write_out(args, {"path.tsv": path_tsv, "chosen.tsv": chosen_tsv},
               stop_reason=report.path.stop_reason)
    sys.stdout.write(chosen_tsv)
    return 0


def _cmd_simulate(args) -> int:
    design = design_for(args.setting, args.n, rho=args.rho)
    config = None
    if args.gamma:
        # the simulated model has no intercept, so replication fits none
        config = SelectConfig(gammas=tuple(args.gamma), include_intercept=False)
    summary = run_simulation_batch(
        design, args.reps, config=config, seed=args.seed, threads=_threads(args)
    )
    files = {"summary.tsv": summary.to_tsv()}
    rep_lines = ["replicate\tgamma\tpdr\tfdr"]
    labels = [c.gamma_label for c in summary.cells]
    for rid, metrics in summary.replicate_metrics:
        for label, m in zip(labels, metrics):
            rep_lines.append(f"{rid}\t{label}\t{_fmt(m.pdr)}\t{_fmt(m.fdr)}")
    files["replicates.tsv"] = "\n".join(rep_lines) + "\n"
    if summary.failures:
        files["failures.tsv"] = (
            "replicate\terror\n"
            + "\n".join(f"{rid}\t{msg}" for rid, msg in summary.failures)
            + "\n"
        )
    if args.dump_data:
        for rid in range(min(args.reps, args.dump_data)):
            data = generate_replicate(design, args.seed, rid).dataset
            hdr = ",".join(["y"] + [f"x{j + 1}" for j in range(design.pn)])
            csv = io.StringIO()
            # %.17g round-trips every double, so a dump reloads the exact data
            np.savetxt(csv, np.column_stack([data.y, data.X]), fmt="%.17g", delimiter=",",
                       header=hdr, comments="")
            files[f"replicate_{rid}.csv"] = csv.getvalue()
        # the design's fields in declaration order, then its support
        files["design.json"] = json.dumps(
            {**asdict(design), "true_support_1based": [j + 1 for j in design.support]},
            indent=2,
        ) + "\n"
    _write_out(args, files)
    sys.stdout.write(summary.to_tsv())
    return 0


def _cmd_cv_links(args) -> int:
    data = Dataset.from_csv(args.input)
    links = [s.strip() for s in args.links.split(",") if s.strip()]
    for name in links:
        lf = parse_link_family(name)
        data.validate_for_family(lf.family)
    report = cv_select_link(
        data,
        links,
        path_length=args.path_length,
        folds=args.folds,
        seed=args.seed,
        threads=_threads(args),
    )
    lines = ["link\theld_out_log_lik\tchosen"]
    for name, value in zip(report.link_names, report.criteria):
        lines.append(f"{name}\t{_fmt(value)}\t{'*' if name == report.chosen else ''}")
    table = "\n".join(lines) + "\n"
    _write_out(args, {"cv_links.tsv": table})
    sys.stdout.write(table)
    return 0


def _cmd_diagnose(args) -> int:
    data = Dataset.from_csv(args.input)
    lf = parse_link_family(args.link, args.family)
    try:
        beta0 = np.loadtxt(args.beta, ndmin=1, dtype=float)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read coefficient file {args.beta}: {exc}") from None
    rep = c6_diagnostics(lf, data, beta0)
    lines = [
        "quantity\tvalue",
        f"first_ratio\t{_fmt(rep.first_ratio)}",
        f"second_ratio\t{_fmt(rep.second_ratio)}",
        f"n_threshold\t{_fmt(rep.n_threshold)}",
        f"first_below_threshold\t{_fmt(rep.first_below_threshold)}",
        f"second_below_threshold\t{_fmt(rep.second_below_threshold)}",
        f"max_abs_x\t{_fmt(rep.max_abs_x)}",
        f"max_abs_h_prime\t{_fmt(rep.max_abs_h_prime)}",
        f"max_abs_h_double_prime\t{_fmt(rep.max_abs_h_double_prime)}",
        f"sigma2_min\t{_fmt(rep.sigma2_min)}",
        f"sigma2_max\t{_fmt(rep.sigma2_max)}",
    ]
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.out:
        _write_out(args, {"diagnostics.tsv": table})
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="ebicglm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ebicglm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="CSV with y as first column")
        p.add_argument("--config", help="JSON config/manifest; overrides flags")
        p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("fit", help="fit one model, print coefficients + logLik + EBIC")
    common(p)
    p.add_argument("--link", default="logit")
    p.add_argument("--family", default=None)
    p.add_argument("--features", default=None, help="comma list of 1-based columns")
    p.add_argument("--gamma", default="bic")
    p.add_argument("--no-intercept", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("select", help="screen + forward selection on a CSV")
    common(p)
    p.add_argument("--link", default="logit")
    p.add_argument("--family", default=None)
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
    common(p)
    p.add_argument("--link", default="cloglog")
    p.add_argument("--family", default=None)
    p.add_argument("--beta", required=True, help="text file, one coefficient per row")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config_file(args, parser.commands[args.command])
        _check_ranges(args)
        return args.func(args)
    except OSError as exc:
        print(f"ebicglm: data error: {exc}", file=sys.stderr)
        return 2
    except EbicGlmError as exc:
        # each error class names its own exit code and label (errors.py)
        print(f"ebicglm: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
