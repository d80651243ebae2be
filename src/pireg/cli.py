"""Command line interface.

Verbs: train (one split), bench (multi-split benchmark), sweep-alpha,
sweep-hparam, gen-data, report.  Configuration resolves as defaults ->
catalog entry (--name) -> config file (--config) -> flags.  Each run-verb
config flag is one row of the flag table and sets exactly one field of
``pireg.config``; gen-data's flags default to ``DataSpec``'s.  Exit codes:
0 success, 2 configuration error, 3 data error, 4 training divergence,
5 I/O error, 141 (128 + SIGPIPE) when the reader of stdout closed it early.
PIREG_OUT_DIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys

from .bench import (ALPHA_SWEEP_FIELDS, ALPHA_SWEEP_VARIANTS, HPARAM_SWEEP_FIELDS,
                    HPARAM_SWEEP_VARIANTS, run_alpha_sweep, run_benchmark, run_hyperparam_sweep)
from .config import GENERATOR_KINDS, VARIANT_READS, DataSpec, check_int, resolve_config
from .data import generate, save_delimited
from .errors import ConfigError, DataError, TrainingDiverged
from .losses import POINT_LOSSES, VARIANTS
from .report import _base_path, emit_report, format_report, load_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_IO = 5
EXIT_BROKEN_PIPE = 141

OUT_DIR_ENV = "PIREG_OUT_DIR"

DEFAULT_ALPHAS = "0.05,0.10,0.15,0.20,0.25,0.30"
DEFAULT_WEIGHTS = "0.1,0.5,0.99"
DEFAULT_PENALTIES = "1,4,15,40"


def _comma_list(text, kind=float):
    try:
        return [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"expected comma-separated {noun}, got {text!r}") from None


def _int_or_name(text):
    try:
        return int(text)
    except ValueError:
        return text


# (flag, config field "section.key" or top-level key, argparse type, parser
# run inside main's error handler, help).  config_from_dict validates sections
# in the order they first appear, so keep data, model, loss, optimizer, splits.
_CONFIG_FLAGS = (
    ("--name", "name", None, None, "catalog entry supplying per-dataset defaults"),
    ("--seed", "seed", int, None, None),
    ("--ensemble-size", "ensemble_size", int, None, None),
    ("--data-path", "data.path", None, None, "delimited data file (sets data kind to file)"),
    ("--target-column", "data.target_column", None, _int_or_name,
     "target column index or header name"),
    ("--delimiter", "data.delimiter", None, None, None),
    ("--data-n", "data.n", int, None, "generator sample count"),
    ("--noise-scale", "data.noise_scale", float, None, None),
    ("--skew-alpha", "data.skew_alpha", float, None, None),
    ("--hidden", "model.hidden_sizes", None, lambda text: _comma_list(text, int),
     "comma-separated hidden layer sizes"),
    ("--head-bias", "model.head_bias", None, _comma_list, "initial upper,lower head biases"),
    ("--alpha", "loss.alpha", float, None, "target miscoverage"),
    ("--coverage-penalty", "loss.coverage_penalty", float, None, None),
    ("--soften", "loss.soften", float, None, None),
    ("--interval-weight", "loss.interval_weight", float, None, None),
    ("--variant", "loss.variant", None, None, " | ".join(VARIANTS)),
    ("--point-loss", "loss.point_loss", None, None, " | ".join(POINT_LOSSES)),
    ("--lr", "optimizer.learning_rate", float, None, None),
    ("--decay", "optimizer.decay", float, None, None),
    ("--batch-size", "optimizer.batch_size", int, None, None),
    ("--max-epochs", "optimizer.max_epochs", int, None, None),
    ("--patience", "optimizer.patience", int, None, None),
    ("--validation-fraction", "optimizer.validation_fraction", float, None, None),
    ("--splits", "splits.count", int, None, "number of train/test splits"),
    ("--test-fraction", "splits.test_fraction", float, None, None),
)


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file")
    for flag, _, kind, _, help_text in _CONFIG_FLAGS:
        p.add_argument(flag, type=kind, help=help_text)
    p.add_argument("--no-predictions", action="store_true",
                   help="do not persist per-sample predictions in reports")
    p.add_argument("--out", help="output base path for report files")


def _given(args, flag):
    return getattr(args, flag[2:].replace("-", "_"))


def _overrides_from(args) -> dict:
    over: dict = {}
    for flag, field, _, parse, _ in _CONFIG_FLAGS:
        value = _given(args, flag)
        if value is None:
            continue
        if parse is not None:
            value = parse(value)
        section, _, key = field.rpartition(".")
        (over.setdefault(section, {}) if section else over)[key] = value
    if args.data_path is not None:
        over["data"]["kind"] = "file"
    if args.no_predictions:
        over["store_predictions"] = False
    return over


def _resolve(args, variants=None, grid_fields=()):
    """The run's config; ``variants`` are those the verb trains, by default
    the config's own, and ``grid_fields`` the loss fields its grid sets.  A
    flag given for a field the grid sets, or that none of them reads, is
    refused."""
    config = resolve_config(name=args.name, config_path=args.config,
                            overrides=_overrides_from(args))
    variants = variants or (config.loss.variant,)
    declared = {field for reads in VARIANT_READS.values() for field in reads}
    grid = {f"loss.{name}" for name in grid_fields}
    for flag, field, _, _, _ in _CONFIG_FLAGS:
        if _given(args, flag) is None:
            continue
        if field in grid:
            raise ConfigError(f"{flag} has no effect under {args.command}, whose grid sets it")
        if field in declared and not any(field in VARIANT_READS[v] for v in variants):
            raise ConfigError(f"{flag} has no effect under variant "
                              f"{' and '.join(map(repr, variants))}")
    return config


def _out_base(args, config, suffix) -> str:
    """Output base path; its directory must exist before any training starts."""
    base = args.out or os.path.join(
        config.out_dir or os.environ.get(OUT_DIR_ENV) or ".", f"{config.name}_{suffix}")
    if not os.path.basename(_base_path(base)):
        raise ConfigError(f"--out {base!r} names a directory, not a base file name")
    directory = os.path.dirname(base) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), directory)
    return base


def _finish(report, base) -> int:
    paths = emit_report(report, base)
    print(format_report(report))
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    """``bench``, and ``train``: a bench on one split."""
    config = _resolve(args)
    if args.command == "train":
        config = dataclasses.replace(config, splits=dataclasses.replace(config.splits, count=1))
    base = _out_base(args, config, args.command)
    return _finish(run_benchmark(config), base)


def _cmd_sweep_alpha(args) -> int:
    config = _resolve(args, ALPHA_SWEEP_VARIANTS, ALPHA_SWEEP_FIELDS)
    alphas = _comma_list(args.alphas)
    base = _out_base(args, config, "alpha_sweep")
    return _finish(run_alpha_sweep(config, alphas), base)


def _cmd_sweep_hparam(args) -> int:
    config = _resolve(args, HPARAM_SWEEP_VARIANTS, HPARAM_SWEEP_FIELDS)
    weights, penalties = _comma_list(args.interval_weights), _comma_list(args.coverage_penalties)
    base = _out_base(args, config, "hparam_sweep")
    return _finish(run_hyperparam_sweep(config, weights, penalties), base)


def _cmd_gen_data(args) -> int:
    if args.kind not in (None, *GENERATOR_KINDS):
        raise ConfigError(f"unknown generator kind {args.kind!r}")
    check_int("seed", args.seed, 0)
    # Flags left out keep DataSpec's defaults.
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(DataSpec)}
    spec = DataSpec(**{key: value for key, value in given.items() if value is not None})
    dataset = generate(spec, args.seed)
    save_delimited(dataset, args.out)
    print(f"wrote {args.out} ({dataset.n} rows)")
    return EXIT_OK


def _cmd_report(args) -> int:
    print(format_report(load_report(args.path)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pireg",
        description="Prediction intervals with joint value prediction: "
                    "training, benchmarking, sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    for verb, help_text in (("train", "train one ensemble on a single split"),
                            ("bench", "multi-split benchmark")):
        p = sub.add_parser(verb, help=help_text)
        _add_config_flags(p)
        p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep-alpha", help="sweep the miscoverage target")
    _add_config_flags(p)
    p.add_argument("--alphas", default=DEFAULT_ALPHAS,
                   help=f"comma-separated grid (default {DEFAULT_ALPHAS})")
    p.set_defaults(func=_cmd_sweep_alpha)

    p = sub.add_parser("sweep-hparam", help="sweep loss mixing weight and coverage penalty")
    _add_config_flags(p)
    p.add_argument("--interval-weights", default=DEFAULT_WEIGHTS,
                   help=f"comma-separated grid (default {DEFAULT_WEIGHTS})")
    p.add_argument("--coverage-penalties", default=DEFAULT_PENALTIES,
                   help=f"comma-separated grid (default {DEFAULT_PENALTIES})")
    p.set_defaults(func=_cmd_sweep_hparam)

    p = sub.add_parser("gen-data", help="write a synthetic dataset to CSV")
    p.add_argument("--kind", help=" | ".join(GENERATOR_KINDS))
    p.add_argument("--n", type=int)
    p.add_argument("--x-low", type=float)
    p.add_argument("--x-high", type=float)
    p.add_argument("--noise-scale", type=float)
    p.add_argument("--skew-alpha", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("report", help="pretty-print a report file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except BrokenPipeError:
        # A pipeline reader that stops early (`pireg report r.json | head -1`)
        # is not a filesystem error.  Stdout now points at devnull, so the
        # interpreter's flush at exit has nowhere left to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
