"""Command line interface.

Verbs: train (one split), bench (multi-split benchmark), sweep-alpha,
sweep-hparam, gen-data, report.  Configuration resolves as defaults ->
catalog entry (--name) -> config file (--config) -> flags.  Exit codes:
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

from .bench import (emit_report, format_report, load_dataset, load_report, run_alpha_sweep,
                    run_benchmark, run_hyperparam_sweep)
from .config import GENERATOR_KINDS, DataSpec, check_int, resolve_config
from .data import save_delimited
from .errors import ConfigError, DataError, TrainingDiverged

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


def _floats(text):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _ints(text):
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--name", help="catalog entry supplying per-dataset defaults")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--ensemble-size", type=int)
    p.add_argument("--splits", type=int, help="number of train/test splits")
    p.add_argument("--test-fraction", type=float)
    p.add_argument("--data-path", help="delimited data file (sets data kind to file)")
    p.add_argument("--target-column", help="target column index or header name")
    p.add_argument("--delimiter")
    p.add_argument("--data-n", type=int, help="generator sample count")
    p.add_argument("--noise-scale", type=float)
    p.add_argument("--skew-alpha", type=float)
    p.add_argument("--hidden", help="comma-separated hidden layer sizes")
    p.add_argument("--head-bias", help="initial upper,lower head biases")
    p.add_argument("--alpha", type=float, help="target miscoverage")
    p.add_argument("--coverage-penalty", type=float)
    p.add_argument("--soften", type=float)
    p.add_argument("--interval-weight", type=float)
    p.add_argument("--variant", help="joint | interval_only | midpoint | decoupled | gaussian_nll")
    p.add_argument("--point-loss", help="squared | absolute")
    p.add_argument("--lr", type=float)
    p.add_argument("--decay", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--validation-fraction", type=float)
    p.add_argument("--no-predictions", action="store_true",
                   help="do not persist per-sample predictions in reports")
    p.add_argument("--out", help="output base path for report files")


def _overrides_from(args) -> dict:
    over: dict = {}

    def put(section, key, value):
        if value is not None:
            over.setdefault(section, {})[key] = value

    if args.data_path is not None:
        over.setdefault("data", {})["kind"] = "file"
        over["data"]["path"] = args.data_path
    if args.target_column is not None:
        col = args.target_column
        try:
            col = int(col)
        except ValueError:
            pass
        over.setdefault("data", {})["target_column"] = col
    put("data", "delimiter", args.delimiter)
    put("data", "n", args.data_n)
    put("data", "noise_scale", args.noise_scale)
    put("data", "skew_alpha", args.skew_alpha)
    if args.hidden is not None:
        over.setdefault("model", {})["hidden_sizes"] = _ints(args.hidden)
    if args.head_bias is not None:
        over.setdefault("model", {})["head_bias"] = _floats(args.head_bias)
    put("loss", "alpha", args.alpha)
    put("loss", "coverage_penalty", args.coverage_penalty)
    put("loss", "soften", args.soften)
    put("loss", "interval_weight", args.interval_weight)
    put("loss", "variant", args.variant)
    put("loss", "point_loss", args.point_loss)
    put("optimizer", "learning_rate", args.lr)
    put("optimizer", "decay", args.decay)
    put("optimizer", "batch_size", args.batch_size)
    put("optimizer", "max_epochs", args.max_epochs)
    put("optimizer", "patience", args.patience)
    put("optimizer", "validation_fraction", args.validation_fraction)
    if args.seed is not None:
        over["seed"] = args.seed
    if args.ensemble_size is not None:
        over["ensemble_size"] = args.ensemble_size
    if args.splits is not None:
        over.setdefault("splits", {})["count"] = args.splits
    if args.test_fraction is not None:
        over.setdefault("splits", {})["test_fraction"] = args.test_fraction
    if args.no_predictions:
        over["store_predictions"] = False
    if args.name is not None:
        over["name"] = args.name
    return over


def _resolve(args):
    return resolve_config(name=args.name, config_path=args.config,
                          overrides=_overrides_from(args))


def _out_base(args, config, suffix) -> str:
    """Output base path; its directory must exist before any training starts."""
    base = args.out or os.path.join(
        config.out_dir or os.environ.get(OUT_DIR_ENV) or ".", f"{config.name}_{suffix}")
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


def _cmd_train(args) -> int:
    config = _resolve(args)
    config = dataclasses.replace(
        config, splits=dataclasses.replace(config.splits, count=1))
    base = _out_base(args, config, "train")
    return _finish(run_benchmark(config), base)


def _cmd_bench(args) -> int:
    config = _resolve(args)
    base = _out_base(args, config, "bench")
    return _finish(run_benchmark(config), base)


def _cmd_sweep_alpha(args) -> int:
    config = _resolve(args)
    alphas = _floats(args.alphas)
    base = _out_base(args, config, "alpha_sweep")
    return _finish(run_alpha_sweep(config, alphas), base)


def _cmd_sweep_hparam(args) -> int:
    config = _resolve(args)
    weights, penalties = _floats(args.interval_weights), _floats(args.coverage_penalties)
    base = _out_base(args, config, "hparam_sweep")
    return _finish(run_hyperparam_sweep(config, weights, penalties), base)


def _cmd_gen_data(args) -> int:
    if args.kind not in GENERATOR_KINDS:
        raise ConfigError(f"unknown generator kind {args.kind!r}")
    check_int("seed", args.seed, 0)
    spec = DataSpec(kind=args.kind, n=args.n, x_low=args.x_low, x_high=args.x_high,
                    noise_scale=args.noise_scale, skew_alpha=args.skew_alpha)
    dataset = load_dataset(spec, args.seed)
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

    p = sub.add_parser("train", help="train one ensemble on a single split")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("bench", help="multi-split benchmark")
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
    p.add_argument("--kind", default="sine", help="sine | flat_skew")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--x-low", type=float, default=-2.0)
    p.add_argument("--x-high", type=float, default=2.0)
    p.add_argument("--noise-scale", type=float, default=0.3)
    p.add_argument("--skew-alpha", type=float, default=100.0)
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
