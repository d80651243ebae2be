"""CLI tests: exit codes per failure category, flag precedence, file outputs,
and the report/gen-data verbs.  All in-process through main(argv) except the
help and closed-pipe checks, which run the entry point declared in
pyproject.toml out of process, the way the installed `pireg` console script
would, and the smoke runs of the README quick start and scripts/sine_demo.py,
also out of process."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pireg
from pireg.cli import (EXIT_BROKEN_PIPE, EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, EXIT_IO,
                       EXIT_OK, OUT_DIR_ENV, main)
from pireg.config import VARIANT_READS, DataSpec, ExperimentConfig, config_to_dict
from pireg.data import load_delimited
from pireg.losses import VARIANTS
from pireg.report import format_report, load_report

FAST = ["--data-n", "40", "--hidden", "8", "--max-epochs", "8",
        "--batch-size", "10", "--ensemble-size", "1", "--lr", "0.02"]


def test_train_writes_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", *FAST, "--splits", "4", "--out", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "benchmark sine" in stdout and "wrote" in stdout
    report = load_report(f"{out}.json")
    # train always runs a single split, whatever --splits says
    assert len(report.splits) == 1
    assert report.config["splits"]["count"] == 1
    assert report.config["model"]["hidden_sizes"] == [8]
    assert report.config["ensemble_size"] == 1


def test_bench_runs_requested_splits(tmp_path):
    out = tmp_path / "b"
    code = main(["bench", *FAST, "--splits", "2", "--out", str(out)])
    assert code == EXIT_OK
    report = load_report(f"{out}.json")
    assert len(report.splits) == 2
    assert report.config["splits"]["count"] == 2


def test_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "data": {"n": 40},
        "model": {"hidden_sizes": [8]},
        "optimizer": {"max_epochs": 8, "batch_size": 10, "learning_rate": 0.02},
        "ensemble_size": 1,
        "loss": {"coverage_penalty": 9.0},
    }), encoding="utf-8")
    out_a = tmp_path / "filewins"
    assert main(["train", "--config", str(cfg_path), "--out", str(out_a)]) == EXIT_OK
    assert load_report(f"{out_a}.json").config["loss"]["coverage_penalty"] == 9.0

    out_b = tmp_path / "flagwins"
    assert main(["train", "--config", str(cfg_path), "--coverage-penalty", "11.0",
                 "--out", str(out_b)]) == EXIT_OK
    assert load_report(f"{out_b}.json").config["loss"]["coverage_penalty"] == 11.0


# Every run-verb config flag with a non-default value and the config field it
# sets, as (field path, value) where a path is "section.key" or a top-level key.
FLAG_FIELDS = {
    "--name": ("name", "pinned"),
    "--seed": ("seed", 7),
    "--ensemble-size": ("ensemble_size", 2),
    "--splits": ("splits.count", 2),
    "--test-fraction": ("splits.test_fraction", 0.25),
    "--target-column": ("data.target_column", 1),
    "--delimiter": ("data.delimiter", ";"),
    "--data-n": ("data.n", 41),
    "--noise-scale": ("data.noise_scale", 0.5),
    "--skew-alpha": ("data.skew_alpha", 3.0),
    "--hidden": ("model.hidden_sizes", [4, 3]),
    "--head-bias": ("model.head_bias", [2.0, -2.5]),
    "--alpha": ("loss.alpha", 0.1),
    "--coverage-penalty": ("loss.coverage_penalty", 9.0),
    "--soften": ("loss.soften", 80.0),
    "--interval-weight": ("loss.interval_weight", 0.3),
    "--variant": ("loss.variant", "midpoint"),
    "--point-loss": ("loss.point_loss", "absolute"),
    "--lr": ("optimizer.learning_rate", 0.02),
    "--decay": ("optimizer.decay", 0.99),
    "--batch-size": ("optimizer.batch_size", 7),
    "--max-epochs": ("optimizer.max_epochs", 3),
    "--patience": ("optimizer.patience", 5),
    "--validation-fraction": ("optimizer.validation_fraction", 0.2),
}
# Config fields that no run-verb flag sets: --data-path sets data.kind to
# "file", and the generator's x range and the output directory come from
# config files only.
NO_FLAG_FIELDS = {"data.x_low", "data.x_high", "data.kind", "out_dir"}


def _field_paths(config):
    paths = set()
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            paths.update(f"{f.name}.{g.name}" for g in dataclasses.fields(value))
        else:
            paths.add(f.name)
    return paths


def _lookup(config_dict, path):
    for key in path.split("."):
        config_dict = config_dict[key]
    return config_dict


def test_every_config_field_has_one_run_flag(tmp_path):
    table = tmp_path / "t.csv"
    rows = [f"{i};{i % 3};{(i * 7) % 5}" for i in range(30)]
    table.write_text("u;y;v\n" + "\n".join(rows) + "\n", encoding="utf-8")
    argv = ["bench", "--data-path", str(table), "--no-predictions", "--out",
            str(tmp_path / "pin")]
    for flag, (_, value) in FLAG_FIELDS.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        argv += [flag, text]
    assert main(argv) == EXIT_OK
    config = load_report(tmp_path / "pin.json").config
    defaults = config_to_dict(ExperimentConfig())
    for flag, (path, value) in FLAG_FIELDS.items():
        assert _lookup(config, path) == value and _lookup(defaults, path) != value, flag
    assert type(config["data"]["target_column"]) is int
    assert config["data"]["kind"] == "file" and config["data"]["path"] == str(table)
    assert config["store_predictions"] is False
    flagged = {path for path, _ in FLAG_FIELDS.values()} | {"data.path", "store_predictions"}
    assert flagged.isdisjoint(NO_FLAG_FIELDS)
    assert _field_paths(ExperimentConfig()) == flagged | NO_FLAG_FIELDS


def _flag_text(value):
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_flag_the_variant_ignores_exits_two(tmp_path, capsys, variant):
    # Refused before any data is read or output written; every other loss
    # and model flag is taken.
    out = tmp_path / "run"
    for flag, (field, value) in FLAG_FIELDS.items():
        if not field.startswith(("loss.", "model.")) or field == "loss.variant":
            continue
        argv = ["train", *FAST, "--variant", variant, f"{flag}={_flag_text(value)}",
                "--max-epochs", "1", "--out", str(out)]
        code = main(argv)
        err = capsys.readouterr().err
        if field in VARIANT_READS[variant] or field == "model.hidden_sizes":
            assert code == EXIT_OK, flag
        else:
            assert code == EXIT_CONFIG, flag
            assert err.strip() == (f"configuration error: {flag} has no effect under "
                                   f"variant '{variant}'")
            assert not out.with_suffix(".json").exists()
        out.with_suffix(".json").unlink(missing_ok=True)


def test_ignored_flags_follow_the_run_variant_not_config_files(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"loss": {"variant": "gaussian_nll"},
                               "model": {"head_bias": [1.0, -1.0]}}), encoding="utf-8")
    out = str(tmp_path / "run")
    # The file's own head_bias is not checked; a flag is, against its variant.
    assert main(["bench", *FAST, "--splits", "1", "--config", str(cfg), "--out", out]) == EXIT_OK
    assert main(["bench", *FAST, "--config", str(cfg), "--soften", "9", "--out", out]) \
        == EXIT_CONFIG
    assert "--soften has no effect under variant 'gaussian_nll'" in capsys.readouterr().err
    # A sweep refuses a flag only when every variant it trains ignores it:
    # both sweeps train joint, whatever variant the config file names.
    assert main(["sweep-alpha", *FAST, "--splits", "1", "--alphas", "0.1", "--config",
                 str(cfg), "--head-bias=2,-2", "--point-loss", "absolute",
                 "--out", out]) == EXIT_OK


@pytest.mark.parametrize("verb, flag", [
    ("sweep-alpha", "--alpha=0.3"),
    ("sweep-alpha", "--variant=midpoint"),
    ("sweep-hparam", "--interval-weight=0.9"),
    ("sweep-hparam", "--coverage-penalty=9"),
    ("sweep-hparam", "--variant=midpoint"),
])
def test_a_flag_for_a_field_the_sweep_grid_sets_exits_two(tmp_path, capsys, verb, flag):
    # The grid's own value would replace the flag's, which the report's
    # config block would still record; refused before any training.
    out = tmp_path / "sweep"
    grid = ["--alphas", "0.1"] if verb == "sweep-alpha" else [
        "--interval-weights", "0.5", "--coverage-penalties", "4"]
    assert main([verb, *FAST, "--splits", "1", *grid, flag, "--out", str(out)]) == EXIT_CONFIG
    name = flag.partition("=")[0]
    assert capsys.readouterr().err.strip() == (
        f"configuration error: {name} has no effect under {verb}, whose grid sets it")
    assert not out.with_suffix(".json").exists()


def test_gen_data_defaults_are_the_data_spec_defaults(tmp_path):
    spec = DataSpec()
    explicit = ["--kind", spec.kind, "--n", str(spec.n), "--x-low", repr(spec.x_low),
                "--x-high", repr(spec.x_high), "--noise-scale", repr(spec.noise_scale),
                "--skew-alpha", repr(spec.skew_alpha)]
    assert main(["gen-data", "--out", str(tmp_path / "implicit.csv")]) == EXIT_OK
    assert main(["gen-data", *explicit, "--out", str(tmp_path / "explicit.csv")]) == EXIT_OK
    assert (tmp_path / "implicit.csv").read_bytes() == (tmp_path / "explicit.csv").read_bytes()


def test_catalog_name_applies_defaults(tmp_path):
    out = tmp_path / "cat"
    code = main(["train", "--name", "sine", "--max-epochs", "5", "--ensemble-size", "1",
                 "--lr", "0.02", "--out", str(out)])
    assert code == EXIT_OK
    report = load_report(f"{out}.json")
    assert report.name == "sine"
    assert report.config["model"]["hidden_sizes"] == [100]  # catalog entry
    assert report.config["optimizer"]["max_epochs"] == 5  # flag still wins


def test_out_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    assert main(["train", *FAST]) == EXIT_OK
    assert main(["bench", *FAST]) == EXIT_OK
    assert (tmp_path / "sine_train.json").exists() and (tmp_path / "sine_bench.json").exists()


def test_no_predictions_flag(tmp_path):
    out = tmp_path / "np"
    assert main(["train", *FAST, "--no-predictions", "--out", str(out)]) == EXIT_OK
    report = load_report(f"{out}.json")
    assert report.splits[0].predictions is None


def test_config_errors_exit_two(tmp_path, capsys):
    assert main(["train", *FAST, "--variant", "nonsense"]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert main(["train", *FAST, "--alpha", "1.5"]) == EXIT_CONFIG
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    assert main(["train", *FAST, "--head-bias", "1.0"]) == EXIT_CONFIG
    assert main(["train", *FAST, "--hidden", "4,x"]) == EXIT_CONFIG
    assert main(["sweep-alpha", *FAST, "--alphas", "a,b"]) == EXIT_CONFIG
    assert main(["gen-data", "--kind", "mystery", "--out", str(tmp_path / "g.csv")]) \
        == EXIT_CONFIG
    # Bad seeds and delimiters are configuration errors, caught before any
    # data is read: the data file below does not exist.
    missing = ["--data-path", str(tmp_path / "missing.csv")]
    for verb in ("train", "bench", "sweep-alpha", "sweep-hparam"):
        assert main([verb, *FAST, *missing, "--seed", "-1"]) == EXIT_CONFIG
    assert main(["gen-data", "--seed", "-2", "--out", str(tmp_path / "g.csv")]) == EXIT_CONFIG
    assert not (tmp_path / "g.csv").exists()
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": 1.5}), encoding="utf-8")
    assert main(["bench", *FAST, *missing, "--config", str(config)]) == EXIT_CONFIG
    # Mistyped config-file values: each would crash or be silently truncated
    # if it reached the model, the loss or the generator.
    for content in ({"model": {"head_bias": [1.0]}}, {"model": {"head_bias": ["a", 1]}},
                    {"ensemble_size": 1.5}, {"data": {"n": 50.5}}, {"loss": {"alpha": "0.1"}},
                    {"model": {"hidden_sizes": [8.7]}}, {"data": {"skew_alpha": "a"}},
                    {"data": {"x_low": "a", "x_high": "b"}}, {"data": {"target_column": 1.5}},
                    {"data": {"target_column": True}}, {"data": {"x_high": float("nan")}},
                    {"out_dir": 5}, {"store_predictions": "no"}, {"name": 7}):
        config.write_text(json.dumps(content), encoding="utf-8")
        assert main(["train", "--name", "sine", *missing, "--config", str(config)]) \
            == EXIT_CONFIG, content
    config.write_bytes(b'{"seed": 1, "name": "caf\xe9"}')
    assert main(["train", *FAST, *missing, "--config", str(config)]) == EXIT_CONFIG
    assert "invalid JSON ('utf-8' codec" in capsys.readouterr().err
    # A negative or non-finite noise scale would mirror or blow up the noise.
    for scale in ("-1", "nan"):
        assert main(["gen-data", "--n", "5", "--noise-scale", scale,
                     "--out", str(tmp_path / "g.csv")]) == EXIT_CONFIG
    assert not (tmp_path / "g.csv").exists()
    # Non-finite rates and loss scales are refused before any data is read.
    for flag in ("--lr", "--coverage-penalty", "--soften"):
        for value in ("nan", "inf"):
            assert main(["train", *FAST, *missing, flag, value]) == EXIT_CONFIG, (flag, value)
            assert "finite" in capsys.readouterr().err
    table = tmp_path / "d.csv"
    table.write_text("1,2\n3,4\n", encoding="utf-8")
    assert main(["bench", *FAST, "--data-path", str(table), "--delimiter", ";;"]) == EXIT_CONFIG
    assert "delimiter" in capsys.readouterr().err


def test_data_errors_exit_three(tmp_path, capsys):
    assert main(["train", *FAST, "--data-path", "/nonexistent/x.csv"]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert main(["report", str(tmp_path / "missing.json")]) == EXIT_DATA
    # A file that is not UTF-8 text, and a header narrower than its rows.
    not_utf8 = tmp_path / "latin1.csv"
    not_utf8.write_bytes(b"1,2\n3,\xff\n")
    narrow_header = tmp_path / "narrow.csv"
    narrow_header.write_text("a,b\n1,2,3\n", encoding="utf-8")
    for table, message in ((not_utf8, "not UTF-8 text"), (narrow_header, "header has 2 names")):
        assert main(["bench", *FAST, "--data-path", str(table)]) == EXIT_DATA
        assert message in capsys.readouterr().err
    # Every split failing on its data is a data error, not a divergence.
    assert main(["bench", "--name", "sine", "--data-n", "1", "--splits", "2",
                 "--out", str(tmp_path / "one_row")]) == EXIT_DATA
    one_row = "cannot split a dataset of 1 row(s)"
    assert capsys.readouterr().err == (f"data error: every split failed: split 0: {one_row}; "
                                       f"split 1: {one_row}\n")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["report", str(bad)]) == EXIT_DATA
    bad.write_bytes(b'{"kind": "caf\xe9"}')
    assert main(["report", str(bad)]) == EXIT_DATA
    assert "invalid report JSON ('utf-8' codec" in capsys.readouterr().err
    record = {"picp": 1.0, "mpiw": 1.0, "rmse": 0.0, "mae": 0.0, "n": 1}
    cell_without_normalized = {"kind": "alpha_sweep", "version": 1, "name": "s", "config": {},
                               "cells": [{"params": {}, "denormalized": record}],
                               "series": {}, "total_seconds": 0.0}
    for content in ({"kind": "benchmark", "version": 1}, [1, 2], cell_without_normalized):
        bad.write_text(json.dumps(content), encoding="utf-8")
        assert main(["report", str(bad)]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err


def test_divergence_exits_four(tmp_path, capsys):
    # An absurd learning rate sends the parameters to +-1e308 after one Adam
    # step; the next forward pass overflows and the run aborts.
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--data-n", "20", "--hidden", "4", "--max-epochs", "3",
                     "--batch-size", "20", "--ensemble-size", "1", "--lr", "1e308",
                     "--out", str(tmp_path / "d")])
    assert code == EXIT_DIVERGED
    assert "training diverged" in capsys.readouterr().err


def test_write_failures_exit_five(tmp_path, capsys):
    code = main(["train", *FAST, "--out", str(tmp_path / "no_dir" / "base")])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err
    code = main(["gen-data", "--n", "5", "--out", str(tmp_path / "no_dir" / "g.csv")])
    assert code == EXIT_IO


def test_missing_output_directory_fails_before_training(tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("training started although the output directory is missing")

    for name in ("run_benchmark", "run_alpha_sweep", "run_hyperparam_sweep"):
        monkeypatch.setattr(f"pireg.cli.{name}", must_not_run)
    missing = tmp_path / "no_dir"
    for verb in ("train", "bench", "sweep-alpha", "sweep-hparam"):
        assert main([verb, *FAST, "--out", str(missing / "base")]) == EXIT_IO
        assert "i/o error" in capsys.readouterr().err
    monkeypatch.setenv(OUT_DIR_ENV, str(missing))
    assert main(["bench", *FAST]) == EXIT_IO


def test_out_naming_a_directory_is_refused(tmp_path, monkeypatch, capsys):
    def must_not_run(config):
        raise AssertionError("trained although --out names no base file name")

    monkeypatch.setattr("pireg.cli.run_benchmark", must_not_run)
    for out in (f"{tmp_path}{os.sep}", str(tmp_path / ".json")):
        assert main(["train", *FAST, "--out", out]) == EXIT_CONFIG
        assert "names a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_grid_is_validated_before_training(tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("loaded data or trained before validating the whole grid")

    for name in ("load_dataset", "_prepare_split", "train_ensemble", "run_split"):
        monkeypatch.setattr(f"pireg.bench.{name}", must_not_run)
    out = ["--out", str(tmp_path / "sweep")]
    assert main(["sweep-alpha", *FAST, "--alphas", "0.05,1.5", *out]) == EXIT_CONFIG
    assert "alpha" in capsys.readouterr().err
    assert main(["sweep-hparam", *FAST, "--interval-weights", "0.5",
                 "--coverage-penalties", "15,-1", *out]) == EXIT_CONFIG
    assert "coverage_penalty" in capsys.readouterr().err


@pytest.mark.parametrize("verb, flags", [("bench", ["--splits", "2", "--alpha", "1e-17"]),
                                         ("sweep-alpha", ["--alphas", "1e-17"])])
def test_an_alpha_too_small_to_aggregate_exits_2_before_training(tmp_path, monkeypatch,
                                                                  capsys, verb, flags):
    # 1 - 1e-17/2 rounds to 1, so no interval can be widened at this alpha;
    # the loss config refuses it before any data is loaded or member trained.
    def must_not_run(*args, **kwargs):
        raise AssertionError("loaded data or trained at an alpha that cannot be aggregated")

    for name in ("load_dataset", "_prepare_split", "train_ensemble", "run_split"):
        monkeypatch.setattr(f"pireg.bench.{name}", must_not_run)
    assert main([verb, *FAST, *flags, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert "alpha 1e-17 is too small: 1 - alpha/2 rounds to 1" in capsys.readouterr().err


def test_gen_data_round_trip_and_determinism(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = ["gen-data", "--kind", "sine", "--n", "30", "--noise-scale", "0",
            "--seed", "5"]
    assert main([*argv, "--out", str(out_a)]) == EXIT_OK
    assert main([*argv, "--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    data = load_delimited(out_a, target_column="y")
    assert data.n == 30
    np.testing.assert_array_equal(data.targets, 1.5 * np.sin(data.features[:, 0]))


def test_report_verb_prints_tables(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["train", *FAST, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["report", f"{out}.json"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "benchmark sine" in stdout and "picp" in stdout


def test_report_verb_rejects_tampered_version(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["train", *FAST, "--out", str(out)]) == EXIT_OK
    blob = json.loads((tmp_path / "v.json").read_text())
    blob["version"] = 99
    (tmp_path / "v.json").write_text(json.dumps(blob), encoding="utf-8")
    assert main(["report", str(tmp_path / "v.json")]) == EXIT_DATA


@pytest.mark.parametrize("keys, value", [
    (("name",), 5), (("partial",), "yes"), (("errors",), [1]),
    (("splits", 0, "normalized", "n"), 3.5), (("splits", 0, "member_epochs"), [1.5])])
def test_report_verb_refuses_a_mistyped_field(tmp_path, capsys, keys, value):
    # A str or bool field holds that JSON type, and an int field an int.
    out = tmp_path / "r"
    assert main(["train", *FAST, "--out", str(out)]) == EXIT_OK
    blob = json.loads((tmp_path / "r.json").read_text())
    target = blob
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    (tmp_path / "r.json").write_text(json.dumps(blob), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", f"{out}.json"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "malformed report" in err and ".".join(map(str, keys)) in err


def test_sweep_alpha_verb(tmp_path):
    out = tmp_path / "sw"
    code = main(["sweep-alpha", "--data-n", "30", "--hidden", "4", "--max-epochs", "5",
                 "--batch-size", "30", "--ensemble-size", "1", "--splits", "1",
                 "--lr", "0.02", "--alphas", "0.1,0.3", "--out", str(out)])
    assert code == EXIT_OK
    report = load_report(f"{out}.json")
    assert report.kind == "alpha_sweep"
    assert len(report.cells) == 4
    assert "mpiw_improvement_pct" in report.series


def test_sweep_hparam_verb(tmp_path):
    out = tmp_path / "hp"
    code = main(["sweep-hparam", "--data-n", "30", "--hidden", "4", "--max-epochs", "5",
                 "--batch-size", "30", "--ensemble-size", "1", "--splits", "1",
                 "--lr", "0.02", "--interval-weights", "0.5",
                 "--coverage-penalties", "5,15", "--out", str(out)])
    assert code == EXIT_OK
    report = load_report(f"{out}.json")
    assert report.kind == "hparam_sweep"
    assert len(report.cells) == 2


REPO = Path(__file__).resolve().parents[1]
PYPROJECT = REPO / "pyproject.toml"

# What pip's console-script wrapper does: import the target, call it with
# argv[0] set to the script name, exit with its return value.
_WRAPPER = """\
import importlib, sys
module, _, func = sys.argv.pop(1).partition(":")
sys.argv[0] = "pireg"
sys.exit(getattr(importlib.import_module(module), func)())
"""


def child_env(**env_vars):
    """Environment for a fresh interpreter that imports the same pireg
    package this session imported, with env_vars added."""
    package_root = str(Path(pireg.__file__).resolve().parent.parent)
    env = {**os.environ, **env_vars}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root,
                                                      env.get("PYTHONPATH")]))
    return env


def run_pireg(*args, stdout=subprocess.PIPE, **env_vars):
    """Run the `pireg` entry point declared in pyproject.toml in a fresh
    interpreter (see child_env)."""
    text = PYPROJECT.read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text,
                        re.MULTILINE | re.DOTALL)
    assert scripts, "pyproject.toml declares no [project.scripts]"
    entry = re.search(r'^pireg\s*=\s*"([^"]+)"', scripts.group(1), re.MULTILINE)
    assert entry, "pyproject.toml declares no pireg script"
    return subprocess.run([sys.executable, "-c", _WRAPPER, entry.group(1), *args],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=child_env(**env_vars))


def test_every_split_diverging_exits_4_with_only_the_located_error(tmp_path):
    # Steps of 1e300 overflow every member at its first validation pass; the
    # trainer reports that itself, so numpy warns about none of it.
    proc = run_pireg("bench", "--name", "sine", "--splits", "2", "--max-epochs", "3",
                     "--lr", "1e300", "--out", str(tmp_path / "diverged"))
    assert proc.returncode == EXIT_DIVERGED
    assert proc.stderr == ("training diverged: every split failed: split 0: member 0: "
                           "non-finite validation loss nan at epoch 1; split 1: member 0: "
                           "non-finite validation loss nan at epoch 1\n")
    assert list(tmp_path.iterdir()) == []


def test_a_forked_bench_prints_its_table_once(tmp_path, monkeypatch):
    # Two splits of five members for up to 200 epochs on 81 rows (162,000
    # member-epoch-rows) train over forked workers.  With stdout a pipe, and
    # so block-buffered, a buffer a fork copied would print twice.
    import pireg.training as training

    argv = ["bench", "--name", "sine", "--splits", "2", "--max-epochs", "200"]
    proc = run_pireg(*argv, "--out", str(tmp_path / "piped"))
    assert proc.returncode == EXIT_OK, proc.stderr
    table = format_report(load_report(tmp_path / "piped.json")) + "\n"
    assert proc.stdout.startswith(table)
    wrote = proc.stdout[len(table):].splitlines()
    assert sorted(wrote) == sorted(f"wrote {path}" for path in tmp_path.glob("piped*"))

    forked = []
    real = training._train_forked
    monkeypatch.setattr(training, "_train_forked",
                        lambda config, shape, chunks: forked.append(len(chunks))
                        or real(config, shape, chunks))
    assert main([*argv, "--out", str(tmp_path / "in_process")]) == EXIT_OK
    assert forked == ([2] if training._cpus() > 1 and training._blas_threads() else [])


def test_installed_entry_point_help():
    proc = run_pireg("--help")
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()
    for verb in ("train", "bench", "sweep-alpha", "sweep-hparam", "gen-data", "report"):
        assert verb in proc.stdout


def test_gen_data_help_lists_flags():
    proc = run_pireg("gen-data", "--help")
    assert proc.returncode == 0
    assert "--out" in proc.stdout


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_exits_141_without_a_message(tmp_path, unbuffered):
    # A pipe whose read end is already closed fails the first write every
    # time, where `pireg report ... | head -1` would race head's exit.  A
    # block-buffered stdout (PYTHONUNBUFFERED empty) first writes when it is
    # flushed, an unbuffered one at the first print.
    out = tmp_path / "r"
    assert main(["train", *FAST, "--out", str(out)]) == EXIT_OK
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_pireg("report", f"{out}.json", stdout=write_end,
                         PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""


# The documented entry points, run the way a reader would run them.


def test_readme_quick_start_runs(tmp_path):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert block, "README.md has no python block"
    proc = subprocess.run([sys.executable, "-c", block.group(1)], capture_output=True,
                          text=True, env=child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "MetricsRecord(" in proc.stdout


def test_sine_demo_script_runs(tmp_path):
    out = tmp_path / "demo"
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "sine_demo.py"),
                           "--epochs", "5", "--ensemble-size", "2", "--out", str(out)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == \
        sorted(f"predictions_{variant}.csv" for variant in VARIANTS)
