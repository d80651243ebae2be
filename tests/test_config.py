"""Tests for configuration dataclasses, the defaults catalog, file loading,
and the defaults -> catalog -> file -> overrides resolution order."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from pireg.config import (
    CATALOG,
    DataSpec,
    ExperimentConfig,
    ModelSpec,
    OptimizerSpec,
    SplitPlan,
    VARIANT_READS,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config_file,
    resolve_config,
)
from pireg.errors import ConfigError
from pireg.losses import VARIANTS, LossConfig


def test_builtin_defaults():
    cfg = ExperimentConfig()
    assert cfg.loss.alpha == 0.05
    assert cfg.loss.interval_weight == 0.5
    assert cfg.loss.coverage_penalty == 15.0
    assert cfg.loss.soften == 160.0
    assert cfg.ensemble_size == 5
    assert cfg.optimizer.batch_size == 100
    assert cfg.model.hidden_sizes == (50,)
    assert cfg.model.head_bias == (3.0, -3.0)
    assert cfg.splits.count == 20 and cfg.splits.test_fraction == 0.1
    assert cfg.optimizer.validation_fraction == 0.1
    assert cfg.store_predictions is True


def test_catalog_per_dataset_overrides():
    assert default_config("yacht").loss.coverage_penalty == 3.0
    assert default_config("wine").loss.coverage_penalty == 30.0
    assert default_config("naval").loss.coverage_penalty == 4.0
    protein = default_config("protein")
    assert protein.loss.coverage_penalty == 40.0
    assert protein.model.hidden_sizes == (100,)
    assert protein.splits.count == 5
    msd = default_config("msd")
    assert msd.optimizer.batch_size == 1000
    assert msd.model.hidden_sizes == (100,)
    assert msd.splits.count == 1
    sine = default_config("sine")
    assert sine.data.kind == "sine"
    assert sine.model.hidden_sizes == (100,)
    assert sine.splits.count == 5
    # non-overridden fields fall through to the defaults
    assert default_config("yacht").loss.alpha == 0.05
    assert default_config("boston").data.kind == "file"


def test_unknown_name_keeps_defaults():
    cfg = default_config("mystery")
    assert cfg.name == "mystery"
    assert cfg.loss.coverage_penalty == 15.0


def test_catalog_entries_all_construct():
    for name in CATALOG:
        cfg = default_config(name)
        assert cfg.name == name


def test_validation_errors():
    with pytest.raises(ConfigError):
        DataSpec(kind="unknown")
    with pytest.raises(ConfigError):
        DataSpec(kind="file", path=None)
    with pytest.raises(ConfigError):
        DataSpec(kind="sine", n=0)
    with pytest.raises(ConfigError):
        ModelSpec(hidden_sizes=())
    with pytest.raises(ConfigError):
        ModelSpec(hidden_sizes=(10, 0))
    with pytest.raises(ConfigError):
        OptimizerSpec(learning_rate=0.0)
    with pytest.raises(ConfigError):
        OptimizerSpec(decay=0.0)
    with pytest.raises(ConfigError):
        OptimizerSpec(decay=1.5)
    with pytest.raises(ConfigError):
        OptimizerSpec(batch_size=0)
    with pytest.raises(ConfigError):
        OptimizerSpec(max_epochs=0)
    with pytest.raises(ConfigError):
        OptimizerSpec(patience=-1)
    with pytest.raises(ConfigError):
        OptimizerSpec(validation_fraction=1.0)
    with pytest.raises(ConfigError):
        SplitPlan(count=0)
    with pytest.raises(ConfigError):
        SplitPlan(test_fraction=1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(ensemble_size=0)
    for delimiter in ("", ";;"):
        with pytest.raises(ConfigError):
            DataSpec(delimiter=delimiter)
    for seed in (-1, 1.5, True, "3"):
        with pytest.raises(ConfigError):
            ExperimentConfig(seed=seed)
    for bad in ({"name": 7}, {"name": None}, {"out_dir": 5}, {"out_dir": b"runs"},
                {"store_predictions": "no"}, {"store_predictions": 0}):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)
    for scale in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            DataSpec(noise_scale=scale)
    with pytest.raises(ConfigError, match="x_low < x_high"):
        DataSpec(x_low=1.0, x_high=1.0)
    # nan and inf pass a bare `<= 0` test; each would train to divergence.
    for bad in (float("nan"), float("inf")):
        for spec in (lambda: OptimizerSpec(learning_rate=bad),
                     lambda: LossConfig(coverage_penalty=bad), lambda: LossConfig(soften=bad)):
            with pytest.raises(ConfigError, match="finite"):
                spec()
    # Generator ranges and skew are finite numbers, and a target column is an
    # index or a name: strings, bools and non-integral indices are refused.
    for spec in (lambda: DataSpec(skew_alpha="a"), lambda: DataSpec(x_low="a", x_high="b"),
                 lambda: DataSpec(x_low=True), lambda: DataSpec(x_high=float("inf")),
                 lambda: DataSpec(skew_alpha=float("nan")), lambda: DataSpec(noise_scale="0.3"),
                 lambda: DataSpec(target_column=1.5), lambda: DataSpec(target_column=False)):
        with pytest.raises(ConfigError):
            spec()
    assert DataSpec(target_column="y").target_column == "y"
    assert DataSpec(x_low=-1, x_high=3, skew_alpha=0).x_high == 3
    # Integer fields refuse floats and bools, not just values below range.
    for spec in (lambda: DataSpec(n=50.5), lambda: ModelSpec(hidden_sizes=(8.7,)),
                 lambda: OptimizerSpec(batch_size=2.0), lambda: OptimizerSpec(max_epochs=1.5),
                 lambda: OptimizerSpec(patience=True), lambda: SplitPlan(count=1.5),
                 lambda: ExperimentConfig(ensemble_size=1.5)):
        with pytest.raises(ConfigError):
            spec()
    for head_bias in ((1.0,), (1.0, 2.0, 3.0), ("a", 1.0), (1.0, float("inf")), 3.0):
        with pytest.raises(ConfigError, match="head_bias"):
            ModelSpec(head_bias=head_bias)


def test_config_from_dict_overrides_field_by_field():
    cfg = config_from_dict({"loss": {"coverage_penalty": 7.0},
                            "optimizer": {"learning_rate": 0.005},
                            "ensemble_size": 2})
    assert cfg.loss.coverage_penalty == 7.0
    assert cfg.loss.alpha == 0.05  # untouched sibling field
    assert cfg.optimizer.learning_rate == 0.005
    assert cfg.optimizer.decay == 0.999
    assert cfg.ensemble_size == 2


def test_config_from_dict_rejects_unknowns_and_bad_sections():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"loss": {"not_a_field": 1}})
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"turbo": True})
    with pytest.raises(ConfigError, match="mapping"):
        config_from_dict({"loss": [1, 2]})
    with pytest.raises(ConfigError, match="mapping"):
        config_from_dict(["not", "a", "dict"])


def test_config_from_dict_coerces_tuple_fields():
    cfg = config_from_dict({"model": {"hidden_sizes": [32, 16], "head_bias": [2.0, -2.0]}})
    assert cfg.model.hidden_sizes == (32, 16)
    assert cfg.model.head_bias == (2.0, -2.0)


def test_config_from_dict_validates_merged_values():
    with pytest.raises(ConfigError):
        config_from_dict({"optimizer": {"learning_rate": -1.0}})
    # A mistyped value fails a comparison; the error names its section.
    with pytest.raises(ConfigError, match="'loss'"):
        config_from_dict({"loss": {"alpha": "0.1"}})
    with pytest.raises(ConfigError, match="'optimizer'"):
        config_from_dict({"optimizer": {"decay": None}})


def test_resolve_precedence_defaults_catalog_file_overrides(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "loss": {"coverage_penalty": 9.0, "soften": 120.0},
        "seed": 42,
    }), encoding="utf-8")
    # catalog sets yacht penalty 3.0; the file overrides it to 9.0; the
    # explicit overrides win over the file.
    cfg = resolve_config(name="yacht", config_path=path,
                         overrides={"loss": {"coverage_penalty": 11.0}})
    assert cfg.loss.coverage_penalty == 11.0
    assert cfg.loss.soften == 120.0  # from file, not overridden
    assert cfg.seed == 42
    assert cfg.data.kind == "file"  # catalog entry survives
    no_override = resolve_config(name="yacht", config_path=path)
    assert no_override.loss.coverage_penalty == 9.0
    bare = resolve_config(name="yacht")
    assert bare.loss.coverage_penalty == 3.0


def test_resolve_reads_name_from_file(tmp_path):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"name": "wine"}), encoding="utf-8")
    cfg = resolve_config(config_path=path)
    assert cfg.name == "wine"
    assert cfg.loss.coverage_penalty == 30.0  # catalog applied via file name


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="no such config file"):
        load_config_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config_file(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config_file(array)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "caf\xe9"}')
    with pytest.raises(ConfigError, match="latin1.json: invalid JSON"):
        load_config_file(latin1)


def test_config_to_dict_is_json_safe_and_round_trips():
    cfg = default_config("protein")
    blob = config_to_dict(cfg)
    text = json.dumps(blob)  # raises if not JSON-safe
    assert isinstance(blob["model"]["hidden_sizes"], list)
    rebuilt = config_from_dict(json.loads(text))
    assert rebuilt == cfg
    # An out_dir given as a path object is written as its string.
    blob = config_to_dict(dataclasses.replace(cfg, out_dir=Path("runs")))
    assert blob["out_dir"] == "runs" and config_from_dict(blob).out_dir == "runs"


def _plain(value):
    # Oracle: a recursive JSON-safe copy, paths as strings, tuples as lists.
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("name", [None, *CATALOG])
@pytest.mark.parametrize("out_dir", [None, "runs", Path("runs") / "a"])
def test_config_to_dict_matches_a_recursive_plain_copy(name, out_dir):
    cfg = dataclasses.replace(default_config(name), out_dir=out_dir)
    expected = _plain(dataclasses.asdict(cfg))
    blob = config_to_dict(cfg)
    assert blob == expected and json.dumps(blob) == json.dumps(expected)


def test_loss_config_reachable_through_section():
    cfg = config_from_dict({"loss": {"variant": "interval_only", "point_loss": "absolute"}})
    assert isinstance(cfg.loss, LossConfig)
    assert cfg.loss.variant == "interval_only"
    assert cfg.loss.point_loss == "absolute"
    with pytest.raises(ConfigError):
        config_from_dict({"loss": {"variant": "nonsense"}})


# ---------------------------------------------------------------------------
# Which loss and model fields each variant reads.
# ---------------------------------------------------------------------------

# One changed value per loss and model field besides loss.variant.
PERTURBED = {
    "model.hidden_sizes": (9,),
    "model.head_bias": (2.0, -2.5),
    "loss.alpha": 0.2,
    "loss.coverage_penalty": 4.0,
    "loss.soften": 20.0,
    "loss.interval_weight": 0.9,
    "loss.point_loss": "absolute",
}


def _perturbed(config, field):
    section, key = field.split(".")
    part = dataclasses.replace(getattr(config, section), **{key: PERTURBED[field]})
    return dataclasses.replace(config, **{section: part})


def _fixed_seed_outcome(config):
    from pireg.bench import run_benchmark

    return [dataclasses.replace(s, seconds=0.0) for s in run_benchmark(config).splits]


def test_variant_reads_declare_every_variant_and_only_loss_and_model_fields():
    assert tuple(VARIANT_READS) == VARIANTS
    for reads in VARIANT_READS.values():
        assert set(reads) <= set(PERTURBED) - {"model.hidden_sizes"}


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_reads_are_the_fields_that_change_a_fixed_seed_report(variant):
    base = ExperimentConfig(
        name="reads", data=DataSpec(kind="sine", n=40), model=ModelSpec(hidden_sizes=(8,)),
        loss=LossConfig(variant=variant),
        optimizer=OptimizerSpec(learning_rate=0.02, batch_size=10, max_epochs=4,
                                validation_fraction=0.2),
        splits=SplitPlan(count=1, test_fraction=0.25), ensemble_size=2, seed=2)
    outcome = _fixed_seed_outcome(base)
    changes = {field for field in PERTURBED
               if _fixed_seed_outcome(_perturbed(base, field)) != outcome}
    assert changes == {"model.hidden_sizes", *VARIANT_READS[variant]}


def test_readme_loss_variants_table_lists_what_each_variant_reads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Loss variants", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    header = next(line for line in section.splitlines() if line.startswith("| variant"))
    reads_column = [cell.strip() for cell in header.split("|")[1:-1]].index("reads")
    listed = {row[0].strip().strip("`"): tuple(re.findall(r"`([\w.]+)`", row[reads_column]))
              for row in rows}
    assert listed == VARIANT_READS
