#!/usr/bin/env python3
"""Train interval ensembles on the noisy sine task and compare variants.

Trains one ensemble per requested loss variant on the same 100-point skewed
sine draw, scores each on a fresh 4000-point draw from the same law, prints
a metrics table, and writes per-point predictions (x, lower, upper, value, y)
for plotting.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from pireg.bench import ensemble_predict
from pireg.config import DataSpec, ExperimentConfig, ModelSpec, OptimizerSpec
from pireg.data import apply_normalize, denormalize_targets, fit_normalize, generate
from pireg.losses import LossConfig
from pireg.metrics import metrics_record
from pireg.training import train_ensemble


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--variants", nargs="+",
                        default=["joint", "interval_only", "midpoint",
                                 "decoupled", "gaussian_nll"])
    parser.add_argument("--n", type=int, default=100, help="training points")
    parser.add_argument("--epochs", type=int, default=2500)
    parser.add_argument("--ensemble-size", type=int, default=5)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="out/sine_demo")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    train = generate(DataSpec(n=args.n), seed=args.seed)
    test = generate(DataSpec(n=4000), seed=args.seed + 10_000)
    stats = fit_normalize(train)
    train_n = apply_normalize(train, stats)
    test_n = apply_normalize(test, stats)

    print(f"{'variant':14s} {'picp':>7s} {'mpiw':>7s} {'rmse':>7s} {'mae':>7s}")
    for variant in args.variants:
        cfg = ExperimentConfig(
            name=f"sine_demo_{variant}",
            data=DataSpec(kind="sine", n=args.n),
            model=ModelSpec(hidden_sizes=(100,)),
            loss=LossConfig(variant=variant, alpha=args.alpha),
            optimizer=OptimizerSpec(learning_rate=0.01, decay=0.9985,
                                    batch_size=args.n, max_epochs=args.epochs,
                                    patience=args.epochs,
                                    validation_fraction=0.0),
            ensemble_size=args.ensemble_size,
        )
        models, _ = train_ensemble(cfg, train_n, None, base_seed=args.seed * 100)
        ens = ensemble_predict(models, test_n.features, variant, args.alpha)
        rec = metrics_record(test_n.targets, ens.lower, ens.upper, ens.value)
        print(f"{variant:14s} {rec.picp:7.3f} {rec.mpiw:7.3f} "
              f"{rec.rmse:7.3f} {rec.mae:7.3f}")

        lower = denormalize_targets(ens.lower, stats)
        upper = denormalize_targets(ens.upper, stats)
        value = denormalize_targets(ens.value, stats)
        order = np.argsort(test.features[:, 0])
        path = out_dir / f"predictions_{variant}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "lower", "upper", "value", "y"])
            for i in order:
                writer.writerow([repr(float(test.features[i, 0])),
                                 repr(float(lower[i])), repr(float(upper[i])),
                                 repr(float(value[i])),
                                 repr(float(test.targets[i]))])
    print(f"per-point predictions written under {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
