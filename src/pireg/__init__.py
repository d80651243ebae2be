"""Prediction intervals with a jointly learned value prediction.

Small dense networks emit an (upper, lower, mixing-weight) head; the
training objective trades interval width against coverage while the mixing
head places a point prediction inside the interval.  Includes baseline loss
variants, ensemble aggregation, synthetic and tabular data pipelines, and a
benchmark harness with a CLI.
"""

from .bench import (RunReport, SplitResult, SweepCell, SweepReport, emit_report,
                    ensemble_predict, format_report, load_dataset, load_report,
                    run_alpha_sweep, run_benchmark, run_hyperparam_sweep, run_split)
from .config import (CATALOG, DataSpec, ExperimentConfig, ModelSpec, OptimizerSpec,
                     SplitPlan, config_from_dict, config_to_dict, default_config,
                     load_config_file, resolve_config)
from .data import (Dataset, NormStats, SplitSpec, apply_normalize, denormalize_targets,
                   fit_normalize, gen_flat_skew, gen_sine, load_delimited,
                   sample_skew_normal, save_delimited, split)
from .ensemble import (EnsembleOutput, aggregate_gaussian, aggregate_pi,
                       normal_quantile, z_score)
from .errors import ConfigError, DataError, PiregError, ShapeError, TrainingDiverged
from .losses import (LossConfig, captured_mpiw, gaussian_link, hard_capture,
                     head_loss_and_grad, interval_link, sigmoid, softplus, squash_mix)
from .metrics import (MetricSummary, MetricsRecord, aggregate_splits, mae,
                      metrics_record, mpiw, picp, rmse)
from .network import (FeedForwardModel, GradientSet, backward, forward,
                      init_mean_variance_model, init_model, loss_value)
from .optim import AdamState, adam_step, decay_learning_rate, init_adam
from .training import TrainingHistory, build_model, carve_validation, train_ensemble

__version__ = "0.1.0"
