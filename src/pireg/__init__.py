"""Prediction intervals with a jointly learned value prediction.

Small dense networks emit an (upper, lower, mixing-weight) head; the
training objective trades interval width against coverage while the mixing
head places a point prediction inside the interval.  Includes baseline loss
variants, ensemble aggregation, synthetic and tabular data pipelines, and a
benchmark harness with a CLI.

The package namespace re-exports nothing: callers import from the
submodules (``pireg.training``, ``pireg.bench``, ``pireg.config``, ...).
"""

__version__ = "0.1.0"
