"""Domain adaptation with separate marginal and dependence shift penalties.

The package splits distribution shift between a labeled source domain and
an unlabeled target domain into two parts — per-feature marginal
divergences (MD) and a copula distance over feature pairs (CD) — and
trains a small network whose loss penalizes both alongside the supervised
term. The public surface re-exported here covers the typical workflow:

>>> from copulashift import moons_pair, TrainConfig, train, shift_report
>>> src, tgt = moons_pair(stretch=3.0, seed=0)
>>> params, trace = train(src, tgt.unlabeled(), TrainConfig(seed=0))

Submodules hold the full API: ``datasets`` (loading, generation,
normalization), ``divergences`` (marginal divergence estimators and the
CORAL penalty), ``copula`` (the smoothed tau, the closed-form dependence
divergences and the copula distance), ``models`` (the network),
``training`` (loop, metrics, shift diagnostics), ``experiments``
(benchmark protocols), ``autodiff`` (the graph engine) and ``cli``.
"""

from .copula import (DependenceKind, copula_distance, kendall_tau_smooth,
                     pair_dependence_divergence)
from .datasets import (Dataset, MinMaxStats, MoonsConfig, generate_moons,
                       load_delimited, minmax_normalize, write_dataset)
from .divergences import DivergenceKind, marginal_divergence
from .errors import ContractViolation, DomainError, ShapeError
from .experiments import (ExperimentError, ExperimentTable, MissingDataError,
                          fetch_wine, load_wine, moons_pair, render_markdown,
                          run_moons_benchmark, run_wine_ablation,
                          run_wine_benchmark, run_wine_divergence_comparison,
                          write_table)
from .models import LayerSpec, init_params, load_params, save_params
from .training import (MetricsReport, TrainConfig, evaluate_classification,
                       evaluate_regression, learned_shift, run_experiment,
                       shift_report, train)

__version__ = "0.1.0"

__all__ = [
    "ContractViolation", "Dataset", "DependenceKind", "DivergenceKind",
    "DomainError", "ExperimentError", "ExperimentTable", "LayerSpec",
    "MetricsReport", "MinMaxStats", "MissingDataError", "MoonsConfig",
    "ShapeError", "TrainConfig", "copula_distance",
    "evaluate_classification", "evaluate_regression", "fetch_wine",
    "generate_moons", "init_params", "kendall_tau_smooth", "learned_shift",
    "load_delimited", "load_params", "load_wine", "marginal_divergence",
    "minmax_normalize", "moons_pair", "pair_dependence_divergence",
    "render_markdown", "run_experiment", "run_moons_benchmark",
    "run_wine_ablation", "run_wine_benchmark",
    "run_wine_divergence_comparison", "save_params", "shift_report", "train",
    "write_dataset", "write_table",
]
