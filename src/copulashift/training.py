"""End-to-end training: the shift-regularized objective, baselines,
evaluation metrics, and shift diagnostics.

Each epoch walks even-sized shuffled source batches paired with
equally-sized target batches, builds the full loss graph (supervised term
plus marginal and dependence regularizers according to the method), and
takes an Adam step. Every run is a pure function of its TrainConfig.

Methods: ``mlp`` (no adaptation), ``dan`` (lambda * MMD on the joint
features), ``coral`` (lambda * covariance alignment), ``cdan``
(per-dimension marginal divergence plus the copula distance).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace, asdict

import numpy as np

from . import autodiff as ad
from . import divergences as dv
from . import copula as cop
from .datasets import Dataset, batch_iterator, MinMaxStats
from . import models
from .errors import ContractViolation, DomainError, check_int, check_real
from .models import (LayerSpec, ModelParams, check_class_indices, init_params,
                     extract_features, forward, head_outputs, mse_loss, one_hot,
                     predict_proba, predict_regression)

METHODS = ("mlp", "dan", "coral", "cdan")

_MOONS_SPEC = LayerSpec(hidden=(8, 4), task="classification", n_classes=2)


# nested config field -> (its class, the key every dict form of it carries)
_NESTED = {"h1": (dv.DivergenceKind, "kind"), "h2": (cop.DependenceKind, "tag"),
           "model": (LayerSpec, "hidden")}


def _nested_from(name: str, value):
    """An instance, a bare tag string or a dict as the class of field ``name``."""
    cls, required = _NESTED[name]
    if isinstance(value, cls):
        return value
    if isinstance(value, str):
        value = {required: value}
    if not isinstance(value, dict):
        raise ContractViolation(
            f"TrainConfig: {name} must be a tag string, a {cls.__name__} or a dict, "
            f"got {value!r}")
    if required not in value:
        raise ContractViolation(
            f"TrainConfig: {name} needs the key {required!r}, got keys {sorted(value)}")
    unknown = set(value) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ContractViolation(f"TrainConfig: {name} has unknown keys {sorted(unknown)}")
    return cls(**value)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run; defaults are the two-moons setup.

    ``batch_size`` at or above the sample count gives one full-batch step
    per epoch. Small regularizer weights keep the supervised signal in
    charge early on: large weights can collapse the features before the
    classifier forms.
    """

    method: str = "cdan"
    alpha: float = 0.02
    beta: float = 0.05
    lambda_: float = 1.0
    learning_rate: float = 0.01
    max_epochs: int = 100
    early_stop_patience: int = 20
    batch_size: int = 1024
    seed: int = 0
    h1: dv.DivergenceKind = dv.DivergenceKind("w1")
    h2: cop.DependenceKind = cop.DependenceKind("kl")
    tanh_a: float = 100.0
    model: LayerSpec = _MOONS_SPEC
    holdout_fraction: float = 0.1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ContractViolation(f"TrainConfig: method must be one of {METHODS}")
        for name, low in (("max_epochs", 1), ("early_stop_patience", 0), ("batch_size", 2),
                          ("seed", 0)):
            object.__setattr__(self, name, check_int("TrainConfig", name, getattr(self, name), low))
        for name in ("alpha", "beta", "lambda_", "learning_rate", "tanh_a", "holdout_fraction"):
            value = check_real("TrainConfig", name, getattr(self, name), 0,
                               strict=name in ("learning_rate", "tanh_a"))
            object.__setattr__(self, name, value)
        if self.batch_size % 2 != 0:
            raise ContractViolation(
                f"TrainConfig: batch_size must be even and >= 2, got {self.batch_size}")
        if self.holdout_fraction >= 1.0:
            raise ContractViolation("TrainConfig: holdout_fraction must be in [0, 1)")
        if self.method == "cdan" and self.model.feature_dim < 2:
            raise ContractViolation(
                "TrainConfig: the copula distance needs a feature dimension >= 2")

    def to_dict(self) -> dict:
        """Plain-JSON form: nested kinds become dicts, tuples become lists."""
        return asdict(self, dict_factory=lambda items: {
            k: list(v) if isinstance(v, tuple) else v for k, v in items})

    @classmethod
    def from_dict(cls, data: dict, base: "TrainConfig | None" = None) -> "TrainConfig":
        """Rebuild a config from to_dict output, layered over ``base``.

        Missing keys keep the base (or default) value. ``h1``, ``h2`` and
        ``model`` each accept an instance, a bare tag string ("w1", "chi2",
        ...) or a dict that carries the key ``_NESTED`` names.
        """
        src = base if base is not None else cls()
        kwargs = {f.name: getattr(src, f.name) for f in dataclasses.fields(cls)}
        unknown = set(data) - set(kwargs)
        if unknown:
            raise ContractViolation(
                f"TrainConfig.from_dict: unknown fields {sorted(unknown)}")
        for name, value in data.items():
            kwargs[name] = _nested_from(name, value) if name in _NESTED else value
        return cls(**kwargs)


@dataclass
class TraceEntry:
    epoch: int
    loss: float
    md: float
    cd: float
    val: float | None

    to_dict = asdict


class Adam:
    """First/second-moment adaptive gradient updates of one parameter buffer.

    ``step`` updates ``ModelParams.flat`` in place, and the moments are flat
    buffers of the same size, so a step is one pass over every parameter,
    with the bits of a step taken array by array.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults

    def __init__(self, flat, learning_rate):
        self.lr = learning_rate
        self.m, self.v = np.zeros(flat.size), np.zeros(flat.size)
        self.t = 0

    def step(self, flat, grads):
        """Update ``flat`` from the gradients of its arrays, in ``flat_arrays`` order."""
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        g = np.concatenate([grad.ravel() for grad in grads])
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * (g * g)
        flat -= self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + self.eps)


def _supervised_loss(features, targets, params) -> ad.Node:
    """Against ``one_hot`` rows of checked class indices, or regression values."""
    if params.spec.task == "classification":
        return models._softmax_cross_entropy(head_outputs(features, params), targets)
    return mse_loss(features, targets, params)


def _marginal_term(fs: ad.Node, ft: ad.Node, kind: dv.DivergenceKind) -> ad.Node:
    """Sum over feature dimensions of H1 between source and target columns.

    MMD enters as the distance (square root of the V-statistic, matching
    the gradient the paper derives); W1 as the sorted-sample mean absolute
    difference (equal batch sizes by construction), all columns in one
    node; histogram KL is piecewise constant in the features, so it
    contributes its value with zero gradient.
    """
    if kind.kind == "w1":
        return dv.w1_columns_graph(fs, ft)
    total = None
    for c in range(fs.shape[1]):
        if kind.kind == "mmd":
            term = ad.sqrt(dv.mmd_squared_graph(ad.take_cols(fs, [c]), ad.take_cols(ft, [c]),
                                                kind.bandwidths))
        else:  # histogram KL: constant w.r.t. the features, so summed as plain floats
            term = dv.kl_histogram_1d(fs.value[:, c], ft.value[:, c], kind.bins)
        total = term if total is None else total + term
    return total if kind.kind == "mmd" else ad.constant(total)


def _batch_loss(params, xs, targets, xt, config: TrainConfig):
    """Build the full loss graph for one batch; returns scalars for the trace.

    The leaves wrap the read-only views of ``params.flat``, uncopied: the
    optimizer writes it only after ``backward``, and no graph outlives its step.
    """
    view = params.map(lambda a: ad.Node(a, "leaf"))
    f_s = extract_features(ad.constant(xs), view)
    sup = _supervised_loss(f_s, targets, view)
    md = cd = None
    if config.method == "dan" and config.lambda_ > 0:
        f_t = extract_features(ad.constant(xt), view)
        md = ad.sqrt(dv.mmd_squared_graph(f_s, f_t, config.h1.bandwidths)) * config.lambda_
    elif config.method == "coral" and config.lambda_ > 0:
        f_t = extract_features(ad.constant(xt), view)
        md = dv.coral_penalty_graph(f_s, f_t) * config.lambda_
    elif config.method == "cdan":
        f_t = None
        if config.alpha > 0 or config.beta > 0:
            f_t = extract_features(ad.constant(xt), view)
        if config.alpha > 0:
            md = _marginal_term(f_s, f_t, config.h1) * config.alpha
        if config.beta > 0:
            cd = cop.copula_distance_graph(f_s, f_t, config.beta, config.h2, config.tanh_a)
    loss = sup
    if md is not None:
        loss = loss + md
    if cd is not None:
        loss = loss + cd
    return loss, view.flat_arrays(), (0.0 if md is None else md.item(),
                                      0.0 if cd is None else cd.item())


def _holdout_split(n: int, fraction: float, seed: int):
    if fraction <= 0.0 or n < 10:
        return np.arange(n), np.empty(0, dtype=np.intp)
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, 0x5EED])
    perm = rng.permutation(n)
    k = max(1, int(round(fraction * n)))
    return np.sort(perm[k:]), np.sort(perm[:k])


def _validation_loss(params, x, targets) -> float | None:
    """``_supervised_loss`` by the plain forward pass."""
    if x.shape[0] == 0:
        return None
    if params.spec.task == "classification":
        return float(models.cross_entropy(predict_proba(x, params), targets)[0, 0])
    return float(models.squared_error(predict_regression(x, params), targets)[0, 0])


def train(source: Dataset, target: Dataset, config: TrainConfig):
    """Run the shift-regularized training loop.

    Returns (ModelParams, trace) where the trace holds one entry per epoch
    with the batch-averaged loss, its marginal and dependence components,
    and the source-holdout supervised loss used for early stopping. The
    whole run is determined by config.seed.
    """
    if source.labels is None:
        raise ContractViolation("train: source dataset must be labeled")
    if len(source) == 0:
        raise ContractViolation("train: source dataset is empty")
    if len(target) == 0:
        raise ContractViolation("train: target dataset is empty")
    if source.dim != target.dim:
        raise ContractViolation(
            f"train: source d={source.dim} vs target d={target.dim}")
    targets = source.labels
    if config.model.task == "classification":  # checked and one-hot once per run
        check_class_indices("train", targets, config.model.n_classes)
        targets = one_hot(targets, config.model.n_classes)

    params = init_params(config.model, source.dim, config.seed)
    optimizer = Adam(params.flat, config.learning_rate)
    train_idx, val_idx = _holdout_split(len(source), config.holdout_fraction,
                                        config.seed)
    train_ds = source.subset(train_idx)
    train_targets = targets[train_idx]
    val_x, val_targets = source.features[val_idx], targets[val_idx]
    n_t = len(target)
    trace: list[TraceEntry] = []
    best_val = math.inf
    best_params = None
    patience_left = config.early_stop_patience

    for epoch in range(1, config.max_epochs + 1):
        batches = list(batch_iterator(train_ds, config.batch_size,
                                      config.seed, epoch))
        if not batches:
            raise ContractViolation(
                f"train: {len(train_ds)} training rows after the holdout split "
                "yield no usable batch; provide at least 2 rows")
        t_rng = np.random.default_rng([int(config.seed) & 0xFFFFFFFF, 7919, epoch])
        need = sum(len(b) for b in batches)
        t_perm = np.concatenate([t_rng.permutation(n_t)
                                 for _ in range(-(-need // n_t))])
        loss_sum = md_sum = cd_sum = 0.0
        cursor = 0
        for k, idx in enumerate(batches):
            t_idx = t_perm[cursor:cursor + len(idx)]
            cursor += len(idx)
            try:
                loss, nodes, (md_v, cd_v) = _batch_loss(
                    params, train_ds.features[idx], train_targets[idx],
                    target.features[t_idx], config)
            except DomainError:  # an MMD bandwidth taken from non-finite features
                loss = None
            if loss is None or not np.isfinite(loss.value[0, 0]):
                raise FloatingPointError(
                    f"train: non-finite loss at epoch {epoch}, batch {k}")
            ad.backward(loss)
            optimizer.step(params.flat, [n.grad for n in nodes])
            loss_sum += loss.item()
            md_sum += md_v
            cd_sum += cd_v
        nb = len(batches)
        val = _validation_loss(params, val_x, val_targets)
        trace.append(TraceEntry(epoch, loss_sum / nb, md_sum / nb,
                                cd_sum / nb, val))
        if val is not None and config.early_stop_patience > 0:
            if val < best_val:
                best_val = val
                best_params = replace(params)  # __post_init__ packs one copy
                patience_left = config.early_stop_patience
            else:
                patience_left -= 1
                if patience_left <= 0:
                    break
    if best_params is not None:
        params = best_params
    return params, trace


# -- evaluation -----------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationMetrics:
    accuracy: float
    auc: float


@dataclass(frozen=True)
class RegressionMetrics:
    rmse: float
    r2: float
    re: float


def _auc_mann_whitney(scores, labels) -> float:
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise ContractViolation("AUC undefined: dataset has a single class")
    pooled = np.sort(np.concatenate([pos, neg]))
    # average ranks over tie groups (Mann-Whitney, ties counted half): the
    # group holding 1-based ranks first..last gives each member (first + last) / 2
    first = np.searchsorted(pooled, pos, "left") + 1.0
    last = np.searchsorted(pooled, pos, "right")
    pos_rank_sum = (0.5 * (first + last)).sum()
    u = pos_rank_sum - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def evaluate_classification(params: ModelParams, ds: Dataset) -> ClassificationMetrics:
    """Accuracy under argmax and the Mann-Whitney AUC of class-1 scores."""
    if ds.labels is None:
        raise ContractViolation("evaluate_classification: dataset is unlabeled")
    check_class_indices("evaluate_classification", ds.labels, params.spec.n_classes)
    probs = predict_proba(ds.features, params)
    acc = float(np.mean(np.argmax(probs, axis=1) == ds.labels))
    auc = _auc_mann_whitney(probs[:, 1], np.asarray(ds.labels))
    return ClassificationMetrics(accuracy=acc, auc=auc)


def evaluate_regression(params: ModelParams, ds: Dataset,
                        stats: MinMaxStats) -> RegressionMetrics:
    """RMSE and R2 on the normalized scale; relative error on the original scale."""
    if ds.labels is None:
        raise ContractViolation("evaluate_regression: dataset is unlabeled")
    y = np.asarray(ds.labels, dtype=np.float64)
    if not np.isfinite(y).all():
        raise ContractViolation("evaluate_regression: labels must be finite")
    pred = predict_regression(ds.features, params)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ContractViolation("evaluate_regression: R2 undefined for zero-variance targets")
    resid = pred - y
    rmse = float(np.sqrt(np.mean(resid ** 2)))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot
    y_orig = stats.denormalize_labels(y)
    pred_orig = stats.denormalize_labels(pred)
    denom = np.maximum(np.abs(y_orig), 1e-12)
    re = float(np.mean(np.abs(pred_orig - y_orig) / denom))
    return RegressionMetrics(rmse=rmse, r2=r2, re=re)


# -- reporting and diagnostics --------------------------------------------------

@dataclass
class MetricsReport:
    task: str
    method: str
    config: dict
    per_seed: list
    aggregate: dict
    trace: list

    to_dict = asdict


def mean_std(values) -> dict:
    """Mean and ddof-1 standard deviation (0 for a single value) of numbers."""
    arr = np.asarray(values, dtype=np.float64)
    return {"mean": float(arr.mean()),
            "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0}


def aggregate_metrics(per_seed: list[dict]) -> dict:
    """Mean and standard deviation of every numeric per-seed field but the seed."""
    agg = {}
    for key in per_seed[0]:
        vals = [p[key] for p in per_seed if isinstance(p[key], (int, float))]
        if key != "seed" and len(vals) == len(per_seed):
            agg[key] = mean_std(vals)
    return agg


def _md_and_cd(fs, ft, h1: dv.DivergenceKind, h2: cop.DependenceKind,
               beta: float, tanh_a: float) -> tuple[list, float | None]:
    """MD of each column of two (N, m) samples, and their CD when m >= 2."""
    md = [float(dv.marginal_divergence(fs[:, i], ft[:, i], h1))
          for i in range(fs.shape[1])]
    cd = None
    if fs.shape[1] >= 2:
        cd = cop.copula_distance(fs, ft, beta, h2, tanh_a)
    return md, cd


def learned_shift(params: ModelParams, source: Dataset, target: Dataset,
                  config: TrainConfig) -> tuple[float, float]:
    """Summed MD and unit-beta CD of the learned features on the full domains.

    Uses H1/H2 from the config with beta = 1 so the numbers are comparable
    across methods regardless of alpha/beta.
    """
    md, cd = _md_and_cd(forward(source.features, params), forward(target.features, params),
                        config.h1, config.h2, 1.0, config.tanh_a)
    return float(sum(md)), 0.0 if cd is None else cd


def run_experiment(task: str, source: Dataset, target: Dataset,
                   config: TrainConfig, seeds, stats: MinMaxStats | None = None) -> MetricsReport:
    """Train/evaluate one configuration across seeds and aggregate.

    Training sees ``target`` unlabeled; scoring reads its labels. Regression
    scoring requires the normalization stats.
    """
    seeds = list(seeds)
    if not seeds:
        raise ContractViolation("run_experiment: seeds must be nonempty")
    per_seed = []
    first_trace = None
    for s in seeds:
        cfg = replace(config, seed=int(s))
        params, trace = train(source, target.unlabeled(), cfg)
        if first_trace is None:
            first_trace = [t.to_dict() for t in trace]
        md, cd = learned_shift(params, source, target, cfg)
        entry = {"seed": int(s), "md": md, "cd": cd,
                 "val": min((t.val for t in trace if t.val is not None),
                            default=trace[-1].loss)}
        if config.model.task == "classification":
            m = evaluate_classification(params, target)
        else:
            if stats is None:
                raise ContractViolation("run_experiment: regression needs the scaler stats")
            m = evaluate_regression(params, target, stats)
        entry.update(asdict(m))
        per_seed.append(entry)
    return MetricsReport(task=task, method=config.method, config=config.to_dict(),
                         per_seed=per_seed, aggregate=aggregate_metrics(per_seed),
                         trace=first_trace or [])


@dataclass(frozen=True)
class ShiftReport:
    md_per_feature: list
    cd: float | None
    feature_names: list

    to_dict = asdict


def shift_report(a: Dataset, b: Dataset, h1: dv.DivergenceKind,
                 h2: cop.DependenceKind, beta: float = 1.0,
                 tanh_a: float = 100.0) -> ShiftReport:
    """Per-feature marginal divergences and the copula distance of raw data.

    ``beta`` scales every copula pair alike. A divergence that overflows to
    inf or NaN raises FloatingPointError.
    """
    if a.dim != b.dim:
        raise ContractViolation(f"shift_report: dimension mismatch {a.dim} vs {b.dim}")
    md, cd = _md_and_cd(a.features, b.features, h1, h2, beta, tanh_a)
    if not np.isfinite([*md, 0.0 if cd is None else cd]).all():
        raise FloatingPointError("shift_report: a divergence overflowed float64 to inf or nan")
    return ShiftReport(md_per_feature=md, cd=cd, feature_names=list(a.feature_names))
