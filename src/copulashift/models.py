"""Feature extractor, prediction heads, and supervised losses.

A model is a plain MLP split in two: the extractor (all hidden layers,
whose final width m is the representation the shift regularizers act on)
and the head (a single linear layer producing class logits or a scalar).
Parameters are Glorot-uniform initialized with zero biases and live in
one float64 buffer, of which each weight array is a read-only view. A
training step builds graph nodes on them so every loss is differentiable
end to end; scoring runs the plain numpy ``forward``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation, DomainError, ShapeError, check_int

_CHECKPOINT_FORMAT = "copulashift-params-v1"

_ACTIVATIONS = ("relu", "tanh")  # the activations autodiff.dense applies

# every layer width, n_classes included; cdan's copula arrays grow as m^2 (see the README)
MAX_WIDTH = 256


@dataclass(frozen=True)
class LayerSpec:
    """Architecture description: hidden widths plus the output task.

    ``task`` is "classification" (with ``n_classes`` >= 2) or "regression"
    (scalar output). The feature dimension m equals the last hidden width.
    """

    hidden: tuple[int, ...]
    task: str = "classification"
    n_classes: int | None = 2
    activation: str = "relu"

    def __post_init__(self):
        if not isinstance(self.hidden, (tuple, list)) or not self.hidden:
            raise ContractViolation(
                f"LayerSpec: hidden must be a nonempty list of widths, got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(
            check_int("LayerSpec", f"hidden[{k}]", h, 1, MAX_WIDTH)
            for k, h in enumerate(self.hidden)))
        if self.task not in ("classification", "regression"):
            raise ContractViolation(f"LayerSpec: unknown task {self.task!r}")
        if self.task == "classification":
            object.__setattr__(self, "n_classes",
                               check_int("LayerSpec", "n_classes", self.n_classes, 2, MAX_WIDTH))
        else:
            object.__setattr__(self, "n_classes", None)
        if not isinstance(self.activation, str) or self.activation not in _ACTIVATIONS:
            raise ContractViolation(
                f"LayerSpec: activation must be one of {sorted(_ACTIVATIONS)}")

    @property
    def feature_dim(self) -> int:
        return self.hidden[-1]

    @property
    def output_dim(self) -> int:
        return self.n_classes if self.task == "classification" else 1


@dataclass
class ModelParams:
    """Extractor and head weights.

    Given arrays, it copies them into ``flat``, one C-ordered float64 buffer
    in ``flat_arrays`` order, and keeps each W and b as a read-only view of
    it; only the optimizer writes ``flat``. A model of nodes has no buffer.
    """

    spec: LayerSpec
    input_dim: int
    extractor: list  # [(W, b), ...] per hidden layer
    head: tuple  # (W, b)
    flat: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        widths = [self.input_dim, *self.spec.hidden]
        if len(self.extractor) != len(self.spec.hidden):
            raise ContractViolation("ModelParams: one weight pair per hidden layer required")
        for k, (w, b) in enumerate(self.extractor):
            if w.shape != (widths[k], widths[k + 1]) or b.shape != (1, widths[k + 1]):
                raise ShapeError(f"ModelParams layer {k}", w.shape, (widths[k], widths[k + 1]))
        w, b = self.head
        if w.shape != (self.spec.feature_dim, self.spec.output_dim) \
                or b.shape != (1, self.spec.output_dim):
            raise ShapeError("ModelParams head", w.shape,
                             (self.spec.feature_dim, self.spec.output_dim))
        arrays = self.flat_arrays()
        if all(isinstance(a, np.ndarray) for a in arrays):
            self.flat = np.concatenate([a.ravel() for a in arrays], dtype=np.float64)
            frozen = self.flat.view()
            frozen.setflags(write=False)  # and so are its views
            parts = np.split(frozen, np.cumsum([a.size for a in arrays])[:-1])
            views = [part.reshape(a.shape) for part, a in zip(parts, arrays)]
            self.extractor, self.head = list(zip(views[:-2:2], views[1:-2:2])), tuple(views[-2:])

    def flat_arrays(self) -> list[np.ndarray]:
        """All parameter arrays in a fixed order (extractor first, then head)."""
        out = []
        for w, b in self.extractor:
            out.extend([w, b])
        out.extend(self.head)
        return out

    def map(self, fn) -> "ModelParams":
        """The same model with ``fn`` applied to each array, in ``flat_arrays`` order."""
        return ModelParams(self.spec, self.input_dim,
                           [(fn(w), fn(b)) for w, b in self.extractor],
                           (fn(self.head[0]), fn(self.head[1])))


def init_params(spec: LayerSpec, input_dim: int, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, fully determined by the seed."""
    input_dim = check_int("init_params", "input_dim", input_dim, 1)
    rng = np.random.default_rng(seed)
    widths = [input_dim, *spec.hidden, spec.output_dim]

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    layers = [(glorot(widths[k], widths[k + 1]), np.zeros((1, widths[k + 1])))
              for k in range(len(widths) - 1)]
    return ModelParams(spec, input_dim, layers[:-1], layers[-1])


def forward(x, params: ModelParams) -> np.ndarray:
    """The extractor's features of a raw batch, as a plain array: no graph nodes.

    Each layer is ``autodiff.layer``, the arithmetic of the ``dense`` node, so
    the bits are those of ``extract_features(x, params).value``.
    """
    out = np.ascontiguousarray(x, dtype=np.float64)
    if out.ndim != 2 or out.shape[1] != params.input_dim:
        raise ShapeError("forward", out.shape, (*out.shape[:1], params.input_dim))
    if not np.isfinite(out).all():
        raise DomainError("forward: NaN/Inf entries are not admitted")
    for w, b in params.extractor:
        out = ad.layer(out, w, b, params.spec.activation)[1]
    return out


def extract_features(x, params: ModelParams) -> ad.Node:
    """Forward pass through the extractor: (N, d) -> (N, m) graph node."""
    node = x if isinstance(x, ad.Node) else ad.constant(x)
    if node.shape[1] != params.input_dim:
        raise ShapeError("extract_features", node.shape,
                         (node.shape[0], params.input_dim))
    for w, b in params.extractor:
        node = ad.dense(node, w, b, params.spec.activation)
    return node


def head_outputs(features: ad.Node, params: ModelParams) -> ad.Node:
    """Apply the linear head: logits for classification, predictions for regression."""
    w, b = params.head
    return ad.dense(features, w, b)


def predict_proba(x, params: ModelParams) -> np.ndarray:
    """Class probabilities for a raw input batch."""
    if params.spec.task != "classification":
        raise ContractViolation("predict_proba: model head is not a classifier")
    return ad.softmax(ad.layer(forward(x, params), *params.head)[1])


def predict_regression(x, params: ModelParams) -> np.ndarray:
    """Scalar predictions (N,) for a raw input batch."""
    if params.spec.task != "regression":
        raise ContractViolation("predict_regression: model head is not a regressor")
    return ad.layer(forward(x, params), *params.head)[1].ravel()


def check_class_indices(who: str, labels: np.ndarray, n_classes: int) -> None:
    """Reject labels that are not integer class indices in [0, n_classes)."""
    if labels.size == 0 or not np.issubdtype(labels.dtype, np.integer):
        raise ContractViolation(f"{who}: labels must be integer class indices")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ContractViolation(
            f"{who}: labels must lie in [0, {n_classes}), got "
            f"range [{labels.min()}, {labels.max()}]")


def cross_entropy_loss(features: ad.Node, labels, params: ModelParams) -> ad.Node:
    """Mean cross-entropy of the softmax head on extracted features.

    ``labels`` are 0-based class indices. Probabilities are floored at
    1e-12 inside the log so an early confident mistake stays finite.
    """
    if params.spec.task != "classification":
        raise ContractViolation("cross_entropy_loss: model head is not a classifier")
    y = np.asarray(labels).ravel()
    if y.shape[0] != features.shape[0]:
        raise ContractViolation(
            f"cross_entropy_loss: {y.shape[0]} labels for {features.shape[0]} rows")
    check_class_indices("cross_entropy_loss", y, params.spec.n_classes)
    return _softmax_cross_entropy(head_outputs(features, params),
                                  one_hot(y, params.spec.n_classes))


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(N, n_classes) rows holding 1.0 at each checked class index."""
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def cross_entropy(probs: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """``-total(onehot * log(max(probs, 1e-12))) / n`` as a (1, 1) array."""
    return np.array([[(np.log(np.maximum(probs, 1e-12)) * onehot).sum()]]) * (-1.0 / len(onehot))


def _softmax_cross_entropy(logits: ad.Node, onehot: np.ndarray) -> ad.Node:
    """``cross_entropy`` of ``softmax(logits)`` as one node.

    It replays the graph composite op for op, so its bits are the same; a
    row whose true-class probability is clamped gets a zero gradient.
    """
    probs = ad.softmax(logits.value)
    out = cross_entropy(probs, onehot)
    kept = np.maximum(probs, 1e-12)
    inside = probs > 1e-12
    scale = -1.0 / onehot.shape[0]

    def back(g):
        g_probs = np.full(onehot.shape, (g * scale)[0, 0]) * onehot / kept * inside
        return (probs * (g_probs - ad._row_sums(g_probs * probs)),)

    return ad.Node(out, "softmax_cross_entropy", (logits,), back)


def mse_loss(features: ad.Node, targets, params: ModelParams) -> ad.Node:
    """Mean squared error of the linear head on extracted features."""
    if params.spec.task != "regression":
        raise ContractViolation("mse_loss: model head is not a regressor")
    t = np.asarray(targets, dtype=np.float64).ravel()
    if t.shape[0] != features.shape[0]:
        raise ContractViolation(
            f"mse_loss: {t.shape[0]} targets for {features.shape[0]} rows")
    return _squared_error_loss(head_outputs(features, params), ad.tensor(t.reshape(-1, 1)))


def squared_error(pred: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``mean((pred - targets)^2)`` as a (1, 1) array."""
    resid = pred - targets
    return np.array([[(resid * resid).mean()]])


def _squared_error_loss(pred: ad.Node, targets: np.ndarray) -> ad.Node:
    """``squared_error`` of a prediction node as one node.

    It replays the graph composite (sub, mul, mean) op for op, so its bits
    are the same.
    """
    def back(g):
        g_sq = np.full(targets.shape, g[0, 0] / targets.size) * (pred.value - targets)
        return (g_sq + g_sq,)  # both factors of resid * resid are one node

    return ad.Node(squared_error(pred.value, targets), "squared_error", (pred,), back)


def save_params(params: ModelParams, path, extra: dict | None = None) -> None:
    """Write a versioned JSON checkpoint (shapes + row-major float64 weights).

    ``extra`` is stored verbatim under an "extra" key (e.g. the resolved
    training config) and ignored by load_params.
    """
    record = {
        "format": _CHECKPOINT_FORMAT,
        "spec": asdict(params.spec),
        "input_dim": params.input_dim,
        "layers": [
            {"w": w.tolist(), "b": b.tolist()}
            for w, b in [*params.extractor, params.head]
        ],
    }
    if extra is not None:
        record["extra"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint written by save_params: its params and whole record."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("format") != _CHECKPOINT_FORMAT:
            raise ContractViolation(f"unsupported checkpoint format {record.get('format')!r}")
        spec = LayerSpec(hidden=tuple(record["spec"]["hidden"]),
                         task=record["spec"]["task"],
                         n_classes=record["spec"]["n_classes"],
                         activation=record["spec"]["activation"])
        layers = [(np.array(l["w"], dtype=np.float64), np.array(l["b"], dtype=np.float64))
                  for l in record["layers"]]
        params = ModelParams(spec, int(record["input_dim"]), layers[:-1], tuple(layers[-1]))
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as err:
        # ContractViolation and JSON's and UTF-8's decoding faults are ValueErrors:
        # they too are named with the file
        raise ContractViolation(f"load_params: {path} is not a checkpoint: {err!r}") from None
    return params, record


def load_params(path) -> ModelParams:
    """Read the params of a checkpoint written by save_params."""
    return load_checkpoint(path)[0]
