"""The two number checks of ``errors`` and every boundary that routes through them."""

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import copulashift.experiments as ex
from copulashift.copula import DependenceKind, copula_distance, kendall_tau_smooth
from copulashift.datasets import MAX_N_PER_CLASS, MoonsConfig
from copulashift.divergences import MAX_BINS, DivergenceKind, kl_histogram_1d
from copulashift.errors import ContractViolation, check_int, check_real
from copulashift.models import MAX_WIDTH, LayerSpec, init_params
from copulashift.training import TrainConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "copulashift"

_PAIRS = np.arange(16.0).reshape(8, 2) * [1.0, -1.0]


def _spec(**fields):
    return LayerSpec(**{"hidden": (4,), **fields})


# (id, call with the value, the name the message carries, low, high or None,
#  real or int, strict): every numeric field and argument of the package
FIELDS = [
    ("MoonsConfig.n_per_class", lambda v: MoonsConfig(n_per_class=v), "n_per_class",
     1, MAX_N_PER_CLASS, int, False),
    ("MoonsConfig.stretch", lambda v: MoonsConfig(stretch=v), "stretch", 1.0, None, float, False),
    ("MoonsConfig.noise_sigma", lambda v: MoonsConfig(noise_sigma=v), "noise_sigma",
     0.0, None, float, False),
    ("MoonsConfig.seed", lambda v: MoonsConfig(seed=v), "seed", 0, None, int, False),
    *[(f"TrainConfig.{name}", lambda v, name=name: TrainConfig(**{name: v}), name,
       low, None, int, False)
      for name, low in (("max_epochs", 1), ("early_stop_patience", 0), ("batch_size", 2),
                        ("seed", 0))],
    *[(f"TrainConfig.{name}", lambda v, name=name: TrainConfig(**{name: v}), name,
       0.0, None, float, name in ("learning_rate", "tanh_a"))
      for name in ("alpha", "beta", "lambda_", "learning_rate", "tanh_a", "holdout_fraction")],
    ("LayerSpec.hidden", lambda v: _spec(hidden=(3, v)), r"hidden\[1\]",
     1, MAX_WIDTH, int, False),
    ("LayerSpec.n_classes", lambda v: _spec(n_classes=v), "n_classes", 2, MAX_WIDTH, int, False),
    ("DivergenceKind.bins", lambda v: DivergenceKind("kl", bins=v), "bins",
     2, MAX_BINS, int, False),
    ("DivergenceKind.bandwidths", lambda v: DivergenceKind("mmd", bandwidths=(1.0, v)),
     r"bandwidths\[1\]", sys.float_info.min, None, float, False),
    ("kl_histogram_1d.bins", lambda v: kl_histogram_1d([0.0, 1.0], [1.0, 2.0], bins=v),
     "bins", 2, MAX_BINS, int, False),
    ("init_params.input_dim", lambda v: init_params(_spec(), v, seed=0), "input_dim",
     1, None, int, False),
    ("kendall_tau_smooth.a", lambda v: kendall_tau_smooth(_PAIRS, v), "sharpness a",
     0.0, None, float, True),
    ("copula_distance.beta", lambda v: copula_distance(_PAIRS, _PAIRS, v, DependenceKind("kl")),
     "beta", 0.0, None, float, False),
    ("n_seeds", ex._seed_range, "n_seeds", 1, None, int, False),
]


def _cases(accept: bool):
    for where, call, name, low, high, kind, strict in FIELDS:
        if kind is int:
            good = [low] if high is None else [low, high]
            bad = [True, False, low - 1, -10 ** 400, float(low), "1", None, math.inf, math.nan]
            bad += [] if high is None else [high + 1, 10 ** 400]
        else:
            good = [math.nextafter(low, math.inf) if strict else low, low + 0.5]
            bad = [True, low if strict else math.nextafter(low, -math.inf), 10 ** 400,
                   math.inf, -math.inf, math.nan, "1", None]
            bad += [0.0, math.nextafter(0.0, 1.0)] if low > 0 else []  # zero, the least subnormal
        for value in good if accept else bad:
            shown = {10 ** 400: "10**400", -10 ** 400: "-10**400"}.get(value, repr(value))
            yield pytest.param(call, name, value, id=f"{where}-{shown}")


@pytest.mark.parametrize("call, name, value", _cases(accept=False))
def test_out_of_bounds_is_named(call, name, value):
    with pytest.raises(ContractViolation, match=f"{name} must be an? "):
        call(value)


@pytest.mark.parametrize("call, name, value", _cases(accept=True))
def test_bound_is_accepted(call, name, value):
    call(value)


def test_messages_name_the_bounds():
    with pytest.raises(ContractViolation) as info:
        check_int("LayerSpec", "hidden[0]", 257, 1, 256)
    assert str(info.value) == "LayerSpec: hidden[0] must be an integer >= 1 and <= 256, got 257"
    with pytest.raises(ContractViolation) as info:
        check_real("copula", "smoothing sharpness a", 0, 0, strict=True)
    assert str(info.value) == "copula: smoothing sharpness a must be a finite number > 0, got 0"
    with pytest.raises(ContractViolation) as info:
        check_real("MoonsConfig", "stretch", True, 1.0)
    assert str(info.value) == "MoonsConfig: stretch must be a finite number >= 1.0, got True"
    with pytest.raises(ContractViolation) as info:
        check_int("", "n_seeds", 0, 1)
    assert str(info.value) == "n_seeds must be an integer >= 1, got 0"


def test_checks_return_plain_python_numbers():
    assert type(check_int("w", "n", np.int32(3), 1)) is int
    assert type(check_real("w", "x", np.float32(0.5), 0.0)) is float
    assert type(check_real("w", "x", 2, 0.0)) is float
    cfg = TrainConfig(seed=np.int64(3), alpha=np.float64(0.5))
    assert (type(cfg.seed), type(cfg.alpha)) == (int, float)


# the one check that keeps its own wording: pair_dependence_divergence's rho
_PREDICATE_CALLS_ALLOWED = {("copula.py", "is_real")}


def test_number_predicates_are_called_only_by_the_checks():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in ("is_int", "is_real", "is_finite_real"):
                found.append((path.name, name))
    assert sorted(set(found)) == sorted(_PREDICATE_CALLS_ALLOWED)
    assert found.count(("copula.py", "is_real")) == 1
