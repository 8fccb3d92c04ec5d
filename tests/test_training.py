import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import copulashift.copula as cop
import copulashift.divergences as dv
from copulashift.datasets import (Dataset, MinMaxStats, MoonsConfig,
                                  generate_moons)
from copulashift.errors import ContractViolation
from copulashift.models import LayerSpec, extract_features, init_params, one_hot
from copulashift.training import (METHODS, TrainConfig, _auc_mann_whitney, _batch_loss,
                                  _marginal_term, _supervised_loss, aggregate_metrics,
                                  evaluate_classification, evaluate_regression,
                                  learned_shift, run_experiment,
                                  shift_report, train)
import copulashift.autodiff as ad
from copulashift import training
from oracles import absolute, auc_tie_loop


def moons_domains(n_per_class=80, stretch=3.0, seed=0):
    source = generate_moons(MoonsConfig(n_per_class=n_per_class, stretch=1.0,
                                        noise_sigma=0.2, seed=1000 + seed))
    target = generate_moons(MoonsConfig(n_per_class=n_per_class, stretch=stretch,
                                        noise_sigma=0.2, seed=2000 + seed))
    return source, target


def quick_config(method="cdan", **overrides):
    defaults = dict(method=method, max_epochs=8, batch_size=64,
                    early_stop_patience=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def constant_regressor(value: float, input_dim: int = 2):
    spec = LayerSpec(hidden=(4, 2), task="regression")
    params = init_params(spec, input_dim, seed=0)
    params.flat[:] = 0.0  # the buffer: its W and b views are read-only
    params.flat[-1] = value  # the head's bias, the last array
    return params


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.method == "cdan"
        assert cfg.h1.kind == "w1"
        assert cfg.h2.tag == "kl"

    def test_rejects_bad_fields_by_name(self):
        with pytest.raises(ContractViolation, match="method"):
            TrainConfig(method="svm")
        with pytest.raises(ContractViolation, match="alpha"):
            TrainConfig(alpha=-0.1)
        with pytest.raises(ContractViolation, match="learning_rate"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ContractViolation, match="holdout_fraction"):
            TrainConfig(holdout_fraction=1.0)
        with pytest.raises(ContractViolation, match="tanh_a"):
            TrainConfig(tanh_a=-5.0)
        for name in ("alpha", "beta", "lambda_", "learning_rate", "tanh_a"):
            for bad in (float("nan"), float("inf"), 10 ** 400):
                with pytest.raises(ContractViolation, match=name):
                    TrainConfig(**{name: bad})
        for name, bad in (("max_epochs", 2.5), ("early_stop_patience", 3.0),
                          ("seed", "0"), ("seed", -1), ("batch_size", 63),
                          ("batch_size", 0)):
            with pytest.raises(ContractViolation, match=name):
                TrainConfig(**{name: bad})
        with pytest.raises(ContractViolation, match="max_epochs"):
            TrainConfig.from_dict({"max_epochs": 2.5})
        for data, name in (({"h1": {"bins": 4}}, "h1"),
                           ({"h1": {"kind": "kl", "bins": "x"}}, "bins"),
                           ({"h1": {"kind": "kl", "bins": 2.7}}, "bins"),
                           ({"h1": {"kind": "mmd", "bandwidths": 0.5}}, "bandwidths"),
                           ({"h1": {"kind": "mmd", "bandwidths": [10 ** 400]}}, "bandwidths"),
                           ({"h1": 5}, "h1"),
                           ({"h2": {}}, "h2"),
                           ({"h2": 5}, "h2"),
                           ({"model": {"hidden": [4, "a"]}}, "hidden"),
                           ({"model": {"task": "regression"}}, "model"),
                           ({"model": {"hidden": [4, 2], "n_classes": "x"}}, "n_classes")):
            with pytest.raises(ContractViolation, match=name):
                TrainConfig.from_dict(data)
        with pytest.raises(ContractViolation, match="bins"):
            dv.DivergenceKind(kind="kl", bins=2.7)

    @pytest.mark.parametrize("name", ["alpha", "beta", "lambda_", "learning_rate",
                                      "tanh_a", "holdout_fraction", "max_epochs",
                                      "early_stop_patience", "batch_size", "seed"])
    def test_bool_is_not_a_number(self, name):
        # True used to pass the real-number fields as 1
        with pytest.raises(ContractViolation, match=name):
            TrainConfig(**{name: True})

    def test_copula_method_needs_two_features(self):
        narrow = LayerSpec(hidden=(8, 1), task="classification", n_classes=2)
        with pytest.raises(ContractViolation, match="feature dimension"):
            TrainConfig(method="cdan", model=narrow)
        TrainConfig(method="mlp", model=narrow)  # fine without the copula term

    def test_dict_round_trip(self):
        cfg = TrainConfig(method="dan", alpha=0.3, beta=0.7, seed=11,
                          h1=dv.DivergenceKind("mmd", bandwidths=(0.5, 1.0)),
                          h2=cop.DependenceKind("chi2"),
                          model=LayerSpec(hidden=(8, 8), task="regression"))
        back = TrainConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_json_round_trip_over_every_field_kind(self, data):
        def real(lo=0.0, hi=None, exclude_min=False):
            return data.draw(st.floats(lo, hi, exclude_min=exclude_min,
                                       allow_nan=False, allow_infinity=False))

        h1 = data.draw(st.sampled_from(dv.H1_TAGS))
        bandwidths = None
        if h1 == "mmd" and data.draw(st.booleans()):
            n_bw = data.draw(st.integers(1, 3))
            bandwidths = tuple(real(exclude_min=True) for _ in range(n_bw))
        method = data.draw(st.sampled_from(METHODS))
        hidden = data.draw(st.lists(st.integers(1, 64), min_size=1, max_size=3))
        if method == "cdan":
            hidden[-1] = max(hidden[-1], 2)
        cfg = TrainConfig(
            method=method, alpha=real(), beta=real(), lambda_=real(),
            learning_rate=real(exclude_min=True),
            max_epochs=data.draw(st.integers(1, 10 ** 6)),
            early_stop_patience=data.draw(st.integers(0, 10 ** 6)),
            batch_size=2 * data.draw(st.integers(1, 2 ** 40)),
            seed=data.draw(st.integers(0, 2 ** 64)),
            h1=dv.DivergenceKind(h1, bandwidths=bandwidths,
                                 bins=data.draw(st.integers(2, 10 ** 6))),
            h2=cop.DependenceKind(data.draw(st.sampled_from(cop.H2_TAGS))),
            tanh_a=real(exclude_min=True),
            model=LayerSpec(hidden=tuple(hidden),
                            task=data.draw(st.sampled_from(["classification", "regression"])),
                            n_classes=data.draw(st.integers(2, 50)),
                            activation=data.draw(st.sampled_from(["relu", "tanh"]))),
            holdout_fraction=real(hi=0.99))
        text = json.dumps(cfg.to_dict(), sort_keys=True)
        back = TrainConfig.from_dict(json.loads(text))
        assert back == cfg
        assert json.dumps(back.to_dict(), sort_keys=True) == text  # -0.0 included

    def test_from_dict_layers_over_base(self):
        base = TrainConfig(alpha=5.0, beta=2.0, seed=3)
        out = TrainConfig.from_dict({"alpha": 7.0, "h2": "w2"}, base=base)
        assert out.alpha == 7.0
        assert out.beta == 2.0
        assert out.seed == 3
        assert out.h2.tag == "w2"

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ContractViolation, match="momentum"):
            TrainConfig.from_dict({"momentum": 0.9})

    def test_from_dict_rejects_mc_tags(self):
        for tag in ("hellinger_mc", "alpha_mc"):
            with pytest.raises(ContractViolation, match=tag):
                TrainConfig.from_dict({"h2": {"tag": tag}})

    @pytest.mark.parametrize("name, instance, required", [
        ("h1", dv.DivergenceKind("mmd", bandwidths=(0.5,)), "kind"),
        ("h2", cop.DependenceKind("w2"), "tag"),
        ("model", LayerSpec(hidden=(3, 2), task="regression"), "hidden")])
    def test_nested_fields_share_one_rule(self, name, instance, required):
        assert getattr(TrainConfig.from_dict({name: instance}), name) is instance
        as_dict = TrainConfig.from_dict({name: instance}).to_dict()[name]
        assert getattr(TrainConfig.from_dict({name: as_dict}), name) == instance
        del as_dict[required]
        with pytest.raises(ContractViolation, match=f"{name} needs the key '{required}'"):
            TrainConfig.from_dict({name: as_dict})

    @pytest.mark.parametrize("name, value, misspelt", [
        ("h1", {"kind": "mmd", "bandwidth": [0.5]}, "bandwidth"),
        ("h2", {"tag": "chi2", "mc_samples": 1_000_000}, "mc_samples"),  # an old h2 dict
        ("model", {"hidden": [8, 4], "activaton": "tanh"}, "activaton")])
    def test_nested_dict_rejects_keys_its_class_lacks(self, name, value, misspelt):
        with pytest.raises(ContractViolation, match=f"{name} has unknown keys .*'{misspelt}'"):
            TrainConfig.from_dict({name: value})

    def test_from_dict_rejects_bad_tags(self):
        with pytest.raises(ContractViolation, match="h2 must be one of"):
            TrainConfig.from_dict({"h2": "js"})
        with pytest.raises(ContractViolation, match="h1 must be one of"):
            TrainConfig.from_dict({"h1": "energy"})


def w1_per_column(fs, ft):
    """W1 marginal term one column at a time: the oracle for the sorted form."""
    total = None
    for c in range(fs.shape[1]):
        cs, ct = ad.take_cols(fs, [c]), ad.take_cols(ft, [c])
        order_s = np.argsort(cs.value.ravel())  # the sort kind of w1_columns_graph
        order_t = np.argsort(ct.value.ravel())
        term = ad.mean(absolute(
            ad.take_rows(cs, order_s) - ad.take_rows(ct, order_t)))
        total = term if total is None else total + term
    return total


class TestW1MarginalTerm:
    # n = 6 and 12 are batch sizes where alpha * (1/n) != alpha / n at
    # alpha = 0.02, so a 1/n scale would break the exact gradient match.
    @pytest.mark.parametrize("n, m, ties", [(6, 3, False), (12, 4, False),
                                            (7, 5, False), (9, 1, False),
                                            (6, 4, True), (5, 1, True)])
    def test_sorted_form_matches_per_column_oracle(self, n, m, ties):
        rng = np.random.default_rng(100 * n + m)
        if ties:
            xs, xt = (rng.integers(-2, 3, size=(n, m)).astype(float) for _ in range(2))
        else:
            xs, xt = rng.normal(size=(n, m)), rng.normal(0.3, 1.2, size=(n, m))
        got = []
        for build in (lambda a, b: _marginal_term(a, b, dv.DivergenceKind("w1")),
                      w1_per_column):
            fs, ft = ad.leaf(xs), ad.leaf(xt)
            value = build(fs, ft)
            ad.backward(value * 0.02)  # the trainer scales the term by alpha
            got.append((value.item(), fs.grad, ft.grad))
        (v_new, gs_new, gt_new), (v_old, gs_old, gt_old) = got
        # the sum order differs, so the value may move by an ulp
        assert abs(v_new - v_old) <= 1e-12 * abs(v_old)
        assert np.array_equal(gs_new, gs_old)
        assert np.array_equal(gt_new, gt_old)
        expected = sum(dv.wasserstein1_1d(xs[:, c], xt[:, c]) for c in range(m))
        assert abs(v_new - expected) <= 1e-12 * max(abs(expected), 1e-300)


class TestTrainValidation:
    def test_unlabeled_source_rejected(self):
        source, target = moons_domains(20)
        with pytest.raises(ContractViolation, match="labeled"):
            train(source.unlabeled(), target.unlabeled(), quick_config())

    def test_dimension_mismatch_rejected(self):
        source, target = moons_domains(20)
        wide = Dataset(features=np.zeros((40, 3)), labels=None,
                       feature_names=("a", "b", "c"))
        with pytest.raises(ContractViolation, match="d=2.*d=3"):
            train(source, wide, quick_config())

    def test_classification_needs_integer_labels(self):
        source, target = moons_domains(20)
        floaty = Dataset(features=source.features,
                         labels=source.labels.astype(np.float64),
                         feature_names=source.feature_names)
        with pytest.raises(ContractViolation, match="integer"):
            train(floaty, target.unlabeled(), quick_config())

    def test_empty_target_rejected(self):
        source, target = moons_domains(20)
        with pytest.raises(ContractViolation, match="target dataset is empty"):
            train(source, target.unlabeled().subset([]), quick_config())

    def test_empty_source_rejected(self):
        source, target = moons_domains(20)
        with pytest.raises(ContractViolation, match="source dataset is empty"):
            train(source.subset([]), target.unlabeled(), quick_config())

    def test_too_few_rows_for_any_batch(self):
        source, target = moons_domains(20)
        tiny = source.subset([0])
        with pytest.raises(ContractViolation, match="batch"):
            train(tiny, target.unlabeled(), quick_config(holdout_fraction=0.0))


class TestTrainLoop:
    def test_deterministic_given_seed(self):
        source, target = moons_domains(60)
        cfg = quick_config(seed=5, early_stop_patience=20)
        params_a, trace_a = train(source, target.unlabeled(), cfg)
        params_b, trace_b = train(source, target.unlabeled(), cfg)
        for (wa, ba), (wb, bb) in zip(params_a.extractor, params_b.extractor):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(params_a.head[0], params_b.head[0])
        assert [t.to_dict() for t in trace_a] == [t.to_dict() for t in trace_b]

    def test_zero_weights_reduce_to_plain_mlp(self):
        source, target = moons_domains(60)
        plain = quick_config("mlp", seed=2)
        zeroed = quick_config("cdan", seed=2, alpha=0.0, beta=0.0)
        p_plain, t_plain = train(source, target.unlabeled(), plain)
        p_zero, t_zero = train(source, target.unlabeled(), zeroed)
        for (wa, _), (wb, _) in zip(p_plain.extractor, p_zero.extractor):
            np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(p_plain.head[0], p_zero.head[0])
        assert [t.loss for t in t_plain] == [t.loss for t in t_zero]
        assert all(t.md == 0.0 and t.cd == 0.0 for t in t_zero)

    def test_first_epoch_loss_decomposes_across_methods(self):
        # Full-batch, same seed: the regularized run's first-epoch loss must
        # equal the plain run's supervised loss plus its own MD and CD terms.
        source, target = moons_domains(60)
        shared = dict(seed=9, batch_size=512, max_epochs=1,
                      early_stop_patience=0)
        _, t_plain = train(source, target.unlabeled(),
                           quick_config("mlp", **shared))
        _, t_reg = train(source, target.unlabeled(),
                         quick_config("cdan", alpha=0.5, beta=0.5, **shared))
        lhs = t_reg[0].loss
        rhs = t_plain[0].loss + t_reg[0].md + t_reg[0].cd
        assert t_reg[0].md > 0.0
        assert t_reg[0].cd > 0.0
        assert abs(lhs - rhs) <= 1e-12

    def test_batch_loss_decomposes_at_arbitrary_params(self):
        rng = np.random.default_rng(31)
        xs = rng.normal(size=(32, 2))
        ys = rng.integers(0, 2, size=32)
        xt = rng.normal(size=(32, 2))
        cfg = quick_config("cdan", alpha=0.4, beta=0.3)
        params = init_params(cfg.model, 2, seed=4)
        targets = one_hot(ys, 2)
        loss, _, (md, cd) = _batch_loss(params, xs, targets, xt, cfg)
        sup = _supervised_loss(extract_features(xs, params), targets, params)
        assert abs(loss.item() - (sup.item() + md + cd)) <= 1e-12

    def test_batch_loss_differentiates_the_mapped_leaves(self):
        rng = np.random.default_rng(8)
        xs, xt = rng.normal(size=(16, 2)), rng.normal(size=(16, 2))
        ys = rng.integers(0, 2, size=16)
        cfg = quick_config("cdan", alpha=0.4, beta=0.3)
        params = init_params(cfg.model, 2, seed=2)
        loss, nodes, _ = _batch_loss(params, xs, one_hot(ys, 2), xt, cfg)
        mapped = params.map(ad.leaf).flat_arrays()
        assert [n.op for n in nodes] == ["leaf"] * len(mapped)
        assert [n.index for n in nodes] == sorted(n.index for n in nodes)
        for node, leaf, a in zip(nodes, mapped, params.flat_arrays(), strict=True):
            assert node.value.tobytes() == leaf.value.tobytes() == a.tobytes()
            assert node.value is a  # the leaf wraps the buffer's view: no copy
        reached = set(ad._reachable(loss))
        assert all(n in reached for n in nodes)

    def test_early_stopping_restores_best_parameters(self):
        from copulashift.training import _holdout_split, _validation_loss
        source, target = moons_domains(100)
        cfg = quick_config(seed=1, max_epochs=40, early_stop_patience=5,
                           holdout_fraction=0.2)
        params, trace = train(source, target.unlabeled(), cfg)
        vals = [t.val for t in trace]
        assert all(v is not None for v in vals)
        # if the run stopped early, exactly `patience` epochs failed to
        # improve on the best one; either way the returned parameters score
        # the best validation loss seen.
        k = int(np.argmin(vals))
        if len(trace) < cfg.max_epochs:
            assert len(vals) - 1 - k == cfg.early_stop_patience
        _, val_idx = _holdout_split(len(source), cfg.holdout_fraction, cfg.seed)
        restored = _validation_loss(params, source.features[val_idx],
                                    one_hot(source.labels[val_idx], 2))
        np.testing.assert_allclose(restored, min(vals), rtol=1e-12)

    def test_patience_zero_disables_early_stopping(self):
        source, target = moons_domains(40)
        cfg = quick_config(seed=1, max_epochs=6, early_stop_patience=0)
        _, trace = train(source, target.unlabeled(), cfg)
        assert len(trace) == 6
        assert [t.epoch for t in trace] == list(range(1, 7))

    def test_nonfinite_loss_aborts(self):
        source, target = moons_domains(40)
        huge = Dataset(features=source.features,
                       labels=np.full(len(source), 1e200),
                       feature_names=source.feature_names)
        cfg = quick_config("mlp", model=LayerSpec(hidden=(8, 4), task="regression"),
                           max_epochs=5)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError,
                                                       match="non-finite"):
            train(huge, target.unlabeled(), cfg)

    def test_training_improves_over_initialization(self):
        source, target = moons_domains(100)
        cfg = quick_config("mlp", seed=3, max_epochs=30,
                           early_stop_patience=20)
        params, trace = train(source, target.unlabeled(), cfg)
        metrics = evaluate_classification(params, source)
        assert metrics.accuracy > 0.8
        assert trace[-1].loss < trace[0].loss


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.3, 0.2])
        labels = np.array([1, 1, 0, 0])
        assert _auc_mann_whitney(scores, labels) == 1.0
        assert _auc_mann_whitney(scores, 1 - labels) == 0.0

    def test_hand_counted_mixed_case(self):
        # pos {0.8, 0.4} vs neg {0.6, 0.2}: 3 of 4 pairs ordered correctly.
        scores = np.array([0.8, 0.4, 0.6, 0.2])
        labels = np.array([1, 1, 0, 0])
        assert _auc_mann_whitney(scores, labels) == 0.75

    def test_ties_count_half(self):
        scores = np.array([0.5, 0.5])
        labels = np.array([1, 0])
        assert _auc_mann_whitney(scores, labels) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ContractViolation, match="single class"):
            _auc_mann_whitney(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(17)
        scores = rng.uniform(size=4000)
        labels = rng.integers(0, 2, size=4000)
        assert abs(_auc_mann_whitney(scores, labels) - 0.5) < 0.03

    LEVELS = [0.0, -0.0, 1e-300, 0.25, 0.5, float(np.nextafter(0.5, 1.0)), 1.0]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_tie_loop(self, data):
        n = data.draw(st.integers(2, 60), label="n")
        kind = data.draw(st.sampled_from(["tied", "all tied", "distinct"]), label="scores")
        if kind == "distinct":
            seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
            scores = np.random.default_rng(seed).uniform(size=n)
        else:
            levels = self.LEVELS if kind == "tied" else [data.draw(st.sampled_from(self.LEVELS))]
            scores = np.array(data.draw(st.lists(st.sampled_from(levels), min_size=n,
                                                 max_size=n), label="tied scores"))
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                                    label="labels"))
        lone = data.draw(st.sampled_from([None, 0, 1]), label="class of one")
        if lone is not None:  # one member of a class: the edge of "single class"
            labels[:] = 1 - lone
            labels[data.draw(st.integers(0, n - 1), label="lone row")] = lone
        elif labels.min() == labels.max():
            labels[data.draw(st.integers(0, n - 1), label="flipped row")] ^= 1
        assert _auc_mann_whitney(scores, labels) == auc_tie_loop(scores, labels)


class TestEvaluation:
    def test_regression_hand_values(self):
        params = constant_regressor(3.0)
        ds = Dataset(features=np.zeros((2, 2)), labels=np.array([2.0, 4.0]),
                     feature_names=("a", "b"))
        identity = MinMaxStats()
        m = evaluate_regression(params, ds, identity)
        np.testing.assert_allclose(m.rmse, 1.0, rtol=1e-12)
        np.testing.assert_allclose(m.r2, 0.0, atol=1e-12)
        np.testing.assert_allclose(m.re, 0.375, rtol=1e-12)  # (1/2 + 1/4)/2

    def test_relative_error_uses_original_scale(self):
        params = constant_regressor(0.5)
        ds = Dataset(features=np.zeros((2, 2)), labels=np.array([0.0, 1.0]),
                     feature_names=("a", "b"))
        stats = MinMaxStats(label_min=10.0, label_max=20.0)
        m = evaluate_regression(params, ds, stats)
        # predictions denormalize to 15 against true 10 and 20.
        np.testing.assert_allclose(m.re, 0.5 * (5.0 / 10.0 + 5.0 / 20.0),
                                   rtol=1e-12)

    def test_zero_variance_targets_rejected(self):
        params = constant_regressor(1.0)
        ds = Dataset(features=np.zeros((3, 2)), labels=np.array([2.0, 2.0, 2.0]),
                     feature_names=("a", "b"))
        identity = MinMaxStats()
        with pytest.raises(ContractViolation, match="zero-variance"):
            evaluate_regression(params, ds, identity)

    def test_unlabeled_dataset_rejected(self):
        params = constant_regressor(1.0)
        ds = Dataset(features=np.zeros((3, 2)), labels=None,
                     feature_names=("a", "b"))
        identity = MinMaxStats()
        with pytest.raises(ContractViolation):
            evaluate_regression(params, ds, identity)

    def test_aggregate_metrics_mean_and_std(self):
        per_seed = [{"seed": 0, "accuracy": 0.9}, {"seed": 1, "accuracy": 0.8},
                    {"seed": 2, "accuracy": 1.0}]
        agg = aggregate_metrics(per_seed)
        np.testing.assert_allclose(agg["accuracy"]["mean"], 0.9, rtol=1e-12)
        np.testing.assert_allclose(agg["accuracy"]["std"], 0.1, rtol=1e-12)
        assert list(agg) == ["accuracy"]  # the seed is a label, not a metric


class TestRunExperiment:
    def test_classification_report_structure(self):
        source, target = moons_domains(60)
        rep = run_experiment("moons", source, target,
                             quick_config(seed=0), seeds=[0, 1])
        assert rep.task == "moons"
        assert rep.method == "cdan"
        assert [p["seed"] for p in rep.per_seed] == [0, 1]
        assert {"accuracy", "auc", "md", "cd", "val"} <= set(rep.per_seed[0])
        assert "accuracy" in rep.aggregate
        assert len(rep.trace) > 0
        json.dumps(rep.to_dict())  # must be serializable as produced

    def test_regression_requires_stats(self):
        source, target = moons_domains(40)
        labeled = Dataset(features=source.features,
                          labels=source.features[:, 0].astype(np.float64),
                          feature_names=source.feature_names)
        cfg = quick_config("mlp", model=LayerSpec(hidden=(8, 4), task="regression"))
        with pytest.raises(ContractViolation, match="stats"):
            run_experiment("reg", labeled, target, cfg, seeds=[0])

    def test_empty_seed_list_rejected(self):
        source, target = moons_domains(20)
        with pytest.raises(ContractViolation, match="seeds"):
            run_experiment("moons", source, target, quick_config(), seeds=[])

    def test_target_labels_never_needed_for_training(self, monkeypatch):
        seen = []

        def recording_train(source, target, config):
            seen.append(target.labels)
            return train(source, target, config)

        monkeypatch.setattr(training, "train", recording_train)
        source, target = moons_domains(40)
        rep = run_experiment("moons", source, target, quick_config(seed=0), seeds=[0, 1])
        assert seen == [None, None]
        assert "accuracy" in rep.per_seed[0]

    def test_learned_shift_is_finite_and_nonnegative(self):
        source, target = moons_domains(60)
        cfg = quick_config(seed=0)
        params, _ = train(source, target.unlabeled(), cfg)
        md, cd = learned_shift(params, source, target, cfg)
        assert np.isfinite(md) and md >= 0.0
        assert np.isfinite(cd) and cd >= 0.0

    def test_scoring_builds_no_graph_nodes(self, monkeypatch):
        # validation, prediction, evaluation and learned_shift's features all
        # run the plain forward pass (learned_shift's copula distance is a node)
        from copulashift.training import _validation_loss

        def no_dense(*args):
            raise AssertionError("a scoring pass built a dense node")

        monkeypatch.setattr(ad, "dense", no_dense)
        source, target = moons_domains(30)
        cfg = quick_config(seed=0)
        clf, reg = init_params(cfg.model, 2, seed=1), constant_regressor(0.5)
        identity = MinMaxStats()
        reg_target = Dataset(target.features, target.features[:, 0])
        first = next(ad._counter)
        evaluate_classification(clf, target)
        evaluate_regression(reg, reg_target, identity)
        _validation_loss(clf, source.features, one_hot(source.labels, 2))
        _validation_loss(reg, reg_target.features, reg_target.labels)
        assert next(ad._counter) == first + 1
        learned_shift(clf, source, target, cfg)

    def test_dependence_regularizer_shrinks_learned_dependence_gap(self):
        # Across ten seeds the regularized runs must land at a smaller mean
        # copula distance between learned source/target features than the
        # unregularized baseline.
        cds = {"mlp": [], "cdan": []}
        for method in ("mlp", "cdan"):
            cfg = TrainConfig(method=method, max_epochs=60)
            for s in range(10):
                source, target = moons_domains(n_per_class=256, seed=s)
                rep = run_experiment("shift", source, target, cfg, seeds=[s])
                cds[method].append(rep.per_seed[0]["cd"])
        assert np.mean(cds["cdan"]) < np.mean(cds["mlp"])


class TestShiftReport:
    def test_identical_datasets_report_zero(self):
        source, _ = moons_domains(50)
        rep = shift_report(source, source, dv.DivergenceKind("w1"),
                           cop.DependenceKind("kl"))
        np.testing.assert_array_equal(rep.md_per_feature, 0.0)
        assert rep.cd == 0.0
        assert rep.feature_names == list(source.feature_names)

    def test_stretch_shift_shows_in_first_coordinate(self):
        source, target = moons_domains(200, stretch=3.0)
        rep = shift_report(source, target, dv.DivergenceKind("w1"),
                           cop.DependenceKind("kl"))
        assert rep.md_per_feature[0] > rep.md_per_feature[1]
        assert rep.cd >= 0.0

    def test_univariate_data_has_no_copula_term(self):
        a = Dataset(features=np.linspace(0, 1, 20)[:, None], labels=None,
                    feature_names=("x",))
        rep = shift_report(a, a, dv.DivergenceKind("w1"), cop.DependenceKind("kl"))
        assert rep.cd is None

    def test_dimension_mismatch_rejected(self):
        a = Dataset(features=np.zeros((5, 2)), labels=None,
                    feature_names=("a", "b"))
        b = Dataset(features=np.zeros((5, 3)), labels=None,
                    feature_names=("a", "b", "c"))
        with pytest.raises(ContractViolation, match="mismatch"):
            shift_report(a, b, dv.DivergenceKind("w1"), cop.DependenceKind("kl"))

    @pytest.mark.parametrize("beta", ["x", "3", None, False])
    def test_malformed_beta_is_named(self, beta):
        source, target = moons_domains(30)
        with pytest.raises(ContractViolation, match="beta"):
            shift_report(source, target, dv.DivergenceKind("w1"),
                         cop.DependenceKind("kl"), beta=beta)

    def test_report_serializes(self):
        source, target = moons_domains(30)
        rep = shift_report(source, target, dv.DivergenceKind("w1"),
                           cop.DependenceKind("kl"))
        d = rep.to_dict()
        assert set(d) == {"md_per_feature", "cd", "feature_names"}
        json.dumps(d)
