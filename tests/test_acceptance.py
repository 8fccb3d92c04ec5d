"""Acceptance gate: one test per release criterion.

Each test prints a single ``criterion N PASS/FAIL`` line (visible with
``pytest -s`` and in failure output) and then asserts. The wine-quality
criteria need the UCI CSVs on disk; when they are absent the tests fail
with the fetch instructions rather than silently skipping, because a red
gate must mean "not verified here".
"""

import time

import numpy as np
import pytest

import copulashift.autodiff as ad
import copulashift.copula as cop
import copulashift.divergences as dv
import copulashift.experiments as ex
from copulashift.copula import (DependenceKind, copula_distance,
                                copula_distance_graph, kendall_tau_smooth,
                                pair_dependence_divergence)
from copulashift.models import LayerSpec, ModelParams, extract_features, init_params, one_hot
from copulashift.training import TrainConfig, _marginal_term, _supervised_loss, train
from oracles import (cd_kl_gradient_analytic, finite_difference_check,
                     gaussian_kl_multivariate, gaussian_kl_univariate,
                     kendall_tau_exact, pair_dependence_divergence_mc)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n} {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


def wine_or_fail(n: int):
    try:
        return ex.wine_transfer_pairs()
    except ex.MissingDataError as err:
        report(n, False, f"wine data unavailable: {err}")


class TestAcceptance:
    def test_criterion_1_closed_form_divergence_decomposition(self):
        # Three bivariate Gaussians: a mean-shifted one, the standard one,
        # and a correlated one whose determinant is exp(-1). The overall KL
        # splits exactly into marginal KLs plus the dependence term.
        t0 = time.time()
        eye = np.eye(2)
        zero = np.zeros(2)
        mu_x = np.array([0.0, 1.0])
        rho_z = np.sqrt(1.0 - np.exp(-1.0))
        sigma_z = np.array([[1.0, rho_z], [rho_z, 1.0]])
        kl = DependenceKind("kl")

        overall_xy = gaussian_kl_multivariate(mu_x, eye, zero, eye)
        md_xy = sum(gaussian_kl_univariate(m, 1.0, 0.0, 1.0) for m in mu_x)
        cd_xy = abs(pair_dependence_divergence(0.0, kl)
                    - pair_dependence_divergence(0.0, kl))
        overall_zy = gaussian_kl_multivariate(zero, sigma_z, zero, eye)
        md_zy = 0.0  # both have standard-normal marginals
        cd_zy = abs(pair_dependence_divergence(rho_z, kl)
                    - pair_dependence_divergence(0.0, kl))
        elapsed = time.time() - t0

        checks = {"overall(X,Y)=0.5": abs(overall_xy - 0.5),
                  "CD(X,Y)=0": abs(cd_xy),
                  "overall = MD + CD (X,Y)": abs(overall_xy - (md_xy + cd_xy)),
                  "overall(Z,Y)=0.5": abs(overall_zy - 0.5),
                  "CD(Z,Y)=0.5": abs(cd_zy - 0.5),
                  "overall = MD + CD (Z,Y)": abs(overall_zy - (md_zy + cd_zy))}
        worst = max(checks.values())
        ok = worst < 1e-9 and elapsed < 1.0
        report(1, ok, f"max deviation {worst:.2e} (tol 1e-9), {elapsed:.3f}s")

    def test_criterion_2_moons_accuracy_bands(self):
        t0 = time.time()
        table = ex.run_moons_benchmark(methods=("mlp", "cdan"), n_seeds=10)
        elapsed = time.time() - t0
        bands = {"2x": 97.91, "3x": 94.42, "4x": 93.17, "5x": 91.54}
        devs, ordering = {}, {}
        for col, ref in bands.items():
            c = table.cell("CDAN", col)["mean"]
            devs[col] = c - ref
            ordering[col] = c >= table.cell("MLP", col)["mean"]
        ok = (all(abs(d) <= 2.5 for d in devs.values())
              and all(ordering.values()) and elapsed < 300.0)
        detail = ", ".join(f"{c}: dev {d:+.2f}{'' if ordering[c] else ' (< MLP)'}"
                           for c, d in devs.items())
        report(2, ok, f"{detail}; {elapsed:.0f}s (limit 300)")

    def test_criterion_3_wine_transfer_bands(self):
        pairs = wine_or_fail(3)
        t0 = time.time()
        table = ex.run_wine_benchmark(methods=("mlp", "cdan"), n_seeds=20)
        elapsed = time.time() - t0
        bands = {("W->R RMSE", 0.120, 0.015), ("W->R R2", 0.201, 0.07),
                 ("R->W RMSE", 0.133, 0.015), ("R->W R2", 0.177, 0.07)}
        devs = {col: table.cell("CDAN", col)["mean"] - ref
                for col, ref, _ in bands}
        in_band = {col: abs(devs[col]) <= tol for col, _, tol in bands}
        better = {col: table.cell("CDAN", col)["mean"]
                  > table.cell("MLP", col)["mean"]
                  for col in ("W->R R2", "R->W R2")}
        ok = all(in_band.values()) and all(better.values()) and elapsed < 900.0
        detail = ", ".join(f"{c}: dev {d:+.3f}" for c, d in sorted(devs.items()))
        report(3, ok, f"{detail}; R2 beats baseline: {better}; {elapsed:.0f}s")

    def test_criterion_4_regularizer_ablation_trend(self):
        pairs = wine_or_fail(4)
        grid = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
        table = ex.run_wine_ablation(grid=grid, n_seeds=10)
        labels = [r["label"] for r in table.rows]
        ran_all = len(labels) == len(grid)  # single-term configs completed
        gains = {}
        for col in ("W->R R2", "R->W R2"):
            gains[col] = (table.cell("alpha=1, beta=1", col)["mean"]
                          - table.cell("alpha=0, beta=0", col)["mean"])
        ok = ran_all and all(g > 0.0 for g in gains.values())
        report(4, ok, f"rows {labels}; R2 gain over unregularized: "
                      + ", ".join(f"{c}: {g:+.3f}" for c, g in gains.items()))

    def test_criterion_5_smoothed_tau_converges_to_exact(self):
        # Frozen tie-free draw: 1000 correlated Gaussian rows, seed 19.
        rng = np.random.default_rng(19)
        z = rng.normal(size=(1000, 2))
        rho = 0.6
        pairs = np.column_stack([z[:, 0],
                                 rho * z[:, 0] + np.sqrt(1 - rho * rho) * z[:, 1]])
        assert len(np.unique(pairs[:, 0])) == 1000  # tie-free by construction
        assert len(np.unique(pairs[:, 1])) == 1000
        exact = kendall_tau_exact(pairs)
        sharpness = (1.0, 10.0, 100.0, 1000.0)
        errs = [abs(kendall_tau_smooth(pairs, a=a) - exact) for a in sharpness]
        nonincreasing = all(e1 >= e2 for e1, e2 in zip(errs, errs[1:]))
        ok = errs[-1] < 0.01 and nonincreasing
        report(5, ok, "errors over a in {1,10,100,1000}: "
                      + ", ".join(f"{e:.5f}" for e in errs)
                      + f"; final < 0.01: {errs[-1] < 0.01}, "
                        f"nonincreasing: {nonincreasing}")

    def test_criterion_6_closed_forms_match_monte_carlo(self):
        worst = ("", 0.0)
        ok = True
        for rho in (0.0, 0.3, 0.7):
            for kind in (DependenceKind("kl"), DependenceKind("chi2")):
                closed = pair_dependence_divergence(rho, kind)
                mc, se = pair_dependence_divergence_mc(rho, kind, seed=424242)
                diff = abs(closed - mc)
                # at rho = 0 every draw contributes exactly zero, so the
                # estimator is degenerate with se = 0 and diff = 0
                bound = max(3.0 * se, 1e-12)
                if diff >= bound:
                    ok = False
                z = diff / se if se > 0 else 0.0
                if z > worst[1]:
                    worst = (f"{kind.tag}@rho={rho}", z)
        report(6, ok, f"10^6-draw estimates within 3 standard errors; "
                      f"worst |z| = {worst[1]:.2f} ({worst[0]})")

    def test_criterion_7_gradient_fidelity(self):
        # (a) full regularized loss (supervised + marginal + dependence)
        # against central finite differences on a 16-row batch. Fixed MMD
        # bandwidths keep the probe losses differentiable functions of the
        # parameters alone.
        spec = LayerSpec(hidden=(8, 4), task="classification", n_classes=2)
        rng = np.random.default_rng(77)
        xs = rng.normal(size=(16, 2))
        ys = rng.integers(0, 2, size=16)
        xt = rng.normal(size=(16, 2)) @ np.diag([2.0, 1.0])
        params = init_params(spec, 2, seed=6)
        h1 = dv.DivergenceKind("mmd", bandwidths=(0.5, 1.0))
        h2 = DependenceKind("kl")

        def build(*param_nodes):
            it = iter(param_nodes)
            extractor = [(next(it), next(it)) for _ in spec.hidden]
            head = (next(it), next(it))
            view = ModelParams(spec, 2, extractor, head)
            f_s = extract_features(ad.constant(xs), view)
            f_t = extract_features(ad.constant(xt), view)
            loss = _supervised_loss(f_s, one_hot(ys, 2), view)
            loss = loss + _marginal_term(f_s, f_t, h1) * 0.3
            loss = loss + copula_distance_graph(f_s, f_t, 0.5, h2, 100.0)
            return loss

        rel_fd = finite_difference_check(build, params.flat_arrays(), step=1e-6)

        # (b) hand-derived dependence-term gradient against the graph engine,
        # at a generic point away from the absolute-value kinks.
        rng = np.random.default_rng(23)
        fs = rng.normal(size=(64, 3))
        ft = rng.normal(size=(64, 3)) @ np.diag([1.0, 0.5, 2.0])
        analytic = cd_kl_gradient_analytic(fs, ft, 0.8, a=100.0)
        leaf = ad.leaf(fs)
        node = copula_distance_graph(leaf, ad.constant(ft), 0.8,
                                     DependenceKind("kl"), 100.0)
        ad.backward(node)
        rel_analytic = (np.max(np.abs(analytic - leaf.grad))
                        / (np.abs(leaf.grad).max() + 1e-300))

        ok = rel_fd < 1e-5 and rel_analytic < 1e-6
        report(7, ok, f"finite-difference rel {rel_fd:.2e} (tol 1e-5); "
                      f"analytic-vs-graph rel {rel_analytic:.2e} (tol 1e-6)")

    def test_criterion_8_property_suites(self):
        notes = []
        ok = True
        kinds = [DependenceKind("kl"), DependenceKind("chi2"),
                 DependenceKind("w2"), DependenceKind("mmd")]

        # distance axioms on sampled features
        rng = np.random.default_rng(99)
        fa = rng.normal(size=(200, 3))
        fb = rng.normal(size=(200, 3)) @ np.diag([2.0, 1.0, 0.5])
        axioms = True
        for kind in kinds:
            d_ab = copula_distance(fa, fb, 1.0, kind, 100.0)
            d_ba = copula_distance(fb, fa, 1.0, kind, 100.0)
            d_aa = copula_distance(fa, fa, 1.0, kind, 100.0)
            axioms &= d_ab >= 0.0 and d_aa == 0.0 and abs(d_ab - d_ba) < 1e-12
        ok &= axioms
        notes.append(f"symmetry/nonnegativity/self-zero: "
                     f"{'ok' if axioms else 'VIOLATED'}")

        # monotonicity in |rho| for every closed form
        grid = np.linspace(0.0, 0.95, 40)
        monotone = all(
            np.all(np.diff([pair_dependence_divergence(r, kind)
                            for r in grid]) > 0.0)
            for kind in kinds)
        ok &= monotone
        notes.append(f"monotone in dependence: {'ok' if monotone else 'VIOLATED'}")

        # boundedness of the two bounded kinds as |rho| -> 1
        w2_cap = np.sqrt(4.0 - 2.0 * np.sqrt(2.0))
        mmd_cap = np.sqrt(1.0 / 3.0 + 0.2 - 2.0 / np.sqrt(21.0))
        rho_hi = 1.0 - 2e-6
        bounded = (pair_dependence_divergence(rho_hi, DependenceKind("w2"))
                   <= w2_cap + 1e-12
                   and pair_dependence_divergence(rho_hi, DependenceKind("mmd"))
                   <= mmd_cap + 1e-12)
        ok &= bounded
        notes.append(f"bounded caps {w2_cap:.4f}/{mmd_cap:.4f}: "
                     f"{'ok' if bounded else 'VIOLATED'}")

        # bit-identical training traces per seed
        src, tgt = ex.moons_pair(3.0, seed=0, n_per_class=60)
        cfg = TrainConfig(seed=4, max_epochs=6)
        params_a, trace_a = train(src, tgt.unlabeled(), cfg)
        params_b, trace_b = train(src, tgt.unlabeled(), cfg)
        deterministic = ([t.to_dict() for t in trace_a]
                         == [t.to_dict() for t in trace_b]
                         and all(np.array_equal(x, y) for x, y in
                                 zip(params_a.flat_arrays(),
                                     params_b.flat_arrays())))
        ok &= deterministic
        notes.append(f"bit-identical traces: {'ok' if deterministic else 'VIOLATED'}")

        report(8, ok, "; ".join(notes))
