import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemorph import classify, srvf
from curvemorph.classify import (
    CLASSIFIER_NAMES,
    canonical_classifier,
    cross_validate,
    fit_predict,
    lda_fit,
    lda_predict,
    multinomial_fit,
    multinomial_gradient,
    multinomial_objective,
    multinomial_predict,
    standardize_apply,
    standardize_fit,
    stratified_kfold,
    svm_linear_fit,
    svm_predict,
)
from curvemorph.landmarks import LandmarkConfiguration
from curvemorph.pipelines import fit_pipeline, run_pipeline
from curvemorph.simgen import SimConfig, generate_replicate
from oracles import multinomial_fit_ascent, svm_binary_sweep


def two_blob_data(rng, n_per=40, gap=10.0, dim=4):
    x = np.vstack(
        [rng.normal(size=(n_per, dim)) + np.r_[gap, np.zeros(dim - 1)], rng.normal(size=(n_per, dim)) - np.r_[gap, np.zeros(dim - 1)]]
    )
    y = np.array(["a"] * n_per + ["b"] * n_per)
    return x, y


class TestStandardize:
    def test_train_becomes_zero_mean_unit_sd(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.5, size=(30, 5))
        std = standardize_fit(x)
        z = standardize_apply(std, x)
        assert np.max(np.abs(z.mean(axis=0))) < 1e-10
        assert np.max(np.abs(z.std(axis=0, ddof=1) - 1.0)) < 1e-10

    def test_constant_column_no_blowup(self):
        x = np.ones((10, 3))
        x[:, 1] = np.arange(10)
        z = standardize_apply(standardize_fit(x), x)
        assert np.all(np.isfinite(z))
        assert np.max(np.abs(z[:, 0])) == 0.0

    def test_test_row_equal_to_train_row(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 4))
        std = standardize_fit(x)
        assert np.array_equal(standardize_apply(std, x[3:4]), standardize_apply(std, x)[3:4])


class TestLda:
    def test_separable_two_class(self):
        rng = np.random.default_rng(2)
        x, y = two_blob_data(rng)
        model = lda_fit(x, y)
        assert np.mean(lda_predict(model, x) == y) == 1.0

    def test_identical_distributions_near_prior(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 4))
        y = np.array(["a"] * 140 + ["b"] * 60)
        model = lda_fit(x, y)
        acc = np.mean(lda_predict(model, x) == y)
        assert abs(acc - 0.7) < 0.1

    def test_point_at_class_mean(self):
        rng = np.random.default_rng(4)
        x, y = two_blob_data(rng, gap=4.0)
        model = lda_fit(x, y)
        mean_a = x[y == "a"].mean(axis=0)
        assert lda_predict(model, mean_a)[0] == "a"

    def test_singleton_class_errors(self):
        x = np.random.default_rng(5).normal(size=(5, 3))
        y = np.array(["a", "a", "a", "a", "b"])
        with pytest.raises(ValueError, match="insufficient class data"):
            lda_fit(x, y)

    def test_singleton_class_is_named(self):
        x = np.random.default_rng(5).normal(size=(5, 3))
        y = np.array(["a", "a", "b", "a", "a"])
        with pytest.raises(ValueError, match="^insufficient class data: class 'b' has 1 row; LDA needs at least 2$"):
            lda_fit(x, y)


class TestMultinomial:
    def test_separable(self):
        rng = np.random.default_rng(6)
        x, y = two_blob_data(rng, gap=6.0)
        model = multinomial_fit(x, y)
        assert np.mean(multinomial_predict(model, x) == y) == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(25, 3))
        labels = rng.choice(["a", "b", "c"], size=25)
        classes = np.unique(labels)
        y_onehot = (labels[:, None] == classes[None, :]).astype(float)
        for trial in range(5):
            w = rng.normal(scale=0.5, size=(3, classes.size))
            b = rng.normal(scale=0.5, size=classes.size)
            gw, gb = multinomial_gradient(w, b, x, y_onehot)
            eps = 1e-6
            for _ in range(4):
                i, j = rng.integers(3), rng.integers(classes.size)
                wp, wm = w.copy(), w.copy()
                wp[i, j] += eps
                wm[i, j] -= eps
                fd = (multinomial_objective(wp, b, x, y_onehot) - multinomial_objective(wm, b, x, y_onehot)) / (2 * eps)
                assert fd == pytest.approx(gw[i, j], rel=1e-5, abs=1e-7)
            j = rng.integers(classes.size)
            bp, bm = b.copy(), b.copy()
            bp[j] += eps
            bm[j] -= eps
            fd = (multinomial_objective(w, bp, x, y_onehot) - multinomial_objective(w, bm, x, y_onehot)) / (2 * eps)
            assert fd == pytest.approx(gb[j], rel=1e-5, abs=1e-7)

    def test_zero_weight_model_predicts_priors(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 2))
        probs = np.exp(x @ np.zeros((2, 3)))
        probs /= probs.sum(axis=1, keepdims=True)
        assert np.allclose(probs, 1.0 / 3.0)

    def test_convergence_flag(self):
        rng = np.random.default_rng(9)
        x, y = two_blob_data(rng, gap=0.1, n_per=15)
        model = multinomial_fit(x, y)
        assert model.converged
        assert model.n_iter <= 30

    def test_iteration_cap_is_reported(self, monkeypatch):
        rng = np.random.default_rng(9)
        x, y = two_blob_data(rng, gap=0.1, n_per=15)
        monkeypatch.setattr(classify, "_NEWTON_MAX_ITER", 1)
        model = multinomial_fit(x, y)
        assert (model.converged, model.n_iter) == (False, 1)

    def test_intercepts_sum_to_zero(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(45, 3))
        labels = np.repeat(["a", "b", "c"], 15)
        model = multinomial_fit(x + (labels == "b")[:, None], labels)
        assert model.converged
        assert abs(model.intercepts.sum()) < 1e-12


def multinomial_data(seed):
    """Three overlapping classes in three dimensions: a fit with strong curvature, where gradient ascent converges."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(["a", "b", "c"], 20)
    centers = rng.normal(scale=0.8, size=(3, 3))
    return rng.normal(size=(60, 3)) + centers[np.searchsorted(["a", "b", "c"], labels)], labels


class TestMultinomialNewtonAgainstAscentOracle:
    """Where the former gradient ascent converges, Newton's optimum is at least as good and predicts alike away from ties."""

    def test_objective_no_lower_and_predictions_agree(self):
        compared = 0
        for seed in range(8):
            x, labels = multinomial_data(seed)
            oracle = multinomial_fit_ascent(x, labels)
            if not oracle.converged:
                continue
            compared += 1
            model = multinomial_fit(x, labels)
            assert model.converged and model.n_iter <= 30
            y_onehot = (labels[:, None] == model.classes[None, :]).astype(float)
            got = multinomial_objective(model.weights, model.intercepts, x, y_onehot)
            expected = multinomial_objective(oracle.weights, oracle.intercepts, x, y_onehot)
            assert got >= expected - 1e-12 * abs(expected)
            test = np.random.default_rng(100 + seed).normal(scale=2.0, size=(200, 3))
            logits = test @ oracle.weights + oracle.intercepts
            top2 = np.sort(logits, axis=1)[:, -2:]
            clear = top2[:, 1] - top2[:, 0] > 1e-4
            assert clear.sum() > 150
            assert np.array_equal(multinomial_predict(model, test[clear]), multinomial_predict(oracle, test[clear]))
        assert compared >= 6


class TestSvm:
    def test_separable_training_accuracy(self):
        rng = np.random.default_rng(10)
        x, y = two_blob_data(rng, gap=5.0)
        std = standardize_fit(x)
        xs = standardize_apply(std, x)
        model = svm_linear_fit(xs, y)
        assert np.mean(svm_predict(model, xs) == y) == 1.0

    def test_duplicate_point_same_prediction(self):
        rng = np.random.default_rng(11)
        x, y = two_blob_data(rng, gap=5.0)
        model = svm_linear_fit(x, y)
        pred = svm_predict(model, x[7:8])
        assert pred[0] == y[7]

    def test_binary_equals_single_machine(self):
        rng = np.random.default_rng(12)
        x, y = two_blob_data(rng, gap=2.0)
        model = svm_linear_fit(x, y)
        assert len(model.pair_weights) == 1
        a, b, w = model.pair_weights[0]
        xa = np.hstack([x, np.ones((x.shape[0], 1))])
        direct = np.where(xa @ w >= 0, model.classes[a], model.classes[b])
        assert np.array_equal(svm_predict(model, x), direct)

    def test_three_class_votes(self):
        rng = np.random.default_rng(13)
        centers = np.array([[6.0, 0.0], [-6.0, 0.0], [0.0, 6.0]])
        x = np.vstack([rng.normal(size=(20, 2)) + c for c in centers])
        y = np.repeat(["a", "b", "c"], 20)
        model = svm_linear_fit(x, y)
        assert np.mean(svm_predict(model, x) == y) == 1.0


# The numpy-scalar form of the dual coordinate sweep (`oracles.svm_binary_sweep`), kept verbatim as its oracle.
def _svm_binary_loop(x: np.ndarray, y: np.ndarray, c_reg: float, tol: float, max_sweeps: int) -> np.ndarray:
    """Dual coordinate descent for the L1-loss linear SVM, bias as augmented feature."""
    xa = np.hstack([x, np.ones((x.shape[0], 1))])
    n = xa.shape[0]
    qdiag = np.sum(xa**2, axis=1)
    alpha = np.zeros(n)
    w = np.zeros(xa.shape[1])
    for _ in range(max_sweeps):
        for i in range(n):
            g = y[i] * (xa[i] @ w) - 1.0
            a_new = min(max(alpha[i] - g / qdiag[i], 0.0), c_reg)
            if a_new != alpha[i]:
                w += (a_new - alpha[i]) * y[i] * xa[i]
                alpha[i] = a_new
        margins = 1.0 - y * (xa @ w)
        primal = 0.5 * w @ w + c_reg * np.sum(np.maximum(margins, 0.0))
        dual = np.sum(alpha) - 0.5 * w @ w
        if primal - dual <= tol * max(1.0, abs(primal)):
            break
    return w


def _uncapped_sweep(x: np.ndarray, y: np.ndarray, c_reg: float) -> np.ndarray:
    """The coordinate sweep run to a relative duality gap of 1e-13, with no cap it reaches in practice."""
    return svm_binary_sweep(x, y, c_reg, 1e-13, 10**6)


def binary_svm_data(seed, n, d, separable):
    """Labels +-1 with both signs present; separable classes sit 3 sd apart, overlapping ones 0.2 sd."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.permutation(n) % 2 == 0, 1.0, -1.0)
    x = rng.normal(size=(n, d)) + (3.0 if separable else 0.2) * y[:, None]
    return x, y


def with_extra_row(x, y, kind):
    """The problem with row 0 repeated: as a duplicate (same label) or as a contradiction (the other label)."""
    if kind == "none":
        return x, y
    return np.vstack([x, x[:1]]), np.append(y, y[0] if kind == "duplicate" else -y[0])


def relative_error(got, expected):
    return np.linalg.norm(got - expected) / np.linalg.norm(expected)


class TestSvmSweepMatchesLoopOracle:
    """The sweep oracle keeps the per-element loop's operations, so its weights are bitwise the loop's."""

    @pytest.mark.parametrize("d", [1, 6, 30])
    @pytest.mark.parametrize("n", [2, 7, 40, 125])
    def test_weights_equal(self, n, d):
        for seed in (0, 1):
            for separable in (True, False):
                x, y = binary_svm_data(seed, n, d, separable)
                for c_reg in (1.0, 0.05):
                    for max_sweeps in (1, 3, 1000):
                        expected = _svm_binary_loop(x, y, c_reg, 1e-6, max_sweeps)
                        got = svm_binary_sweep(x, y, c_reg, 1e-6, max_sweeps)
                        assert np.array_equal(got, expected), (seed, separable, c_reg, max_sweeps)

    def test_duplicated_row(self):
        for separable in (True, False):
            x, y = binary_svm_data(3, 40, 6, separable)
            x, y = np.vstack([x, x[5:6]]), np.append(y, y[5])
            for c_reg in (1.0, 0.05):
                expected = _svm_binary_loop(x, y, c_reg, 1e-6, 1000)
                assert np.array_equal(svm_binary_sweep(x, y, c_reg, 1e-6, 1000), expected)


class TestSvmActiveSetMatchesUncappedSweep:
    """The dual's optimum w is unique, so the active-set weights equal the uncapped sweep's up to round-off."""

    @pytest.mark.parametrize("d", [1, 6, 30])
    @pytest.mark.parametrize("n", [2, 7, 40, 125])
    def test_weights_within_1e_8(self, n, d):
        for seed in (0, 1):
            for separable in (True, False):
                for kind in ("none", "duplicate", "contradiction"):
                    x, y = with_extra_row(*binary_svm_data(seed, n, d, separable), kind)
                    for c_reg in (1.0, 0.05):
                        w, _, n_iter, converged = classify._svm_binary(x, y, c_reg)
                        assert converged, (seed, separable, kind, c_reg, n_iter)
                        assert relative_error(w, _uncapped_sweep(x, y, c_reg)) < 1e-8, (seed, separable, kind, c_reg)

    def test_pair_weights_equal_in_order(self, monkeypatch):
        rng = np.random.default_rng(21)
        centers = rng.normal(scale=1.5, size=(4, 5))
        x = np.vstack([rng.normal(size=(15, 5)) + c for c in centers])
        labels = np.repeat(["a", "b", "c", "d"], 15)
        model = svm_linear_fit(x, labels)
        monkeypatch.setattr(classify, "_svm_binary", lambda x, y, c_reg: (_uncapped_sweep(x, y, c_reg), None, 0, True))
        expected = svm_linear_fit(x, labels)
        assert [(a, b) for a, b, _ in model.pair_weights] == [(a, b) for a, b, _ in expected.pair_weights] == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]
        assert all(model.converged) and len(model.converged) == len(model.n_iter) == 6
        xa = np.hstack([x, np.ones((x.shape[0], 1))])
        for (_, _, w_got), (_, _, w_expected) in zip(model.pair_weights, expected.pair_weights):
            assert relative_error(w_got, w_expected) < 1e-8
            clear = np.abs(xa @ w_expected) > 1e-6
            assert np.array_equal(xa[clear] @ w_got >= 0.0, xa[clear] @ w_expected >= 0.0)
        test = rng.normal(scale=2.0, size=(300, 5))
        assert np.array_equal(svm_predict(model, test), svm_predict(expected, test))

    @pytest.mark.parametrize("pipeline_id", ["GM", "FDM"])
    def test_cross_validation_equal(self, pipeline_id, monkeypatch):
        configs = generate_replicate(SimConfig(seed=11, group_sizes=(6, 6, 6, 6)), 0)
        got = cross_validate(configs, pipeline_id, "svm")
        monkeypatch.setattr(classify, "_svm_binary", lambda x, y, c_reg: (_uncapped_sweep(x, y, c_reg), None, 0, True))
        expected = cross_validate(configs, pipeline_id, "svm")
        assert got.unconverged_folds == 0
        assert np.array_equal(got.per_fold_accuracy, expected.per_fold_accuracy)
        assert np.array_equal(got.confusion, expected.confusion)


class TestSvmActiveSetKkt:
    """The returned duals satisfy the KKT conditions of the dual to 1e-9, and the weights are Z^T alpha."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=60),
        d=st.integers(min_value=1, max_value=30),
        separable=st.booleans(),
        kind=st.sampled_from(["none", "duplicate", "contradiction"]),
        c_reg=st.sampled_from([1.0, 0.05]),
    )
    def test_kkt(self, seed, n, d, separable, kind, c_reg):
        x, y = with_extra_row(*binary_svm_data(seed, n, d, separable), kind)
        w, alpha, _, converged = classify._svm_binary(x, y, c_reg)
        assert converged
        z = y[:, None] * np.hstack([x, np.ones((x.shape[0], 1))])
        assert np.all((alpha >= 0.0) & (alpha <= c_reg))
        assert np.allclose(w, alpha @ z, rtol=0.0, atol=1e-12)
        g = z @ w - 1.0
        at_zero, at_c = alpha == 0.0, alpha == c_reg
        assert np.all(g[at_zero] >= -1e-9)
        assert np.all(g[at_c] <= 1e-9)
        assert np.all(np.abs(g[~at_zero & ~at_c]) <= 1e-9)

    @pytest.mark.parametrize("d", [1, 6, 30])
    @pytest.mark.parametrize("n", [2, 7, 40, 130])
    def test_inputs_far_from_unit_scale_converge(self, n, d):
        # With x ~ 1e3, w = Z^T alpha cancels terms of size 1e5, so the
        # gradient's round-off exceeds the 1e-10 tolerance of unit scale.
        for seed in (0, 1):
            for kind in ("none", "contradiction"):
                x, y = with_extra_row(*binary_svm_data(seed, n, d, False), kind)
                for c_reg in (1.0, 0.05):
                    w, alpha, n_iter, converged = classify._svm_binary(1e3 * x, y, c_reg)
                    assert converged, (seed, kind, c_reg, n_iter)
                    assert np.all((alpha >= 0.0) & (alpha <= c_reg))

    def test_iteration_cap_is_reported(self, monkeypatch):
        x, y = binary_svm_data(0, 40, 6, False)
        monkeypatch.setattr(classify, "_SVM_MAX_ITER", 3)
        w, _, n_iter, converged = classify._svm_binary(x, y, 1.0)
        assert (n_iter, converged) == (3, False)
        model = svm_linear_fit(x, np.where(y > 0, "a", "b"))
        assert (model.n_iter, model.converged) == ([3], [False])


class TestStratifiedKfold:
    def test_balanced_two_classes(self):
        labels = np.array(["a"] * 5 + ["b"] * 5)
        folds = stratified_kfold(labels, seed=0)
        for f in range(5):
            chunk = labels[folds == f]
            assert sorted(chunk) == ["a", "b"]

    def test_deterministic(self):
        labels = np.repeat(["a", "b", "c"], 7)
        assert np.array_equal(stratified_kfold(labels, seed=42), stratified_kfold(labels, seed=42))

    def test_proportions_within_one(self):
        rng = np.random.default_rng(14)
        labels = rng.choice(["a", "b", "c"], size=61, p=[0.5, 0.3, 0.2])
        folds = stratified_kfold(labels, seed=1)
        for cls in np.unique(labels):
            counts = [np.sum((folds == f) & (labels == cls)) for f in range(5)]
            assert max(counts) - min(counts) <= 1

    def test_leave_one_out_boundary(self):
        labels = np.array(["a", "a", "b", "b", "b"])
        folds = stratified_kfold(labels, seed=0)
        assert sorted(np.bincount(folds, minlength=5)) == [1, 1, 1, 1, 1]


def simulated_configs(seed=0, sizes=(8, 8, 8, 8), n_points=20):
    config = SimConfig(group_sizes=sizes, sigmas=(0.02, 0.02, 0.02, 0.02), n_points=n_points, n_reps=1, seed=seed)
    return generate_replicate(config, 0)


class TestCrossValidate:
    def test_easy_groups_high_accuracy(self):
        configs = simulated_configs()
        report = cross_validate(configs, "FDM", "lda", seed=0)
        assert report.mean_accuracy >= 0.9
        assert report.per_fold_accuracy.shape == (5,)
        assert report.confusion.sum() == len(configs)

    def test_permuted_labels_near_baseline(self):
        configs = simulated_configs(seed=3, sizes=(10, 10, 10, 10))
        rng = np.random.default_rng(5)
        labels = np.array([c.label for c in configs])
        permuted = rng.permutation(labels)
        shuffled = [LandmarkConfiguration(c.specimen_id, c.points, lbl) for c, lbl in zip(configs, permuted)]
        report = cross_validate(shuffled, "FDM", "lda", seed=0)
        share = np.max(np.bincount(np.searchsorted(np.unique(permuted), permuted))) / len(configs)
        sd = np.sqrt(share * (1 - share) / len(configs))
        assert report.mean_accuracy <= share + 5 * sd

    def test_leakage_free_fold_fit(self):
        configs = simulated_configs(seed=7)
        labels = np.array([c.label for c in configs])
        folds = stratified_kfold(labels, seed=0)
        train_idx = np.flatnonzero(folds != 0)
        test_idx = np.flatnonzero(folds == 0)
        fitted = fit_pipeline("GM", [configs[i] for i in train_idx])
        # dropping one held-out specimen from the dataset leaves the fold fit unchanged
        fitted_again = fit_pipeline("GM", [configs[i] for i in train_idx])
        assert np.array_equal(fitted.scores, fitted_again.scores)
        held_out = [configs[i] for i in test_idx]
        assert np.array_equal(fitted.transform(held_out), fitted_again.transform(held_out))

    def test_unknown_classifier(self, monkeypatch):
        def no_fit(*args):
            raise AssertionError("fit_pipeline called")

        monkeypatch.setattr(classify, "fit_pipeline", no_fit)
        with pytest.raises(ValueError, match="^unknown classifier 'forest'; valid: lda, multinomial, svm$"):
            cross_validate(simulated_configs(), "GM", "forest")

    def test_case_variants_of_a_classifier_name_are_that_classifier(self):
        assert [canonical_classifier(name) for name in ("LDA", "Multinomial", "svm")] == list(CLASSIFIER_NAMES)
        configs = simulated_configs()
        upper, lower = cross_validate(configs, "GM", "SVM"), cross_validate(configs, "GM", "svm")
        assert upper.classifier == "svm" and np.array_equal(upper.per_fold_accuracy, lower.per_fold_accuracy)

    def test_one_class_is_rejected(self):
        configs = [LandmarkConfiguration(c.specimen_id, c.points, "A") for c in simulated_configs()]
        with pytest.raises(ValueError, match="^all specimens share one label; cross validation needs at least 2 classes$"):
            cross_validate(configs, "GM", "svm")

    def test_two_specimen_class_is_rejected_for_lda_before_any_fit(self, monkeypatch):
        configs = [LandmarkConfiguration(c.specimen_id, c.points, "C" if i in (3, 9) else c.label) for i, c in enumerate(simulated_configs())]
        calls = []
        monkeypatch.setattr(classify, "fit_pipeline", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="^label 'C' has 2 specimens; LDA cross validation needs at least 3 per class$"):
            cross_validate(configs, "GM", "lda")
        assert calls == []

    def test_unconverged_folds_are_counted(self, monkeypatch):
        configs = simulated_configs()
        assert cross_validate(configs, "GM", "multinomial").unconverged_folds == 0
        monkeypatch.setattr(classify, "_NEWTON_MAX_ITER", 1)
        assert cross_validate(configs, "GM", "multinomial").unconverged_folds == 5
        assert cross_validate(configs, "GM", "lda").unconverged_folds == 0

    def test_unconverged_karcher_folds_are_counted(self, monkeypatch):
        configs = simulated_configs(sizes=(4, 4, 4, 4), n_points=15)
        assert cross_validate(configs, "SoftSrvFdm", "multinomial").unconverged_karcher_folds == 0
        monkeypatch.setattr(srvf, "_KARCHER_MAX_ITER", 2)
        assert cross_validate(configs, "SoftSrvFdm", "multinomial").unconverged_karcher_folds == 5
        assert cross_validate(configs, "GM", "multinomial").unconverged_karcher_folds == 0

    def test_one_specimen_class_is_rejected(self):
        configs = [LandmarkConfiguration(c.specimen_id, c.points, "B" if i == 4 else "A") for i, c in enumerate(simulated_configs())]
        with pytest.raises(ValueError, match="^label 'B' has 1 specimen; cross validation needs at least 2 specimens per class$"):
            cross_validate(configs, "GM", "svm")
        configs[9] = LandmarkConfiguration(configs[9].specimen_id, configs[9].points, "C")
        message = "^label 'B' has 1 specimen, label 'C' has 1 specimen; cross validation needs at least 2 specimens per class$"
        with pytest.raises(ValueError, match=message):
            cross_validate(configs, "GM", "svm")


class TestKarcherReuse:
    """Fold refits of one dataset share their Karcher registrations through ``srvf.karcher_mean``'s memo."""

    def test_every_classifier_reuses_the_fold_registrations(self):
        configs = simulated_configs(sizes=(4, 4, 4, 4), n_points=15)
        srvf._karcher_loop.cache_clear()
        for clf in CLASSIFIER_NAMES:
            cross_validate(configs, "SoftSrvFdm", clf)
        assert srvf._karcher_loop.cache_info().misses == classify.N_FOLDS

    def test_soft_and_elastic_fits_of_one_replicate_are_told_apart(self):
        configs = simulated_configs(sizes=(4, 4, 4, 4), n_points=15)
        srvf._karcher_loop.cache_clear()
        soft, elastic = run_pipeline("SoftSrvFdm", configs), run_pipeline("ElasticSrvFdm", configs)
        assert srvf._karcher_loop.cache_info().misses == 2
        assert soft.karcher is not elastic.karcher


class TestPredictionInvariances:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_affine_rescaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x, y = two_blob_data(rng, gap=1.5, n_per=20, dim=3)
        test = rng.normal(size=(10, 3)) * 2.0
        scale = rng.uniform(0.2, 5.0, size=3)
        shift = rng.normal(size=3) * 10
        for clf in ("lda", "multinomial", "svm"):
            base, _ = fit_predict(clf, x, y, test)
            rescaled, _ = fit_predict(clf, x * scale + shift, y, test * scale + shift)
            assert np.array_equal(base, rescaled)

    def test_argmax_invariant_to_constant_score_shift(self):
        rng = np.random.default_rng(15)
        x, y = two_blob_data(rng, gap=2.0)
        model = lda_fit(x, y)
        disc = x @ model.coefs.T + model.intercepts
        shifted = disc + 123.45
        assert np.array_equal(np.argmax(disc, axis=1), np.argmax(shifted, axis=1))
