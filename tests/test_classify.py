import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemorph import classify
from curvemorph.classify import (
    _fit_predict,
    cross_validate,
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
from curvemorph.pipelines import fit_pipeline
from curvemorph.simgen import SimConfig, generate_replicate


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
        assert model.n_iter <= 500


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


# The numpy-scalar form of `classify._svm_binary`, kept verbatim as its oracle.
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


def binary_svm_data(seed, n, d, separable):
    """Labels +-1 with both signs present; separable classes sit 3 sd apart, overlapping ones 0.2 sd."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.permutation(n) % 2 == 0, 1.0, -1.0)
    x = rng.normal(size=(n, d)) + (3.0 if separable else 0.2) * y[:, None]
    return x, y


class TestSvmSweepMatchesLoopOracle:
    """`_svm_binary` keeps the per-element loop's operations, so its weights are bitwise the oracle's."""

    @pytest.mark.parametrize("d", [1, 6, 30])
    @pytest.mark.parametrize("n", [2, 7, 40, 125])
    def test_weights_equal(self, n, d):
        for seed in (0, 1):
            for separable in (True, False):
                x, y = binary_svm_data(seed, n, d, separable)
                for c_reg in (1.0, 0.05):
                    for max_sweeps in (1, 3, 1000):
                        expected = _svm_binary_loop(x, y, c_reg, 1e-6, max_sweeps)
                        got = classify._svm_binary(x, y, c_reg, 1e-6, max_sweeps)
                        assert np.array_equal(got, expected), (seed, separable, c_reg, max_sweeps)

    def test_duplicated_row(self):
        for separable in (True, False):
            x, y = binary_svm_data(3, 40, 6, separable)
            x, y = np.vstack([x, x[5:6]]), np.append(y, y[5])
            for c_reg in (1.0, 0.05):
                expected = _svm_binary_loop(x, y, c_reg, 1e-6, 1000)
                assert np.array_equal(classify._svm_binary(x, y, c_reg, 1e-6, 1000), expected)

    def test_pair_weights_equal_in_order(self, monkeypatch):
        rng = np.random.default_rng(21)
        centers = rng.normal(scale=1.5, size=(4, 5))
        x = np.vstack([rng.normal(size=(15, 5)) + c for c in centers])
        labels = np.repeat(["a", "b", "c", "d"], 15)
        got = svm_linear_fit(x, labels).pair_weights
        monkeypatch.setattr(classify, "_svm_binary", _svm_binary_loop)
        expected = svm_linear_fit(x, labels).pair_weights
        assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in expected] == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]
        for (_, _, w_got), (_, _, w_expected) in zip(got, expected):
            assert np.array_equal(w_got, w_expected)

    @pytest.mark.parametrize("pipeline_id", ["GM", "FDM"])
    def test_cross_validation_equal(self, pipeline_id, monkeypatch):
        configs = generate_replicate(SimConfig(seed=11, group_sizes=(6, 6, 6, 6)), 0)
        got = cross_validate(configs, pipeline_id, "svm")
        monkeypatch.setattr(classify, "_svm_binary", _svm_binary_loop)
        expected = cross_validate(configs, pipeline_id, "svm")
        assert np.array_equal(got.per_fold_accuracy, expected.per_fold_accuracy)
        assert np.array_equal(got.confusion, expected.confusion)


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

    def test_unknown_classifier(self):
        configs = simulated_configs()
        with pytest.raises(ValueError, match="classifier"):
            cross_validate(configs, "GM", "forest")

    def test_one_class_is_rejected(self):
        configs = [LandmarkConfiguration(c.specimen_id, c.points, "A") for c in simulated_configs()]
        with pytest.raises(ValueError, match="at least 2 classes"):
            cross_validate(configs, "GM", "svm")

    def test_one_specimen_class_is_rejected(self):
        configs = [LandmarkConfiguration(c.specimen_id, c.points, "B" if i == 4 else "A") for i, c in enumerate(simulated_configs())]
        with pytest.raises(ValueError, match="^label 'B' has 1 specimen; cross validation needs at least 2 per class$"):
            cross_validate(configs, "GM", "svm")


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
            base = _fit_predict(clf, x, y, test)
            rescaled = _fit_predict(clf, x * scale + shift, y, test * scale + shift)
            assert np.array_equal(base, rescaled)

    def test_argmax_invariant_to_constant_score_shift(self):
        rng = np.random.default_rng(15)
        x, y = two_blob_data(rng, gap=2.0)
        model = lda_fit(x, y)
        disc = x @ model.coefs.T + model.intercepts
        shifted = disc + 123.45
        assert np.array_equal(np.argmax(disc, axis=1), np.argmax(shifted, axis=1))
