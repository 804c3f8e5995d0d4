"""Classifiers over component scores and the stratified cross-validation protocol.

All three classifiers (LDA, multinomial logistic regression, linear SVM) are
deterministic and untuned: fixed ridge, fixed penalty, C = 1, cyclic
coordinate order, ties broken toward the lowest class index.  Cross
validation refits the entire pipeline on each training fold and projects the
held-out specimens through the trained transforms, so nothing leaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from curvemorph.landmarks import LandmarkConfiguration
from curvemorph.pipelines import fit_pipeline

CLASSIFIER_NAMES = ("lda", "multinomial", "svm")
N_FOLDS = 5  # cross-validation folds, here and in the CLI's best-pair search
_PENALTY = 1e-6  # L2 penalty on the multinomial weights (intercepts free)


# ---------------------------------------------------------------------------
# standardization

@dataclass
class Standardizer:
    means: np.ndarray
    sds: np.ndarray


def standardize_fit(train_scores: np.ndarray) -> Standardizer:
    x = np.asarray(train_scores, dtype=float)
    if x.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    sds = x.std(axis=0, ddof=1)
    return Standardizer(means=x.mean(axis=0), sds=np.maximum(sds, 1e-12))


def standardize_apply(std: Standardizer, scores: np.ndarray) -> np.ndarray:
    return (np.asarray(scores, dtype=float) - std.means) / std.sds


# ---------------------------------------------------------------------------
# linear discriminant analysis

@dataclass
class LdaModel:
    classes: np.ndarray
    coefs: np.ndarray  # (C, k)
    intercepts: np.ndarray  # (C,)


def lda_fit(scores: np.ndarray, labels: np.ndarray) -> LdaModel:
    """Pooled-covariance LDA with empirical priors and a trace ridge of 1e-8."""
    x = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    n, k = x.shape
    if classes.size < 2:
        raise ValueError("need at least 2 classes")
    pooled = np.zeros((k, k))
    means = np.zeros((classes.size, k))
    priors = np.zeros(classes.size)
    for c, cls in enumerate(classes):
        block = x[labels == cls]
        if block.shape[0] < 2:
            raise ValueError("insufficient class data")
        means[c] = block.mean(axis=0)
        pooled += (block - means[c]).T @ (block - means[c])
        priors[c] = block.shape[0] / n
    pooled /= n - classes.size
    pooled += 1e-8 * np.trace(pooled) / k * np.eye(k)
    solved = np.linalg.solve(pooled, means.T).T  # (C, k)
    intercepts = -0.5 * np.sum(solved * means, axis=1) + np.log(priors)
    return LdaModel(classes=classes, coefs=solved, intercepts=intercepts)


def lda_predict(model: LdaModel, scores: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(scores, dtype=float))
    disc = x @ model.coefs.T + model.intercepts
    return model.classes[np.argmax(disc, axis=1)]


# ---------------------------------------------------------------------------
# multinomial logistic regression

@dataclass
class MultinomialModel:
    classes: np.ndarray
    weights: np.ndarray  # (k, C)
    intercepts: np.ndarray  # (C,)
    converged: bool
    n_iter: int


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def multinomial_objective(weights, intercepts, x, y_onehot) -> float:
    """Penalized log-likelihood (weights penalized by ``_PENALTY`` = 1e-6, intercepts free)."""
    logits = x @ weights + intercepts
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    loglik = float(np.sum((z * y_onehot).sum(axis=1) - log_norm))
    return loglik - 0.5 * _PENALTY * float(np.sum(weights**2))


def multinomial_gradient(weights, intercepts, x, y_onehot):
    probs = _softmax(x @ weights + intercepts)
    resid = y_onehot - probs
    return x.T @ resid - _PENALTY * weights, resid.sum(axis=0)


def multinomial_fit(scores: np.ndarray, labels: np.ndarray) -> MultinomialModel:
    """Full-batch gradient ascent with backtracking line search to gradient norm 1e-6, at most 500 steps."""
    x = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    y_onehot = (labels[:, None] == classes[None, :]).astype(float)
    weights = np.zeros((x.shape[1], classes.size))
    intercepts = np.zeros(classes.size)

    obj = multinomial_objective(weights, intercepts, x, y_onehot)
    step = 1.0
    converged = False
    it = 0
    for it in range(1, 501):
        gw, gb = multinomial_gradient(weights, intercepts, x, y_onehot)
        gnorm_sq = float(np.sum(gw**2) + np.sum(gb**2))
        if np.sqrt(gnorm_sq) <= 1e-6:
            converged = True
            break
        step = min(step * 2.0, 1e6)
        while True:
            w_new = weights + step * gw
            b_new = intercepts + step * gb
            obj_new = multinomial_objective(w_new, b_new, x, y_onehot)
            if obj_new >= obj + 0.5 * step * gnorm_sq or step < 1e-16:
                break
            step *= 0.5
        if step < 1e-16:
            break  # no ascent direction left at floating precision
        weights, intercepts, obj = w_new, b_new, obj_new
    return MultinomialModel(classes=classes, weights=weights, intercepts=intercepts, converged=converged, n_iter=it)


def multinomial_predict(model: MultinomialModel, scores: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(scores, dtype=float))
    probs = _softmax(x @ model.weights + model.intercepts)
    return model.classes[np.argmax(probs, axis=1)]


# ---------------------------------------------------------------------------
# linear support vector machine (one-vs-one)

@dataclass
class SvmModel:
    classes: np.ndarray
    pair_weights: list[tuple[int, int, np.ndarray]] = field(default_factory=list)


def _svm_binary(x: np.ndarray, y: np.ndarray, c_reg: float, tol: float, max_sweeps: int) -> np.ndarray:
    """Dual coordinate descent for the L1-loss linear SVM, bias as augmented feature.

    The sweep keeps the duals, labels and squared row norms as Python floats
    and takes one BLAS dot per visited row, which keeps interpreter overhead
    per visit small.  Every visit does the same floating-point operations in
    the same order as a numpy-scalar loop would, so the weights are bitwise
    that loop's (``tests/test_classify.py`` keeps one as an oracle).
    """
    xa = np.hstack([x, np.ones((x.shape[0], 1))])
    n = xa.shape[0]
    rows = list(xa)
    ys = y.tolist()
    qdiag = np.sum(xa**2, axis=1).tolist()
    alpha = [0.0] * n
    w = np.zeros(xa.shape[1])
    for _ in range(max_sweeps):
        for i in range(n):
            row, y_i, a_i = rows[i], ys[i], alpha[i]
            a_new = a_i - (y_i * float(row.dot(w)) - 1.0) / qdiag[i]
            if a_new < 0.0:
                a_new = 0.0
            elif a_new > c_reg:
                a_new = c_reg
            if a_new != a_i:
                w += ((a_new - a_i) * y_i) * row
                alpha[i] = a_new
        margins = 1.0 - y * (xa @ w)
        primal = 0.5 * w @ w + c_reg * np.sum(np.maximum(margins, 0.0))
        dual = np.sum(np.array(alpha)) - 0.5 * w @ w
        if primal - dual <= tol * max(1.0, abs(primal)):
            break
    return w


def svm_linear_fit(scores: np.ndarray, labels: np.ndarray) -> SvmModel:
    """One-vs-one soft-margin linear SVMs (C = 1, relative gap 1e-6, 1000 sweeps), in a fixed pair order."""
    x = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    model = SvmModel(classes=classes)
    for a in range(classes.size):
        for b in range(a + 1, classes.size):
            mask = (labels == classes[a]) | (labels == classes[b])
            y = np.where(labels[mask] == classes[a], 1.0, -1.0)
            w = _svm_binary(x[mask], y, 1.0, 1e-6, max_sweeps=1000)
            model.pair_weights.append((a, b, w))
    return model


def svm_predict(model: SvmModel, scores: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(scores, dtype=float))
    xa = np.hstack([x, np.ones((x.shape[0], 1))])
    votes = np.zeros((x.shape[0], model.classes.size))
    for a, b, w in model.pair_weights:
        decision = xa @ w
        votes[:, a] += decision >= 0.0
        votes[:, b] += decision < 0.0
    return model.classes[np.argmax(votes, axis=1)]


# ---------------------------------------------------------------------------
# cross validation

@dataclass
class CvReport:
    pipeline_id: str
    classifier: str
    classes: np.ndarray
    per_fold_accuracy: np.ndarray
    mean_accuracy: float
    sd_accuracy: float
    confusion: np.ndarray


def stratified_kfold(labels: np.ndarray, seed: int = 0) -> np.ndarray:
    """Per-class round-robin assignment to ``N_FOLDS`` folds after a seeded shuffle.

    Classes start their round-robin at a rolling offset so overall fold sizes
    stay balanced too (with n == N_FOLDS this degenerates to leave-one-out).
    """
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    folds = np.empty(labels.shape[0], dtype=int)
    offset = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        folds[rng.permutation(idx)] = (offset + np.arange(idx.size)) % N_FOLDS
        offset = (offset + idx.size) % N_FOLDS
    return folds


def _fit_predict(classifier: str, train_x, train_y, test_x) -> np.ndarray:
    std = standardize_fit(train_x)
    train_x = standardize_apply(std, train_x)
    test_x = standardize_apply(std, test_x)
    if classifier == "lda":
        return lda_predict(lda_fit(train_x, train_y), test_x)
    if classifier == "multinomial":
        return multinomial_predict(multinomial_fit(train_x, train_y), test_x)
    if classifier == "svm":
        return svm_predict(svm_linear_fit(train_x, train_y), test_x)
    raise ValueError(f"unknown classifier {classifier!r}")


def cross_validate(
    configs: list[LandmarkConfiguration],
    pipeline_id: str,
    classifier: str,
    seed: int = 0,
    settings=None,
) -> CvReport:
    """Stratified ``N_FOLDS``-fold CV with the full pipeline refit on every training fold."""
    labels = np.array([c.label for c in configs])
    if any(lbl is None for lbl in labels):
        raise ValueError("all specimens need labels for cross validation")
    classes, counts = np.unique(labels, return_counts=True)
    if classes.size < 2:
        raise ValueError("cross validation needs at least 2 classes")
    if counts.min() < 2:
        raise ValueError(f"label {str(classes[counts.argmin()])!r} has 1 specimen; cross validation needs at least 2 per class")
    folds = stratified_kfold(labels, seed=seed)

    per_fold = np.zeros(N_FOLDS)
    confusion = np.zeros((classes.size, classes.size), dtype=int)
    for f in range(N_FOLDS):
        train_idx = np.flatnonzero(folds != f)
        test_idx = np.flatnonzero(folds == f)
        fitted = fit_pipeline(pipeline_id, [configs[i] for i in train_idx], settings)
        train_scores = fitted.scores
        test_scores = fitted.transform([configs[i] for i in test_idx])
        predicted = _fit_predict(classifier, train_scores, labels[train_idx], test_scores)
        actual = labels[test_idx]
        per_fold[f] = float(np.mean(predicted == actual))
        for a, p in zip(actual, predicted):
            confusion[np.searchsorted(classes, a), np.searchsorted(classes, p)] += 1

    return CvReport(
        pipeline_id=pipeline_id,
        classifier=classifier,
        classes=classes,
        per_fold_accuracy=per_fold,
        mean_accuracy=float(per_fold.mean()),
        sd_accuracy=float(per_fold.std(ddof=1)),
        confusion=confusion,
    )
