"""Classifiers over component scores and the stratified cross-validation protocol.

All three classifiers (LDA, multinomial logistic regression, linear SVM) are
deterministic and untuned: fixed ridge, fixed penalty, C = 1, ties broken
toward the lowest class index.  The two iterative fits solve to their
optimum and report whether they got there (``converged``).  Cross
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
_GRADIENT_TOL = 1e-6  # multinomial fits stop at this gradient norm
_NEWTON_MAX_ITER = 100
_SVM_KKT_TOL = 1e-10  # largest KKT violation the SVM dual may keep, at unit scale
_SVM_GAP_TOL = 1e-6  # relative duality gap that certifies an SVM fit
_SVM_MAX_ITER = 1000  # active-set steps per binary SVM


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
            raise ValueError(f"insufficient class data: class {str(cls)!r} has 1 row; LDA needs at least 2")
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
    """Newton's method with an Armijo line search to gradient norm 1e-6, at most 100 steps.

    The parameters are theta = [W; b], of shape (k + 1, C).  The Hessian of
    the negative objective, sum_i (diag p_i - p_i p_i^T) kron x~_i x~_i^T
    with x~_i = [x_i, 1], is one product of the per-row class covariances
    with the per-row outer products (built once per fit), plus the penalty
    on the W block.  A common shift of the intercepts changes no
    probability, so it spans the Hessian's null space, and the gradient is
    orthogonal to it: adding u u^T for the unit intercept-sum vector u makes
    the matrix positive definite, and its Cholesky solve is the
    pseudo-inverse step, which keeps the intercepts summing to 0.
    ``converged`` is False when the cap or a failed line search stops it.
    """
    x = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    y_onehot = (labels[:, None] == classes[None, :]).astype(float)
    n, k = x.shape
    size = (k + 1) * classes.size
    xt = np.hstack([x, np.ones((n, 1))])
    outer = (xt[:, :, None] * xt[:, None, :]).reshape(n, -1)
    u = np.zeros(size)
    u[k * classes.size :] = 1.0 / np.sqrt(classes.size)
    fixed = np.diag(np.repeat(np.r_[np.full(k, _PENALTY), 0.0], classes.size)) + np.outer(u, u)
    weights = np.zeros((k, classes.size))
    intercepts = np.zeros(classes.size)

    obj = multinomial_objective(weights, intercepts, x, y_onehot)
    converged = False
    it = 0
    for it in range(1, _NEWTON_MAX_ITER + 1):
        gw, gb = multinomial_gradient(weights, intercepts, x, y_onehot)
        grad = np.vstack([gw, gb]).ravel()
        if np.sqrt(grad @ grad) <= _GRADIENT_TOL:
            converged = True
            break
        probs = _softmax(x @ weights + intercepts)
        cov = (probs[:, :, None] * (np.eye(classes.size) - probs[:, None, :])).reshape(n, -1)
        hessian = (outer.T @ cov).reshape(k + 1, k + 1, classes.size, classes.size).transpose(0, 2, 1, 3)
        chol = np.linalg.cholesky(hessian.reshape(size, size) + fixed)
        direction = np.linalg.solve(chol.T, np.linalg.solve(chol, grad)).reshape(k + 1, classes.size)
        slope = float(grad @ direction.ravel())
        step = 1.0
        while step >= 1e-10:
            w_new = weights + step * direction[:k]
            b_new = intercepts + step * direction[k]
            obj_new = multinomial_objective(w_new, b_new, x, y_onehot)
            if obj_new >= obj + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break  # no ascent along the Newton direction at floating precision
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
    n_iter: list[int] = field(default_factory=list)  # active-set steps, per pair
    converged: list[bool] = field(default_factory=list)  # per pair


def _svm_binary(x: np.ndarray, y: np.ndarray, c_reg: float) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Active-set solution of the L1-loss linear SVM dual, bias as augmented feature.

    Minimises 1/2 a^T Z Z^T a - 1^T a over 0 <= a <= C, with Z = y * [x, 1]
    and w = Z^T a, from a = 0.  Rows strictly inside the box are the free
    set F, and g = Z w - 1 is the gradient.  A step solves
    Z_F Z_F^T d = -g_F through the SVD of Z_F (so the rank decision sees
    the condition number of Z_F, not its square); when -g_F has a part
    outside that matrix's range (more free rows than its rank: n < d,
    duplicated or contradictory rows), the step follows that zero-curvature
    part instead.  Either step ends at its line minimum or at the first
    free row to reach 0 or C, which then stays at that bound.  Once
    |g_F| <= tol, the bound row with the largest KKT violation (g < -tol
    at 0, g > tol at C) is freed; when none is left, the relative duality
    gap must be at most ``_SVM_GAP_TOL``.  The tolerance is
    ``_SVM_KKT_TOL``, floored at the round-off bound of g,
    eps * max(|Z| (a^T |Z|)), so that inputs far from unit scale (where
    w = Z^T a cancels large terms) can still meet it; for the standardized
    scores that ``fit_predict`` passes, the floor stays below 1e-10.
    Returns the weights, the duals, the number of steps, and whether both
    tests passed within ``_SVM_MAX_ITER`` steps.
    """
    z = y[:, None] * np.hstack([x, np.ones((x.shape[0], 1))])
    abs_z = np.abs(z)
    alpha = np.zeros(z.shape[0])
    free = np.zeros(z.shape[0], dtype=bool)
    eps = np.finfo(float).eps
    rank_tol = max(z.shape) * eps
    optimal = False
    n_iter = 0
    while True:
        g = z @ (alpha @ z) - 1.0
        tol = max(_SVM_KKT_TOL, eps * float(np.max(abs_z @ (alpha @ abs_z))))
        if not np.any(np.abs(g[free]) > tol):
            violation = np.where(free, 0.0, np.where(alpha == 0.0, -g, g))
            j = int(np.argmax(violation))
            if violation[j] <= tol:
                optimal = True
                break
            free[j] = True
        if n_iter == _SVM_MAX_ITER:
            break
        n_iter += 1
        f = np.flatnonzero(free)
        u, s, _ = np.linalg.svd(z[f], full_matrices=False)
        keep = s > s[0] * rank_tol
        u, s = u[:, keep], s[keep]
        ug = u.T @ g[f]
        d = u @ ug - g[f]  # the part of -g_F outside the range of Z_F Z_F^T
        if np.max(np.abs(d)) <= tol:
            d = -(u @ (ug / s**2))
        dw = d @ z[f]
        curvature = float(dw @ dw)
        step = -float(g[f] @ d) / curvature if curvature > 0.0 else np.inf
        a = alpha[f]
        room = np.full(f.size, np.inf)
        down, up = d < 0.0, d > 0.0
        room[down] = -a[down] / d[down]
        room[up] = (c_reg - a[up]) / d[up]
        j = int(np.argmin(room))
        if room[j] <= step:
            alpha[f] = a + room[j] * d
            alpha[f[j]] = 0.0 if d[j] < 0.0 else c_reg
            free[f[j]] = False
        else:
            alpha[f] = a + step * d
    w = alpha @ z
    primal = 0.5 * w @ w + c_reg * np.sum(np.maximum(1.0 - z @ w, 0.0))
    dual = np.sum(alpha) - 0.5 * w @ w
    return w, alpha, n_iter, optimal and primal - dual <= _SVM_GAP_TOL * max(1.0, abs(primal))


def svm_linear_fit(scores: np.ndarray, labels: np.ndarray) -> SvmModel:
    """One-vs-one soft-margin linear SVMs (C = 1) in a fixed pair order, each solved by the active-set method.

    A pair's fit is converged when its KKT violations are at most 1e-10
    (or their round-off bound, if larger) and its relative duality gap at
    most 1e-6 within 1000 steps; the model keeps each pair's step count
    and flag.
    """
    x = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    model = SvmModel(classes=classes)
    for a in range(classes.size):
        for b in range(a + 1, classes.size):
            mask = (labels == classes[a]) | (labels == classes[b])
            y = np.where(labels[mask] == classes[a], 1.0, -1.0)
            w, _, n_iter, converged = _svm_binary(x[mask], y, 1.0)
            model.pair_weights.append((a, b, w))
            model.n_iter.append(n_iter)
            model.converged.append(converged)
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
    unconverged_folds: int  # folds whose classifier fit stopped short of its optimum
    unconverged_karcher_folds: int  # folds whose pipeline fit's Karcher mean stopped at srvf._KARCHER_MAX_ITER


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


def canonical_classifier(name: str) -> str:
    """Map case variants (e.g. 'LDA') to a name of ``CLASSIFIER_NAMES``."""
    key = name.lower()
    if key not in CLASSIFIER_NAMES:
        raise ValueError(f"unknown classifier {name!r}; valid: {', '.join(CLASSIFIER_NAMES)}")
    return key


def fit_predict(classifier: str, train_x, train_y, test_x) -> tuple[np.ndarray, bool]:
    """Predicted labels of the test rows, and whether the classifier's fit converged.

    ``classifier`` is one of ``CLASSIFIER_NAMES``.  It is fitted on the
    training rows standardized by their column means and sds, and predicts
    the test rows standardized alike.
    """
    std = standardize_fit(train_x)
    train_x = standardize_apply(std, train_x)
    test_x = standardize_apply(std, test_x)
    if classifier == "lda":
        return lda_predict(lda_fit(train_x, train_y), test_x), True
    if classifier == "multinomial":
        model = multinomial_fit(train_x, train_y)
        return multinomial_predict(model, test_x), model.converged
    if classifier == "svm":
        model = svm_linear_fit(train_x, train_y)
        return svm_predict(model, test_x), all(model.converged)
    raise ValueError(f"unknown classifier {classifier!r}")


def check_labels(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classes and their counts, once stratified folds can hold the labels: 2 classes or more, each of 2 specimens or more."""
    if any(lbl is None for lbl in labels):
        raise ValueError("all specimens need labels for cross validation")
    classes, counts = np.unique(labels, return_counts=True)
    if classes.size < 2:
        raise ValueError("all specimens share one label; cross validation needs at least 2 classes")
    lone = ", ".join(f"label {str(label)!r} has 1 specimen" for label in classes[counts < 2])
    if lone:
        raise ValueError(f"{lone}; cross validation needs at least 2 specimens per class")
    return classes, counts


def cross_validate(
    configs: list[LandmarkConfiguration],
    pipeline_id: str,
    classifier: str,
    seed: int = 0,
    settings=None,
) -> CvReport:
    """Stratified ``N_FOLDS``-fold CV with the full pipeline refit on every training fold."""
    classifier = canonical_classifier(classifier)
    labels = np.array([c.label for c in configs])
    classes, counts = check_labels(labels)
    folds = stratified_kfold(labels, seed=seed)
    if classifier == "lda":
        # LDA needs 2 training rows of every class in every fold: check the folds before any fit
        held_out = np.array([[np.sum((folds == f) & (labels == cls)) for cls in classes] for f in range(N_FOLDS)])
        short = np.flatnonzero((counts - held_out).min(axis=0) < 2)
        if short.size:
            label, count = str(classes[short[0]]), counts[short[0]]
            raise ValueError(f"label {label!r} has {count} specimens; LDA cross validation needs at least 3 per class")

    per_fold = np.zeros(N_FOLDS)
    unconverged = unconverged_karcher = 0
    confusion = np.zeros((classes.size, classes.size), dtype=int)
    for f in range(N_FOLDS):
        train_idx = np.flatnonzero(folds != f)
        test_idx = np.flatnonzero(folds == f)
        fitted = fit_pipeline(pipeline_id, [configs[i] for i in train_idx], settings)
        train_scores = fitted.scores
        test_scores = fitted.transform([configs[i] for i in test_idx])
        predicted, converged = fit_predict(classifier, train_scores, labels[train_idx], test_scores)
        unconverged += not converged
        unconverged_karcher += fitted.karcher is not None and not fitted.karcher.converged
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
        unconverged_folds=unconverged,
        unconverged_karcher_folds=unconverged_karcher,
    )
