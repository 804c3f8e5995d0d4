"""Morphometric pipelines for 3D landmark curves.

Eight pipelines over ordered 3D landmark configurations: classical
Procrustes morphometrics (GM), functional data morphometrics built on
B-spline smoothing and multivariate FPCA (FDM), and elastic variants that
register curves with the square-root velocity transform, in plain and
arc-length-parameterised forms.  Classification evaluation (LDA,
multinomial logistic regression, linear SVM) under stratified cross
validation, plus a seeded helix simulation harness, round out the toolkit.
"""

from curvemorph.landmarks import LandmarkConfiguration, ProcrustesResult, centroid_size, gpa, optimal_rotation
from curvemorph.curvetools import derivative, reparameterise_arclength, resample_uniform
from curvemorph.srvf import SrvfCurve, WarpingFunction, estimate_warp, from_srvf, karcher_mean, soft_warp, to_srvf
from curvemorph.basis import BSplineBasis, build_basis
from curvemorph.fpca import MfpcaModel, UnivariateFpcaModel, mfpca, mfpca_project, select_components, ufpca
from curvemorph.pca import PcaModel, pca_fit, pca_reconstruct
from curvemorph.pipelines import PIPELINE_IDS, PipelineOutput, PipelineSettings, evaluate_mse, run_pipeline
from curvemorph.simgen import SimConfig, generate_replicate, group_curve
from curvemorph.classify import CvReport, cross_validate, stratified_kfold

__version__ = "0.1.0"

__all__ = [
    "LandmarkConfiguration",
    "ProcrustesResult",
    "centroid_size",
    "optimal_rotation",
    "gpa",
    "derivative",
    "reparameterise_arclength",
    "resample_uniform",
    "SrvfCurve",
    "WarpingFunction",
    "to_srvf",
    "from_srvf",
    "estimate_warp",
    "soft_warp",
    "karcher_mean",
    "BSplineBasis",
    "build_basis",
    "UnivariateFpcaModel",
    "MfpcaModel",
    "ufpca",
    "mfpca",
    "mfpca_project",
    "select_components",
    "PcaModel",
    "pca_fit",
    "pca_reconstruct",
    "PipelineSettings",
    "PipelineOutput",
    "PIPELINE_IDS",
    "run_pipeline",
    "evaluate_mse",
    "SimConfig",
    "group_curve",
    "generate_replicate",
    "CvReport",
    "stratified_kfold",
    "cross_validate",
]
