"""Sparse non-negative factor analysis of binary graded-response data."""

from .bayes import (
    PosteriorSummary,
    SpikeSlabHyperparams,
    posterior_point_estimates,
    run_gibbs,
)
from .evaluate import EvalReport, eval_metrics, predict_heldout
from .ksvd import KsvdConfig, fit_ksvd
from .links import LinkKind
from .mle import FitTrace, LambdaSelection, MLConfig, bic_select_lambda, fit_ml
from .model import FactorModel, ResponseMatrix, log_likelihood, predict_prob, slack
from .synth import SynthConfig, generate_synthetic
from .tags import TagMatrix, fit_tag_map, learner_tag_knowledge, solve_bpdn_plus

__version__ = "0.1.0"

__all__ = [
    "EvalReport",
    "FactorModel",
    "FitTrace",
    "KsvdConfig",
    "LambdaSelection",
    "LinkKind",
    "MLConfig",
    "PosteriorSummary",
    "ResponseMatrix",
    "SpikeSlabHyperparams",
    "SynthConfig",
    "TagMatrix",
    "bic_select_lambda",
    "eval_metrics",
    "fit_ksvd",
    "fit_ml",
    "fit_tag_map",
    "generate_synthetic",
    "learner_tag_knowledge",
    "log_likelihood",
    "posterior_point_estimates",
    "predict_heldout",
    "predict_prob",
    "run_gibbs",
    "slack",
    "solve_bpdn_plus",
]
