"""Finite-sample inference for M-estimation with self-concordant-like losses.

The package fits empirical risk minimizers by damped Newton, certifies
existence and uniqueness of the minimizer from computable quantities,
and calibrates non-asymptotic Wald and likelihood-ratio confidence sets
and goodness-of-fit tests by multiplier bootstrap, Monte Carlo oracle,
or explicit constants.  ``scmest.cli`` exposes the same operations as a
command line.

Submodules load lazily so the CLI can cap BLAS threads before numpy is
imported.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "ScmestError",
        "DomainError",
        "ConvergenceError",
        "DimensionMismatch",
        "InvalidLabel",
        "NumericOverflow",
        "EmptyDataset",
        "SingularHessian",
        "NonConverged",
        "MissingSampler",
        "TooManyFailures",
        "ParseError",
    ),
    "scfun": (
        "ScParams",
        "SpectralSummary",
        "Certificate",
        "omega",
        "omega_bar",
        "omega_dbar",
        "d_nu",
        "r_nu",
        "k_nu",
        "certify_unique_minimizer",
    ),
    "losses": (
        "LOSS_KINDS",
        "LossModel",
        "squared_loss",
        "logistic_loss",
        "poisson_loss",
        "expfam_glm_loss",
        "score_matching_loss",
        "gaussian_score_matching_loss",
        "model_for_data",
        "score_matching_assemble",
    ),
    "simdata": (
        "PROCESS_KINDS",
        "Process",
        "Dataset",
        "Provenance",
        "generate",
        "theta0_equispaced",
        "loss_kind_for",
        "phase_seed",
        "read_csv",
        "write_csv",
        "write_table",
    ),
    "estimate": (
        "EmpiricalAggregates",
        "FitResult",
        "SolverOptions",
        "LocalizationCertificate",
        "empirical_sc_params",
        "aggregates",
        "fit_erm",
        "replicate",
        "localization_certificate",
    ),
    "inference": (
        "SCHEMA_VERSION",
        "ConfidenceSet",
        "AssumptionConstants",
        "EffDimReport",
        "effective_dim_empirical",
        "effective_dim_spectrum",
        "effective_dim_oracle",
        "t_n_bound",
        "oracle_radius",
        "calibrated_radius",
        "confidence_set",
        "set_membership",
        "critical_sample_size",
    ),
    "gof": (
        "TEST_KINDS",
        "TestReport",
        "PowerCurveConfig",
        "PowerRow",
        "PowerTable",
        "rao_statistic",
        "lr_statistic",
        "wald_statistic",
        "null_statistics",
        "run_test",
        "power_curve",
    ),
    "bootstrap": (
        "BootstrapConfig",
        "BootstrapQuantile",
        "bootstrap_weights",
        "bootstrap_fit",
        "bootstrap_quantile",
    ),
    "experiments": (
        "CoverageConfig",
        "CoverageRow",
        "CoverageTable",
        "coverage_experiment",
        "COVERAGE_TARGETS",
        "CoverageTableExperiment",
        "EffDimErrorExperiment",
        "ConfsetShapeExperiment",
        "PowerCurvesExperiment",
        "EffDimRow",
        "ShapeRow",
        "run_coverage_table",
        "run_effdim_error",
        "run_confset_shape",
        "run_power_curves",
    ),
}

_ATTR_MODULE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ATTR_MODULE) + ["__version__"]


def __getattr__(name: str):
    mod = _ATTR_MODULE.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
