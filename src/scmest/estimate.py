"""Empirical aggregates, the damped-Newton risk minimizer, and localization.

The empirical risk L_n(theta) = n^-1 sum_i l(theta; z_i) of an (R, nu)
self-concordant per-sample loss is itself self-concordant with parameters
(R n^{nu/2-1}, nu).  That scaled pair drives both the Newton step damping in
:func:`fit_erm` and the existence certificate in
:func:`localization_certificate`: when the certificate passes at a reference
point, a unique minimizer exists inside the Dikin ellipsoid of radius four
times the Newton decrement at that point.

Fits start from theta = 0 and take damped Newton steps
alpha = 1 / (1 + d_nu(...)), which guarantee monotone descent for
self-concordant losses; quadratic losses converge in one full step.  Newton
systems are solved by Cholesky factorization, with a single diagonal-jitter
retry (1e-10 trace/d) before declaring the Hessian singular, so genuine
non-existence (separable logistic data, n < d designs) is distinguished from
round-off.

Work per fit: X, y and the weights are checked once per call, and the
per-sample stacks of the loss (the expfam_glm statistics, the
score-matching (A, b, c)) are built once per call, in a
:class:`~scmest.losses.Batch`.  Each iteration then computes the linear
predictor once and only S_n and H_n, H_n by one matrix product for the
linear-predictor kinds.  L_n and G_n are computed once, at the returned
iterate, with the same arithmetic as :func:`aggregates`, so
``FitResult.aggregates_at_opt`` equals ``aggregates(model, data, theta_n)``
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DimensionMismatch, SingularHessian
from .losses import Batch, LossModel, check_theta, check_weights, prepare_batch
from .scfun import (
    Certificate,
    ScParams,
    SpectralSummary,
    certify_unique_minimizer,
    d_nu,
    k_nu,
    r_nu,
)
from .simdata import Dataset

__all__ = [
    "EmpiricalAggregates",
    "FitResult",
    "SolverOptions",
    "LocalizationCertificate",
    "empirical_sc_params",
    "aggregates",
    "fit_erm",
    "localization_certificate",
]

# retry jitter relative to mean diagonal when a factorization fails
_JITTER_REL = 1e-10
# smallest acceptable squared Cholesky pivot relative to mean diagonal;
# below this the Hessian's condition number exceeds ~1e12 and downstream
# quantities carry no precision
_PIVOT_REL = 1e-12


@dataclass(frozen=True)
class EmpiricalAggregates:
    """Sample averages at a parameter value.

    L_n is the empirical risk, S_n its gradient, H_n its Hessian, and G_n
    the average of per-sample gradient outer products; H_n and G_n are
    symmetric, G_n is PSD by construction.
    """

    L_n: float
    S_n: np.ndarray
    H_n: np.ndarray
    G_n: np.ndarray
    n: int


@dataclass(frozen=True)
class SolverOptions:
    """Damped-Newton solver settings.

    tol is the Newton-decrement stopping threshold, measured in the
    H_n^{-1} norm of the gradient; max_iter caps the number of Newton
    steps.
    """

    tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self) -> None:
        if self.tol <= 0.0:
            raise DimensionMismatch(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise DimensionMismatch(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of an empirical-risk minimization.

    ``newton_decrement`` is the final gradient norm in the H_n^{-1} metric;
    converged means it fell below the solver tolerance.  ``certificate`` is
    the unique-minimizer certificate evaluated at theta_n (None when the
    final Hessian is too ill-conditioned to summarize spectrally).
    """

    theta_n: np.ndarray
    aggregates_at_opt: EmpiricalAggregates
    newton_decrement: float
    iterations: int
    converged: bool
    certificate: Certificate | None = None


@dataclass(frozen=True)
class LocalizationCertificate:
    """Finite-sample existence certificate at a reference point.

    When ``passes``, a unique empirical minimizer exists and lies within
    ``bound`` of the reference point in the local Hessian norm; a failing
    certificate asserts nothing and carries an infinite bound.
    """

    passes: bool
    score_norm: float
    bound: float


def empirical_sc_params(model: LossModel, n: int) -> ScParams:
    """Self-concordance parameters of the empirical risk: (R n^{nu/2-1}, nu)."""
    sc = model.sc
    return ScParams(R=sc.R * float(n) ** (sc.nu / 2.0 - 1.0), nu=sc.nu)


def aggregates(
    model: LossModel, data: Dataset, theta, weights: np.ndarray | None = None
) -> EmpiricalAggregates:
    """Empirical value, gradient, Hessian, and score second moment at theta.

    With multiplier weights w_i the averages become n^-1 sum_i w_i (.), and
    G_n averages the outer products of the weighted per-sample gradients.
    Unit weights reproduce the unweighted aggregates bit for bit.
    """
    batch = prepare_batch(model, data.X, data.y)
    theta = check_theta(model, theta)
    w = check_weights(weights, batch.n)
    S, H = batch.score_hessian(theta, w)
    return _complete(batch, theta, w, S, H)


def _complete(batch: Batch, theta, w, S, H) -> EmpiricalAggregates:
    """Aggregates at theta from its S_n and H_n, adding L_n and G_n."""
    L, G = batch.risk_moment(theta, w)
    return EmpiricalAggregates(L_n=L, S_n=S, H_n=H, G_n=G, n=batch.n)


def _chol_with_jitter(H: np.ndarray):
    """Cholesky factor of H with a pivot check, retrying once with jitter.

    Returns the cho_factor pair.  A factorization whose smallest squared
    pivot falls below 1e-12 trace/d is treated as failed (Cauchy
    interlacing puts every squared pivot above lambda_min, so this only
    rejects condition numbers beyond ~1e12).  The single jitter retry
    rescues round-off failures; when the jitter itself supplies the
    positive-definiteness, the Hessian is genuinely rank-deficient and
    SingularHessian is raised.
    """
    d = H.shape[0]
    scale = float(np.trace(H)) / d
    if scale <= 0.0:
        raise SingularHessian("Hessian has nonpositive trace; no minimizer certified")
    try:
        factor = cho_factor(H, lower=True)
        if float(np.min(np.diag(factor[0]))) ** 2 > _PIVOT_REL * scale:
            return factor
    except np.linalg.LinAlgError:
        pass
    jitter = _JITTER_REL * scale
    try:
        factor = cho_factor(H + jitter * np.eye(d), lower=True)
    except np.linalg.LinAlgError:
        raise SingularHessian(
            "Hessian factorization failed even with diagonal jitter"
        ) from None
    if float(np.min(np.diag(factor[0]))) ** 2 <= 100.0 * jitter:
        raise SingularHessian(
            "Hessian is numerically singular (smallest pivot at the jitter floor)"
        )
    return factor


def _decrement_and_direction(S: np.ndarray, H: np.ndarray):
    """Newton decrement sqrt(S'H^{-1}S) and direction -H^{-1}S."""
    factor = _chol_with_jitter(H)
    p = -cho_solve(factor, S)
    dec_sq = float(S @ -p)
    return math.sqrt(max(dec_sq, 0.0)), p


def _newton_fit(batch: Batch, opts: SolverOptions, w: np.ndarray) -> FitResult:
    """Damped Newton on the w-weighted empirical risk from theta = 0.

    ``batch`` holds the checked data and the per-sample stacks, and ``w``
    checked weights, so a caller that refits one dataset under many weight
    vectors prepares the batch once.  Each iteration evaluates only S_n and
    H_n, and the full aggregates are completed once, at the returned
    iterate, where the certificate is evaluated.
    """
    model = batch.model
    params_n = empirical_sc_params(model, batch.n)
    theta = np.zeros(model.dim)
    for it in range(opts.max_iter + 1):
        S, H = batch.score_hessian(theta, w)
        dec, p = _decrement_and_direction(S, H)
        converged = dec <= opts.tol
        if converged or it == opts.max_iter:
            spec = _spectral_summary(H)
            cert = None if spec is None else certify_unique_minimizer(params_n, spec, dec)
            return FitResult(
                theta_n=theta,
                aggregates_at_opt=_complete(batch, theta, w, S, H),
                newton_decrement=dec,
                iterations=it,
                converged=converged,
                certificate=cert,
            )
        # ||p||_{H_n} equals the Newton decrement since H_n p = -S_n
        damping = d_nu(params_n, p, dec)
        alpha = min(1.0, 1.0 / (1.0 + damping))
        theta = theta + alpha * p
    raise AssertionError("unreachable")


def _spectral_summary(H: np.ndarray) -> SpectralSummary | None:
    eigs = np.linalg.eigvalsh(H)
    if eigs[0] <= 0.0:
        return None
    return SpectralSummary(lambda_min=float(eigs[0]), lambda_max=float(eigs[-1]))


def fit_erm(model: LossModel, data: Dataset, opts: SolverOptions | None = None) -> FitResult:
    """Minimize the empirical risk by damped Newton.

    Returns a FitResult whose ``converged`` flag reflects whether the Newton
    decrement reached ``opts.tol`` within ``opts.max_iter`` iterations; the
    result is returned either way so callers can inspect partial fits.
    Raises SingularHessian when a Newton system cannot be factorized, which
    is how non-existence (e.g. separable logistic data) surfaces.
    """
    batch = prepare_batch(model, data.X, data.y)
    return _newton_fit(batch, opts or SolverOptions(), check_weights(None, batch.n))


def localization_certificate(
    model: LossModel, data: Dataset, theta_ref
) -> LocalizationCertificate:
    """Certify existence and localization of theta_n from one reference point.

    Computes the Newton decrement of the empirical risk at ``theta_ref`` and
    the critical radius of the empirical self-concordance parameters over
    the spectrum of H_n(theta_ref).  When their product is at most K_nu, a
    unique minimizer exists and ``||theta_n - theta_ref||_{H_n(theta_ref)}``
    is at most ``bound = 4 score_norm``.
    """
    batch = prepare_batch(model, data.X, data.y)
    S, H = batch.score_hessian(check_theta(model, theta_ref), check_weights(None, batch.n))
    dec, _ = _decrement_and_direction(S, H)
    spec = _spectral_summary(H)
    if spec is None:
        raise SingularHessian("H_n(theta_ref) is not positive definite")
    params_n = empirical_sc_params(model, data.n)
    radius = r_nu(params_n, spec)
    passes = radius * dec <= k_nu(model.sc.nu)
    return LocalizationCertificate(
        passes=passes,
        score_norm=dec,
        bound=4.0 * dec if passes else math.inf,
    )
