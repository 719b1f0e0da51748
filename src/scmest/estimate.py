"""Empirical aggregates, the damped-Newton risk minimizer, and localization.

The empirical risk L_n(theta) = n^-1 sum_i l(theta; z_i) of an (R, nu)
self-concordant per-sample loss is itself self-concordant with parameters
(R n^{nu/2-1}, nu).  That scaled pair drives both the Newton step damping in
:func:`fit_erm` and the existence certificate in
:func:`localization_certificate`: when the certificate passes at a reference
point, a unique minimizer exists inside the Dikin ellipsoid of radius four
times the Newton decrement at that point.

One damped-Newton engine, :func:`_newton_engine`, fits m slots at once:
the weight rows of one dataset, or one row per dataset of a stacked
batch.  :func:`fit_erm` is its case m = 1, the multiplier bootstrap runs
its refits as slots, and :func:`replicate`, the one replicate-and-fit loop
of the studies and oracle calibrations, fits a chunk of replications in
one call, each slot's FitResult equal to fit_erm's bit for bit.  Every
slot starts from theta = 0 and takes damped Newton steps
alpha = 1 / (1 + d_nu(...)), with the R of its own model, which guarantee
monotone descent for self-concordant losses; quadratic losses converge in
one full step.  A slot finishes as converged, max_iter, singular or
overflow.  Every Newton system, and every solve of the Rao statistic, the
localization certificate and the effective dimension, passes one
positive-definiteness test: Cholesky pivots against the trace, with a
single diagonal-jitter retry (1e-10 trace/d), so genuine non-existence
(separable logistic data, n < d designs) is distinguished from round-off.

Work per call: X, y and the weights are checked and the per-sample stacks
built once, in a :class:`~scmest.losses.Batch`.  Each iteration computes
only S_n and H_n of the live slots, and L_n only where a slot finishes.  A
single fit keeps the engine's L_n and completes G_n at the returned
iterate, both with the same arithmetic as :func:`aggregates`, so
``FitResult.aggregates_at_opt`` equals ``aggregates(model, data, theta_n)``
bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import DimensionMismatch, DomainError, EmptyDataset, NonConverged, NumericOverflow
from .errors import SingularHessian, check_failures
from .losses import Batch, LossModel, check_theta, check_weights, model_for_data, prepare_batch
from .losses import stack_batches
from .scfun import (
    Certificate,
    ScParams,
    SpectralSummary,
    certify_unique_minimizer,
    d_nu,
)
from .simdata import Dataset, Process, generate, loss_kind_for

__all__ = [
    "EmpiricalAggregates",
    "FitResult",
    "SolverOptions",
    "LocalizationCertificate",
    "empirical_sc_params",
    "aggregates",
    "fit_erm",
    "replicate",
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
    final Hessian is too ill-conditioned to summarize spectrally).  ``opts``
    are the solver options of the fit; the refits that calibrate it run
    under the same options.  ``model``, ``data`` and ``weights`` are the
    loss model, dataset and multiplier weights of the minimized risk (unit
    weights for an unweighted fit), held by reference, where the LR
    statistic and the calibrations read them; a fit has no default for
    them.
    """

    theta_n: np.ndarray
    aggregates_at_opt: EmpiricalAggregates
    newton_decrement: float
    iterations: int
    converged: bool
    certificate: Certificate | None = None
    opts: SolverOptions = SolverOptions()
    model: LossModel = field(kw_only=True, repr=False, compare=False)
    data: Dataset = field(kw_only=True, repr=False, compare=False)
    weights: np.ndarray = field(kw_only=True, repr=False, compare=False)


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


def _slot_sc_params(batch: Batch) -> ScParams:
    """empirical_sc_params of the slots' risks, R one per slot for a stacked batch."""
    sc = batch.model.sc
    R = batch.R if batch.stacked else sc.R
    return ScParams(R=R * float(batch.n) ** (sc.nu / 2.0 - 1.0), nu=sc.nu)


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
    return _complete(batch, theta, w, batch.risk(theta, w), S, H)


def _complete(batch: Batch, theta, w, L, S, H) -> EmpiricalAggregates:
    """Aggregates at theta from its L_n, S_n and H_n, adding G_n."""
    G = batch.score_moment(theta, w)
    return EmpiricalAggregates(L_n=L, S_n=S, H_n=H, G_n=G, n=batch.n)


def _min_sq_pivots(H: np.ndarray) -> np.ndarray:
    """Smallest squared Cholesky pivot of each matrix; -inf where factorization fails.

    A stack with a failing matrix is bisected, so k failures among m
    matrices cost about k log2(m) batched factorizations.
    """
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        if H.shape[0] == 1:
            return np.full(1, -np.inf)
        half = H.shape[0] // 2
        return np.concatenate([_min_sq_pivots(H[:half]), _min_sq_pivots(H[half:])])
    m, d, _ = L.shape
    # every (d + 1)-th entry of a flattened d x d matrix is on its diagonal
    return L.reshape(m, d * d)[:, :: d + 1].min(axis=1) ** 2


def _pd_solve(H: np.ndarray, R: np.ndarray):
    """Solve H_b X_b = R_b for a stack of symmetric matrices under the PD test.

    H is (m, d, d) and R (m, d, k); returns (X, ok), X zero where ok is
    False.  H_b passes when its trace is positive and its smallest squared
    Cholesky pivot clears 1e-12 trace/d (Cauchy interlacing puts every
    squared pivot above lambda_min, so this only rejects condition numbers
    beyond ~1e12).  Otherwise it is retried once with 1e-10 trace/d added
    to the diagonal, and passes, solved with that jitter, only when its
    smallest squared pivot clears 100 times the jitter; else the jitter
    itself supplies the positive-definiteness and H_b is singular.
    """
    m, d, _ = H.shape
    scale = np.trace(H, axis1=1, axis2=2) / d
    ok = _min_sq_pivots(H) > _PIVOT_REL * scale
    if ok.all():
        return np.linalg.solve(H, R), ok
    retry = np.flatnonzero(~ok & (scale > 0.0))
    if retry.size:
        H = H.copy()
        jitter = _JITTER_REL * scale[retry]
        H[retry] += jitter[:, None, None] * np.eye(d)
        ok[retry] = _min_sq_pivots(H[retry]) > 100.0 * jitter
    X = np.zeros(R.shape)
    X[ok] = np.linalg.solve(H[ok], R[ok])
    return X, ok


def _newton_steps(H: np.ndarray, S: np.ndarray):
    """H_b^{-1}S_b (the Newton step is its negative), decrements, PD mask."""
    X, ok = _pd_solve(H, S[..., None])
    X = X[..., 0]
    return X, np.sqrt(np.maximum(np.add.reduce(S * X, axis=1), 0.0)), ok


def _solve_pd(H: np.ndarray, R: np.ndarray) -> np.ndarray:
    """H^{-1} R for one symmetric H; SingularHessian when H fails the PD test."""
    X, ok = _pd_solve(H[None], R[None])
    if not ok[0]:
        raise SingularHessian("Hessian is not numerically positive definite")
    return X[0]


def _decrement(S: np.ndarray, H: np.ndarray) -> float:
    """Newton decrement sqrt(S'H^{-1}S) of one system."""
    return math.sqrt(max(float(S @ _solve_pd(H, S[:, None])[:, 0]), 0.0))


@dataclass(frozen=True)
class _SlotFits:
    """Per-slot outcome of :func:`_newton_engine`.

    ``status`` is "converged", "max_iter", "singular" (a Hessian failed the
    PD test) or "overflow" (a Poisson predictor overflowed), and the arrays
    hold each slot's final iterate; L is evaluated for the first two only.
    """

    theta: np.ndarray
    S: np.ndarray
    H: np.ndarray
    L: np.ndarray
    decrement: np.ndarray
    iterations: np.ndarray
    status: np.ndarray


def _newton_engine(batch: Batch, W: np.ndarray, opts: SolverOptions) -> _SlotFits:
    """Damped Newton from theta = 0 on the W_b-weighted risk of every row b of W.

    Slot b fits the data of ``batch``, or its slot b's dataset when the
    batch is stacked.  The live slots advance together, one damped step
    alpha = 1 / (1 + d_nu) each, and leave when they converge, fail, or run
    out of iterations; a stacked batch leaves with them.  An iteration
    evaluates only S and H, for the live slots only
    (:meth:`Batch.slot_score_hessian`); the risk L is evaluated for the
    slots that finish, at the iterate they finish on.
    """
    m = W.shape[0]
    d = batch.model.dim
    params_n = _slot_sc_params(batch)
    theta = np.zeros((m, d))
    S_fin = np.zeros((m, d))
    H_fin = np.zeros((m, d, d))
    L_fin = np.zeros(m)
    dec_fin = np.zeros(m)
    iters = np.zeros(m, dtype=int)
    status = np.empty(m, dtype="<U9")
    live, th, W_live = np.arange(m), np.zeros((m, d)), W
    for it in range(opts.max_iter + 1):
        S, H, overflow = batch.slot_score_hessian(th, W_live)
        X, dec, ok = _newton_steps(H, S)
        stepping = ok & (dec > opts.tol)
        if it == opts.max_iter:
            stepping[:] = False
        if not stepping.all():
            done = ~stepping
            sel = live[done]
            theta[sel], S_fin[sel], H_fin[sel] = th[done], S[done], H[done]
            dec_fin[sel], iters[sel] = dec[done], it
            status[sel] = np.where(
                ok[done],
                np.where(dec[done] <= opts.tol, "converged", "max_iter"),
                np.where(overflow[done], "overflow", "singular"),
            )
            fin = done & ok
            L_fin[live[fin]] = batch.take(fin).slot_risk(th[fin], W_live[fin])
            live, th, W_live = live[stepping], th[stepping], W_live[stepping]
            X, dec = X[stepping], dec[stepping]
            if live.size == 0:
                break
            batch = batch.take(stepping)
            params_n = _slot_sc_params(batch)
        # the step is -X, and ||X||_{H_n} equals the Newton decrement
        th -= (1.0 / (1.0 + d_nu(params_n, X, dec)))[:, None] * X
    return _SlotFits(theta, S_fin, H_fin, L_fin, dec_fin, iters, status)


def _fit_result(
    batch: Batch, data: Dataset, opts: SolverOptions, w: np.ndarray, fits: _SlotFits, b: int
) -> FitResult:
    """Slot b of an engine run as the FitResult of the w-weighted risk on ``batch``.

    ``batch`` holds the checked ``data`` of slot b and its per-sample
    stacks, and ``w`` checked weights.  A slot that ended singular or in
    overflow raises SingularHessian or NumericOverflow.  The full
    aggregates are completed once, at the returned iterate, where the
    certificate is evaluated.
    """
    status, it = fits.status[b], int(fits.iterations[b])
    if status == "singular":
        raise SingularHessian(f"Hessian not positive definite at Newton iteration {it}")
    if status == "overflow":
        raise NumericOverflow(f"exp(theta'x) overflows at Newton iteration {it}")
    theta, S, H, dec = fits.theta[b], fits.S[b], fits.H[b], float(fits.decrement[b])
    spec = _spectral_summary(H)
    params_n = empirical_sc_params(batch.model, batch.n)
    cert = None if spec is None else certify_unique_minimizer(params_n, spec, dec)
    return FitResult(
        theta_n=theta,
        aggregates_at_opt=_complete(batch, theta, w, float(fits.L[b]), S, H),
        newton_decrement=dec,
        iterations=it,
        converged=status == "converged",
        certificate=cert,
        opts=opts,
        model=batch.model,
        data=data,
        weights=w,
    )


def _newton_fit(batch: Batch, data: Dataset, opts: SolverOptions, w: np.ndarray) -> FitResult:
    """The one-slot engine run on the w-weighted empirical risk, as a FitResult."""
    return _fit_result(batch, data, opts, w, _newton_engine(batch, w[None], opts), 0)


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
    Raises SingularHessian when a Newton system fails the
    positive-definiteness test, which is how non-existence (e.g. separable
    logistic data) surfaces, and NumericOverflow when a Poisson predictor
    overflows.
    """
    batch = prepare_batch(model, data.X, data.y)
    return _newton_fit(batch, data, opts or SolverOptions(), check_weights(None, batch.n))


# the failures that drop one replication instead of stopping the study
_REPLICATION_FAILURES = (SingularHessian, NumericOverflow, NonConverged)

# elements of the designs fitted in one engine call: about ten datasets at
# n = 1000, d = 5, past which a larger chunk saves no time but adds memory
_STACK_ELEMENTS = 50_000


def replicate(
    process: Process,
    n: int,
    seed_base: int,
    reps: int,
    measure: Callable[[LossModel, Dataset, FitResult | None], Any],
    opts: SolverOptions | None = None,
    fit: bool = True,
) -> list:
    """Measure ``reps`` fresh datasets from a process, dropping failed replications.

    Replication r draws ``data = generate(process, n, seed_base + r)``,
    builds ``model = model_for_data(loss_kind_for(process), data.X)`` and
    returns ``measure(model, data, fit_erm(model, data, opts))``.  The fits
    of a chunk of replications, whose designs hold at most 50 000 entries
    (n d per dataset) or are one dataset, run as one engine call with a
    slot per dataset.  With ``fit=False`` nothing is fitted and the measure
    gets None.  A replication whose fit or measure raises SingularHessian,
    NumericOverflow or NonConverged is dropped; the other values come back
    in replication order.  More than reps/10 dropped raises TooManyFailures
    with the count per cause, named as the bootstrap names its failed
    refits: ``singular``, ``overflow``, ``max_iter``.  ``reps`` below 1
    raises DomainError, and ``n`` below 1 EmptyDataset.
    """
    if reps < 1:
        raise DomainError(f"replications must be positive, got {reps}")
    if n < 1:
        raise EmptyDataset(f"n must be positive, got {n}")
    kind = loss_kind_for(process)
    opts = opts or SolverOptions()
    chunk = max(1, _STACK_ELEMENTS // (n * process.d))
    values = []
    causes: Counter[str] = Counter()
    for start in range(0, reps, chunk):
        seeds = range(seed_base + start, seed_base + min(start + chunk, reps))
        datasets = [generate(process, n, seed) for seed in seeds]
        models = [model_for_data(kind, data.X) for data in datasets]
        if fit:
            batches = [prepare_batch(m, data.X, data.y) for m, data in zip(models, datasets)]
            W = np.ones((len(batches), n))
            fits = _newton_engine(stack_batches(batches), W, opts)
        for b, (model, data) in enumerate(zip(models, datasets)):
            try:
                result = _fit_result(batches[b], data, opts, W[b], fits, b) if fit else None
                values.append(measure(model, data, result))
            except _REPLICATION_FAILURES as exc:
                causes[exc.cause] += 1
    check_failures(causes, reps, "replications")
    return values


def localization_certificate(
    model: LossModel, data: Dataset, theta_ref
) -> LocalizationCertificate:
    """Certify existence and localization of theta_n from one reference point.

    Applies :func:`scmest.scfun.certify_unique_minimizer`, the rule behind
    ``FitResult.certificate``, to the empirical risk at ``theta_ref``: the
    Newton decrement there (``score_norm``) and the spectrum of
    H_n(theta_ref).  When it passes, a unique minimizer exists and
    ``||theta_n - theta_ref||_{H_n(theta_ref)}`` is at most ``bound``.
    """
    batch = prepare_batch(model, data.X, data.y)
    S, H = batch.score_hessian(check_theta(model, theta_ref), check_weights(None, batch.n))
    dec = _decrement(S, H)
    spec = _spectral_summary(H)
    if spec is None:
        raise SingularHessian("H_n(theta_ref) is not positive definite")
    cert = certify_unique_minimizer(empirical_sc_params(model, data.n), spec, dec)
    return LocalizationCertificate(passes=cert.passes, score_norm=dec, bound=cert.radius_bound)
