"""Empirical aggregates, the Newton risk minimizer, and localization.

The empirical risk L_n(theta) = n^-1 sum_i l(theta; z_i) of an (R, nu)
self-concordant per-sample loss is itself self-concordant with parameters
(R n^{nu/2-1}, nu), here (R, 2) with R measured from the data.  That pair
drives both the Newton step rule of :func:`fit_erm` and the existence
certificate in :func:`localization_certificate`: when the certificate
passes at a reference point, a unique minimizer exists inside the Dikin
ellipsoid of radius four times the Newton decrement at that point.

One Newton engine, :func:`_newton_engine`, fits m slots at once:
the weight rows of one dataset, or one row per dataset of a stacked
batch.  :func:`fit_erm` is its case m = 1, and the multiplier bootstrap
runs its refits as slots.  One replicate-and-fit loop fits a chunk of
replications in one call, a slot per dataset: :func:`replicate` completes
each slot's FitResult, equal to fit_erm's bit for bit, for the studies'
measures, and the oracle calibrations of :mod:`scmest.gof` evaluate their
statistics per chunk, over the same slots, with no FitResult.  Every
slot starts from theta = 0.  The step rule, with the R of the slot's own
data: the full Newton step when the damped step length
alpha = 1 / (1 + d_nu) is at least 1/2, where self-concordance guarantees
it a risk decrease of at least (3 - e) dec^2; below that, the full step
when an Armijo test confirms a decrease of at least dec^2/4, else the
damped step, which is guaranteed to descend, and damped steps from then
until alpha reaches 1/2.  Quadratic losses (R = 0) converge in one full
step.  A slot finishes as converged, max_iter, singular or
overflow.  Every Newton system, and every solve of the Rao statistic, the
localization certificate and the effective dimension, passes one
positive-definiteness test: Cholesky pivots against the trace, with a
single diagonal-jitter retry (1e-10 trace/d), so genuine non-existence
(separable logistic data, n < d designs) is distinguished from round-off.
A stack of systems is factored in one batched call, failures included.

Work per fit: X, y and the weights are checked and the per-sample stacks
built once, in the :class:`~scmest.losses.Batch` the fit keeps.  Each
iteration computes L_n, S_n and H_n of the live slots in one pass, at the
point each moves to, and once more only for the slots whose full step the
test refused.  The pass runs over blocks of slots whose per-sample
temporaries hold at most 50 000 entries (or one slot), so the memory of
one block's temporaries serves the next.  The weight matrix W, the
largest array of a bootstrap, is read in place: the engine indexes its
live rows, and each block reads a slice of W, or gathers only its own
rows once slots have left.  A single fit keeps the engine's L_n and completes G_n at
the returned iterate, both with the same arithmetic as :func:`aggregates`,
so ``FitResult.aggregates_at_opt`` equals
``aggregates(model, data, theta_n)`` bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DomainError, NonConverged, NumericOverflow, SingularHessian
from .errors import check_failures, check_integer, check_nonnegative_int
from .losses import Batch, LossModel, check_theta, check_weights, model_for_data, prepare_batch
from .losses import _CHUNK_ELEMENTS, _STACK_ELEMENTS, prepare_stack
from .scfun import Certificate, SpectralSummary, certify_unique_minimizer, d_nu
from .simdata import Dataset, Process, Provenance, _check_n, _draw, loss_kind_for

__all__ = [
    "EmpiricalAggregates",
    "FitResult",
    "SolverOptions",
    "LocalizationCertificate",
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
    """Newton solver settings.

    tol is the Newton-decrement stopping threshold, measured in the
    H_n^{-1} norm of the gradient; max_iter caps the number of Newton
    steps.  A tolerance that is not finite and positive or a budget below
    one raises DomainError.
    """

    tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < math.inf:
            raise DomainError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of an empirical-risk minimization.

    ``newton_decrement`` is the final gradient norm in the H_n^{-1} metric;
    converged means it fell below the solver tolerance.  ``certificate`` is
    the unique-minimizer certificate evaluated at theta_n (None when the
    final Hessian is too ill-conditioned to summarize spectrally).  ``opts``
    are the solver options of the fit; the refits that calibrate it run
    under the same options.  ``batch`` (the checked data, per-sample
    stacks, R and ``batch.model`` the engine fitted), ``data`` and
    ``weights`` are the problem, dataset and multiplier weights of the
    minimized risk (unit weights for an unweighted fit), held by reference,
    where the LR statistic and the calibrations read them; a fit has no
    default for them.  A bootstrap of the fit keeps its outer-product table
    (at most ``_CHUNK_ELEMENTS`` entries) on ``batch``, as long as the fit.
    """

    theta_n: np.ndarray
    aggregates_at_opt: EmpiricalAggregates
    newton_decrement: float
    iterations: int
    converged: bool
    certificate: Certificate | None = None
    opts: SolverOptions = SolverOptions()
    batch: Batch = field(kw_only=True, repr=False, compare=False)
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


def aggregates(
    model: LossModel, data: Dataset, theta, weights: np.ndarray | None = None
) -> EmpiricalAggregates:
    """Empirical value, gradient, Hessian, and score second moment at theta.

    With multiplier weights w_i the averages become n^-1 sum_i w_i (.), and
    G_n averages the outer products of the weighted per-sample gradients.
    Unit weights reproduce the unweighted aggregates bit for bit.
    """
    batch = prepare_batch(model, data)
    theta = check_theta(model, theta)
    w = check_weights(weights, batch.n)
    return _complete(batch, theta, w, *batch.evaluate(theta, w))


def _complete(batch: Batch, theta, w, L, S, H) -> EmpiricalAggregates:
    """Aggregates at theta from its L_n, S_n and H_n, adding G_n."""
    G = batch.score_moment(theta, w)
    return EmpiricalAggregates(L_n=L, S_n=S, H_n=H, G_n=G, n=batch.n)


def _min_sq_pivots(H: np.ndarray) -> np.ndarray:
    """Smallest squared Cholesky pivot of each matrix; NaN where factorization fails.

    One call of the batched LAPACK kernel behind ``np.linalg.cholesky``
    factors every matrix of the stack; it fills a matrix whose
    factorization fails with NaN instead of raising, and NaN passes no
    pivot test.
    """
    with np.errstate(invalid="ignore"):
        L = _umath_linalg.cholesky_lo(H, signature="d->d")
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


@dataclass(frozen=True)
class _SlotFits:
    """Per-slot outcome of :func:`_newton_engine`.

    ``status`` is "converged", "max_iter", "singular" (a Hessian failed the
    PD test) or "overflow" (a Poisson predictor overflowed), and the arrays
    hold each slot's final iterate with its risk, gradient and Hessian
    there.
    """

    theta: np.ndarray
    S: np.ndarray
    H: np.ndarray
    L: np.ndarray
    decrement: np.ndarray
    iterations: np.ndarray
    status: np.ndarray


def _newton_engine(batch: Batch, W: np.ndarray, opts: SolverOptions) -> _SlotFits:
    """Newton from theta = 0 on the W_b-weighted risk of every row b of W.

    Slot b fits the data of ``batch``, or its slot b's dataset when the
    batch is stacked.  The live slots advance together and leave when they
    converge, fail, or run out of iterations; a stacked batch leaves with
    them.  With X = H^{-1}S, dec the Newton decrement and
    alpha = 1 / (1 + d_nu) the damped step length, a slot takes the full
    step theta - X when alpha >= 1/2 (d_nu <= 1): there self-concordance
    bounds its risk decrease below by (1 - omega_dbar(2, 1)) dec^2, and
    omega_dbar(2, 1) = e - 2 < 3/4.  Below 1/2 it tries the full step and
    keeps it when the risk L is finite there and fell by at least dec^2/4
    (an Armijo test); otherwise it takes the damped step theta - alpha X,
    which self-concordance guarantees to descend, and takes damped steps
    until alpha reaches 1/2.  The quadratic kinds (R = 0) have alpha = 1.
    An iteration evaluates L, S and H once, for the live slots only, at
    the point each slot moves to (:meth:`Batch.slot_evaluate`), and again
    for the slots whose full step was refused, at their damped point; each
    slot carries its L from one iteration to the next.  W is read in
    place: ``live`` indexes the rows of the slots still live, and the
    evaluation reads plain slices of W while every slot is live and
    block-sized gathers of those rows after: the engine makes no copy of W.
    """
    m = W.shape[0]
    d = batch.model.dim
    theta = np.zeros((m, d))
    S_fin = np.zeros((m, d))
    H_fin = np.zeros((m, d, d))
    L_fin = np.zeros(m)
    dec_fin = np.zeros(m)
    iters = np.zeros(m, dtype=int)
    status = np.empty(m, dtype="<U9")
    live, th = np.arange(m), np.zeros((m, d))
    # slots that take or try the full step; a refusal clears it until alpha >= 1/2
    full = np.ones(m, dtype=bool)
    L, S, H, overflow = batch.slot_evaluate(th, W)
    for it in range(opts.max_iter + 1):
        X, dec, ok = _newton_steps(H, S)
        stepping = ok & (dec > opts.tol)
        if it == opts.max_iter:
            stepping[:] = False
        if not stepping.all():
            done = ~stepping
            sel = live[done]
            theta[sel], L_fin[sel], S_fin[sel], H_fin[sel] = th[done], L[done], S[done], H[done]
            dec_fin[sel], iters[sel] = dec[done], it
            status[sel] = np.where(
                ok[done],
                np.where(dec[done] <= opts.tol, "converged", "max_iter"),
                np.where(overflow[done], "overflow", "singular"),
            )
            live, th = live[stepping], th[stepping]
            L, full, X, dec = L[stepping], full[stepping], X[stepping], dec[stepping]
            if live.size == 0:
                break
            batch = batch.take(stepping)
        # as d_nu = R ||X||_2 with R >= max_i ||x_i||, neither a damped step
        # nor a full step at alpha >= 1/2 moves any x_i'theta by more than 1
        alpha = 1.0 / (1.0 + d_nu(batch.sc_params, X, dec))
        full |= alpha >= 0.5
        trial = th - np.where(full, 1.0, alpha)[:, None] * X
        # while every slot is live, plain slices of W need no index
        L_trial, S, H, overflow = batch.slot_evaluate(trial, W, None if live.size == m else live)
        # an overflowing Poisson trial has L = inf and fails the test
        refused = full & (alpha < 0.5) & ~(L - L_trial >= 0.25 * dec * dec)
        if refused.any():
            trial[refused] = th[refused] - alpha[refused, None] * X[refused]
            L_trial[refused], S[refused], H[refused], overflow[refused] = batch.take(
                refused
            ).slot_evaluate(trial[refused], W, live[refused])
            full &= ~refused
        th, L = trial, L_trial
    return _SlotFits(theta, S_fin, H_fin, L_fin, dec_fin, iters, status)


def _fit_result(
    batch: Batch, data: Dataset, opts: SolverOptions, w: np.ndarray, fits: _SlotFits, b: int
) -> FitResult:
    """Slot b of an engine run as the FitResult of the w-weighted risk on ``batch``.

    ``batch`` holds the checked ``data`` of slot b and its per-sample
    stacks, and ``w`` checked weights.  A slot that ended singular or in
    overflow raises SingularHessian or NumericOverflow; :func:`replicate`
    drops such slots before it gets here.  The full aggregates are
    completed once, at the returned iterate, where the certificate is
    evaluated.
    """
    status, it = fits.status[b], int(fits.iterations[b])
    if status == "singular":
        raise SingularHessian(f"Hessian not positive definite at Newton iteration {it}")
    if status == "overflow":
        raise NumericOverflow(f"exp(theta'x) overflows at Newton iteration {it}")
    theta, S, H, dec = fits.theta[b], fits.S[b], fits.H[b], float(fits.decrement[b])
    spec = _spectral_summary(H)
    cert = None if spec is None else certify_unique_minimizer(batch.sc_params, spec, dec)
    return FitResult(
        theta_n=theta,
        aggregates_at_opt=_complete(batch, theta, w, float(fits.L[b]), S, H),
        newton_decrement=dec,
        iterations=it,
        converged=status == "converged",
        certificate=cert,
        opts=opts,
        batch=batch,
        data=data,
        weights=w,
    )


def _spectral_summary(H: np.ndarray) -> SpectralSummary | None:
    eigs = np.linalg.eigvalsh(H)
    if eigs[0] <= 0.0:
        return None
    return SpectralSummary(lambda_min=float(eigs[0]), lambda_max=float(eigs[-1]))


def fit_erm(model: LossModel, data: Dataset, opts: SolverOptions | None = None) -> FitResult:
    """Minimize the empirical risk by Newton's method from theta = 0.

    Each step is the full Newton step where self-concordance guarantees it
    to descend (d_nu <= 1) or an Armijo test confirms it, and the damped
    step alpha = 1 / (1 + d_nu) otherwise (see :func:`_newton_engine`).
    Returns a FitResult whose ``converged`` flag reflects whether the Newton
    decrement reached ``opts.tol`` within ``opts.max_iter`` iterations; the
    result is returned either way so callers can inspect partial fits.
    Raises SingularHessian when a Newton system fails the
    positive-definiteness test, which is how non-existence (e.g. separable
    logistic data) surfaces, and NumericOverflow when a Poisson predictor
    overflows.
    """
    batch = prepare_batch(model, data)
    opts, w = opts or SolverOptions(), check_weights(None, batch.n)
    return _fit_result(batch, data, opts, w, _newton_engine(batch, w[None], opts), 0)


# the failures that drop one replication instead of stopping the study
_REPLICATION_FAILURES = (SingularHessian, NumericOverflow, NonConverged)


def _replications(
    process: Process, n: int, seed_base: int, reps: int, opts: SolverOptions, fit: bool = True
):
    """The replicate-and-fit loop: yield each chunk of replications as one stacked batch.

    Replication r is the dataset ``generate(process, n, seed_base + r)``.
    A chunk is one evaluation block of the engine: its slots' (m, n)
    temporaries hold at most 50 000 entries, its stacked data (n d per
    dataset, n d^2 for score matching's A) at most 8 000 000, and it holds
    at least one dataset.  Its datasets are drawn as one block
    (:func:`~scmest.simdata._draw`) and checked at once into one stacked
    batch, with one ``model_for_data(loss_kind_for(process), X)``.  Per
    chunk, in replication order, this yields ``(seeds, stacked, W,
    fits)``: ``stacked`` has slot b holding the dataset of ``seeds[b]``,
    ``W`` unit weights (one row per slot) and ``fits`` the engine's run on
    them from theta = 0, or None without ``fit``.  A ``reps`` or ``n``
    that is not an integer, ``reps`` below 1 or a ``seed_base`` that is
    not a nonnegative integer raise DomainError, and ``n`` below 1
    EmptyDataset, before any replication runs.
    """
    check_integer("reps", reps)
    if reps < 1:
        raise DomainError(f"replications must be positive, got {reps}")
    _check_n(n)
    check_nonnegative_int("seed", seed_base)
    seed_base, kind = int(seed_base), loss_kind_for(process)
    row = process.d**2 if kind == "score_matching" else process.d
    chunk = max(1, min(_STACK_ELEMENTS // n, _CHUNK_ELEMENTS // (n * row)))
    for start in range(0, reps, chunk):
        seeds = range(seed_base + start, seed_base + min(start + chunk, reps))
        X, y = _draw(process, n, seeds.start, seeds.stop)
        stacked = prepare_stack(model_for_data(kind, X[0]), X, y)
        W = np.ones((len(seeds), n))
        yield seeds, stacked, W, _newton_engine(stacked, W, opts) if fit else None


def replicate(
    process: Process,
    n: int,
    seed_base: int,
    reps: int,
    measure: Callable[[LossModel, Dataset, FitResult], Any],
    opts: SolverOptions | None = None,
) -> list:
    """Measure ``reps`` fresh datasets from a process, dropping failed replications.

    Replication r draws ``data = generate(process, n, seed_base + r)`` and
    returns ``measure(model, data, fit_erm(model, data, opts))``, with one
    ``model_for_data(loss_kind_for(process), data.X)`` per chunk.  The fits
    of a chunk of replications (one evaluation block of the engine, see
    :func:`_replications`) run as one engine call with a slot per dataset,
    each FitResult completed on its slot of the stacked batch
    (``Batch.take(b)``) with the R the engine measured.  A
    replication whose fit did not converge is dropped before
    ``measure`` runs, counted under its engine status, as the bootstrap
    counts its failed refits: ``singular``, ``overflow``, ``max_iter``.  A
    replication whose measure raises SingularHessian, NumericOverflow or
    NonConverged is dropped and counted under that error's cause.  The
    other values come back in replication order.  More than reps/10
    dropped raises TooManyFailures with the count per cause.  A ``reps``
    or ``n`` that is not an integer, or ``reps`` below 1, raises
    DomainError, and ``n`` below 1 EmptyDataset, before any replication
    runs.
    """
    opts = opts or SolverOptions()
    values = []
    causes: Counter[str] = Counter()
    for seeds, stacked, W, fits in _replications(process, n, seed_base, reps, opts):
        for b, seed in enumerate(seeds):
            if fits.status[b] != "converged":
                causes[fits.status[b]] += 1
                continue
            one = stacked.take(b)
            data = Dataset(X=one.X, y=one.y, provenance=Provenance(process=process, seed=seed))
            try:
                result = _fit_result(one, data, opts, W[b], fits, b)
                values.append(measure(stacked.model, data, result))
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
    batch = prepare_batch(model, data)
    _, S, H = batch.evaluate(check_theta(model, theta_ref), check_weights(None, batch.n))
    # the engine's decrement: at a fit's theta_n it is the fit's newton_decrement
    _, dec, ok = _newton_steps(H[None], S[None])
    spec = _spectral_summary(H)
    if not ok[0] or spec is None:
        raise SingularHessian("H_n(theta_ref) is not positive definite")
    dec = float(dec[0])
    cert = certify_unique_minimizer(batch.sc_params, spec, dec)
    return LocalizationCertificate(passes=cert.passes, score_norm=dec, bound=cert.radius_bound)
