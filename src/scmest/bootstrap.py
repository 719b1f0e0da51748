"""Multiplier-bootstrap calibration of Wald and LR confidence sets.

Each bootstrap replication b reweights the empirical risk of the base fit
(``FitResult.model`` on ``FitResult.data``) with i.i.d. Gaussian
multipliers W_i ~ N(1, 1), refits, and evaluates

    T_wald^b = ||theta^b - theta_n||^2 in the H_n^b(theta^b) metric,
    T_lr^b   = 2 [L_n^b(theta_n) - L_n^b(theta^b)],

where H_n^b and L_n^b are the weighted Hessian and risk.  The upper-delta
quantile of the successful replications calibrates the confidence set.
Negative multipliers can make a replication's objective nonconvex; such
replications surface as factorization failures or non-convergence, are
excluded from the quantile, and are reported (erroring when they exceed a
tenth of B, with the count per engine status: singular, max_iter,
overflow).

Replication b draws its weights from a Philox stream seeded by
SeedSequence([seed, b]), so each replication's weight vector is a pure
function of (seed, b), independent of batching and scheduling; repeated
runs of one configuration are bit-identical.  The B refits run through the
one damped-Newton engine of :mod:`scmest.estimate`, a slot per
replication, in chunks that bound memory, under the solver options of the
base fit they calibrate (``FitResult.opts``); :func:`bootstrap_fit` is the
engine's case of one slot.

Work per bootstrap call: the data are checked and the per-sample stacks
built once, in one :class:`~scmest.losses.Batch`, which also keeps the
table of outer products its Hessians sum; an engine iteration computes
only S and H of the live slots, and the weighted risk is evaluated once
per slot, where it converges.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConverged, check_failures
from .estimate import FitResult, SolverOptions, _newton_engine, _newton_fit
from .losses import LossModel, check_weights, prepare_batch
from .simdata import Dataset

__all__ = [
    "BootstrapConfig",
    "BootstrapQuantile",
    "bootstrap_weights",
    "bootstrap_fit",
    "bootstrap_quantile",
]


@dataclass(frozen=True)
class BootstrapConfig:
    """Multiplier-bootstrap settings.

    ``delta`` is the tail mass: the calibrated quantile is the upper-delta
    empirical quantile of the bootstrap statistics.  The weight law is
    fixed at N(1, 1).
    """

    delta: float
    B: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta must lie in (0, 1), got {self.delta}")
        if self.B < 1:
            raise DomainError(f"B must be positive, got {self.B}")
        if self.B < 100:
            warnings.warn(
                f"B = {self.B} bootstrap replications is too few for stable quantiles",
                stacklevel=2,
            )


@dataclass(frozen=True)
class BootstrapQuantile:
    """A calibrated quantile plus the number of excluded replications."""

    quantile: float
    n_failed: int


def bootstrap_weights(seed: int, b: int, n: int) -> np.ndarray:
    """The N(1, 1) multiplier vector of replication b; a pure function of (seed, b)."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), int(b)])))
    return 1.0 + gen.standard_normal(n)


def bootstrap_fit(
    model: LossModel,
    data: Dataset,
    weights: np.ndarray,
    opts: SolverOptions | None = None,
) -> FitResult:
    """Minimize the weighted empirical risk n^-1 sum_i W_i l(theta; z_i).

    Runs the same damped-Newton machinery as the unweighted fit; with unit
    weights the result is bit-for-bit identical to fit_erm.  Nonconvexity
    induced by negative weights surfaces as SingularHessian.
    """
    batch = prepare_batch(model, data.X, data.y)
    weights = check_weights(weights, batch.n)
    if not np.all(np.isfinite(weights)):
        raise DomainError("bootstrap weights must be finite")
    return _newton_fit(batch, data, opts or SolverOptions(), weights)


def _bootstrap_statistics(fit: FitResult, B: int, seed: int):
    """All B bootstrap Wald and LR statistics of a fit plus the failure count.

    The refits run on the fit's model and data, under its solver options.
    The checked data, the per-sample stacks and the outer-product table of
    the Hessians are built once here and shared by every replication.
    """
    if not fit.converged:
        raise NonConverged("bootstrap calibration requires a converged base fit")
    n = fit.data.n
    batch = prepare_batch(fit.model, fit.data.X, fit.data.y)
    vals_base = batch.values(fit.theta_n)

    wald = np.full(B, np.nan)
    lr = np.full(B, np.nan)
    causes: Counter[str] = Counter()
    chunk = min(B, batch.max_slots())
    for start in range(0, B, chunk):
        stop = min(start + chunk, B)
        W = np.stack([bootstrap_weights(seed, b, n) for b in range(start, stop)])
        fits = _newton_engine(batch, W, fit.opts)
        ok = fits.status == "converged"
        diff = fits.theta - fit.theta_n
        sel = np.flatnonzero(ok) + start
        wald[sel] = np.einsum("bj,bjk,bk->b", diff, fits.H, diff)[ok]
        lr[sel] = np.maximum(2.0 * (W @ vals_base / n - fits.L), 0.0)[ok]
        causes.update(fits.status[~ok].tolist())
    check_failures(causes, B, "bootstrap replications")
    good = ~np.isnan(wald)
    return wald[good], lr[good], int(B - np.count_nonzero(good))


def _same_problem(fit: FitResult, model: LossModel, data: Dataset) -> bool:
    """Whether (model, data) is the problem ``fit`` minimized."""
    return model == fit.model and (data is fit.data or (
        np.array_equal(data.X, fit.data.X) and np.array_equal(data.y, fit.data.y)
    ))


def bootstrap_quantile(
    model: LossModel,
    data: Dataset,
    fit: FitResult,
    config: BootstrapConfig,
    kind: str,
) -> BootstrapQuantile:
    """Upper-delta quantile of the bootstrap statistic of the given kind.

    ``model`` and ``data`` must be the fit's own (an equal model, the same
    or equal X and y), else DomainError.  The B refits run under the solver
    options of ``fit``.  Failed replications (nonconvex reweighting,
    non-convergence) are excluded from the quantile and counted; more than
    B/10 of them raises TooManyFailures.
    """
    if kind not in ("wald", "lr"):
        raise DomainError(f"kind must be 'wald' or 'lr', got {kind!r}")
    if not _same_problem(fit, model, data):
        raise DomainError("bootstrap_quantile needs the model and data the fit was made on")
    wald, lr, n_failed = _bootstrap_statistics(fit, config.B, config.seed)
    stats = wald if kind == "wald" else lr
    return BootstrapQuantile(
        quantile=float(np.quantile(stats, 1.0 - config.delta)), n_failed=n_failed
    )
