"""Multiplier-bootstrap calibration of Wald and LR confidence sets.

Each bootstrap replication b reweights the empirical risk of the base fit
(its problem ``FitResult.batch`` under ``FitResult.weights``, ones for an
unweighted fit) with i.i.d. Gaussian multipliers
W_i ~ N(1, 1), refits, and evaluates

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
runs of one configuration are bit-identical.  A chunk of replications
draws its weights as one block: one vectorized pass of numpy's
SeedSequence hash over b derives every replication's Philox key (the
pass that keys the datasets of :mod:`scmest.simdata`), and one
Philox is re-keyed per replication to a fresh stream (zero counter, empty
buffer), the state ``Philox(SeedSequence([seed, b]))`` starts from, so
every row is the vector that construction draws.  The B refits run through the
one Newton engine of :mod:`scmest.estimate`, a slot per replication, in
chunks that bound memory, under the solver options of the base fit they
calibrate (``FitResult.opts``); :func:`bootstrap_fit` is the engine's case
of one slot.  Every slot follows the engine's step rule: the full Newton
step where self-concordance guarantees it to descend or an Armijo test
confirms it does, the damped step otherwise.

Work per fit: the data are checked and the per-sample stacks built once,
in the :class:`~scmest.losses.Batch` of the fit, which also keeps the
table of outer products its Hessians sum; an engine iteration computes
the weighted risk, S and H of the live slots in one pass, and again only
for the slots whose full step the test refused.  A chunk's multiplier
block, the largest array of a bootstrap, is drawn once and read in place
by the engine, which never copies it.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConverged, check_failures, check_nonnegative_int
from .estimate import FitResult, SolverOptions, _fit_result, _newton_engine
from .losses import LossModel, check_weights, prepare_batch
from .simdata import Dataset, _philox_keys, _streams

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
        check_nonnegative_int("seed", self.seed)
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


def _multipliers(seed: int, start: int, stop: int, n: int) -> np.ndarray:
    """The (stop - start, n) N(1, 1) multipliers of replications [start, stop).

    Row b - start is ``1 + Generator(Philox(SeedSequence([seed, b])))
    .standard_normal(n)`` bit for bit: the keys of all rows come from
    :func:`~scmest.simdata._philox_keys`, and one Philox is reset per row
    to the fresh state of its key (:func:`~scmest.simdata._streams`).
    """
    block = np.empty((stop - start, n))
    for row, gen in zip(block, _streams(_philox_keys([seed], start, stop))):
        gen.standard_normal(out=row)
    block += 1.0
    return block


def bootstrap_weights(seed: int, b: int, n: int) -> np.ndarray:
    """The N(1, 1) multiplier vector of replication b; a pure function of (seed, b).

    It is ``1 + Generator(Philox(SeedSequence([seed, b]))).standard_normal(n)``,
    the row b of every block the bootstrap draws.  A negative or non-integer
    seed or b raises DomainError.
    """
    check_nonnegative_int("seed", seed)
    check_nonnegative_int("b", b)
    return _multipliers(seed, b, b + 1, n)[0]


def bootstrap_fit(
    model: LossModel,
    data: Dataset,
    weights: np.ndarray,
    opts: SolverOptions | None = None,
) -> FitResult:
    """Minimize the weighted empirical risk n^-1 sum_i W_i l(theta; z_i).

    Runs the same Newton engine and step rule as the unweighted fit; with unit
    weights the result is bit-for-bit identical to fit_erm.  Nonconvexity
    induced by negative weights surfaces as SingularHessian; non-finite
    weights raise DomainError.
    """
    batch = prepare_batch(model, data)
    opts, w = opts or SolverOptions(), check_weights(weights, batch.n)
    return _fit_result(batch, data, opts, w, _newton_engine(batch, w[None], opts), 0)


def _bootstrap_statistics(fit: FitResult, B: int, seed: int):
    """All B bootstrap Wald and LR statistics of a fit plus the failure count.

    The refits run on the fit's batch, under its solver options, and
    replication b minimizes the risk the fit minimized reweighted by
    W_b: its weights are ``fit.weights * W_b``, and its LR compares the
    two risks of those weights.  Unit fit weights multiply exactly, so an
    unweighted fit gets the plain W_b statistics bit for bit.
    """
    if not fit.converged:
        raise NonConverged("bootstrap calibration requires a converged base fit")
    batch = fit.batch
    n = batch.n
    vals_base = batch.values(fit.theta_n)

    wald = np.full(B, np.nan)
    lr = np.full(B, np.nan)
    causes: Counter[str] = Counter()
    chunk = min(B, batch.max_slots())
    for start in range(0, B, chunk):
        stop = min(start + chunk, B)
        W = _multipliers(seed, start, stop, n)
        W *= fit.weights
        fits = _newton_engine(batch, W, fit.opts)
        ok = fits.status == "converged"
        diff = fits.theta - fit.theta_n
        sel = np.flatnonzero(ok) + start
        wald[sel] = np.einsum("bj,bjk,bk->b", diff, fits.H, diff)[ok]
        risk_base = batch._mean(W, np.broadcast_to(vals_base, W.shape))
        lr[sel] = np.maximum(2.0 * (risk_base - fits.L), 0.0)[ok]
        causes.update(fits.status[~ok].tolist())
    check_failures(causes, B, "bootstrap replications")
    good = ~np.isnan(wald)
    return wald[good], lr[good], int(B - np.count_nonzero(good))


def _same_problem(fit: FitResult, model: LossModel, data: Dataset) -> bool:
    """Whether (model, data) is the problem ``fit`` minimized."""
    return model == fit.batch.model and (data is fit.data or (
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
