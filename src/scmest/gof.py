"""Goodness-of-fit tests for a simple null H0: theta = theta0.

Three classical statistics, all scaling like d/n under a well-specified
null:

- rao:  ||S_n(theta0)||^2 in the H_n(theta0)^{-1} metric (no fit needed)
- lr:   2 [L_n(theta0) - L_n(theta_n)]
- wald: ||theta_n - theta0||^2 in the H_n(theta_n) metric

Critical values come from one of three rules.  ``oracle_mc`` (the default
posture) replays the experiment under the process that drew the data
(``Dataset.provenance``) moved to the null and takes the
(1 - alpha)-quantile of the statistic; ``scaled_dim`` uses
chi2_{d,1-alpha}/n, the chi-square limit of n T; ``explicit`` takes
a user value.  :func:`power_curve` sweeps sample sizes and alternatives,
recalibrating the critical value at each n, and reports empirical power
with binomial standard errors.

:func:`null_statistics` is the one oracle calibration, here and in
:mod:`scmest.inference` and the coverage experiment.  It and the power
replications under each alternative share one statistics loop, which
evaluates the statistics at a null theta0 over replications of a process.
Replication r of any phase uses seed base + r, with per-phase bases from
:func:`scmest.simdata.phase_seed`, so phases never share streams.  The
replications run through the replicate-and-fit loop of
:mod:`scmest.estimate`, a chunk of datasets as the slots of one stacked
batch, fitted in one engine call only when an LR or Wald statistic needs
the fit: the Rao statistic fits nothing.  The statistics are evaluated
per chunk: Rao and LR read one evaluation of L_n, S_n and H_n of every
slot at theta0, Rao one batched solve, and LR and Wald the engine's
theta_n, H_n and L_n, with no FitResult per replication.  The statistics
of one dataset are the case of one slot, so a replication gets the same
values, bit for bit, as its own fit would.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import gammaincinv

from .errors import DomainError, MissingSampler, NonConverged, NumericOverflow
from .errors import SingularHessian, check_failures, check_integer
from .estimate import FitResult, SolverOptions, _pd_solve, _replications, fit_erm
from .losses import Batch, LossModel, check_theta, check_weights, prepare_batch
from .simdata import Dataset, Process, phase_seed

__all__ = [
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
]

TEST_KINDS = ("rao", "lr", "wald")
_CRITICAL_RULES = ("scaled_dim", "explicit", "oracle_mc")


@dataclass(frozen=True)
class TestReport:
    """One test decision: reject iff statistic > critical."""

    statistic: float
    kind: str
    critical: float
    n: int
    d: int

    def __post_init__(self) -> None:
        if self.kind not in TEST_KINDS:
            raise DomainError(f"kind must be one of {TEST_KINDS}, got {self.kind!r}")

    @property
    def reject(self) -> bool:
        return self.statistic > self.critical


def rao_statistic(model: LossModel, data: Dataset, theta0) -> float:
    """Score statistic S_n' H_n^{-1} S_n at theta0, the squared Newton decrement."""
    return _statistics(("rao",), model, data, None, theta0)["rao"]


def lr_statistic(fit: FitResult, theta0) -> float:
    """Likelihood-ratio statistic 2 [L_n(theta0) - L_n(theta_n)] of the fit's risk, nonnegative.

    L_n is the risk the fit minimized: its model on its data, under its
    weights (the multipliers of a bootstrap fit).
    """
    return _statistics(("lr",), fit.batch.model, fit.data, fit, theta0)["lr"]


def wald_statistic(fit: FitResult, theta0) -> float:
    """Wald statistic ||theta_n - theta0||^2 in the H_n(theta_n) metric."""
    return _statistics(("wald",), fit.batch.model, fit.data, fit, theta0)["wald"]


def _needs_fit(kinds: tuple[str, ...]) -> bool:
    return "lr" in kinds or "wald" in kinds


def _slot_statistics(kinds: tuple[str, ...], batch: Batch, W: np.ndarray, theta0, at_opt):
    """The statistics of m slots at one null theta0, and the cause that drops a slot.

    Slot b is the W[b]-weighted risk on ``batch``'s slot b (its own dataset
    when the batch is stacked).  ``at_opt`` holds every slot's minimizer
    theta_n (m, d) with H_n (m, d, d) and L_n (m,) there, or is None when
    only Rao is asked.  Rao and LR read one :meth:`Batch.slot_evaluate` at
    theta0 for all slots, and Rao one batched solve under the PD test.
    Returns the (m,) values of each kind and an (m,) array of causes: ""
    for a kept slot, else the first failure in ``kinds`` order,
    ``overflow`` where exp(theta0'x) overflows and ``singular`` where
    H_n(theta0) fails the PD test for Rao; a dropped slot's values mean
    nothing.  A kept slot whose LR is negative beyond 1e-10 raises
    DomainError.  A slot's values do not depend on the other slots, so m
    slots give the values of m single-slot calls bit for bit.
    """
    m = W.shape[0]
    failed = np.full(m, "", dtype="<U8")
    if at_opt is not None:
        theta_n, H_n, L_n = at_opt
    if "rao" in kinds or "lr" in kinds:
        L0, S0, H0, overflow = batch.slot_evaluate(np.tile(theta0, (m, 1)), W)
        failed[overflow] = "overflow"
    out = {}
    for kind in kinds:
        if kind == "rao":
            X, ok = _pd_solve(H0, S0[..., None])
            failed[~ok & (failed == "")] = "singular"
            # S'H^{-1}S as the squared decrement sqrt(S'H^{-1}S), in Python
            # floats: their ** (libm pow) and numpy's square round apart
            quad = (S0[:, None, :] @ X)[:, 0, 0]
            out[kind] = np.array([math.sqrt(max(q, 0.0)) ** 2 for q in quad.tolist()])
        elif kind == "lr":
            value = 2.0 * (L0 - L_n)
            negative = np.flatnonzero((value < -1e-10) & (failed == ""))
            if negative.size:
                raise DomainError(
                    f"LR statistic {float(value[negative[0]])} is negative beyond tolerance; "
                    "fit is not a minimizer"
                )
            out[kind] = np.where(value < 0.0, 0.0, value)
        else:
            diff = theta_n - theta0
            out[kind] = ((diff[:, None, :] @ H_n) @ diff[:, :, None])[:, 0, 0]
    return out, failed


def _statistics(
    kinds: tuple[str, ...],
    model: LossModel,
    data: Dataset,
    fit: FitResult | None,
    theta0,
) -> dict[str, float]:
    """The statistics of one dataset: :func:`_slot_statistics` of one slot.

    The slot is the fit's risk, its batch under its weights, or the unit
    weighted risk on ``data`` without a fit (None when only Rao is asked).
    A fit that did not converge raises NonConverged for LR and Wald, and a
    dropped slot raises NumericOverflow or SingularHessian.
    """
    theta0 = check_theta(model, theta0)
    if fit is None:
        batch, w, at_opt = prepare_batch(model, data), check_weights(None, data.n), None
    else:
        if not fit.converged and _needs_fit(kinds):
            kind = next(k for k in kinds if k != "rao")
            raise NonConverged(f"{kind}_statistic requires a converged fit")
        agg = fit.aggregates_at_opt
        batch, w = fit.batch, fit.weights
        at_opt = (fit.theta_n[None], agg.H_n[None], np.array([agg.L_n]))
    values, failed = _slot_statistics(kinds, batch, w[None], theta0, at_opt)
    if failed[0] == "overflow":
        raise NumericOverflow("exp(theta'x) overflows double precision")
    if failed[0] == "singular":
        raise SingularHessian("Hessian is not numerically positive definite")
    return {kind: float(v[0]) for kind, v in values.items()}


def _statistics_at(
    kinds: tuple[str, ...],
    theta0: np.ndarray,
    process: Process,
    n: int,
    reps: int,
    seed_base: int,
    opts: SolverOptions | None = None,
) -> dict[str, np.ndarray]:
    """Per-kind statistics at theta0 over replications of a process.

    Replication r fits the dataset of seed ``seed_base + r`` once for all
    kinds, or not at all for Rao alone, and a chunk of replications is
    fitted and evaluated as the slots of one stacked batch
    (:func:`_slot_statistics`), with no FitResult per replication.  A
    replication is dropped, counted under its cause as
    :func:`scmest.estimate.replicate` counts, when its fit did not converge
    (its engine status) or its slot fails at theta0; more than reps/10
    dropped raises TooManyFailures.  The arrays of the kinds hold the same
    replications, in replication order, equal bit for bit to
    :func:`_statistics` of each replication's fit.
    """
    causes: Counter[str] = Counter()
    opts = opts or SolverOptions()

    def evaluated(_, stacked, W, fits):
        at_opt = None
        if fits is not None:
            keep = fits.status == "converged"
            causes.update(fits.status[~keep].tolist())
            if not keep.any():
                return {kind: np.empty(0) for kind in kinds}
            if not keep.all():
                stacked, W = stacked.take(keep), W[keep]
            at_opt = (fits.theta[keep], fits.H[keep], fits.L[keep])
        theta = check_theta(stacked.model, theta0)
        stats, failed = _slot_statistics(kinds, stacked, W, theta, at_opt)
        causes.update(failed[failed != ""].tolist())
        return {kind: stats[kind][failed == ""] for kind in kinds}

    chunks = _replications(process, n, seed_base, reps, opts, evaluated, _needs_fit(kinds))
    check_failures(causes, reps, "replications")
    return {kind: np.concatenate([chunk[kind] for chunk in chunks]) for kind in kinds}


def null_statistics(
    kinds: tuple[str, ...],
    process: Process,
    n: int,
    reps: int,
    seed_base: int,
    opts: SolverOptions | None = None,
) -> dict[str, np.ndarray]:
    """Per-kind statistics at process.theta0 over replications of the null process."""
    return _statistics_at(kinds, process.theta0, process, n, reps, seed_base, opts)


def run_test(
    kind: str,
    model: LossModel,
    data: Dataset,
    theta0,
    alpha: float,
    critical_rule: str = "oracle_mc",
    *,
    critical: float | None = None,
    calib_reps: int = 1000,
    seed: int = 0,
    opts: SolverOptions | None = None,
) -> TestReport:
    """Run one goodness-of-fit test of H0: theta = theta0 at level alpha.

    critical_rule selects the critical value: ``scaled_dim`` uses
    chi2_{d,1-alpha}/n (asymptotically exact under a well-specified null);
    ``explicit`` uses the given ``critical``; ``oracle_mc`` takes the
    (1 - alpha)-quantile of the statistic over ``calib_reps`` replications
    of the process that drew ``data`` (``data.provenance.process``) moved
    to theta0, at this sample size; data without provenance (read from CSV
    or built by hand) raise MissingSampler.  A theta0 that is not a finite
    vector of the model's dimension and a NaN or infinite ``critical``
    raise before anything runs.
    """
    theta0 = check_theta(model, theta0)
    d = model.dim
    if kind not in TEST_KINDS:
        raise DomainError(f"kind must be one of {TEST_KINDS}, got {kind!r}")
    if critical_rule not in _CRITICAL_RULES:
        raise DomainError(f"unknown critical rule {critical_rule!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if critical is not None and not np.isfinite(critical):
        raise DomainError(f"critical must be finite, got {critical}")
    if critical_rule == "scaled_dim":
        # chi2_{d,1-alpha} by the formula of SciPy's chi2.ppf, bit for bit
        crit = float(2.0 * gammaincinv(d / 2, 1.0 - alpha)) / data.n
    elif critical_rule == "explicit":
        if critical is None:
            raise DomainError("explicit critical rule needs a critical value")
        crit = float(critical)
    else:
        if data.provenance is None:
            raise MissingSampler("oracle_mc critical rule needs data drawn from a known process")
        null_process = replace(data.provenance.process, theta0=theta0)
        null = null_statistics((kind,), null_process, data.n, calib_reps, phase_seed(seed, 0), opts)
        crit = float(np.quantile(null[kind], 1.0 - alpha))
    fit = fit_erm(model, data, opts) if _needs_fit((kind,)) else None
    stat = _statistics((kind,), model, data, fit, theta0)[kind]
    return TestReport(statistic=stat, kind=kind, critical=crit, n=data.n, d=d)


@dataclass(frozen=True)
class PowerCurveConfig:
    """Sweep configuration for empirical power curves.

    ``process`` fixes the family and design; its theta0 is the null.  Each
    alternative theta replaces the process parameter when generating data,
    while the test always targets the null.  ``kinds`` may name one or
    several statistics; replications share datasets and fits across kinds.
    A ``reps``, ``calib_reps`` or ``n_grid`` entry that is not an integer,
    or is below 1, raises DomainError when the config is built.
    """

    process: Process
    alternatives: Sequence[np.ndarray]
    n_grid: Sequence[int]
    kinds: Sequence[str] = TEST_KINDS
    alpha: float = 0.05
    reps: int = 500
    calib_reps: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        kinds = (self.kinds,) if isinstance(self.kinds, str) else tuple(self.kinds)
        object.__setattr__(self, "kinds", kinds)
        if not kinds:
            raise DomainError("kinds must be nonempty")
        for k in kinds:
            if k not in TEST_KINDS:
                raise DomainError(f"unknown test kind {k!r}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        check_integer("reps", self.reps)
        check_integer("calib_reps", self.calib_reps)
        if self.reps < 1 or self.calib_reps < 1:
            raise DomainError("reps and calib_reps must be positive")
        if len(self.alternatives) == 0 or len(self.n_grid) == 0:
            raise DomainError("alternatives and n_grid must be nonempty")
        for n in self.n_grid:
            check_integer("n_grid entry", n)
        if any(n < 1 for n in self.n_grid):
            raise DomainError(f"n_grid entries must be positive, got {tuple(self.n_grid)}")


@dataclass(frozen=True)
class PowerRow:
    kind: str
    n: int
    dist: float
    power: float
    stderr: float


@dataclass(frozen=True)
class PowerTable:
    rows: tuple[PowerRow, ...]

    def lookup(self, kind: str, n: int, dist: float) -> PowerRow:
        for row in self.rows:
            if row.kind == kind and row.n == n and abs(row.dist - dist) < 1e-12:
                return row
        raise KeyError((kind, n, dist))


def power_curve(config: PowerCurveConfig) -> PowerTable:
    """Empirical rejection rates over an (n, alternative) grid.

    For each n the critical values are recalibrated by oracle Monte Carlo
    under the null process (calibration and evaluation use disjoint seed
    phases).  Rows report power over the replications that succeeded, with
    the binomial standard error sqrt(p(1-p)/k) of those k replications.
    """
    kinds = tuple(config.kinds)
    theta0 = config.process.theta0
    rows = []
    for n_idx, n in enumerate(config.n_grid):
        cal_base = phase_seed(config.seed, 2 * n_idx)
        null = null_statistics(kinds, config.process, n, config.calib_reps, cal_base)
        crit = {kind: float(np.quantile(v, 1.0 - config.alpha)) for kind, v in null.items()}
        eval_base = phase_seed(config.seed, 2 * n_idx + 1)
        for theta_star in config.alternatives:
            theta_star = np.asarray(theta_star, dtype=float)
            proc_alt = replace(config.process, theta0=theta_star)
            stats = _statistics_at(kinds, theta0, proc_alt, n, config.reps, eval_base)
            dist = float(np.linalg.norm(theta_star - theta0))
            for kind, values in stats.items():
                p = int(np.count_nonzero(values > crit[kind])) / values.size
                rows.append(
                    PowerRow(
                        kind=kind,
                        n=int(n),
                        dist=dist,
                        power=p,
                        stderr=float(np.sqrt(p * (1.0 - p) / values.size)),
                    )
                )
    return PowerTable(rows=tuple(rows))
