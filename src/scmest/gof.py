"""Goodness-of-fit tests for a simple null H0: theta = theta0.

Three classical statistics, all scaling like d/n under a well-specified
null:

- rao:  ||S_n(theta0)||^2 in the H_n(theta0)^{-1} metric (no fit needed)
- lr:   2 [L_n(theta0) - L_n(theta_n)]
- wald: ||theta_n - theta0||^2 in the H_n(theta_n) metric

Critical values come from one of three rules.  ``oracle_mc`` (the default
posture) replays the experiment under the process that drew the data
(``Dataset.provenance``) moved to the null and takes the
(1 - alpha)-quantile of the statistic; ``scaled_dim`` uses c d/n
with the default c matching the chi-square limit of n T; ``explicit`` takes
a user value.  :func:`power_curve` sweeps sample sizes and alternatives,
recalibrating the critical value at each n, and reports empirical power
with binomial standard errors.

:func:`null_statistics` is the one oracle calibration, here and in
:mod:`scmest.inference` and the coverage experiment.  Replication r of any
phase uses seed base + r, with per-phase bases from
:func:`scmest.simdata.phase_seed`, so phases never share streams.  The
replications run through :func:`scmest.estimate.replicate`, which fits a
chunk of datasets per engine call, and only when an LR or Wald statistic
needs the fit: the Rao statistic fits nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.stats import chi2

from .errors import DomainError, MissingSampler, NonConverged
from .estimate import FitResult, SolverOptions, _decrement, fit_erm, replicate
from .losses import LossModel, check_theta, check_weights, prepare_batch
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
    batch = prepare_batch(model, data.X, data.y)
    S, H = batch.score_hessian(check_theta(model, theta0), check_weights(None, batch.n))
    return _decrement(S, H) ** 2


def lr_statistic(fit: FitResult, theta0) -> float:
    """Likelihood-ratio statistic 2 [L_n(theta0) - L_n(theta_n)] of the fit's risk, nonnegative.

    L_n is the risk the fit minimized: its model on its data, under its
    weights (the multipliers of a bootstrap fit).
    """
    if not fit.converged:
        raise NonConverged("lr_statistic requires a converged fit")
    batch = prepare_batch(fit.model, fit.data.X, fit.data.y)
    risk0 = batch.risk(check_theta(fit.model, theta0), fit.weights)
    value = 2.0 * (risk0 - fit.aggregates_at_opt.L_n)
    if value < -1e-10:
        raise DomainError(
            f"LR statistic {value} is negative beyond tolerance; fit is not a minimizer"
        )
    return max(value, 0.0)


def wald_statistic(fit: FitResult, theta0) -> float:
    """Wald statistic ||theta_n - theta0||^2 in the H_n(theta_n) metric."""
    if not fit.converged:
        raise NonConverged("wald_statistic requires a converged fit")
    diff = fit.theta_n - np.asarray(theta0, dtype=float)
    return float(diff @ fit.aggregates_at_opt.H_n @ diff)


def _needs_fit(kinds: tuple[str, ...]) -> bool:
    return "lr" in kinds or "wald" in kinds


def _statistics(
    kinds: tuple[str, ...],
    model: LossModel,
    data: Dataset,
    fit: FitResult | None,
    theta0,
) -> dict[str, float]:
    """Evaluate the requested statistics from one fit (None when only Rao is asked)."""
    out = {}
    for kind in kinds:
        if kind == "rao":
            out[kind] = rao_statistic(model, data, theta0)
        elif kind == "lr":
            out[kind] = lr_statistic(fit, theta0)
        else:
            out[kind] = wald_statistic(fit, theta0)
    return out


def null_statistics(
    kinds: tuple[str, ...],
    process: Process,
    n: int,
    reps: int,
    seed_base: int,
    opts: SolverOptions | None = None,
) -> dict[str, np.ndarray]:
    """Per-kind statistics at process.theta0 over replications of the null process.

    Replication r fits the dataset of seed ``seed_base + r`` once for all
    kinds, or not at all for Rao alone.  Failed replications are dropped
    under the rule of :func:`scmest.estimate.replicate`.
    """

    def statistics(model, data, fit):
        return _statistics(kinds, model, data, fit, process.theta0)

    rows = replicate(process, n, seed_base, reps, statistics, opts, _needs_fit(kinds))
    return {kind: np.array([row[kind] for row in rows]) for kind in kinds}


def run_test(
    kind: str,
    model: LossModel,
    data: Dataset,
    theta0,
    alpha: float,
    critical_rule: str = "oracle_mc",
    *,
    c_scale: float | None = None,
    critical: float | None = None,
    calib_reps: int = 1000,
    seed: int = 0,
    opts: SolverOptions | None = None,
) -> TestReport:
    """Run one goodness-of-fit test of H0: theta = theta0 at level alpha.

    critical_rule selects the critical value: ``scaled_dim`` uses
    c_scale d/n (default c_scale is the chi-square quantile over d, which
    makes the level asymptotically exact under a well-specified null);
    ``explicit`` uses the given ``critical``; ``oracle_mc`` takes the
    (1 - alpha)-quantile of the statistic over ``calib_reps`` replications
    of the process that drew ``data`` (``data.provenance.process``) moved
    to theta0, at this sample size; data without provenance (read from CSV
    or built by hand) raise MissingSampler.
    """
    if kind not in TEST_KINDS:
        raise DomainError(f"kind must be one of {TEST_KINDS}, got {kind!r}")
    if critical_rule not in _CRITICAL_RULES:
        raise DomainError(f"unknown critical rule {critical_rule!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    theta0 = np.asarray(theta0, dtype=float)
    d = theta0.size
    if critical_rule == "scaled_dim":
        c = c_scale if c_scale is not None else float(chi2.ppf(1.0 - alpha, d)) / d
        crit = c * d / data.n
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
        for k in kinds:
            if k not in TEST_KINDS:
                raise DomainError(f"unknown test kind {k!r}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.reps < 1 or self.calib_reps < 1:
            raise DomainError("reps and calib_reps must be positive")
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

    def statistics(model, data, fit):
        return _statistics(kinds, model, data, fit, theta0)

    rows = []
    for n_idx, n in enumerate(config.n_grid):
        cal_base = phase_seed(config.seed, 2 * n_idx)
        null = null_statistics(kinds, config.process, n, config.calib_reps, cal_base)
        crit = {kind: float(np.quantile(v, 1.0 - config.alpha)) for kind, v in null.items()}
        eval_base = phase_seed(config.seed, 2 * n_idx + 1)
        for theta_star in config.alternatives:
            theta_star = np.asarray(theta_star, dtype=float)
            proc_alt = replace(config.process, theta0=theta_star)
            values = replicate(
                proc_alt, n, eval_base, config.reps, statistics, fit=_needs_fit(kinds)
            )
            dist = float(np.linalg.norm(theta_star - theta0))
            for kind in kinds:
                p = sum(v[kind] > crit[kind] for v in values) / len(values)
                rows.append(
                    PowerRow(
                        kind=kind,
                        n=int(n),
                        dist=dist,
                        power=p,
                        stderr=float(np.sqrt(p * (1.0 - p) / len(values))),
                    )
                )
    return PowerTable(rows=tuple(rows))
