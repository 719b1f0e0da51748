"""Multiplier-bootstrap calibration of Wald and LR confidence sets.

Each bootstrap replication b reweights the empirical risk with i.i.d.
Gaussian multipliers W_i ~ N(1, 1), refits, and evaluates

    T_wald^b = ||theta^b - theta_n||^2 in the H_n^b(theta^b) metric,
    T_lr^b   = 2 [L_n^b(theta_n) - L_n^b(theta^b)],

where H_n^b and L_n^b are the weighted Hessian and risk.  The upper-delta
quantile of the successful replications calibrates the confidence set.
Negative multipliers can make a replication's objective nonconvex; such
replications surface as factorization failures or non-convergence, are
excluded from the quantile, and are reported (erroring when they exceed a
tenth of B).

Replication b draws its weights from a Philox stream seeded by
SeedSequence([seed, b]), so each replication's weight vector is a pure
function of (seed, b), independent of batching and scheduling; repeated
runs of one configuration are bit-identical.  The B refits run through the
one damped-Newton engine of :mod:`scmest.estimate`, a slot per
replication, in chunks that bound memory; :func:`bootstrap_fit` is the
engine's case of one slot.

Work per bootstrap call: the data are checked and the per-sample stacks
built once, in one :class:`~scmest.losses.Batch`, which also keeps the
table of outer products its Hessians sum; an engine iteration computes
only S and H of the live slots, and the weighted risk is evaluated once
per slot, where it converges.

:func:`coverage_experiment` wraps the whole calibration protocol: replicate
data draws, compare each statistic against its calibrated quantile, and
tabulate coverage per method and confidence level.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NonConverged,
    NumericOverflow,
    SingularHessian,
    TooManyFailures,
)
from .estimate import FitResult, SolverOptions, _newton_engine, _newton_fit
from .gof import lr_statistic, phase_seed, wald_statistic
from .losses import LossModel, check_weights, model_for_data, prepare_batch
from .simdata import Dataset, Process, generate, loss_kind_for

__all__ = [
    "BootstrapConfig",
    "BootstrapQuantile",
    "CoverageConfig",
    "CoverageRow",
    "CoverageTable",
    "bootstrap_weights",
    "bootstrap_fit",
    "bootstrap_quantile",
    "coverage_experiment",
    "write_coverage_csv",
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
    return _newton_fit(batch, opts or SolverOptions(), weights)


def _bootstrap_statistics(
    model: LossModel,
    data: Dataset,
    fit: FitResult,
    B: int,
    seed: int,
    opts: SolverOptions | None = None,
):
    """All B bootstrap Wald and LR statistics plus the failure count.

    The checked data, the per-sample stacks and the outer-product table of
    the Hessians are built once here and shared by every replication.
    """
    if not fit.converged:
        raise NonConverged("bootstrap calibration requires a converged base fit")
    opts = opts or SolverOptions()
    n = data.n
    batch = prepare_batch(model, data.X, data.y)
    vals_base = batch.values(fit.theta_n)

    wald = np.full(B, np.nan)
    lr = np.full(B, np.nan)
    chunk = min(B, batch.max_slots())
    for start in range(0, B, chunk):
        stop = min(start + chunk, B)
        W = np.stack([bootstrap_weights(seed, b, n) for b in range(start, stop)])
        fits = _newton_engine(batch, W, opts)
        ok = fits.status == "converged"
        diff = fits.theta - fit.theta_n
        sel = np.flatnonzero(ok) + start
        wald[sel] = np.einsum("bj,bjk,bk->b", diff, fits.H, diff)[ok]
        lr[sel] = np.maximum(2.0 * (W @ vals_base / n - fits.L), 0.0)[ok]
    good = ~np.isnan(wald)
    n_failed = int(B - np.count_nonzero(good))
    if n_failed > B / 10:
        raise TooManyFailures(
            f"{n_failed} of {B} bootstrap replications failed to produce a fit"
        )
    return wald[good], lr[good], n_failed


def bootstrap_quantile(
    model: LossModel,
    data: Dataset,
    fit: FitResult,
    config: BootstrapConfig,
    kind: str,
) -> BootstrapQuantile:
    """Upper-delta quantile of the bootstrap statistic of the given kind.

    Failed replications (nonconvex reweighting, non-convergence) are
    excluded from the quantile and counted; more than B/10 of them raises
    TooManyFailures.
    """
    if kind not in ("wald", "lr"):
        raise DomainError(f"kind must be 'wald' or 'lr', got {kind!r}")
    wald, lr, n_failed = _bootstrap_statistics(
        model, data, fit, config.B, config.seed
    )
    stats = wald if kind == "wald" else lr
    return BootstrapQuantile(
        quantile=float(np.quantile(stats, 1.0 - config.delta)), n_failed=n_failed
    )


# ---------------------------------------------------------------------------
# coverage experiment
# ---------------------------------------------------------------------------

_METHODS = ("oracle", "bootwald", "bootlr")


@dataclass(frozen=True)
class CoverageConfig:
    """Replication study of confidence-set coverage under a known process.

    ``deltas`` are confidence levels (coverage targets, e.g. 0.95); the
    oracle method calibrates the Wald radius from its own replication set,
    the bootstrap methods recalibrate per dataset.  Evaluation, oracle
    calibration, and bootstrap weights use three disjoint seed phases.
    """

    process: Process
    n: int
    deltas: tuple[float, ...] = (0.95, 0.9, 0.85, 0.8, 0.75)
    reps: int = 1000
    B: int = 2000
    seed: int = 0
    methods: tuple[str, ...] = _METHODS
    opts: SolverOptions | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltas", tuple(float(v) for v in self.deltas))
        object.__setattr__(self, "methods", tuple(self.methods))
        for m in self.methods:
            if m not in _METHODS:
                raise DomainError(f"unknown method {m!r}")
        for v in self.deltas:
            if not 0.0 < v < 1.0:
                raise DomainError(f"confidence level must lie in (0, 1), got {v}")
        if self.n < 1 or self.reps < 1:
            raise DomainError("n and reps must be positive")


@dataclass(frozen=True)
class CoverageRow:
    model: str
    method: str
    delta: float
    coverage: float
    stderr: float
    reps: int
    failures: int


@dataclass(frozen=True)
class CoverageTable:
    rows: tuple[CoverageRow, ...]

    def lookup(self, method: str, delta: float, model: str | None = None) -> CoverageRow:
        for row in self.rows:
            if model is not None and row.model != model:
                continue
            if row.method == method and abs(row.delta - delta) < 1e-12:
                return row
        raise KeyError((model, method, delta))


def coverage_experiment(config: CoverageConfig) -> CoverageTable:
    """Empirical coverage of oracle- and bootstrap-calibrated sets.

    Per replication: draw a dataset, fit, and check whether theta0 falls
    inside each method's set at each confidence level.  A replication whose
    base fit fails counts as a failure for every method; one whose
    bootstrap exceeds the failure budget counts as a failure for the
    bootstrap methods only.
    """
    proc = config.process
    theta0 = proc.theta0
    lk = loss_kind_for(proc)
    eval_base = phase_seed(config.seed, 0)
    cal_base = phase_seed(config.seed, 1)
    boot_base = phase_seed(config.seed, 2)

    oracle_radius: dict[float, float] = {}
    if "oracle" in config.methods:
        cal_stats = []
        for r in range(config.reps):
            dat = generate(proc, config.n, cal_base + r)
            mod = model_for_data(lk, dat.X)
            try:
                cfit = _fit_strict(mod, dat, config.opts)
            except (SingularHessian, NonConverged, NumericOverflow):
                continue
            cal_stats.append(wald_statistic(cfit, theta0))
        if not cal_stats:
            raise TooManyFailures("every oracle calibration replication failed")
        cal_stats = np.asarray(cal_stats)
        for level in config.deltas:
            oracle_radius[level] = float(np.quantile(cal_stats, level))

    want_boot = "bootwald" in config.methods or "bootlr" in config.methods
    covered = {(m, v): 0 for m in config.methods for v in config.deltas}
    valid = {m: 0 for m in config.methods}
    for r in range(config.reps):
        data = generate(proc, config.n, eval_base + r)
        model = model_for_data(lk, data.X)
        try:
            fit = _fit_strict(model, data, config.opts)
        except (SingularHessian, NonConverged, NumericOverflow):
            continue
        base_wald = wald_statistic(fit, theta0)
        if "oracle" in config.methods:
            valid["oracle"] += 1
            for level in config.deltas:
                if base_wald <= oracle_radius[level]:
                    covered[("oracle", level)] += 1
        if want_boot:
            base_lr = lr_statistic(model, data, fit, theta0)
            try:
                wald_stats, lr_stats, _ = _bootstrap_statistics(
                    model, data, fit, config.B, boot_base + r, config.opts
                )
            except (TooManyFailures, SingularHessian, NumericOverflow):
                continue
            for level in config.deltas:
                if "bootwald" in config.methods:
                    if base_wald <= float(np.quantile(wald_stats, level)):
                        covered[("bootwald", level)] += 1
                if "bootlr" in config.methods:
                    if base_lr <= float(np.quantile(lr_stats, level)):
                        covered[("bootlr", level)] += 1
            for m in ("bootwald", "bootlr"):
                if m in config.methods:
                    valid[m] += 1
    rows = []
    for m in config.methods:
        for level in config.deltas:
            k = valid[m]
            cov = covered[(m, level)] / k if k else math.nan
            stderr = math.sqrt(cov * (1.0 - cov) / k) if k else math.nan
            rows.append(
                CoverageRow(
                    model=proc.kind,
                    method=m,
                    delta=level,
                    coverage=cov,
                    stderr=stderr,
                    reps=k,
                    failures=config.reps - k,
                )
            )
    return CoverageTable(rows=tuple(rows))


def _fit_strict(model, data, opts):
    from .estimate import fit_erm

    fit = fit_erm(model, data, opts)
    if not fit.converged:
        raise NonConverged("replication fit did not converge")
    return fit


def write_coverage_csv(table: CoverageTable, path, metadata=None) -> None:
    """Write a coverage table as CSV with a schema-version comment line.

    ``metadata`` key/value pairs (run configuration: n, d, reps, ...) are
    recorded as additional ``# key=value`` comment lines.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# schema_version=1\n")
        for key in sorted(metadata or {}):
            fh.write(f"# {key}={metadata[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(["model", "method", "delta", "coverage", "stderr", "reps", "failures"])
        for row in table.rows:
            writer.writerow(
                [
                    row.model,
                    row.method,
                    repr(row.delta),
                    f"{row.coverage:.17g}",
                    f"{row.stderr:.17g}",
                    row.reps,
                    row.failures,
                ]
            )
