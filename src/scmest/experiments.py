"""Simulation studies emitting plot-ready tables.

:func:`coverage_experiment` runs the calibration protocol for one process:
replicate data draws, compare each statistic against its calibrated
quantile, and tabulate coverage per method and confidence level.  Four
prepackaged studies build on it and on the package's estimators, each a
config dataclass and a ``run_<name>`` function, deterministic in the
config seed.  ``scmest experiment <name>`` runs them from the command line:

- coverage_table: coverage of oracle- and bootstrap-calibrated confidence
  sets for well-specified least squares, misspecified least squares
  (Student-t noise), and logistic regression at n = 100, d = 5, across
  confidence levels 0.95 down to 0.75.
- effdim_error: mean |d_n/d* - 1| of the empirical effective dimension over
  an (n, d) grid for well-specified least squares and logistic regression,
  where d* = d.
- confset_shape: boundary points of bootstrap-calibrated Wald ellipses for
  a 2-d logistic model under three design covariances, showing how the
  set's shape tracks the local curvature.
- power_curves: empirical power of the Rao, LR and Wald tests along an n
  grid, at alternatives a given distance from the null.

Rows count the replications that :func:`scmest.estimate.replicate` kept,
and :func:`scmest.simdata.write_table` writes any study's rows as CSV.
A process that fails entirely still yields rows (NaN coverage, all
replications counted as failures) so partial runs remain inspectable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import _bootstrap_statistics
from .errors import DomainError, NumericOverflow, ScmestError, SingularHessian, TooManyFailures
from .estimate import fit_erm, replicate
from .gof import PowerCurveConfig, PowerRow, lr_statistic, null_statistics, power_curve
from .gof import wald_statistic
from .inference import calibrated_radius, effective_dim_empirical
from .losses import model_for_data
from .simdata import Process, generate, phase_seed, theta0_equispaced

__all__ = [
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
]

_METHODS = ("oracle", "bootwald", "bootlr")
_BOOT_METHODS = {"bootwald", "bootlr"}


@dataclass(frozen=True)
class CoverageConfig:
    """Replication study of confidence-set coverage under a known process.

    ``deltas`` are confidence levels (coverage targets, e.g. 0.95); the
    oracle method calibrates the Wald radius from its own replication set,
    the bootstrap methods recalibrate per dataset.  Evaluation, oracle
    calibration, and bootstrap weights use three disjoint seed phases.
    ``B`` must be positive when a bootstrap method is requested.
    """

    process: Process
    n: int
    deltas: tuple[float, ...] = (0.95, 0.9, 0.85, 0.8, 0.75)
    reps: int = 1000
    B: int = 2000
    seed: int = 0
    methods: tuple[str, ...] = _METHODS

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
        if self.B < 1 and _BOOT_METHODS & set(self.methods):
            raise DomainError(f"B must be positive for the bootstrap methods, got {self.B}")


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
    base fit fails is dropped by :func:`scmest.estimate.replicate` and counts
    as a failure for every method; one whose bootstrap exceeds the failure
    budget counts as a failure for the bootstrap methods only.
    """
    proc = config.process
    theta0 = proc.theta0
    eval_base = phase_seed(config.seed, 0)
    cal_base = phase_seed(config.seed, 1)
    boot_base = phase_seed(config.seed, 2)

    if "oracle" in config.methods:
        cal = null_statistics(("wald",), proc, config.n, config.reps, cal_base)
        radius = {level: float(np.quantile(cal["wald"], level)) for level in config.deltas}
    want_boot = bool(_BOOT_METHODS & set(config.methods))

    def covers(model, data, fit):
        """Per method, whether each level's set holds theta0; None where the bootstrap failed."""
        base_wald = wald_statistic(fit, theta0)
        out = {}
        if "oracle" in config.methods:
            out["oracle"] = [base_wald <= radius[level] for level in config.deltas]
        if want_boot:
            base_lr = lr_statistic(fit, theta0)
            # the bootstrap seed of replication r is boot_base + r
            seed = boot_base + data.provenance.seed - eval_base
            try:
                boot = _bootstrap_statistics(fit, config.B, seed)
            except (TooManyFailures, SingularHessian, NumericOverflow):
                boot = None
            for m, base, i in (("bootwald", base_wald, 0), ("bootlr", base_lr, 1)):
                if m in config.methods:
                    out[m] = None if boot is None else [
                        base <= float(np.quantile(boot[i], level)) for level in config.deltas
                    ]
        return out

    results = replicate(proc, config.n, eval_base, config.reps, covers)
    rows = []
    for m in config.methods:
        hits = [res[m] for res in results if res[m] is not None]
        k = len(hits)
        for i, level in enumerate(config.deltas):
            cov = sum(h[i] for h in hits) / k if k else math.nan
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


_COVERAGE_PROCESSES = ("linear_wellspec", "linear_misspec_t", "logistic_wellspec")

# pinned (process, method, level, target coverage) cells of the coverage
# table, from the reference study at n = 100, d = 5, B = 2000; the targets
# carry that study's own Monte-Carlo noise
COVERAGE_TARGETS = (
    ("linear_wellspec", "oracle", 0.95, 0.957),
    ("logistic_wellspec", "bootwald", 0.95, 0.938),
    ("logistic_wellspec", "bootlr", 0.95, 0.976),
    ("linear_misspec_t", "bootwald", 0.75, 0.727),
)


@dataclass(frozen=True)
class CoverageTableExperiment:
    """Config of the coverage study: three processes at n = 100, d = 5."""

    processes: tuple[str, ...] = _COVERAGE_PROCESSES
    n: int = 100
    d: int = 5
    deltas: tuple[float, ...] = (0.95, 0.9, 0.85, 0.8, 0.75)
    reps: int = 1000
    B: int = 2000
    seed: int = 0
    methods: tuple[str, ...] = ("oracle", "bootwald", "bootlr")


def run_coverage_table(config: CoverageTableExperiment | None = None) -> CoverageTable:
    """Coverage of all methods across the configured processes.

    Each process runs under its own derived seed phase; a process that
    errors out contributes NaN rows with every replication marked failed.
    """
    config = config or CoverageTableExperiment()
    rows: list[CoverageRow] = []
    for p_idx, kind in enumerate(config.processes):
        proc = Process(kind=kind, theta0=theta0_equispaced(config.d))
        cov_cfg = CoverageConfig(
            process=proc,
            n=config.n,
            deltas=config.deltas,
            reps=config.reps,
            B=config.B,
            seed=phase_seed(config.seed, 100 + p_idx),
            methods=config.methods,
        )
        try:
            rows.extend(coverage_experiment(cov_cfg).rows)
        except ScmestError:
            for m in config.methods:
                for level in config.deltas:
                    rows.append(
                        CoverageRow(
                            model=kind,
                            method=m,
                            delta=level,
                            coverage=math.nan,
                            stderr=math.nan,
                            reps=0,
                            failures=config.reps,
                        )
                    )
    return CoverageTable(rows=tuple(rows))


_PROCESS_FOR_MODEL = {"squared": "linear_wellspec", "logistic": "logistic_wellspec"}


@dataclass(frozen=True)
class EffDimErrorExperiment:
    """Config of the effective-dimension error study on well-specified models.

    ``models`` are loss kinds with a well-specified process, and ``reps`` is
    at least 2, so that every row has a standard error.
    """

    models: tuple[str, ...] = ("squared", "logistic")
    d_grid: tuple[int, ...] = (5, 10, 15, 20)
    n_grid: tuple[int, ...] = (2000, 4000, 6000, 8000, 10000)
    reps: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        for model in self.models:
            if model not in _PROCESS_FOR_MODEL:
                allowed = sorted(_PROCESS_FOR_MODEL)
                raise DomainError(f"effdim_error has no model {model!r}; choose from {allowed}")
        if self.reps < 2:
            raise DomainError(f"effdim_error needs reps >= 2 for a stderr, got {self.reps}")


@dataclass(frozen=True)
class EffDimRow:
    model: str
    d: int
    n: int
    mean_abs_err: float
    stderr: float
    reps: int


def run_effdim_error(config: EffDimErrorExperiment | None = None) -> tuple[EffDimRow, ...]:
    """Mean |d_n/d - 1| over the (model, d, n) grid; d* = d by well-specification.

    ``reps`` of a row counts the replications that succeeded.
    """
    config = config or EffDimErrorExperiment()

    def relative_error(model, data, fit):
        return abs(effective_dim_empirical(fit).value / model.dim - 1.0)

    rows = []
    for m_idx, model_kind in enumerate(config.models):
        proc_kind = _PROCESS_FOR_MODEL[model_kind]
        for d_idx, d in enumerate(config.d_grid):
            proc = Process(kind=proc_kind, theta0=np.ones(d))
            for n_idx, n in enumerate(config.n_grid):
                base = phase_seed(config.seed, 1000 * m_idx + 10 * d_idx + n_idx)
                errs = np.array(replicate(proc, n, base, config.reps, relative_error))
                rows.append(
                    EffDimRow(
                        model=model_kind,
                        d=d,
                        n=n,
                        mean_abs_err=float(np.mean(errs)),
                        stderr=float(np.std(errs, ddof=1) / math.sqrt(errs.size)),
                        reps=int(errs.size),
                    )
                )
    return tuple(rows)


@dataclass(frozen=True)
class ConfsetShapeExperiment:
    """Config of the confidence-set shape study: 2-d logistic, three designs.

    The three covariances are diagonal, positively correlated, and
    negatively correlated.  Radii are bootstrap-calibrated Wald at tail
    mass delta.
    """

    sigmas: tuple = (
        ((2.0, 0.0), (0.0, 1.0)),
        ((2.0, 1.0), (1.0, 1.0)),
        ((2.0, -1.0), (-1.0, 1.0)),
    )
    theta0: tuple[float, float] = (-1.0, 2.0)
    n: int = 1000
    B: int = 2000
    delta: float = 0.05
    boundary_points: int = 128
    seed: int = 0


@dataclass(frozen=True)
class ShapeRow:
    sigma: str
    t: float
    x1: float
    x2: float


def run_confset_shape(config: ConfsetShapeExperiment | None = None) -> tuple[ShapeRow, ...]:
    """Boundary points of the Wald ellipse under each design covariance.

    The boundary is center + sqrt(sq_radius) H_n^{-1/2} (cos t, sin t),
    computed through the eigendecomposition of H_n(theta_n).
    """
    config = config or ConfsetShapeExperiment()
    rows = []
    theta0 = np.asarray(config.theta0, dtype=float)
    for s_idx, sigma in enumerate(config.sigmas):
        cov = np.asarray(sigma, dtype=float)
        label = "(%g %g; %g %g)" % (cov[0, 0], cov[0, 1], cov[1, 0], cov[1, 1])
        proc = Process(kind="logistic_wellspec", theta0=theta0, x_cov=cov)
        data = generate(proc, config.n, phase_seed(config.seed, 200 + s_idx))
        fit = fit_erm(model_for_data("logistic", data.X), data)
        sq_radius = calibrated_radius(
            fit,
            "wald",
            config.delta,
            "bootstrap",
            B=config.B,
            seed=phase_seed(config.seed, 300 + s_idx),
        )
        evals, evecs = np.linalg.eigh(fit.aggregates_at_opt.H_n)
        half = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
        ts = np.linspace(0.0, 2.0 * math.pi, config.boundary_points, endpoint=False)
        circle = np.stack([np.cos(ts), np.sin(ts)])
        pts = fit.theta_n[:, None] + math.sqrt(sq_radius) * (half @ circle)
        for t, (x1, x2) in zip(ts, pts.T):
            rows.append(ShapeRow(sigma=label, t=float(t), x1=float(x1), x2=float(x2)))
    return tuple(rows)


@dataclass(frozen=True)
class PowerCurvesExperiment:
    """Config of the power study: Rao, LR and Wald tests along an n grid.

    The null is ``theta0_equispaced(d)``; alternatives sit at distance
    ``dists`` from it along the evenly spread direction (1, ..., 1)/sqrt(d).
    """

    process: str = "logistic_wellspec"
    d: int = 5
    dists: tuple[float, ...] = (0.25, 0.5, 1.0)
    n_grid: tuple[int, ...] = (500, 1000, 2000)
    alpha: float = 0.05
    reps: int = 500
    calib_reps: int = 500
    seed: int = 0


def run_power_curves(config: PowerCurvesExperiment | None = None) -> tuple[PowerRow, ...]:
    """Power of each test per (n, alternative); see :func:`scmest.gof.power_curve`.

    Critical values are recalibrated per n by oracle Monte Carlo under the
    null, so size is held at ``alpha`` by construction.
    """
    config = config or PowerCurvesExperiment()
    theta0 = theta0_equispaced(config.d)
    direction = np.full(config.d, 1.0 / np.sqrt(config.d))
    table = power_curve(
        PowerCurveConfig(
            process=Process(kind=config.process, theta0=theta0),
            alternatives=tuple(theta0 + dist * direction for dist in config.dists),
            n_grid=config.n_grid,
            alpha=config.alpha,
            reps=config.reps,
            calib_reps=config.calib_reps,
            seed=config.seed,
        )
    )
    return table.rows
