"""Simulation studies emitting plot-ready tables.

:func:`coverage_experiment` runs the calibration protocol for one process:
replicate data draws, compare each statistic against its calibrated
quantile, and tabulate coverage per method and confidence level.  Three
prepackaged experiments build on it and on the package's estimators, each a
deterministic function of its config seed:

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

Rows count the replications that :func:`scmest.simdata.replicate` kept.
A process that fails entirely still yields rows (NaN coverage, all
replications counted as failures) so partial runs remain inspectable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import _bootstrap_statistics
from .errors import DomainError, NumericOverflow, ScmestError, SingularHessian, TooManyFailures
from .estimate import SolverOptions, fit_erm
from .gof import lr_statistic, null_statistics, wald_statistic
from .inference import calibrated_radius, effective_dim_empirical
from .losses import model_for_data
from .simdata import Process, generate, phase_seed, replicate, theta0_equispaced

__all__ = [
    "CoverageConfig",
    "CoverageRow",
    "CoverageTable",
    "coverage_experiment",
    "CoverageTableExperiment",
    "EffDimErrorExperiment",
    "ConfsetShapeExperiment",
    "EffDimRow",
    "ShapeRow",
    "run_coverage_table",
    "run_effdim_error",
    "run_confset_shape",
    "write_effdim_csv",
    "write_shape_csv",
    "write_coverage_csv",
]

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
    base fit fails is dropped by :func:`scmest.simdata.replicate` and counts
    as a failure for every method; one whose bootstrap exceeds the failure
    budget counts as a failure for the bootstrap methods only.
    """
    proc = config.process
    theta0 = proc.theta0
    eval_base = phase_seed(config.seed, 0)
    cal_base = phase_seed(config.seed, 1)
    boot_base = phase_seed(config.seed, 2)

    if "oracle" in config.methods:
        cal = null_statistics(("wald",), proc, config.n, config.reps, cal_base, config.opts)
        radius = {level: float(np.quantile(cal["wald"], level)) for level in config.deltas}
    want_boot = "bootwald" in config.methods or "bootlr" in config.methods

    def covers(model, data):
        """Per method, whether each level's set holds theta0; None where the bootstrap failed."""
        fit = fit_erm(model, data, config.opts)
        base_wald = wald_statistic(fit, theta0)
        out = {}
        if "oracle" in config.methods:
            out["oracle"] = [base_wald <= radius[level] for level in config.deltas]
        if want_boot:
            base_lr = lr_statistic(model, data, fit, theta0)
            # the bootstrap seed of replication r is boot_base + r
            seed = boot_base + data.provenance.seed - eval_base
            try:
                boot = _bootstrap_statistics(model, data, fit, config.B, seed)
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


_COVERAGE_PROCESSES = ("linear_wellspec", "linear_misspec_t", "logistic_wellspec")


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


@dataclass(frozen=True)
class EffDimErrorExperiment:
    """Config of the effective-dimension error study on well-specified models."""

    models: tuple[str, ...] = ("squared", "logistic")
    d_grid: tuple[int, ...] = (5, 10, 15, 20)
    n_grid: tuple[int, ...] = (2000, 4000, 6000, 8000, 10000)
    reps: int = 100
    seed: int = 0


@dataclass(frozen=True)
class EffDimRow:
    model: str
    d: int
    n: int
    mean_abs_err: float
    stderr: float
    reps: int


_PROCESS_FOR_MODEL = {"squared": "linear_wellspec", "logistic": "logistic_wellspec"}


def run_effdim_error(config: EffDimErrorExperiment | None = None) -> tuple[EffDimRow, ...]:
    """Mean |d_n/d - 1| over the (model, d, n) grid; d* = d by well-specification.

    ``reps`` of a row counts the replications that succeeded.
    """
    config = config or EffDimErrorExperiment()

    def relative_error(model, data):
        return abs(effective_dim_empirical(fit_erm(model, data)).value / model.dim - 1.0)

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


def write_effdim_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# schema_version=1\n")
        writer = csv.writer(fh)
        writer.writerow(["model", "d", "n", "mean_abs_err", "stderr", "reps"])
        for row in rows:
            writer.writerow(
                [row.model, row.d, row.n, f"{row.mean_abs_err:.17g}", f"{row.stderr:.17g}", row.reps]
            )


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
        model = model_for_data("logistic", data.X)
        fit = fit_erm(model, data)
        sq_radius = calibrated_radius(
            fit,
            "wald",
            config.delta,
            "bootstrap",
            model=model,
            data=data,
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


def write_shape_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# schema_version=1\n")
        writer = csv.writer(fh)
        writer.writerow(["sigma", "t", "x1", "x2"])
        for row in rows:
            writer.writerow([row.sigma, f"{row.t:.17g}", f"{row.x1:.17g}", f"{row.x2:.17g}"])
