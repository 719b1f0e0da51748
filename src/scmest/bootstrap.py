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
runs of one configuration are bit-identical.  For the built-in loss kinds with linear predictors (and for
score matching) all B refits run as one vectorized damped-Newton iteration
over slots, chunked to bound memory; the general path fits sequentially.

Work per bootstrap call: the data are checked and the per-sample stacks
(the expfam_glm statistics, the score-matching (A, b, c)) built once, and
for the linear-predictor kinds so is the table of the upper triangles of
x_i x_i'.  An engine iteration then computes, for the live slots, eta, the
mean gradients S and the Hessians H, H as one matrix product of the
weighted curvatures with that table; the weighted risk is evaluated once
per slot, at the iterate where it converges.  The sequential path refits
from the one prepared batch.

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
from .estimate import (
    FitResult,
    SolverOptions,
    _newton_fit,
    empirical_sc_params,
)
from .gof import lr_statistic, phase_seed, wald_statistic
from .losses import (
    Batch,
    LossModel,
    check_weights,
    exp_overflow,
    linear_coefficients,
    model_for_data,
    prepare_batch,
)
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

# rough element budget for one chunk's (slots, n) temporaries, and for the
# (n, d(d+1)/2) x_i x_i' table built once per call; past it the table is
# built per row block of X whenever it is used
_CHUNK_ELEMENTS = 8_000_000


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


# ---------------------------------------------------------------------------
# vectorized engine: all replications advance one damped-Newton step at a time
# ---------------------------------------------------------------------------


def _batch_chol_directions(H: np.ndarray, S: np.ndarray):
    """Newton directions -H^{-1}S per slot with per-slot PD detection.

    Returns (p, dec, ok): direction, decrement, and a validity mask.  The
    PD test matches the scalar solver: Cholesky succeeds and the smallest
    squared pivot clears 1e-12 trace/d.
    """
    m, d = S.shape
    ok = np.ones(m, dtype=bool)
    trace = np.einsum("bii->b", H)
    ok &= trace > 0.0
    L = np.zeros_like(H)
    try:
        L[ok] = np.linalg.cholesky(H[ok])
    except np.linalg.LinAlgError:
        for i in np.flatnonzero(ok):
            try:
                L[i] = np.linalg.cholesky(H[i])
            except np.linalg.LinAlgError:
                ok[i] = False
    pivots = np.min(np.diagonal(L, axis1=1, axis2=2), axis=1)
    with np.errstate(invalid="ignore"):
        ok &= pivots * pivots > 1e-12 * trace / d
    p = np.zeros_like(S)
    dec = np.full(m, np.inf)
    if np.any(ok):
        p[ok] = -np.linalg.solve(H[ok], S[ok][..., None])[..., 0]
        dec[ok] = np.sqrt(np.maximum(np.einsum("bj,bj->b", S[ok], -p[ok]), 0.0))
    return p, dec, ok


class _OuterTable:
    """The upper triangles of x_i x_i', built once per bootstrap call.

    Row i holds x_ij x_ik for j <= k, d(d+1)/2 columns, so the slot
    Hessians n^-1 sum_i C_bi x_i x_i' of every row b of C are one matrix
    product C @ table, mirrored into full matrices that are exactly
    symmetric.  The table counts against ``_CHUNK_ELEMENTS``: when it would
    exceed the budget it is not kept, and each product runs over row blocks
    of X whose tables are built as they are needed.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        n, d = X.shape
        self.iu, self.ju = np.triu_indices(d)
        # flat positions of the upper triangle and of its mirror in a d x d matrix
        self.upper = self.iu * d + self.ju
        self.lower = self.ju * d + self.iu
        rows = max(1, _CHUNK_ELEMENTS // self.iu.size)
        self.blocks = [slice(start, start + rows) for start in range(0, n, rows)]
        self.table = self._build(self.blocks[0]) if len(self.blocks) == 1 else None

    def _build(self, rows: slice) -> np.ndarray:
        Xr = self.X[rows]
        return Xr[:, self.iu] * Xr[:, self.ju]

    def hessians(self, C: np.ndarray) -> np.ndarray:
        """n^-1 sum_i C_bi x_i x_i' for every row b of C, an (m, d, d) array."""
        n, d = self.X.shape
        m = C.shape[0]
        G = sum(
            C[:, rows] @ (self._build(rows) if self.table is None else self.table)
            for rows in self.blocks
        ) / n
        H = np.empty((m, d * d))
        H[:, self.upper] = G
        H[:, self.lower] = G
        return H.reshape(m, d, d)


def _engine_chunk(
    batch: Batch, W: np.ndarray, opts: SolverOptions, outer: _OuterTable | None
):
    """Fit every row of W by vectorized damped Newton.

    Returns (thetas, H_final, L_final, success): per-slot solutions, the
    weighted Hessian and risk at the solution, and a success mask.  A
    Poisson slot whose predictor overflows fails alone.

    An iteration computes, for the live slots only, the predictors
    eta = X theta, the mean gradients S and the Hessians H: for the
    linear-predictor kinds H is one matrix product with ``outer`` (the
    x_i x_i' table of the call), for score matching it is fixed and formed
    once per chunk.  The risk is evaluated only for the slots that finish,
    at the iterate they finish on.
    """
    model = batch.model
    kind = model.kind
    X, y = batch.X, batch.y
    n, d = batch.n, model.dim
    m = W.shape[0]
    R_n = empirical_sc_params(model, n).R

    if kind == "score_matching":
        A, bvec, cvec = batch.stacks
        WA = (W @ A.reshape(n, d * d) / n).reshape(m, d, d)
        Wb = W @ bvec / n
        Wc = W @ cvec / n

    thetas = np.zeros((m, d))
    H_final = np.zeros((m, d, d))
    L_final = np.zeros(m)
    alive = np.ones(m, dtype=bool)
    failed = np.zeros(m, dtype=bool)
    converged = np.zeros(m, dtype=bool)

    for it in range(opts.max_iter + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        th = thetas[idx]
        if kind == "score_matching":
            H = WA[idx]
            S = np.einsum("bjk,bk->bj", H, th) - Wb[idx]
        else:
            Wi = W[idx]
            eta = th @ X.T
            if kind == "poisson":
                bad = exp_overflow(eta)
                if np.any(bad):
                    failed[idx[bad]] = True
                    alive[idx[bad]] = False
                    keep = ~bad
                    idx, th, Wi, eta = idx[keep], th[keep], Wi[keep], eta[keep]
                    if idx.size == 0:
                        continue
            _, gc, cc = linear_coefficients(kind, eta, y, value=False)
            S = (Wi * gc) @ X / n
            H = outer.hessians(Wi * cc)
        p, dec, ok = _batch_chol_directions(H, S)
        if np.any(~ok):
            failed[idx[~ok]] = True
            alive[idx[~ok]] = False
        done = ok & (dec <= opts.tol)
        if np.any(done):
            sel = idx[done]
            converged[sel] = True
            alive[sel] = False
            H_final[sel] = H[done]
            if kind == "score_matching":
                th_d, H_d = th[done], H[done]
                L_final[sel] = (
                    0.5 * np.einsum("bj,bjk,bk->b", th_d, H_d, th_d)
                    - np.einsum("bj,bj->b", Wb[sel], th_d)
                    + Wc[sel]
                )
            else:
                vals = linear_coefficients(kind, eta[done], y)[0]
                L_final[sel] = np.einsum("bi,bi->b", Wi[done], vals) / n
        if it == opts.max_iter:
            # anything still alive has run out of iterations
            failed[alive] = True
            alive[:] = False
            break
        step = ok & ~done
        if np.any(step):
            sel = idx[step]
            # nu = 2 for every vectorized kind: damping is R_n ||p||_2
            damping = R_n * np.linalg.norm(p[step], axis=1)
            alpha = np.minimum(1.0, 1.0 / (1.0 + damping))
            thetas[sel] = thetas[sel] + alpha[:, None] * p[step]
    return thetas, H_final, L_final, converged & ~failed


def _bootstrap_statistics(
    model: LossModel,
    data: Dataset,
    fit: FitResult,
    B: int,
    seed: int,
    opts: SolverOptions | None = None,
):
    """All B bootstrap Wald and LR statistics plus the failure count.

    The checked data, the per-sample stacks and the x_i x_i' table are
    built once here and shared by every replication.
    """
    if not fit.converged:
        raise NonConverged("bootstrap calibration requires a converged base fit")
    opts = opts or SolverOptions()
    n = data.n
    batch = prepare_batch(model, data.X, data.y)
    vals_base = batch.values(fit.theta_n)

    wald = np.full(B, np.nan)
    lr = np.full(B, np.nan)
    if model.kind == "expfam_glm" or model.sc.nu != 2.0:
        for b in range(B):
            w = bootstrap_weights(seed, b, n)
            try:
                bfit = _newton_fit(batch, opts, w)
            except (SingularHessian, NumericOverflow):
                continue
            if not bfit.converged:
                continue
            wald[b] = wald_statistic(bfit, fit.theta_n)
            lr[b] = max(2.0 * (float(np.sum(w * vals_base)) / n - bfit.aggregates_at_opt.L_n), 0.0)
    else:
        outer = None if model.kind == "score_matching" else _OuterTable(batch.X)
        chunk = max(1, min(B, _CHUNK_ELEMENTS // max(n, 1)))
        for start in range(0, B, chunk):
            stop = min(start + chunk, B)
            W = np.empty((stop - start, n))
            for j, b in enumerate(range(start, stop)):
                W[j] = bootstrap_weights(seed, b, n)
            thetas, H_fin, L_fin, success = _engine_chunk(batch, W, opts, outer)
            diff = thetas - fit.theta_n
            wald_chunk = np.einsum("bj,bjk,bk->b", diff, H_fin, diff)
            lr_chunk = np.maximum(2.0 * (W @ vals_base / n - L_fin), 0.0)
            sel = np.flatnonzero(success) + start
            wald[sel] = wald_chunk[success]
            lr[sel] = lr_chunk[success]
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
