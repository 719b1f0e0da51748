"""Effective dimension, finite-sample radii, and Wald/LR confidence sets.

The effective dimension d* = Tr(H*^{-1/2} G* H*^{-1/2}) replaces the raw
parameter dimension in all finite-sample radii; the empirical counterpart
d_n plugs in H_n and G_n at the fitted point.  Traces are computed by one
solve against H under the positive-definiteness test of the Newton engine,
never through an explicit inverse.

Confidence sets come in two kinds, both centered at theta_n:

- wald: {theta : ||theta - theta_n||^2_{H_n(theta_n)} <= sq_radius}
- lr:   {theta : 2 [L_n(theta) - L_n(theta_n)] <= sq_radius}

and sq_radius comes from one of three calibrations, all through one entry
point, :func:`calibrated_radius`.  ``explicit_constant`` evaluates the
closed-form radius of the Wald set

    24 omega_nu^2(r_n R*) d*/n + C K1^2 omega_nu^2(r_n R*) log(e/delta) ||Omega||/n

whose constants enter only as C K1^2, C not sharp (default 0 keeps the
leading term only).  ``oracle_mc`` replicates the experiment from the
process that drew the fit's data (``Dataset.provenance``) and takes the
empirical upper-delta quantile of the statistic, so it refuses a weighted
fit; ``bootstrap`` delegates to the multiplier bootstrap of the fit's own
problem and weights (``FitResult.batch``, ``FitResult.weights``).
Both refit under the solver options of the fit they calibrate
(``FitResult.opts``).  A set belongs to one fit: :func:`confidence_set`
calibrates it from the fit and keeps the fit, where LR membership reads
the risk.  Throughout this module ``delta`` is the tail
mass: coverage targets 1 - delta.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import BootstrapConfig, bootstrap_quantile
from .errors import (
    DimensionMismatch,
    DomainError,
    MissingSampler,
    NonConverged,
    ParseError,
)
from .estimate import (
    FitResult,
    SolverOptions,
    _solve_pd,
    _spectral_summary,
    aggregates,
)
from .gof import lr_statistic, null_statistics
from .losses import LossModel
from .scfun import ScParams, SpectralSummary, k_nu, omega, r_nu
from .simdata import Dataset, Process, generate

__all__ = [
    "SCHEMA_VERSION",
    "ConfidenceSet",
    "AssumptionConstants",
    "EffDimReport",
    "effective_dim_empirical",
    "effective_dim_spectrum",
    "effective_dim_oracle",
    "t_n_bound",
    "oracle_radius",
    "calibrated_radius",
    "confidence_set",
    "set_membership",
    "critical_sample_size",
]

SCHEMA_VERSION = "1"

_SET_KINDS = ("wald", "lr")
_CALIBRATIONS = ("oracle_mc", "bootstrap", "explicit_constant")
_ORACLE_FOLDS = 10


@dataclass(frozen=True)
class ConfidenceSet:
    """A calibrated confidence set centered at the fitted parameter.

    ``shape`` is H_n(theta_n) for Wald sets and None for LR sets, whose
    membership is evaluated through the risk of ``fit``, the fit the set
    was built from.  The JSON form does not carry the fit, so a set read
    back with :meth:`from_json` has ``fit`` None.
    """

    kind: str
    center: np.ndarray
    shape: np.ndarray | None
    sq_radius: float
    delta: float
    calibration: str
    fit: FitResult | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _SET_KINDS:
            raise DomainError(f"kind must be one of {_SET_KINDS}, got {self.kind!r}")
        if self.calibration not in _CALIBRATIONS:
            raise DomainError(f"unknown calibration {self.calibration!r}")
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta must lie in (0, 1), got {self.delta}")
        if not self.sq_radius > 0.0:
            raise DomainError(f"sq_radius must be positive, got {self.sq_radius}")
        center = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", center)
        if self.kind == "wald":
            if self.shape is None:
                raise DomainError("wald sets need a shape matrix")
            shape = np.asarray(self.shape, dtype=float)
            object.__setattr__(self, "shape", shape)
            if shape.shape != (center.size, center.size):
                raise DimensionMismatch(
                    f"shape is {shape.shape}, expected ({center.size}, {center.size})"
                )

    def to_json(self) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "center": self.center.tolist(),
            "shape": None if self.shape is None else self.shape.tolist(),
            "sq_radius": self.sq_radius,
            "delta": self.delta,
            "calibration": self.calibration,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ConfidenceSet":
        """The set of a :meth:`to_json` document; any other text raises ParseError."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"confidence set document is not JSON ({exc})") from None
        if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
            raise ParseError(
                f"confidence set must be a JSON object of schema_version {SCHEMA_VERSION!r}"
            )
        lacking = {"kind", "center", "shape", "sq_radius", "delta", "calibration"} - set(doc)
        if lacking:
            raise ParseError(f"confidence set document lacks {sorted(lacking)}")
        return cls(
            kind=doc["kind"],
            center=np.asarray(doc["center"], dtype=float),
            shape=None if doc["shape"] is None else np.asarray(doc["shape"], dtype=float),
            sq_radius=float(doc["sq_radius"]),
            delta=float(doc["delta"]),
            calibration=doc["calibration"],
        )


@dataclass(frozen=True)
class AssumptionConstants:
    """Constants of the moment assumptions on the population loss.

    K1 bounds the sub-Gaussian norm of the whitened score, and (K2,
    sigma_H) are the Bernstein parameters of the Hessian deviation.  None
    are estimated from data.
    """

    K1: float
    K2: float
    sigma_H: float

    def __post_init__(self) -> None:
        for name in ("K1", "K2", "sigma_H"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be positive")


@dataclass(frozen=True)
class EffDimReport:
    """An effective-dimension value and how it was obtained."""

    value: float
    kind: str
    mc_stderr: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("oracle_mc", "empirical"):
            raise DomainError(f"unknown effective-dimension kind {self.kind!r}")
        if not self.value > 0.0:
            raise DomainError(f"effective dimension must be positive, got {self.value}")


def _trace_ratio(G: np.ndarray, H: np.ndarray) -> float:
    """Tr(H^{-1} G) under the PD test of the Newton engine; SingularHessian on bad H."""
    return float(np.trace(_solve_pd(H, G)))


def effective_dim_empirical(fit: FitResult) -> EffDimReport:
    """Empirical effective dimension d_n = Tr(H_n(theta_n)^{-1} G_n(theta_n))."""
    if not fit.converged:
        raise NonConverged("effective_dim_empirical requires a converged fit")
    agg = fit.aggregates_at_opt
    return EffDimReport(value=_trace_ratio(agg.G_n, agg.H_n), kind="empirical")


def effective_dim_spectrum(g_eigs, h_eigs) -> float:
    """Effective dimension sum_i g_i/h_i for jointly diagonalizable G, H."""
    g = np.asarray(g_eigs, dtype=float)
    h = np.asarray(h_eigs, dtype=float)
    if g.shape != h.shape or g.ndim != 1:
        raise DimensionMismatch(
            f"eigenvalue vectors must match in length, got {g.shape} and {h.shape}"
        )
    if g.size == 0 or np.any(g <= 0.0) or np.any(h <= 0.0):
        raise DomainError("eigenvalues must be positive")
    return float(np.sum(g / h))


def effective_dim_oracle(
    model: LossModel,
    sampler: Process,
    theta_star,
    mc_n: int,
    seed: int,
) -> EffDimReport:
    """Monte-Carlo effective dimension at theta_star under a known process.

    Estimates H* and G* from mc_n fresh samples and reports
    Tr(H*^{-1} G*), with a standard error from 10-fold batching (each fold
    re-estimates both moments on its own block).
    """
    if sampler is None:
        raise MissingSampler("effective_dim_oracle needs a data-generating process")
    theta_star = np.asarray(theta_star, dtype=float)
    data = generate(sampler, mc_n, seed)
    agg = aggregates(model, data, theta_star)
    value = _trace_ratio(agg.G_n, agg.H_n)
    folds = []
    for idx in np.array_split(np.arange(mc_n), _ORACLE_FOLDS):
        sub = Dataset(X=data.X[idx], y=None if data.y is None else data.y[idx])
        agg = aggregates(model, sub, theta_star)
        folds.append(_trace_ratio(agg.G_n, agg.H_n))
    stderr = float(np.std(folds, ddof=1) / math.sqrt(len(folds)))
    return EffDimReport(value=value, kind="oracle_mc", mc_stderr=stderr)


def t_n_bound(delta: float, constants: AssumptionConstants, n: int, d: int) -> float:
    """Hessian concentration level: with probability 1 - delta,
    (1 - t_n) H* <= H_n(theta*) <= (1 + t_n) H*.

    Evaluates 2 sigma_H^2 / (-K2 + sqrt(K2^2 + 2 sigma_H^2 n / log(4d/delta))),
    strictly decreasing in n and increasing in d.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if n < 1 or d < 1:
        raise DomainError("n and d must be positive")
    s2 = constants.sigma_H**2
    log_term = math.log(4.0 * d / delta)
    return 2.0 * s2 / (-constants.K2 + math.sqrt(constants.K2**2 + 2.0 * s2 * n / log_term))


def oracle_radius(
    kind: str,
    process: Process,
    n: int,
    delta: float,
    reps: int = 1000,
    seed: int = 0,
    opts: SolverOptions | None = None,
) -> float:
    """Empirical upper-delta quantile of the named statistic under a process.

    Replicates the whole experiment ``reps`` times at sample size n: draw a
    fresh dataset, fit, and evaluate the Wald distance or the LR deviance of
    theta0 from the fit.  Replication r uses seed ``seed + r``; the quantile
    is over the replications that succeed (see :func:`scmest.gof.null_statistics`);
    a ``delta`` outside (0, 1) raises DomainError before anything runs.
    """
    if kind not in _SET_KINDS:
        raise DomainError(f"kind must be one of {_SET_KINDS}, got {kind!r}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if process is None:
        raise MissingSampler("oracle calibration needs a data-generating process")
    stats = null_statistics((kind,), process, n, reps, seed, opts)[kind]
    return float(np.quantile(stats, 1.0 - delta))


def _explicit_sq_radius(fit: FitResult, delta: float, c_k1_sq: float) -> float:
    # imported here: scipy.linalg would add its load time to every command
    from scipy.linalg import eigh

    agg = fit.aggregates_at_opt
    n = agg.n
    spec = _spectral_summary(agg.H_n)
    if spec is None:
        raise DomainError("H_n(theta_n) must be positive definite")
    params = fit.batch.sc_params
    r_star = r_nu(params, spec)
    log_term = 1.0 - math.log(delta)
    d_star = effective_dim_empirical(fit).value
    r_n = math.sqrt(c_k1_sq * log_term * d_star / n)
    w = omega(params.nu, r_n * r_star)
    # largest eigenvalue of the H_n-whitened G_n
    omega_norm = float(eigh(agg.G_n, agg.H_n, eigvals_only=True)[-1])
    return 24.0 * w**2 * d_star / n + c_k1_sq * w**2 * log_term * omega_norm / n


def calibrated_radius(
    fit: FitResult,
    kind: str,
    delta: float,
    calibration: str,
    *,
    c_k1_sq: float = 0.0,
    calib_reps: int = 1000,
    B: int = 2000,
    seed: int = 0,
) -> float:
    """Squared radius of the Wald or LR set of kind ``kind`` at tail mass delta.

    calibration selects the source: ``explicit_constant`` evaluates the
    closed-form radius of the Wald set at the empirical effective dimension
    (``c_k1_sq`` is C K1^2, 0 keeps the leading term, and a negative or
    infinite one raises DomainError), ``oracle_mc`` replays the
    experiment from the process that drew the fit's data,
    ``fit.data.provenance.process`` (calib_reps fresh replications seeded
    seed + r; data without provenance raise MissingSampler, and a fit whose
    ``weights`` are not all ones DomainError, since replaying the process
    cannot reproduce them), and ``bootstrap`` refits the fit's own problem
    (``fit.batch``) under its ``weights`` times B multiplier reweightings
    drawn from ``seed``.  Refits use ``fit.opts``.
    """
    if not fit.converged:
        raise NonConverged("calibrated_radius requires a converged fit")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if calibration == "explicit_constant":
        if kind != "wald":
            raise DomainError("explicit_constant calibration applies to wald sets only")
        if not 0.0 <= c_k1_sq < math.inf:
            raise DomainError(f"c_k1_sq must be finite and nonnegative, got {c_k1_sq}")
        return _explicit_sq_radius(fit, delta, c_k1_sq)
    if calibration == "oracle_mc":
        if not np.all(fit.weights == 1.0):
            raise DomainError("oracle_mc calibration cannot replay a weighted fit")
        process = fit.data.provenance.process if fit.data.provenance else None
        return oracle_radius(kind, process, fit.data.n, delta, calib_reps, seed, fit.opts)
    if calibration == "bootstrap":
        config = BootstrapConfig(delta=delta, B=B, seed=seed)
        return bootstrap_quantile(fit.batch.model, fit.data, fit, config, kind=kind).quantile
    raise DomainError(f"unknown calibration {calibration!r}")


def confidence_set(
    fit: FitResult,
    kind: str,
    delta: float,
    calibration: str,
    **options,
) -> ConfidenceSet:
    """The set of kind ``kind`` around a fit, calibrated and holding the fit.

    The squared radius is ``calibrated_radius(fit, kind, delta,
    calibration, **options)``; ``options`` are that function's keywords.
    """
    return ConfidenceSet(
        kind=kind,
        center=fit.theta_n.copy(),
        shape=fit.aggregates_at_opt.H_n.copy() if kind == "wald" else None,
        sq_radius=calibrated_radius(fit, kind, delta, calibration, **options),
        delta=delta,
        calibration=calibration,
        fit=fit,
    )


def set_membership(conf_set: ConfidenceSet, theta) -> bool:
    """Whether theta belongs to the confidence set.

    Wald membership is the ellipsoid inequality in the stored shape; LR
    membership re-evaluates the empirical risk at theta through
    ``conf_set.fit``, and a set without its fit raises DomainError.  A
    theta of the wrong shape raises DimensionMismatch, and a NaN or
    infinite entry DomainError.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != conf_set.center.shape:
        raise DimensionMismatch(
            f"theta has shape {theta.shape}, set center has {conf_set.center.shape}"
        )
    if not np.all(np.isfinite(theta)):
        raise DomainError(f"theta must be finite, got {theta.tolist()}")
    if conf_set.kind == "wald":
        diff = theta - conf_set.center
        return bool(diff @ conf_set.shape @ diff <= conf_set.sq_radius)
    if conf_set.fit is None:
        raise DomainError("LR membership needs the fit the set was built from")
    return lr_statistic(conf_set.fit, theta) <= conf_set.sq_radius


def critical_sample_size(
    params: ScParams,
    spec: SpectralSummary,
    constants: AssumptionConstants,
    d_star: float,
    d: int,
    delta: float,
    c_abs: float = 1.0,
) -> int:
    """Sample size beyond which the localization guarantee is in force.

    Evaluates max{4 (K2 + 2 sigma_H^2) log(4d/delta),
                  C [(R*)^2 K1^2 d* log(e/delta) / K_nu^2]^{1/(3-nu)}}
    and returns its ceiling.  A formula evaluator with a user-supplied
    absolute constant, not a sharp threshold.  Only nu in [2, 3) admits the
    second branch's exponent.
    """
    if params.nu >= 3.0:
        raise DomainError(f"critical sample size needs nu in [2, 3), got {params.nu}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if d_star <= 0.0 or d < 1:
        raise DomainError("d_star and d must be positive")
    branch1 = 4.0 * (constants.K2 + 2.0 * constants.sigma_H**2) * math.log(4.0 * d / delta)
    r_star = r_nu(params, spec)
    log_term = 1.0 - math.log(delta)
    base = r_star**2 * constants.K1**2 * d_star * log_term / k_nu(params.nu) ** 2
    branch2 = c_abs * base ** (1.0 / (3.0 - params.nu))
    return int(math.ceil(max(branch1, branch2)))
