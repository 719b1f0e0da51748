"""Synthetic data-generating processes and dataset I/O.

Five processes are supported, each pairing a design X ~ N(0, x_cov) with a
response mechanism:

===========================================================  ==============
kind                 response                                  loss kind
===========================================================  ==============
linear_wellspec      y = theta0'x + N(0, 1)                   squared
linear_misspec_t     y = theta0'x + t_{noise_df} (unit        squared
                     scale), heavier tails than the
                     Gaussian working model
logistic_wellspec    y = +1 w.p. sigma(theta0'x), else -1     logistic
poisson_wellspec     y ~ Poisson(exp(theta0'x))               poisson
gaussian_expfam_     raw vectors z with coordinates           score_matching
scorematch           z_j ~ N(a_j/b_j, 1/b_j) for
                     theta0 = (a, b), b > 0
===========================================================  ==============

All randomness flows through the counter-based Philox generator seeded via
``numpy.random.SeedSequence``, with the design and the response drawn from
two spawned child streams.  Responses are sampled with fixed or sequential
stream consumption (Poisson by inversion, not rejection), so the first n
rows of ``generate(process, 2n, seed)`` equal ``generate(process, n, seed)``
exactly.

Datasets round-trip through CSV (header ``x1..xd[,y]``) at full double
precision, and :func:`write_table` is the one writer of the tables that
studies produce.  This module generates and stores data only: the loop
that fits and measures replications of an experiment is the
replicate-and-fit loop of :mod:`scmest.estimate`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields

import numpy as np
from scipy.special import expit
from scipy.stats import poisson as poisson_dist

from .errors import DimensionMismatch, DomainError, EmptyDataset, ParseError
from .errors import check_nonnegative_int

__all__ = [
    "PROCESS_KINDS",
    "Process",
    "Dataset",
    "Provenance",
    "generate",
    "theta0_equispaced",
    "loss_kind_for",
    "phase_seed",
    "read_csv",
    "write_csv",
    "write_table",
]

PROCESS_KINDS = (
    "linear_wellspec",
    "linear_misspec_t",
    "logistic_wellspec",
    "poisson_wellspec",
    "gaussian_expfam_scorematch",
)

# inversion sampling: u = 0 would map to ppf's convention value -1
_U_FLOOR = 1e-300


@dataclass(frozen=True)
class Process:
    """A synthetic data-generating process.

    Attributes
    ----------
    kind : str
        One of ``PROCESS_KINDS``.
    theta0 : (d,) array
        True parameter.  For ``gaussian_expfam_scorematch`` this is (a, b)
        with the precision block b strictly positive and d even.
    x_cov : (d, d) SPD array, optional
        Design covariance; identity when omitted.  Ignored by the
        score-matching process, whose raw samples are set by theta0 alone.
    noise_df : float
        Student-t degrees of freedom (linear_misspec_t only).
    """

    kind: str
    theta0: np.ndarray
    x_cov: np.ndarray | None = None
    noise_df: float = 3.5

    def __post_init__(self) -> None:
        if self.kind not in PROCESS_KINDS:
            raise DomainError(f"unknown process kind {self.kind!r}")
        theta0 = np.asarray(self.theta0, dtype=float)
        object.__setattr__(self, "theta0", theta0)
        if theta0.ndim != 1 or theta0.size < 1 or not np.all(np.isfinite(theta0)):
            raise DomainError("theta0 must be a finite nonempty vector")
        if self.x_cov is not None:
            cov = np.asarray(self.x_cov, dtype=float)
            object.__setattr__(self, "x_cov", cov)
            if cov.shape != (self.d, self.d):
                raise DimensionMismatch(
                    f"x_cov has shape {cov.shape}, expected ({self.d}, {self.d})"
                )
            if np.abs(cov - cov.T).max() > 1e-12 * max(1.0, np.abs(cov).max()):
                raise DomainError("x_cov must be symmetric")
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise DomainError("x_cov must be positive definite") from None
        if self.noise_df <= 2.0:
            raise DomainError("noise_df must exceed 2 for finite noise variance")
        if self.kind == "gaussian_expfam_scorematch":
            if self.d % 2 != 0:
                raise DomainError("score-matching process needs even d = 2p")
            if np.any(theta0[self.d // 2 :] <= 0.0):
                raise DomainError("precision block of theta0 must be positive")

    @property
    def d(self) -> int:
        return int(self.theta0.size)

    def to_config(self) -> dict:
        cfg = {"kind": self.kind, "theta0": self.theta0.tolist()}
        if self.x_cov is not None:
            cfg["x_cov"] = self.x_cov.tolist()
        if self.kind == "linear_misspec_t":
            cfg["noise_df"] = self.noise_df
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "Process":
        known = {"kind", "theta0", "x_cov", "noise_df"}
        extra = set(cfg) - known
        if extra:
            raise ParseError(f"unknown process config keys: {sorted(extra)}")
        if "kind" not in cfg or "theta0" not in cfg:
            raise ParseError("process config needs 'kind' and 'theta0'")
        return cls(
            kind=cfg["kind"],
            theta0=np.asarray(cfg["theta0"], dtype=float),
            x_cov=None if cfg.get("x_cov") is None else np.asarray(cfg["x_cov"], dtype=float),
            noise_df=float(cfg.get("noise_df", 3.5)),
        )


@dataclass(frozen=True)
class Provenance:
    """How a dataset was generated, for reproducibility records."""

    process: Process
    seed: int


@dataclass(frozen=True)
class Dataset:
    """An in-memory dataset: feature matrix plus optional response vector.

    ``y`` is None for score-matching data, where ``X`` holds raw sample
    vectors.  Every value must be finite.
    """

    X: np.ndarray
    y: np.ndarray | None = None
    provenance: Provenance | None = None

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        object.__setattr__(self, "X", X)
        if X.ndim != 2:
            raise DimensionMismatch(f"X must be 2-d, got shape {X.shape}")
        if X.shape[0] == 0:
            raise EmptyDataset("dataset must contain at least one row")
        if self.y is not None:
            y = np.asarray(self.y, dtype=float)
            object.__setattr__(self, "y", y)
            if y.shape != (X.shape[0],):
                raise DimensionMismatch(
                    f"y has shape {y.shape}, expected ({X.shape[0]},)"
                )
        for name, values in (("X", X), ("y", self.y)):
            if values is not None and not np.isfinite(values).all():
                row = int(np.argmin(np.isfinite(values).reshape(X.shape[0], -1).all(axis=1)))
                raise DomainError(f"{name} has a non-finite value in row {row} (0-based)")

    @property
    def n(self) -> int:
        return int(self.X.shape[0])

    @property
    def d(self) -> int:
        return int(self.X.shape[1])


def theta0_equispaced(d: int) -> np.ndarray:
    """Equispaced true parameter on [0, 1]: (0, 1/(d-1), ..., 1); (0.5) at d=1."""
    if d < 1:
        raise DomainError(f"d must be positive, got {d}")
    if d == 1:
        return np.array([0.5])
    return np.linspace(0.0, 1.0, d)


def loss_kind_for(process: Process) -> str:
    """The loss kind matching a process's working model."""
    return {
        "linear_wellspec": "squared",
        "linear_misspec_t": "squared",
        "logistic_wellspec": "logistic",
        "poisson_wellspec": "poisson",
        "gaussian_expfam_scorematch": "score_matching",
    }[process.kind]


def generate(process: Process, n: int, seed: int) -> Dataset:
    """Draw n samples from a process, deterministically per seed.

    The design and the response use two child streams spawned from
    ``SeedSequence(seed)``, each driving a Philox generator, so the first n
    rows of a size-2n draw coincide with the size-n draw.  A seed that is
    not a nonnegative integer raises DomainError.
    """
    if n < 1:
        raise EmptyDataset(f"n must be positive, got {n}")
    check_nonnegative_int("seed", seed)
    ss = np.random.SeedSequence(seed)
    x_ss, y_ss = ss.spawn(2)
    x_gen = np.random.Generator(np.random.Philox(x_ss))
    prov = Provenance(process=process, seed=int(seed))

    if process.kind == "gaussian_expfam_scorematch":
        p = process.d // 2
        a = process.theta0[:p]
        b = process.theta0[p:]
        Z = a / b + x_gen.standard_normal((n, p)) / np.sqrt(b)
        return Dataset(X=Z, provenance=prov)

    X = x_gen.standard_normal((n, process.d))
    if process.x_cov is not None:
        X = X @ np.linalg.cholesky(process.x_cov).T
    eta = X @ process.theta0

    y_gen = np.random.Generator(np.random.Philox(y_ss))
    if process.kind == "linear_wellspec":
        y = eta + y_gen.standard_normal(n)
    elif process.kind == "linear_misspec_t":
        y = eta + y_gen.standard_t(process.noise_df, size=n)
    elif process.kind == "logistic_wellspec":
        u = y_gen.uniform(size=n)
        y = np.where(u < expit(eta), 1.0, -1.0)
    else:
        u = np.maximum(y_gen.uniform(size=n), _U_FLOOR)
        y = poisson_dist.ppf(u, np.exp(eta))
    return Dataset(X=X, y=y, provenance=prov)


def phase_seed(seed: int, phase: int) -> int:
    """Derive a nonnegative int64 seed base for one phase of an experiment.

    A seed or phase that is not a nonnegative integer raises DomainError.
    """
    check_nonnegative_int("seed", seed)
    check_nonnegative_int("phase", phase)
    state = np.random.SeedSequence([int(seed), int(phase)]).generate_state(1, np.uint64)
    return int(state[0] & np.uint64(0x7FFF_FFFF_FFFF_FFFF))


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV with header x1..xd[,y], 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [f"x{j + 1}" for j in range(dataset.d)]
        if dataset.y is not None:
            header.append("y")
        writer.writerow(header)
        for i in range(dataset.n):
            row = [f"{v:.17g}" for v in dataset.X[i]]
            if dataset.y is not None:
                row.append(f"{dataset.y[i]:.17g}")
            writer.writerow(row)


def write_table(rows, path, metadata=None) -> None:
    """Write study rows (instances of one dataclass) as a versioned CSV table.

    The file opens with ``# schema_version=1`` and one ``# key=value`` line
    per ``metadata`` item in key order; the header is the row class's field
    names, and floats are written as their shortest round-trip ``repr``.
    A table without rows has no header.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# schema_version=1\n")
        for key in sorted(metadata or {}):
            fh.write(f"# {key}={metadata[key]}\n")
        if not rows:
            return
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(rows[0])])
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in astuple(row)])


def read_csv(path) -> Dataset:
    """Read a dataset written by :func:`write_csv`.

    The header must be ``x1..xd`` optionally followed by ``y``.  A malformed
    or non-finite cell raises ParseError citing its 1-based file row (the
    header is row 1) and column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        has_y = bool(header) and header[-1] == "y"
        feat_names = header[:-1] if has_y else header
        expected = [f"x{j + 1}" for j in range(len(feat_names))]
        if not feat_names or feat_names != expected:
            raise ParseError(
                f"{path}: header must be x1..xd optionally followed by y, got {header}"
            )
        width = len(header)
        X_rows: list[list[float]] = []
        y_vals: list[float] = []
        for r, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(
                    f"{path}: row {r} has {len(row)} fields, expected {width}"
                )
            vals = []
            for c, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {r}, column {c}: cannot parse {cell!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(f"{path}: row {r}, column {c}: non-finite value {cell!r}")
                vals.append(value)
            if has_y:
                X_rows.append(vals[:-1])
                y_vals.append(vals[-1])
            else:
                X_rows.append(vals)
    if not X_rows:
        raise EmptyDataset(f"{path}: no data rows")
    return Dataset(
        X=np.asarray(X_rows), y=np.asarray(y_vals) if has_y else None
    )
