"""The loss zoo: batch values, gradients, Hessians, and the (R, nu) of the data.

Five loss kinds are supported, all convex in theta:

==============  =====================================================  ==============
kind            per-sample loss l(theta; z)                            (R, nu)
==============  =====================================================  ==============
squared         (y - theta'x)^2 / 2                                    (0, 2)
logistic        log(1 + exp(-y theta'x)),  y in {-1, +1}               (max_i||x_i||, 2)
poisson         -y theta'x + exp(theta'x),  y in {0, 1, 2, ...}        (max_i||x_i||, 2)
expfam_glm      -theta't(x, y) + log sum_y' exp(theta't(x, y'))        (2M, 2)
score_matching  theta'A(z)theta/2 - b(z)'theta + c(z)                  (0, 2)
==============  =====================================================  ==============

R is measured from the data, never declared: :attr:`Batch.R` takes it on
first use, where the Newton engine or a certificate reads it.  For
``expfam_glm`` the label set is finite and the model bounds the sufficient
statistic, ``||t(x, y)||_2 <= M``, a bound checked on the data, so the
log-partition is an exact finite sum evaluated with the max-shift trick.
``score_matching`` consumes the matrix of raw samples z and a callback
mapping it to the stacks of per-sample quadratic forms (A, b, c);
:func:`score_matching_assemble` builds those stacks from derivatives of the
sufficient statistic t and the base density term h.

Samples are always the rows of a design matrix X (raw samples for score
matching) with responses y; a single sample is a one-row X.  The fitting
code works on a :class:`Batch`, made once per fit (which keeps it as
``FitResult.batch``) from a checked :class:`~scmest.simdata.Dataset` by
:func:`prepare_batch`: it adds the
checks that need the model and builds the per-sample stacks
(the expfam_glm statistics, the score-matching (A, b, c)) that every later
evaluation reuses.  :meth:`Batch.slot_evaluate`, the one evaluation of L_n,
S_n and H_n, takes m parameter and weight rows at once, for every kind, so
the Newton engine of :mod:`scmest.estimate` has no per-kind arithmetic; H_n
of one row is one matrix product ((w c) x)' x, more rows share a packed table.
:func:`prepare_stack` gives the rows a dataset axis instead: m datasets of
equal n, one per row, checked at once, whose H_n are one batched matrix
product, with the arithmetic of the single row.
The squared, logistic and Poisson losses are each defined once, in
:func:`linear_coefficients`.  LossModel instances are immutable and all
evaluations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidLabel, NumericOverflow
from .scfun import ScParams
from .simdata import Dataset

__all__ = [
    "LOSS_KINDS",
    "LossModel",
    "Batch",
    "squared_loss",
    "logistic_loss",
    "poisson_loss",
    "expfam_glm_loss",
    "score_matching_loss",
    "gaussian_score_matching_loss",
    "model_for_data",
    "score_matching_assemble",
]

LOSS_KINDS = ("squared", "logistic", "poisson", "expfam_glm", "score_matching")

# exp(eta) beyond this overflows double precision
_EXP_LIMIT = 700.0

# R per unit of max_i ||x_i||, for the kinds whose R the design sets
_R_PER_X_NORM = {"logistic": 1.0, "poisson": 1.0}


@dataclass(frozen=True)
class LossModel:
    """A per-sample loss, independent of any dataset.

    Build instances through the factory functions (:func:`squared_loss`,
    :func:`logistic_loss`, ...) rather than directly; R comes from the data.

    Attributes
    ----------
    kind : str
        One of ``LOSS_KINDS``.
    dim : int
        Length of theta.
    labels : tuple of float, optional
        Finite label set (expfam_glm only).
    feature_map : callable, optional
        ``(X, label) -> (n, dim)``: maps the (n, p) sample matrix to the
        sufficient statistics t(x_i, label) of one label (expfam_glm only).
    stat_bound : float, optional
        Bound M with ||t(x, y)|| <= M, checked on the data (expfam_glm only).
    stacks_fn : callable, optional
        ``Z -> (A, b, c)``: maps the (n, p) matrix of raw samples, of any
        width p, to the stacks of per-sample quadratic forms, A (n, dim,
        dim), b (n, dim) and c (n,) (score_matching only).
    """

    kind: str
    dim: int
    labels: tuple[float, ...] | None = None
    feature_map: Callable[[np.ndarray, float], np.ndarray] | None = None
    stat_bound: float | None = None
    stacks_fn: Callable[[np.ndarray], tuple] | None = None

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise DomainError(f"unknown loss kind {self.kind!r}")
        if self.dim < 1:
            raise DimensionMismatch(f"dim must be positive, got {self.dim}")
        if self.kind == "expfam_glm" and (
            not self.labels or self.feature_map is None or self.stat_bound is None
        ):
            raise DomainError("expfam_glm needs labels, feature_map, and stat_bound")
        if self.kind == "score_matching" and self.stacks_fn is None:
            raise DomainError("score_matching needs stacks_fn")


def squared_loss(dim: int) -> LossModel:
    """Least-squares loss (y - theta'x)^2 / 2; quadratic, so (R, nu) = (0, 2)."""
    return LossModel(kind="squared", dim=dim)


def logistic_loss(dim: int) -> LossModel:
    """Logistic loss with labels in {-1, +1}; (R, nu) = (max_i ||x_i||, 2).

    phi(t) = log(1 + e^-t) has phi''' = phi'' (1 - 2 sigmoid(t)), so
    |phi'''| <= phi'' and R = max_i ||x_i|| meets the nu = 2 definition.
    """
    return LossModel(kind="logistic", dim=dim)


def poisson_loss(dim: int) -> LossModel:
    """Poisson log-likelihood loss with rate exp(theta'x); (R, nu) = (max_i ||x_i||, 2)."""
    return LossModel(kind="poisson", dim=dim)


def expfam_glm_loss(
    dim: int,
    labels: Sequence[float],
    feature_map: Callable[[np.ndarray, float], np.ndarray],
    stat_bound: float,
) -> LossModel:
    """Conditional exponential-family loss over a finite label set.

    Parameters
    ----------
    dim : int
        Parameter dimension.
    labels : sequence of float
        The finite label set; responses must take values in it.
    feature_map : callable
        ``(X, label) -> (n, dim)``: maps the (n, p) sample matrix to the
        sufficient statistics t(x_i, label), bounded by ``stat_bound``.
    stat_bound : float
        M with ||t(x, y)||_2 <= M, checked on the data; (R, nu) = (2M, 2).
    """
    if stat_bound <= 0.0:
        raise DomainError("stat_bound must be positive")
    if len(labels) < 2:
        raise DomainError("expfam_glm needs at least two labels")
    return LossModel(
        kind="expfam_glm",
        dim=dim,
        labels=tuple(float(v) for v in labels),
        feature_map=feature_map,
        stat_bound=float(stat_bound),
    )


def score_matching_loss(dim: int, stacks_fn: Callable[[np.ndarray], tuple]) -> LossModel:
    """Score-matching loss from a callback building the per-sample quadratic forms.

    ``stacks_fn(Z)`` maps the (n, p) matrix of raw samples to the
    stacks (A, b, c): A (n, dim, dim), each symmetric positive
    semidefinite, b (n, dim) and c (n,), so that sample i has loss
    theta'A_i theta/2 - b_i'theta + c_i.  :func:`prepare_batch` checks them
    once per call.  Quadratic in theta, so (R, nu) = (0, 2).
    """
    return LossModel(kind="score_matching", dim=dim, stacks_fn=stacks_fn)


def score_matching_assemble(t_grad, t_lap, h_grad, h_lap):
    """Assemble the stacks of per-sample quadratic forms of the score-matching loss.

    Every argument has a leading axis of the n samples.

    Parameters
    ----------
    t_grad : (n, p, d) array
        Rows are the coordinate derivatives dt/dz_k of the sufficient
        statistic at each sample.
    t_lap : (n, d) array
        Coordinate Laplacian sum_k d2t/dz_k^2.
    h_grad : (n, p) array
        Gradient of the log base density h at each sample.
    h_lap : (n,) array
        Laplacian of h at each sample.

    Returns
    -------
    (A, b, c) : (n, d, d), (n, d) and (n,) arrays
        A = sum_k (dt/dz_k)(dt/dz_k)', symmetric PSD by construction;
        b = -sum_k [d2t/dz_k^2 + (dh/dz_k)(dt/dz_k)];
        c = sum_k [d2h/dz_k^2 + (dh/dz_k)^2/2], so that the loss of sample i
        is theta'A_i theta/2 - b_i'theta + c_i.
    """
    t_grad = np.asarray(t_grad, dtype=float)
    t_lap = np.asarray(t_lap, dtype=float)
    h_grad = np.asarray(h_grad, dtype=float)
    h_lap = np.asarray(h_lap, dtype=float)
    if t_grad.ndim != 3:
        raise DimensionMismatch(f"t_grad must be 3-d, got shape {t_grad.shape}")
    n, p, d = t_grad.shape
    for name, arr, shape in (
        ("t_lap", t_lap, (n, d)), ("h_grad", h_grad, (n, p)), ("h_lap", h_lap, (n,))
    ):
        if arr.shape != shape:
            raise DimensionMismatch(f"{name} has shape {arr.shape}, expected {shape}")
    A = t_grad.swapaxes(1, 2) @ t_grad
    b = -(t_lap + (h_grad[:, None, :] @ t_grad)[:, 0])
    c = h_lap + 0.5 * np.einsum("ik,ik->i", h_grad, h_grad)
    return _symmetric(A), b, c


def _gaussian_stacks(Z: np.ndarray):
    """(A, b, c) stacks of the Gaussian family with t(z) = (z, -z^2/2) coordinatewise."""
    n, p = Z.shape
    # rows of t_grad[i] are dt/dz_k: e_k in the first block, -z_ik e_k in the second
    t_grad = np.zeros((n, p, 2 * p))
    idx = np.arange(p)
    t_grad[:, idx, idx] = 1.0
    t_grad[:, idx, p + idx] = -Z
    t_lap = np.broadcast_to(np.concatenate([np.zeros(p), -np.ones(p)]), (n, 2 * p))
    return score_matching_assemble(t_grad, t_lap, np.zeros((n, p)), np.zeros(n))


def gaussian_score_matching_loss(p: int) -> LossModel:
    """Score-matching loss for the p-variate Gaussian family.

    Sufficient statistic t(z) = (z_1..z_p, -z_1^2/2..-z_p^2/2), so theta
    splits as (a, b) with coordinate laws z_j ~ N(a_j/b_j, 1/b_j); the
    parameter dimension is 2p.
    """
    if p < 1:
        raise DimensionMismatch(f"p must be positive, got {p}")
    return score_matching_loss(dim=2 * p, stacks_fn=_gaussian_stacks)


def model_for_data(kind: str, X: np.ndarray) -> LossModel:
    """Build the canonical LossModel of a kind for a given design matrix.

    ``X`` is the (n, p) feature (or raw-sample) matrix; the model has
    dimension p (2p for score matching, where the Gaussian family is used).
    """
    factories = {"squared": squared_loss, "logistic": logistic_loss, "poisson": poisson_loss,
                 "score_matching": gaussian_score_matching_loss}
    if kind not in factories:
        raise DomainError(f"no data-driven constructor for kind {kind!r}")
    return factories[kind](np.shape(X)[1])


# ---------------------------------------------------------------------------
# batch evaluation
# ---------------------------------------------------------------------------


def _check_data(model: LossModel, X: np.ndarray, y: np.ndarray | None) -> np.ndarray | None:
    """The responses checked against the model; None for score matching.

    X and y are a dataset's, or m datasets' stacked along a leading axis,
    with finite values; this checks the responses and, where theta
    multiplies x, the column count (the callbacks' outputs are checked).
    """
    d = X.shape[-1]
    if model.kind in ("squared", "logistic", "poisson") and d != model.dim:
        raise DimensionMismatch(f"data has {d} columns, model expects {model.dim}")
    if model.kind == "score_matching":
        return None
    if y is None:
        raise DimensionMismatch(f"loss kind {model.kind!r} requires responses")
    if model.kind == "logistic":
        if not np.all((y == 1.0) | (y == -1.0)):
            bad = y[(y != 1.0) & (y != -1.0)][0]
            raise InvalidLabel(f"logistic labels must be -1 or +1, got {bad}")
    elif model.kind == "poisson":
        if not (np.all(y >= 0.0) and np.all(y == np.floor(y))):
            bad = y[(y < 0.0) | (y != np.floor(y))][0]
            raise InvalidLabel(f"poisson responses must be nonnegative integers, got {bad}")
    elif model.kind == "expfam_glm":
        mask = np.isin(y, model.labels)
        if not np.all(mask):
            raise InvalidLabel(
                f"label {y[~mask][0]} not in the model label set {model.labels}"
            )
    return y


def check_theta(model: LossModel, theta) -> np.ndarray:
    """theta as a finite float vector of the model's dimension."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dim,):
        raise DimensionMismatch(
            f"theta has shape {theta.shape}, model dim is {model.dim}"
        )
    if not np.all(np.isfinite(theta)):
        raise DomainError(f"theta must be finite, got {theta.tolist()}")
    return theta


def linear_coefficients(kind: str, eta: np.ndarray, y: np.ndarray, value: bool = True):
    """The squared, logistic and Poisson losses as functions of eta = x'theta.

    Returns (value, gradient factor, curvature) per sample: the loss is
    value, its gradient in theta is factor * x and its Hessian curvature
    * x x'.  ``value=False`` skips the value (returned as None).  ``eta``
    may carry leading slot axes that broadcast against y.  Poisson
    predictors are clipped at the overflow limit; callers test
    :func:`exp_overflow` first.
    """
    # each (m, n) array below is reused in place once allocated: a fresh
    # array costs its allocation and its first touch
    if kind == "squared":
        resid = eta - y
        vals = None
        if value:
            vals = 0.5 * resid
            vals *= resid
        return vals, resid, np.ones_like(eta)
    if kind == "logistic":
        margin = y * eta
        # s = 1 / (1 + exp(-margin)), as expit forms it but with numpy's
        # vectorized exp; the clip keeps exp finite, and s still rounds to
        # exactly 1.0 at large margins, where curvature and factor vanish
        s = np.minimum(np.negative(margin), _EXP_LIMIT)
        np.exp(s, out=s)
        s += 1.0
        np.reciprocal(s, out=s)
        vals = None
        if value:
            # log(1 + exp(-margin)) by the terms of np.logaddexp(0, -margin),
            # at a fifth of its cost
            vals = np.abs(margin)
            np.log1p(np.exp(np.negative(vals, out=vals), out=vals), out=vals)
            vals += np.maximum(np.negative(margin, out=margin), 0.0, out=margin)
        curv = np.subtract(1.0, s, out=margin)
        curv *= s
        gfac = np.subtract(s, 1.0, out=s)
        gfac *= y
        return vals, gfac, curv
    if kind == "poisson":
        mu = np.minimum(eta, _EXP_LIMIT)
        np.exp(mu, out=mu)
        vals = None
        if value:
            vals = y * eta
            np.subtract(mu, vals, out=vals)
        return vals, mu - y, mu
    raise DomainError(f"loss kind {kind!r} is not a function of x'theta")


def exp_overflow(eta: np.ndarray):
    """Whether exp(eta) overflows double precision, per row of the last axis."""
    return np.max(eta, axis=-1, initial=-np.inf) > _EXP_LIMIT


def _expfam_stats(model: LossModel, X: np.ndarray) -> np.ndarray:
    """Stack t(x_i, label_k) into an (n, K, dim) array, one feature_map call per label.

    A statistic longer than the model's ``stat_bound`` raises DomainError.
    """
    n = X.shape[0]
    T = np.empty((n, len(model.labels), model.dim))
    for k, lab in enumerate(model.labels):
        t = np.asarray(model.feature_map(X, lab), dtype=float)
        if t.shape != (n, model.dim):
            raise DimensionMismatch(
                f"feature_map returned shape {t.shape}, expected ({n}, {model.dim})"
            )
        T[:, k] = t
    longest = float(np.max(np.linalg.norm(T, axis=2)))
    if longest > model.stat_bound:
        raise DomainError(f"a statistic t(x, y) has norm {longest:.6g}, "
                          f"past the model's stat_bound {model.stat_bound:.6g}")
    return T


def _expfam_observed(model: LossModel, T: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pick t(x_i, y_i) rows out of the stacked statistics."""
    labels = np.asarray(model.labels)
    idx = np.searchsorted(np.sort(labels), y)
    order = np.argsort(labels)
    return T[np.arange(T.shape[0]), order[idx]]


def _score_matching_stacks(model: LossModel, X: np.ndarray):
    """The checked (A, b, c) stacks of ``model.stacks_fn(X)``.

    Each array must have its shape and finite entries, and each A_i must be
    symmetric and positive semidefinite to within 1e-10 of its spectral
    scale ||A_i||_2 (or of 1, when that is smaller); an error names the
    first sample row that breaks a rule.
    """
    n, d = X.shape[0], model.dim
    A, b, c = (np.asarray(s, dtype=float) for s in model.stacks_fn(X))
    for name, arr, shape in (("A", A, (n, d, d)), ("b", b, (n, d)), ("c", c, (n,))):
        if arr.shape != shape:
            raise DimensionMismatch(f"stacks_fn returned {name} of shape {arr.shape}, "
                                    f"expected {shape}")
    finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(b).all(axis=1) & np.isfinite(c)
    if not finite.all():
        raise DomainError(f"score-matching stacks have a non-finite value in sample "
                          f"row {np.argmin(finite)}")
    eigs = np.linalg.eigvalsh(A)
    asym = np.max(np.abs(A - A.swapaxes(1, 2)), axis=(1, 2))
    # ||A_i||_2 of a symmetric A_i is its largest |eigenvalue|: no SVD needed
    scale = np.max(np.abs(eigs), axis=1)
    scale[asym > 0.0] = np.linalg.norm(A[asym > 0.0], 2, axis=(1, 2))
    tol = 1e-10 * np.maximum(scale, 1.0)
    rules = ((asym > tol, "symmetric"), (eigs[:, 0] < -tol, "positive semidefinite"))
    for bad, rule in rules:
        if bad.any():
            raise DomainError(f"A of sample row {np.argmax(bad)} must be {rule}")
    return A, b, c


def _symmetric(H: np.ndarray) -> np.ndarray:
    # removes reduction round-off; exact on an already symmetric matrix
    return 0.5 * (H + H.swapaxes(-1, -2))


# rough element budget for one slot chunk's temporaries, and for the packed
# table of row outer products kept by a Batch; past it the table is built
# per row block whenever it is used
_CHUNK_ELEMENTS = 8_000_000

# element budget of the slots evaluated together: a block of a batch's slots,
# whose (slots, n) temporaries then stay in cache and are reused from one
# block to the next instead of being faulted in afresh; a chunk of
# replications fitted in one engine call is one such block, 100 datasets at
# n = 500 and 50 at n = 1000
_STACK_ELEMENTS = 50_000


class _OuterTable:
    """Sums sum_r C_br z_r z_r' over the rows z_r of Z, for every row b of C.

    The rows of C share a table of the upper triangles of z_r z_r',
    d(d+1)/2 columns per row r, built on first use: the sums are one matrix
    product C @ table, mirrored into full matrices that are exactly
    symmetric.  The table counts against
    ``_CHUNK_ELEMENTS``: when it would exceed the budget it is not kept,
    and each product runs over row blocks of Z whose tables are built as
    they are needed.
    """

    def __init__(self, Z: np.ndarray):
        self.Z = Z
        rows, d = Z.shape
        block = max(1, _CHUNK_ELEMENTS // (d * (d + 1) // 2))
        self.blocks = [slice(start, start + block) for start in range(0, rows, block)]
        self.table = None

    @cached_property
    def _triangle(self):
        # row and column of each upper-triangle entry, and the flat positions
        # of the entry and of its mirror in a d x d matrix
        d = self.Z.shape[1]
        iu, ju = np.triu_indices(d)
        return iu, ju, iu * d + ju, ju * d + iu

    def _build(self, rows: slice) -> np.ndarray:
        iu, ju, _, _ = self._triangle
        Zr = self.Z[rows]
        return Zr[:, iu] * Zr[:, ju]

    def products(self, C: np.ndarray) -> np.ndarray:
        """sum_r C_br z_r z_r' for every row b of C, an (m, d, d) array."""
        m, d = C.shape[0], self.Z.shape[1]
        if self.table is None and len(self.blocks) == 1:
            self.table = self._build(self.blocks[0])
        G = sum(
            C[:, rows] @ (self._build(rows) if self.table is None else self.table)
            for rows in self.blocks
        )
        _, _, upper, lower = self._triangle
        H = np.empty((m, d * d))
        H[:, upper] = G
        H[:, lower] = G
        return H.reshape(m, d, d)


@dataclass(frozen=True, eq=False)
class Batch:
    """The checked data of one call plus the per-sample stacks of its loss.

    Built by :func:`prepare_batch`.  ``stacks`` is empty for the
    linear-predictor kinds, ``(T, T_obs)`` for expfam_glm (t(x_i, label_k)
    as an (n, K, dim) array and the observed rows t(x_i, y_i) as (n, dim)),
    and ``(A, b, c)`` for score_matching.  Every evaluation below reuses
    them, so a fit that holds one Batch runs the model's callbacks
    (``feature_map``, ``stacks_fn``) once.  ``R`` is the loss's R on this
    data, measured on first use, and ``sc_params`` the (R, nu) it belongs to.
    :meth:`slot_evaluate` evaluates m slots at once, slot b at ``Theta[b]``
    with weights ``W[b]``; the other methods evaluate at one parameter.

    A batch made by :func:`prepare_stack` is stacked: slot b has a dataset
    of its own, X is (m, n, d), y (m, n), every stack has a leading slot
    axis, and ``R`` holds the R of each slot's dataset.  Its slot b
    evaluates with the arithmetic of the single dataset's batch at m = 1,
    so the two agree bit for bit, and ``take(b)`` is slot b's own batch.
    """

    model: LossModel
    X: np.ndarray
    y: np.ndarray | None
    stacks: tuple = ()

    @property
    def n(self) -> int:
        return self.X.shape[-2]

    @property
    def stacked(self) -> bool:
        return self.X.ndim == 3

    @cached_property
    def R(self) -> float | np.ndarray:
        """R of the loss on this data: a float, or one per slot when stacked.

        max_i ||x_i|| for logistic and Poisson, 2M for expfam_glm, and 0
        for the quadratic kinds.
        """
        kind = self.model.kind
        if kind == "expfam_glm":
            return 2.0 * self.model.stat_bound
        if kind in _R_PER_X_NORM:
            R = _R_PER_X_NORM[kind] * np.max(np.linalg.norm(self.X, axis=-1), axis=-1)
        else:
            R = np.zeros(self.X.shape[:-2])
        return R if self.stacked else float(R)

    @property
    def sc_params(self) -> ScParams:
        """Self-concordance parameters (R n^{nu/2-1}, nu) of the batch's empirical risks.

        Every kind has nu = 2, so they are ``R`` and 2.
        """
        return ScParams(R=self.R, nu=2.0)

    def take(self, keep) -> "Batch":
        """The batch of the slots ``keep``, or slot ``keep``'s own batch for an int.

        A batch that is not stacked serves any slots.
        """
        if not self.stacked:
            return self
        y = None if self.y is None else self.y[keep]
        stacks = tuple(s[keep] for s in self.stacks)
        batch = Batch(self.model, self.X[keep], y, stacks)
        if "R" in self.__dict__:
            # already measured: the kept slots keep theirs
            batch.__dict__["R"] = self.R[keep] if batch.stacked else float(self.R[keep])
        return batch

    @property
    def _slot_elements(self) -> int:
        """Entries of one slot's temporaries: (n,) rows, (n, K, dim) for expfam_glm."""
        if self.model.kind == "expfam_glm":
            return self.n * self.stacks[0].shape[1] * self.model.dim
        return self.n

    def max_slots(self) -> int:
        """How many slots fit ``_CHUNK_ELEMENTS``."""
        return max(1, _CHUNK_ELEMENTS // self._slot_elements)

    @cached_property
    def _outer(self) -> _OuterTable:
        # the rows whose weighted outer products make up H_n
        if self.model.kind == "expfam_glm":
            return _OuterTable(self.stacks[0].reshape(-1, self.model.dim))
        return _OuterTable(self.X)

    def _dot_rows(self, V: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """V_b'z_i for every slot b and row z_i of Z (of slot b's Z when stacked), (m, n)."""
        if self.stacked:
            return (V[:, None, :] @ Z.swapaxes(1, 2))[:, 0]
        return V @ Z.T

    def _sum_rows(self, C: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """sum_i C_bi z_i for every slot b over the rows of Z (of slot b's Z when stacked)."""
        if self.stacked:
            return (C[:, None, :] @ Z)[:, 0]
        return C @ Z

    def _sum_outer(self, C: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """sum_i C_bi z_i z_i' for every slot b over the rows z_i of Z, an (m, d, d) array.

        The rows are X (slot b's X when stacked), or the t(x_i, label_k) of
        expfam_glm.  A stacked or one-slot batch takes one matrix product
        ((c z)' z) per slot; more slots share a table (see :class:`_OuterTable`).
        """
        if not self._tabled(C.shape[0]):
            return (C[:, :, None] * Z).swapaxes(-1, -2) @ Z
        return self._outer.products(C)

    def _tabled(self, m: int) -> bool:
        """Whether m slots sum the shared table in :meth:`_sum_outer`: exactly symmetric sums."""
        return not self.stacked and m > 1

    def _eta(self, Theta: np.ndarray) -> np.ndarray:
        """Linear predictors x_i'theta_b; a Poisson exp(eta) that overflows raises."""
        eta = self._dot_rows(Theta, self.X)
        if self.model.kind == "poisson" and np.any(exp_overflow(eta)):
            raise NumericOverflow(
                f"exp(theta'x) overflows double precision (max eta = {np.max(eta):.3g})"
            )
        return eta

    def _expfam(self, Theta: np.ndarray):
        """Per-sample losses (m, n) and label probabilities (m, n, K) of every slot.

        One pass of exp over the shifted logits theta't(x_i, label_k) gives
        both the log-partition (max-shift trick) and the probabilities.
        """
        T = self.stacks[0]
        n, K, d = T.shape
        logits = (Theta @ T.reshape(n * K, d).T).reshape(-1, n, K)
        top = logits.max(axis=2, keepdims=True)
        expd = np.exp(logits - top)
        total = expd.sum(axis=2, keepdims=True)
        probs = expd / total
        values = (top + np.log(total))[:, :, 0] - Theta @ self.stacks[1].T
        return values, probs

    def _mean_stat(self, probs: np.ndarray) -> np.ndarray:
        """Expected statistic sum_k p_ik t(x_i, label_k) per slot and sample, (m, n, dim)."""
        return np.einsum("bik,ikj->bij", probs, self.stacks[0])

    def values(self, theta: np.ndarray) -> np.ndarray:
        """Per-sample loss values, an (n,) array."""
        kind = self.model.kind
        if kind == "expfam_glm":
            return self._expfam(theta[None])[0][0]
        if kind == "score_matching":
            A, b, c = self.stacks
            return 0.5 * (A @ theta) @ theta - b @ theta + c
        return linear_coefficients(kind, self._eta(theta[None]), self.y)[0][0]

    def grads(self, theta: np.ndarray) -> np.ndarray:
        """Per-sample gradients, an (n, dim) array."""
        kind = self.model.kind
        if kind == "expfam_glm":
            return self._mean_stat(self._expfam(theta[None])[1])[0] - self.stacks[1]
        if kind == "score_matching":
            A, b, _ = self.stacks
            return A @ theta - b
        gfac = linear_coefficients(kind, self._eta(theta), self.y, value=False)[1]
        return gfac[:, None] * self.X

    def slot_evaluate(self, Theta: np.ndarray, W: np.ndarray, rows: np.ndarray | None = None):
        """Weighted risk L, mean gradient S and Hessian H of every slot.

        This is one Newton iteration's evaluation, and the one computation
        of L_n: the linear-predictor kinds take L, S and H from one pass over
        eta, expfam_glm from one set of logits, and score matching from the
        means W A/n, W b/n and W c/n.  Slot b weighs its samples by
        ``W[b]``, or by ``W[rows[b]]`` when the engine passes the index
        ``rows`` of its live slots into the caller's W.  Returns (L, S, H,
        overflow): L is (m,), S (m, dim), H (m, dim, dim) and symmetrized,
        and ``overflow`` marks the Poisson slots whose exp(eta) overflows,
        whose L is inf and whose S and H are zero.  H, like the first term
        of the expfam_glm Hessian, is one matrix product (see
        :meth:`_sum_outer`).

        The slots of a batch that is not stacked are evaluated in blocks
        whose (slots, n) temporaries, (slots, n, K, dim) for expfam_glm,
        hold at most ``_STACK_ELEMENTS`` entries (at least one slot), each
        block written into the outputs.  A block reads its weights as a
        slice of W, or gathers only its own rows through ``rows``.  Score
        matching has no such temporary and a stacked batch's chunk is
        already that small: both are one block.
        """
        m = Theta.shape[0]
        block = m
        if not self.stacked and self.model.kind != "score_matching":
            block = max(1, _STACK_ELEMENTS // self._slot_elements)
        if m <= block:
            return self._evaluate_block(Theta, W if rows is None else W[rows])
        d = self.model.dim
        L, S, H = np.empty(m), np.empty((m, d)), np.empty((m, d, d))
        overflow = np.empty(m, dtype=bool)
        for start in range(0, m, block):
            part = slice(start, start + block)
            L[part], S[part], H[part], overflow[part] = self._evaluate_block(
                Theta[part], W[part] if rows is None else W[rows[part]]
            )
        return L, S, H, overflow

    def _evaluate_block(self, Theta: np.ndarray, W: np.ndarray):
        """:meth:`slot_evaluate` of one block of slots."""
        kind = self.model.kind
        n = self.n
        m, d = Theta.shape
        overflow = np.zeros(m, dtype=bool)
        if kind == "score_matching":
            A, b, c = self.stacks
            H = self._sum_rows(W, A.reshape(*A.shape[:-2], d * d)).reshape(m, d, d) / n
            H_theta, b_mean = np.einsum("bjk,bk->bj", H, Theta), self._sum_rows(W, b) / n
            S = H_theta - b_mean
            c_mean = self._mean(W, np.broadcast_to(c, W.shape))
            L = np.einsum("bj,bj->b", Theta, 0.5 * H_theta - b_mean) + c_mean
        elif kind == "expfam_glm":
            values, probs = self._expfam(Theta)
            L = self._mean(W, values)
            mean_t = self._mean_stat(probs)
            S = np.einsum("bi,bij->bj", W, mean_t - self.stacks[1]) / n
            second = (W[:, :, None] * mean_t).swapaxes(1, 2) @ mean_t
            rows = self.stacks[0].reshape(-1, d)
            H = (self._sum_outer((W[:, :, None] * probs).reshape(m, -1), rows) - second) / n
        else:
            eta = self._dot_rows(Theta, self.X)
            if kind == "poisson":
                overflow = exp_overflow(eta)
                if overflow.any():
                    # an overflowing slot gets zero weights: its S and H are zero
                    W = W * ~overflow[:, None]
            vals, gfac, curv = linear_coefficients(kind, eta, self.y)
            L = self._mean(W, vals)
            L[overflow] = np.inf
            # weighted in place: an (m, n) temporary less per product
            S = self._sum_rows(np.multiply(W, gfac, out=gfac), self.X) / n
            H = self._sum_outer(np.multiply(W, curv, out=curv), self.X) / n
            if self._tabled(m):
                # exactly symmetric already, where _symmetric is an exact no-op
                return L, S, H, overflow
        return L, S, _symmetric(H), overflow

    def evaluate(self, theta: np.ndarray, w: np.ndarray):
        """Weighted risk L_n, mean gradient S_n and Hessian H_n at theta: one slot."""
        L, S, H, overflow = self.slot_evaluate(theta[None], w[None])
        if overflow[0]:
            raise NumericOverflow("exp(theta'x) overflows double precision")
        return float(L[0]), S[0], H[0]

    def _mean(self, W: np.ndarray, V: np.ndarray) -> np.ndarray:
        """n^-1 sum_i W_bi V_bi of every slot: how the risk averages per-sample values."""
        return np.einsum("bi,bi->b", W, V) / self.n

    def score_moment(self, theta: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Score second moment G_n at theta.

        G_n averages the outer products of the weighted per-sample
        gradients; it is symmetrized and PSD by construction.
        """
        wg = w[:, None] * self.grads(theta)
        return _symmetric(wg.T @ wg / self.n)


def prepare_batch(model: LossModel, data: Dataset) -> Batch:
    """Check a dataset against the model and build its per-sample stacks once."""
    return _prepare(model, data.X, data.y)


def prepare_stack(model: LossModel, X: np.ndarray, y: np.ndarray | None) -> Batch:
    """The stacked batch of m datasets of equal n, slot b holding X[b] (n, d) and y[b].

    One check covers the stack: a non-finite value raises the error of
    the first dataset that holds one, as :class:`~scmest.simdata.Dataset`
    words it, and the model's checks run over all slots at once.  The
    per-sample stacks are built in one pass over every row, so slot b
    equals ``prepare_batch(model, Dataset(X=X[b], y=y[b]))`` bit for bit,
    and measures the R of its dataset.  expfam_glm data do not stack:
    their Hessians sum one shared table of outer products.
    """
    if model.kind == "expfam_glm":
        raise DomainError("expfam_glm batches do not stack")
    finite = np.isfinite(X).all(axis=(1, 2))
    if y is not None:
        finite &= np.isfinite(y).all(axis=1)
    if not finite.all():
        b = int(np.argmin(finite))
        # raises: X[b] or y[b] holds a non-finite value
        Dataset(X=X[b], y=None if y is None else y[b])
    return _prepare(model, X, y)


def _prepare(model: LossModel, X: np.ndarray, y: np.ndarray | None) -> Batch:
    """The batch of one dataset, or of m stacked along a leading axis, checked against the model."""
    y = _check_data(model, X, y)
    stacks = ()
    if model.kind == "expfam_glm":
        T = _expfam_stats(model, X)
        stacks = (T, _expfam_observed(model, T, y))
    elif model.kind == "score_matching":
        # the stacks of every row in one pass, given back their slot axis
        rows = _score_matching_stacks(model, X.reshape(-1, X.shape[-1]))
        stacks = tuple(s.reshape(*X.shape[:-1], *s.shape[1:]) for s in rows)
    return Batch(model, X, y, stacks)


def check_weights(w, n: int) -> np.ndarray:
    """Weights as a length-n float vector; None means all ones.

    Multiplying by unit weights is exact, so weights=ones reproduces the
    unweighted results bit for bit.  A wrong shape raises
    DimensionMismatch, and a NaN or infinite weight DomainError.
    """
    if w is None:
        return np.ones(n)
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise DimensionMismatch(f"weights have shape {w.shape}, expected ({n},)")
    if not np.all(np.isfinite(w)):
        raise DomainError("weights must be finite")
    return w


def batch_values(model: LossModel, theta, X, y=None) -> np.ndarray:
    """Per-sample loss values, an (n,) array."""
    batch = prepare_batch(model, Dataset(X=X, y=y))
    return batch.values(check_theta(model, theta))


def batch_grads(model: LossModel, theta, X, y=None) -> np.ndarray:
    """Per-sample gradients, an (n, dim) array."""
    batch = prepare_batch(model, Dataset(X=X, y=y))
    return batch.grads(check_theta(model, theta))


def mean_hessian(model: LossModel, theta, X, y=None, weights=None) -> np.ndarray:
    """Weighted mean Hessian n^-1 sum_i w_i H(theta; z_i), a (dim, dim) array.

    ``weights`` defaults to all ones.  The arithmetic is that of
    :meth:`Batch.evaluate`; the result is symmetrized to remove
    reduction round-off.
    """
    batch = prepare_batch(model, Dataset(X=X, y=y))
    theta = check_theta(model, theta)
    return batch.evaluate(theta, check_weights(weights, batch.n))[2]
