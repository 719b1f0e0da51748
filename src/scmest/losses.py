"""The loss zoo: per-sample values, gradients, Hessians, and (R, nu) declarations.

Five loss kinds are supported, all convex in theta:

==============  =====================================================  ==========
kind            per-sample loss l(theta; z)                            (R, nu)
==============  =====================================================  ==========
squared         (y - theta'x)^2 / 2                                    (0, 2)
logistic        log(1 + exp(-y theta'x)),  y in {-1, +1}               (2 max||x||, 2)
poisson         -y theta'x + exp(theta'x),  y in {0, 1, 2, ...}        (max||x||, 2)
expfam_glm      -theta't(x, y) + log sum_y' exp(theta't(x, y'))        (2M, 2)
score_matching  theta'A(z)theta/2 - b(z)'theta + c(z)                  (0, 2)
==============  =====================================================  ==========

For ``expfam_glm`` the label set is finite and the sufficient statistic is
bounded, ``||t(x, y)||_2 <= M``, so the log-partition is an exact finite sum
evaluated with the max-shift trick.  ``score_matching`` consumes raw sample
vectors z and a callback producing the per-sample quadratic form (A, b, c);
:func:`score_matching_assemble` builds that triple from derivatives of the
sufficient statistic t and the base density term h.

Besides the per-sample operations the module exposes batch versions; both
run the same arithmetic.  The fitting code works on a :class:`Batch`, made
once per call by :func:`prepare_batch`: it checks X and y and builds the
per-sample stacks (the expfam_glm statistics, the score-matching (A, b, c))
that every later evaluation reuses.  A Batch evaluates S_n, H_n and L_n of
m parameter and weight rows at once, for every kind, so the Newton engine
of :mod:`scmest.estimate` has no per-kind arithmetic; H_n of one row is one
matrix product ((w c) x)' x, more rows share a packed table of x_i x_i'.
The squared, logistic and Poisson losses are each defined once, in
:func:`linear_coefficients`.  LossModel instances are immutable and all
evaluations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit, logsumexp, softmax

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    InvalidLabel,
    NumericOverflow,
)
from .scfun import ScParams

__all__ = [
    "LOSS_KINDS",
    "LossModel",
    "Observation",
    "ScoreMatchingTriple",
    "squared_loss",
    "logistic_loss",
    "poisson_loss",
    "expfam_glm_loss",
    "score_matching_loss",
    "gaussian_score_matching_loss",
    "model_for_data",
    "loss_value",
    "loss_grad",
    "loss_hess",
    "loss_third_dir",
    "score_matching_assemble",
]

LOSS_KINDS = ("squared", "logistic", "poisson", "expfam_glm", "score_matching")

# exp(eta) beyond this overflows double precision
_EXP_LIMIT = 700.0


@dataclass(frozen=True)
class Observation:
    """One sample: a feature vector plus scalar response, or a raw vector.

    ``response`` is None for score matching, where ``features`` holds the raw
    sample z.
    """

    features: np.ndarray
    response: float | None = None

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=float)
        object.__setattr__(self, "features", feats)
        if feats.ndim != 1 or not np.all(np.isfinite(feats)):
            raise DomainError("observation features must be a finite 1-d vector")
        if self.response is not None and not np.isfinite(self.response):
            raise DomainError("observation response must be finite")


@dataclass(frozen=True)
class ScoreMatchingTriple:
    """Per-sample quadratic form (A, b, c) of the score-matching loss.

    A must be symmetric positive semidefinite (eigenvalues >= -1e-10 ||A||).
    """

    A: np.ndarray
    b: np.ndarray
    c: float

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise DimensionMismatch(
                f"b has shape {b.shape}, expected ({A.shape[0]},)"
            )
        eigs = np.linalg.eigvalsh(A) if A.size else np.zeros(1)
        # ||A||_2 of a symmetric A is its largest |eigenvalue|: no SVD needed
        symmetric = np.array_equal(A, A.T)
        scale = float(np.max(np.abs(eigs))) if symmetric else float(np.linalg.norm(A, 2))
        if float(np.max(np.abs(A - A.T), initial=0.0)) > 1e-10 * max(scale, 1.0):
            raise DomainError("A must be symmetric")
        if float(eigs[0]) < -1e-10 * max(scale, 1.0):
            raise DomainError("A must be positive semidefinite")


@dataclass(frozen=True)
class LossModel:
    """A per-sample loss with declared self-concordance parameters.

    Build instances through the factory functions (:func:`squared_loss`,
    :func:`logistic_loss`, ...) rather than directly; they fill in the
    canonical (R, nu) declaration for each kind.

    Attributes
    ----------
    kind : str
        One of ``LOSS_KINDS``.
    dim : int
        Length of theta.
    sc : ScParams
        Declared self-concordance parameters of the per-sample loss.
    labels : tuple of float, optional
        Finite label set (expfam_glm only).
    feature_map : callable, optional
        ``t(x, y) -> (dim,)`` sufficient statistic (expfam_glm only).
    stat_bound : float, optional
        Bound M with ||t(x, y)|| <= M (expfam_glm only).
    triple_fn : callable, optional
        ``z -> ScoreMatchingTriple`` (score_matching only).
    raw_dim : int, optional
        Dimension of the raw sample z (score_matching only).
    """

    kind: str
    dim: int
    sc: ScParams
    labels: tuple[float, ...] | None = None
    feature_map: Callable[[np.ndarray, float], np.ndarray] | None = None
    stat_bound: float | None = None
    triple_fn: Callable[[np.ndarray], ScoreMatchingTriple] | None = None
    raw_dim: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise DomainError(f"unknown loss kind {self.kind!r}")
        if self.dim < 1:
            raise DimensionMismatch(f"dim must be positive, got {self.dim}")
        if self.kind == "expfam_glm" and (
            not self.labels or self.feature_map is None or self.stat_bound is None
        ):
            raise DomainError("expfam_glm needs labels, feature_map, and stat_bound")
        if self.kind == "score_matching" and (self.triple_fn is None or self.raw_dim is None):
            raise DomainError("score_matching needs triple_fn and raw_dim")


def squared_loss(dim: int) -> LossModel:
    """Least-squares loss (y - theta'x)^2 / 2; quadratic, so (R, nu) = (0, 2)."""
    return LossModel(kind="squared", dim=dim, sc=ScParams(0.0, 2.0))


def logistic_loss(dim: int, x_bound: float) -> LossModel:
    """Logistic loss with labels in {-1, +1}.

    ``x_bound`` is max_i ||x_i||_2 over the data the model will see; the
    declared parameters are (R, nu) = (2 x_bound, 2).
    """
    if x_bound < 0.0:
        raise DomainError("x_bound must be nonnegative")
    return LossModel(kind="logistic", dim=dim, sc=ScParams(2.0 * x_bound, 2.0))


def poisson_loss(dim: int, x_bound: float) -> LossModel:
    """Poisson log-likelihood loss with rate exp(theta'x); (R, nu) = (x_bound, 2)."""
    if x_bound < 0.0:
        raise DomainError("x_bound must be nonnegative")
    return LossModel(kind="poisson", dim=dim, sc=ScParams(x_bound, 2.0))


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
        ``t(x, y) -> (dim,)`` sufficient statistic, bounded by ``stat_bound``.
    stat_bound : float
        M with ||t(x, y)||_2 <= M; the declared parameters are (2M, 2).
    """
    if stat_bound <= 0.0:
        raise DomainError("stat_bound must be positive")
    if len(labels) < 2:
        raise DomainError("expfam_glm needs at least two labels")
    return LossModel(
        kind="expfam_glm",
        dim=dim,
        sc=ScParams(2.0 * stat_bound, 2.0),
        labels=tuple(float(v) for v in labels),
        feature_map=feature_map,
        stat_bound=float(stat_bound),
    )


def score_matching_loss(
    dim: int,
    raw_dim: int,
    triple_fn: Callable[[np.ndarray], ScoreMatchingTriple],
) -> LossModel:
    """Score-matching loss from a per-sample quadratic-form callback.

    ``triple_fn(z)`` must return the :class:`ScoreMatchingTriple` of the raw
    sample z (a ``raw_dim``-vector).  Quadratic in theta, so (R, nu) = (0, 2).
    """
    return LossModel(
        kind="score_matching",
        dim=dim,
        sc=ScParams(0.0, 2.0),
        triple_fn=triple_fn,
        raw_dim=int(raw_dim),
    )


def _gaussian_triple(z: np.ndarray) -> ScoreMatchingTriple:
    """Triple for the Gaussian family with t(z) = (z, -z^2/2) coordinatewise."""
    z = np.asarray(z, dtype=float)
    p = z.shape[0]
    # rows of t_grad are dt/dz_k: e_k in the first block, -z_k e_k in the second
    t_grad = np.zeros((p, 2 * p))
    idx = np.arange(p)
    t_grad[idx, idx] = 1.0
    t_grad[idx, p + idx] = -z
    t_lap = np.concatenate([np.zeros(p), -np.ones(p)])
    return score_matching_assemble(t_grad, t_lap, np.zeros(p), 0.0)


def gaussian_score_matching_loss(p: int) -> LossModel:
    """Score-matching loss for the p-variate Gaussian family.

    Sufficient statistic t(z) = (z_1..z_p, -z_1^2/2..-z_p^2/2), so theta
    splits as (a, b) with coordinate laws z_j ~ N(a_j/b_j, 1/b_j); the
    parameter dimension is 2p.
    """
    if p < 1:
        raise DimensionMismatch(f"p must be positive, got {p}")
    return score_matching_loss(dim=2 * p, raw_dim=p, triple_fn=_gaussian_triple)


def model_for_data(kind: str, X: np.ndarray, dim: int | None = None) -> LossModel:
    """Build the canonical LossModel of a kind for a given design matrix.

    For logistic and poisson the data bound max_i ||x_i||_2 enters the
    declared R.  ``X`` is the (n, p) feature (or raw-sample) matrix; ``dim``
    defaults to p (2p for score matching, where the Gaussian family is used).
    """
    X = np.asarray(X, dtype=float)
    p = X.shape[1]
    if kind == "squared":
        return squared_loss(dim or p)
    if kind == "logistic":
        return logistic_loss(dim or p, float(np.max(np.linalg.norm(X, axis=1))))
    if kind == "poisson":
        return poisson_loss(dim or p, float(np.max(np.linalg.norm(X, axis=1))))
    if kind == "score_matching":
        return gaussian_score_matching_loss(p)
    raise DomainError(f"no data-driven constructor for kind {kind!r}")


# ---------------------------------------------------------------------------
# batch evaluation
# ---------------------------------------------------------------------------


def _check_data(model: LossModel, X, y):
    """Validate the design matrix and responses of one call against the model."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"X must be 2-d, got shape {X.shape}")
    if X.shape[0] == 0:
        raise EmptyDataset("need at least one observation")
    expected_cols = model.raw_dim if model.kind == "score_matching" else model.dim
    if X.shape[1] != expected_cols:
        raise DimensionMismatch(
            f"data has {X.shape[1]} columns, model expects {expected_cols}"
        )
    if model.kind == "score_matching":
        return X, None
    if y is None:
        raise DimensionMismatch(f"loss kind {model.kind!r} requires responses")
    y = np.asarray(y, dtype=float)
    if y.shape != (X.shape[0],):
        raise DimensionMismatch(
            f"y has shape {y.shape}, expected ({X.shape[0]},)"
        )
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
    return X, y


def check_theta(model: LossModel, theta) -> np.ndarray:
    """theta as a float vector of the model's dimension."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dim,):
        raise DimensionMismatch(
            f"theta has shape {theta.shape}, model dim is {model.dim}"
        )
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
    if kind == "squared":
        resid = eta - y
        return (0.5 * resid * resid if value else None), resid, np.ones_like(eta)
    if kind == "logistic":
        margin = y * eta
        s = expit(margin)
        vals = np.logaddexp(0.0, -margin) if value else None
        return vals, (s - 1.0) * y, s * (1.0 - s)
    if kind == "poisson":
        mu = np.exp(np.minimum(eta, _EXP_LIMIT))
        return (mu - y * eta if value else None), mu - y, mu
    raise DomainError(f"loss kind {kind!r} is not a function of x'theta")


def exp_overflow(eta: np.ndarray):
    """Whether exp(eta) overflows double precision, per row of the last axis."""
    return np.max(eta, axis=-1, initial=-np.inf) > _EXP_LIMIT


def _expfam_stats(model: LossModel, X: np.ndarray) -> np.ndarray:
    """Stack t(x_i, label_k) into an (n, K, dim) array."""
    n = X.shape[0]
    K = len(model.labels)
    T = np.empty((n, K, model.dim))
    for i in range(n):
        for k, lab in enumerate(model.labels):
            t = np.asarray(model.feature_map(X[i], lab), dtype=float)
            if t.shape != (model.dim,):
                raise DimensionMismatch(
                    f"feature_map returned shape {t.shape}, expected ({model.dim},)"
                )
            T[i, k] = t
    return T


def _expfam_observed(model: LossModel, T: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pick t(x_i, y_i) rows out of the stacked statistics."""
    labels = np.asarray(model.labels)
    idx = np.searchsorted(np.sort(labels), y)
    order = np.argsort(labels)
    return T[np.arange(T.shape[0]), order[idx]]


def _score_matching_stacks(model: LossModel, X: np.ndarray):
    """Stack per-sample (A, b, c) into (n, d, d), (n, d), (n,) arrays."""
    n = X.shape[0]
    d = model.dim
    A = np.empty((n, d, d))
    b = np.empty((n, d))
    c = np.empty(n)
    for i in range(n):
        triple = model.triple_fn(X[i])
        if triple.A.shape != (d, d):
            raise DimensionMismatch(
                f"triple A has shape {triple.A.shape}, expected ({d}, {d})"
            )
        A[i] = triple.A
        b[i] = triple.b
        c[i] = triple.c
    return A, b, c


def _symmetric(H: np.ndarray) -> np.ndarray:
    # removes reduction round-off; exact on an already symmetric matrix
    return 0.5 * (H + H.swapaxes(-1, -2))


# rough element budget for one slot chunk's temporaries, and for the packed
# table of row outer products kept by a Batch; past it the table is built
# per row block whenever it is used
_CHUNK_ELEMENTS = 8_000_000


class _OuterTable:
    """Sums sum_r C_br z_r z_r' over the rows z_r of Z, for every row b of C.

    One row of C is one matrix product ((c z)' z).  More rows share a table
    of the upper triangles of z_r z_r', d(d+1)/2 columns per row r, built on
    first use: the sums are one matrix product C @ table, mirrored into
    full matrices that are exactly symmetric.  The table counts against
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
        if m == 1:
            return ((C[0][:, None] * self.Z).T @ self.Z)[None]
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
    them, so a fit that holds one Batch runs the per-sample callbacks once.
    The ``slot_`` methods evaluate m slots at once, slot b at ``Theta[b]``
    with weights ``W[b]``; the one-parameter methods are their case m = 1.
    """

    model: LossModel
    X: np.ndarray
    y: np.ndarray | None
    stacks: tuple = ()

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def max_slots(self) -> int:
        """How many slots fit ``_CHUNK_ELEMENTS``: (n,) rows, (n, K, dim) for expfam_glm."""
        per_slot = self.n
        if self.model.kind == "expfam_glm":
            per_slot *= self.stacks[0].shape[1] * self.model.dim
        return max(1, _CHUNK_ELEMENTS // per_slot)

    @cached_property
    def _outer(self) -> _OuterTable:
        # the rows whose weighted outer products make up H_n
        if self.model.kind == "expfam_glm":
            return _OuterTable(self.stacks[0].reshape(-1, self.model.dim))
        return _OuterTable(self.X)

    def _eta(self, Theta: np.ndarray) -> np.ndarray:
        """Linear predictors Theta X'; a Poisson exp(eta) that overflows raises."""
        eta = Theta @ self.X.T
        if self.model.kind == "poisson" and np.any(exp_overflow(eta)):
            raise NumericOverflow(
                f"exp(theta'x) overflows double precision (max eta = {np.max(eta):.3g})"
            )
        return eta

    def _logits(self, Theta: np.ndarray) -> np.ndarray:
        """theta't(x_i, label_k) of every slot, an (m, n, K) array."""
        T = self.stacks[0]
        n, K, d = T.shape
        return (Theta @ T.reshape(n * K, d).T).reshape(-1, n, K)

    def _expfam(self, Theta: np.ndarray):
        """Label probabilities and the expected statistic per slot and sample."""
        probs = softmax(self._logits(Theta), axis=2)
        return probs, np.einsum("bik,ikj->bij", probs, self.stacks[0])

    def slot_values(self, Theta: np.ndarray) -> np.ndarray:
        """Per-sample loss values at every row of Theta, an (m, n) array."""
        kind = self.model.kind
        if kind == "expfam_glm":
            return logsumexp(self._logits(Theta), axis=2) - Theta @ self.stacks[1].T
        if kind == "score_matching":
            A, b, c = self.stacks
            m, d = Theta.shape
            outer = (Theta[:, :, None] * Theta[:, None, :]).reshape(m, d * d)
            return 0.5 * (outer @ A.reshape(-1, d * d).T) - Theta @ b.T + c
        return linear_coefficients(kind, self._eta(Theta), self.y)[0]

    def values(self, theta: np.ndarray) -> np.ndarray:
        """Per-sample loss values, an (n,) array."""
        return self.slot_values(theta[None])[0]

    def grads(self, theta: np.ndarray) -> np.ndarray:
        """Per-sample gradients, an (n, dim) array."""
        kind = self.model.kind
        if kind == "expfam_glm":
            return self._expfam(theta[None])[1][0] - self.stacks[1]
        if kind == "score_matching":
            A, b, _ = self.stacks
            return A @ theta - b
        gfac = linear_coefficients(kind, self._eta(theta), self.y, value=False)[1]
        return gfac[:, None] * self.X

    def slot_score_hessian(self, Theta: np.ndarray, W: np.ndarray):
        """Weighted mean gradient S and Hessian H of every slot, and nothing else.

        This is one Newton iteration's evaluation.  Returns (S, H, overflow):
        S is (m, dim), H (m, dim, dim) and symmetrized, and ``overflow``
        marks the Poisson slots whose exp(eta) overflows, whose S and H are
        placeholders.  H, like the first term of the expfam_glm Hessian, is
        one matrix product (see :class:`_OuterTable`).
        """
        kind = self.model.kind
        n = self.n
        m, d = Theta.shape
        overflow = np.zeros(m, dtype=bool)
        if kind == "score_matching":
            A, b, _ = self.stacks
            H = (W @ A.reshape(n, d * d)).reshape(m, d, d) / n
            S = np.einsum("bjk,bk->bj", H, Theta) - W @ b / n
        elif kind == "expfam_glm":
            probs, mean_t = self._expfam(Theta)
            S = np.einsum("bi,bij->bj", W, mean_t - self.stacks[1]) / n
            second = (W[:, :, None] * mean_t).swapaxes(1, 2) @ mean_t
            H = (self._outer.products((W[:, :, None] * probs).reshape(m, -1)) - second) / n
        else:
            eta = Theta @ self.X.T
            if kind == "poisson":
                overflow = exp_overflow(eta)
                if overflow.any():
                    # an overflowing slot gets zero weights: its S and H are zero
                    W = W * ~overflow[:, None]
            _, gfac, curv = linear_coefficients(kind, eta, self.y, value=False)
            # weighted in place: an (m, n) temporary less per product
            S = np.multiply(W, gfac, out=gfac) @ self.X / n
            H = self._outer.products(np.multiply(W, curv, out=curv)) / n
        return S, _symmetric(H), overflow

    def score_hessian(self, theta: np.ndarray, w: np.ndarray):
        """Weighted mean gradient S_n and Hessian H_n at theta: one slot."""
        S, H, overflow = self.slot_score_hessian(theta[None], w[None])
        if overflow[0]:
            raise NumericOverflow("exp(theta'x) overflows double precision")
        return S[0], H[0]

    def slot_risk(self, Theta: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Weighted empirical risk n^-1 sum_i W_bi l(Theta_b; z_i) of every slot."""
        return np.einsum("bi,bi->b", W, self.slot_values(Theta)) / self.n

    def risk(self, theta: np.ndarray, w: np.ndarray) -> float:
        """Weighted empirical risk L_n = n^-1 sum_i w_i l(theta; z_i)."""
        return float(self.slot_risk(theta[None], w[None])[0])

    def score_moment(self, theta: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Score second moment G_n at theta.

        G_n averages the outer products of the weighted per-sample
        gradients; it is symmetrized and PSD by construction.
        """
        wg = w[:, None] * self.grads(theta)
        return _symmetric(wg.T @ wg / self.n)


def prepare_batch(model: LossModel, X, y=None) -> Batch:
    """Check (X, y) against the model and build its per-sample stacks once."""
    X, y = _check_data(model, X, y)
    if model.kind == "expfam_glm":
        T = _expfam_stats(model, X)
        stacks = (T, _expfam_observed(model, T, y))
    elif model.kind == "score_matching":
        stacks = _score_matching_stacks(model, X)
    else:
        stacks = ()
    return Batch(model=model, X=X, y=y, stacks=stacks)


def check_weights(w, n: int) -> np.ndarray:
    """Weights as a length-n float vector; None means all ones.

    Multiplying by unit weights is exact, so weights=ones reproduces the
    unweighted results bit for bit.
    """
    if w is None:
        return np.ones(n)
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise DimensionMismatch(f"weights have shape {w.shape}, expected ({n},)")
    return w


def batch_values(model: LossModel, theta, X, y=None) -> np.ndarray:
    """Per-sample loss values, an (n,) array."""
    batch = prepare_batch(model, X, y)
    return batch.values(check_theta(model, theta))


def batch_grads(model: LossModel, theta, X, y=None) -> np.ndarray:
    """Per-sample gradients, an (n, dim) array."""
    batch = prepare_batch(model, X, y)
    return batch.grads(check_theta(model, theta))


def mean_hessian(model: LossModel, theta, X, y=None, weights=None) -> np.ndarray:
    """Weighted mean Hessian n^-1 sum_i w_i H(theta; z_i), a (dim, dim) array.

    ``weights`` defaults to all ones.  The arithmetic is that of
    :meth:`Batch.score_hessian`; the result is symmetrized to remove
    reduction round-off.
    """
    batch = prepare_batch(model, X, y)
    theta = check_theta(model, theta)
    return batch.score_hessian(theta, check_weights(weights, batch.n))[1]


# ---------------------------------------------------------------------------
# per-sample operations
# ---------------------------------------------------------------------------


def _single(z: Observation):
    X = z.features[None, :]
    y = None if z.response is None else np.array([z.response])
    return X, y


def loss_value(model: LossModel, theta, z: Observation) -> float:
    """Loss value l(theta; z) for one observation."""
    X, y = _single(z)
    return float(batch_values(model, theta, X, y)[0])


def loss_grad(model: LossModel, theta, z: Observation) -> np.ndarray:
    """Gradient of the loss in theta for one observation."""
    X, y = _single(z)
    return batch_grads(model, theta, X, y)[0]


def loss_hess(model: LossModel, theta, z: Observation) -> np.ndarray:
    """Hessian of the loss in theta for one observation (symmetric PSD)."""
    X, y = _single(z)
    return mean_hessian(model, theta, X, y)


def loss_third_dir(model: LossModel, theta, z: Observation, u, v, step: float = 1e-5) -> float:
    """Third directional derivative D^3 l(theta; z)[u, u, v] by central differences.

    Test-only: differentiates s -> v' (grad^2 l)(theta + s u; z) u with a
    central difference of width ``step``.  Used to verify the declared
    self-concordance inequality, not in any fitting path.
    """
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    hi = loss_hess(model, theta + step * u, z)
    lo = loss_hess(model, theta - step * u, z)
    return float(v @ ((hi - lo) / (2.0 * step)) @ u)


def score_matching_assemble(t_grad, t_lap, h_grad, h_lap: float) -> ScoreMatchingTriple:
    """Assemble the per-sample quadratic form of the score-matching loss.

    Parameters
    ----------
    t_grad : (p, d) array
        Rows are the coordinate derivatives dt/dz_k of the sufficient
        statistic at the sample.
    t_lap : (d,) array
        Coordinate Laplacian sum_k d2t/dz_k^2.
    h_grad : (p,) array
        Gradient of the log base density h at the sample.
    h_lap : float
        Laplacian of h at the sample.

    Returns
    -------
    ScoreMatchingTriple
        A = sum_k (dt/dz_k)(dt/dz_k)', symmetric PSD by construction;
        b = -sum_k [d2t/dz_k^2 + (dh/dz_k)(dt/dz_k)];
        c = sum_k [d2h/dz_k^2 + (dh/dz_k)^2/2], so that the per-sample loss
        is theta'A theta/2 - b'theta + c.
    """
    t_grad = np.asarray(t_grad, dtype=float)
    t_lap = np.asarray(t_lap, dtype=float)
    h_grad = np.asarray(h_grad, dtype=float)
    if t_grad.ndim != 2:
        raise DimensionMismatch(f"t_grad must be 2-d, got shape {t_grad.shape}")
    p, d = t_grad.shape
    if t_lap.shape != (d,):
        raise DimensionMismatch(f"t_lap has shape {t_lap.shape}, expected ({d},)")
    if h_grad.shape != (p,):
        raise DimensionMismatch(f"h_grad has shape {h_grad.shape}, expected ({p},)")
    A = t_grad.T @ t_grad
    b = -(t_lap + t_grad.T @ h_grad)
    c = float(h_lap) + 0.5 * float(h_grad @ h_grad)
    return ScoreMatchingTriple(A=0.5 * (A + A.T), b=b, c=c)
