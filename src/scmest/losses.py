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
that every later evaluation reuses.  The squared, logistic and Poisson
losses are each defined once, as functions of the linear predictor in
:func:`linear_coefficients`, which the bootstrap engine shares.  LossModel
instances are immutable and all evaluations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        scale = float(np.linalg.norm(A, 2)) if A.size else 0.0
        if float(np.max(np.abs(A - A.T), initial=0.0)) > 1e-10 * max(scale, 1.0):
            raise DomainError("A must be symmetric")
        if A.size and float(np.linalg.eigvalsh(A)[0]) < -1e-10 * max(scale, 1.0):
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
    # removes reduction round-off
    return 0.5 * (H + H.T)


@dataclass(frozen=True, eq=False)
class Batch:
    """The checked data of one call plus the per-sample stacks of its loss.

    Built by :func:`prepare_batch`.  ``stacks`` is empty for the
    linear-predictor kinds, ``(T, T_obs)`` for expfam_glm (t(x_i, label_k)
    as an (n, K, dim) array and the observed rows t(x_i, y_i) as (n, dim)),
    and ``(A, b, c)`` for score_matching.  Every evaluation below reuses
    them, so a fit that holds one Batch runs the per-sample callbacks once.
    Weighted averages take a weight vector ``w`` of length n.
    """

    model: LossModel
    X: np.ndarray
    y: np.ndarray | None
    stacks: tuple = ()

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def _linear(self, theta: np.ndarray, value: bool):
        eta = self.X @ theta
        if self.model.kind == "poisson" and exp_overflow(eta):
            raise NumericOverflow(
                f"exp(theta'x) overflows double precision (max eta = {np.max(eta):.3g})"
            )
        return linear_coefficients(self.model.kind, eta, self.y, value)

    def _expfam(self, theta: np.ndarray):
        """Label probabilities and the expected statistic per sample."""
        T = self.stacks[0]
        probs = softmax(T @ theta, axis=1)
        return probs, np.einsum("ik,ikj->ij", probs, T)

    def values(self, theta: np.ndarray) -> np.ndarray:
        """Per-sample loss values, an (n,) array."""
        kind = self.model.kind
        if kind == "expfam_glm":
            T, T_obs = self.stacks
            return logsumexp(T @ theta, axis=1) - T_obs @ theta
        if kind == "score_matching":
            A, b, c = self.stacks
            return 0.5 * np.einsum("j,ijk,k->i", theta, A, theta) - b @ theta + c
        return self._linear(theta, value=True)[0]

    def grads(self, theta: np.ndarray) -> np.ndarray:
        """Per-sample gradients, an (n, dim) array."""
        kind = self.model.kind
        if kind == "expfam_glm":
            return self._expfam(theta)[1] - self.stacks[1]
        if kind == "score_matching":
            A, b, _ = self.stacks
            return A @ theta - b
        return self._linear(theta, value=False)[1][:, None] * self.X

    def score_hessian(self, theta: np.ndarray, w: np.ndarray):
        """Weighted mean gradient S_n and Hessian H_n at theta, and nothing else.

        This is one Newton iteration's evaluation.  For the linear-predictor
        kinds it computes eta = X theta once, S_n by one matrix-vector
        product and H_n as the matrix product ((w c)[:, None] X)' X / n.
        H_n is symmetrized to remove reduction round-off.
        """
        kind = self.model.kind
        n = self.n
        if kind == "expfam_glm":
            T, T_obs = self.stacks
            probs, mean_t = self._expfam(theta)
            S = w @ (mean_t - T_obs) / n
            T = T.reshape(-1, self.model.dim)
            wp = (w[:, None] * probs).reshape(-1)
            H = ((wp[:, None] * T).T @ T - (w[:, None] * mean_t).T @ mean_t) / n
        elif kind == "score_matching":
            A = self.stacks[0]
            S = w @ self.grads(theta) / n
            H = (w @ A.reshape(n, -1)).reshape(A.shape[1:]) / n
        else:
            _, gfac, curv = self._linear(theta, value=False)
            S = (w * gfac) @ self.X / n
            H = ((w * curv)[:, None] * self.X).T @ self.X / n
        return S, _symmetric(H)

    def risk(self, theta: np.ndarray, w: np.ndarray) -> float:
        """Weighted empirical risk L_n = n^-1 sum_i w_i l(theta; z_i)."""
        return float(np.sum(w * self.values(theta))) / self.n

    def risk_moment(self, theta: np.ndarray, w: np.ndarray):
        """Weighted empirical risk L_n and score second moment G_n at theta.

        G_n averages the outer products of the weighted per-sample
        gradients; it is symmetrized and PSD by construction.
        """
        wg = w[:, None] * self.grads(theta)
        return self.risk(theta, w), _symmetric(wg.T @ wg / self.n)


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
