"""Analytic derivatives, self-concordance declarations, and loss validation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scmest.errors import (
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    InvalidLabel,
    NumericOverflow,
)
from scmest.losses import (
    LOSS_KINDS,
    Observation,
    ScoreMatchingTriple,
    batch_grads,
    batch_values,
    expfam_glm_loss,
    gaussian_score_matching_loss,
    logistic_loss,
    loss_grad,
    loss_hess,
    loss_third_dir,
    loss_value,
    mean_hessian,
    model_for_data,
    poisson_loss,
    score_matching_assemble,
    squared_loss,
)

_D = 4


def _expfam_testmodel(x_bound=3.0):
    # three-label family with statistic y * x / 2, a strict superset of logistic
    return expfam_glm_loss(
        dim=_D,
        labels=(-1.0, 0.0, 1.0),
        feature_map=lambda x, y: 0.5 * y * x,
        stat_bound=0.5 * x_bound,
    )


def _draw(kind, rng, n=1):
    """One batch of observations plus a valid theta for the given kind."""
    X = rng.normal(size=(n, _D))
    theta = rng.normal(size=_D) * 0.5
    if kind == "squared":
        return squared_loss(_D), theta, X, rng.normal(size=n)
    if kind == "logistic":
        return logistic_loss(_D, 10.0), theta, X, rng.choice([-1.0, 1.0], size=n)
    if kind == "poisson":
        return poisson_loss(_D, 10.0), theta, X, rng.poisson(2.0, size=n).astype(float)
    if kind == "expfam_glm":
        return _expfam_testmodel(), theta, X, rng.choice([-1.0, 0.0, 1.0], size=n)
    model = gaussian_score_matching_loss(_D // 2)
    Z = rng.normal(size=(n, _D // 2))
    theta = np.concatenate([rng.normal(size=_D // 2), rng.uniform(0.5, 2.0, _D // 2)])
    return model, theta, Z, None


def _obs(X, y, i):
    return Observation(features=X[i], response=None if y is None else float(y[i]))


def _fd_grad(model, theta, z, step=1e-6):
    d = theta.size
    g = np.empty(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        g[j] = (loss_value(model, theta + e, z) - loss_value(model, theta - e, z)) / (
            2 * step
        )
    return g


def _fd_hess(model, theta, z, step=1e-6):
    d = theta.size
    H = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        H[:, j] = (loss_grad(model, theta + e, z) - loss_grad(model, theta - e, z)) / (
            2 * step
        )
    return 0.5 * (H + H.T)


class TestDerivativesAgainstFiniteDifferences:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_grad_and_hess(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(20):
            model, theta, X, y = _draw(kind, rng)
            z = _obs(X, y, 0)
            g = loss_grad(model, theta, z)
            H = loss_hess(model, theta, z)
            scale_g = max(1.0, float(np.linalg.norm(g)))
            scale_h = max(1.0, float(np.linalg.norm(H)))
            assert np.linalg.norm(g - _fd_grad(model, theta, z)) / scale_g < 1e-4
            assert np.linalg.norm(H - _fd_hess(model, theta, z)) / scale_h < 1e-4

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_hessian_symmetric_psd(self, kind):
        rng = np.random.default_rng(11)
        model, theta, X, y = _draw(kind, rng)
        H = loss_hess(model, theta, _obs(X, y, 0))
        assert np.allclose(H, H.T)
        assert np.linalg.eigvalsh(H)[0] > -1e-12


class TestSelfConcordanceInequality:
    @pytest.mark.parametrize("kind", ["logistic", "expfam_glm"])
    def test_nu_two_bound(self, kind):
        rng = np.random.default_rng(23)
        for _ in range(30):
            model, theta, X, y = _draw(kind, rng)
            z = _obs(X, y, 0)
            if kind == "logistic":
                R = 2.0 * float(np.linalg.norm(z.features))
            else:
                R = 2.0 * 0.5 * float(np.linalg.norm(z.features))
            H = loss_hess(model, theta, z)
            u, v = rng.normal(size=_D), rng.normal(size=_D)
            third = loss_third_dir(model, theta, z, u, v)
            bound = R * float(u @ H @ u) * float(np.linalg.norm(v))
            assert abs(third) <= bound + 1e-5 * max(1.0, bound)

    @pytest.mark.parametrize("kind", ["squared", "score_matching"])
    def test_quadratic_losses_have_no_third_derivative(self, kind):
        rng = np.random.default_rng(29)
        model, theta, X, y = _draw(kind, rng)
        u = rng.normal(size=_D)
        v = rng.normal(size=_D)
        assert abs(loss_third_dir(model, theta, _obs(X, y, 0), u, v)) < 1e-6


class TestClosedFormValues:
    def test_squared(self):
        model = squared_loss(2)
        z = Observation(features=np.array([1.0, 2.0]), response=3.0)
        theta = np.array([0.5, 0.25])
        assert loss_value(model, theta, z) == pytest.approx(0.5 * (3.0 - 1.0) ** 2)

    def test_logistic(self):
        model = logistic_loss(2, 5.0)
        z = Observation(features=np.array([1.0, -1.0]), response=-1.0)
        theta = np.array([2.0, 1.0])
        # margin y theta'x = -1, value log(1 + e^1)
        assert loss_value(model, theta, z) == pytest.approx(np.logaddexp(0.0, 1.0))

    def test_poisson(self):
        model = poisson_loss(1, 5.0)
        z = Observation(features=np.array([2.0]), response=3.0)
        theta = np.array([0.5])
        assert loss_value(model, theta, z) == pytest.approx(math.e - 3.0)

    def test_one_dim_gaussian_score_matching_is_hyvarinen_objective(self):
        model = gaussian_score_matching_loss(1)
        z = Observation(features=np.array([1.7]))
        a, b = 0.4, 1.3
        # (1/2)(a - b z)^2 - b: squared model score plus its z-derivative
        expected = 0.5 * (a - b * 1.7) ** 2 - b
        assert loss_value(model, np.array([a, b]), z) == pytest.approx(expected)


class TestBatchConsistency:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_batch_matches_per_sample(self, kind):
        rng = np.random.default_rng(31)
        model, theta, X, y = _draw(kind, rng, n=13)
        vals = batch_values(model, theta, X, y)
        grads = batch_grads(model, theta, X, y)
        assert vals.shape == (13,)
        assert grads.shape == (13, _D)
        for i in range(13):
            z = _obs(X, y, i)
            assert vals[i] == pytest.approx(loss_value(model, theta, z), rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(grads[i], loss_grad(model, theta, z), atol=1e-12)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_mean_hessian_matches_per_sample_average(self, kind):
        rng = np.random.default_rng(37)
        model, theta, X, y = _draw(kind, rng, n=9)
        H = mean_hessian(model, theta, X, y)
        H_ref = np.mean(
            [loss_hess(model, theta, _obs(X, y, i)) for i in range(9)], axis=0
        )
        np.testing.assert_allclose(H, H_ref, atol=1e-13)

    @pytest.mark.parametrize("kind", ["squared", "logistic", "poisson"])
    def test_weighted_mean_hessian(self, kind):
        rng = np.random.default_rng(41)
        model, theta, X, y = _draw(kind, rng, n=7)
        w = rng.uniform(0.2, 2.0, size=7)
        H = mean_hessian(model, theta, X, y, weights=w)
        H_ref = np.sum(
            [w[i] * loss_hess(model, theta, _obs(X, y, i)) for i in range(7)], axis=0
        ) / 7.0
        np.testing.assert_allclose(H, H_ref, atol=1e-13)

    @given(st.integers(0, 2**31 - 1))
    def test_values_finite_on_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        kind = LOSS_KINDS[seed % len(LOSS_KINDS)]
        model, theta, X, y = _draw(kind, rng, n=3)
        assert np.all(np.isfinite(batch_values(model, theta, X, y)))


class TestValidation:
    def test_logistic_label_check(self):
        model = logistic_loss(2, 5.0)
        with pytest.raises(InvalidLabel):
            batch_values(model, np.zeros(2), np.ones((1, 2)), np.array([0.5]))

    def test_poisson_label_check(self):
        model = poisson_loss(2, 5.0)
        with pytest.raises(InvalidLabel):
            batch_values(model, np.zeros(2), np.ones((1, 2)), np.array([-1.0]))
        with pytest.raises(InvalidLabel):
            batch_values(model, np.zeros(2), np.ones((1, 2)), np.array([2.5]))

    def test_expfam_label_check(self):
        model = _expfam_testmodel()
        with pytest.raises(InvalidLabel):
            batch_values(model, np.zeros(_D), np.ones((1, _D)), np.array([2.0]))

    def test_poisson_overflow(self):
        model = poisson_loss(1, 5.0)
        with pytest.raises(NumericOverflow):
            batch_values(model, np.array([800.0]), np.ones((1, 1)), np.array([1.0]))

    def test_empty_dataset(self):
        model = squared_loss(2)
        with pytest.raises(EmptyDataset):
            batch_values(model, np.zeros(2), np.empty((0, 2)), np.empty(0))

    def test_dimension_mismatches(self):
        model = squared_loss(3)
        with pytest.raises(DimensionMismatch):
            batch_values(model, np.zeros(2), np.ones((2, 3)), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            batch_values(model, np.zeros(3), np.ones((2, 2)), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            batch_values(model, np.zeros(3), np.ones((2, 3)), np.zeros(5))

    def test_supervised_model_requires_response(self):
        model = squared_loss(2)
        with pytest.raises(DimensionMismatch):
            batch_values(model, np.zeros(2), np.ones((2, 2)), None)

    def test_factory_validation(self):
        with pytest.raises(DomainError):
            logistic_loss(2, -1.0)
        with pytest.raises(DomainError):
            expfam_glm_loss(2, (1.0,), lambda x, y: x, 1.0)
        with pytest.raises(DimensionMismatch):
            gaussian_score_matching_loss(0)

    def test_model_for_data_infers_bounds(self):
        X = np.array([[3.0, 4.0], [0.0, 1.0]])
        m = model_for_data("logistic", X)
        assert m.sc.R == pytest.approx(10.0)  # 2 max ||x||
        m = model_for_data("poisson", X)
        assert m.sc.R == pytest.approx(5.0)
        m = model_for_data("squared", X)
        assert m.sc.R == 0.0 and m.dim == 2

    def test_score_matching_assemble_identity(self):
        rng = np.random.default_rng(43)
        t_grad = rng.normal(size=(3, 5))
        t_lap = rng.normal(size=5)
        h_grad = rng.normal(size=3)
        h_lap = 0.7
        triple = score_matching_assemble(t_grad, t_lap, h_grad, h_lap)
        np.testing.assert_allclose(triple.A, t_grad.T @ t_grad, atol=1e-14)
        np.testing.assert_allclose(
            triple.b, -(t_lap + t_grad.T @ h_grad), atol=1e-14
        )
        assert triple.c == pytest.approx(h_lap + 0.5 * float(h_grad @ h_grad))
        assert np.linalg.eigvalsh(triple.A)[0] > -1e-12

    def test_score_matching_triple_rejects_asymmetric_or_indefinite_A(self):
        with pytest.raises(DomainError, match="symmetric"):
            ScoreMatchingTriple(A=np.array([[1.0, 0.5], [0.0, 1.0]]), b=np.zeros(2), c=0.0)
        with pytest.raises(DomainError, match="positive semidefinite"):
            ScoreMatchingTriple(A=np.array([[1.0, 2.0], [2.0, 1.0]]), b=np.zeros(2), c=0.0)
