"""Analytic derivatives, self-concordance declarations, and loss validation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from scmest.errors import (
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    InvalidLabel,
    NumericOverflow,
)
from scmest.losses import (
    LOSS_KINDS,
    LossModel,
    _gaussian_stacks,
    batch_grads,
    batch_values,
    expfam_glm_loss,
    gaussian_score_matching_loss,
    linear_coefficients,
    logistic_loss,
    mean_hessian,
    model_for_data,
    poisson_loss,
    prepare_batch,
    prepare_stack,
    score_matching_assemble,
    score_matching_loss,
    squared_loss,
)
from scmest import losses as losses_module
from scmest.simdata import Dataset

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
        return logistic_loss(_D), theta, X, rng.choice([-1.0, 1.0], size=n)
    if kind == "poisson":
        return poisson_loss(_D), theta, X, rng.poisson(2.0, size=n).astype(float)
    if kind == "expfam_glm":
        # the drawn rows' own bound: derivative checks do not read R
        model = _expfam_testmodel(float(np.max(np.linalg.norm(X, axis=1))))
        return model, theta, X, rng.choice([-1.0, 0.0, 1.0], size=n)
    model = gaussian_score_matching_loss(_D // 2)
    Z = rng.normal(size=(n, _D // 2))
    theta = np.concatenate([rng.normal(size=_D // 2), rng.uniform(0.5, 2.0, _D // 2)])
    return model, theta, Z, None


def _row(X, y, i):
    """Sample i as a one-row design and its response."""
    return X[i : i + 1], None if y is None else y[i : i + 1]


def _fd_grad(model, theta, X, y, step=1e-6):
    d = theta.size
    g = np.empty(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        hi, lo = batch_values(model, theta + e, X, y), batch_values(model, theta - e, X, y)
        g[j] = (hi[0] - lo[0]) / (2 * step)
    return g


def _fd_hess(model, theta, X, y, step=1e-6):
    d = theta.size
    H = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        hi, lo = batch_grads(model, theta + e, X, y), batch_grads(model, theta - e, X, y)
        H[:, j] = (hi[0] - lo[0]) / (2 * step)
    return 0.5 * (H + H.T)


def _fd_third_dir(model, theta, X, y, u, v, step=1e-5):
    """D^3 L_n(theta)[u, u, v] of the mean loss over X by central differences.

    Differentiates s -> v' H_n(theta + s u) u with a central difference of
    width ``step``; on a one-row X it is the third derivative of one sample.
    """
    hi = mean_hessian(model, theta + step * u, X, y)
    lo = mean_hessian(model, theta - step * u, X, y)
    return float(v @ ((hi - lo) / (2.0 * step)) @ u)


class TestDerivativesAgainstFiniteDifferences:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_grad_and_hess(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(20):
            model, theta, X, y = _draw(kind, rng)
            g = batch_grads(model, theta, X, y)[0]
            H = mean_hessian(model, theta, X, y)
            scale_g = max(1.0, float(np.linalg.norm(g)))
            scale_h = max(1.0, float(np.linalg.norm(H)))
            assert np.linalg.norm(g - _fd_grad(model, theta, X, y)) / scale_g < 1e-4
            assert np.linalg.norm(H - _fd_hess(model, theta, X, y)) / scale_h < 1e-4

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_hessian_symmetric_psd(self, kind):
        rng = np.random.default_rng(11)
        model, theta, X, y = _draw(kind, rng)
        H = mean_hessian(model, theta, X, y)
        assert np.allclose(H, H.T)
        assert np.linalg.eigvalsh(H)[0] > -1e-12


class TestSelfConcordanceInequality:
    @pytest.mark.parametrize("kind", ["logistic", "expfam_glm"])
    def test_nu_two_bound(self, kind):
        rng = np.random.default_rng(23)
        for _ in range(30):
            model, theta, X, y = _draw(kind, rng)
            if kind == "logistic":
                R = float(np.linalg.norm(X[0]))
            else:
                R = 2.0 * 0.5 * float(np.linalg.norm(X[0]))
            H = mean_hessian(model, theta, X, y)
            u, v = rng.normal(size=_D), rng.normal(size=_D)
            third = _fd_third_dir(model, theta, X, y, u, v)
            bound = R * float(u @ H @ u) * float(np.linalg.norm(v))
            assert abs(third) <= bound + 1e-5 * max(1.0, bound)

    @pytest.mark.parametrize("scale", [0.5, 3.0, 10.0])
    def test_logistic_third_derivative_within_max_norm(self, scale):
        # D^3 l[u, u, v] = y phi'''(m) (x'u)^2 (x'v) at the margin m = y theta'x,
        # where phi(m) = log(1 + e^-m) has phi'' = s (1 - s) and
        # phi''' = phi'' (1 - 2 s), s = sigmoid(m).  |phi'''| <= phi'' at every
        # margin, so R = ||x||: |D^3 l[u, u, v]| <= ||x|| ||u||_x^2 ||v||
        rng = np.random.default_rng(31)
        model = logistic_loss(_D)
        for _ in range(100):
            x, y = rng.normal(size=_D), float(rng.choice([-1.0, 1.0]))
            theta = scale * rng.normal(size=_D)
            u, v = rng.normal(size=_D), rng.normal(size=_D)
            s = expit(y * float(theta @ x))
            third = y * s * (1.0 - s) * (1.0 - 2.0 * s) * float(x @ u) ** 2 * float(x @ v)
            if scale == 0.5:
                fd = _fd_third_dir(model, theta, x[None], np.array([y]), u, v)
                assert third == pytest.approx(fd, rel=1e-4, abs=1e-8)
            u_sq = float(u @ mean_hessian(model, theta, x[None], np.array([y])) @ u)
            bound = float(np.linalg.norm(x)) * u_sq * float(np.linalg.norm(v))
            assert abs(third) <= bound * (1.0 + 1e-9)

    @pytest.mark.parametrize("kind", ["squared", "score_matching"])
    def test_quadratic_losses_have_no_third_derivative(self, kind):
        rng = np.random.default_rng(29)
        model, theta, X, y = _draw(kind, rng)
        u = rng.normal(size=_D)
        v = rng.normal(size=_D)
        assert abs(_fd_third_dir(model, theta, X, y, u, v)) < 1e-6


class TestLogisticKernel:
    def test_values_and_saturation(self):
        # margins m = y eta; s = 1/(1 + exp(-m)) rounds to 1.0 from m ~ 37 on
        rng = np.random.default_rng(0)
        m = np.concatenate([np.linspace(-60.0, 60.0, 24_001), [-1e4, -745.5, 709.9, 1e4]])
        y = rng.choice([-1.0, 1.0], size=m.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, gfac, curv = linear_coefficients("logistic", y * m, y)
        assert np.array_equal(vals, np.log1p(np.exp(-np.abs(m))) + np.maximum(-m, 0.0))
        with np.errstate(over="ignore"):
            saturated = 1.0 / (1.0 + np.exp(-m)) == 1.0
        assert saturated.sum() > 1000
        assert np.all(gfac[saturated] == 0.0) and np.all(curv[saturated] == 0.0)
        # the factor is (s - 1) y to within the rounding of exp
        np.testing.assert_allclose(gfac, (expit(m) - 1.0) * y, rtol=0.0, atol=1e-15)
        assert np.all(curv >= 0.0)


class TestClosedFormValues:
    def test_squared(self):
        model = squared_loss(2)
        theta = np.array([0.5, 0.25])
        value = batch_values(model, theta, [[1.0, 2.0]], [3.0])[0]
        assert value == pytest.approx(0.5 * (3.0 - 1.0) ** 2)

    def test_logistic(self):
        model = logistic_loss(2)
        theta = np.array([2.0, 1.0])
        # margin y theta'x = -1, value log(1 + e^1)
        value = batch_values(model, theta, [[1.0, -1.0]], [-1.0])[0]
        assert value == pytest.approx(np.logaddexp(0.0, 1.0))

    def test_poisson(self):
        model = poisson_loss(1)
        theta = np.array([0.5])
        assert batch_values(model, theta, [[2.0]], [3.0])[0] == pytest.approx(math.e - 3.0)

    def test_one_dim_gaussian_score_matching_is_hyvarinen_objective(self):
        model = gaussian_score_matching_loss(1)
        a, b = 0.4, 1.3
        # (1/2)(a - b z)^2 - b: squared model score plus its z-derivative
        expected = 0.5 * (a - b * 1.7) ** 2 - b
        assert batch_values(model, np.array([a, b]), [[1.7]])[0] == pytest.approx(expected)


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
            Xi, yi = _row(X, y, i)
            value = batch_values(model, theta, Xi, yi)[0]
            assert vals[i] == pytest.approx(value, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(grads[i], batch_grads(model, theta, Xi, yi)[0], atol=1e-12)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_mean_hessian_matches_per_sample_average(self, kind):
        rng = np.random.default_rng(37)
        model, theta, X, y = _draw(kind, rng, n=9)
        H = mean_hessian(model, theta, X, y)
        H_ref = np.mean(
            [mean_hessian(model, theta, *_row(X, y, i)) for i in range(9)], axis=0
        )
        np.testing.assert_allclose(H, H_ref, atol=1e-13)

    @pytest.mark.parametrize("kind", ["squared", "logistic", "poisson"])
    def test_weighted_mean_hessian(self, kind):
        rng = np.random.default_rng(41)
        model, theta, X, y = _draw(kind, rng, n=7)
        w = rng.uniform(0.2, 2.0, size=7)
        H = mean_hessian(model, theta, X, y, weights=w)
        H_ref = np.sum(
            [w[i] * mean_hessian(model, theta, *_row(X, y, i)) for i in range(7)], axis=0
        ) / 7.0
        np.testing.assert_allclose(H, H_ref, atol=1e-13)

    @pytest.mark.parametrize("kind", ["squared", "logistic", "poisson"])
    @pytest.mark.parametrize("row_blocks", [False, True])
    def test_table_hessians_are_the_symmetrized_sums_bit_for_bit(
        self, monkeypatch, kind, row_blocks
    ):
        # several slots of one dataset sum the shared outer-product table,
        # which mirrors one triangle: H is what symmetrizing it gave, exactly
        if row_blocks:
            # a table of 10 rows' products at d = 4, so 40 rows take 4 blocks
            monkeypatch.setattr(losses_module, "_CHUNK_ELEMENTS", 10 * _D * (_D + 1) // 2)
        rng = np.random.default_rng(43)
        model, _, X, y = _draw(kind, rng, n=40)
        batch = prepare_batch(model, Dataset(X=X, y=y))
        Theta, W = 0.5 * rng.normal(size=(6, _D)), rng.uniform(-0.5, 2.0, size=(6, 40))
        H = batch.slot_evaluate(Theta, W)[2]
        assert len(batch._outer.blocks) == (4 if row_blocks else 1)
        curv = linear_coefficients(kind, Theta @ X.T, y, value=False)[2]
        symmetrized = losses_module._symmetric(batch._outer.products(W * curv) / 40)
        assert H.tobytes() == symmetrized.tobytes()
        assert np.array_equal(H, H.swapaxes(1, 2))

    @given(st.integers(0, 2**31 - 1))
    def test_values_finite_on_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        kind = LOSS_KINDS[seed % len(LOSS_KINDS)]
        model, theta, X, y = _draw(kind, rng, n=3)
        assert np.all(np.isfinite(batch_values(model, theta, X, y)))


class TestValidation:
    def test_logistic_label_check(self):
        model = logistic_loss(2)
        with pytest.raises(InvalidLabel):
            batch_values(model, np.zeros(2), np.ones((1, 2)), np.array([0.5]))

    def test_poisson_label_check(self):
        model = poisson_loss(2)
        with pytest.raises(InvalidLabel):
            batch_values(model, np.zeros(2), np.ones((1, 2)), np.array([-1.0]))
        with pytest.raises(InvalidLabel):
            batch_values(model, np.zeros(2), np.ones((1, 2)), np.array([2.5]))

    def test_expfam_label_check(self):
        model = _expfam_testmodel()
        with pytest.raises(InvalidLabel):
            batch_values(model, np.zeros(_D), np.ones((1, _D)), np.array([2.0]))

    def test_poisson_overflow(self):
        model = poisson_loss(1)
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
        with pytest.raises(DimensionMismatch, match="weights have shape"):
            mean_hessian(model, np.zeros(3), np.ones((2, 3)), np.zeros(2), weights=np.ones(3))
        narrow = expfam_glm_loss(3, (-1.0, 1.0), lambda x, y: 0.5 * y * x[:, :2], 5.0)
        with pytest.raises(DimensionMismatch, match="feature_map returned shape"):
            batch_values(narrow, np.zeros(3), np.ones((2, 3)), np.ones(2))

    @pytest.mark.parametrize("wrapper", [batch_values, batch_grads, mean_hessian])
    def test_non_finite_inputs_rejected(self, wrapper):
        # the array wrappers check their arrays as a Dataset does
        model = squared_loss(2)
        X, y = np.ones((2, 2)), np.zeros(2)
        nan_X = np.array([[1.0, np.nan], [1.0, 1.0]])
        for bad_X, bad_y in ((nan_X, y), (X, np.array([0.0, np.inf]))):
            with pytest.raises(DomainError, match="non-finite"):
                wrapper(model, np.zeros(2), bad_X, bad_y)
        with pytest.raises(DomainError, match="theta must be finite"):
            wrapper(model, np.array([np.nan, 0.0]), X, y)

    def test_supervised_model_requires_response(self):
        model = squared_loss(2)
        with pytest.raises(DimensionMismatch):
            batch_values(model, np.zeros(2), np.ones((2, 2)), None)

    def test_factory_validation(self):
        with pytest.raises(DomainError):
            expfam_glm_loss(2, (1.0,), lambda x, y: x, 1.0)
        with pytest.raises(DomainError, match="stat_bound must be positive"):
            expfam_glm_loss(2, (-1.0, 1.0), lambda x, y: x, 0.0)
        with pytest.raises(DimensionMismatch):
            gaussian_score_matching_loss(0)
        with pytest.raises(DomainError, match="unknown loss kind"):
            LossModel(kind="hinge", dim=2)
        with pytest.raises(DimensionMismatch, match="dim must be positive"):
            LossModel(kind="squared", dim=0)
        with pytest.raises(DomainError, match="expfam_glm needs"):
            LossModel(kind="expfam_glm", dim=2, labels=(-1.0, 1.0))
        with pytest.raises(DomainError, match="score_matching needs stacks_fn"):
            LossModel(kind="score_matching", dim=2)

    def test_model_for_data_infers_bounds(self):
        # the model takes its dimension from X; the batch measures R from it
        data = Dataset(X=np.array([[3.0, 4.0], [0.0, 1.0]]), y=np.array([1.0, 1.0]))
        m = model_for_data("logistic", data.X)
        assert prepare_batch(m, data).R == pytest.approx(5.0)  # max ||x||
        m = model_for_data("poisson", data.X)
        assert prepare_batch(m, data).R == pytest.approx(5.0)
        m = model_for_data("squared", data.X)
        assert prepare_batch(m, data).R == 0.0 and m.dim == 2

    def test_stacked_R_is_each_datasets_R(self):
        # R is measured on first use: a float for one dataset, one per slot
        # when stacked, and the slots a stacked batch keeps keep theirs
        rng = np.random.default_rng(0)
        model = poisson_loss(3)
        batches = [
            prepare_batch(model, Dataset(X=rng.standard_normal((20, 3)), y=np.ones(20)))
            for _ in range(4)
        ]
        X, y = np.stack([b.X for b in batches]), np.stack([b.y for b in batches])
        stacked = prepare_stack(model, X, y)
        assert all(type(b.R) is float for b in batches)
        assert np.array_equal(stacked.R, [b.R for b in batches])
        keep = np.array([True, False, True, True])
        kept = stacked.take(keep)
        assert "R" in vars(kept) and np.array_equal(kept.R, stacked.R[keep])
        assert "R" not in vars(prepare_stack(model, X, y).take(keep))

    @pytest.mark.parametrize("kind", ["squared", "logistic", "poisson", "score_matching"])
    def test_stacked_slots_are_each_datasets_batch(self, kind):
        rng = np.random.default_rng(5)
        draws = [_draw(kind, rng, n=11) for _ in range(3)]
        model = draws[0][0]
        X = np.stack([X for _, _, X, _ in draws])
        y = None if kind == "score_matching" else np.stack([y for *_, y in draws])
        stacked = prepare_stack(model, X, y)
        assert stacked.stacked
        for b, (_, _, Xb, yb) in enumerate(draws):
            one = prepare_batch(model, Dataset(X=Xb, y=yb))
            assert np.array_equal(stacked.X[b], one.X)
            assert (stacked.y is None) == (one.y is None)
            assert len(stacked.stacks) == len(one.stacks)
            for part, part_one in zip(stacked.stacks, one.stacks):
                assert part[b].tobytes() == part_one.tobytes()
            assert stacked.R[b] == one.R

    def test_stack_check_raises_the_first_bad_datasets_error(self):
        rng = np.random.default_rng(6)
        X, y = rng.normal(size=(4, 5, 3)), rng.choice([-1.0, 1.0], size=(4, 5))
        X[2, 3, 1], y[1, 4] = np.nan, np.inf
        with pytest.raises(DomainError, match=r"^y has a non-finite value in row 4 \(0-based\)$"):
            prepare_stack(logistic_loss(3), X, y)
        y[1, 4] = 1.0
        with pytest.raises(DomainError, match=r"^X has a non-finite value in row 3 \(0-based\)$"):
            prepare_stack(logistic_loss(3), X, y)
        X[2, 3, 1], y[3, 0] = 0.0, 0.5
        with pytest.raises(InvalidLabel, match="got 0.5"):
            prepare_stack(logistic_loss(3), X, y)
        with pytest.raises(DimensionMismatch, match="data has 3 columns, model expects 2"):
            prepare_stack(squared_loss(2), X, y)
        with pytest.raises(DomainError, match="expfam_glm batches do not stack"):
            prepare_stack(_expfam_testmodel(), X, y)

    def test_expfam_statistics_past_the_bound_rejected(self):
        # ||t(x, +-1)|| = ||x|| / 2 = 2.5 for the first row
        X, y = np.array([[3.0, 4.0], [0.0, 1.0]]), np.array([1.0, -1.0])
        model = expfam_glm_loss(2, (-1.0, 1.0), lambda x, lab: 0.5 * lab * x, 2.5)
        assert prepare_batch(model, Dataset(X=X, y=y)).R == 5.0  # 2M
        tight = expfam_glm_loss(2, (-1.0, 1.0), lambda x, lab: 0.5 * lab * x, 2.0)
        with pytest.raises(DomainError, match="stat_bound"):
            prepare_batch(tight, Dataset(X=X, y=y))

    def test_score_matching_assemble_identity(self):
        # the stacks equal the per-sample formulas, row by row
        rng = np.random.default_rng(43)
        n, p, d = 6, 3, 5
        t_grad = rng.normal(size=(n, p, d))
        t_lap = rng.normal(size=(n, d))
        h_grad = rng.normal(size=(n, p))
        h_lap = rng.normal(size=n)
        A, b, c = score_matching_assemble(t_grad, t_lap, h_grad, h_lap)
        assert A.shape == (n, d, d) and b.shape == (n, d) and c.shape == (n,)
        for i in range(n):
            np.testing.assert_allclose(A[i], t_grad[i].T @ t_grad[i], atol=1e-14)
            np.testing.assert_allclose(b[i], -(t_lap[i] + t_grad[i].T @ h_grad[i]), atol=1e-14)
            assert c[i] == pytest.approx(h_lap[i] + 0.5 * float(h_grad[i] @ h_grad[i]))
            assert np.array_equal(A[i], A[i].T)
            assert np.linalg.eigvalsh(A[i])[0] > -1e-12

    def test_score_matching_assemble_shape_errors(self):
        n, p, d = 4, 2, 3
        with pytest.raises(DimensionMismatch, match="t_grad must be 3-d"):
            score_matching_assemble(np.zeros((n, d)), np.zeros((n, d)), np.zeros((n, p)),
                                    np.zeros(n))
        with pytest.raises(DimensionMismatch, match=r"h_grad has shape \(4, 3\)"):
            score_matching_assemble(np.zeros((n, p, d)), np.zeros((n, d)), np.zeros((n, d)),
                                    np.zeros(n))

    def test_gaussian_stacks_equal_the_per_sample_construction(self):
        rng = np.random.default_rng(47)
        p, n = 3, 40
        Z = rng.normal(size=(n, p))
        A, b, c = _gaussian_stacks(Z)
        for i in range(n):
            t_grad = np.zeros((p, 2 * p))
            t_grad[np.arange(p), np.arange(p)] = 1.0
            t_grad[np.arange(p), p + np.arange(p)] = -Z[i]
            assert np.array_equal(A[i], t_grad.T @ t_grad)
            assert np.array_equal(b[i], np.concatenate([np.zeros(p), np.ones(p)]))
            assert c[i] == 0.0

    @pytest.mark.parametrize(
        "fault, error, match",
        [
            ("asymmetric", DomainError, "sample row 2 must be symmetric"),
            ("indefinite", DomainError, "sample row 2 must be positive semidefinite"),
            ("non_finite", DomainError, "non-finite value in sample row 2"),
            ("wrong_shape", DimensionMismatch, r"b of shape \(5, 3\), expected \(5, 2\)"),
        ],
        ids=["asymmetric", "indefinite", "non_finite", "wrong_shape"],
    )
    def test_bad_score_matching_stacks_rejected(self, fault, error, match):
        def stacks_fn(Z):
            A, b, c = _gaussian_stacks(Z)
            if fault == "asymmetric":
                A[2, 0, 1] += 0.5
            elif fault == "indefinite":
                A[2] = [[1.0, 2.0], [2.0, 1.0]]
            elif fault == "non_finite":
                c[2] = np.nan
            else:
                b = np.zeros((len(Z), 3))
            return A, b, c

        model = score_matching_loss(2, stacks_fn)
        with pytest.raises(error, match=match):
            batch_values(model, np.array([0.0, 1.0]), np.linspace(-1.0, 1.0, 5)[:, None])

    @pytest.mark.parametrize("depth, passes", [(0.5, True), (2.0, False)])
    def test_psd_rule_at_its_tolerance(self, depth, passes):
        # A = [[1/2, 1/2], [1/2, 1/2]] - eps I is exactly symmetric with
        # ||A||_2 < 1, so its tolerance is 1e-10, and lambda_min = -eps is
        # half or twice the tolerance: inside it, A passes, past it, it fails
        eps = depth * 1e-10

        def stacks_fn(Z):
            A, b, c = _gaussian_stacks(Z)
            A[2] = [[0.5 - eps, 0.5], [0.5, 0.5 - eps]]
            return A, b, c

        model = score_matching_loss(2, stacks_fn)
        theta, Z = np.array([0.0, 1.0]), np.linspace(-1.0, 1.0, 5)[:, None]
        if passes:
            assert batch_values(model, theta, Z).shape == (5,)
        else:
            with pytest.raises(DomainError, match="sample row 2 must be positive semidefinite"):
                batch_values(model, theta, Z)
