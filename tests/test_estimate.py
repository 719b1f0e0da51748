"""Newton fitting and its step rule, aggregates, singularity handling, certificates."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import logsumexp, softmax

from scmest.bootstrap import _bootstrap_statistics, bootstrap_fit
from scmest.errors import DomainError, SingularHessian
from scmest.estimate import (
    FitResult,
    SolverOptions,
    _newton_engine,
    _newton_steps,
    _pd_solve,
    aggregates,
    fit_erm,
    localization_certificate,
    replicate,
)
from scmest.gof import _statistics, lr_statistic, rao_statistic
from scmest.losses import (
    LOSS_KINDS,
    batch_values,
    expfam_glm_loss,
    gaussian_score_matching_loss,
    logistic_loss,
    model_for_data,
    poisson_loss,
    prepare_batch,
    prepare_stack,
    score_matching_loss,
    squared_loss,
)
from scmest.scfun import SpectralSummary, certify_unique_minimizer
from scmest.simdata import Dataset, Process, generate, theta0_equispaced


def _linear_data(n=80, d=4, seed=0):
    p = Process(kind="linear_wellspec", theta0=theta0_equispaced(d))
    return generate(p, n, seed)


def _logistic_data(n=300, d=4, seed=0):
    p = Process(kind="logistic_wellspec", theta0=theta0_equispaced(d))
    return generate(p, n, seed)


def _expfam_stat(x, y):
    # logistic with labels +-1 as an exponential family: t(x, y) = y x / 2
    return 0.5 * y * x


def _expfam_model(data, feature_map=_expfam_stat):
    bound = 0.5 * float(np.max(np.linalg.norm(data.X, axis=1)))
    return expfam_glm_loss(data.X.shape[1], (-1.0, 1.0), feature_map, bound)


def _model_and_data(kind):
    """A small converging (model, data) pair of each loss kind."""
    if kind == "score_matching":
        p = Process(kind="gaussian_expfam_scorematch", theta0=np.array([0.5, -0.2, 1.0, 2.0]))
        return gaussian_score_matching_loss(2), generate(p, 200, seed=3)
    if kind == "poisson":
        p = Process(kind="poisson_wellspec", theta0=theta0_equispaced(3) * 0.3)
        data = generate(p, 200, seed=1)
        return model_for_data("poisson", data.X), data
    if kind == "squared":
        data = _linear_data()
        return model_for_data("squared", data.X), data
    data = _logistic_data(n=200, d=3)
    if kind == "expfam_glm":
        return _expfam_model(data), data
    return model_for_data("logistic", data.X), data


class TestAggregates:
    def test_fields_and_shapes(self):
        data = _linear_data()
        model = model_for_data("squared", data.X)
        agg = aggregates(model, data, np.zeros(4))
        assert agg.n == data.n
        assert agg.S_n.shape == (4,) and agg.H_n.shape == (4, 4)
        assert np.allclose(agg.H_n, agg.H_n.T)
        assert np.linalg.eigvalsh(agg.G_n)[0] > -1e-12

    def test_closed_forms_for_least_squares(self):
        data = _linear_data()
        model = model_for_data("squared", data.X)
        theta = np.array([0.1, -0.2, 0.3, 0.0])
        agg = aggregates(model, data, theta)
        resid = data.X @ theta - data.y
        np.testing.assert_allclose(agg.L_n, 0.5 * np.mean(resid**2), rtol=1e-13)
        np.testing.assert_allclose(agg.S_n, data.X.T @ resid / data.n, rtol=1e-12)
        np.testing.assert_allclose(agg.H_n, data.X.T @ data.X / data.n, rtol=1e-12)

    def test_weights_must_be_finite(self):
        data = _linear_data()
        model = model_for_data("squared", data.X)
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                aggregates(model, data, np.zeros(4), weights=np.full(data.n, bad))

    def test_unit_weights_bit_identical_to_no_weights(self):
        data = _logistic_data()
        model = model_for_data("logistic", data.X)
        theta = np.full(4, 0.3)
        a = aggregates(model, data, theta)
        b = aggregates(model, data, theta, weights=np.ones(data.n))
        assert np.array_equal(a.S_n, b.S_n)
        assert np.array_equal(a.H_n, b.H_n)
        assert np.array_equal(a.G_n, b.G_n)
        assert a.L_n == b.L_n

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_fit_aggregates_match_aggregates_bit_for_bit(self, kind):
        # the Newton loop and aggregates share one arithmetic path
        model, data = _model_and_data(kind)
        fit = fit_erm(model, data)
        assert fit.converged
        agg = aggregates(model, data, fit.theta_n)
        opt = fit.aggregates_at_opt
        assert opt.L_n == agg.L_n
        assert np.array_equal(opt.S_n, agg.S_n)
        assert np.array_equal(opt.H_n, agg.H_n)
        assert np.array_equal(opt.G_n, agg.G_n)
        assert opt.n == agg.n
        dec = _newton_steps(agg.H_n[None], agg.S_n[None])[1][0]
        assert fit.newton_decrement == dec

    def test_empirical_risk_keeps_measured_R(self):
        # nu = 2: the empirical risk keeps the R measured from the data
        data = Dataset(X=np.array([[1.0, 2.0, 2.0], [0.0, 1.0, 0.0]]), y=np.array([1.0, -1.0]))
        assert prepare_batch(logistic_loss(3), data).R == 3.0  # max ||x||
        assert prepare_batch(squared_loss(3), data).R == 0.0


class TestNewtonFit:
    def test_quadratic_converges_in_one_iteration(self):
        data = _linear_data()
        model = model_for_data("squared", data.X)
        fit = fit_erm(model, data)
        assert fit.converged
        assert fit.iterations == 1
        assert fit.newton_decrement <= 1e-10
        theta_ref, *_ = np.linalg.lstsq(data.X, data.y, rcond=None)
        np.testing.assert_allclose(fit.theta_n, theta_ref, atol=1e-10)

    def test_score_matching_quadratic_one_step(self):
        p = Process(
            kind="gaussian_expfam_scorematch", theta0=np.array([0.5, -0.2, 1.0, 2.0])
        )
        data = generate(p, 500, seed=3)
        model = gaussian_score_matching_loss(2)
        fit = fit_erm(model, data)
        assert fit.converged and fit.iterations == 1

    def test_logistic_matches_scipy_optimizer(self):
        data = _logistic_data()
        model = model_for_data("logistic", data.X)
        fit = fit_erm(model, data)
        assert fit.converged

        def obj(th):
            return float(np.mean(batch_values(model, th, data.X, data.y)))

        res = minimize(obj, np.zeros(4), method="BFGS", options={"gtol": 1e-12})
        np.testing.assert_allclose(fit.theta_n, res.x, atol=1e-6)
        assert obj(fit.theta_n) <= res.fun + 1e-12

    def test_multinomial_logistic_as_expfam_matches_scipy_optimizer(self):
        # three classes on p = 3 columns: t(x, 0) = 0 and t(x, k) = x in block
        # k of theta, so theta has 2p entries while a sample has p
        rng = np.random.default_rng(5)
        n, p = 400, 3
        X = rng.standard_normal((n, p))
        theta_true = np.array([0.8, -0.5, 0.3, -0.4, 0.6, 0.9])
        logits = np.column_stack([np.zeros(n), X @ theta_true[:p], X @ theta_true[p:]])
        y = np.array([rng.choice(3, p=q) for q in softmax(logits, axis=1)], dtype=float)

        def stat(X, label):
            t = np.zeros((X.shape[0], 2 * p))
            if label > 0:
                t[:, (int(label) - 1) * p : int(label) * p] = X
            return t

        bound = float(np.max(np.linalg.norm(X, axis=1)))
        model = expfam_glm_loss(2 * p, (0.0, 1.0, 2.0), stat, bound)
        fit = fit_erm(model, Dataset(X=X, y=y))
        assert fit.converged and fit.certificate.passes

        def nll_and_grad(th):
            z = np.column_stack([np.zeros(n), X @ th[:p], X @ th[p:]])
            r = softmax(z, axis=1) - np.eye(3)[y.astype(int)]
            nll = np.mean(logsumexp(z, axis=1) - z[np.arange(n), y.astype(int)])
            return float(nll), np.concatenate([X.T @ r[:, 1], X.T @ r[:, 2]]) / n

        res = minimize(nll_and_grad, np.zeros(2 * p), jac=True, method="BFGS",
                       options={"gtol": 1e-12})
        np.testing.assert_allclose(fit.theta_n, res.x, atol=1e-9)
        assert nll_and_grad(fit.theta_n)[0] <= res.fun + 1e-15

    def test_decrement_identity_for_quadratics(self):
        # half the squared decrement at theta equals the value gap to the optimum
        data = _linear_data()
        model = model_for_data("squared", data.X)
        theta = np.array([1.0, 1.0, -1.0, 0.5])
        agg = aggregates(model, data, theta)
        fit = fit_erm(model, data)
        dec = _newton_steps(agg.H_n[None], agg.S_n[None])[1][0]
        gap = agg.L_n - fit.aggregates_at_opt.L_n
        assert 0.5 * dec**2 == pytest.approx(gap, rel=1e-9)

    def test_poisson_fit_stationary(self):
        p = Process(kind="poisson_wellspec", theta0=theta0_equispaced(3) * 0.3)
        data = generate(p, 400, seed=1)
        model = model_for_data("poisson", data.X)
        fit = fit_erm(model, data)
        assert fit.converged
        agg = aggregates(model, data, fit.theta_n)
        assert np.linalg.norm(agg.S_n) < 1e-8

    def test_iteration_budget_exhaustion(self):
        data = _logistic_data()
        model = model_for_data("logistic", data.X)
        fit = fit_erm(model, data, SolverOptions(max_iter=1))
        assert not fit.converged
        assert fit.iterations == 1
        # one Newton step was taken before the budget ran out
        assert not np.array_equal(fit.theta_n, np.zeros(4))

    def test_rank_deficient_raises_singular(self):
        # fewer rows than cols: H_n has huge null space
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(3, 6))
            y = rng.normal(size=3)
            from scmest.simdata import Dataset, Process, Provenance

            data = Dataset(
                X=X,
                y=y,
                provenance=Provenance(
                    Process(kind="linear_wellspec", theta0=np.zeros(6)), seed
                ),
            )
            model = model_for_data("squared", X)
            with pytest.raises(SingularHessian):
                fit_erm(model, data)

    def test_separable_logistic_with_degenerate_column_raises(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [-1.5, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        from scmest.simdata import Dataset, Process, Provenance

        data = Dataset(
            X=X,
            y=y,
            provenance=Provenance(Process(kind="logistic_wellspec", theta0=np.zeros(2)), 0),
        )
        with pytest.raises(SingularHessian):
            fit_erm(model_for_data("logistic", X), data)

    def test_certificate_attached_and_passing_at_optimum(self):
        data = _logistic_data()
        model = model_for_data("logistic", data.X)
        fit = fit_erm(model, data)
        assert fit.certificate is not None
        assert fit.certificate.passes
        assert fit.certificate.radius_bound == pytest.approx(4 * fit.newton_decrement)

    @given(st.integers(0, 10**6))
    def test_fit_deterministic(self, seed):
        data = _linear_data(n=25, d=3, seed=seed)
        model = model_for_data("squared", data.X)
        a = fit_erm(model, data)
        b = fit_erm(model, data)
        assert np.array_equal(a.theta_n, b.theta_n)
        assert a.newton_decrement == b.newton_decrement


# Newton iterations of the damped-only rule (alpha = 1 / (1 + d_nu) on every
# step) on these Poisson problems, d and n, at seeds 0, 1 and 2
_DAMPED_ONLY_POISSON_ITERATIONS = {(20, 10_000): (26, 26, 26), (5, 300): (13, 11, 12)}


class TestStepRule:
    def test_logistic_d60_converges_at_default_options(self):
        p = Process(kind="logistic_wellspec", theta0=theta0_equispaced(60))
        data = generate(p, 5000, seed=0)
        fit = fit_erm(model_for_data("logistic", data.X), data)
        assert fit.converged
        assert fit.certificate.passes

    @pytest.mark.parametrize(("d", "n"), [(5, 100), (20, 10_000), (60, 5000)])
    def test_logistic_converges_within_ten_iterations(self, d, n):
        p = Process(kind="logistic_wellspec", theta0=theta0_equispaced(d))
        for seed in range(3):
            data = generate(p, n, seed)
            fit = fit_erm(model_for_data("logistic", data.X), data)
            assert fit.converged and fit.iterations <= 10

    @pytest.mark.parametrize(("d", "n"), list(_DAMPED_ONLY_POISSON_ITERATIONS))
    def test_poisson_needs_no_more_iterations_than_damped_steps(self, d, n):
        p = Process(kind="poisson_wellspec", theta0=theta0_equispaced(d))
        for seed, damped_only in enumerate(_DAMPED_ONLY_POISSON_ITERATIONS[d, n]):
            data = generate(p, n, seed)
            fit = fit_erm(model_for_data("poisson", data.X), data)
            assert fit.converged and fit.iterations <= damped_only

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=1211)
    @pytest.mark.parametrize("kind", ["logistic", "poisson", "expfam_glm"])
    def test_risk_never_increases(self, kind, seed):
        # the fit under a budget of k steps stops at the k-th iterate of one
        # path, so budgets 1, 2, ... trace it.  Once the decrement is below
        # about 1e-8 a step changes L by less than L's rounding error, a few
        # ulp of |L|, so L may rise by that much, and by no more (seed 1211:
        # L = -28.26 rose by 1.07e-14 at a decrement of 2.6e-16)
        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(2, 8)), int(rng.integers(30, 400))
        process = "poisson_wellspec" if kind == "poisson" else "logistic_wellspec"
        p = Process(kind=process, theta0=theta0_equispaced(d) * rng.uniform(0.2, 1.5))
        data = generate(p, n, seed)
        model = _expfam_model(data) if kind == "expfam_glm" else model_for_data(kind, data.X)
        risks = [aggregates(model, data, np.zeros(d)).L_n]
        for k in range(1, 50):
            try:
                fit = fit_erm(model, data, SolverOptions(max_iter=k))
            except SingularHessian:  # separable data: the path ends singular
                break
            risks.append(fit.aggregates_at_opt.L_n)
            if fit.converged:
                break
        assert np.all(np.diff(risks) <= 1e-14 * max(1.0, np.max(np.abs(risks))))

    def test_overflowing_poisson_trial_is_refused_without_warning(self):
        # weight piled on an outlying count sends the full Newton step from 0
        # past the overflow limit: with R = 0 set by hand the engine takes it
        # untested and ends in overflow.  Under the measured R it tests that
        # step, refuses it (its risk is inf), and converges by damped steps;
        # no RuntimeWarning leaks (the CI run makes it an error)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 2))
        y = rng.poisson(np.exp(0.3 * X[:, 0])).astype(float)
        y[0] = 1000.0
        data = Dataset(X=X, y=y)
        heavy = np.ones(data.n)
        heavy[0] = 1e6
        unbounded = prepare_batch(poisson_loss(2), data)
        unbounded.__dict__["R"] = 0.0  # in place of the R measured on first use
        fits = _newton_engine(unbounded, heavy[None], SolverOptions())
        assert fits.status.tolist() == ["overflow"] and fits.iterations.tolist() == [1]
        measured = prepare_batch(poisson_loss(2), data)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fits = _newton_engine(measured, heavy[None], SolverOptions())
        assert fits.status.tolist() == ["converged"]
        assert np.all(np.isfinite(fits.L))


class TestPdSolve:
    def test_one_pd_rule_per_matrix(self):
        H = np.array(
            [
                [[2.0, 0.5], [0.5, 1.0]],  # positive definite
                [[1e-6, 1e-3], [1e-3, 1.0]],  # singular to round-off: jitter rescues it
                [[1.0, 2.0], [2.0, 1.0]],  # indefinite
                [[-1.0, 0.0], [0.0, 0.5]],  # nonpositive trace
            ]
        )
        R = np.ones((4, 2, 1))
        H_given = H.copy()
        X, ok = _pd_solve(H, R)
        assert ok.tolist() == [True, True, False, False]
        assert np.array_equal(H, H_given)  # the caller's stack is not modified
        assert np.array_equal(X[0], np.linalg.solve(H[0], R[0]))
        # a rescued matrix is solved with its jitter, 1e-10 trace/d
        jitter = 1e-10 * (np.trace(H[1]) / 2)
        jittered = H[1] + jitter * np.eye(2)
        assert np.array_equal(X[1], np.linalg.solve(jittered, R[1]))
        assert np.all(X[2:] == 0.0)
        # each matrix gets the same verdict alone as in the stack
        for b in range(4):
            assert _pd_solve(H[b : b + 1], R[b : b + 1])[1][0] == ok[b]

    @staticmethod
    def _min_sq_pivot_alone(M):
        try:
            return float(np.min(np.diag(np.linalg.cholesky(M)))) ** 2
        except np.linalg.LinAlgError:
            return -math.inf

    def _verdict_alone(self, H):
        """The PD test of one matrix, each factorization by np.linalg.cholesky."""
        min_sq_pivot = self._min_sq_pivot_alone
        scale = np.trace(H) / H.shape[0]
        if min_sq_pivot(H) > 1e-12 * scale:
            return True
        jitter = 1e-10 * scale
        return bool(scale > 0.0) and min_sq_pivot(H + jitter * np.eye(H.shape[0])) > 100.0 * jitter

    def test_stack_verdicts_equal_factoring_each_matrix_alone(self):
        # one batched factorization, failures and all, without a RuntimeWarning:
        # PD, singular, indefinite and near-singular matrices with eigenvalues
        # on both sides of the pivot threshold and the jitter rescue
        rng = np.random.default_rng(5)
        d = 6
        spectra = [
            np.linspace(1.0, 3.0, d),
            np.r_[np.ones(d - 1), 0.0],
            np.r_[np.ones(d - 1), -0.5],
            np.r_[np.ones(d - 2), -1e-3, 2.0],
            np.r_[np.ones(d - 1), -1e-14],
            np.zeros(d),
            -np.ones(d),
        ] + [np.r_[np.ones(d - 1), 10.0 ** -e] for e in np.arange(8.0, 17.0, 0.5)]
        H = []
        for lam in spectra * 3:
            Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            H.append((Q * lam) @ Q.T)
        # singular to round-off, with a small first pivot: the jitter rescues it
        rescued = np.eye(d)
        rescued[:2, :2] = [[1e-6, 1e-3], [1e-3, 1.0]]
        H = np.array(H + [rescued])
        H = (H + H.transpose(0, 2, 1)) / 2.0
        R = rng.standard_normal((len(H), d, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, ok = _pd_solve(H, R)
        expected = [self._verdict_alone(M) for M in H]
        assert ok.tolist() == expected
        assert 0 < sum(expected) < len(expected)
        assert self._min_sq_pivot_alone(rescued) < 1e-12 * np.trace(rescued) / d and ok[-1]

    @staticmethod
    def _slot(code, d, rng):
        """A d x d matrix of one kind: PD, rescued by the jitter, indefinite, or zero."""
        if code == "p":
            B = rng.standard_normal((d, d))
            return B @ B.T + np.eye(d)
        if code == "r":
            M = np.eye(d)
            M[:2, :2] = [[1e-6, 1e-3], [1e-3, 1.0]]
            return M
        if code == "i":
            return np.diag(np.r_[np.ones(d - 1), -1.0])
        return np.zeros((d, d))

    @pytest.mark.parametrize(
        "pattern", ["p", "pp", "r", "rp", "pr", "rrr", "prip", "zpr", "iiz", "rzpi"]
    )
    @pytest.mark.parametrize("d", [2, 4])
    def test_solutions_equal_solving_each_matrix_alone(self, d, pattern):
        # a PD matrix solves as it is and a rescued one with its jitter,
        # 1e-10 trace/d, bit for bit; the rest are zero, and H is not modified
        rng = np.random.default_rng(len(pattern) * d)
        H = np.array([self._slot(code, d, rng) for code in pattern])
        R = rng.standard_normal((len(pattern), d, 2))
        H_given = H.copy()
        X, ok = _pd_solve(H, R)
        assert np.array_equal(H, H_given)
        assert ok.tolist() == [code in "pr" for code in pattern]
        for b, code in enumerate(pattern):
            if code == "p":
                assert np.array_equal(X[b], np.linalg.solve(H[b], R[b]))
            elif code == "r":
                jitter = 1e-10 * np.trace(H[b]) / d
                assert np.array_equal(X[b], np.linalg.solve(H[b] + jitter * np.eye(d), R[b]))
            else:
                assert np.all(X[b] == 0.0)

    def test_batched_cholesky_kernel_takes_double_signature(self):
        # the PD test calls numpy's private gufunc behind np.linalg.cholesky;
        # a numpy without it, or without the "d->d" loop, fails here
        from numpy.linalg import _umath_linalg

        H = np.array([[[4.0, 2.0], [2.0, 2.0]], [[1.0, 2.0], [2.0, 1.0]]])
        with np.errstate(invalid="ignore"):
            L = _umath_linalg.cholesky_lo(H, signature="d->d")
        np.testing.assert_array_equal(L[0], np.linalg.cholesky(H[0]))
        assert np.isnan(L[1]).all()

    def test_missing_cholesky_kernel_fails_at_import(self):
        # the kernel is resolved when the fitting code is imported: a numpy
        # without it stops the import with an ImportError naming its
        # version, not an AttributeError inside the first fit
        code = (
            "import numpy.linalg._umath_linalg as kernels\n"
            "del kernels.cholesky_lo\n"
            "import scmest.estimate\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 1
        last = proc.stderr.strip().splitlines()[-1]
        assert last.startswith("ImportError: ") and "cholesky_lo" in last
        assert f"numpy {np.__version__} " in last


class TestStacksBuiltOncePerCall:
    def test_score_matching_triples(self):
        # the (A, b, c) stacks of all n samples come from one stacks_fn call
        model, data = _model_and_data("score_matching")
        calls = []
        stacks_fn = model.stacks_fn

        def counting(Z):
            calls.append(Z.shape[0])
            return stacks_fn(Z)

        counted = score_matching_loss(model.dim, counting)
        fit = fit_erm(counted, data)
        assert fit.converged
        assert calls == [data.n]
        calls.clear()
        rao_statistic(counted, data, fit.theta_n + 0.1)
        assert calls == [data.n]

    def test_statistics_at_a_null_prepare_the_dataset_once(self, monkeypatch):
        # Rao and LR read one evaluation at theta0, on the batch of the fit
        model, data = _model_and_data("score_matching")
        calls = []
        stacks_fn = model.stacks_fn

        def counting(Z):
            calls.append(Z.shape[0])
            return stacks_fn(Z)

        counted = score_matching_loss(model.dim, counting)
        fit = fit_erm(counted, data)
        theta0 = fit.theta_n + 0.1
        calls.clear()
        stats = _statistics(("rao", "lr", "wald"), counted, data, fit, theta0)
        assert stats["lr"] == lr_statistic(fit, theta0) > 0.0
        assert calls == []
        assert stats["rao"] == rao_statistic(model, data, theta0)
        # a fitted replication prepares its dataset once, for the engine, and
        # its Rao, LR and bootstrap statistics read the batch of its fit
        import scmest.estimate as estimate_module

        def counted_model(kind, X):
            return score_matching_loss(X.shape[1] * 2, counting)

        monkeypatch.setattr(estimate_module, "model_for_data", counted_model)
        proc = Process(kind="gaussian_expfam_scorematch", theta0=np.array([0.5, -0.2, 1.0, 2.0]))

        def measure(model, data, fit):
            stats = _statistics(("rao", "lr"), model, data, fit, proc.theta0)
            return stats, _bootstrap_statistics(fit, 120, 0)

        calls.clear()
        ((stats, boot),) = replicate(proc, 200, 7, 1, measure)
        assert calls == [200]
        assert stats["rao"] > 0.0 and boot[2] == 0
        # a replication's fit is completed on its slot of the engine's stacked
        # batch, which carries the R the engine measured instead of measuring again
        proc = Process(kind="poisson_wellspec", theta0=theta0_equispaced(3) * 0.3)
        batches = [prepare_batch(poisson_loss(3), generate(proc, 50, seed)) for seed in range(3)]
        X, y = np.stack([b.X for b in batches]), np.stack([b.y for b in batches])
        stacked = prepare_stack(poisson_loss(3), X, y)
        _newton_engine(stacked, np.ones((3, 50)), SolverOptions())
        for b in range(3):
            one = stacked.take(b)
            assert "R" in vars(one) and type(one.R) is float
            assert one.R == stacked.R[b] == batches[b].R
            assert not one.stacked and np.array_equal(one.X, batches[b].X)

    def test_expfam_statistics(self):
        # one feature_map call per label maps the whole sample matrix
        _, data = _model_and_data("logistic")
        calls = []

        def counting(X, y):
            calls.append(X.shape[0])
            return _expfam_stat(X, y)

        model = _expfam_model(data, counting)
        fit = fit_erm(model, data)
        assert fit.converged and fit.iterations > 1
        assert calls == [data.n] * len(model.labels)
        calls.clear()
        rao_statistic(model, data, np.zeros(model.dim))
        assert calls == [data.n] * len(model.labels)


class TestFitRecordsItsProblem:
    def test_fits_hold_the_model_and_data_they_were_given(self):
        data = _logistic_data(n=100, d=3)
        model = model_for_data("logistic", data.X)
        fit = fit_erm(model, data)
        assert fit.batch.model is model and fit.data is data
        assert fit.batch.X is data.X and "R" in vars(fit.batch)
        assert np.array_equal(fit.weights, np.ones(data.n))
        w = 1.0 + 0.1 * np.arange(data.n) / data.n
        fit = bootstrap_fit(model, data, w)
        assert fit.batch.model is model and fit.data is data and fit.weights is w
        assert all(f"{name}=" not in repr(fit) for name in ("batch", "data", "weights"))
        # three replications share one engine call, a slot each
        proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(3))
        slots = replicate(proc, 100, 0, 3, lambda model, data, fit: (model, data, fit))
        assert len(slots) == 3
        for model, data, fit in slots:
            assert fit.batch.model is model and fit.data is data
            # the slot's own batch of the engine's stacked batch, R measured
            assert not fit.batch.stacked and np.array_equal(fit.batch.X, data.X)
            assert type(vars(fit.batch)["R"]) is float
            assert np.array_equal(fit.weights, np.ones(100))

    def test_a_fit_cannot_be_built_without_its_problem(self):
        data = _logistic_data(n=100, d=3)
        model = model_for_data("logistic", data.X)
        fit = fit_erm(model, data)
        fields = dict(
            theta_n=fit.theta_n,
            aggregates_at_opt=fit.aggregates_at_opt,
            newton_decrement=fit.newton_decrement,
            iterations=fit.iterations,
            converged=fit.converged,
        )
        problem = dict(batch=fit.batch, data=data, weights=fit.weights)
        assert FitResult(**fields, **problem).weights is fit.weights
        for missing in problem:
            partial = {k: v for k, v in problem.items() if k != missing}
            with pytest.raises(TypeError, match=missing):
                FitResult(**fields, **partial)


class TestSolverOptions:
    def test_validation(self):
        bad_options = (
            dict(tol=-1.0), dict(tol=0.0), dict(tol=float("nan")), dict(tol=float("inf")),
            dict(max_iter=-1), dict(max_iter=0),
        )
        for bad in bad_options:
            with pytest.raises(DomainError):
                SolverOptions(**bad)

    def test_loose_tolerance_stops_early(self):
        data = _logistic_data()
        model = model_for_data("logistic", data.X)
        loose = fit_erm(model, data, SolverOptions(tol=1e-2))
        tight = fit_erm(model, data, SolverOptions(tol=1e-12))
        assert loose.iterations <= tight.iterations
        assert loose.converged and tight.converged


class TestLocalizationCertificate:
    # the certificate needs r_nu * decrement <= K_nu; with a Gaussian design
    # this takes a well-conditioned GLM (small signal, moderate d), since the
    # empirical R grows with the largest feature norm
    def test_passes_at_truth_for_moderate_sample(self):
        p = Process(kind="poisson_wellspec", theta0=theta0_equispaced(3) * 0.3)
        data = generate(p, 1000, seed=2)
        model = model_for_data("poisson", data.X)
        cert = localization_certificate(model, data, p.theta0)
        assert cert.passes
        assert cert.bound == pytest.approx(4.0 * cert.score_norm)

    def test_fails_for_small_ill_conditioned_sample(self):
        p = Process(kind="logistic_wellspec", theta0=theta0_equispaced(4))
        data = generate(p, 500, seed=2)
        model = model_for_data("logistic", data.X)
        cert = localization_certificate(model, data, p.theta0)
        assert not cert.passes and cert.bound == math.inf

    def test_bound_actually_localizes_the_fit(self):
        p = Process(kind="poisson_wellspec", theta0=theta0_equispaced(3) * 0.3)
        data = generate(p, 1000, seed=7)
        model = model_for_data("poisson", data.X)
        cert = localization_certificate(model, data, p.theta0)
        fit = fit_erm(model, data)
        agg0 = aggregates(model, data, p.theta0)
        diff = fit.theta_n - p.theta0
        dist = math.sqrt(float(diff @ agg0.H_n @ diff))
        assert cert.passes and dist <= cert.bound

    @pytest.mark.parametrize("n", [100, 2000])
    def test_logistic_certificate_uses_the_measured_r(self, n):
        # a declared R = 0 would make this risk quadratic: its certificate at
        # theta0 would pass on every seed, and so would the certificate of
        # the fit after one Newton step.  No call takes R; it is max ||x_i||
        with pytest.raises(TypeError):
            logistic_loss(5, 0.0)
        p = Process(kind="logistic_wellspec", theta0=theta0_equispaced(5))
        data = generate(p, n, seed=0)
        model = logistic_loss(5)
        cert = localization_certificate(model, data, p.theta0)
        eigs = np.linalg.eigvalsh(aggregates(model, data, p.theta0).H_n)
        R = float(np.max(np.linalg.norm(data.X, axis=1)))
        measured = certify_unique_minimizer(
            R, SpectralSummary(eigs[0], eigs[-1]), cert.score_norm
        )
        assert cert.passes == measured.passes
        assert not cert.passes
        assert not fit_erm(model, data, SolverOptions(max_iter=1)).certificate.passes

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 2.0))
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_passing_certificate_localizes_the_fit(self, kind, seed, t):
        # theta_ref lies t sqrt(lambda_min)/(2R) from theta_n in the
        # H_n(theta_n) norm (any t for the quadratic kinds, whose R is 0),
        # so the certificate r_nu dec <= 1/2 passes for t up to about 1
        model, data = _model_and_data(kind)
        fit = fit_erm(model, data)
        H = fit.aggregates_at_opt.H_n
        R = prepare_batch(model, data).R
        scale = 0.5 * math.sqrt(np.linalg.eigvalsh(H)[0]) / R if R > 0.0 else 1.0
        u = np.random.default_rng(seed).normal(size=model.dim)
        theta_ref = fit.theta_n + t * scale * u / math.sqrt(u @ H @ u)
        cert = localization_certificate(model, data, theta_ref)
        assert cert.passes or t > 0.25
        if cert.passes:
            H_ref = aggregates(model, data, theta_ref).H_n
            diff = fit.theta_n - theta_ref
            # theta_n is the minimizer to within the solver tolerance
            assert math.sqrt(diff @ H_ref @ diff) <= cert.bound + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["squared", "logistic", "poisson"])
    def test_score_norm_at_the_fit_is_its_newton_decrement(self, kind, seed):
        # the certificate takes the decrement with the engine's arithmetic
        theta0 = theta0_equispaced(3) * (0.3 if kind == "poisson" else 1.0)
        proc_kind = "linear_wellspec" if kind == "squared" else f"{kind}_wellspec"
        data = generate(Process(kind=proc_kind, theta0=theta0), 150, seed)
        model = model_for_data(kind, data.X)
        fit = fit_erm(model, data)
        cert = localization_certificate(model, data, fit.theta_n)
        assert cert.score_norm == fit.newton_decrement

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_matches_the_fit_certificate_at_the_fit(self, kind):
        # one rule certifies both: at theta_n the two certificates agree
        model, data = _model_and_data(kind)
        fit = fit_erm(model, data)
        assert fit.converged
        cert = localization_certificate(model, data, fit.theta_n)
        assert cert.passes == fit.certificate.passes
        assert cert.bound == pytest.approx(fit.certificate.radius_bound, rel=1e-12)

    def test_singular_hessian_at_the_reference_raises(self):
        # collinear columns, exact in binary: H_n is singular yet passes the
        # jittered PD test of the decrement, and its spectrum has lambda_min 0
        u = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
        data = Dataset(X=np.column_stack([2.0**-7 * u, u]), y=u)
        with pytest.raises(SingularHessian, match=r"H_n\(theta_ref\)"):
            localization_certificate(squared_loss(2), data, np.zeros(2))

    def test_failing_certificate_reports_inf(self):
        # absurdly small sample: the score norm is too large to certify
        p = Process(kind="logistic_wellspec", theta0=theta0_equispaced(4) + 3.0)
        data = generate(p, 5, seed=11)
        model = model_for_data("logistic", data.X)
        try:
            cert = localization_certificate(model, data, np.zeros(4))
        except SingularHessian:
            return  # tiny samples may not even be PD, equally acceptable
        if not cert.passes:
            assert cert.bound == math.inf
