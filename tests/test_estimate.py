"""Newton fitting and its step rule, aggregates, singularity handling, certificates."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from scmest.bootstrap import bootstrap_fit
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
from scmest.gof import rao_statistic
from scmest.losses import (
    LOSS_KINDS,
    batch_values,
    expfam_glm_loss,
    gaussian_score_matching_loss,
    logistic_loss,
    model_for_data,
    poisson_loss,
    prepare_batch,
    score_matching_loss,
    squared_loss,
)
from scmest.scfun import ScParams, SpectralSummary, certify_unique_minimizer
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

    def test_empirical_sc_params_scaling(self):
        # nu = 2: the empirical risk keeps the R measured from the data
        data = Dataset(X=np.array([[1.0, 2.0, 2.0], [0.0, 1.0, 0.0]]), y=np.array([1.0, -1.0]))
        p = prepare_batch(logistic_loss(3), data).sc_params
        assert p.nu == 2.0
        assert p.R == 3.0  # max ||x||
        assert prepare_batch(squared_loss(3), data).sc_params.R == 0.0


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
    @pytest.mark.parametrize("kind", ["logistic", "poisson", "expfam_glm"])
    def test_risk_never_increases(self, kind, seed):
        # the fit under a budget of k steps stops at the k-th iterate of one
        # path, so budgets 1, 2, ... trace it.  Once the decrement is below
        # about 1e-8 a step changes L by less than L's rounding error, so L
        # may rise by that much, and by no more
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
        assert np.all(np.diff(risks) <= 1e-14)

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
        X, ok = _pd_solve(H, R)
        assert ok.tolist() == [True, True, False, False]
        np.testing.assert_allclose(X[0], np.linalg.solve(H[0], R[0]), rtol=1e-14)
        # a rescued matrix is solved with its jitter, 1e-10 trace/d
        jittered = H[1] + 1e-10 * np.trace(H[1]) / 2 * np.eye(2)
        np.testing.assert_allclose(X[1], np.linalg.solve(jittered, R[1]), rtol=1e-10)
        assert np.all(X[2:] == 0.0)
        # each matrix gets the same verdict alone as in the stack
        for b in range(4):
            assert _pd_solve(H[b : b + 1], R[b : b + 1])[1][0] == ok[b]


class TestStacksBuiltOncePerCall:
    def test_score_matching_triples(self):
        # the (A, b, c) stacks of all n samples come from one stacks_fn call
        model, data = _model_and_data("score_matching")
        calls = []
        stacks_fn = model.stacks_fn

        def counting(Z):
            calls.append(Z.shape[0])
            return stacks_fn(Z)

        counted = score_matching_loss(model.dim, model.raw_dim, counting)
        fit = fit_erm(counted, data)
        assert fit.converged
        assert calls == [data.n]
        calls.clear()
        rao_statistic(counted, data, fit.theta_n + 0.1)
        assert calls == [data.n]

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
        assert fit.model is model and fit.data is data
        assert np.array_equal(fit.weights, np.ones(data.n))
        w = 1.0 + 0.1 * np.arange(data.n) / data.n
        fit = bootstrap_fit(model, data, w)
        assert fit.model is model and fit.data is data and fit.weights is w
        assert "data=" not in repr(fit) and "weights=" not in repr(fit)
        # three replications share one engine call, a slot each
        proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(3))
        slots = replicate(proc, 100, 0, 3, lambda model, data, fit: (model, data, fit))
        assert len(slots) == 3
        for model, data, fit in slots:
            assert fit.model is model and fit.data is data
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
        problem = dict(model=model, data=data, weights=fit.weights)
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
            ScParams(R, 2.0), SpectralSummary(eigs[0], eigs[-1]), cert.score_norm
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

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_matches_the_fit_certificate_at_the_fit(self, kind):
        # one rule certifies both: at theta_n the two certificates agree
        model, data = _model_and_data(kind)
        fit = fit_erm(model, data)
        assert fit.converged
        cert = localization_certificate(model, data, fit.theta_n)
        assert cert.passes == fit.certificate.passes
        assert cert.bound == pytest.approx(fit.certificate.radius_bound, rel=1e-12)

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
