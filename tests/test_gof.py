"""Rao/LR/Wald statistics, critical-value rules, and power curves."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import chi2

from scmest import estimate
from scmest.errors import (
    DimensionMismatch,
    DomainError,
    MissingSampler,
    NonConverged,
    NumericOverflow,
    SingularHessian,
    TooManyFailures,
    check_failures,
)
from scmest.estimate import EmpiricalAggregates, FitResult, SolverOptions, fit_erm, replicate
from scmest.gof import (
    TEST_KINDS,
    PowerCurveConfig,
    PowerRow,
    _statistics,
    _statistics_at,
    lr_statistic,
    null_statistics,
    power_curve,
    rao_statistic,
    run_test,
    wald_statistic,
)
from scmest.gof import TestReport as Report
from scmest.losses import model_for_data
from scmest.simdata import Dataset, Process, generate, loss_kind_for, phase_seed
from scmest.simdata import theta0_equispaced, write_table

LINEAR3 = Process(kind="linear_wellspec", theta0=theta0_equispaced(3))


def _linear_fit(n=400, seed=0, proc=LINEAR3):
    data = generate(proc, n, seed)
    model = model_for_data("squared", data.X)
    return model, data, fit_erm(model, data)


class TestRaoStatistic:
    def test_zero_at_normal_equation_solution(self):
        model, data, fit = _linear_fit()
        assert rao_statistic(model, data, fit.theta_n) < 1e-18

    def test_no_fit_needed_and_stateless(self):
        model, data, _ = _linear_fit()
        before = rao_statistic(model, data, LINEAR3.theta0)
        fit_erm(model, data)
        after = rao_statistic(model, data, LINEAR3.theta0)
        assert before == after

    def test_reparameterization_invariance(self):
        model, data, _ = _linear_fit()
        A = np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.5]])
        X2 = data.X @ A.T
        model2 = model_for_data("squared", X2)
        data2 = Dataset(X=X2, y=data.y)
        theta2 = np.linalg.solve(A.T, LINEAR3.theta0)
        s1 = rao_statistic(model, data, LINEAR3.theta0)
        s2 = rao_statistic(model2, data2, theta2)
        assert abs(s1 - s2) / s1 < 1e-8

    def test_scales_like_dimension_over_n(self):
        proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(5))
        vals = []
        for seed in range(300):
            data = generate(proc, 2000, seed)
            model = model_for_data("logistic", data.X)
            vals.append(rao_statistic(model, data, proc.theta0))
        ratio = np.mean(vals) * 2000 / 5
        assert 0.8 < ratio < 1.2

    def test_degenerate_design_raises(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
        y = np.array([0.5, 1.0, -0.5])
        model = model_for_data("squared", X)
        with pytest.raises(SingularHessian):
            rao_statistic(model, Dataset(X=X, y=y), np.zeros(2))


class TestLrAndWaldStatistics:
    def test_zero_at_the_optimum(self):
        model, data, fit = _linear_fit()
        assert lr_statistic(fit, fit.theta_n) <= 1e-10
        assert wald_statistic(fit, fit.theta_n) <= 1e-10

    def test_quadratic_case_all_three_agree(self):
        # with a constant Hessian the deviance is exactly the Wald distance,
        # and the score at theta0 is H (theta0 - theta_n)
        model, data, fit = _linear_fit(seed=3)
        t_lr = lr_statistic(fit, LINEAR3.theta0)
        t_wald = wald_statistic(fit, LINEAR3.theta0)
        t_rao = rao_statistic(model, data, LINEAR3.theta0)
        assert t_lr == pytest.approx(t_wald, abs=1e-9)
        assert t_rao == pytest.approx(t_lr, abs=1e-9)

    def test_wilks_scaling(self):
        vals = []
        for seed in range(200):
            model, data, fit = _linear_fit(n=1000, seed=seed)
            vals.append(1000 * lr_statistic(fit, LINEAR3.theta0) / 3)
        assert 0.85 < np.mean(vals) < 1.15

    def test_lr_guards_against_bogus_fit(self):
        model, data, fit = _linear_fit()
        agg = fit.aggregates_at_opt
        bogus = FitResult(
            theta_n=fit.theta_n,
            aggregates_at_opt=EmpiricalAggregates(
                L_n=agg.L_n + 1.0, S_n=agg.S_n, H_n=agg.H_n, G_n=agg.G_n, n=agg.n
            ),
            newton_decrement=0.0,
            iterations=1,
            converged=True,
            batch=fit.batch,
            data=data,
            weights=fit.weights,
        )
        with pytest.raises(DomainError, match="not a minimizer"):
            lr_statistic(bogus, LINEAR3.theta0)

    def test_both_require_convergence(self):
        proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(3))
        data = generate(proc, 200, 0)
        model = model_for_data("logistic", data.X)
        stalled = fit_erm(model, data, SolverOptions(max_iter=1, tol=1e-12))
        assert not stalled.converged
        with pytest.raises(NonConverged):
            lr_statistic(stalled, proc.theta0)
        with pytest.raises(NonConverged):
            wald_statistic(stalled, proc.theta0)

    def test_rao_and_lr_raise_where_exp_overflows_at_theta0(self):
        proc = Process(kind="poisson_wellspec", theta0=theta0_equispaced(3) * 0.3)
        data = generate(proc, 200, 0)
        model = model_for_data("poisson", data.X)
        fit = fit_erm(model, data)
        theta0 = np.full(3, 1000.0)
        with pytest.raises(NumericOverflow):
            rao_statistic(model, data, theta0)
        with pytest.raises(NumericOverflow):
            lr_statistic(fit, theta0)

    def test_theta0_must_be_a_finite_vector_of_the_model_dim(self):
        # a 1-vector broadcast against theta_n in the Wald statistic, and a
        # NaN entry made the Wald and LR statistics NaN
        model, data, fit = _linear_fit()
        for statistic in (
            lambda theta0: rao_statistic(model, data, theta0),
            lambda theta0: lr_statistic(fit, theta0),
            lambda theta0: wald_statistic(fit, theta0),
        ):
            with pytest.raises(DimensionMismatch):
                statistic([0.5])
            with pytest.raises(DomainError, match="theta must be finite"):
                statistic([np.nan, 0.5, 1.0])

    def test_reparameterization_invariance(self):
        proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(3))
        data = generate(proc, 500, 1)
        model = model_for_data("logistic", data.X)
        fit = fit_erm(model, data)
        A = np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.5]])
        X2 = data.X @ A.T
        data2 = Dataset(X=X2, y=data.y)
        model2 = model_for_data("logistic", X2)
        fit2 = fit_erm(model2, data2)
        theta2 = np.linalg.solve(A.T, proc.theta0)
        for s1, s2 in [
            (lr_statistic(fit, proc.theta0), lr_statistic(fit2, theta2)),
            (wald_statistic(fit, proc.theta0), wald_statistic(fit2, theta2)),
            (rao_statistic(model, data, proc.theta0), rao_statistic(model2, data2, theta2)),
        ]:
            assert abs(s1 - s2) / s1 < 1e-8


class TestTestReport:
    def test_reject_flag_must_be_consistent(self):
        # reject is derived, statistic > critical, so it cannot disagree
        assert Report(statistic=2.0, kind="wald", critical=1.0, n=10, d=2).reject
        assert not Report(statistic=0.5, kind="wald", critical=1.0, n=10, d=2).reject
        assert not Report(statistic=1.0, kind="wald", critical=1.0, n=10, d=2).reject
        with pytest.raises(TypeError):
            Report(statistic=2.0, kind="wald", critical=1.0, reject=False, n=10, d=2)

    def test_kind_validated(self):
        with pytest.raises(DomainError):
            Report(statistic=1.0, kind="score", critical=1.0, n=10, d=2)


class TestRunTest:
    def test_scaled_dim_default_matches_chi_square(self):
        model, data, fit = _linear_fit(n=250)
        report = run_test("wald", model, data, LINEAR3.theta0, 0.05, "scaled_dim")
        assert report.critical == float(chi2.ppf(0.95, 3)) / 250
        assert report.n == 250 and report.d == 3
        # SciPy's chi2.ppf over n, bit for bit, at every d and level
        rng = np.random.default_rng(11)
        X, y = rng.standard_normal((250, 200)), rng.standard_normal(250)
        for d in range(1, 201):
            data = Dataset(X=X[:, :d], y=y)
            model = model_for_data("squared", data.X)
            for alpha in (0.5, 0.1, 0.05, 0.01, 1e-3, 1e-6):
                report = run_test("rao", model, data, np.zeros(d), alpha, "scaled_dim")
                assert report.critical == float(chi2.ppf(1.0 - alpha, d)) / 250, (d, alpha)

    def test_scaled_dim_custom_constant(self):
        # a chosen constant c gives the critical value c d/n through the explicit rule
        model, data, fit = _linear_fit(n=250)
        critical = 2.0 * 3 / 250
        report = run_test("wald", model, data, LINEAR3.theta0, 0.05, "explicit", critical=critical)
        assert report.critical == critical
        with pytest.raises(TypeError, match="c_scale"):
            run_test("wald", model, data, LINEAR3.theta0, 0.05, "scaled_dim", c_scale=2.0)

    def test_explicit_rule(self):
        model, data, fit = _linear_fit()
        report = run_test("lr", model, data, fit.theta_n, 0.05, "explicit", critical=1e-6)
        assert not report.reject
        with pytest.raises(DomainError):
            run_test("lr", model, data, fit.theta_n, 0.05, "explicit")

    @pytest.mark.parametrize(
        "rule, option",
        [
            ("explicit", {"critical": float("nan")}),
            ("explicit", {"critical": float("inf")}),
            ("scaled_dim", {"critical": float("nan")}),
            ("scaled_dim", {"critical": float("inf")}),
        ],
    )
    def test_critical_value_inputs_checked(self, rule, option):
        # a NaN critical value would never reject; it is refused under every rule
        model, data, fit = _linear_fit(n=100)
        name = next(iter(option))
        with pytest.raises(DomainError, match=name):
            run_test("wald", model, data, LINEAR3.theta0, 0.05, rule, **option)

    def test_oracle_rule_needs_process_and_is_deterministic(self):
        # the oracle replays the process recorded in the data's provenance,
        # which data built by hand (or read from CSV) lack
        model, data, _ = _linear_fit(n=100)
        bare = Dataset(X=data.X, y=data.y)
        with pytest.raises(MissingSampler):
            run_test("wald", model, bare, LINEAR3.theta0, 0.1, "oracle_mc", calib_reps=50)
        a = run_test("wald", model, data, LINEAR3.theta0, 0.1, "oracle_mc", calib_reps=50, seed=4)
        b = run_test("wald", model, data, LINEAR3.theta0, 0.1, "oracle_mc", calib_reps=50, seed=4)
        assert a == b
        null = null_statistics(("wald",), LINEAR3, 100, 50, phase_seed(4, 0))["wald"]
        assert a.critical == float(np.quantile(null, 0.9))

    def test_oracle_calibration_holds_its_level(self):
        # the critical value depends only on (process, n, alpha, reps, seed),
        # so calibrate once and replay fresh null datasets against it
        alpha = 0.2
        data0 = generate(LINEAR3, 200, 10_000)
        model0 = model_for_data("squared", data0.X)
        report = run_test(
            "wald", model0, data0, LINEAR3.theta0, alpha, "oracle_mc", calib_reps=800, seed=3
        )
        rejections = 0
        for seed in range(600):
            data = generate(LINEAR3, 200, 20_000 + seed)
            model = model_for_data("squared", data.X)
            fit = fit_erm(model, data)
            rejections += wald_statistic(fit, LINEAR3.theta0) > report.critical
        rate = rejections / 600
        assert abs(rate - alpha) < 0.06

    def test_oracle_rule_drops_unconverged_null_fits(self):
        # logistic at d = 5, n = 30 under a 15-step budget: two of the 40 null
        # fits of seed 3, whose data are separable, stop at max_iter
        proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(5))
        opts = SolverOptions(max_iter=15)
        null = null_statistics(("wald",), proc, 30, 40, phase_seed(3, 0), opts)["wald"]
        assert null.size == 38
        data = generate(proc, 30, 0)
        report = run_test(
            "wald", model_for_data("logistic", data.X), data, proc.theta0, 0.1, "oracle_mc",
            calib_reps=40, seed=3, opts=opts,
        )
        assert report.critical == float(np.quantile(null, 0.9))

    def test_oracle_rule_calibrates_under_the_null(self):
        # the process draws the data at theta = 1.5 (1, 1, 1) and the test's
        # null is 0: the critical value is the quantile under the null
        proc = Process(kind="logistic_wellspec", theta0=np.full(3, 1.5))
        theta0 = np.zeros(3)
        data = generate(proc, 300, 0)
        report = run_test(
            "rao", model_for_data("logistic", data.X), data, theta0, 0.05, "oracle_mc",
            calib_reps=100, seed=0,
        )
        null_proc = Process(kind="logistic_wellspec", theta0=theta0)
        null = null_statistics(("rao",), null_proc, 300, 100, phase_seed(0, 0))["rao"]
        assert report.critical == float(np.quantile(null, 0.95))

    def test_rao_null_statistics_fit_nothing(self, monkeypatch):
        # logistic at d = 2, n = 6 under 1000 iterations: the fits of three of
        # seeds 0..19 run down to a singular Hessian, so Wald drops them
        proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(2))
        opts = SolverOptions(max_iter=1000)
        calls = []
        engine = estimate._newton_engine
        monkeypatch.setattr(estimate, "_newton_engine", lambda *a: calls.append(1) or engine(*a))
        rao = null_statistics(("rao",), proc, 6, 20, 0, opts)["rao"]
        assert calls == []
        singular = 0
        for seed in range(20):
            data = generate(proc, 6, seed)
            model = model_for_data("logistic", data.X)
            assert rao[seed] == rao_statistic(model, data, proc.theta0)
            try:
                fit_erm(model, data, opts)
            except SingularHessian:
                singular += 1
        assert singular == 3
        with pytest.raises(TooManyFailures, match=r"3 of 20 replications failed \(singular: 3\)"):
            null_statistics(("rao", "wald"), proc, 6, 20, 0, opts)
        assert calls

    @pytest.mark.parametrize("kind", TEST_KINDS)
    def test_bad_null_raises_before_calibrating(self, kind):
        # without provenance the oracle rule raises MissingSampler; the null
        # is checked first, and d is the model's
        model, data, _ = _linear_fit()
        bare = Dataset(X=data.X, y=data.y)
        with pytest.raises(DimensionMismatch):
            run_test(kind, model, bare, [0.5], 0.05, "oracle_mc")
        with pytest.raises(DomainError, match="theta must be finite"):
            run_test(kind, model, bare, [np.nan, 0.5, 1.0], 0.05, "oracle_mc")
        assert run_test(kind, model, data, LINEAR3.theta0, 0.05, "scaled_dim").d == model.dim

    def test_validation(self):
        model, data, _ = _linear_fit()
        with pytest.raises(DomainError):
            run_test("score", model, data, LINEAR3.theta0, 0.05, "scaled_dim")
        with pytest.raises(DomainError):
            run_test("wald", model, data, LINEAR3.theta0, 0.05, "bonferroni")
        with pytest.raises(DomainError):
            run_test("wald", model, data, LINEAR3.theta0, 1.2, "scaled_dim")


def _per_replication(kinds, theta0, process, n, reps, seed_base, opts=None):
    """The reference of the chunked statistics: _statistics of one replication at a time.

    Kinds that need a fit run over ``replicate``, whose fits drop and count
    as a fitted replication does; Rao alone fits nothing and evaluates each
    dataset on its own.
    """

    def statistics(model, data, fit):
        return _statistics(kinds, model, data, fit, theta0)

    if "lr" in kinds or "wald" in kinds:
        rows = replicate(process, n, seed_base, reps, statistics, opts)
    else:
        rows, causes = [], Counter()
        for seed in range(seed_base, seed_base + reps):
            data = generate(process, n, seed)
            try:
                rows.append(statistics(model_for_data(loss_kind_for(process), data.X), data, None))
            except (SingularHessian, NumericOverflow) as exc:
                causes[exc.cause] += 1
        check_failures(causes, reps, "replications")
    return {kind: np.array([row[kind] for row in rows]) for kind in kinds}


def _outcome(run):
    """The per-kind statistics as bytes, or the type and message of what raised."""
    try:
        return {kind: values.tobytes() for kind, values in run().items()}
    except (TooManyFailures, DomainError) as exc:
        return type(exc), str(exc)


_KIND_SUBSETS = [kinds for r in (1, 2, 3) for kinds in combinations(TEST_KINDS, r)]
_NULL_PROCESSES = {
    "logistic": Process(kind="logistic_wellspec", theta0=theta0_equispaced(4)),
    "poisson": Process(kind="poisson_wellspec", theta0=theta0_equispaced(4) * 0.3),
    "squared": Process(kind="linear_misspec_t", theta0=theta0_equispaced(4)),
    "score_matching": Process(
        kind="gaussian_expfam_scorematch", theta0=np.array([0.5, -0.2, 1.0, 2.0])
    ),
}


class TestStatisticsPerChunk:
    """A chunk of replications gives each one the statistics of its own dataset, bit for bit."""

    @pytest.mark.parametrize("kinds", _KIND_SUBSETS, ids="+".join)
    @pytest.mark.parametrize("loss", sorted(_NULL_PROCESSES))
    def test_every_subset_equals_per_replication(self, loss, kinds):
        # n d = 2400 puts 20 replications in a chunk: 45 make three chunks
        process = _NULL_PROCESSES[loss]
        got = null_statistics(kinds, process, 600, 45, 3)
        want = _per_replication(kinds, process.theta0, process, 600, 45, 3)
        assert list(got) == list(kinds)
        for kind in kinds:
            assert got[kind].dtype == np.float64 and got[kind].size == 45
            assert got[kind].tobytes() == want[kind].tobytes()

    @pytest.mark.parametrize("kinds", [("lr",), ("wald", "lr"), ("rao",), TEST_KINDS], ids="+".join)
    def test_overflow_at_theta0_drops_the_same_replications(self, kinds):
        # at n = 50, exp(theta0'x) overflows on 4 of 40 Poisson datasets for
        # theta0 = 150 (1, 1, 1) and on 10 for 170; H_n(theta0) of most others
        # fails the PD test for Rao, and Wald never evaluates at theta0
        process = Process(kind="poisson_wellspec", theta0=theta0_equispaced(3) * 0.3)
        for scale, overflow in ((150.0, 4), (170.0, 10)):
            theta0 = np.full(3, scale)
            got = _outcome(lambda: _statistics_at(kinds, theta0, process, 50, 40, 0))
            assert got == _outcome(lambda: _per_replication(kinds, theta0, process, 50, 40, 0))
            if "rao" in kinds:
                singular = {4: 34, 10: 28}[overflow]
                detail = f"overflow: {overflow}, singular: {singular}"
                assert got == (TooManyFailures, f"38 of 40 replications failed ({detail})")
            elif overflow > 4:
                assert got == (TooManyFailures, "10 of 40 replications failed (overflow: 10)")
            else:
                # 36 values of 8 bytes per kind
                assert [len(values) for values in got.values()] == [36 * 8] * len(kinds)

    @pytest.mark.parametrize("kinds", [("rao",), ("rao", "lr"), ("wald", "rao")], ids="+".join)
    def test_singular_hessian_at_theta0_drops_the_same_replications(self, kinds):
        # a logistic null far out in the tail leaves the curvature of fewer
        # than d samples: H_n(theta0) fails the PD test on 3 of 40 datasets at
        # n = 12 for theta0 = 50 (1, 1, 1), and on 22 of 40 for 100
        process = Process(kind="logistic_wellspec", theta0=theta0_equispaced(3))
        for scale in (50.0, 100.0):
            theta0 = np.full(3, scale)
            got = _outcome(lambda: _statistics_at(kinds, theta0, process, 12, 40, 0))
            assert got == _outcome(lambda: _per_replication(kinds, theta0, process, 12, 40, 0))
            if kinds == ("rao",) and scale == 50.0:
                assert len(got["rao"]) == 37 * 8
            elif kinds == ("rao",):
                assert got == (TooManyFailures, "22 of 40 replications failed (singular: 22)")

    @pytest.mark.parametrize("kinds", [("lr",), ("rao", "lr", "wald"), ("wald", "lr")], ids="+".join)
    def test_negative_lr_raises_the_same_domain_error(self, kinds):
        # a tolerance no decrement exceeds stops every fit at theta = 0, where
        # the risk is above the risk at the true theta0
        process = Process(kind="logistic_wellspec", theta0=theta0_equispaced(3))
        opts = SolverOptions(tol=1e3)
        args = (kinds, process.theta0, process, 200, 30, 5, opts)
        got = _outcome(lambda: _statistics_at(*args))
        assert got[0] is DomainError and "not a minimizer" in got[1]
        assert got == _outcome(lambda: _per_replication(*args))

    def test_kinds_order_decides_between_drop_and_domain_error(self):
        # at n = 5 and the null 30 theta0, seed 0 has both a singular
        # H_n(theta0) and a negative LR: Rao first drops it and the error
        # names seed 16's LR, LR first raises on seed 0's
        process = Process(kind="logistic_wellspec", theta0=theta0_equispaced(3))
        opts = SolverOptions(tol=1e3)
        outcomes = []
        for kinds in (("rao", "lr"), ("lr", "rao")):
            args = (kinds, 30.0 * process.theta0, process, 5, 30, 0, opts)
            outcomes.append(_outcome(lambda: _statistics_at(*args)))
            assert outcomes[-1][0] is DomainError
            assert outcomes[-1] == _outcome(lambda: _per_replication(*args))
        assert outcomes[0] != outcomes[1]

    def test_no_fit_result_per_replication(self, monkeypatch):
        calls = []
        fit_result = estimate._fit_result
        monkeypatch.setattr(
            estimate, "_fit_result", lambda *a: calls.append(1) or fit_result(*a)
        )
        process = _NULL_PROCESSES["logistic"]
        null_statistics(TEST_KINDS, process, 200, 30, 0)
        config = PowerCurveConfig(
            process=process, alternatives=[process.theta0 + 0.2], n_grid=(100,), reps=20,
            calib_reps=20,
        )
        power_curve(config)
        assert calls == []
        # the patch is live: replicate completes one FitResult per replication
        replicate(process, 200, 0, 3, lambda model, data, fit: fit.converged)
        assert calls == [1, 1, 1]


class TestPhaseSeed:
    def test_deterministic_and_in_range(self):
        for seed in (0, 1, 2**40):
            for phase in (0, 1, 17):
                a = phase_seed(seed, phase)
                assert a == phase_seed(seed, phase)
                assert 0 <= a < 2**63

    def test_phases_do_not_collide(self):
        seeds = [phase_seed(0, p) for p in range(64)]
        assert len(set(seeds)) == 64

    def test_distinct_across_user_seeds(self):
        assert phase_seed(0, 5) != phase_seed(1, 5)

    def test_ignores_global_rng_state(self):
        np.random.seed(123)
        a = phase_seed(9, 2)
        np.random.seed(456)
        assert a == phase_seed(9, 2)

    @pytest.mark.parametrize("seed, phase", [(-1, 0), (1.5, 0), (True, 0), (0, -2), (0, 0.5)])
    def test_seed_and_phase_must_be_nonnegative_integers(self, seed, phase):
        name = "seed" if phase == 0 else "phase"
        with pytest.raises(DomainError, match=f"{name} must be a nonnegative integer"):
            phase_seed(seed, phase)
        assert phase_seed(np.int64(9), np.uint8(2)) == phase_seed(9, 2)


class TestPowerCurve:
    theta0 = theta0_equispaced(2)

    def _config(self, **overrides):
        base = dict(
            process=Process(kind="linear_wellspec", theta0=self.theta0),
            alternatives=(
                self.theta0,
                self.theta0 + np.array([0.3, 0.0]),
                self.theta0 + np.array([0.6, 0.0]),
            ),
            n_grid=(100, 300),
            alpha=0.05,
            reps=80,
            calib_reps=150,
            seed=0,
        )
        base.update(overrides)
        return PowerCurveConfig(**base)

    def test_deterministic(self):
        config = self._config()
        assert power_curve(config).rows == power_curve(config).rows

    def test_null_row_holds_level(self):
        table = power_curve(self._config())
        for n in (100, 300):
            for kind in TEST_KINDS:
                assert table.lookup(kind, n, 0.0).power <= 0.15

    def test_power_increases_with_distance(self):
        table = power_curve(self._config())
        for n in (100, 300):
            for kind in TEST_KINDS:
                powers = [table.lookup(kind, n, dist).power for dist in (0.0, 0.3, 0.6)]
                assert all(b >= a - 0.05 for a, b in zip(powers, powers[1:]))

    def test_power_grows_with_sample_size(self):
        table = power_curve(self._config())
        for kind in TEST_KINDS:
            assert table.lookup(kind, 300, 0.3).power >= table.lookup(kind, 100, 0.3).power - 0.05

    def test_stderr_is_binomial(self):
        table = power_curve(self._config())
        row = table.lookup("wald", 100, 0.3)
        assert row.stderr == pytest.approx(np.sqrt(row.power * (1 - row.power) / 80), rel=1e-12)

    def test_lookup_missing_row(self):
        table = power_curve(self._config())
        with pytest.raises(KeyError):
            table.lookup("wald", 100, 0.7)

    def test_single_kind_string_normalized(self):
        config = self._config(kinds="rao", n_grid=(100,), reps=20, calib_reps=30)
        table = power_curve(config)
        assert {row.kind for row in table.rows} == {"rao"}

    def test_config_validation(self):
        with pytest.raises(DomainError):
            self._config(kinds=("rao", "score"))
        with pytest.raises(DomainError):
            self._config(alpha=0.0)
        with pytest.raises(DomainError):
            self._config(reps=0)
        with pytest.raises(DomainError, match="n_grid entries must be positive"):
            self._config(n_grid=(100, 0))
        for empty in ("alternatives", "n_grid", "kinds"):
            with pytest.raises(DomainError, match="nonempty"):
                self._config(**{empty: ()})


class TestPowerCsv:
    def test_format_and_round_trip(self, tmp_path):
        table = power_curve(
            PowerCurveConfig(
                process=Process(kind="linear_wellspec", theta0=theta0_equispaced(2)),
                alternatives=(theta0_equispaced(2) + np.array([0.5, 0.0]),),
                n_grid=(80,),
                kinds="wald",
                reps=20,
                calib_reps=30,
                seed=1,
            )
        )
        path = tmp_path / "power.csv"
        write_table(table.rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "kind,n,dist,power,stderr"
        kind, n, dist, power, stderr = lines[2].split(",")
        assert kind == "wald" and n == "80"
        assert dist == "0.5"
        row = table.rows[0]
        assert float(power) == row.power and float(stderr) == row.stderr
