"""Effective dimension, concentration levels, radii, and confidence sets."""

import json
import math

import numpy as np
import pytest

from scmest.bootstrap import BootstrapConfig, bootstrap_quantile
from scmest.errors import (
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    MissingSampler,
    NonConverged,
    SingularHessian,
)
from scmest.estimate import EmpiricalAggregates, FitResult, SolverOptions, fit_erm
from scmest.gof import wald_statistic
from scmest.inference import (
    AssumptionConstants,
    ConfidenceSet,
    calibrated_radius,
    confidence_set,
    critical_sample_size,
    effective_dim_empirical,
    effective_dim_oracle,
    effective_dim_spectrum,
    oracle_radius,
    set_membership,
    t_n_bound,
)
from scmest.losses import batch_values, model_for_data
from scmest.scfun import ScParams, SpectralSummary
from scmest.simdata import Dataset, Process, generate, theta0_equispaced

EULER_GAMMA = 0.5772156649015329


def _fake_fit(H, G, theta=None):
    """A converged FitResult carrying prescribed aggregate matrices.

    Its model and data are a least-squares problem of the same size that
    the aggregates do not come from; the tests using it read only the
    aggregates.
    """
    H = np.asarray(H, dtype=float)
    d = H.shape[0]
    theta = np.zeros(d) if theta is None else np.asarray(theta, dtype=float)
    agg = EmpiricalAggregates(
        L_n=0.0, S_n=np.zeros(d), H_n=H, G_n=np.asarray(G, dtype=float), n=100
    )
    data = Dataset(X=np.random.default_rng(0).standard_normal((100, d)), y=np.zeros(100))
    return FitResult(
        theta_n=theta,
        aggregates_at_opt=agg,
        newton_decrement=0.0,
        iterations=1,
        converged=True,
        model=model_for_data("squared", data.X),
        data=data,
        weights=np.ones(100),
    )


def _set_of(fit, kind, sq_radius, calibration="bootstrap"):
    """The set of ``fit`` at a given squared radius, without calibrating one."""
    return ConfidenceSet(
        kind=kind,
        center=fit.theta_n,
        shape=fit.aggregates_at_opt.H_n if kind == "wald" else None,
        sq_radius=sq_radius,
        delta=0.05,
        calibration=calibration,
        fit=fit,
    )


def _logistic_fit(n=400, d=3, seed=7):
    proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(d))
    data = generate(proc, n, seed)
    model = model_for_data("logistic", data.X)
    return model, data, fit_erm(model, data)


class TestEffectiveDimEmpirical:
    def test_matching_moments_give_exact_dimension(self):
        # perfect-square eigenvalues keep the factor-and-solve path exact
        H = np.diag([1.0, 4.0, 16.0])
        report = effective_dim_empirical(_fake_fit(H, H))
        assert report.value == 3.0
        assert report.kind == "empirical"

    def test_matching_moments_general_pd(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((4, 4))
        H = B @ B.T + 4.0 * np.eye(4)
        value = effective_dim_empirical(_fake_fit(H, H)).value
        assert value == pytest.approx(4.0, rel=1e-12)

    def test_diagonal_trace_ratio(self):
        report = effective_dim_empirical(_fake_fit(np.diag([1.0, 2.0]), np.diag([2.0, 2.0])))
        assert report.value == 3.0

    def test_logistic_tracks_parameter_dimension(self):
        d = 5
        proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(d))
        errs = []
        for seed in range(10):
            data = generate(proc, 5000, seed)
            model = model_for_data("logistic", data.X)
            fit = fit_erm(model, data)
            errs.append(abs(effective_dim_empirical(fit).value / d - 1.0))
        assert np.mean(errs) < 0.15

    def test_affine_reparameterization_invariance(self):
        model, data, fit = _logistic_fit()
        A = np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.5]])
        X2 = data.X @ A.T
        data2 = Dataset(X=X2, y=data.y)
        fit2 = fit_erm(model_for_data("logistic", X2), data2)
        v1 = effective_dim_empirical(fit).value
        v2 = effective_dim_empirical(fit2).value
        assert abs(v1 - v2) / v1 < 1e-8

    def test_singular_hessian_raises(self):
        with pytest.raises(SingularHessian):
            effective_dim_empirical(_fake_fit(np.diag([1.0, 0.0]), np.eye(2)))

    def test_unconverged_fit_raises(self):
        proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(3))
        data = generate(proc, 200, 0)
        model = model_for_data("logistic", data.X)
        stalled = fit_erm(model, data, SolverOptions(max_iter=1, tol=1e-12))
        assert not stalled.converged
        with pytest.raises(NonConverged):
            effective_dim_empirical(stalled)


class TestEffectiveDimSpectrum:
    def test_equal_spectra_give_dimension_exactly(self):
        for d in (1, 10, 50):
            eigs = 2.0 * np.ones(d)
            assert effective_dim_spectrum(eigs, eigs) == float(d)

    def test_exponential_over_polynomial_is_bounded(self):
        i = np.arange(1, 51, dtype=float)
        value = effective_dim_spectrum(np.exp(-i), 1.0 / i)
        oracle = float(np.sum(i * np.exp(-i)))
        assert abs(value - oracle) < 1e-10
        assert abs(value - 0.9206735942) < 1e-9
        assert value < 1.0

    def test_polynomial_over_polynomial_grows_like_log(self):
        values = {}
        for d in (10, 100, 1000):
            i = np.arange(1, d + 1, dtype=float)
            values[d] = effective_dim_spectrum(i**-2.0, 1.0 / i)
            assert values[d] == pytest.approx(float(np.sum(1.0 / i)), rel=1e-12)
        assert values[10] < values[100] < values[1000]
        # harmonic number asymptotics: H_d = log d + gamma + O(1/d)
        assert abs(values[1000] - math.log(1000) - EULER_GAMMA) < 1e-3

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            effective_dim_spectrum([1.0, 2.0], [1.0])
        with pytest.raises(DomainError):
            effective_dim_spectrum([1.0, -1.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            effective_dim_spectrum([1.0, 1.0], [1.0, 0.0])
        with pytest.raises(DomainError):
            effective_dim_spectrum([], [])


class TestEffectiveDimOracle:
    d = 5
    theta0 = np.ones(5)

    def _model(self):
        proc = Process(kind="linear_wellspec", theta0=self.theta0)
        data = generate(proc, 50, 0)
        return model_for_data("squared", data.X), proc

    def test_well_specified_linear_matches_dimension(self):
        model, proc = self._model()
        for seed in (0, 1):
            report = effective_dim_oracle(model, proc, self.theta0, 40000, seed)
            assert report.kind == "oracle_mc"
            assert abs(report.value - self.d) <= 4.0 * report.mc_stderr
            assert abs(report.value - self.d) < 0.25

    def test_heavy_tailed_noise_self_consistency(self):
        # t(3.5) noise inflates the score second moment by df/(df-2)
        model, _ = self._model()
        proc = Process(kind="linear_misspec_t", theta0=self.theta0, noise_df=3.5)
        r0 = effective_dim_oracle(model, proc, self.theta0, 60000, 0)
        r1 = effective_dim_oracle(model, proc, self.theta0, 60000, 1)
        combined = math.hypot(r0.mc_stderr, r1.mc_stderr)
        assert abs(r0.value - r1.value) <= 3.0 * combined
        analytic = self.d * 3.5 / 1.5
        assert abs(r0.value - analytic) <= 4.0 * r0.mc_stderr

    def test_stderr_shrinks_with_sample_size(self):
        # quadrupling mc_n should halve the batching stderr
        model, proc = self._model()
        small = [
            effective_dim_oracle(model, proc, self.theta0, 8000, 100 + s).mc_stderr
            for s in range(6)
        ]
        big = [
            effective_dim_oracle(model, proc, self.theta0, 32000, 100 + s).mc_stderr
            for s in range(6)
        ]
        ratio = np.mean(big) / np.mean(small)
        assert 0.5 / 1.2 <= ratio <= 0.5 * 1.2

    def test_missing_sampler(self):
        model, _ = self._model()
        with pytest.raises(MissingSampler):
            effective_dim_oracle(model, None, self.theta0, 100, 0)

    def test_determinism(self):
        model, proc = self._model()
        a = effective_dim_oracle(model, proc, self.theta0, 2000, 5)
        b = effective_dim_oracle(model, proc, self.theta0, 2000, 5)
        assert a.value == b.value and a.mc_stderr == b.mc_stderr


class TestTnBound:
    constants = AssumptionConstants(K1=1.0, K2=1.0, sigma_H=1.0)

    def test_hand_value(self):
        value = t_n_bound(0.05, self.constants, 1000, 5)
        assert abs(value - 0.11562187429565912) < 1e-12

    def test_half_at_burn_in_threshold(self):
        for K2, sH in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.7)]:
            constants = AssumptionConstants(K1=1.0, K2=K2, sigma_H=sH)
            for d in (1, 5, 50):
                for delta in (0.05, 0.3):
                    n = math.ceil(4.0 * (K2 + 2.0 * sH**2) * math.log(4.0 * d / delta))
                    assert t_n_bound(delta, constants, n, d) <= 0.5

    def test_quadrupling_n_roughly_halves(self):
        a = t_n_bound(0.05, self.constants, 10**6, 5)
        b = t_n_bound(0.05, self.constants, 4 * 10**6, 5)
        assert 0.4 < b / a < 0.6

    def test_monotone_in_n_and_d(self):
        values_n = [t_n_bound(0.05, self.constants, n, 5) for n in (100, 1000, 10000, 100000)]
        assert all(a > b for a, b in zip(values_n, values_n[1:]))
        values_d = [t_n_bound(0.05, self.constants, 1000, d) for d in (2, 5, 20, 100)]
        assert all(a < b for a, b in zip(values_d, values_d[1:]))

    def test_validation(self):
        for delta in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                t_n_bound(delta, self.constants, 100, 5)
        with pytest.raises(DomainError):
            t_n_bound(0.05, self.constants, 0, 5)
        with pytest.raises(DomainError):
            t_n_bound(0.05, self.constants, 100, 0)

    def test_constants_validation(self):
        with pytest.raises(DomainError):
            AssumptionConstants(K1=0.0, K2=1.0, sigma_H=1.0)
        with pytest.raises(DomainError):
            AssumptionConstants(K1=1.0, K2=-1.0, sigma_H=1.0)


class TestWaldRadius:
    # Wald radii through calibrated_radius, from each calibration
    constants = AssumptionConstants(K1=1.0, K2=1.0, sigma_H=1.0)

    def test_leading_term_only(self):
        # with a zero absolute constant the kernel factor degenerates to 1
        model, data, fit = _logistic_fit(n=200, d=2)
        report = effective_dim_empirical(fit)
        sq = calibrated_radius(
            fit, "wald", 0.05, "explicit_constant", constants=self.constants, c_abs=0.0
        )
        assert sq == pytest.approx(24.0 * report.value / 200, rel=1e-12)

    def test_positive_constant_enlarges(self):
        _, _, fit = _logistic_fit(n=200, d=2)
        kw = dict(constants=self.constants)
        base = calibrated_radius(fit, "wald", 0.05, "explicit_constant", c_abs=0.0, **kw)
        wide = calibrated_radius(fit, "wald", 0.05, "explicit_constant", c_abs=1.0, **kw)
        assert wide > base

    def test_requires_convergence(self):
        model, data, _ = _logistic_fit()
        stalled = fit_erm(model, data, SolverOptions(max_iter=1, tol=1e-12))
        assert not stalled.converged
        with pytest.raises(NonConverged):
            calibrated_radius(stalled, "wald", 0.05, "explicit_constant", constants=self.constants)

    def test_validation(self):
        _, data, fit = _logistic_fit()
        kw = dict(constants=self.constants)
        with pytest.raises(DomainError):
            calibrated_radius(fit, "wald", 1.5, "explicit_constant", **kw)
        with pytest.raises(DomainError):
            calibrated_radius(fit, "score", 0.05, "explicit_constant", **kw)
        with pytest.raises(DomainError, match="constants"):
            calibrated_radius(fit, "wald", 0.05, "explicit_constant")
        with pytest.raises(DomainError):
            calibrated_radius(fit, "wald", 0.05, "plugin", **kw)
        # data built by hand record no process for the oracle to replay
        bare = Dataset(X=data.X, y=data.y)
        bare_fit = fit_erm(model_for_data("logistic", bare.X), bare)
        with pytest.raises(MissingSampler, match="process"):
            calibrated_radius(bare_fit, "wald", 0.05, "oracle_mc", calib_reps=10)

    def test_oracle_calibration_delegates(self):
        # the oracle replays the process recorded in the fit's data
        proc = Process(kind="linear_wellspec", theta0=theta0_equispaced(3))
        data = generate(proc, 60, 0)
        model = model_for_data("squared", data.X)
        fit = fit_erm(model, data)
        sq = calibrated_radius(fit, "wald", 0.1, "oracle_mc", calib_reps=50, seed=11)
        assert sq == oracle_radius("wald", proc, 60, 0.1, reps=50, seed=11)

    def test_bootstrap_calibration_delegates(self):
        model, data, fit = _logistic_fit(n=120, d=2)
        with pytest.warns(UserWarning, match="too few"):
            sq = calibrated_radius(fit, "wald", 0.1, "bootstrap", B=80, seed=4)
        with pytest.warns(UserWarning, match="too few"):
            config = BootstrapConfig(delta=0.1, B=80, seed=4)
        assert sq == bootstrap_quantile(model, data, fit, config, kind="wald").quantile


class TestCalibratedRadius:
    constants = AssumptionConstants(K1=1.0, K2=1.0, sigma_H=1.0)

    def test_lr_calibrations_delegate(self):
        model, data, fit = _logistic_fit(n=120, d=2)
        sq = calibrated_radius(fit, "lr", 0.1, "bootstrap", B=150, seed=4)
        config = BootstrapConfig(delta=0.1, B=150, seed=4)
        assert sq == bootstrap_quantile(model, data, fit, config, kind="lr").quantile
        proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(2))
        sq = calibrated_radius(fit, "lr", 0.1, "oracle_mc", calib_reps=30, seed=5)
        assert sq == oracle_radius("lr", proc, 120, 0.1, reps=30, seed=5)

    def test_explicit_constant_is_wald_only(self):
        _, _, fit = _logistic_fit(n=200, d=2)
        with pytest.raises(DomainError, match="wald sets only"):
            calibrated_radius(fit, "lr", 0.05, "explicit_constant", constants=self.constants)

    def test_oracle_replications_use_the_fit_solver_options(self, monkeypatch):
        seen = {}

        def oracle_radius(kind, process, n, delta, reps=1000, seed=0, opts=None):
            seen.update(kind=kind, n=n, delta=delta, reps=reps, seed=seed, opts=opts)
            seen["process"] = process
            return 0.5

        monkeypatch.setattr("scmest.inference.oracle_radius", oracle_radius)
        proc = Process(kind="linear_wellspec", theta0=theta0_equispaced(2))
        data = generate(proc, 50, 0)
        opts = SolverOptions(tol=1e-8, max_iter=7)
        fit = fit_erm(model_for_data("squared", data.X), data, opts)
        assert fit.opts == opts
        sq = calibrated_radius(fit, "lr", 0.1, "oracle_mc", calib_reps=30, seed=4)
        assert sq == 0.5
        assert seen.pop("process") is proc
        assert seen == dict(kind="lr", n=50, delta=0.1, reps=30, seed=4, opts=opts)

    def test_bootstrap_quantile_is_at_the_requested_tail_mass(self):
        model, data, fit = _logistic_fit(n=120, d=2)
        kw = dict(B=150, seed=1)
        narrow = calibrated_radius(fit, "wald", 0.5, "bootstrap", **kw)
        wide = calibrated_radius(fit, "wald", 0.05, "bootstrap", **kw)
        config = BootstrapConfig(delta=0.05, B=150, seed=1)
        assert wide == bootstrap_quantile(model, data, fit, config, kind="wald").quantile
        assert wide > narrow


class TestOracleRadius:
    proc = Process(kind="linear_wellspec", theta0=theta0_equispaced(3))

    def test_deterministic(self):
        a = oracle_radius("wald", self.proc, 50, 0.1, reps=40, seed=2)
        b = oracle_radius("wald", self.proc, 50, 0.1, reps=40, seed=2)
        assert a == b

    def test_quantile_monotone_in_tail_mass(self):
        tight = oracle_radius("wald", self.proc, 50, 0.5, reps=60, seed=2)
        wide = oracle_radius("wald", self.proc, 50, 0.05, reps=60, seed=2)
        assert wide > tight

    def test_lr_and_wald_agree_for_quadratics(self):
        # for least squares the deviance is exactly the Wald distance
        a = oracle_radius("wald", self.proc, 50, 0.2, reps=30, seed=3)
        b = oracle_radius("lr", self.proc, 50, 0.2, reps=30, seed=3)
        assert a == pytest.approx(b, rel=1e-9)

    def test_quantile_over_converged_fits_only(self):
        # logistic at d = 5, n = 30 under a 15-step budget: the fits of seeds
        # 108 and 129, whose data are separable, stop at max_iter
        proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(5))
        opts = SolverOptions(max_iter=15)
        stats = []
        for seed in range(100, 140):
            data = generate(proc, 30, seed)
            fit = fit_erm(model_for_data("logistic", data.X), data, opts)
            if fit.converged:
                stats.append(wald_statistic(fit, proc.theta0))
        assert len(stats) == 38
        expected = float(np.quantile(stats, 0.9))
        assert oracle_radius("wald", proc, 30, 0.1, reps=40, seed=100, opts=opts) == expected

    def test_validation(self):
        with pytest.raises(DomainError):
            oracle_radius("score", self.proc, 50, 0.1, reps=10)
        with pytest.raises(MissingSampler):
            oracle_radius("wald", None, 50, 0.1, reps=10)
        with pytest.raises(DomainError, match="replications must be positive"):
            oracle_radius("wald", self.proc, 50, 0.1, reps=0)
        with pytest.raises(EmptyDataset, match="n must be positive, got 0"):
            oracle_radius("wald", self.proc, 0, 0.1, reps=10)


class TestConfidenceSetMembership:
    def test_hand_ellipsoid(self):
        cs = ConfidenceSet(
            kind="wald",
            center=np.zeros(2),
            shape=np.eye(2),
            sq_radius=1.0,
            delta=0.05,
            calibration="explicit_constant",
        )
        # wald membership needs no fit
        assert not set_membership(cs, np.array([2.0, 0.0]))
        assert set_membership(cs, np.array([0.5, 0.5]))
        assert set_membership(cs, np.array([1.0, 0.0]))

    def test_center_membership_both_kinds(self):
        _, _, fit = _logistic_fit(n=120, d=2)
        for kind in ("wald", "lr"):
            assert set_membership(_set_of(fit, kind, 0.3), fit.theta_n)

    def test_the_set_is_calibrated_by_calibrated_radius(self):
        _, _, fit = _logistic_fit(n=120, d=2)
        constants = AssumptionConstants(K1=1.0, K2=1.0, sigma_H=1.0)
        for kind, calibration, options in [
            ("wald", "bootstrap", dict(B=150, seed=4)),
            ("lr", "bootstrap", dict(B=150, seed=4)),
            ("lr", "oracle_mc", dict(calib_reps=30, seed=5)),
            ("wald", "explicit_constant", dict(constants=constants, c_abs=1.0)),
        ]:
            cs = confidence_set(fit, kind, 0.1, calibration, **options)
            assert cs.sq_radius == calibrated_radius(fit, kind, 0.1, calibration, **options)
            assert (cs.kind, cs.delta, cs.calibration) == (kind, 0.1, calibration)
            assert cs.fit is fit
            assert np.array_equal(cs.center, fit.theta_n)
        with pytest.raises(DomainError, match="wald sets only"):
            confidence_set(fit, "lr", 0.1, "explicit_constant", constants=constants)

    def test_wald_set_is_convex(self):
        _, _, fit = _logistic_fit(n=120, d=3)
        cs = _set_of(fit, "wald", 0.25, "explicit_constant")
        rng = np.random.default_rng(0)
        members = []
        while len(members) < 12:
            theta = fit.theta_n + 0.5 * rng.standard_normal(3)
            if set_membership(cs, theta):
                members.append(theta)
        for a, b in zip(members[::2], members[1::2]):
            assert set_membership(cs, 0.5 * (a + b))

    def test_lr_membership_affine_invariant(self):
        model, data, fit = _logistic_fit(n=300, d=3)
        A = np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.5]])
        X2 = data.X @ A.T
        data2 = Dataset(X=X2, y=data.y)
        model2 = model_for_data("logistic", X2)
        fit2 = fit_erm(model2, data2)
        rng = np.random.default_rng(1)
        for _ in range(4):
            theta = fit.theta_n + 0.3 * rng.standard_normal(3)
            stat = 2.0 * (
                float(np.mean(batch_values(model, theta, data.X, data.y)))
                - fit.aggregates_at_opt.L_n
            )
            for sq in (0.5 * stat, 2.0 * stat):
                inside1 = set_membership(_set_of(fit, "lr", sq), theta)
                inside2 = set_membership(_set_of(fit2, "lr", sq), np.linalg.solve(A.T, theta))
                assert inside1 == inside2

    def test_dimension_mismatch(self):
        _, _, fit = _logistic_fit(n=60, d=2)
        with pytest.raises(DimensionMismatch):
            set_membership(_set_of(fit, "wald", 1.0), np.zeros(3))

    def test_non_finite_theta_rejected(self):
        # a NaN entry compared false against the radius and read as outside
        _, _, fit = _logistic_fit(n=60, d=2)
        for kind in ("wald", "lr"):
            with pytest.raises(DomainError, match="theta must be finite"):
                set_membership(_set_of(fit, kind, 1.0), np.array([np.nan, 0.0]))

    def test_json_round_trip(self):
        model, data, fit = _logistic_fit(n=60, d=2)
        cs = _set_of(fit, "wald", 0.7)
        doc = json.loads(cs.to_json())
        assert doc["schema_version"] == "1"
        assert doc["shape"] == [list(row) for row in fit.aggregates_at_opt.H_n]
        back = ConfidenceSet.from_json(cs.to_json())
        assert back.kind == cs.kind
        assert back.sq_radius == cs.sq_radius
        assert back.delta == cs.delta
        assert back.calibration == cs.calibration
        assert np.array_equal(back.center, cs.center)
        assert np.array_equal(back.shape, cs.shape)
        # the JSON does not carry the fit; a Wald set answers without it
        assert back.fit is None
        for theta in (fit.theta_n, fit.theta_n + 1.0):
            assert set_membership(back, theta) == set_membership(cs, theta)

    def test_lr_set_serializes_without_shape(self):
        model, data, fit = _logistic_fit(n=60, d=2)
        cs = _set_of(fit, "lr", 0.7)
        back = ConfidenceSet.from_json(cs.to_json())
        assert back.shape is None
        assert np.array_equal(back.center, cs.center)
        assert set_membership(cs, fit.theta_n)
        with pytest.raises(DomainError, match="needs the fit"):
            set_membership(back, fit.theta_n)

    def test_validation(self):
        with pytest.raises(DomainError):
            ConfidenceSet("ball", np.zeros(2), np.eye(2), 1.0, 0.05, "bootstrap")
        with pytest.raises(DomainError):
            ConfidenceSet("wald", np.zeros(2), np.eye(2), 1.0, 0.05, "guesswork")
        with pytest.raises(DomainError):
            ConfidenceSet("wald", np.zeros(2), np.eye(2), 1.0, 1.5, "bootstrap")
        with pytest.raises(DomainError):
            ConfidenceSet("wald", np.zeros(2), np.eye(2), 0.0, 0.05, "bootstrap")
        with pytest.raises(DomainError):
            ConfidenceSet("wald", np.zeros(2), None, 1.0, 0.05, "bootstrap")
        with pytest.raises(DimensionMismatch):
            ConfidenceSet("wald", np.zeros(3), np.eye(2), 1.0, 0.05, "bootstrap")


class TestCriticalSampleSize:
    # R2* = lambda_min^{-1/2} R = 1, K_2 kernel constant = 1/2, log(e/delta) = 2
    params = ScParams(R=1.0, nu=2.0)
    spectrum = SpectralSummary(lambda_min=1.0, lambda_max=1.0)
    constants = AssumptionConstants(K1=1.0, K2=0.1, sigma_H=0.1)
    delta = math.exp(-1.0)

    def test_hand_value(self):
        n = critical_sample_size(self.params, self.spectrum, self.constants, 5.0, 5, self.delta)
        assert n == 40

    def test_eigenvalue_scaling(self):
        # lambda -> 4 lambda halves R2*, dividing the dominant branch by 4
        wide = SpectralSummary(lambda_min=4.0, lambda_max=4.0)
        n = critical_sample_size(self.params, wide, self.constants, 5.0, 5, self.delta)
        assert n == 10

    def test_monotone_in_delta(self):
        sizes = [
            critical_sample_size(self.params, self.spectrum, self.constants, 5.0, 5, d)
            for d in (0.01, 0.1, 0.36, 0.9)
        ]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_exponent_branch_above_two(self):
        # at nu = 2.5 the exponent is 2, so scaling d* by 4 scales n by 16
        params = ScParams(R=1.0, nu=2.5)
        base = critical_sample_size(params, self.spectrum, self.constants, 5.0, 5, self.delta)
        scaled = critical_sample_size(params, self.spectrum, self.constants, 20.0, 5, self.delta)
        assert scaled == pytest.approx(16.0 * base, rel=0.01)

    def test_validation(self):
        with pytest.raises(DomainError):
            critical_sample_size(
                ScParams(R=1.0, nu=3.0), self.spectrum, self.constants, 5.0, 5, 0.05
            )
        with pytest.raises(DomainError):
            critical_sample_size(self.params, self.spectrum, self.constants, 5.0, 5, 0.0)
        with pytest.raises(DomainError):
            critical_sample_size(self.params, self.spectrum, self.constants, -1.0, 5, 0.05)
