"""The nu = 2 kernel against a quadrature oracle and the losses, and certificate logic."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh

from scmest.errors import DomainError
from scmest.estimate import fit_erm
from scmest.losses import model_for_data, prepare_batch
from scmest.scfun import (
    K_NU,
    Certificate,
    SpectralSummary,
    certify_unique_minimizer,
    d_nu,
    omega,
    r_nu,
)
from scmest.simdata import PROCESS_KINDS, Process, generate, loss_kind_for, theta0_equispaced

_QUAD = dict(epsabs=1e-13, epsrel=1e-13, limit=200)


def oracle_omega(tau):
    """omega via its logarithmic derivative, an independent evaluation path."""
    return math.exp(quad(lambda s: 1.0, 0.0, tau, **_QUAD)[0])


class TestKernelsAgainstQuadrature:
    def test_random_draws(self):
        rng = np.random.default_rng(20240517)
        for tau in rng.uniform(-5.0, 5.0, 60):
            assert omega(tau) == pytest.approx(oracle_omega(tau), rel=1e-12)

    def test_exact_special_points(self):
        assert omega(0.0) == 1.0
        assert omega(1.0) == math.exp(1.0)


class TestKernelDomain:
    def test_nu_two_allows_any_tau(self):
        assert omega(5.0) == math.exp(5.0)
        assert omega(-50.0) == math.exp(-50.0)

    def test_overflow_returns_inf(self):
        assert omega(1e4) == math.inf
        assert omega(709.0) < math.inf

    @given(t1=st.floats(-700.0, 700.0), t2=st.floats(-700.0, 700.0))
    def test_omega_strictly_increasing(self, t1, t2):
        lo, hi = sorted((t1, t2))
        if hi - lo > 1e-9 * max(1.0, abs(hi)):
            assert omega(lo) < omega(hi)


class TestStepLengthAndConversion:
    def test_d_nu_pseudo_case_is_euclidean(self):
        assert d_nu(3.0, np.array([3.0, 4.0])) == pytest.approx(15.0, rel=1e-15)

    def test_d_nu_zero_step(self):
        assert d_nu(1.0, np.zeros(3)) == 0.0

    def test_d_nu_of_a_stack_is_per_row(self):
        steps = np.array([[2.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
        for R in (2.0, np.array([2.0, 1.0, 0.5])):
            out = d_nu(R, steps)
            assert out.shape == (3,) and out[1] == 0.0
            for b in range(3):
                assert out[b] == d_nu(R if np.ndim(R) == 0 else R[b], steps[b])
        assert d_nu(np.array([2.0, 1.0, 0.5]), steps).tolist() == [4.0, 0.0, 2.5]

    def test_r_nu(self):
        spec = SpectralSummary(lambda_min=0.25, lambda_max=4.0)
        assert r_nu(3.0, spec) == 6.0
        assert r_nu(0.0, spec) == 0.0

    def test_param_validation(self):
        spec = SpectralSummary(1.0, 1.0)
        with pytest.raises(DomainError):
            d_nu(-1.0, np.ones(2))
        with pytest.raises(DomainError):
            d_nu(np.array([1.0, -1.0]), np.ones((2, 2)))
        with pytest.raises(DomainError):
            r_nu(-1.0, spec)
        with pytest.raises(DomainError):
            certify_unique_minimizer(-1.0, spec, 0.1)
        with pytest.raises(DomainError):
            SpectralSummary(lambda_min=2.0, lambda_max=1.0)
        with pytest.raises(DomainError):
            SpectralSummary(lambda_min=0.0, lambda_max=1.0)


class TestCertificate:
    def test_passes_iff_threshold(self):
        spec = SpectralSummary(lambda_min=1.0, lambda_max=1.0)
        # r_nu = 1, threshold K_NU = 0.5
        assert K_NU == 0.5
        good = certify_unique_minimizer(1.0, spec, 0.49)
        assert good.passes and good.radius_bound == pytest.approx(4 * 0.49)
        edge = certify_unique_minimizer(1.0, spec, 0.5)
        assert edge.passes
        bad = certify_unique_minimizer(1.0, spec, 0.51)
        assert not bad.passes and bad.radius_bound == math.inf

    def test_quadratic_risk_always_passes(self):
        # R = 0: the certificate holds at any decrement
        cert = certify_unique_minimizer(0.0, SpectralSummary(1e-6, 1.0), 1e6)
        assert cert.passes and cert.radius_bound == 4e6

    def test_negative_decrement_rejected(self):
        with pytest.raises(ValueError):
            certify_unique_minimizer(1.0, SpectralSummary(1.0, 1.0), -0.1)

    def test_certificate_fields(self):
        c = Certificate(passes=True, radius_bound=1.0)
        assert c.passes and c.radius_bound == 1.0


# ---------------------------------------------------------------------------
# the nu = 2 statements on the losses of every process
# ---------------------------------------------------------------------------

_THETA0 = {"gaussian_expfam_scorematch": np.array([0.5, -0.2, 1.0, 2.0])}


def _problem(process_kind, n=150, seed=0):
    """Batch of a small draw of a process under its working model, the draw, and theta0."""
    theta0 = _THETA0.get(process_kind, theta0_equispaced(3) * 0.5)
    proc = Process(kind=process_kind, theta0=theta0)
    data = generate(proc, n, seed)
    batch = prepare_batch(model_for_data(loss_kind_for(proc), data.X), data)
    return batch, data, proc.theta0


def _risk(batch, theta):
    """L_n, S_n and H_n at theta under unit weights."""
    return batch.evaluate(np.asarray(theta, dtype=float), np.ones(batch.n))


class TestHessianSandwich:
    """omega(d) brackets the Hessian along every step: H(y) / H(x) in [1/omega, omega]."""

    @pytest.mark.parametrize("length", [0.05, 0.3, 1.0, 3.0])
    @pytest.mark.parametrize("process_kind", PROCESS_KINDS)
    def test_generalized_eigenvalues_within_kernel(self, process_kind, length):
        batch, _, theta0 = _problem(process_kind)
        rng = np.random.default_rng(17)
        # the score-matching precision block stays positive along the step
        x = theta0 + 0.1 * rng.normal(size=theta0.size)
        u = rng.normal(size=theta0.size)
        if batch.R > 0.0:
            # along the longest feature row, where one sample meets the bound
            u = batch.X[np.argmax(np.linalg.norm(batch.X, axis=1))]
        step = length * u / np.linalg.norm(u)
        if process_kind == "gaussian_expfam_scorematch":
            step[theta0.size // 2 :] = np.abs(step[theta0.size // 2 :])
        d = d_nu(batch.R, step)
        H_x, H_y = _risk(batch, x)[2], _risk(batch, x + step)[2]
        ratios = eigh(H_y, H_x, eigvals_only=True)
        assert (batch.R == 0.0) == (d == 0.0)
        slack = 1e-10
        assert ratios[0] >= (1.0 - slack) / omega(d)
        assert ratios[-1] <= (1.0 + slack) * omega(d)


class TestFullStepDecrease:
    """Where d <= 1 the full Newton step decreases the risk by at least (3 - e) dec^2.

    The second averaged kernel at nu = 2, (e^d - 1 - d) / d^2, is at most
    e - 2 on [0, 1]: the step rule of the Newton engine rests on it.
    """

    @pytest.mark.parametrize("t", [0.1, 0.4, 0.7])
    @pytest.mark.parametrize("process_kind", PROCESS_KINDS)
    def test_decrease(self, process_kind, t):
        batch, data, _ = _problem(process_kind, seed=5)
        theta_n = fit_erm(batch.model, data).theta_n
        rng = np.random.default_rng(23)
        u = rng.normal(size=theta_n.size)
        # a start t / R from the minimizer, whose Newton step has d_nu about t
        # (any length when R = 0)
        x = theta_n + t * u / (np.linalg.norm(u) * max(batch.R, 1.0))
        L_x, S, H = _risk(batch, x)
        step = -np.linalg.solve(H, S)
        dec_sq = float(-S @ step)
        d = d_nu(batch.R, step)
        assert d <= 1.0 and dec_sq > 0.0
        L_y = _risk(batch, x + step)[0]
        assert L_x - L_y >= (3.0 - math.e) * dec_sq * (1.0 - 1e-9)


class TestThresholdGrid:
    # R and lambda_min powers of two make r_nu * dec = K_NU exact
    @pytest.mark.parametrize("lam", [0.25, 1.0, 4.0, 16.0])
    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0, 8.0])
    def test_threshold_is_inclusive(self, R, lam):
        spec = SpectralSummary(lambda_min=lam, lambda_max=2.0 * lam)
        edge = K_NU * math.sqrt(lam) / R
        assert r_nu(R, spec) * edge == K_NU
        at = certify_unique_minimizer(R, spec, edge)
        assert at.passes and at.radius_bound == 4.0 * edge
        above = certify_unique_minimizer(R, spec, math.nextafter(edge, math.inf))
        assert not above.passes and above.radius_bound == math.inf
        below = certify_unique_minimizer(R, spec, 0.5 * edge)
        assert below.passes and below.radius_bound == 2.0 * edge


class TestStepLengthShapes:
    @pytest.mark.parametrize("per_step", [False, True])
    @pytest.mark.parametrize("shape", [(3,), (1, 3), (5, 2), (2, 4, 3)])
    def test_d_nu_is_R_times_each_euclidean_length(self, shape, per_step):
        rng = np.random.default_rng(29)
        steps = rng.normal(size=shape)
        R = rng.uniform(0.0, 3.0, size=shape[:-1]) if per_step else 1.75
        out = d_nu(R, steps)
        assert np.shape(out) == shape[:-1]
        flat_R = np.broadcast_to(R, shape[:-1]).ravel()
        for r, s, got in zip(flat_R, steps.reshape(-1, shape[-1]), np.ravel(out)):
            want = r * math.sqrt(math.fsum(v * v for v in s))
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)
