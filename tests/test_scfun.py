"""Kernel functions against quadrature oracles, and certificate logic."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from scmest.errors import DomainError
from scmest.scfun import (
    Certificate,
    ScParams,
    SpectralSummary,
    certify_unique_minimizer,
    d_nu,
    k_nu,
    omega,
    omega_bar,
    omega_dbar,
    r_nu,
)

_QUAD = dict(epsabs=1e-13, epsrel=1e-13, limit=200)


def oracle_omega(nu, tau):
    """omega via its logarithmic derivative, an independent evaluation path."""
    if nu == 2.0:
        integrand = lambda s: 1.0
    else:
        integrand = lambda s: 2.0 / ((nu - 2.0) * (1.0 - s))
    return math.exp(quad(integrand, 0.0, tau, **_QUAD)[0])


def oracle_bar(nu, tau):
    return quad(lambda t: omega(nu, t * tau), 0.0, 1.0, **_QUAD)[0]


def oracle_dbar(nu, tau):
    # int_0^1 t obar(t tau) dt = int_0^1 (1-u) omega(u tau) du after swapping
    return quad(lambda u: (1.0 - u) * omega(nu, u * tau), 0.0, 1.0, **_QUAD)[0]


def _rel_err(a, b):
    if math.isinf(b):
        # both paths overflow doubles (nu -> 2+ with tau of fixed sign)
        return 0.0 if a == b else math.inf
    return abs(a - b) / abs(b)


class TestKernelsAgainstQuadrature:
    def test_random_draws(self):
        rng = np.random.default_rng(20240517)
        worst = 0.0
        for _ in range(60):
            nu = float(rng.uniform(2.0, 6.0))
            tau = float(rng.uniform(-0.9, 0.9))
            worst = max(
                worst,
                _rel_err(omega(nu, tau), oracle_omega(nu, tau)),
                _rel_err(omega_bar(nu, tau), oracle_bar(nu, tau)),
                _rel_err(omega_dbar(nu, tau), oracle_dbar(nu, tau)),
            )
        assert worst < 1e-8

    @pytest.mark.parametrize("nu", [2.0, 2.5, 3.0, 4.0, 5.5])
    def test_values_at_zero(self, nu):
        assert omega(nu, 0.0) == 1.0
        assert omega_bar(nu, 0.0) == 1.0
        assert omega_dbar(nu, 0.0) == 0.5

    @pytest.mark.parametrize("nu", [2.0, 2.0 + 1e-9, 2.0 + 1e-4, 2.7, 5.0])
    @pytest.mark.parametrize("mult", [0.03, 0.3, 0.9, 1.1, 3.0, 30.0])
    def test_small_argument_window(self, nu, mult):
        # straddle the series/closed-form switch on both sides, at the
        # tau scale where the switch actually happens for this nu
        c1 = 1.0 if nu == 2.0 else 2.0 / (nu - 2.0)
        tau_abs = mult * 1e-3 / c1
        for tau in (tau_abs, -tau_abs):
            assert _rel_err(omega_dbar(nu, tau), oracle_dbar(nu, tau)) < 1e-10
            assert _rel_err(omega_bar(nu, tau), oracle_bar(nu, tau)) < 1e-10

    @pytest.mark.parametrize(
        "nu", [2.9995, 3.0, 3.0005, 3.0 + 1e-9, 3.9995, 4.0, 4.0005, 4.0 + 1e-9]
    )
    @pytest.mark.parametrize("tau", [-0.7, -0.2, 0.3, 0.8])
    def test_nu_branch_windows(self, nu, tau):
        assert _rel_err(omega_dbar(nu, tau), oracle_dbar(nu, tau)) < 1e-10

    def test_exact_special_points(self):
        assert omega(2.0, 1.0) == math.exp(1.0)
        assert omega(4.0, 0.5) == pytest.approx(2.0, rel=1e-15)
        assert omega(3.0, 0.5) == pytest.approx(4.0, rel=1e-15)


class TestKernelDomain:
    def test_nu_below_two_rejected(self):
        for fn in (omega, omega_bar, omega_dbar):
            with pytest.raises(DomainError):
                fn(1.9, 0.1)

    def test_tau_at_one_rejected_for_nu_above_two(self):
        for fn in (omega, omega_bar, omega_dbar):
            with pytest.raises(DomainError):
                fn(3.0, 1.0)

    def test_nu_two_allows_any_tau(self):
        assert omega(2.0, 5.0) == math.exp(5.0)
        assert omega_bar(2.0, 30.0) < math.inf
        assert omega_dbar(2.0, -50.0) > 0.0

    def test_overflow_returns_inf(self):
        assert omega(2.0, 1e4) == math.inf

    @given(
        nu=st.floats(2.0, 6.0),
        t1=st.floats(-0.85, 0.85),
        t2=st.floats(-0.85, 0.85),
    )
    def test_omega_strictly_increasing(self, nu, t1, t2):
        lo, hi = sorted((t1, t2))
        if hi - lo > 1e-9:
            w_lo, w_hi = omega(nu, lo), omega(nu, hi)
            assert w_lo <= w_hi
            # strictness is only representable while both values are normal
            # floats: the exponent 2/(nu-2) blows up as nu -> 2+ and flushes
            # well-separated taus to 0.0 or inf together
            if w_lo > sys.float_info.min and w_hi < math.inf:
                assert w_lo < w_hi

    @given(nu=st.floats(2.0, 6.0), t1=st.floats(0.0, 20.0), t2=st.floats(0.0, 20.0))
    def test_dbar_decreasing_on_negative_axis(self, nu, t1, t2):
        lo, hi = sorted((t1, t2))
        if hi - lo > 1e-9:
            assert omega_dbar(nu, -lo) > omega_dbar(nu, -hi)

    @given(nu=st.floats(2.0, 6.0), tau=st.floats(-0.9, 0.9))
    def test_kernel_ordering(self, nu, tau):
        # averaging against increasing weights orders the three kernels
        w, wb, wd = omega(nu, tau), omega_bar(nu, tau), 2.0 * omega_dbar(nu, tau)
        if tau >= 0.0:
            assert wd <= wb + 1e-12 and wb <= w + 1e-12
        else:
            assert w <= wb + 1e-12 and wb <= wd + 1e-12


class TestDampingThreshold:
    def test_pinned_constants(self):
        assert k_nu(2.0) == 0.5
        assert k_nu(3.0) == 0.25
        assert abs(k_nu(2.5) - 0.18019) < 1e-5
        assert abs(k_nu(4.0) - 0.38629) < 1e-5
        assert abs(k_nu(6.0) - 0.43790) < 1e-5

    @pytest.mark.parametrize("nu", [2.2, 2.7, 3.5, 4.5, 6.0])
    def test_threshold_forces_quarter_bound(self, nu):
        # whenever psi(tau) = dbar(-tau) tau <= K, the curvature factor
        # dbar(-tau) stays >= 1/4 (the property K was constructed for)
        K = k_nu(nu)
        assert 0.0 < K <= 0.5
        for tau in np.linspace(1e-6, 50.0, 400):
            phi = omega_dbar(nu, -tau)
            if phi * tau <= K:
                assert phi >= 0.25 - 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            k_nu(1.5)


class TestStepLengthAndConversion:
    def test_d_nu_pseudo_case_is_euclidean(self):
        p = ScParams(R=3.0, nu=2.0)
        step = np.array([3.0, 4.0])
        assert d_nu(p, step, 17.0) == pytest.approx(15.0, rel=1e-15)

    def test_d_nu_general_formula(self):
        p = ScParams(R=2.0, nu=4.0)
        step = np.array([2.0, 0.0])
        # (nu/2 - 1) R ||s||^(3-nu) hn^(nu-2) = 1 * 2 * 2^-1 * 5^2
        assert d_nu(p, step, 5.0) == pytest.approx(25.0, rel=1e-14)

    def test_d_nu_zero_step(self):
        assert d_nu(ScParams(R=1.0, nu=3.0), np.zeros(3), 0.0) == 0.0

    def test_d_nu_of_a_stack_is_per_row(self):
        p = ScParams(R=2.0, nu=3.5)
        steps = np.array([[2.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        hess_norms = np.array([5.0, 0.0, 0.5])
        out = d_nu(p, steps, hess_norms)
        assert out.shape == (3,) and out[1] == 0.0
        for b in range(3):
            assert out[b] == pytest.approx(d_nu(p, steps[b], hess_norms[b]), rel=1e-15)

    def test_r_nu_branches(self):
        spec = SpectralSummary(lambda_min=0.25, lambda_max=4.0)
        assert r_nu(ScParams(R=3.0, nu=2.0), spec) == pytest.approx(6.0)
        # nu in (2, 3]: lambda_min^((nu-3)/2)
        assert r_nu(ScParams(R=1.0, nu=2.5), spec) == pytest.approx(
            0.25 * 0.25 ** (-0.25)
        )
        assert r_nu(ScParams(R=2.0, nu=3.0), spec) == pytest.approx(1.0)
        # nu > 3: (nu/2 - 1) R lambda_max^((nu-3)/2) = 1.5 * 2 * 4
        assert r_nu(ScParams(R=2.0, nu=5.0), spec) == pytest.approx(12.0)

    def test_param_validation(self):
        with pytest.raises(DomainError):
            ScParams(R=-1.0, nu=2.0)
        with pytest.raises(DomainError):
            ScParams(R=1.0, nu=1.0)
        with pytest.raises(DomainError):
            SpectralSummary(lambda_min=2.0, lambda_max=1.0)
        with pytest.raises(DomainError):
            SpectralSummary(lambda_min=0.0, lambda_max=1.0)


class TestCertificate:
    def test_passes_iff_threshold(self):
        p = ScParams(R=1.0, nu=2.0)
        spec = SpectralSummary(lambda_min=1.0, lambda_max=1.0)
        # r_nu = 1, threshold 0.5
        good = certify_unique_minimizer(p, spec, 0.49)
        assert good.passes and good.radius_bound == pytest.approx(4 * 0.49)
        edge = certify_unique_minimizer(p, spec, 0.5)
        assert edge.passes
        bad = certify_unique_minimizer(p, spec, 0.51)
        assert not bad.passes and bad.radius_bound == math.inf

    def test_negative_decrement_rejected(self):
        with pytest.raises(ValueError):
            certify_unique_minimizer(
                ScParams(R=1.0, nu=2.0), SpectralSummary(1.0, 1.0), -0.1
            )

    def test_certificate_fields(self):
        c = Certificate(passes=True, radius_bound=1.0)
        assert c.passes and c.radius_bound == 1.0
