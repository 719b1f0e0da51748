"""Kernel functions and certificates of generalized self-concordance.

A convex function f is (R, nu)-generalized self-concordant, nu >= 2, when its
third directional derivatives are controlled by its Hessian quadratic form,

    |D^3 f(x)[u, u, v]| <= R ||u||_x^2 ||v||_x^(nu-2) ||v||_2^(3-nu),

where ``||u||_x^2 = u' (grad^2 f(x)) u``.  nu = 2 is the pseudo self-concordant
case (logistic-type losses), nu = 3 the standard one.  Everything here is a
scalar consequence of that inequality:

* ``omega``, ``omega_bar``, ``omega_dbar``: the kernel and its two averaged
  forms that bound Hessian distortion, gradient gaps, and value gaps along a
  segment;
* ``d_nu``: the scale-free step length entering those bounds;
* ``r_nu``: the conversion constant turning a Euclidean step bound into a
  ``d_nu`` bound given Hessian spectral bounds;
* ``k_nu``: the damping threshold below which the local analysis applies;
* ``certify_unique_minimizer``: the computable existence certificate built
  from the three.

All functions are pure scalar functions with no hidden state and are safe to
call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "ScParams",
    "SpectralSummary",
    "Certificate",
    "omega",
    "omega_bar",
    "omega_dbar",
    "d_nu",
    "r_nu",
    "k_nu",
    "certify_unique_minimizer",
]

# Switch to series/expansions near removable singularities: the small-argument
# series triggers on |c1 * tau| with c1 the leading Taylor coefficient of
# omega_nu, the nu-expansions on the distance to the branch point.  Both
# windows keep the closed forms at least ~7 digits away from catastrophic
# cancellation, so the 1e-8 quadrature agreement holds with wide margin.
_SERIES_WINDOW = 1e-3
_BRANCH_WINDOW = 1e-3
_BISECT_TOL = 1e-10


@dataclass(frozen=True)
class ScParams:
    """Self-concordance parameters (R, nu).

    Parameters
    ----------
    R : float or ndarray
        Nonnegative self-concordance constant; an array holds one constant
        per function, for :func:`d_nu` of a stack of steps of as many
        functions.
    nu : float
        Self-concordance order, at least 2.
    """

    R: float | np.ndarray
    nu: float

    def __post_init__(self) -> None:
        if not np.all(np.asarray(self.R) >= 0.0):
            raise DomainError(f"R must be nonnegative, got {self.R}")
        if not (self.nu >= 2.0):
            raise DomainError(f"nu must be at least 2, got {self.nu}")


@dataclass(frozen=True)
class SpectralSummary:
    """Extreme eigenvalues of a positive-definite Hessian.

    Parameters
    ----------
    lambda_min, lambda_max : float
        Smallest and largest eigenvalue; must satisfy
        0 < lambda_min <= lambda_max.
    """

    lambda_min: float
    lambda_max: float

    def __post_init__(self) -> None:
        if not (0.0 < self.lambda_min <= self.lambda_max):
            raise DomainError(
                "need 0 < lambda_min <= lambda_max, got "
                f"({self.lambda_min}, {self.lambda_max})"
            )


@dataclass(frozen=True)
class Certificate:
    """Outcome of the unique-minimizer certificate.

    ``radius_bound`` bounds ``||xbar - x||_x`` for the certified minimizer
    xbar; it is +inf when the certificate does not pass (a failing
    certificate asserts nothing).
    """

    passes: bool
    radius_bound: float


def _check_domain(nu: float, tau: float) -> None:
    if nu < 2.0:
        raise DomainError(f"nu must be at least 2, got {nu}")
    if nu > 2.0 and tau >= 1.0:
        raise DomainError(f"tau must be < 1 for nu > 2, got tau={tau}")


def omega(nu: float, tau: float) -> float:
    """Kernel omega_nu(tau): exp(tau) for nu = 2, (1-tau)^(-2/(nu-2)) for nu > 2.

    Strictly increasing in tau with omega_nu(0) = 1.  Domain: all real tau for
    nu = 2, tau < 1 for nu > 2.

    Raises
    ------
    DomainError
        If nu < 2, or nu > 2 and tau >= 1.
    """
    _check_domain(nu, tau)
    try:
        if nu == 2.0:
            return math.exp(tau)
        return math.exp(-(2.0 / (nu - 2.0)) * math.log1p(-tau))
    except OverflowError:
        return math.inf


def _series_coefficients(nu: float, kmax: int) -> list[float]:
    """Taylor coefficients c_k of omega_nu(s) = sum_k c_k s^k, k = 0..kmax."""
    coeffs = [1.0]
    if nu == 2.0:
        for k in range(kmax):
            coeffs.append(coeffs[-1] / (k + 1.0))
    else:
        a = 2.0 / (nu - 2.0)
        for k in range(kmax):
            coeffs.append(coeffs[-1] * (a + k) / (k + 1.0))
    return coeffs


def omega_bar(nu: float, tau: float) -> float:
    """First averaged kernel: integral of omega_nu(t*tau) over t in [0, 1].

    Closed forms: (e^tau - 1)/tau for nu = 2, -log(1-tau)/tau for nu = 4,
    and ((nu-2)/(nu-4)) (1 - (1-tau)^((nu-4)/(nu-2)))/tau otherwise, all
    evaluated through expm1/log1p so no branch suffers cancellation; the
    small-argument series guards the general branch where e1*tau would
    underflow.  Returns the limit value 1 at tau = 0.
    """
    _check_domain(nu, tau)
    if tau == 0.0:
        return 1.0
    c1 = 1.0 if nu == 2.0 else 2.0 / (nu - 2.0)
    if abs(c1 * tau) < _SERIES_WINDOW:
        return _bar_series(nu, tau)
    try:
        if nu == 2.0:
            return math.expm1(tau) / tau
        if nu == 4.0:
            return -math.log1p(-tau) / tau
        e1 = (nu - 4.0) / (nu - 2.0)
        return -math.expm1(e1 * math.log1p(-tau)) / (e1 * tau)
    except OverflowError:
        return math.inf


def _bar_series(nu: float, tau: float) -> float:
    """Small-argument series sum_k c_k tau^k / (k+1) for omega_bar."""
    coeffs = _series_coefficients(nu, 8)
    total = 0.0
    power = 1.0
    for k, c in enumerate(coeffs):
        total += c * power / (k + 1.0)
        power *= tau
    return total


def _dbar_series(nu: float, tau: float) -> float:
    """Small-argument series sum_k c_k tau^k / ((k+1)(k+2)) for omega_dbar."""
    coeffs = _series_coefficients(nu, 8)
    total = 0.0
    power = 1.0
    for k, c in enumerate(coeffs):
        total += c * power / ((k + 1.0) * (k + 2.0))
        power *= tau
    return total


def omega_dbar(nu: float, tau: float) -> float:
    """Second averaged kernel: integral of t * omega_bar(t*tau) over t in [0, 1].

    Closed forms: (e^tau - tau - 1)/tau^2 for nu = 2,
    -(tau + log(1-tau))/tau^2 for nu = 3,
    ((1-tau) log(1-tau) + tau)/tau^2 for nu = 4, and in general

        (e2 tau + expm1(e2 log1p(-tau))) / (e1 e2 tau^2),
        e1 = (nu-4)/(nu-2),  e2 = 2(nu-3)/(nu-2),

    with a Taylor series near tau = 0 and nu-expansions near nu in {3, 4}
    where the closed forms cancel.  Returns the limit value 1/2 at tau = 0.
    The map tau -> omega_dbar(nu, -tau) is strictly decreasing on [0, inf).
    """
    _check_domain(nu, tau)
    if tau == 0.0:
        return 0.5
    c1 = 1.0 if nu == 2.0 else 2.0 / (nu - 2.0)
    if abs(c1 * tau) < _SERIES_WINDOW:
        return _dbar_series(nu, tau)
    try:
        if nu == 2.0:
            return (math.expm1(tau) - tau) / (tau * tau)
        L = math.log1p(-tau)
        if nu == 3.0:
            return -(tau + L) / (tau * tau)
        if nu == 4.0:
            return ((1.0 - tau) * L + tau) / (tau * tau)
        e1 = (nu - 4.0) / (nu - 2.0)
        e2 = 2.0 * (nu - 3.0) / (nu - 2.0)
        if abs(nu - 3.0) < _BRANCH_WINDOW:
            # expansion of the closed form in e2 around 0
            s = (tau + L) + e2 * L * L / 2.0 + e2 * e2 * L**3 / 6.0 + e2**3 * L**4 / 24.0
            return s / (e1 * tau * tau)
        if abs(nu - 4.0) < _BRANCH_WINDOW:
            # expansion in e1 around 0, using e2 = 1 + e1
            m = 1.0 - tau
            s = (tau + m * L) + e1 * m * L * L / 2.0 + e1 * e1 * m * L**3 / 6.0 + e1**3 * m * L**4 / 24.0
            return s / (e2 * tau * tau)
        inner = e2 * tau + math.expm1(e2 * L)
        return inner / (e1 * e2 * tau * tau)
    except OverflowError:
        return math.inf


def d_nu(params: ScParams, step, hess_norm_of_step):
    """Scale-free step length d_nu for a step y - x.

    Parameters
    ----------
    params : ScParams
        Self-concordance parameters of the function, or of one function per
        step when R is an array.
    step : array_like
        The step y - x, or a stack of steps along the last axis.
    hess_norm_of_step : float or array_like
        ||y - x|| in the Hessian metric at x, supplied by the caller, one
        per step.

    Returns
    -------
    float or ndarray
        R ||step||_2 for nu = 2, and
        (nu/2 - 1) R ||step||_2^(3-nu) hess_norm^(nu-2) for nu > 2 (0 for a
        zero step), one per step.
    """
    hess = np.asarray(hess_norm_of_step, dtype=float)
    if hess.min(initial=0.0) < 0.0:
        raise ValueError("hess_norm_of_step must be nonnegative")
    step = np.asarray(step, dtype=float)
    norm2 = np.sqrt(np.add.reduce(step * step, axis=-1))
    if params.nu == 2.0:
        return params.R * norm2
    # a zero step has length 0 even where norm2^(3 - nu) is infinite
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (params.nu / 2.0 - 1.0) * params.R * norm2 ** (3.0 - params.nu)
        out = np.where(norm2 > 0.0, out * hess ** (params.nu - 2.0), 0.0)
    return out[()]


def r_nu(params: ScParams, spec: SpectralSummary) -> float:
    """Conversion constant from a Hessian-metric radius to a d_nu radius.

    Returns lambda_min^(-1/2) R for nu = 2,
    (nu/2 - 1) lambda_min^((nu-3)/2) R for nu in (2, 3], and
    (nu/2 - 1) lambda_max^((nu-3)/2) R for nu > 3.
    """
    if params.nu == 2.0:
        return params.R / math.sqrt(spec.lambda_min)
    exponent = (params.nu - 3.0) / 2.0
    lam = spec.lambda_min if params.nu <= 3.0 else spec.lambda_max
    return (params.nu / 2.0 - 1.0) * params.R * lam**exponent


@lru_cache(maxsize=None)
def k_nu(nu: float) -> float:
    """Damping threshold K_nu in (0, 1/2].

    Exactly 1/2 at nu = 2 and 1/4 at nu = 3.  For other nu, the largest
    K in (0, 1/2] such that psi(tau) := omega_dbar(nu, -tau) * tau <= K
    forces tau < 1 and omega_dbar(nu, -tau) >= 1/4; found by bisection on
    the strictly decreasing phi(tau) := omega_dbar(nu, -tau) (phi(0) = 1/2)
    and the strictly increasing psi.

    Raises
    ------
    ConvergenceError
        If the bisection cannot bracket (does not occur for nu in [2, 6]).
    """
    if nu < 2.0:
        raise DomainError(f"nu must be at least 2, got {nu}")
    if nu == 2.0:
        return 0.5
    if nu == 3.0:
        return 0.25

    def phi(t: float) -> float:
        return omega_dbar(nu, -t)

    hi = 1.0 - _BISECT_TOL
    val_hi = phi(hi)
    if math.isnan(val_hi):
        raise ConvergenceError(f"kernel evaluation failed while bracketing K for nu={nu}")
    if val_hi >= 0.25:
        tau_cap = hi
    else:
        # invariant: phi(lo) >= 1/4 > phi(hi)
        lo = 0.0
        while hi - lo > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if phi(mid) >= 0.25:
                lo = mid
            else:
                hi = mid
        tau_cap = lo
    K = min(0.5, phi(tau_cap) * tau_cap)
    if not (0.0 < K <= 0.5):
        raise ConvergenceError(f"bisection for K_nu failed at nu={nu} (got {K})")
    return K


def certify_unique_minimizer(
    params: ScParams, spec: SpectralSummary, newton_norm: float
) -> Certificate:
    """Certificate that a unique minimizer exists near the current point.

    Parameters
    ----------
    params : ScParams
        Self-concordance parameters of the objective.
    spec : SpectralSummary
        Extreme eigenvalues of the Hessian at the current point.
    newton_norm : float
        ||grad f(x)|| in the inverse-Hessian metric at x (the Newton
        decrement).

    Returns
    -------
    Certificate
        Passes iff r_nu(params, spec) * newton_norm <= k_nu(nu); when it
        passes, the unique minimizer xbar satisfies
        ||xbar - x||_x <= radius_bound = 4 * newton_norm.
    """
    if newton_norm < 0.0:
        raise ValueError("newton_norm must be nonnegative")
    passes = r_nu(params, spec) * newton_norm <= k_nu(params.nu)
    return Certificate(passes=passes, radius_bound=4.0 * newton_norm if passes else math.inf)
