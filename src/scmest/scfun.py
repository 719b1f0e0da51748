"""Kernel and certificate of pseudo self-concordance (nu = 2).

A convex function f is (R, nu)-generalized self-concordant, nu >= 2, when its
third directional derivatives are controlled by its Hessian quadratic form,

    |D^3 f(x)[u, u, v]| <= R ||u||_x^2 ||v||_x^(nu-2) ||v||_2^(3-nu),

where ``||u||_x^2 = u' (grad^2 f(x)) u``.  Every loss of this package is the
pseudo self-concordant case nu = 2: logistic and Poisson with R the largest
feature norm, the exponential-family GLM with R = 2M, and the quadratic
kinds with R = 0.  So this module states nu = 2 only, and R is the one
parameter:

* ``omega``: the kernel omega_2(tau) = e^tau; along a segment from x to y
  the Hessian stays within a factor omega_2(d) of grad^2 f(x), d the
  length below;
* ``d_nu``: the scale-free step length d = R ||y - x||_2;
* ``r_nu``: the conversion constant R / sqrt(lambda_min) turning a
  Hessian-metric radius into a bound on d;
* ``K_NU``: the damping threshold 1/2 below which the local analysis
  applies;
* ``certify_unique_minimizer``: the computable existence certificate built
  from the three.

The paper's two averaged kernels are integrals of omega: the first is the
mean of omega(t tau) over t in [0, 1], the second the integral of
(1 - u) omega(u tau) over u in [0, 1].  At nu = 2 they enter only through
one value: the second at tau = 1 is e - 2 < 3/4, which grants the full
Newton step a risk decrease of at least (3 - e) dec^2 where d <= 1 (the
step rule of :mod:`scmest.estimate`).  For nu > 2 the paper's kernel is
(1 - tau)^(-2/(nu-2)), its step length
(nu/2 - 1) R ||y - x||_2^(3-nu) ||y - x||_x^(nu-2), and its threshold
K_nu < 1/2 is set through the second averaged kernel; no loss here needs
them.

Every function is pure and raises DomainError on a negative R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "K_NU",
    "SpectralSummary",
    "Certificate",
    "omega",
    "d_nu",
    "r_nu",
    "certify_unique_minimizer",
]

# damping threshold of the certificate at nu = 2
K_NU = 0.5


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


def _check_R(R) -> None:
    if not np.all(np.asarray(R) >= 0.0):
        raise DomainError(f"R must be nonnegative, got {R}")


def omega(tau: float) -> float:
    """Kernel omega_2(tau) = exp(tau), +inf where exp overflows.

    Strictly increasing in tau with omega_2(0) = 1.
    """
    try:
        return math.exp(tau)
    except OverflowError:
        return math.inf


def d_nu(R, step):
    """Scale-free step length R ||step||_2.

    Parameters
    ----------
    R : float or ndarray
        Nonnegative self-concordance constant, or one per step.
    step : array_like
        The step y - x, or a stack of steps along the last axis.

    Returns
    -------
    float or ndarray
        R ||step||_2, one per step.
    """
    _check_R(R)
    step = np.asarray(step, dtype=float)
    return R * np.sqrt(np.add.reduce(step * step, axis=-1))


def r_nu(R: float, spec: SpectralSummary) -> float:
    """Conversion constant R / sqrt(lambda_min) from a Hessian-metric radius to a d_nu radius."""
    _check_R(R)
    return R / math.sqrt(spec.lambda_min)


def certify_unique_minimizer(R: float, spec: SpectralSummary, newton_norm: float) -> Certificate:
    """Certificate that a unique minimizer exists near the current point.

    Parameters
    ----------
    R : float
        Self-concordance constant of the objective.
    spec : SpectralSummary
        Extreme eigenvalues of the Hessian at the current point.
    newton_norm : float
        ||grad f(x)|| in the inverse-Hessian metric at x (the Newton
        decrement).

    Returns
    -------
    Certificate
        Passes iff r_nu(R, spec) * newton_norm <= K_NU; when it passes, the
        unique minimizer xbar satisfies
        ||xbar - x||_x <= radius_bound = 4 * newton_norm.
    """
    if newton_norm < 0.0:
        raise ValueError("newton_norm must be nonnegative")
    passes = r_nu(R, spec) * newton_norm <= K_NU
    return Certificate(passes=passes, radius_bound=4.0 * newton_norm if passes else math.inf)
