"""Release gates: one end-to-end check per statistical guarantee.

Every test prints a single tagged PASS/FAIL line and asserts the same
condition, so ``pytest tests/test_acceptance.py -s`` reads as a checklist.
The gates re-derive their targets from independent oracles (adaptive
quadrature, finite differences, closed-form spectra, high-replication
Monte Carlo) rather than from the code under test; stochastic gates run
under frozen seeds so a pass is bit-reproducible.
"""

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh

from scmest.estimate import aggregates, fit_erm, localization_certificate
from scmest.experiments import CoverageConfig, coverage_experiment
from scmest.gof import (
    PowerCurveConfig,
    lr_statistic,
    power_curve,
    wald_statistic,
)
from scmest.inference import effective_dim_empirical, effective_dim_spectrum
from scmest.losses import (
    LOSS_KINDS,
    batch_grads,
    batch_values,
    expfam_glm_loss,
    gaussian_score_matching_loss,
    logistic_loss,
    mean_hessian,
    model_for_data,
    poisson_loss,
    squared_loss,
)
from scmest.scfun import d_nu, k_nu, omega, omega_bar, omega_dbar
from scmest.simdata import Process, generate, loss_kind_for, phase_seed, theta0_equispaced

EULER_GAMMA = 0.5772156649015329


def _gate(tag: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

_QUAD = dict(epsabs=1e-13, epsrel=1e-13, limit=200)


def _oracle_omega(nu, tau):
    # omega recovered from its logarithmic derivative, an evaluation path
    # sharing no code with the closed forms under test
    if nu == 2.0:
        integrand = lambda s: 1.0
    else:
        integrand = lambda s: 2.0 / ((nu - 2.0) * (1.0 - s))
    return math.exp(quad(integrand, 0.0, tau, **_QUAD)[0])


def _oracle_bar(nu, tau):
    return quad(lambda t: omega(nu, t * tau), 0.0, 1.0, **_QUAD)[0]


def _oracle_dbar(nu, tau):
    return quad(lambda u: (1.0 - u) * omega(nu, u * tau), 0.0, 1.0, **_QUAD)[0]


_D = 4


def _expfam_testmodel(x_bound=3.0):
    # three-label family with statistic y * x / 2, a strict superset of
    # logistic; its statistic bound M is 0.5 * x_bound
    return expfam_glm_loss(
        dim=_D,
        labels=(-1.0, 0.0, 1.0),
        feature_map=lambda x, y: 0.5 * y * x,
        stat_bound=0.5 * x_bound,
    )


def _draw(kind, rng, n=1, clip=None):
    """One batch of observations plus a valid theta for the given kind."""
    X = rng.normal(size=(n, _D))
    if clip is not None:
        # project rows onto the declared feature ball so the model's
        # statistic bound really holds for the drawn data
        X *= np.minimum(1.0, clip / np.linalg.norm(X, axis=1))[:, None]
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
    # D^3 L_n(theta)[u, u, v] by central differences of v' H_n(theta + s u) u
    hi = mean_hessian(model, theta + step * u, X, y)
    lo = mean_hessian(model, theta - step * u, X, y)
    return float(v @ ((hi - lo) / (2.0 * step)) @ u)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def test_01_kernel_quadrature_exactness():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        nu = float(rng.uniform(2.0, 6.0))
        tau = float(rng.uniform(-0.9, 0.9))
        for fn, oracle in (
            (omega, _oracle_omega),
            (omega_bar, _oracle_bar),
            (omega_dbar, _oracle_dbar),
        ):
            got, want = fn(nu, tau), oracle(nu, tau)
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.time() - t0
    ok = worst < 1e-8 and k_nu(2.0) == 0.5 and k_nu(3.0) == 0.25 and elapsed < 5.0
    _gate(
        "01 kernel quadrature",
        ok,
        f"worst rel err {worst:.2e} (tol 1e-08), K2={k_nu(2.0)}, K3={k_nu(3.0)}, "
        f"{elapsed:.1f}s (budget 5s)",
    )


def test_02_derivatives_match_finite_differences():
    t0 = time.time()
    worst = 0.0
    for kind in LOSS_KINDS:
        rng = np.random.default_rng(2)
        for _ in range(100):
            model, theta, X, y = _draw(kind, rng)
            g = batch_grads(model, theta, X, y)[0]
            H = mean_hessian(model, theta, X, y)
            worst = max(
                worst,
                np.linalg.norm(g - _fd_grad(model, theta, X, y))
                / max(1.0, np.linalg.norm(g)),
                np.linalg.norm(H - _fd_hess(model, theta, X, y))
                / max(1.0, np.linalg.norm(H)),
            )
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    _gate(
        "02 loss derivatives",
        ok,
        f"worst rel err {worst:.2e} over {len(LOSS_KINDS)}x100 draws "
        f"(tol 1e-04), {elapsed:.1f}s (budget 10s)",
    )


def test_03_self_concordance_inequality():
    rng = np.random.default_rng(3)
    worst_excess = -math.inf
    for kind in ("logistic", "expfam_glm"):
        n = 50
        model, _, X, y = _draw(kind, rng, n=n, clip=3.0 if kind == "expfam_glm" else None)
        if kind == "logistic":
            R = 2.0 * float(np.max(np.linalg.norm(X, axis=1)))
        else:
            R = model.sc.R  # 2M for the statistic bound M
        for _ in range(100):
            theta = rng.normal(size=_D) * 0.5
            u, v = rng.normal(size=_D), rng.normal(size=_D)
            third = float(
                np.mean([_fd_third_dir(model, theta, *_row(X, y, i), u, v) for i in range(n)])
            )
            H = mean_hessian(model, theta, X, y)
            bound = R * float(u @ H @ u) * float(np.linalg.norm(v))
            worst_excess = max(
                worst_excess, (abs(third) - bound) / max(1.0, bound)
            )

    # quadratic losses: the third directional derivative vanishes, checked
    # through finite differences of the Hessian rather than the analytic zero
    worst_quad = 0.0
    for kind in ("squared", "score_matching"):
        rng = np.random.default_rng(31)
        for _ in range(100):
            model, theta, X, y = _draw(kind, rng)
            u = rng.normal(size=theta.size)
            v = rng.normal(size=theta.size)
            h = 1e-4
            fd_third = float(
                u @ (mean_hessian(model, theta + h * v, X, y)
                     - mean_hessian(model, theta - h * v, X, y)) @ u
            ) / (2 * h)
            worst_quad = max(worst_quad, abs(fd_third))
    ok = worst_excess <= 1e-5 and worst_quad <= 1e-6
    _gate(
        "03 self-concordance bound",
        ok,
        f"worst (|third|-bound)/max(1,bound) {worst_excess:.2e} (slack 1e-05), "
        f"worst quadratic third deriv {worst_quad:.2e} (tol 1e-06)",
    )


def test_04_hessian_sandwich():
    t0 = time.time()
    proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(4))
    data = generate(proc, n=400, seed=4)
    model = model_for_data("logistic", data.X)
    R = model.sc.R
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(200):
        theta_a = rng.normal(size=4) * 0.5
        g = rng.normal(size=4)
        target = float(rng.uniform(0.05, 0.9))
        step = (target / (R * float(np.linalg.norm(g)))) * g
        dn = d_nu(model.sc, step, 0.0)
        H_a = mean_hessian(model, theta_a, data.X, data.y)
        H_b = mean_hessian(model, theta_a + step, data.X, data.y)
        w = omega(model.sc.nu, dn)
        eigs = eigh(H_b, H_a, eigvals_only=True)
        worst = max(worst, (1.0 / w) - eigs[0], eigs[-1] - w)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _gate(
        "04 Hessian sandwich",
        ok,
        f"worst eigenvalue excursion past [1/omega, omega] {worst:.2e} "
        f"over 200 pairs with d_nu < 0.9, {elapsed:.1f}s (budget 30s)",
    )


def test_05_certified_localization():
    proc = Process(kind="poisson_wellspec", theta0=0.3 * np.linspace(0.0, 1.0, 3))
    passing = held = attempts = 0
    while passing < 200 and attempts < 400:
        data = generate(proc, n=1000, seed=phase_seed(77, attempts))
        attempts += 1
        model = model_for_data(loss_kind_for(proc), data.X)
        cert = localization_certificate(model, data, proc.theta0)
        if not cert.passes:
            continue
        passing += 1
        fit = fit_erm(model, data)
        agg = aggregates(model, data, proc.theta0)
        diff = fit.theta_n - proc.theta0
        if float(np.sqrt(diff @ agg.H_n @ diff)) <= 4.0 * cert.score_norm:
            held += 1
    ok = passing == 200 and held == 200
    _gate(
        "05 certified localization",
        ok,
        f"{held}/{passing} certified replications satisfy the 4x score-norm "
        f"bound ({attempts} attempts)",
    )


def test_06_wilks_means():
    proc = Process(kind="linear_wellspec", theta0=theta0_equispaced(5))
    n, d = 5000, 5
    lrs, walds = [], []
    for rep in range(500):
        data = generate(proc, n=n, seed=phase_seed(6, rep))
        model = model_for_data(loss_kind_for(proc), data.X)
        fit = fit_erm(model, data)
        lrs.append(n * lr_statistic(fit, proc.theta0))
        walds.append(n * wald_statistic(fit, proc.theta0))
    mean_lr, mean_wald = float(np.mean(lrs)), float(np.mean(walds))
    ok = 0.9 * d <= mean_lr <= 1.1 * d and 0.9 * d <= mean_wald <= 1.1 * d
    _gate(
        "06 Wilks means",
        ok,
        f"mean n*T_LR {mean_lr:.3f}, mean n*T_Wald {mean_wald:.3f}, "
        f"window [{0.9 * d}, {1.1 * d}]",
    )


def test_07_effective_dimension_consistency():
    t0 = time.time()
    proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(5))
    errs = {}
    for n in (2000, 10000):
        e = []
        for s in range(30):
            data = generate(proc, n=n, seed=phase_seed(7, 1000 * s + n))
            model = model_for_data(loss_kind_for(proc), data.X)
            fit = fit_erm(model, data)
            e.append(abs(effective_dim_empirical(fit).value / 5.0 - 1.0))
        errs[n] = float(np.mean(e))
    elapsed = time.time() - t0
    ok = errs[10000] < errs[2000] and errs[10000] <= 0.15 and elapsed < 180.0
    _gate(
        "07 effective-dimension consistency",
        ok,
        f"mean |d_n/d - 1|: {errs[2000]:.4f} at n=2000 vs {errs[10000]:.4f} "
        f"at n=10000 (cap 0.15), {elapsed:.0f}s (budget 180s)",
    )


def test_08_coverage_reproduction_smoke():
    # Reduced-replication gate for the coverage study: 200 replications
    # against targets pinned from the reference study at n=100, d=5,
    # B=2000.  Those targets carry the reference run's own Monte-Carlo
    # noise, so this gate allows +-0.06; the full-replication check
    # (1000 reps, +-0.03) is `scmest experiment coverage_table --check`.
    t0 = time.time()
    cells = [
        ("linear_wellspec", "oracle", 0.95, 0.957),
        ("logistic_wellspec", "bootwald", 0.95, 0.938),
        ("logistic_wellspec", "bootlr", 0.95, 0.976),
        ("linear_misspec_t", "bootwald", 0.75, 0.727),
    ]
    need = {}
    for p_idx, (kind, method, delta, _) in enumerate(cells):
        methods, deltas = need.setdefault(kind, (set(), set()))
        methods.add(method)
        deltas.add(delta)
    tables = {}
    for p_idx, kind in enumerate(("linear_wellspec", "linear_misspec_t", "logistic_wellspec")):
        if kind not in need:
            continue
        methods, deltas = need[kind]
        cfg = CoverageConfig(
            process=Process(kind=kind, theta0=theta0_equispaced(5)),
            n=100,
            deltas=tuple(sorted(deltas)),
            reps=200,
            B=2000,
            seed=phase_seed(8, p_idx),
            methods=tuple(sorted(methods)),
        )
        tables[kind] = coverage_experiment(cfg)
    elapsed = time.time() - t0
    report = []
    ok = elapsed < 300.0
    for kind, method, delta, target in cells:
        row = tables[kind].lookup(method, delta)
        ok = ok and abs(row.coverage - target) <= 0.06
        report.append(f"{kind}/{method}@{delta}: {row.coverage:.3f} vs {target}")
    _gate(
        "08 coverage reproduction (smoke)",
        ok,
        "; ".join(report) + f" (tol 0.06), {elapsed:.0f}s (budget 300s)",
    )


def test_09_spectral_regimes():
    # equal spectra: the ratio sum collapses to the dimension exactly
    exact = all(
        effective_dim_spectrum(np.ones(d), np.ones(d)) == float(d)
        for d in (10, 100, 1000)
    )

    # exponential-over-polynomial spectra stay O(1)
    i = np.arange(1, 51, dtype=float)
    v_ep = effective_dim_spectrum(np.exp(-i), 1.0 / i)
    partial = float(np.sum(np.exp(-i) * i))
    ep_ok = abs(v_ep - partial) <= 1e-10 and v_ep < 1.0

    # polynomial-over-polynomial spectra grow like log d; the harmonic
    # bracket H_d - log d - gamma in (1/(2d+1), 1/(2d)) pins the rate
    pp_ok = True
    prev = 0.0
    pp_vals = []
    for d in (10, 100, 1000):
        i = np.arange(1, d + 1, dtype=float)
        v = effective_dim_spectrum(i**-2.0, i**-1.0)
        gap = v - math.log(d) - EULER_GAMMA
        pp_ok = pp_ok and v > prev and 1.0 / (2 * d + 1) < gap < 1.0 / (2 * d)
        prev = v
        pp_vals.append(v)
    ok = exact and ep_ok and pp_ok
    _gate(
        "09 spectral regimes",
        ok,
        f"equal exact={exact}, exp-poly {v_ep:.6f} (<1, partial-sum diff "
        f"{abs(v_ep - partial):.1e}), poly-poly {pp_vals} log-bracketed={pp_ok}",
    )


def test_10_power_direction():
    theta0 = theta0_equispaced(5)
    shift = np.full(5, 0.5 / math.sqrt(5.0))
    dist = float(np.linalg.norm(shift))
    cfg = PowerCurveConfig(
        process=Process(kind="logistic_wellspec", theta0=theta0),
        alternatives=(theta0 + shift,),
        n_grid=(500, 1000, 2000),
        alpha=0.05,
        seed=10,
    )
    table = power_curve(cfg)
    ok = True
    report = []
    for kind in ("rao", "lr", "wald"):
        powers = [table.lookup(kind, n, dist).power for n in (500, 1000, 2000)]
        ok = ok and powers[-1] >= 0.9
        ok = ok and all(b >= a - 0.05 for a, b in zip(powers, powers[1:]))
        report.append(f"{kind}: " + "->".join(f"{p:.3f}" for p in powers))
    _gate(
        "10 power direction",
        ok,
        "; ".join(report) + " (>=0.9 at n=2000, non-decreasing within 0.05)",
    )
