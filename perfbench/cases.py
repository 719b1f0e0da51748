"""Workloads and cases of the scmest benchmark.

A workload is a fixed, seeded list of cases.  Each case has four parts:

* ``build(seed)`` makes its inputs (datasets, models, the base fits that
  bootstrap cases need).  This is set-up and is timed as ``setup_s``.
* ``run(inp, call)`` makes the case's public library calls, each through
  ``call(span_name, fn, *args)`` so that a traced pass can time them.
* ``outcome(inp, out, ref)`` checks the output and counts successful fits.
* ``probes(inp, out, probe)`` times extra calls on the case's own inputs, at
  its fitted theta, for the per-layer metrics of calls that happen inside a
  study function or that the case only makes once.

Only the public API of ``scmest`` is called, so every layer is measured from
outside the package.  Outputs are checked against independent references
(a Newton solver written here, closed forms) and against ``reference.json``,
which holds the outputs of the seed commit for a range of seeds.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from scmest import cli
from scmest.bootstrap import BootstrapConfig, bootstrap_fit, bootstrap_quantile, bootstrap_weights
from scmest.errors import ScmestError, TooManyFailures
from scmest.estimate import SolverOptions, aggregates, fit_erm
from scmest.experiments import CoverageTableExperiment, run_coverage_table
from scmest.gof import PowerCurveConfig, power_curve, run_test
from scmest.inference import effective_dim_empirical
from scmest.losses import (
    batch_grads,
    batch_values,
    expfam_glm_loss,
    mean_hessian,
    model_for_data,
)
from scmest.simdata import Process, generate, loss_kind_for, theta0_equispaced

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
REFERENCE_FILE = HERE / "reference.json"

# Tolerances of the output checks; README.md gives the reasoning for each.
THETA_TOL = 1e-7  # library theta vs. the independent reference minimizer
EXPFAM_TOL = 1e-9  # expfam-written logistic vs. the logistic fit, same data
QUANTILE_RTOL = 1e-6  # bootstrap quantile vs. reference, same n_failed
QUANTILE_RTOL_SHIFTED = 0.05  # ... when the set of failed slots changed
COUNT_TOL = 1  # coverage / power rows: replications that may flip per row
FAILED_SLOTS_TOL = 0.01  # share of B by which a declined call's failure count may move
DECLINE_LIMIT = 0.25  # share of B above which a declined call means a broken engine

_TOO_MANY = re.compile(r"(\d+) of (\d+) bootstrap replications failed")


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def reference_minimizer(kind: str, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minimizer of the mean logistic or Poisson risk by Newton with backtracking.

    Written against the loss formulas, not the library, so that a wrong
    minimizer returned by the library cannot also appear here.  Stops when
    the Newton decrement falls to 1e-12 or stalls at the round-off floor
    below 1e-10.
    """
    n, d = X.shape

    def risk(th):
        eta = X @ th
        if kind == "logistic":
            return float(np.mean(np.logaddexp(0.0, -y * eta)))
        return float(np.mean(np.exp(eta) - y * eta))

    theta = np.zeros(d)
    previous = math.inf
    for _ in range(200):
        eta = X @ theta
        if kind == "logistic":
            s = expit(-y * eta)
            grad = X.T @ (-y * s) / n
            curv = s * (1.0 - s)
        else:
            curv = np.exp(eta)
            grad = X.T @ (curv - y) / n
        H = (X * curv[:, None]).T @ X / n
        step = -np.linalg.solve(H, grad)
        dec_sq = float(-grad @ step)
        # done at 1e-12, or where round-off stops the decrement from falling
        if dec_sq <= 1e-24 or (dec_sq < 1e-20 and dec_sq > 0.5 * previous):
            return theta
        previous = dec_sq
        t = 1.0
        if dec_sq > 1e-8:
            # outside the region of quadratic convergence, backtrack on the risk
            base = risk(theta)
            while risk(theta + t * step) > base - 0.25 * t * dec_sq and t > 1e-10:
                t *= 0.5
        theta = theta + t * step
    raise RuntimeError(f"reference {kind} solver did not converge")


def gaussian_scorematch_minimizer(Z: np.ndarray) -> np.ndarray:
    """Closed-form score-matching estimate for t(z) = (z, -z^2/2).

    The empirical risk is sum_k [mean (a_k - b_k z_k)^2 / 2 - b_k], whose
    minimizer is b_k = 1 / var_k, a_k = mean_k / var_k (population variance).
    """
    mean = Z.mean(axis=0)
    var = Z.var(axis=0)
    return np.concatenate([mean / var, 1.0 / var])


def load_reference(seed: int) -> dict | None:
    """Stored outputs of the seed commit for this seed, or None."""
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(str(seed))


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one case run produced.

    ``status`` is "ok", "failed" (the library raised, did not converge, or
    declined a certificate) or "wrong" (a returned result failed a check).
    A bootstrap call that raises ``TooManyFailures`` with a failure count the
    checks accept is "ok": the library's documented answer, noted in
    ``notes``.  ``digest`` holds the numbers that later passes must
    reproduce exactly and that ``reference.json`` stores.
    """

    status: str
    fits: int
    digest: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    seconds: float = 0.0
    cpu_seconds: float = 0.0


def _settle(fits: int, digest: dict, failures: list[str], wrong: list[str], notes=()) -> Outcome:
    status = "wrong" if wrong else "failed" if failures else "ok"
    return Outcome(
        status=status, fits=fits, digest=digest, problems=failures + wrong, notes=list(notes)
    )


def raised(exc: BaseException) -> Outcome:
    """A case whose library call raised: a counted failure, never a skip."""
    return Outcome(status="failed", fits=0, problems=[f"raised {type(exc).__name__}: {exc}"])


def _theta_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


# ---------------------------------------------------------------------------
# single fits
# ---------------------------------------------------------------------------


def _expfam_stat(x, y):
    # logistic with labels +-1 written as an exponential family: t(x, y) = y x / 2
    return 0.5 * y * x


def _fit_layer_names(case: str, with_model: bool = True) -> list[tuple[str, str, str]]:
    names = [
        ("estimate.fit_s", "s", "lower"),
        ("estimate.newton_iters", "count", "lower"),
        ("estimate.aggregates_s", "s", "lower"),
        ("losses.mean_hessian_s", "s", "lower"),
        ("losses.batch_grads_s", "s", "lower"),
        ("losses.batch_values_s", "s", "lower"),
        ("simdata.generate_s", "s", "lower"),
    ]
    if with_model:
        names.append(("losses.model_for_data_s", "s", "lower"))
    return [(f"{n}.{case}", u, b) for n, u, b in names]


def _probe_fit_layers(probe, case, process, n, seed, model_kind, data, model, theta):
    """Time the losses/estimate/simdata calls a fit makes, at theta."""
    X, y = data.X, data.y
    probe(f"simdata.generate_s.{case}", generate, process, n, seed)
    if model_kind is not None:
        probe(f"losses.model_for_data_s.{case}", model_for_data, model_kind, X)
    probe(f"estimate.aggregates_s.{case}", aggregates, model, data, theta)
    probe(f"losses.mean_hessian_s.{case}", mean_hessian, model, theta, X, y)
    probe(f"losses.batch_grads_s.{case}", batch_grads, model, theta, X, y)
    probe(f"losses.batch_values_s.{case}", batch_values, model, theta, X, y)


def _fit_inputs(case, seed):
    """Process, dataset and model of a fit or bootstrap case."""
    theta0 = case.theta0 if case.theta0 is not None else theta0_equispaced(case.d)
    process = Process(kind=case.process_kind, theta0=theta0)
    data = generate(process, case.n, seed)
    if case.expfam:
        bound = 0.5 * float(np.max(np.linalg.norm(data.X, axis=1)))
        model = expfam_glm_loss(case.d, (-1.0, 1.0), _expfam_stat, bound)
    else:
        model = model_for_data(loss_kind_for(process), data.X)
    return {"process": process, "data": data, "model": model, "seed": seed}


class FitCase:
    """fit_erm + effective_dim_empirical + a scaled-dim Rao test at theta0.

    ``max_iter``, when given, replaces the solver's default iteration cap.
    """

    stored = False  # theta is checked against an independent minimizer instead

    def __init__(self, name, process_kind, d, n, expfam=False, theta0=None, max_iter=None):
        self.name, self.process_kind, self.d, self.n = name, process_kind, d, n
        self.expfam = expfam
        self.theta0 = theta0
        self.opts = None if max_iter is None else SolverOptions(max_iter=max_iter)

    def layer_names(self):
        return _fit_layer_names(self.name, with_model=not self.expfam) + [
            (f"inference.effdim_s.{self.name}", "s", "lower"),
            (f"gof.rao_s.{self.name}", "s", "lower"),
        ]

    def build(self, seed):
        return _fit_inputs(self, seed)

    def reference(self, inp):
        data = inp["data"]
        if self.process_kind == "gaussian_expfam_scorematch":
            ref = {"theta": gaussian_scorematch_minimizer(data.X)}
        else:
            kind = "logistic" if self.process_kind == "logistic_wellspec" else "poisson"
            ref = {"theta": reference_minimizer(kind, data.X, data.y)}
        if self.expfam:
            # the library's own logistic fit of the same data
            logistic = model_for_data("logistic", data.X)
            ref["logistic_theta"] = fit_erm(logistic, data).theta_n
        return ref

    def run(self, inp, call):
        model, data, theta0 = inp["model"], inp["data"], inp["process"].theta0
        fit = call("estimate.fit_erm", fit_erm, model, data, self.opts)
        effdim = call("inference.effective_dim_empirical", effective_dim_empirical, fit)
        rao = call(
            "gof.run_test", run_test, "rao", model, data, theta0, 0.05, critical_rule="scaled_dim"
        )
        return fit, effdim, rao

    def outcome(self, inp, out, ref):
        fit, effdim, rao = out
        failures, wrong = [], []
        if not fit.converged:
            failures.append(f"fit did not converge in {fit.iterations} iterations")
        elif fit.certificate is None or not fit.certificate.passes:
            failures.append("certificate does not pass at the converged fit")
        else:
            gap = _theta_gap(fit.theta_n, ref["theta"])
            if gap > THETA_TOL:
                wrong.append(f"theta differs from the reference minimizer by {gap:.3g}")
            if self.expfam:
                gap = _theta_gap(fit.theta_n, ref["logistic_theta"])
                if gap > EXPFAM_TOL:
                    wrong.append(f"expfam theta differs from the logistic fit by {gap:.3g}")
        if not (math.isfinite(effdim.value) and effdim.value > 0.0):
            wrong.append(f"effective dimension {effdim.value} is not positive")
        if not (math.isfinite(rao.statistic) and rao.statistic >= 0.0):
            wrong.append(f"Rao statistic {rao.statistic} is not a finite nonnegative number")
        digest = {
            "theta": fit.theta_n.tolist(),
            "iterations": fit.iterations,
            "effdim": effdim.value,
            "rao": rao.statistic,
        }
        return _settle(1 if fit.converged else 0, digest, failures, wrong)

    def layer_values(self, out, spans):
        return {f"estimate.newton_iters.{self.name}": out[0].iterations}

    def probes(self, inp, out, probe):
        process, data, model = inp["process"], inp["data"], inp["model"]
        kind = None if self.expfam else loss_kind_for(process)
        _probe_fit_layers(
            probe, self.name, process, self.n, inp["seed"], kind, data, model, out[0].theta_n
        )


class CliFitCase:
    """The README's ``scmest fit`` command, run in process through cli.main."""

    name = "cli_fit_d5_n2k"
    stored = False
    d, n = 5, 2000

    def layer_names(self):
        return [(f"cli.fit_s.{self.name}", "s", "lower")]

    def build(self, seed):
        OUT_DIR.mkdir(exist_ok=True)
        argv = [
            "fit", "--model", "logistic", "--process", "logistic_wellspec",
            "--d", str(self.d), "--n", str(self.n), "--seed", str(seed),
            "--out", str(OUT_DIR / "cli_fit.json"),
        ]  # fmt: skip
        return {"argv": argv, "seed": seed}

    def reference(self, inp):
        process = Process(kind="logistic_wellspec", theta0=theta0_equispaced(self.d))
        data = generate(process, self.n, inp["seed"])
        return {"theta": reference_minimizer("logistic", data.X, data.y)}

    def run(self, inp, call):
        code = call("cli.main", cli.main, inp["argv"])
        return code, json.loads((OUT_DIR / "cli_fit.json").read_text())

    def outcome(self, inp, out, ref):
        code, payload = out
        failures, wrong = [], []
        converged = bool(payload.get("converged"))
        if code != 0 or not converged:
            failures.append(f"scmest fit exited {code}, converged={converged}")
        elif not (payload.get("certificate") or {}).get("passes"):
            failures.append("certificate does not pass")
        else:
            gap = _theta_gap(payload["theta_n"], ref["theta"])
            if gap > THETA_TOL:
                wrong.append(f"theta differs from the reference minimizer by {gap:.3g}")
        digest = {"theta": payload.get("theta_n"), "iterations": payload.get("iterations")}
        return _settle(1 if converged else 0, digest, failures, wrong)

    def layer_values(self, out, spans):
        return {}

    def probes(self, inp, out, probe):
        pass


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


def _boot_result(call, model, data, fit, B, seed):
    """(quantile-or-None, n_failed-or-None, TooManyFailures-message-or-None) of one call.

    The message is kept, not the exception: its traceback would hold the
    engine's arrays alive into the next case and raise ``peak_rss_mb``.
    """
    cfg = BootstrapConfig(delta=0.05, B=B, seed=seed)
    try:
        q = call("bootstrap.bootstrap_quantile", bootstrap_quantile, model, data, fit, cfg, "wald")
    except TooManyFailures as exc:
        m = _TOO_MANY.search(str(exc))
        return None, int(m.group(1)) if m else None, f"TooManyFailures: {exc}"
    return q.quantile, q.n_failed, None


def _boot_refits(B, n_failed):
    return B - n_failed if n_failed is not None else 0


def _boot_layers(case, B, n_failed, seconds):
    return {
        f"bootstrap.refits_per_s.{case}": _boot_refits(B, n_failed) / seconds,
        # a raised call whose message gives no count is charged all B slots
        f"bootstrap.failed_share.{case}": (B if n_failed is None else n_failed) / B,
    }


class BootCase:
    """bootstrap_quantile(kind="wald") on one dataset and its base fit."""

    stored = True  # outputs kept in reference.json

    def __init__(self, name, process_kind, d, n, B=2000, expfam=False, theta0=None):
        self.name, self.process_kind, self.d, self.n, self.B = name, process_kind, d, n, B
        self.expfam = expfam
        self.theta0 = theta0

    def layer_names(self):
        c = self.name
        return [
            (f"bootstrap.quantile_s.{c}", "s", "lower"),
            (f"bootstrap.refits_per_s.{c}", "1/s", "higher"),
            (f"bootstrap.failed_share.{c}", "ratio", "lower"),
            (f"bootstrap.weights_s.{c}", "s", "lower"),
            (f"bootstrap.refit_s.{c}", "s", "lower"),
        ]

    def build(self, seed):
        inp = _fit_inputs(self, seed)
        inp["fit"] = fit_erm(inp["model"], inp["data"])
        return inp

    def reference(self, inp):
        data = inp["data"]
        if self.process_kind == "gaussian_expfam_scorematch":
            theta = gaussian_scorematch_minimizer(data.X)
        elif self.process_kind == "linear_wellspec":
            theta = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
        else:
            kind = "poisson" if self.process_kind == "poisson_wellspec" else "logistic"
            theta = reference_minimizer(kind, data.X, data.y)
        return {"theta": theta}

    def run(self, inp, call):
        return _boot_result(call, inp["model"], inp["data"], inp["fit"], self.B, inp["seed"])

    def outcome(self, inp, out, ref):
        quantile, n_failed, declined = out
        failures, wrong = [], []
        fit = inp["fit"]
        if fit.converged:
            gap = _theta_gap(fit.theta_n, ref["theta"])
            if gap > THETA_TOL:
                wrong.append(f"base theta differs from the reference minimizer by {gap:.3g}")
        notes = []
        if declined is not None:
            wrong += check_declined(n_failed, self.B, ref.get("stored"))
            notes.append(f"declined: {declined}")
        else:
            wrong += check_quantile(quantile, n_failed, self.B, ref.get("stored"))
        digest = {"quantile": quantile, "n_failed": n_failed}
        return _settle(_boot_refits(self.B, n_failed), digest, failures, wrong, notes)

    def layer_values(self, out, spans):
        """``spans`` maps the case's span names to their seconds."""
        _, n_failed, _ = out
        return _boot_layers(self.name, self.B, n_failed, spans["bootstrap.bootstrap_quantile"])

    def probes(self, inp, out, probe):
        seed, n = inp["seed"], self.n
        probe(f"bootstrap.weights_s.{self.name}", _all_weights, seed, self.B, n)
        w = bootstrap_weights(seed, 0, n)
        probe(f"bootstrap.refit_s.{self.name}", _refit, inp["model"], inp["data"], w)


def check_quantile(quantile, n_failed, B, stored) -> list[str]:
    """Problems with a returned bootstrap quantile, given the stored reference."""
    problems = []
    if not (math.isfinite(quantile) and quantile > 0.0):
        problems.append(f"quantile {quantile} is not a positive number")
    if not 0 <= n_failed <= B / 10:
        problems.append(f"{n_failed} of {B} failed but a quantile was returned")
    if stored is not None and stored.get("quantile") is not None:
        rtol = QUANTILE_RTOL if stored["n_failed"] == n_failed else QUANTILE_RTOL_SHIFTED
        rel = abs(quantile - stored["quantile"]) / stored["quantile"]
        if rel > rtol:
            problems.append(f"quantile differs from the reference by {rel:.3g} (relative)")
    return problems


def check_declined(n_failed, B, stored) -> list[str]:
    """Problems with a TooManyFailures answer, given the stored reference.

    The library declines when more than B/10 slots fail.  Its count must say
    so, stay below DECLINE_LIMIT * B (an engine that fails every slot would
    decline too), and lie within FAILED_SLOTS_TOL * B of the stored count.
    """
    if n_failed is None:
        return ["TooManyFailures gave no failure count"]
    problems = []
    if not B / 10 < n_failed <= DECLINE_LIMIT * B:
        problems.append(f"declined with {n_failed} of {B} failed")
    if stored is not None and stored.get("n_failed") is not None:
        if abs(n_failed - stored["n_failed"]) > FAILED_SLOTS_TOL * B:
            want = stored["n_failed"]
            problems.append(f"{n_failed} of {B} failed where the reference has {want}")
    return problems


def _all_weights(seed, B, n):
    return [bootstrap_weights(seed, b, n) for b in range(B)]


def _refit(model, data, w):
    try:
        return bootstrap_fit(model, data, w)
    except ScmestError:
        # a nonconvex reweighting is a legitimate outcome of one slot
        return None


# ---------------------------------------------------------------------------
# reduced studies
# ---------------------------------------------------------------------------


def _probe_dataset(n, seed):
    process = Process(kind="logistic_wellspec", theta0=theta0_equispaced(5))
    data = generate(process, n, seed)
    return process, data, model_for_data("logistic", data.X)


class CoverageCase:
    """run_coverage_table at reduced size; probes at logistic n=100, B=500."""

    name = "coverage_reduced"
    stored = True

    def __init__(self, reps=20, B=500, probe_n=100):
        self.reps, self.B, self.probe_n = reps, B, probe_n

    def layer_names(self):
        c = self.name
        return (
            [(f"experiments.coverage_table_s.{c}", "s", "lower")]
            + _fit_layer_names(c)
            + [
                (f"bootstrap.quantile_s.{c}", "s", "lower"),
                (f"bootstrap.refits_per_s.{c}", "1/s", "higher"),
                (f"bootstrap.failed_share.{c}", "ratio", "lower"),
            ]
        )

    def build(self, seed):
        config = CoverageTableExperiment(reps=self.reps, B=self.B, seed=seed)
        return {"config": config, "seed": seed}

    def reference(self, inp):
        return {}

    def run(self, inp, call):
        return call("experiments.run_coverage_table", run_coverage_table, inp["config"])

    def outcome(self, inp, out, ref):
        cfg = inp["config"]
        failures, wrong = [], []
        expected = len(cfg.processes) * len(cfg.methods) * len(cfg.deltas)
        if len(out.rows) != expected:
            wrong.append(f"{len(out.rows)} rows, expected {expected}")
        fits = 0
        for row in out.rows:
            if row.reps == 0:
                failures.append(f"{row.model}/{row.method}: no valid replication")
                continue
            if row.reps + row.failures != cfg.reps or not 0.0 <= row.coverage <= 1.0:
                wrong.append(f"{row.model}/{row.method}/{row.delta}: inconsistent row {row}")
            if row.delta != cfg.deltas[0]:
                continue
            # the table returns no per-fit counts: the oracle method fits every
            # calibration rep and its valid evaluation reps; each valid
            # bootstrap rep refits B slots (its failed slots are not returned)
            if row.method == "oracle":
                fits += cfg.reps + row.reps
            elif row.method == "bootwald":
                fits += cfg.B * row.reps
        digest = {
            "rows": [
                [r.model, r.method, r.delta, r.coverage, r.reps, r.failures] for r in out.rows
            ]
        }
        wrong += check_rows(digest["rows"], ref.get("stored"), count_col=3, reps_col=4)
        return _settle(fits, digest, failures, wrong)

    def layer_values(self, out, spans):
        return {}

    def probes(self, inp, out, probe):
        seed, n = inp["seed"], self.probe_n
        process, data, model = _probe_dataset(n, seed)
        fit = probe(f"estimate.fit_s.{self.name}", fit_erm, model, data)
        probe.value(f"estimate.newton_iters.{self.name}", fit.iterations)
        _probe_fit_layers(probe, self.name, process, n, seed, "logistic", data, model, fit.theta_n)
        metric = f"bootstrap.quantile_s.{self.name}"
        _, n_failed, _ = _boot_result(
            lambda _span, fn, *args: probe.once(metric, fn, *args), model, data, fit, self.B, seed
        )
        for name, value in _boot_layers(self.name, self.B, n_failed, probe.values[metric]).items():
            probe.value(name, value)


def check_rows(rows, stored, count_col, reps_col) -> list[str]:
    """Compare study rows with stored rows: same keys, close counts.

    A row's count (share times valid replications) may differ from the
    stored one by COUNT_TOL flips plus the change in valid replications.
    """
    if stored is None:
        return []
    stored_rows = stored.get("rows")
    if stored_rows is None or len(stored_rows) != len(rows):
        return ["rows do not match the stored reference"]
    problems = []
    for got, want in zip(rows, stored_rows):
        key = got[:count_col]
        if key != want[:count_col]:
            problems.append(f"row {key} where the reference has {want[:count_col]}")
            continue
        reps, ref_reps = got[reps_col], want[reps_col]
        if reps == 0 or ref_reps == 0:
            continue  # a row without replications is counted as a failure instead
        count, ref_count = got[count_col] * reps, want[count_col] * ref_reps
        if abs(count - ref_count) > COUNT_TOL + abs(reps - ref_reps) + 1e-9:
            problems.append(
                f"row {key}: {got[count_col]} of {reps} vs {want[count_col]} of {ref_reps}"
            )
    return problems


class PowerCase:
    """power_curve at reduced size; probes at logistic n=1000."""

    name = "power_reduced"
    stored = True

    def __init__(self, n_grid=(500, 1000), reps=100, calib_reps=100):
        self.n_grid, self.reps, self.calib_reps = tuple(n_grid), reps, calib_reps

    def layer_names(self):
        return [(f"gof.power_curve_s.{self.name}", "s", "lower")] + _fit_layer_names(self.name)

    def build(self, seed):
        process = Process(kind="logistic_wellspec", theta0=theta0_equispaced(5))
        direction = np.ones(5) / math.sqrt(5.0)
        config = PowerCurveConfig(
            process=process,
            alternatives=[process.theta0 + 0.5 * direction],
            n_grid=self.n_grid,
            reps=self.reps,
            calib_reps=self.calib_reps,
            seed=seed,
        )
        return {"config": config, "seed": seed}

    def reference(self, inp):
        return {}

    def run(self, inp, call):
        return call("gof.power_curve", power_curve, inp["config"])

    def outcome(self, inp, out, ref):
        cfg = inp["config"]
        wrong = []
        expected = len(cfg.kinds) * len(cfg.n_grid) * len(cfg.alternatives)
        if len(out.rows) != expected:
            wrong.append(f"{len(out.rows)} rows, expected {expected}")
        for row in out.rows:
            if not 0.0 <= row.power <= 1.0 or abs(row.dist - 0.5) > 1e-12:
                wrong.append(f"inconsistent row {row}")
        rows = [[r.kind, r.n, r.dist, r.power, cfg.reps] for r in out.rows]
        wrong += check_rows(rows, ref.get("stored"), count_col=3, reps_col=4)
        fits = (cfg.calib_reps + cfg.reps * len(cfg.alternatives)) * len(cfg.n_grid)
        return _settle(fits, {"rows": rows}, [], wrong)

    def layer_values(self, out, spans):
        return {}

    def probes(self, inp, out, probe):
        seed, n = inp["seed"], max(self.n_grid)
        process, data, model = _probe_dataset(n, seed)
        fit = probe(f"estimate.fit_s.{self.name}", fit_erm, model, data)
        probe.value(f"estimate.newton_iters.{self.name}", fit.iterations)
        _probe_fit_layers(probe, self.name, process, n, seed, "logistic", data, model, fit.theta_n)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

_SCOREMATCH_P5 = np.concatenate([np.zeros(5), np.ones(5)])
_SCOREMATCH_P3 = np.concatenate([np.zeros(3), np.ones(3)])


def workloads(quick: bool = False) -> dict[str, list]:
    """The case lists; ``quick`` shrinks every size for the self-test only.

    The reduced studies ride along as the last case of each workload: two
    workloads of one minute are steadier on a shared two-core machine than
    three shorter ones in the same total time.
    """
    if quick:
        return {
            "fit_large": [
                FitCase("logistic_d20_n10k", "logistic_wellspec", 3, 200),
                FitCase("poisson_d20_n10k", "poisson_wellspec", 3, 200),
                FitCase("logistic_d60_n5k", "logistic_wellspec", 4, 200, max_iter=1000),
                FitCase("scorematch_p5_n2k", "gaussian_expfam_scorematch", 4, 100,
                        theta0=np.array([0.0, 0.0, 1.0, 1.0])),
                FitCase("expfam_d5_n2k", "logistic_wellspec", 3, 100, expfam=True),
                CliFitCase(),
                PowerCase(n_grid=(100,), reps=3, calib_reps=3),
            ],
            "bootstrap_b2000": [
                BootCase("logistic_n100_d5", "logistic_wellspec", 3, 100, B=100),
                BootCase("squared_n100_d5", "linear_wellspec", 3, 100, B=100),
                BootCase("poisson_n100_d5", "poisson_wellspec", 3, 100, B=100),
                BootCase("poisson_n300_d5", "poisson_wellspec", 3, 100, B=100),
                BootCase("logistic_n200_d10", "logistic_wellspec", 3, 100, B=100),
                BootCase("scorematch_p3_n500", "gaussian_expfam_scorematch", 2, 100, B=100,
                         theta0=np.array([0.0, 1.0])),
                BootCase("expfam_n100_d5", "logistic_wellspec", 3, 100, B=100, expfam=True),
                CoverageCase(reps=2, B=100, probe_n=100),
            ],
        }  # fmt: skip
    return {
        # single fits: losses Hessian assembly and the estimate Newton loop at
        # large n and d, then a reduced power curve of 400 small fits and tests
        "fit_large": [
            FitCase("logistic_d20_n10k", "logistic_wellspec", 20, 10_000),
            FitCase("poisson_d20_n10k", "poisson_wellspec", 20, 10_000),
            # the damped step needs about 108 iterations here, past the default 100
            FitCase("logistic_d60_n5k", "logistic_wellspec", 60, 5_000, max_iter=1000),
            FitCase("scorematch_p5_n2k", "gaussian_expfam_scorematch", 10, 2_000,
                    theta0=_SCOREMATCH_P5),
            FitCase("expfam_d5_n2k", "logistic_wellspec", 5, 2_000, expfam=True),
            CliFitCase(),
            PowerCase(),
        ],
        # one dataset refit B times: the bootstrap engine and weight generation,
        # then a reduced coverage table that bootstraps 60 small datasets
        "bootstrap_b2000": [
            BootCase("logistic_n100_d5", "logistic_wellspec", 5, 100),
            BootCase("squared_n100_d5", "linear_wellspec", 5, 100),
            BootCase("poisson_n100_d5", "poisson_wellspec", 5, 100),
            BootCase("poisson_n300_d5", "poisson_wellspec", 5, 300),
            BootCase("logistic_n200_d10", "logistic_wellspec", 10, 200),
            BootCase("scorematch_p3_n500", "gaussian_expfam_scorematch", 6, 500,
                     theta0=_SCOREMATCH_P3),
            BootCase("expfam_n100_d5", "logistic_wellspec", 5, 100, B=100, expfam=True),
            CoverageCase(),
        ],
    }  # fmt: skip


def layer_catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric (name, unit, better) across all workloads."""
    names = [("trace.overhead_share", "ratio", "lower")]
    for cases in workloads().values():
        for case in cases:
            names += case.layer_names()
    return names


def quiet_warnings():
    """B=100 is the stated size of the expfam case; its warning is expected."""
    warnings.filterwarnings("ignore", message=r"B = \d+ bootstrap replications is too few")
