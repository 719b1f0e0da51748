"""Command-line front end for fits, confidence sets, tests, and experiments.

Every subcommand reads its parameters from flags, optionally merged over a
JSON ``--config`` file (flags win; unknown config keys are rejected), and
writes a versioned JSON artifact to ``--out`` or stdout.

``experiment`` is the one front end of the four studies in
:mod:`scmest.experiments`.  It runs one study and writes its table as CSV
through :func:`scmest.simdata.write_table`.  Its config file may set any
field of the study's config dataclass (JSON arrays become tuples);
``--reps``, ``--B``, ``--n`` and ``--seed`` override a field and are
rejected by a study that has no such field.  ``--check`` compares the
coverage table's pinned cells with their targets.

``--tol``/``--max-iter`` set the solver options of the fit, and every
refit that calibrates it (bootstrap or oracle replications) runs under the
same options.  ``confset`` builds its set with
:func:`scmest.inference.confidence_set`, which takes the radius from the
one calibration entry point, :func:`scmest.inference.calibrated_radius`.
``oracle_mc`` calibrations (``confset``, and ``gof``'s critical rule)
replay the ``--process`` that drew the data; ``--data`` has none to
replay and is rejected for them.

Exit codes: 0 success, 1 configuration, data or I/O error (a flag the
study lacks, a non-finite data value), 2 fit did not converge, 3 singular
Hessian.  Only ``fit`` writes its artifact on a non-zero exit (at 2).

Heavy imports happen after argument parsing so that ``--threads`` can cap
the BLAS pool before numpy loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

SCHEMA_VERSION = "1"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# the losses.LOSS_KINDS that losses.model_for_data can build from data (all
# but expfam_glm, which needs a user feature map) and simdata.PROCESS_KINDS;
# tests pin both; listing them here keeps parser construction import-light
_LOSS_KINDS = ("squared", "logistic", "poisson", "score_matching")
_PROCESS_KINDS = (
    "linear_wellspec",
    "linear_misspec_t",
    "logistic_wellspec",
    "poisson_wellspec",
    "gaussian_expfam_scorematch",
)
_EXPERIMENTS = ("coverage_table", "effdim_error", "confset_shape", "power_curves")

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors.

    The default argparse status 2 is reserved here for non-convergence.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {exc}")


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="base RNG seed (default 0)")
    common.add_argument("--out", default=None, help="output path (default stdout / <name>.csv)")
    common.add_argument("--config", default=None, help="JSON file of extra parameters")
    common.add_argument("--threads", type=int, default=None, help="cap BLAS thread count")

    source = _Parser(add_help=False)
    source.add_argument("--data", default=None, help="CSV dataset path")
    source.add_argument("--model", choices=_LOSS_KINDS, default=None, help="loss kind")
    source.add_argument(
        "--process", choices=_PROCESS_KINDS, default=None, help="generate data from this process"
    )
    source.add_argument("--n", type=int, default=None, help="sample size for --process")
    source.add_argument(
        "--theta0", type=_csv_floats, default=None, help="process parameter, comma-separated"
    )
    source.add_argument(
        "--d", type=int, default=None, help="dimension when --theta0 is omitted (equispaced)"
    )
    source.add_argument("--tol", type=float, default=None, help="Newton decrement tolerance")
    source.add_argument("--max-iter", dest="max_iter", type=int, default=None)

    parser = _Parser(prog="scmest", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("fit", parents=[common, source], help="fit by damped Newton, emit FitResult")

    p = sub.add_parser("confset", parents=[common, source], help="calibrated confidence set")
    p.add_argument("--kind", choices=("wald", "lr"), default=None)
    p.add_argument("--delta", type=float, default=None, help="tail mass (default 0.05)")
    p.add_argument(
        "--calibration",
        choices=("bootstrap", "oracle_mc", "explicit_constant"),
        default=None,
    )
    p.add_argument("--B", type=int, default=None, help="bootstrap replications")
    p.add_argument("--calib-reps", dest="calib_reps", type=int, default=None)
    p.add_argument("--k1", type=float, default=None, help="score sub-Gaussian constant")
    p.add_argument("--k2", type=float, default=None, help="Hessian Bernstein range constant")
    p.add_argument("--sigma-h", dest="sigma_h", type=float, default=None)
    p.add_argument("--c-abs", dest="c_abs", type=float, default=None)

    sub.add_parser("effdim", parents=[common, source], help="empirical effective dimension")

    p = sub.add_parser("gof", parents=[common, source], help="goodness-of-fit test")
    p.add_argument("--test", choices=("rao", "lr", "wald"), default=None)
    p.add_argument("--null", default=None, help="JSON file holding the null parameter")
    p.add_argument("--alpha", type=float, default=None, help="test level (default 0.05)")
    p.add_argument(
        "--critical-rule",
        dest="critical_rule",
        choices=("scaled_dim", "explicit", "oracle_mc"),
        default=None,
    )
    p.add_argument("--c-scale", dest="c_scale", type=float, default=None)
    p.add_argument("--critical", type=float, default=None)
    p.add_argument("--calib-reps", dest="calib_reps", type=int, default=None)

    p = sub.add_parser("bootstrap", parents=[common, source], help="multiplier bootstrap quantile")
    p.add_argument("--kind", choices=("wald", "lr"), default=None)
    p.add_argument("--delta", type=float, default=None, help="tail mass (default 0.05)")
    p.add_argument("--B", type=int, default=None, help="bootstrap replications")

    p = sub.add_parser("experiment", parents=[common], help="run a prepackaged study, emit CSV")
    p.add_argument("name", choices=_EXPERIMENTS)
    p.add_argument("--reps", type=int, default=None, help="replications override")
    p.add_argument("--B", type=int, default=None, help="bootstrap replications override")
    p.add_argument("--n", type=int, default=None, help="sample size override")
    p.add_argument(
        "--check",
        action="store_true",
        default=None,
        help="coverage_table only: exit 1 unless the pinned cells hit their targets",
    )
    return parser


def _merged_config(args: argparse.Namespace) -> dict:
    """Config-file values overridden by explicitly given flags.

    The keys a config file may set are the subcommand's own parsed options,
    less the ones that only steer the run (``--config``, ``--threads``,
    ``--out``), and for ``experiment`` the fields of the study's config.
    """
    allowed = set(vars(args)) - {"command", "config", "threads", "out"}
    if args.command == "experiment":
        allowed |= _study_fields(args.name)
    cfg: dict = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise _ConfigError(f"{args.config}: not valid JSON ({exc})")
        if not isinstance(loaded, dict):
            raise _ConfigError(f"{args.config}: top level must be a JSON object")
        unknown = set(loaded) - allowed
        if unknown:
            raise _ConfigError(
                f"{args.config}: unknown keys for {args.command!r}: {sorted(unknown)}"
            )
        cfg.update(loaded)
    for key in allowed | {"out"}:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    cfg.setdefault("seed", 0)
    return cfg


class _ConfigError(Exception):
    pass


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _given(cfg, **casts) -> dict:
    """The keys of ``cfg`` that were given, each cast; the callee defaults the rest."""
    return {key: cast(cfg[key]) for key, cast in casts.items() if cfg.get(key) is not None}


def _solver_opts(cfg):
    from .estimate import SolverOptions

    return SolverOptions(**_given(cfg, tol=float, max_iter=int))


def _resolve_process(cfg):
    import numpy as np

    from .simdata import Process, theta0_equispaced

    spec = cfg["process"]
    if isinstance(spec, dict):
        return Process.from_config(spec)
    if cfg.get("theta0") is not None:
        theta0 = np.asarray(cfg["theta0"], dtype=float)
    else:
        theta0 = theta0_equispaced(int(cfg.get("d") or 5))
    return Process(kind=spec, theta0=theta0)


def _load_inputs(cfg):
    """Resolve (model, data) from a merged config; generated data record their process."""
    from .errors import ParseError
    from .losses import model_for_data
    from .simdata import generate, loss_kind_for, read_csv

    if cfg.get("data") is not None:
        if cfg.get("process") is not None:
            raise ParseError("give either --data or --process, not both")
        data = read_csv(cfg["data"])
        kind = cfg.get("model")
        if kind is None:
            raise ParseError("--model is required with --data")
        return model_for_data(kind, data.X), data
    if cfg.get("process") is None:
        raise ParseError("provide a dataset via --data or a process via --process")
    if cfg.get("n") is None:
        raise ParseError("--n is required with --process")
    proc = _resolve_process(cfg)
    data = generate(proc, int(cfg["n"]), int(cfg["seed"]))
    kind = cfg.get("model") or loss_kind_for(proc)
    return model_for_data(kind, data.X), data


def _fit_payload(fit) -> dict:
    cert = None
    if fit.certificate is not None:
        cert = {
            "passes": bool(fit.certificate.passes),
            "radius_bound": float(fit.certificate.radius_bound),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "model": fit.model.kind,
        "n": fit.aggregates_at_opt.n,
        "d": int(fit.theta_n.size),
        "theta_n": fit.theta_n.tolist(),
        "objective_value": fit.aggregates_at_opt.L_n,
        "newton_decrement": fit.newton_decrement,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "certificate": cert,
    }


def cmd_fit(cfg) -> int:
    from .estimate import fit_erm

    model, data = _load_inputs(cfg)
    fit = fit_erm(model, data, _solver_opts(cfg))
    _emit_json(_fit_payload(fit), cfg.get("out"))
    if not fit.converged:
        print("fit: did not converge within the iteration budget", file=sys.stderr)
        return 2
    return 0


def cmd_confset(cfg) -> int:
    from .errors import MissingSampler
    from .estimate import fit_erm
    from .inference import AssumptionConstants, confidence_set

    model, data = _load_inputs(cfg)
    fit = fit_erm(model, data, _solver_opts(cfg))
    kind = cfg.get("kind", "wald")
    delta = float(cfg.get("delta", 0.05))
    calibration = cfg.get("calibration", "bootstrap")
    constants = None
    if calibration == "explicit_constant":
        if any(cfg.get(name) is None for name in ("k1", "k2", "sigma_h")):
            raise MissingSampler("explicit_constant calibration needs --k1, --k2, --sigma-h")
        constants = AssumptionConstants(
            K1=float(cfg["k1"]), K2=float(cfg["k2"]), sigma_H=float(cfg["sigma_h"])
        )
    cs = confidence_set(
        fit,
        kind,
        delta,
        calibration,
        constants=constants,
        seed=int(cfg["seed"]),
        **_given(cfg, c_abs=float, calib_reps=int, B=int),
    )
    _emit_json(json.loads(cs.to_json()), cfg.get("out"))
    return 0


def cmd_effdim(cfg) -> int:
    from .estimate import fit_erm
    from .inference import effective_dim_empirical

    model, data = _load_inputs(cfg)
    fit = fit_erm(model, data, _solver_opts(cfg))
    report = effective_dim_empirical(fit)
    _emit_json(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "effdim",
            "model": model.kind,
            "n": data.n,
            "d": int(fit.theta_n.size),
            "kind": report.kind,
            "value": report.value,
        },
        cfg.get("out"),
    )
    return 0


def cmd_gof(cfg) -> int:
    import numpy as np

    from .errors import ParseError
    from .gof import run_test

    model, data = _load_inputs(cfg)
    test = cfg.get("test")
    if test is None:
        raise ParseError("--test is required (rao, lr, or wald)")
    if cfg.get("null") is None:
        raise ParseError("--null is required: JSON file holding the null parameter")
    with open(cfg["null"], encoding="utf-8") as fh:
        loaded = json.load(fh)
    if isinstance(loaded, dict):
        loaded = loaded.get("theta0")
    theta0 = np.asarray(loaded, dtype=float)
    if test == "rao":
        print("gof: rao statistic evaluated at the null, no fit performed", file=sys.stderr)
    report = run_test(
        test,
        model,
        data,
        theta0,
        alpha=float(cfg.get("alpha", 0.05)),
        critical_rule=cfg.get("critical_rule", "scaled_dim"),
        c_scale=cfg.get("c_scale"),
        critical=cfg.get("critical"),
        seed=int(cfg["seed"]),
        opts=_solver_opts(cfg),
        **_given(cfg, calib_reps=int),
    )
    _emit_json(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "gof",
            "test": report.kind,
            "statistic": report.statistic,
            "critical": report.critical,
            "reject": report.reject,
            "alpha": float(cfg.get("alpha", 0.05)),
            "critical_rule": cfg.get("critical_rule", "scaled_dim"),
            "n": report.n,
            "d": report.d,
        },
        cfg.get("out"),
    )
    return 0


def cmd_bootstrap(cfg) -> int:
    from .bootstrap import BootstrapConfig, bootstrap_quantile
    from .estimate import fit_erm

    model, data = _load_inputs(cfg)
    fit = fit_erm(model, data, _solver_opts(cfg))
    kind = cfg.get("kind", "wald")
    delta = float(cfg.get("delta", 0.05))
    bcfg = BootstrapConfig(delta=delta, seed=int(cfg["seed"]), **_given(cfg, B=int))
    bq = bootstrap_quantile(model, data, fit, bcfg, kind=kind)
    _emit_json(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "bootstrap",
            "kind": kind,
            "delta": delta,
            "B": bcfg.B,
            "quantile": bq.quantile,
            "n_failed": bq.n_failed,
        },
        cfg.get("out"),
    )
    return 0


def _studies() -> dict:
    """Study name -> (config dataclass, runner returning (rows, CSV metadata))."""
    from . import experiments as ex

    return {
        "coverage_table": (
            ex.CoverageTableExperiment,
            lambda c: (
                ex.run_coverage_table(c).rows,
                {"n": c.n, "d": c.d, "reps": c.reps, "B": c.B, "seed": c.seed},
            ),
        ),
        "effdim_error": (ex.EffDimErrorExperiment, lambda c: (ex.run_effdim_error(c), None)),
        "confset_shape": (ex.ConfsetShapeExperiment, lambda c: (ex.run_confset_shape(c), None)),
        "power_curves": (ex.PowerCurvesExperiment, lambda c: (ex.run_power_curves(c), None)),
    }


def _study_fields(name: str) -> set[str]:
    return {f.name for f in dataclasses.fields(_studies()[name][0])}


def _tuples(value):
    """A JSON array as a tuple, recursively: the study configs hold tuples."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _check_coverage(rows) -> int:
    """PASS/FAIL per pinned coverage cell on stderr; 1 if any misses its target.

    The tolerance 0.03 allows for the targets' own Monte-Carlo noise at
    1000 replications; a cell the configured table lacks fails.
    """
    from .experiments import COVERAGE_TARGETS

    coverage = {(row.model, row.method, row.delta): row.coverage for row in rows}
    failed = 0
    for model, method, delta, target in COVERAGE_TARGETS:
        value = coverage.get((model, method, delta), float("nan"))
        ok = abs(value - target) <= 0.03
        failed += not ok
        print(
            f"[{'PASS' if ok else 'FAIL'}] {model}/{method}@{delta}: "
            f"{value:.3f} vs target {target} (tol 0.03)",
            file=sys.stderr,
        )
    return 1 if failed else 0


def cmd_experiment(cfg) -> int:
    from .errors import ParseError
    from .simdata import write_table

    name = cfg.pop("name")
    check = cfg.pop("check", None)
    out = cfg.pop("out", None) or f"{name}.csv"
    if check and name != "coverage_table":
        raise ParseError(f"--check applies to coverage_table only, not {name}")
    config_cls, run = _studies()[name]
    lacking = sorted(set(cfg) - _study_fields(name))
    if lacking:
        raise ParseError(f"experiment {name} takes no " + ", ".join(f"--{k}" for k in lacking))
    rows, metadata = run(config_cls(**{key: _tuples(value) for key, value in cfg.items()}))
    write_table(rows, out, metadata=metadata)
    print(f"experiment {name}: wrote {len(rows)} rows to {out}", file=sys.stderr)
    return _check_coverage(rows) if check else 0


_DISPATCH = {
    "fit": cmd_fit,
    "confset": cmd_confset,
    "effdim": cmd_effdim,
    "gof": cmd_gof,
    "bootstrap": cmd_bootstrap,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("scmest: error: --threads must be at least 1", file=sys.stderr)
            return 1
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)

    from .errors import NonConverged, ScmestError, SingularHessian

    try:
        cfg = _merged_config(args)
        return _DISPATCH[args.command](cfg)
    except SingularHessian as exc:
        print(f"scmest: singular Hessian: {exc}", file=sys.stderr)
        return 3
    except NonConverged as exc:
        print(f"scmest: non-convergence: {exc}", file=sys.stderr)
        return 2
    except _ConfigError as exc:
        print(f"scmest: config error: {exc}", file=sys.stderr)
        return 1
    except (ScmestError, OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        print(f"scmest: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
