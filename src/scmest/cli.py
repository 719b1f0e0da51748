"""Command-line front end for fits, confidence sets, tests, and experiments.

Every subcommand reads its parameters from flags, optionally merged over a
JSON ``--config`` file (flags win; unknown config keys are rejected), and
writes a versioned JSON artifact to ``--out`` or stdout.  The commands
that fit share one fit path, and every artifact but ``confset``'s (the
set's own :meth:`~scmest.inference.ConfidenceSet.to_json`) opens with one
header, ``schema_version`` (:data:`scmest.inference.SCHEMA_VERSION`) and
``command``.

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
one calibration entry point, :func:`scmest.inference.calibrated_radius`;
of ``--B``, ``--calib-reps`` and ``--c-k1-sq`` it accepts only the one its
``--calibration`` reads.
``oracle_mc`` calibrations (``confset``, and ``gof``'s critical rule)
replay the ``--process`` that drew the data; ``--data`` has none to
replay and is rejected for them.

Artifacts are strict JSON (RFC 8259): a failing certificate writes
``radius_bound`` null, and a value that is not finite is an error.

Exit codes: 0 success, 1 configuration, data or I/O error (a flag the
study lacks, a non-finite data value, a ``--null`` that is not a finite
vector of the model's dimension), 2 fit did not converge, 3 singular
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

    sub.add_parser("fit", parents=[common, source], help="fit by Newton's method, emit FitResult")

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
    p.add_argument("--c-k1-sq", dest="c_k1_sq", type=float, default=None, help="C K1^2")

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
    The seed, 0 when not given, must be a nonnegative integer.
    """
    from .errors import check_nonnegative_int

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
    check_nonnegative_int("seed", cfg["seed"])
    return cfg


class _ConfigError(Exception):
    pass


def _emit_json(payload: dict, out: str | None) -> None:
    # strict JSON: a NaN or infinity raises ValueError instead of printing
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
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
    data = generate(proc, int(cfg["n"]), cfg["seed"])
    kind = cfg.get("model") or loss_kind_for(proc)
    return model_for_data(kind, data.X), data


def _fit(cfg):
    """The fit of a command: its model on its data under its solver options."""
    from .estimate import fit_erm

    return fit_erm(*_load_inputs(cfg), _solver_opts(cfg))


def _emit(cfg, command: str, **fields) -> None:
    """Write a command's artifact: the one header, then its fields in order."""
    from .inference import SCHEMA_VERSION

    _emit_json({"schema_version": SCHEMA_VERSION, "command": command, **fields}, cfg.get("out"))


def cmd_fit(cfg) -> int:
    fit = _fit(cfg)
    cert = None
    if fit.certificate is not None:
        passes = bool(fit.certificate.passes)
        # a failing certificate bounds nothing: null, not an infinite radius
        bound = float(fit.certificate.radius_bound) if passes else None
        cert = {"passes": passes, "radius_bound": bound}
    _emit(
        cfg,
        "fit",
        model=fit.batch.model.kind,
        n=fit.aggregates_at_opt.n,
        d=int(fit.theta_n.size),
        theta_n=fit.theta_n.tolist(),
        objective_value=fit.aggregates_at_opt.L_n,
        newton_decrement=fit.newton_decrement,
        iterations=fit.iterations,
        converged=fit.converged,
        certificate=cert,
    )
    if not fit.converged:
        print("fit: did not converge within the iteration budget", file=sys.stderr)
        return 2
    return 0


# calibration -> the one calibrated_radius keyword (a confset flag) it reads
_CALIBRATION_FLAGS = {"bootstrap": "B", "oracle_mc": "calib_reps", "explicit_constant": "c_k1_sq"}


def cmd_confset(cfg) -> int:
    from .errors import ParseError
    from .inference import confidence_set

    calibration = cfg.get("calibration", "bootstrap")
    if calibration in _CALIBRATION_FLAGS:
        for key in _CALIBRATION_FLAGS.values():
            if cfg.get(key) is not None and key != _CALIBRATION_FLAGS[calibration]:
                flag = "--" + key.replace("_", "-")
                raise ParseError(f"--calibration {calibration} does not read {flag}")
    fit = _fit(cfg)
    kind = cfg.get("kind", "wald")
    delta = float(cfg.get("delta", 0.05))
    cs = confidence_set(
        fit,
        kind,
        delta,
        calibration,
        seed=cfg["seed"],
        **_given(cfg, c_k1_sq=float, calib_reps=int, B=int),
    )
    _emit_json(json.loads(cs.to_json()), cfg.get("out"))
    return 0


def cmd_effdim(cfg) -> int:
    from .inference import effective_dim_empirical

    fit = _fit(cfg)
    report = effective_dim_empirical(fit)
    _emit(
        cfg,
        "effdim",
        model=fit.batch.model.kind,
        n=fit.data.n,
        d=int(fit.theta_n.size),
        kind=report.kind,
        value=report.value,
    )
    return 0


def cmd_gof(cfg) -> int:
    from .errors import ParseError
    from .gof import run_test

    model, data = _load_inputs(cfg)
    test = cfg.get("test")
    if test is None:
        raise ParseError("--test is required (rao, lr, or wald)")
    if cfg.get("null") is None:
        raise ParseError("--null is required: JSON file holding the null parameter")
    with open(cfg["null"], encoding="utf-8") as fh:
        theta0 = json.load(fh)
    if isinstance(theta0, dict):
        theta0 = theta0.get("theta0")
    alpha = float(cfg.get("alpha", 0.05))
    critical_rule = cfg.get("critical_rule", "scaled_dim")
    report = run_test(
        test,
        model,
        data,
        theta0,
        alpha=alpha,
        critical_rule=critical_rule,
        critical=cfg.get("critical"),
        seed=cfg["seed"],
        opts=_solver_opts(cfg),
        **_given(cfg, calib_reps=int),
    )
    if test == "rao":
        print("gof: rao statistic evaluated at the null, no fit performed", file=sys.stderr)
    _emit(
        cfg,
        "gof",
        test=report.kind,
        statistic=report.statistic,
        critical=report.critical,
        reject=report.reject,
        alpha=alpha,
        critical_rule=critical_rule,
        n=report.n,
        d=report.d,
    )
    return 0


def cmd_bootstrap(cfg) -> int:
    from .bootstrap import BootstrapConfig, bootstrap_quantile

    kind = cfg.get("kind", "wald")
    delta = float(cfg.get("delta", 0.05))
    bcfg = BootstrapConfig(delta=delta, seed=cfg["seed"], **_given(cfg, B=int))
    fit = _fit(cfg)
    bq = bootstrap_quantile(fit.batch.model, fit.data, fit, bcfg, kind=kind)
    _emit(
        cfg,
        "bootstrap",
        kind=kind,
        delta=delta,
        B=bcfg.B,
        quantile=bq.quantile,
        n_failed=bq.n_failed,
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
