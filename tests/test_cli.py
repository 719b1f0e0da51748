"""Command-line interface: config merging, exit codes, JSON/CSV artifacts."""

import json
import os

import numpy as np
import pytest
from scipy.stats import chi2

import scmest.cli as cli
import scmest.experiments as experiments
from scmest.bootstrap import bootstrap_fit, bootstrap_weights
from scmest.cli import main
from scmest.errors import DomainError, SingularHessian
from scmest.estimate import SolverOptions, fit_erm
from scmest.experiments import (
    COVERAGE_TARGETS,
    CoverageRow,
    CoverageTable,
    CoverageTableExperiment,
    EffDimErrorExperiment,
    run_effdim_error,
)
from scmest.gof import PowerCurveConfig, power_curve, wald_statistic
from scmest.inference import (
    ConfidenceSet,
    calibrated_radius,
    confidence_set,
    effective_dim_empirical,
)
from scmest.losses import LOSS_KINDS, model_for_data
from scmest.simdata import (
    PROCESS_KINDS,
    Dataset,
    Process,
    generate,
    loss_kind_for,
    theta0_equispaced,
    write_csv,
    write_table,
)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def _strict_json(text):
    """Parse a CLI artifact as strict JSON: NaN and Infinity raise."""
    return json.loads(text, parse_constant=_reject_constant)


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    return code, _strict_json(out), err


def _assert_one_error_line(code, out, err):
    assert code == 1 and out == ""
    assert [line for line in err.splitlines() if line.startswith("scmest: error:")] == [
        "scmest: error: replications must be positive, got 0"
    ]
    assert "Traceback" not in err


@pytest.fixture
def degenerate_csv(tmp_path):
    # second feature identically zero: the Hessian is singular at step one
    X = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [-1.5, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    path = tmp_path / "degenerate.csv"
    write_csv(Dataset(X=X, y=y), path)
    return str(path)


class TestKindMirrors:
    def test_loss_kinds_in_sync(self):
        # the CLI offers exactly the kinds model_for_data can build from data
        X = np.ones((2, 3))
        buildable = []
        for kind in LOSS_KINDS:
            try:
                model_for_data(kind, X)
            except DomainError:
                continue
            buildable.append(kind)
        assert cli._LOSS_KINDS == tuple(buildable)
        assert "expfam_glm" not in cli._LOSS_KINDS

    def test_process_kinds_in_sync(self):
        assert cli._PROCESS_KINDS == PROCESS_KINDS

    def test_experiments_in_sync(self):
        assert cli._EXPERIMENTS == tuple(cli._studies())


class TestFitCommand:
    def test_quadratic_fit_payload(self, capsys):
        code, doc, _ = _run_json(
            capsys, ["fit", "--process", "linear_wellspec", "--n", "80", "--d", "3"]
        )
        assert code == 0
        assert doc["schema_version"] == "1"
        assert doc["command"] == "fit"
        assert doc["model"] == "squared"
        assert doc["n"] == 80 and doc["d"] == 3
        assert len(doc["theta_n"]) == 3
        assert doc["iterations"] == 1
        assert doc["converged"] is True
        assert isinstance(doc["certificate"]["passes"], bool)

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "fit.json"
        code, stdout, _ = _run(
            capsys,
            ["fit", "--process", "linear_wellspec", "--n", "50", "--d", "2", "--out", str(out)],
        )
        assert code == 0
        assert stdout == ""
        assert _strict_json(out.read_text())["command"] == "fit"

    def test_iteration_starved_fit_exits_2_with_payload(self, capsys):
        code, out, err = _run(
            capsys,
            ["fit", "--process", "logistic_wellspec", "--n", "200", "--d", "3", "--max-iter", "1"],
        )
        assert code == 2
        doc = _strict_json(out)
        assert doc["converged"] is False and doc["iterations"] == 1
        assert "did not converge" in err

    def test_failing_certificate_writes_null_bound(self, capsys):
        # the bound of a failing certificate is infinite; strict JSON has null
        code, doc, _ = _run_json(
            capsys,
            ["fit", "--process", "logistic_wellspec", "--d", "5", "--n", "100", "--max-iter", "1"],
        )
        assert code == 2
        assert doc["certificate"] == {"passes": False, "radius_bound": None}

    def test_singular_hessian_exits_3(self, capsys, degenerate_csv):
        code, _, err = _run(capsys, ["fit", "--data", degenerate_csv, "--model", "logistic"])
        assert code == 3
        assert "singular Hessian" in err

    def test_missing_data_file_exits_1(self, capsys):
        code, _, err = _run(capsys, ["fit", "--data", "/no/such/file.csv", "--model", "squared"])
        assert code == 1
        assert "/no/such/file.csv" in err

    def test_data_requires_model(self, capsys, degenerate_csv):
        code, _, err = _run(capsys, ["fit", "--data", degenerate_csv])
        assert code == 1
        assert "--model" in err

    def test_data_and_process_conflict(self, capsys, degenerate_csv):
        code, _, err = _run(
            capsys,
            ["fit", "--data", degenerate_csv, "--model", "squared", "--process", "linear_wellspec"],
        )
        assert code == 1

    def test_fit_without_data_or_process_exits_1(self, capsys):
        code, out, err = _run(capsys, ["fit", "--model", "squared"])
        assert code == 1 and out == ""
        assert "provide a dataset via --data or a process via --process" in err

    def test_process_requires_n(self, capsys):
        code, _, err = _run(capsys, ["fit", "--process", "linear_wellspec"])
        assert code == 1
        assert "--n" in err

    @pytest.mark.parametrize(
        "model, text",
        [
            ("poisson", "x1,x2,y\n1,2,3\n0.5,nan,1\n"),
            ("squared", "x1,x2,y\n1,2,3\n0.5,1,inf\n2,1,1\n"),
        ],
    )
    def test_non_finite_data_exits_1(self, capsys, tmp_path, model, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code, _, err = _run(capsys, ["fit", "--data", str(path), "--model", model])
        assert code == 1
        assert "non-finite" in err and "row 3" in err

    def test_infinite_tolerance_exits_1(self, capsys):
        # an infinite tolerance called the start point converged
        code, out, err = _run(
            capsys,
            [
                "fit", "--model", "logistic", "--process", "logistic_wellspec",
                "--d", "3", "--n", "200", "--tol", "inf",
            ],
        )
        assert code == 1 and out == ""
        assert "tol must be finite and positive" in err

    def test_fit_matches_library(self, capsys):
        code, doc, _ = _run_json(
            capsys,
            ["fit", "--process", "linear_wellspec", "--n", "60", "--d", "2", "--seed", "5"],
        )
        proc = Process(kind="linear_wellspec", theta0=theta0_equispaced(2))
        data = generate(proc, 60, 5)
        fit = fit_erm(model_for_data("squared", data.X), data)
        assert doc["theta_n"] == fit.theta_n.tolist()


class TestConfigMerging:
    def test_config_file_supplies_parameters(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"process": "linear_wellspec", "n": 60, "d": 2}))
        code, doc, _ = _run_json(capsys, ["fit", "--config", str(cfg)])
        assert code == 0 and doc["n"] == 60 and doc["d"] == 2

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"process": "linear_wellspec", "n": 60, "d": 2}))
        code, doc, _ = _run_json(capsys, ["fit", "--config", str(cfg), "--n", "40"])
        assert code == 0 and doc["n"] == 40

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"process": "linear_wellspec", "n": 60, "banana": 1}))
        code, _, err = _run(capsys, ["fit", "--config", str(cfg)])
        assert code == 1
        assert "banana" in err and "fit" in err

    def test_config_must_be_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        code, _, err = _run(capsys, ["fit", "--config", str(cfg)])
        assert code == 1

    def test_invalid_json_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        code, _, err = _run(capsys, ["fit", "--config", str(cfg)])
        assert code == 1
        assert "not valid JSON" in err

    def test_process_dict_spec(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"process": {"kind": "linear_wellspec", "theta0": [0.1, 0.2]}, "n": 50}
            )
        )
        code, doc, _ = _run_json(capsys, ["fit", "--config", str(cfg)])
        assert code == 0 and doc["d"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--process", "linear_wellspec", "--d", "2", "--n", "50"],
            ["confset", "--process", "linear_wellspec", "--d", "2", "--n", "50"],
            ["gof", "--process", "linear_wellspec", "--d", "2", "--n", "50", "--test", "rao"],
            ["gof", "--model", "squared", "--test", "rao", "--critical-rule", "scaled_dim"],
            ["experiment", "coverage_table"],
        ],
        ids=["fit", "confset", "gof", "gof-data", "experiment"],
    )
    def test_seed_must_be_a_nonnegative_integer(self, capsys, tmp_path, argv):
        # a negative flag or a fractional config seed names the seed, exits 1
        # and runs nothing; a config seed of 1.5 was truncated to 1
        null = tmp_path / "null.json"
        null.write_text(json.dumps([0.0, 0.5]))
        data = tmp_path / "data.csv"
        write_csv(generate(Process(kind="linear_wellspec", theta0=np.ones(2)), 20, 0), data)
        if argv[0] == "gof":
            argv = argv + ["--null", str(null)]
        if "--model" in argv:
            argv = argv + ["--data", str(data)]
        out = tmp_path / "table.csv"
        if argv[0] == "experiment":
            argv = argv + ["--out", str(out)]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1.5}))
        for extra, value in ((["--seed", "-1"], "-1"), (["--config", str(cfg)], "1.5")):
            code, stdout, err = _run(capsys, argv + extra)
            assert code == 1 and stdout == ""
            assert f"scmest: error: seed must be a nonnegative integer, got {value}" in err
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main(["fit", "--bogus"])
        assert info.value.code == 1

    def test_missing_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1

    def test_non_numeric_theta0_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fit", "--process", "linear_wellspec", "--n", "50", "--theta0", "1,x"])
        assert info.value.code == 1
        assert "expected comma-separated floats" in capsys.readouterr().err

    def test_bad_choice_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main(["fit", "--model", "quantum"])
        assert info.value.code == 1

    def test_expfam_glm_is_not_a_model_choice(self, capsys):
        # expfam_glm needs a user feature map, so no flag can build it
        with pytest.raises(SystemExit) as info:
            main(["fit", "--process", "logistic_wellspec", "--n", "20", "--model", "expfam_glm"])
        assert info.value.code == 1
        assert "invalid choice: 'expfam_glm'" in capsys.readouterr().err

    def test_threads_must_be_positive(self, capsys):
        code, _, err = _run(
            capsys, ["fit", "--process", "linear_wellspec", "--n", "10", "--threads", "0"]
        )
        assert code == 1
        assert "--threads" in err

    def test_threads_exported_to_environment(self, capsys, monkeypatch):
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        code, _, _ = _run(
            capsys,
            ["fit", "--process", "linear_wellspec", "--n", "30", "--d", "2", "--threads", "2"],
        )
        assert code == 0
        for var in cli._THREAD_VARS:
            assert os.environ[var] == "2"


class TestEffdimCommand:
    def test_payload(self, capsys):
        code, doc, _ = _run_json(
            capsys, ["effdim", "--process", "logistic_wellspec", "--n", "2000", "--d", "5"]
        )
        assert code == 0
        assert doc["command"] == "effdim"
        assert doc["kind"] == "empirical"
        assert 3.0 < doc["value"] < 7.0

    def test_unconverged_fit_exits_2(self, capsys):
        # this logistic fit, on separable data, stops at its 15-step budget,
        # as `scmest fit` reports; every command that needs a converged fit
        # refuses it
        argv = [
            "--model", "logistic", "--process", "logistic_wellspec",
            "--d", "5", "--n", "30", "--seed", "108", "--max-iter", "15",
        ]
        assert _run(capsys, ["fit"] + argv)[0] == 2
        for command in (
            ["effdim"],
            ["bootstrap"],
            ["confset", "--calibration", "bootstrap"],
            ["confset", "--calibration", "oracle_mc"],
            ["confset", "--calibration", "explicit_constant"],
        ):
            code, out, err = _run(capsys, command + argv)
            assert code == 2, command
            assert out == ""
            assert "converged" in err


class TestGofCommand:
    @pytest.fixture
    def null_file(self, tmp_path):
        path = tmp_path / "null.json"
        path.write_text(json.dumps([0.0, 0.5, 1.0]))
        return str(path)

    def test_rao_logs_that_no_fit_happens(self, capsys, null_file):
        code, doc, err = _run_json(
            capsys,
            [
                "gof", "--process", "linear_wellspec", "--n", "100", "--d", "3",
                "--test", "rao", "--null", null_file,
            ],
        )
        assert code == 0
        assert "no fit performed" in err
        assert doc["test"] == "rao"
        assert isinstance(doc["reject"], bool)
        assert doc["critical"] == pytest.approx(float(chi2.ppf(0.95, 3)) / 100, rel=1e-12)

    def test_null_dict_form(self, capsys, tmp_path):
        path = tmp_path / "null.json"
        path.write_text(json.dumps({"theta0": [0.0, 1.0]}))
        code, doc, _ = _run_json(
            capsys,
            [
                "gof", "--process", "linear_wellspec", "--n", "100", "--d", "2",
                "--test", "wald", "--null", str(path),
            ],
        )
        assert code == 0 and doc["d"] == 2

    def test_requires_test_and_null(self, capsys, null_file):
        code, _, err = _run(
            capsys, ["gof", "--process", "linear_wellspec", "--n", "100", "--null", null_file]
        )
        assert code == 1 and "--test" in err
        code, _, err = _run(
            capsys, ["gof", "--process", "linear_wellspec", "--n", "100", "--test", "rao"]
        )
        assert code == 1 and "--null" in err

    def test_explicit_rule_needs_critical(self, capsys, null_file):
        code, _, err = _run(
            capsys,
            [
                "gof", "--process", "linear_wellspec", "--n", "100", "--d", "3",
                "--test", "wald", "--null", null_file, "--critical-rule", "explicit",
            ],
        )
        assert code == 1

    def test_oracle_rule_calibrates_under_the_null(self, capsys, tmp_path):
        # --theta0 sets the process that draws the data and --null the tested
        # parameter; the oracle critical value depends on the null alone
        null = tmp_path / "null.json"
        null.write_text(json.dumps([0.0, 0.0, 0.0]))
        critical = {}
        for theta0 in ("1.5,1.5,1.5", "0,0,0"):
            code, doc, _ = _run_json(
                capsys,
                [
                    "gof", "--model", "logistic", "--process", "logistic_wellspec",
                    "--d", "3", "--n", "300", "--theta0", theta0, "--test", "rao",
                    "--null", str(null), "--critical-rule", "oracle_mc",
                    "--calib-reps", "100", "--seed", "0",
                ],
            )
            assert code == 0
            critical[theta0] = doc["critical"]
        assert critical["1.5,1.5,1.5"] == critical["0,0,0"]

    @pytest.mark.parametrize("test", ["rao", "lr", "wald"])
    @pytest.mark.parametrize("null", ["[0.5]", "[NaN, 0.5, 1]"])
    def test_bad_null_exits_1(self, capsys, tmp_path, test, null):
        # json.load accepts NaN; a Wald run printed "statistic": NaN, which
        # is not JSON, or the test of a 1-vector null at d = 1
        path = tmp_path / "null.json"
        path.write_text(null)
        code, out, err = _run(
            capsys,
            [
                "gof", "--process", "logistic_wellspec", "--d", "3", "--n", "200",
                "--critical-rule", "scaled_dim", "--test", test, "--null", str(path),
            ],
        )
        assert code == 1 and out == ""
        assert "scmest: error: theta" in err and "Traceback" not in err
        assert "no fit performed" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--critical-rule", "explicit", "--critical", "nan"],
            ["--critical-rule", "explicit", "--critical", "inf"],
        ],
    )
    def test_bad_critical_value_exits_1(self, capsys, null_file, flags):
        # --critical nan would print "critical": NaN, which is not JSON
        code, out, err = _run(
            capsys,
            [
                "gof", "--process", "linear_wellspec", "--n", "100", "--d", "3",
                "--test", "rao", "--null", null_file, *flags,
            ],
        )
        assert code == 1 and out == ""
        assert "scmest: error:" in err and "Traceback" not in err
        assert "no fit performed" not in err

    def test_oracle_rule_without_replications_exits_1(self, capsys, tmp_path):
        null = tmp_path / "null.json"
        null.write_text(json.dumps(theta0_equispaced(5).tolist()))
        code, out, err = _run(
            capsys,
            [
                "gof", "--process", "logistic_wellspec", "--n", "200", "--d", "5",
                "--test", "rao", "--null", str(null), "--critical-rule", "oracle_mc",
                "--calib-reps", "0",
            ],
        )
        _assert_one_error_line(code, out, err)


class TestBootstrapCommand:
    ARGS = [
        "bootstrap", "--process", "logistic_wellspec", "--n", "150", "--d", "2",
        "--B", "120", "--delta", "0.1",
    ]

    def test_payload_and_determinism(self, capsys):
        code, doc, _ = _run_json(capsys, self.ARGS)
        assert code == 0
        assert doc["command"] == "bootstrap"
        assert doc["kind"] == "wald" and doc["delta"] == 0.1 and doc["B"] == 120
        assert doc["quantile"] > 0 and doc["n_failed"] == 0
        code2, doc2, _ = _run_json(capsys, self.ARGS)
        assert doc2 == doc

    def test_seed_must_be_a_nonnegative_integer(self, capsys, tmp_path):
        code, out, err = _run(capsys, self.ARGS + ["--seed", "-1"])
        assert code == 1 and out == ""
        assert "seed must be a nonnegative integer, got -1" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1.5}))
        code, out, err = _run(capsys, self.ARGS + ["--config", str(cfg)])
        assert code == 1 and out == ""
        assert "seed must be a nonnegative integer, got 1.5" in err

    def test_refits_use_the_solver_options(self, capsys):
        # the quantile of refits run under --tol/--max-iter, not the defaults
        code, doc, _ = _run_json(
            capsys,
            [
                "bootstrap", "--process", "logistic_wellspec", "--n", "100", "--d", "5",
                "--B", "300", "--seed", "1", "--tol", "1e-2", "--max-iter", "40",
            ],
        )
        assert code == 0
        opts = SolverOptions(tol=1e-2, max_iter=40)
        data = generate(Process(kind="logistic_wellspec", theta0=theta0_equispaced(5)), 100, 1)
        model = model_for_data("logistic", data.X)
        fit = fit_erm(model, data, opts)
        stats = []
        for b in range(300):
            try:
                refit = bootstrap_fit(model, data, bootstrap_weights(1, b, data.n), opts)
            except SingularHessian:
                continue
            if refit.converged:
                stats.append(wald_statistic(refit, fit.theta_n))
        assert doc["n_failed"] == 300 - len(stats)
        assert doc["quantile"] == pytest.approx(float(np.quantile(stats, 0.95)), rel=1e-12)


class TestEveryProcess:
    """fit and confset on each process: strict JSON carrying the library's numbers."""

    _ARGS = ["--n", "150", "--d", "4", "--seed", "2"]

    @staticmethod
    def _library_fit(process_kind):
        proc = Process(kind=process_kind, theta0=theta0_equispaced(4))
        data = generate(proc, 150, 2)
        return fit_erm(model_for_data(loss_kind_for(proc), data.X), data)

    @pytest.mark.parametrize("process_kind", PROCESS_KINDS)
    def test_fit_matches_library(self, capsys, process_kind):
        code, doc, _ = _run_json(capsys, ["fit", "--process", process_kind, *self._ARGS])
        fit = self._library_fit(process_kind)
        assert code == 0 and fit.converged
        assert doc["model"] == fit.batch.model.kind
        assert doc["theta_n"] == fit.theta_n.tolist()
        assert doc["objective_value"] == fit.aggregates_at_opt.L_n
        assert doc["newton_decrement"] == fit.newton_decrement
        assert doc["iterations"] == fit.iterations
        cert = fit.certificate
        assert doc["certificate"] == {
            "passes": cert.passes,
            "radius_bound": cert.radius_bound if cert.passes else None,
        }

    @pytest.mark.parametrize("process_kind", PROCESS_KINDS)
    def test_explicit_constant_radius_matches_library(self, capsys, process_kind):
        code, doc, _ = _run_json(
            capsys,
            [
                "confset", "--process", process_kind, *self._ARGS,
                "--calibration", "explicit_constant", "--c-k1-sq", "2",
            ],
        )
        fit = self._library_fit(process_kind)
        assert code == 0
        assert doc["center"] == fit.theta_n.tolist()
        assert doc["shape"] == fit.aggregates_at_opt.H_n.tolist()
        assert doc["sq_radius"] == calibrated_radius(
            fit, "wald", 0.05, "explicit_constant", c_k1_sq=2.0
        )

    @pytest.mark.parametrize("set_kind", ["wald", "lr"])
    @pytest.mark.parametrize("process_kind", PROCESS_KINDS)
    def test_bootstrap_set_matches_library(self, capsys, process_kind, set_kind):
        code, doc, _ = _run_json(
            capsys,
            [
                "confset", "--process", process_kind, *self._ARGS,
                "--kind", set_kind, "--calibration", "bootstrap", "--B", "100",
            ],
        )
        want = confidence_set(
            self._library_fit(process_kind), set_kind, 0.05, "bootstrap", seed=2, B=100
        )
        assert code == 0
        assert doc["kind"] == set_kind and doc["calibration"] == "bootstrap"
        assert doc["center"] == want.center.tolist()
        assert doc["sq_radius"] == want.sq_radius > 0.0


class TestConfsetCommand:
    def test_bootstrap_calibration_round_trips(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "confset", "--process", "logistic_wellspec", "--n", "150", "--d", "2",
                "--calibration", "bootstrap", "--B", "120",
            ],
        )
        assert code == 0
        cs = ConfidenceSet.from_json(out)
        assert cs.kind == "wald" and cs.calibration == "bootstrap"
        assert cs.center.size == 2 and cs.shape.shape == (2, 2)
        assert cs.sq_radius > 0

    def test_explicit_constant_leading_term(self, capsys):
        code, doc, _ = _run_json(
            capsys,
            [
                "confset", "--process", "linear_wellspec", "--n", "90", "--d", "2",
                "--seed", "3", "--calibration", "explicit_constant",
            ],
        )
        assert code == 0
        proc = Process(kind="linear_wellspec", theta0=theta0_equispaced(2))
        data = generate(proc, 90, 3)
        fit = fit_erm(model_for_data("squared", data.X), data)
        d_n = effective_dim_empirical(fit).value
        assert doc["sq_radius"] == pytest.approx(24.0 * d_n / 90, rel=1e-12)

    def test_vacuous_explicit_radius_exits_1(self, capsys):
        # e^(r_n R*) overflows: the radius bounds nothing, and no Infinity is printed
        code, out, err = _run(
            capsys,
            [
                "confset", "--process", "logistic_wellspec", "--d", "5", "--n", "100",
                "--calibration", "explicit_constant", "--c-k1-sq", "1e5",
            ],
        )
        assert code == 1 and out == ""
        assert err.startswith("scmest: error: explicit_constant radius overflows")

    def test_explicit_constant_takes_only_c_k1_sq(self, capsys):
        # the radius reads the constants only as C K1^2; the flags of the
        # constants it never reads are gone
        argv = [
            "confset", "--process", "linear_wellspec", "--n", "90", "--d", "2",
            "--seed", "3", "--calibration", "explicit_constant",
        ]
        proc = Process(kind="linear_wellspec", theta0=theta0_equispaced(2))
        data = generate(proc, 90, 3)
        fit = fit_erm(model_for_data("squared", data.X), data)
        code, doc, _ = _run_json(capsys, argv + ["--c-k1-sq", "2"])
        assert code == 0
        assert doc["sq_radius"] == calibrated_radius(
            fit, "wald", 0.05, "explicit_constant", c_k1_sq=2.0
        )
        code, out, err = _run(capsys, argv + ["--c-k1-sq", "-1"])
        assert code == 1 and out == "" and "c_k1_sq" in err
        for flag in ("--k1", "--k2", "--sigma-h", "--c-abs"):
            with pytest.raises(SystemExit) as info:
                main(argv + [flag, "1"])
            assert info.value.code == 1

    @pytest.mark.parametrize(
        "calibration, flag",
        [
            ("bootstrap", "--c-k1-sq"),
            ("oracle_mc", "--c-k1-sq"),
            ("oracle_mc", "--B"),
            ("bootstrap", "--calib-reps"),
            ("explicit_constant", "--B"),
            ("explicit_constant", "--calib-reps"),
        ],
    )
    def test_flag_the_calibration_does_not_read_exits_1(self, capsys, calibration, flag):
        code, out, err = _run(
            capsys,
            [
                "confset", "--process", "linear_wellspec", "--n", "100", "--d", "2",
                "--calibration", calibration, flag, "5",
            ],
        )
        assert code == 1 and out == ""
        assert f"--calibration {calibration} does not read {flag}" in err

    def test_explicit_constant_is_wald_only(self, capsys):
        code, _, err = _run(
            capsys,
            [
                "confset", "--process", "linear_wellspec", "--n", "90", "--d", "2",
                "--kind", "lr", "--calibration", "explicit_constant",
            ],
        )
        assert code == 1

    def test_oracle_replications_use_the_solver_options(self, capsys, monkeypatch):
        seen = {}

        def oracle_radius(kind, process, n, delta, reps=1000, seed=0, opts=None):
            seen["opts"] = opts
            return 0.5

        monkeypatch.setattr("scmest.inference.oracle_radius", oracle_radius)
        code, _, _ = _run(
            capsys,
            [
                "confset", "--process", "linear_wellspec", "--n", "50", "--d", "2",
                "--calibration", "oracle_mc", "--tol", "1e-8", "--max-iter", "7",
            ],
        )
        assert code == 0
        assert seen["opts"] == SolverOptions(tol=1e-8, max_iter=7)

    def test_oracle_without_replications_exits_1(self, capsys):
        code, out, err = _run(
            capsys,
            [
                "confset", "--process", "logistic_wellspec", "--n", "200", "--d", "5",
                "--calibration", "oracle_mc", "--calib-reps", "0",
            ],
        )
        _assert_one_error_line(code, out, err)

    def test_oracle_needs_process(self, capsys, tmp_path):
        proc = Process(kind="linear_wellspec", theta0=theta0_equispaced(2))
        data = generate(proc, 50, 0)
        path = tmp_path / "data.csv"
        write_csv(data, path)
        code, _, err = _run(
            capsys,
            [
                "confset", "--data", str(path), "--model", "squared",
                "--calibration", "oracle_mc",
            ],
        )
        assert code == 1
        assert "process" in err


class TestExperimentCommand:
    @staticmethod
    def _config(tmp_path, **fields):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(fields))
        return str(path)

    def test_coverage_table_csv(self, capsys, tmp_path):
        out = tmp_path / "cov.csv"
        code, _, err = _run(
            capsys,
            [
                "experiment", "coverage_table", "--reps", "3", "--B", "100",
                "--check", "--out", str(out),
            ],
        )
        # at 3 replications the oracle cell (target 0.957) cannot lie
        # within 0.03, so --check fails, after the table is written
        assert code == 1
        assert "[FAIL] linear_wellspec/oracle@0.95" in err
        assert err.count("[PASS]") + err.count("[FAIL]") == len(COVERAGE_TARGETS)
        assert "wrote" in err and str(out) in err
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        meta = {ln.split("=")[0][2:] for ln in lines[1:6]}
        assert meta == {"B", "d", "n", "reps", "seed"}
        assert lines[6] == "model,method,delta,coverage,stderr,reps,failures"
        assert len(lines) == 7 + 3 * 3 * 5  # processes x methods x levels

    def test_confset_shape_csv(self, capsys, tmp_path):
        out = tmp_path / "shape.csv"
        code, _, _ = _run(
            capsys,
            ["experiment", "confset_shape", "--n", "200", "--B", "100", "--out", str(out)],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "sigma,t,x1,x2"
        assert len(lines) == 2 + 3 * 128  # three designs x boundary points

    def test_check_passes_on_target_coverage(self, capsys, tmp_path, monkeypatch):
        seen = {}

        def run_coverage_table(config):
            seen["config"] = config
            return CoverageTable(
                rows=tuple(
                    CoverageRow(model, method, delta, target, 0.0, config.reps, 0)
                    for model, method, delta, target in COVERAGE_TARGETS
                )
            )

        monkeypatch.setattr("scmest.experiments.run_coverage_table", run_coverage_table)
        cfg = self._config(tmp_path, deltas=[0.95, 0.75])
        out = tmp_path / "cov.csv"
        code, _, err = _run(
            capsys,
            ["experiment", "coverage_table", "--config", cfg, "--check", "--out", str(out)],
        )
        assert code == 0
        assert err.count("[PASS]") == len(COVERAGE_TARGETS) and "[FAIL]" not in err
        assert seen["config"] == CoverageTableExperiment(deltas=(0.95, 0.75))

    def test_effdim_grid_from_config(self, capsys, tmp_path):
        cfg = self._config(tmp_path, d_grid=[3], n_grid=[200, 400])
        out, ref = tmp_path / "effdim.csv", tmp_path / "ref.csv"
        code, _, _ = _run(
            capsys,
            ["experiment", "effdim_error", "--config", cfg, "--reps", "3", "--out", str(out)],
        )
        assert code == 0
        config = EffDimErrorExperiment(d_grid=(3,), n_grid=(200, 400), reps=3)
        write_table(run_effdim_error(config), ref)
        assert out.read_text() == ref.read_text()

    def test_power_curves_csv_matches_library(self, capsys, tmp_path):
        cfg = self._config(tmp_path, n_grid=[100], calib_reps=5)
        out, ref = tmp_path / "power.csv", tmp_path / "ref.csv"
        code, _, _ = _run(
            capsys,
            ["experiment", "power_curves", "--config", cfg, "--reps", "5", "--out", str(out)],
        )
        assert code == 0
        theta0 = theta0_equispaced(5)
        direction = np.full(5, 1.0 / np.sqrt(5))
        config = PowerCurveConfig(
            process=Process(kind="logistic_wellspec", theta0=theta0),
            alternatives=tuple(theta0 + dist * direction for dist in (0.25, 0.5, 1.0)),
            n_grid=(100,),
            reps=5,
            calib_reps=5,
        )
        write_table(power_curve(config).rows, ref)
        assert out.read_text() == ref.read_text()

    def test_power_curves_empty_sample_exits_1(self, capsys, tmp_path):
        cfg = self._config(tmp_path, n_grid=[0], calib_reps=5)
        out = tmp_path / "power.csv"
        code, stdout, err = _run(
            capsys, ["experiment", "power_curves", "--config", cfg, "--out", str(out)]
        )
        assert code == 1 and stdout == ""
        assert [line for line in err.splitlines() if line.startswith("scmest: error:")] == [
            "scmest: error: n_grid entries must be positive, got (0,)"
        ]
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("reps", 4.5, "reps must be an integer, got 4.5"),
            ("calib_reps", 2.0, "calib_reps must be an integer, got 2.0"),
            ("n_grid", [100, 50.5], "n_grid entry must be an integer, got 50.5"),
        ],
    )
    def test_power_curves_non_integer_count_exits_1(
        self, capsys, tmp_path, monkeypatch, field, value, message
    ):
        # the config fails when it is built, before the calibration fits anything
        def engine(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr("scmest.estimate._newton_engine", engine)
        cfg = self._config(tmp_path, **{field: value})
        out = tmp_path / "power.csv"
        code, stdout, err = _run(
            capsys, ["experiment", "power_curves", "--config", cfg, "--out", str(out)]
        )
        assert code == 1 and stdout == ""
        assert [line for line in err.splitlines() if line.startswith("scmest:")] == [
            f"scmest: error: {message}"
        ]
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("points", [0, -3])
    def test_confset_shape_without_boundary_points_exits_1(
        self, capsys, tmp_path, monkeypatch, points
    ):
        # the config fails when it is built, before any fit or bootstrap runs
        def run_confset_shape(config):
            raise AssertionError("the study ran")

        monkeypatch.setattr("scmest.experiments.run_confset_shape", run_confset_shape)
        cfg = self._config(tmp_path, boundary_points=points)
        out = tmp_path / "shape.csv"
        code, stdout, err = _run(
            capsys, ["experiment", "confset_shape", "--config", cfg, "--out", str(out)]
        )
        assert code == 1 and stdout == ""
        assert f"scmest: error: boundary_points must be positive, got {points}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, field",
        [
            ("coverage_table", "deltas"),
            ("effdim_error", "d_grid"),
            ("confset_shape", "sigmas"),
            ("power_curves", "dists"),
        ],
    )
    def test_empty_grid_exits_1(self, capsys, tmp_path, name, field):
        cfg = self._config(tmp_path, **{field: []})
        out = tmp_path / "table.csv"
        code, stdout, err = _run(capsys, ["experiment", name, "--config", cfg, "--out", str(out)])
        assert code == 1 and stdout == ""
        assert "nonempty" in err and "Traceback" not in err
        assert not out.exists()

    def test_config_key_of_another_study_rejected(self, capsys, tmp_path):
        cfg = self._config(tmp_path, d_grid=[3], boundary_points=8)
        out = tmp_path / "effdim.csv"
        code, _, err = _run(
            capsys, ["experiment", "effdim_error", "--config", cfg, "--out", str(out)]
        )
        assert code == 1
        assert "boundary_points" in err and "d_grid" not in err
        assert not out.exists()

    def test_effdim_unknown_model_exits_1(self, capsys, tmp_path):
        cfg = self._config(tmp_path, models=["poisson"])
        out = tmp_path / "effdim.csv"
        code, _, err = _run(
            capsys, ["experiment", "effdim_error", "--config", cfg, "--out", str(out)]
        )
        assert code == 1
        assert "'poisson'" in err and "['logistic', 'squared']" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [{"d_grid": [0]}, {"d_grid": [3], "n_grid": [2000, 0]}])
    def test_effdim_nonpositive_grid_exits_1_before_any_row(
        self, capsys, tmp_path, monkeypatch, grid
    ):
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(experiments, "replicate", no_replication)
        cfg = self._config(tmp_path, **grid)
        out = tmp_path / "effdim.csv"
        code, stdout, err = _run(
            capsys, ["experiment", "effdim_error", "--config", cfg, "--out", str(out)]
        )
        assert code == 1 and stdout == ""
        assert "entries must be positive" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_effdim_single_replication_exits_1(self, capsys, tmp_path):
        cfg = self._config(tmp_path, d_grid=[3], n_grid=[200])
        out = tmp_path / "effdim.csv"
        code, _, err = _run(
            capsys,
            ["experiment", "effdim_error", "--config", cfg, "--reps", "1", "--out", str(out)],
        )
        assert code == 1
        assert "reps >= 2" in err
        assert not out.exists()

    def test_coverage_without_bootstrap_replications_exits_1(self, capsys, tmp_path):
        out = tmp_path / "cov.csv"
        code, _, err = _run(
            capsys,
            [
                "experiment", "coverage_table", "--reps", "2", "--B", "0", "--n", "60",
                "--out", str(out),
            ],
        )
        assert code == 1
        assert "B must be positive" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["effdim_error", "--n", "7"],
            ["confset_shape", "--reps", "3"],
            ["effdim_error", "--check"],
        ],
    )
    def test_flag_the_study_lacks_exits_1(self, capsys, tmp_path, argv):
        out = tmp_path / "table.csv"
        code, _, err = _run(capsys, ["experiment", *argv, "--out", str(out)])
        assert code == 1
        assert argv[1] in err
        assert not out.exists()

    def test_unknown_experiment_name(self):
        with pytest.raises(SystemExit) as info:
            main(["experiment", "pareto_front"])
        assert info.value.code == 1
