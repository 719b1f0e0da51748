"""Prepackaged studies: coverage table, effective-dimension error, set shapes."""

import math

import numpy as np
import pytest

from scmest.bootstrap import BootstrapConfig, bootstrap_quantile
from scmest.estimate import fit_erm
from scmest.errors import DomainError
from scmest.experiments import (
    ConfsetShapeExperiment,
    CoverageTableExperiment,
    EffDimErrorExperiment,
    run_confset_shape,
    run_coverage_table,
    run_effdim_error,
)
from scmest.losses import model_for_data
from scmest.simdata import Process, generate, phase_seed, write_table


class TestCoverageTable:
    config = CoverageTableExperiment(n=60, reps=4, B=60)

    def test_row_grid_and_determinism(self):
        table = run_coverage_table(self.config)
        assert len(table.rows) == 3 * 3 * 5
        assert {row.model for row in table.rows} == set(self.config.processes)
        assert run_coverage_table(self.config).rows == table.rows

    def test_unfittable_process_yields_nan_rows(self):
        # at n = 1 no replication can produce a nonsingular fit
        table = run_coverage_table(
            CoverageTableExperiment(n=1, reps=3, B=50, deltas=(0.9,))
        )
        assert len(table.rows) == 3 * 3 * 1
        for row in table.rows:
            assert math.isnan(row.coverage)
            assert row.reps == 0 and row.failures == 3


class TestCoverageConfig:
    def test_bootstrap_methods_need_replications(self):
        for methods in (("bootwald",), ("oracle", "bootlr")):
            with pytest.raises(DomainError, match="B must be positive"):
                CoverageTableExperiment(d=2, n=60, B=0, methods=methods)

    def test_oracle_alone_needs_no_bootstrap_replications(self):
        assert CoverageTableExperiment(d=2, n=60, B=0, methods=("oracle",)).B == 0


class TestEffDimError:
    config = EffDimErrorExperiment(
        models=("squared",), d_grid=(3,), n_grid=(500, 8000), reps=10
    )

    def test_error_shrinks_with_sample_size(self):
        rows = run_effdim_error(self.config)
        assert [row.n for row in rows] == [500, 8000]
        assert rows[0].mean_abs_err > rows[1].mean_abs_err
        for row in rows:
            assert row.model == "squared" and row.d == 3 and row.reps == 10
            assert row.mean_abs_err > 0 and row.stderr > 0

    def test_deterministic(self):
        assert run_effdim_error(self.config) == run_effdim_error(self.config)

    def test_csv_round_trip(self, tmp_path):
        rows = run_effdim_error(self.config)
        path = tmp_path / "effdim.csv"
        write_table(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "model,d,n,mean_abs_err,stderr,reps"
        fields = lines[2].split(",")
        assert fields[0] == "squared" and fields[1] == "3" and fields[2] == "500"
        assert float(fields[3]) == rows[0].mean_abs_err


class TestConfsetShape:
    config = ConfsetShapeExperiment(n=200, B=100, boundary_points=16)

    def test_boundary_lies_on_the_calibrated_ellipse(self):
        rows = run_confset_shape(self.config)
        assert len(rows) == 3 * 16
        labels = [row.sigma for row in rows[:: 16]]
        assert labels == ["(2 0; 0 1)", "(2 1; 1 1)", "(2 -1; -1 1)"]
        theta0 = np.asarray(self.config.theta0)
        for s_idx, label in enumerate(labels):
            # replay the study's deterministic seed phases to recover the
            # fit and radius, then check the quadratic form on the boundary
            cov = np.asarray(self.config.sigmas[s_idx], dtype=float)
            proc = Process(kind="logistic_wellspec", theta0=theta0, x_cov=cov)
            data = generate(proc, self.config.n, phase_seed(0, 200 + s_idx))
            model = model_for_data("logistic", data.X)
            fit = fit_erm(model, data)
            bq = bootstrap_quantile(
                model,
                data,
                fit,
                BootstrapConfig(
                    delta=self.config.delta, B=self.config.B, seed=phase_seed(0, 300 + s_idx)
                ),
                kind="wald",
            )
            H = fit.aggregates_at_opt.H_n
            for row in rows[s_idx * 16 : (s_idx + 1) * 16]:
                diff = np.array([row.x1, row.x2]) - fit.theta_n
                assert diff @ H @ diff == pytest.approx(bq.quantile, rel=1e-9)

    def test_deterministic(self):
        assert run_confset_shape(self.config) == run_confset_shape(self.config)

    @pytest.mark.parametrize(
        "bad",
        [{"boundary_points": 0}, {"boundary_points": -3}, {"n": 0}, {"B": 0},
         {"delta": 0.0}, {"delta": 1.0}],
    )
    def test_bad_config_fails_when_built(self, bad):
        with pytest.raises(DomainError):
            ConfsetShapeExperiment(**bad)

    def test_csv_format(self, tmp_path):
        rows = run_confset_shape(self.config)
        path = tmp_path / "shape.csv"
        write_table(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "sigma,t,x1,x2"
        first = lines[2].split(",")
        assert first[0] == "(2 0; 0 1)"
        assert float(first[1]) == rows[0].t
