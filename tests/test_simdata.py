"""Synthetic processes: determinism, distributional sanity, CSV round trips."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scmest.errors import (
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    ParseError,
    TooManyFailures,
)
from scmest.estimate import fit_erm
from scmest.gof import wald_statistic
from scmest.simdata import (
    PROCESS_KINDS,
    Dataset,
    Process,
    generate,
    loss_kind_for,
    read_csv,
    replicate,
    theta0_equispaced,
    write_csv,
)

# logistic at d = 5, n = 30: the fits of seeds 108 and 129 stop at max_iter
STALLING = Process(kind="logistic_wellspec", theta0=theta0_equispaced(5))
STALLED_SEEDS = (108, 129)


def _proc(kind, d=4):
    return Process(kind=kind, theta0=theta0_equispaced(d))


class TestProcessValidation:
    def test_kind_checked(self):
        with pytest.raises(DomainError):
            Process(kind="nonsense", theta0=np.ones(2))

    def test_scorematch_needs_even_dim(self):
        with pytest.raises(DomainError):
            Process(kind="gaussian_expfam_scorematch", theta0=np.ones(3))

    def test_scorematch_needs_positive_precision_block(self):
        with pytest.raises(DomainError):
            Process(
                kind="gaussian_expfam_scorematch",
                theta0=np.array([1.0, 1.0, 0.5, -0.5]),
            )

    def test_x_cov_must_be_spd(self):
        with pytest.raises(DomainError):
            Process(
                kind="linear_wellspec",
                theta0=np.ones(2),
                x_cov=np.array([[1.0, 2.0], [2.0, 1.0]]),
            )
        with pytest.raises(DomainError):
            Process(
                kind="linear_wellspec",
                theta0=np.ones(2),
                x_cov=np.array([[1.0, 0.5], [0.4, 1.0]]),
            )

    def test_x_cov_shape(self):
        with pytest.raises(DimensionMismatch):
            Process(kind="linear_wellspec", theta0=np.ones(3), x_cov=np.eye(2))

    def test_noise_df_bound(self):
        with pytest.raises(DomainError):
            Process(kind="linear_misspec_t", theta0=np.ones(2), noise_df=2.0)

    def test_config_round_trip(self):
        p = Process(
            kind="linear_misspec_t",
            theta0=np.array([0.1, 0.9]),
            x_cov=np.array([[2.0, 0.5], [0.5, 1.0]]),
            noise_df=4.5,
        )
        q = Process.from_config(p.to_config())
        assert q.kind == p.kind and q.noise_df == p.noise_df
        np.testing.assert_array_equal(q.theta0, p.theta0)
        np.testing.assert_array_equal(q.x_cov, p.x_cov)

    def test_config_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            Process.from_config({"kind": "linear_wellspec", "theta0": [1.0], "frobnicate": 1})

    def test_theta0_equispaced(self):
        np.testing.assert_allclose(theta0_equispaced(5), [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(theta0_equispaced(1), [0.5])
        np.testing.assert_allclose(theta0_equispaced(2), [0.0, 1.0])

    def test_loss_kind_mapping(self):
        expected = {
            "linear_wellspec": "squared",
            "linear_misspec_t": "squared",
            "logistic_wellspec": "logistic",
            "poisson_wellspec": "poisson",
            "gaussian_expfam_scorematch": "score_matching",
        }
        for kind in PROCESS_KINDS:
            assert loss_kind_for(_proc(kind, d=4)) == expected[kind]


class TestGenerate:
    @pytest.mark.parametrize("kind", PROCESS_KINDS)
    def test_deterministic_per_seed(self, kind):
        p = _proc(kind)
        a = generate(p, 50, seed=123)
        b = generate(p, 50, seed=123)
        np.testing.assert_array_equal(a.X, b.X)
        if a.y is not None:
            np.testing.assert_array_equal(a.y, b.y)
        c = generate(p, 50, seed=124)
        assert not np.array_equal(a.X, c.X)

    @pytest.mark.parametrize("kind", PROCESS_KINDS)
    def test_shapes_and_provenance(self, kind):
        p = _proc(kind)
        data = generate(p, 30, seed=5)
        cols = p.d // 2 if kind == "gaussian_expfam_scorematch" else p.d
        assert data.X.shape == (30, cols)
        assert data.n == 30
        assert (data.y is None) == (kind == "gaussian_expfam_scorematch")
        assert data.provenance.seed == 5
        assert data.provenance.process is p

    def test_prefix_property(self):
        # growing n extends the sample rather than reshuffling it
        p = _proc("linear_wellspec")
        small = generate(p, 20, seed=9)
        big = generate(p, 40, seed=9)
        np.testing.assert_array_equal(big.X[:20], small.X)
        np.testing.assert_array_equal(big.y[:20], small.y)

    def test_logistic_labels(self):
        data = generate(_proc("logistic_wellspec"), 200, seed=1)
        assert set(np.unique(data.y)) <= {-1.0, 1.0}

    def test_poisson_labels(self):
        data = generate(_proc("poisson_wellspec"), 200, seed=1)
        assert np.all(data.y >= 0) and np.all(data.y == np.floor(data.y))

    def test_linear_moments(self):
        p = Process(kind="linear_wellspec", theta0=np.array([1.0, -1.0]))
        data = generate(p, 60000, seed=2)
        resid = data.y - data.X @ p.theta0
        assert abs(np.mean(resid)) < 0.02
        assert abs(np.std(resid) - 1.0) < 0.02

    def test_x_cov_honored(self):
        cov = np.array([[2.0, -1.0], [-1.0, 1.0]])
        p = Process(kind="logistic_wellspec", theta0=np.array([-1.0, 2.0]), x_cov=cov)
        data = generate(p, 80000, seed=3)
        emp = data.X.T @ data.X / data.n
        np.testing.assert_allclose(emp, cov, atol=0.05)

    def test_scorematch_marginals(self):
        # z_j ~ N(a_j / b_j, 1 / b_j)
        p = Process(
            kind="gaussian_expfam_scorematch",
            theta0=np.array([1.0, -2.0, 0.5, 4.0]),
        )
        data = generate(p, 100000, seed=4)
        np.testing.assert_allclose(np.mean(data.X, axis=0), [2.0, -0.5], atol=0.03)
        np.testing.assert_allclose(np.var(data.X, axis=0), [2.0, 0.25], atol=0.04)

    def test_misspec_noise_heavier_than_gaussian(self):
        p = Process(kind="linear_misspec_t", theta0=np.zeros(2), noise_df=3.5)
        data = generate(p, 200000, seed=6)
        kurt = np.mean(data.y**4) / np.mean(data.y**2) ** 2
        assert kurt > 3.5  # excess kurtosis of t(3.5); Gaussian would be 3

    def test_zero_samples_rejected(self):
        with pytest.raises(EmptyDataset):
            generate(_proc("linear_wellspec"), 0, seed=0)


class TestCsvRoundTrip:
    @pytest.mark.parametrize("kind", ["linear_wellspec", "gaussian_expfam_scorematch"])
    def test_bit_exact_round_trip(self, tmp_path, kind):
        data = generate(_proc(kind), 25, seed=8)
        path = tmp_path / "data.csv"
        write_csv(data, path)
        back = read_csv(path)
        np.testing.assert_array_equal(back.X, data.X)
        if data.y is None:
            assert back.y is None
        else:
            np.testing.assert_array_equal(back.y, data.y)

    def test_header_names(self, tmp_path):
        data = generate(_proc("linear_wellspec", d=2), 3, seed=1)
        path = tmp_path / "d.csv"
        write_csv(data, path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,y"

    def test_malformed_cell_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n1.0,2.0,3.0\n1.0,zap,3.0\n")
        # rows are 1-based physical file rows, header included
        with pytest.raises(ParseError, match=r"row 3, column 2"):
            read_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x1,x2,y\n1.0,2.0,3.0\n1.0,2.0\n")
        with pytest.raises(ParseError):
            read_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n1.0,2.0,3.0\n")
        with pytest.raises(ParseError):
            read_csv(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,y\n")
        with pytest.raises(EmptyDataset):
            read_csv(path)

    def test_fully_empty_file_rejected(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_csv(path)


class TestDataset:
    def test_rows_view(self):
        data = generate(_proc("logistic_wellspec", d=3), 5, seed=2)
        rows = data.rows
        assert len(rows) == 5
        np.testing.assert_array_equal(rows[2].features, data.X[2])
        assert rows[2].response == data.y[2]

    @given(st.integers(0, 10**6))
    def test_generation_is_pure(self, seed):
        p = _proc("linear_wellspec", d=2)
        a = generate(p, 4, seed=seed)
        b = generate(p, 4, seed=seed)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


class TestReplicate:
    @staticmethod
    def _seed_and_wald(model, data):
        return data.provenance.seed, wald_statistic(fit_erm(model, data), STALLING.theta0)

    def test_drops_exactly_the_failed_replications(self):
        values = replicate(STALLING, 30, 100, 40, self._seed_and_wald)
        seeds = [seed for seed, _ in values]
        assert seeds == [s for s in range(100, 140) if s not in STALLED_SEEDS]

    def test_more_than_a_tenth_failing_raises_with_causes(self):
        # one failure among five replications exceeds the budget of 0.5
        match = r"1 of 5 replications failed \(NonConverged: 1\)"
        with pytest.raises(TooManyFailures, match=match):
            replicate(STALLING, 30, 108, 5, self._seed_and_wald)

    def test_other_errors_propagate(self):
        def measure(model, data):
            raise DomainError("not a replication failure")

        with pytest.raises(DomainError):
            replicate(_proc("linear_wellspec"), 10, 0, 3, measure)
