"""Synthetic processes: determinism, distributional sanity, CSV round trips."""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import poisson

from scmest import estimate, simdata
from scmest.errors import (
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    NumericOverflow,
    ParseError,
    SingularHessian,
    TooManyFailures,
)
from scmest.estimate import SolverOptions, fit_erm, replicate
from scmest.gof import null_statistics, wald_statistic
from scmest.losses import model_for_data
from scmest.simdata import (
    PROCESS_KINDS,
    Dataset,
    Process,
    generate,
    loss_kind_for,
    read_csv,
    theta0_equispaced,
    write_csv,
    write_table,
)

# logistic at d = 5, n = 30 under a 15-step budget: the data of seeds 108
# and 129 are separable, and their fits stop at max_iter (given more steps,
# they run on until the Hessian is singular); every other fit of seeds
# 100-139 converges within 9 steps
STALLING = Process(kind="logistic_wellspec", theta0=theta0_equispaced(5))
STALL_OPTS = SolverOptions(max_iter=15)
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

    def test_config_without_kind_rejected(self):
        with pytest.raises(ParseError, match="needs 'kind' and 'theta0'"):
            Process.from_config({"theta0": [1.0]})

    def test_theta0_must_be_finite(self):
        with pytest.raises(DomainError, match="finite nonempty vector"):
            Process(kind="linear_wellspec", theta0=np.array([1.0, np.inf]))

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
    @pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0), True, "3", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
            generate(_proc("linear_wellspec"), 10, seed)

    def test_numpy_integer_seed_is_the_int_seed(self):
        a = generate(_proc("poisson_wellspec"), 20, np.uint64(2**63 + 5))
        b = generate(_proc("poisson_wellspec"), 20, 2**63 + 5)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.provenance.seed == b.provenance.seed == 2**63 + 5

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

    def test_poisson_quantile_equals_scipy_ppf(self):
        # inversion through pdtrik/pdtr is SciPy's poisson.ppf bit for bit
        rng = np.random.default_rng(2024)
        n = 200_000
        mu = np.exp(rng.uniform(-8.0, 8.0, n))
        u = np.maximum(rng.uniform(size=n), simdata._U_FLOOR)
        u[::97] = simdata._U_FLOOR
        u[1::97] = np.nextafter(1.0, 0.0)
        y = simdata._poisson_quantile(u, mu)
        expected = poisson.ppf(u, mu)
        np.testing.assert_array_equal(y, expected)
        # no zero differs in sign, either
        assert y.tobytes() == expected.tobytes()

    def test_poisson_generate_is_ppf_on_its_stream(self):
        # the response stream's uniforms, floored, through SciPy's ppf
        p = Process(kind="poisson_wellspec", theta0=2.0 * theta0_equispaced(5))
        data = generate(p, 2000, seed=7)
        _, y_ss = np.random.SeedSequence(7).spawn(2)
        u = np.random.Generator(np.random.Philox(y_ss)).uniform(size=2000)
        expected = poisson.ppf(np.maximum(u, 1e-300), np.exp(data.X @ p.theta0))
        assert data.y.max() > 20
        assert data.y.tobytes() == expected.tobytes()

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
    @pytest.mark.parametrize(
        "X, y, where",
        [
            ([[1.0, 2.0], [np.nan, 0.0]], [1.0, 2.0], "X has a non-finite value in row 1"),
            ([[1.0], [2.0], [3.0]], [0.0, 1.0, np.inf], "y has a non-finite value in row 2"),
            ([[1.0, -np.inf]], None, "X has a non-finite value in row 0"),
        ],
    )
    def test_non_finite_values_rejected(self, X, y, where):
        with pytest.raises(DomainError, match=where):
            Dataset(X=np.array(X), y=None if y is None else np.array(y))

    def test_one_dimensional_X_rejected(self):
        with pytest.raises(DimensionMismatch, match="X must be 2-d"):
            Dataset(X=np.array([1.0, 2.0]), y=np.array([0.0, 1.0]))

    @given(st.integers(0, 10**6))
    def test_generation_is_pure(self, seed):
        p = _proc("linear_wellspec", d=2)
        a = generate(p, 4, seed=seed)
        b = generate(p, 4, seed=seed)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


@dataclass(frozen=True)
class _Row:
    label: str
    count: int
    value: float


class TestWriteTable:
    def test_layout_and_round_trip(self, tmp_path):
        rows = (_Row("a", 3, 0.1 + 0.2), _Row("b", 0, math.nan), _Row("c", 7, np.float64(1e-300)))
        path = tmp_path / "table.csv"
        write_table(rows, path, metadata={"seed": 0, "B": 60})
        lines = path.read_text().splitlines()
        assert lines[:4] == ["# schema_version=1", "# B=60", "# seed=0", "label,count,value"]
        assert lines[4:] == ["a,3,0.30000000000000004", "b,0,nan", "c,7,1e-300"]
        assert float(lines[4].split(",")[2]) == rows[0].value

    def test_empty_table_has_no_header(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table((), path)
        assert path.read_text() == "# schema_version=1\n"


class TestReplicate:
    @staticmethod
    def _seed_and_wald(model, data, fit):
        return data.provenance.seed, wald_statistic(fit, STALLING.theta0)

    def test_drops_exactly_the_failed_replications(self):
        values = replicate(STALLING, 30, 100, 40, self._seed_and_wald, STALL_OPTS)
        seeds = [seed for seed, _ in values]
        assert seeds == [s for s in range(100, 140) if s not in STALLED_SEEDS]

    def test_more_than_a_tenth_failing_raises_with_causes(self):
        # one failure among five replications exceeds the budget of 0.5
        match = r"1 of 5 replications failed \(max_iter: 1\)"
        with pytest.raises(TooManyFailures, match=match):
            replicate(STALLING, 30, 108, 5, self._seed_and_wald, STALL_OPTS)

    def test_unconverged_fits_never_reach_the_measure(self):
        # a two-step budget leaves every logistic fit at max_iter, and the
        # measure, which does not check, must not see them
        process = Process(kind="logistic_wellspec", theta0=theta0_equispaced(3))

        def measure(model, data, fit):
            return fit.converged

        match = r"10 of 10 replications failed \(max_iter: 10\)"
        with pytest.raises(TooManyFailures, match=match):
            replicate(process, 200, 0, 10, measure, SolverOptions(max_iter=2))

    def test_failing_measures_count_under_their_cause(self):
        # a Rao-only calibration fits nothing, and with n = 3 < d = 5 every
        # H_n(theta0) is singular, so each measure raises SingularHessian
        process = Process(kind="linear_wellspec", theta0=theta0_equispaced(5))
        match = r"10 of 10 replications failed \(singular: 10\)"
        with pytest.raises(TooManyFailures, match=match):
            null_statistics(("rao",), process, 3, 10, 0)

    def test_failing_measures_drop_their_replications_only(self):
        failing = (3, 11)

        def measure(model, data, fit):
            if data.provenance.seed in failing:
                raise SingularHessian("forced")
            return data.provenance.seed

        values = replicate(_proc("linear_wellspec"), 20, 0, 20, measure)
        assert values == [seed for seed in range(20) if seed not in failing]

    def test_other_errors_propagate(self):
        def measure(model, data, fit):
            raise DomainError("not a replication failure")

        with pytest.raises(DomainError):
            replicate(_proc("linear_wellspec"), 10, 0, 3, measure)


def _fit_erm_loop(process, n, seed_base, reps, opts=None):
    """Per-replication fit_erm, the reference of replicate's stacked fits.

    Returns the converged fits and the causes of the other replications.
    """
    fits, causes = [], Counter()
    for seed in range(seed_base, seed_base + reps):
        data = generate(process, n, seed)
        try:
            fit = fit_erm(model_for_data(loss_kind_for(process), data.X), data, opts)
        except (SingularHessian, NumericOverflow) as exc:
            causes[exc.cause] += 1
            continue
        if fit.converged:
            fits.append(fit)
        else:
            causes["max_iter"] += 1
    return fits, causes


def _assert_same_fits(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a.theta_n, b.theta_n)
        agg_a, agg_b = a.aggregates_at_opt, b.aggregates_at_opt
        assert agg_a.L_n == agg_b.L_n
        for name in ("S_n", "H_n", "G_n"):
            assert np.array_equal(getattr(agg_a, name), getattr(agg_b, name))
        for name in ("newton_decrement", "iterations", "converged", "certificate", "opts"):
            assert getattr(a, name) == getattr(b, name)


def _fit_of(model, data, fit):
    return fit


class TestReplicationsAsSlots:
    @pytest.mark.parametrize("kind", PROCESS_KINDS)
    def test_fits_equal_fit_erm_bit_for_bit(self, kind):
        process = _proc(kind, d=6)
        expected, _ = _fit_erm_loop(process, 80, 7, 12)
        _assert_same_fits(replicate(process, 80, 7, 12, _fit_of), expected)

    def test_solver_options_reach_the_fits(self):
        # under these options seed 106 converges in 8 steps, which only the
        # loose tolerance allows (it needs 9 at the default), and seed 108
        # stalls and is dropped
        opts = SolverOptions(tol=1e-4, max_iter=8)
        expected, _ = _fit_erm_loop(STALLING, 30, 100, 10, opts)
        got = replicate(STALLING, 30, 100, 10, _fit_of, opts)
        _assert_same_fits(got, expected)
        assert len(got) == 9
        assert all(fit.opts == opts for fit in got)

    def test_stalled_seeds_are_the_unconverged_fit_erm_fits(self):
        # TestReplicate's drops, and its per-cause message, follow from these
        fits, causes = _fit_erm_loop(STALLING, 30, 100, 40, STALL_OPTS)
        assert causes == {"max_iter": len(STALLED_SEEDS)}
        seeds = [fit.data.provenance.seed for fit in fits]
        assert seeds == [s for s in range(100, 140) if s not in STALLED_SEEDS]

    def test_singular_replication_dropped_as_singular(self):
        # logistic at d = 2, n = 6: a separable fit given 1000 iterations
        # runs its Hessian down to singular
        process = _proc("logistic_wellspec", d=2)
        opts = SolverOptions(max_iter=1000)
        expected, causes = _fit_erm_loop(process, 6, 8, 10, opts)
        assert causes == {"singular": 1}
        _assert_same_fits(replicate(process, 6, 8, 10, _fit_of, opts), expected)
        _, causes = _fit_erm_loop(process, 6, 8, 20, opts)
        assert causes["singular"] > 2
        detail = ", ".join(f"{cause}: {k}" for cause, k in sorted(causes.items()))
        message = rf"^{sum(causes.values())} of 20 replications failed \({detail}\)$"
        with pytest.raises(TooManyFailures, match=message):
            replicate(process, 6, 8, 20, _fit_of, opts)

    @pytest.mark.parametrize("per_chunk", [1, 3, 7])
    def test_chunking_leaves_results_unchanged(self, monkeypatch, per_chunk):
        whole = replicate(STALLING, 30, 100, 40, TestReplicate._seed_and_wald, STALL_OPTS)
        # a budget of per_chunk datasets of STALLING's 30 x 5 design
        monkeypatch.setattr(estimate, "_STACK_ELEMENTS", per_chunk * 30 * 5)
        calls = []
        engine = estimate._newton_engine
        monkeypatch.setattr(estimate, "_newton_engine", lambda *a: calls.append(1) or engine(*a))
        assert replicate(STALLING, 30, 100, 40, TestReplicate._seed_and_wald, STALL_OPTS) == whole
        assert len(calls) == -(-40 // per_chunk)
