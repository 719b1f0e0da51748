"""Synthetic processes: determinism, distributional sanity, CSV round trips."""

import math
import weakref
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit
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
from scmest.losses import Batch, model_for_data
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

    @pytest.mark.parametrize("n", [50.0, np.float64(50.0), True, "50", None])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(DomainError, match="n must be an integer"):
            generate(_proc("linear_wellspec"), n, seed=0)


def _reference_draw(process, n, seed):
    """One dataset as numpy's own seeding draws it: the loop the block draw must equal.

    ``SeedSequence(seed).spawn(2)`` gives the design and the response
    streams, each a fresh Philox, and the responses follow the process's
    formulas one dataset at a time; Poisson responses are SciPy's ppf.
    """
    x_ss, y_ss = np.random.SeedSequence(seed).spawn(2)
    x_gen = np.random.Generator(np.random.Philox(x_ss))
    y_gen = np.random.Generator(np.random.Philox(y_ss))
    if process.kind == "gaussian_expfam_scorematch":
        p = process.d // 2
        a, b = process.theta0[:p], process.theta0[p:]
        return a / b + x_gen.standard_normal((n, p)) / np.sqrt(b), None
    X = x_gen.standard_normal((n, process.d))
    if process.x_cov is not None:
        X = X @ np.linalg.cholesky(process.x_cov).T
    eta = X @ process.theta0
    if process.kind == "linear_wellspec":
        return X, eta + y_gen.standard_normal(n)
    if process.kind == "linear_misspec_t":
        return X, eta + y_gen.standard_t(process.noise_df, size=n)
    u = y_gen.uniform(size=n)
    if process.kind == "logistic_wellspec":
        return X, np.where(u < expit(eta), 1.0, -1.0)
    return X, poisson.ppf(np.maximum(u, 1e-300), np.exp(eta))


_COV = np.array([[2.0, 0.5, 0.0, 0.0], [0.5, 1.0, -0.3, 0.0],
                 [0.0, -0.3, 1.5, 0.1], [0.0, 0.0, 0.1, 1.0]])
_BLOCK_PROCESSES = [
    *(_proc(kind) for kind in PROCESS_KINDS),
    *(Process(kind=kind, theta0=theta0_equispaced(4), x_cov=_COV)
      for kind in PROCESS_KINDS if kind != "gaussian_expfam_scorematch"),
    Process(kind="linear_misspec_t", theta0=theta0_equispaced(4), noise_df=2.5),
    Process(kind="poisson_wellspec", theta0=2.0 * theta0_equispaced(4)),
    # wider designs, whose matrix products take other BLAS kernels
    Process(kind="logistic_wellspec", theta0=theta0_equispaced(21)),
    Process(kind="linear_wellspec", theta0=theta0_equispaced(7),
            x_cov=0.5 * np.eye(7) + 0.5 * np.ones((7, 7)) / 7),
]


class TestBlockDraw:
    # a block of one, ragged blocks, and ranges across 2**32, 2**63 (where
    # phase_seed's bases lie), 2**64 and 2**128, where a seed gains a word
    RANGES = ((0, 1), (3, 10), (2**32 - 3, 2**32 + 2), (2**63 - 2, 2**63 + 3),
              (2**64 - 2, 2**64 + 1), (2**128 - 1, 2**128 + 2),
              (2**96 + 2**32 - 2, 2**96 + 2**32 + 1))

    @pytest.mark.parametrize("process", _BLOCK_PROCESSES, ids=lambda p: p.kind)
    def test_rows_are_numpys_own_draws(self, process):
        for start, stop in self.RANGES:
            for n in (1, 37):
                X, y = simdata._draw(process, n, start, stop)
                assert X.shape[:2] == (stop - start, n)
                for r, seed in enumerate(range(start, stop)):
                    X_ref, y_ref = _reference_draw(process, n, seed)
                    assert X[r].tobytes() == X_ref.tobytes(), (seed, n)
                    assert (y is None) == (y_ref is None)
                    if y is not None:
                        assert y[r].tobytes() == y_ref.tobytes(), (seed, n)

    @pytest.mark.parametrize("process", _BLOCK_PROCESSES[:5], ids=lambda p: p.kind)
    def test_generate_is_the_block_of_one(self, process):
        for seed in (0, 2**32 - 1, 2**63 + 1, 2**128):
            data = generate(process, 23, seed)
            X, y = simdata._draw(process, 23, seed, seed + 3)
            assert data.X.tobytes() == X[0].tobytes()
            assert data.y is None if y is None else data.y.tobytes() == y[0].tobytes()

    def test_a_block_of_2000_replications(self):
        process = _proc("logistic_wellspec")
        X, y = simdata._draw(process, 3, 2**32 - 1000, 2**32 + 1000)
        for r in (0, 999, 1000, 1999):
            X_ref, y_ref = _reference_draw(process, 3, 2**32 - 1000 + r)
            assert X[r].tobytes() == X_ref.tobytes() and y[r].tobytes() == y_ref.tobytes()


class TestSeedSequenceHash:
    @settings(max_examples=60)
    @given(prefix=st.lists(st.integers(0, 2**130), max_size=2),
           start=st.integers(0, 2**130), m=st.integers(1, 4))
    def test_keys_equal_generate_state(self, prefix, start, m):
        keys = np.array(simdata._philox_keys(prefix, start, start + m), dtype=np.uint64)
        assert keys.shape == (m, 2)
        for r in range(m):
            ss = np.random.SeedSequence([*prefix, start + r])
            assert np.array_equal(keys[r], ss.generate_state(2, np.uint64))

    @settings(max_examples=60)
    @given(start=st.integers(0, 2**130), m=st.integers(1, 4), children=st.integers(1, 3))
    def test_child_keys_equal_spawned_generate_state(self, start, m, children):
        keys = simdata._philox_keys([], start, start + m, children=children)
        keys = np.array(keys, dtype=np.uint64)
        assert keys.shape == (m, children, 2)
        for r in range(m):
            spawned = np.random.SeedSequence(start + r).spawn(children)
            for c, child in enumerate(spawned):
                assert np.array_equal(keys[r, c], child.generate_state(2, np.uint64))

    def test_ranges_across_a_word_boundary(self):
        for start in (2**32 - 2, 2**64 - 2, 2**96 - 1):
            keys = np.array(simdata._philox_keys([7], start, start + 4), dtype=np.uint64)
            for r in range(4):
                ss = np.random.SeedSequence([7, start + r])
                assert np.array_equal(keys[r], ss.generate_state(2, np.uint64))


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

    @pytest.mark.parametrize(
        "n, reps, message",
        [
            (30, 5.0, "reps must be an integer, got 5.0"),
            (30, True, "reps must be an integer, got True"),
            (30, np.float64(5.0), "reps must be an integer, got "),
            (30.0, 5, "n must be an integer, got 30.0"),
            (None, 5, "n must be an integer, got None"),
        ],
    )
    def test_non_integer_counts_rejected_before_any_replication(
        self, monkeypatch, n, reps, message
    ):
        def draw(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(estimate, "_draw", draw)
        for run in (
            lambda: replicate(STALLING, n, 100, reps, self._seed_and_wald),
            lambda: null_statistics(("rao", "lr", "wald"), STALLING, n, reps, 100),
        ):
            with pytest.raises(DomainError, match=f"^{message}"):
                run()

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
    @pytest.mark.parametrize("budget", ["_STACK_ELEMENTS", "_CHUNK_ELEMENTS"])
    def test_chunking_leaves_results_unchanged(self, monkeypatch, per_chunk, budget):
        whole = replicate(STALLING, 30, 100, 40, TestReplicate._seed_and_wald, STALL_OPTS)
        # per_chunk slots of STALLING's n = 30, by their (slots, n)
        # temporaries or by their stacked 30 x 5 designs
        entries = {"_STACK_ELEMENTS": 30, "_CHUNK_ELEMENTS": 30 * 5}[budget]
        monkeypatch.setattr(estimate, budget, per_chunk * entries)
        calls = []
        engine = estimate._newton_engine
        monkeypatch.setattr(estimate, "_newton_engine", lambda *a: calls.append(1) or engine(*a))
        assert replicate(STALLING, 30, 100, 40, TestReplicate._seed_and_wald, STALL_OPTS) == whole
        assert len(calls) == -(-40 // per_chunk)

    def test_a_chunk_is_one_evaluation_block(self, monkeypatch):
        # 100 datasets at n = 500 fill the 50 000 entries of one block, so
        # 250 replications take three engine calls, each evaluation in one block
        process = _proc("logistic_wellspec", d=5)
        engines, blocks, evaluations = [], [], []
        engine, block = estimate._newton_engine, Batch._evaluate_block
        evaluate = Batch.slot_evaluate
        monkeypatch.setattr(
            estimate, "_newton_engine", lambda b, W, o: engines.append(len(W)) or engine(b, W, o)
        )
        monkeypatch.setattr(Batch, "_evaluate_block", lambda *a: blocks.append(1) or block(*a))
        monkeypatch.setattr(
            Batch, "slot_evaluate", lambda *a: evaluations.append(1) or evaluate(*a)
        )
        assert len(null_statistics(("rao", "wald"), process, 500, 250, 3)["rao"]) == 250
        assert engines == [100, 100, 50]
        assert len(blocks) == len(evaluations)

    @pytest.mark.parametrize("study", ["replicate", "null_statistics"])
    def test_a_chunk_is_freed_before_the_next_is_drawn(self, monkeypatch, study):
        # no array of a chunk, nor a view of one, outlives its visit: when
        # the next chunk is drawn, the previous chunk's design is gone
        process = _proc("logistic_wellspec", d=5)
        designs, draw = [], estimate._draw

        def tracked(*args):
            assert all(design() is None for design in designs)
            X, y = draw(*args)
            designs.append(weakref.ref(X))
            return X, y

        monkeypatch.setattr(estimate, "_draw", tracked)
        if study == "replicate":
            replicate(process, 500, 3, 250, TestReplicate._seed_and_wald)
        else:
            null_statistics(("rao", "lr", "wald"), process, 500, 250, 3)
        assert len(designs) == 3
