"""Multiplier-bootstrap weights, refits, quantiles, and coverage studies."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmest import experiments
from scmest.bootstrap import (
    BootstrapConfig,
    _bootstrap_statistics,
    _multipliers,
    bootstrap_fit,
    bootstrap_quantile,
    bootstrap_weights,
)
from scmest.errors import (
    DomainError,
    NonConverged,
    NumericOverflow,
    SingularHessian,
    TooManyFailures,
)
from scmest.estimate import SolverOptions, _fit_result, _newton_engine, aggregates, fit_erm
from scmest.experiments import CoverageTable, CoverageTableExperiment, _process_coverage
from scmest.gof import lr_statistic, wald_statistic
from scmest.inference import calibrated_radius
from scmest.losses import (
    _OuterTable,
    batch_values,
    expfam_glm_loss,
    model_for_data,
    poisson_loss,
    prepare_batch,
)
from scmest.simdata import Dataset, Process, generate, theta0_equispaced, write_table


def _fit(kind, proc_kind, n, d, seed=0):
    proc = Process(kind=proc_kind, theta0=theta0_equispaced(d))
    data = generate(proc, n, seed)
    model = model_for_data(kind, data.X)
    return proc, data, model, fit_erm(model, data)


class TestBootstrapWeights:
    def test_pure_function_of_seed_and_replication(self):
        a = bootstrap_weights(3, 7, 50)
        b = bootstrap_weights(3, 7, 50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, bootstrap_weights(3, 8, 50))
        assert not np.array_equal(a, bootstrap_weights(4, 7, 50))

    def test_prefix_property(self):
        long = bootstrap_weights(0, 0, 100)
        short = bootstrap_weights(0, 0, 30)
        assert np.array_equal(long[:30], short)

    def test_moments(self):
        w = bootstrap_weights(0, 0, 200_000)
        assert abs(np.mean(w) - 1.0) < 0.01
        assert abs(np.var(w) - 1.0) < 0.02

    # one to four 32-bit words; 2**63 +- is where phase_seed's seeds lie
    SEEDS = (0, 3, 12345, 2**31 + 7, 2**32 + 5, 2**40 + 1, 2**63 - 1, 2**63 + 17,
             2**64 - 1, 2**70 + 3, 2**96 + 5)
    # past 2**16, either side of 2**31, up to 2**32 - 1, and a b of two words
    STARTS = (0, 2**16 - 3, 2**31 - 3, 2**32 - 6, 2**32 + 1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_matches_seed_sequence(self, seed):
        for start in self.STARTS:
            block = _multipliers(seed, start, start + 6, 9)
            assert block.shape == (6, 9)
            for i, row in enumerate(block):
                assert np.array_equal(row, _oracle_weights(seed, start + i, 9)), (seed, start + i)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_row_matches_seed_sequence(self, seed):
        for b in (0, 1, 2**16 + 1, 2**32 - 1, 2**32, 2**64 + 3):
            assert np.array_equal(bootstrap_weights(seed, b, 9), _oracle_weights(seed, b, 9))

    @pytest.mark.parametrize(
        "seed, b", [(0, 7), (5, 1000), (2**63 + 17, 2**32 - 1), (2**70 + 3, 2**32 + 9)]
    )
    def test_rows_do_not_depend_on_the_chunk(self, seed, b):
        one = _multipliers(seed, b, b + 1, 11)
        assert one.shape == (1, 11)
        assert np.array_equal(one[0], bootstrap_weights(seed, b, 11))
        assert np.array_equal(_multipliers(seed, b - 7, b + 1, 11)[7], one[0])
        if b < 2000:
            assert np.array_equal(_multipliers(seed, 0, b + 1, 11)[b], one[0])

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**64 - 1), b=st.integers(0, 2**32 - 1))
    def test_any_seed_and_replication(self, seed, b):
        lo = max(b - 2, 0)
        block = _multipliers(seed, lo, b + 1, 5)
        assert np.array_equal(block[-1], _oracle_weights(seed, b, 5))
        assert np.array_equal(bootstrap_weights(seed, b, 5), block[-1])

    @pytest.mark.parametrize(
        "seed, b",
        [(-1, 0), (0, -1), (1.5, 0), (0, 2.0), (True, 0), ("3", 0), (np.float64(1.0), 0)],
    )
    def test_negative_or_non_integer_rejected(self, seed, b):
        with pytest.raises(DomainError, match="seed|b must be a nonnegative integer"):
            bootstrap_weights(seed, b, 5)

    def test_numpy_integers_accepted(self):
        w = bootstrap_weights(np.int64(3), np.uint64(7), 5)
        assert np.array_equal(w, bootstrap_weights(3, 7, 5))


def _oracle_weights(seed, b, n):
    """The multipliers of replication b as numpy's own seeding draws them."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, b])))
    return 1.0 + gen.standard_normal(n)


class TestBootstrapFit:
    def test_unit_weights_reproduce_erm_exactly(self):
        for kind, proc_kind in [("squared", "linear_wellspec"), ("logistic", "logistic_wellspec")]:
            _, data, model, fit = _fit(kind, proc_kind, 150, 3)
            refit = bootstrap_fit(model, data, np.ones(data.n))
            assert np.array_equal(refit.theta_n, fit.theta_n)
            assert refit.aggregates_at_opt.L_n == fit.aggregates_at_opt.L_n
            assert np.array_equal(refit.aggregates_at_opt.H_n, fit.aggregates_at_opt.H_n)
            assert refit.newton_decrement == fit.newton_decrement
            assert refit.iterations == fit.iterations

    def test_weighted_normal_equations(self):
        _, data, model, _ = _fit("squared", "linear_wellspec", 80, 3)
        rng = np.random.default_rng(2)
        w = 0.5 + rng.random(data.n)
        refit = bootstrap_fit(model, data, w)
        WX = data.X * w[:, None]
        expected = np.linalg.solve(WX.T @ data.X, WX.T @ data.y)
        assert np.allclose(refit.theta_n, expected, atol=1e-8)

    def test_sign_flipped_weights_are_nonconvex(self):
        _, data, model, _ = _fit("squared", "linear_wellspec", 50, 2)
        with pytest.raises(SingularHessian):
            bootstrap_fit(model, data, -np.ones(data.n))

    def test_lr_statistic_reads_the_fit_weights(self):
        # a bootstrap fit minimized the weighted risk, so its LR statistic
        # compares weighted risks, as the bootstrap's LR of that slot does
        for kind, proc_kind, d in [
            ("squared", "linear_wellspec", 3),
            ("logistic", "logistic_wellspec", 3),
            ("poisson", "poisson_wellspec", 3),
            ("score_matching", "gaussian_expfam_scorematch", 4),
        ]:
            _, data, model, fit = _fit(kind, proc_kind, 200, d)
            _, lr_b, _ = _bootstrap_statistics(fit, 40, 0)
            lr_s = []
            for b in range(40):
                try:
                    refit = bootstrap_fit(model, data, bootstrap_weights(0, b, data.n))
                except SingularHessian:
                    continue
                assert lr_statistic(refit, refit.theta_n) == 0.0
                lr_s.append(lr_statistic(refit, fit.theta_n))
            assert len(lr_s) == lr_b.size
            np.testing.assert_allclose(lr_s, lr_b, rtol=1e-12, atol=1e-15)

    def test_calibrations_read_the_fit_weights(self):
        # refit b of a weighted fit minimizes its risk under fit.weights * W_b
        base = np.random.default_rng(1).exponential(size=200)
        for kind, proc_kind in [
            ("squared", "linear_wellspec"),
            ("logistic", "logistic_wellspec"),
            ("poisson", "poisson_wellspec"),
        ]:
            _, data, model, _ = _fit(kind, proc_kind, 200, 3)
            fit = bootstrap_fit(model, data, base)
            wald_b, lr_b, _ = _bootstrap_statistics(fit, 40, 0)
            wald_s, lr_s = [], []
            for b in range(40):
                try:
                    refit = bootstrap_fit(model, data, fit.weights * bootstrap_weights(0, b, 200))
                except (SingularHessian, NumericOverflow):
                    continue
                if refit.converged:
                    wald_s.append(wald_statistic(refit, fit.theta_n))
                    lr_s.append(lr_statistic(refit, fit.theta_n))
            assert len(wald_s) == wald_b.size
            np.testing.assert_allclose(wald_s, wald_b, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(lr_s, lr_b, rtol=1e-12, atol=1e-15)
            # replaying the process cannot reproduce the weights
            with pytest.raises(DomainError, match="weighted"):
                calibrated_radius(fit, "wald", 0.05, "oracle_mc", calib_reps=20)

    def test_weights_must_be_finite(self):
        _, data, model, _ = _fit("squared", "linear_wellspec", 50, 2)
        w = np.ones(data.n)
        w[0] = np.nan
        with pytest.raises(DomainError):
            bootstrap_fit(model, data, w)


def _score_matching_fit(n=300, seed=4):
    proc = Process(kind="gaussian_expfam_scorematch", theta0=np.array([0.5, -0.2, 1.0, 2.0]))
    data = generate(proc, n, seed)
    model = model_for_data("score_matching", data.X)
    return proc, data, model, fit_erm(model, data)


def _expfam_fit(n=300, d=10, seed=5):
    # logistic regression written as an expfam_glm loss: t(x, y) = y x / 2
    proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(d))
    data = generate(proc, n, seed)
    bound = 0.5 * float(np.max(np.linalg.norm(data.X, axis=1)))
    model = expfam_glm_loss(d, (-1.0, 1.0), lambda x, y: 0.5 * y * x, bound)
    return proc, data, model, fit_erm(model, data)


# one converging case of every loss kind
_ENGINE_CASES = {
    "expfam": _expfam_fit,
    "squared": lambda: _fit("squared", "linear_wellspec", 200, 10, seed=5),
    "logistic": lambda: _fit("logistic", "logistic_wellspec", 300, 10, seed=5),
    "poisson": lambda: _fit("poisson", "poisson_wellspec", 300, 10, seed=5),
    "score_matching": _score_matching_fit,
}


def _assert_matches_sequential_refits(data, model, fit, B=30, seed=7):
    """The engine's statistics against one bootstrap_fit per replication.

    Both must fail the same replications.  The vectorized engine reorders
    weighted sums, so agreement is near machine precision rather than
    bitwise.  Returns the failure count.
    """
    wald_b, lr_b, n_failed = _bootstrap_statistics(fit, B, seed)
    vals = batch_values(model, fit.theta_n, data.X, data.y)
    wald_s, lr_s = [], []
    for b in range(B):
        w = bootstrap_weights(seed, b, data.n)
        try:
            refit = bootstrap_fit(model, data, w)
        except SingularHessian:
            continue
        wald_s.append(wald_statistic(refit, fit.theta_n))
        lr_s.append(
            max(2.0 * (float(np.sum(w * vals)) / data.n - refit.aggregates_at_opt.L_n), 0.0)
        )
    assert n_failed == B - len(wald_s)
    assert np.allclose(wald_b, wald_s, rtol=1e-12, atol=1e-15)
    assert np.allclose(lr_b, lr_s, rtol=1e-12, atol=1e-15)
    return n_failed


class TestBatchedEngine:
    def test_matches_sequential_refits(self):
        for kind, proc_kind in [
            ("squared", "linear_wellspec"),
            ("logistic", "logistic_wellspec"),
            ("poisson", "poisson_wellspec"),
        ]:
            _, data, model, fit = _fit(kind, proc_kind, 120, 2, seed=5)
            assert _assert_matches_sequential_refits(data, model, fit) == 0

    @pytest.mark.parametrize("kind", sorted(_ENGINE_CASES))
    def test_matches_sequential_refits_at_d10_and_score_matching(self, kind):
        # d = 10 exercises the x x' table product, expfam_glm the table of
        # t t' products; the Poisson case has nonconvex reweightings (2 of 30)
        _, data, model, fit = _ENGINE_CASES[kind]()
        _assert_matches_sequential_refits(data, model, fit)

    @pytest.mark.parametrize("kind", sorted(_ENGINE_CASES))
    def test_returns_hessian_and_risk_of_each_converged_slot(self, kind):
        _, data, model, fit = _ENGINE_CASES[kind]()
        batch = prepare_batch(model, data)
        W = np.stack([bootstrap_weights(11, b, data.n) for b in range(12)])
        fits = _newton_engine(batch, W, SolverOptions())
        assert np.all(fits.status == "converged")
        for b in range(W.shape[0]):
            assert np.array_equal(fits.H[b], fits.H[b].T)
            agg = aggregates(model, data, fits.theta[b], weights=W[b])
            np.testing.assert_allclose(fits.H[b], agg.H_n, rtol=1e-12, atol=1e-15)
            assert fits.L[b] == pytest.approx(agg.L_n, rel=1e-12, abs=1e-15)

    def test_failure_causes_match_bootstrap_fit(self):
        # one Poisson dataset with an outlying count.  Under its measured R
        # the engine refuses a full step that overflows, and a damped step
        # moves no predictor by 1 or more, so overflow needs an engine batch
        # with R = 0 set by hand: it takes full Newton steps untested, and
        # weight piled on the outlier throws its predictor past the overflow
        # limit in one step
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 2))
        y = rng.poisson(np.exp(0.3 * X[:, 0])).astype(float)
        y[0] = 1000.0
        data = Dataset(X=X, y=y)
        model = poisson_loss(2)
        converging, heavy = np.ones(data.n), np.ones(data.n)
        converging[0], heavy[0] = 0.0, 1e6
        W = np.stack([converging, -np.ones(data.n), heavy])
        batch = prepare_batch(model, data)
        batch.__dict__["R"] = 0.0  # in place of the R measured on first use
        opts = SolverOptions()
        fits = _newton_engine(batch, W, opts)
        assert fits.status.tolist() == ["converged", "singular", "overflow"]
        refit = bootstrap_fit(model, data, W[0])
        assert refit.converged
        np.testing.assert_allclose(refit.theta_n, fits.theta[0], rtol=1e-12)
        with pytest.raises(SingularHessian):
            bootstrap_fit(model, data, W[1])
        with pytest.raises(NumericOverflow):
            _fit_result(batch, data, opts, W[2], fits, 2)

    def test_chunking_does_not_change_results(self, monkeypatch):
        # weight streams are per-replication, so chunk boundaries only
        # perturb kernel blocking: agreement to the last few ulps
        import scmest.losses as losses_module

        _, data, model, fit = _fit("logistic", "logistic_wellspec", 90, 2)
        config = BootstrapConfig(delta=0.1, B=120, seed=3)
        whole = bootstrap_quantile(model, data, fit, config, kind="wald")
        monkeypatch.setattr(losses_module, "_CHUNK_ELEMENTS", 3 * data.n)
        pieces = bootstrap_quantile(model, data, fit, config, kind="wald")
        assert pieces.n_failed == whole.n_failed
        assert pieces.quantile == pytest.approx(whole.quantile, rel=1e-12)

    def test_row_blocked_table_does_not_change_results(self, monkeypatch):
        # a budget below n d(d+1)/2 makes the x x' table run over row
        # blocks, and below B n it also chunks the slots
        import scmest.losses as losses_module

        _, data, model, fit = _fit("logistic", "logistic_wellspec", 90, 5)
        config = BootstrapConfig(delta=0.1, B=120, seed=3)
        whole = bootstrap_quantile(model, data, fit, config, kind="wald")
        assert len(_OuterTable(data.X).blocks) == 1
        monkeypatch.setattr(losses_module, "_CHUNK_ELEMENTS", 3 * data.n)
        assert len(_OuterTable(data.X).blocks) > 1
        pieces = bootstrap_quantile(model, data, fit, config, kind="wald")
        assert pieces.n_failed == whole.n_failed
        assert pieces.quantile == pytest.approx(whole.quantile, rel=1e-12)

    @pytest.mark.parametrize("per_block", [1, 4])
    @pytest.mark.parametrize("kind", ["expfam", "squared", "logistic", "poisson"])
    def test_slot_blocks_do_not_change_results(self, monkeypatch, kind, per_block):
        # 30 slots in blocks of one, or of four with a ragged last block of
        # two, against one block: the Poisson reweightings include nonconvex
        # ones, and its last evaluation point overflows
        import scmest.losses as losses_module

        _, data, model, fit = _ENGINE_CASES[kind]()
        batch = prepare_batch(model, data)
        W = _multipliers(7, 0, 30, data.n)
        Theta = fit.theta_n + 0.1 * np.random.default_rng(0).standard_normal((30, model.dim))
        Theta[-1] *= 1e3
        whole = batch.slot_evaluate(Theta, W)
        whole_fits = _newton_engine(batch, W, SolverOptions())
        monkeypatch.setattr(losses_module, "_STACK_ELEMENTS", per_block * batch._slot_elements)
        sizes, evaluate_block = [], losses_module.Batch._evaluate_block

        def counted(self, Theta, W):
            sizes.append(Theta.shape[0])
            return evaluate_block(self, Theta, W)

        monkeypatch.setattr(losses_module.Batch, "_evaluate_block", counted)
        blocked = batch.slot_evaluate(Theta, W)
        assert sizes == {1: [1] * 30, 4: [4] * 7 + [2]}[per_block]
        blocked_fits = _newton_engine(batch, W, SolverOptions())
        assert np.array_equal(blocked[3], whole[3])
        assert blocked[3][-1] == (kind == "poisson")
        for a, b in zip(blocked[:3], whole[:3]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
        assert np.array_equal(blocked_fits.status, whole_fits.status)
        ok = whole_fits.status == "converged"
        assert ok.sum() >= 27
        np.testing.assert_allclose(blocked_fits.theta[ok], whole_fits.theta[ok], rtol=1e-12)

    @pytest.mark.parametrize("kind, proc_kind", [
        ("logistic", "logistic_wellspec"), ("poisson", "poisson_wellspec")
    ])
    def test_slot_blocks_do_not_change_quantiles(self, monkeypatch, kind, proc_kind):
        # a block of seven slots leaves a ragged last block of B = 120
        import scmest.losses as losses_module

        _, data, model, fit = _fit(kind, proc_kind, 150, 4, seed=2)
        config = BootstrapConfig(delta=0.1, B=120, seed=3)
        whole = bootstrap_quantile(model, data, fit, config, kind="wald")
        monkeypatch.setattr(losses_module, "_STACK_ELEMENTS", 7 * data.n)
        pieces = bootstrap_quantile(model, data, fit, config, kind="wald")
        assert pieces.n_failed == whole.n_failed
        assert pieces.quantile == pytest.approx(whole.quantile, rel=1e-12)

    @pytest.mark.parametrize("per_block", [None, 1, 4])
    @pytest.mark.parametrize("kind", sorted(_ENGINE_CASES))
    def test_rows_read_in_place_equal_the_gathered_rows(self, monkeypatch, kind, per_block):
        # 13 live slots read their rows of W through an unsorted index, in one
        # block, in blocks of one, or of four with a ragged last block of one
        # (score matching is one block throughout); the Poisson slot last in
        # line overflows
        import scmest.losses as losses_module

        _, data, model, fit = _ENGINE_CASES[kind]()
        batch = prepare_batch(model, data)
        W = _multipliers(7, 0, 30, data.n)
        rows = np.array([29, 0, 3, 4, 17, 18, 2, 25, 26, 11, 8, 9, 14])
        Theta = fit.theta_n + 0.1 * np.random.default_rng(1).standard_normal((13, model.dim))
        Theta[-1] *= 1e3
        if per_block is not None:
            monkeypatch.setattr(losses_module, "_STACK_ELEMENTS", per_block * batch._slot_elements)
        before = W.copy()
        indexed = batch.slot_evaluate(Theta, W, rows)
        gathered = batch.slot_evaluate(Theta, W[rows])
        for a, b in zip(indexed, gathered):
            assert np.array_equal(a, b)
        assert indexed[3][-1] == (kind == "poisson")
        assert np.array_equal(W, before)

    def test_engine_reads_the_weights_in_place(self, monkeypatch):
        # Poisson refits leave at different iterations and have full steps
        # refused; the engine never copies the (B, n) multiplier block, so
        # one call's traced peak stays below 2.5 blocks, where copying the
        # live rows when slots leave and again for the refused steps peaks
        # at about 3.3 blocks
        import tracemalloc

        import scmest.losses as losses_module

        _, _, _, fit = _fit("poisson", "poisson_wellspec", 300, 5, seed=7)
        B, calls, evaluate = 2000, [], losses_module.Batch.slot_evaluate

        def counted(self, Theta, W, rows=None):
            calls.append(Theta.shape[0])
            return evaluate(self, Theta, W, rows)

        tracemalloc.start()
        try:
            wald, _, n_failed = _bootstrap_statistics(fit, B, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = B * fit.batch.n * 8
        assert peak < 2.5 * block
        monkeypatch.setattr(losses_module.Batch, "slot_evaluate", counted)
        W = _multipliers(7, 0, B, fit.batch.n)
        fits = _newton_engine(fit.batch, W, fit.opts)
        assert np.unique(fits.iterations).size > 2
        # one evaluation at theta = 0 and one per iteration, plus the refused
        assert len(calls) > 1 + fits.iterations.max()
        assert n_failed == np.count_nonzero(fits.status != "converged")

    def test_least_squares_deviance_equals_wald(self):
        _, data, model, fit = _fit("squared", "linear_wellspec", 100, 3)
        wald_b, lr_b, _ = _bootstrap_statistics(fit, 40, 0)
        assert np.allclose(wald_b, lr_b, atol=1e-9)


class TestBootstrapQuantile:
    def test_expfam_statistics_built_once_per_call(self):
        # every expfam_glm refit shares the stack of t(x_i, label_k) of the
        # base fit's batch, made by one feature_map call per label in the fit
        _, data, _, _ = _fit("logistic", "logistic_wellspec", 100, 2)
        calls = []

        def counting(X, y):
            calls.append(1)
            return 0.5 * y * X

        bound = 0.5 * float(np.max(np.linalg.norm(data.X, axis=1)))
        model = expfam_glm_loss(2, (-1.0, 1.0), counting, bound)
        fit = fit_erm(model, data)
        assert len(calls) == len(model.labels)
        calls.clear()
        result = bootstrap_quantile(model, data, fit, BootstrapConfig(delta=0.1, B=100), "wald")
        assert result.n_failed == 0
        assert calls == []

    def test_deterministic(self):
        _, data, model, fit = _fit("logistic", "logistic_wellspec", 100, 2)
        config = BootstrapConfig(delta=0.1, B=150, seed=9)
        a = bootstrap_quantile(model, data, fit, config, kind="wald")
        b = bootstrap_quantile(model, data, fit, config, kind="wald")
        assert a == b

    def test_delta_is_tail_mass(self):
        _, data, model, fit = _fit("logistic", "logistic_wellspec", 100, 2)
        narrow = bootstrap_quantile(
            model, data, fit, BootstrapConfig(delta=0.5, B=150, seed=9), kind="wald"
        )
        wide = bootstrap_quantile(
            model, data, fit, BootstrapConfig(delta=0.05, B=150, seed=9), kind="wald"
        )
        assert wide.quantile > narrow.quantile

    def test_refits_use_the_fit_solver_options(self):
        # a loose tolerance moves the refits, not only the base fit
        opts = SolverOptions(tol=1e-2, max_iter=40)
        proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(5))
        data = generate(proc, 100, 1)
        model = model_for_data("logistic", data.X)
        fit = fit_erm(model, data, opts)
        assert fit.opts == opts
        stats = []
        for b in range(300):
            try:
                refit = bootstrap_fit(model, data, bootstrap_weights(1, b, data.n), opts)
            except SingularHessian:
                continue
            if refit.converged:
                stats.append(wald_statistic(refit, fit.theta_n))
        config = BootstrapConfig(delta=0.05, B=300, seed=1)
        result = bootstrap_quantile(model, data, fit, config, "wald")
        assert result.n_failed == 300 - len(stats)
        assert result.quantile == pytest.approx(float(np.quantile(stats, 0.95)), rel=1e-12)

    def test_needs_the_fit_problem(self):
        # a fit on other data of the same n and d does not calibrate this
        # data; equal arrays in another Dataset are the same problem
        proc, data, model, fit = _fit("logistic", "logistic_wellspec", 100, 2)
        other = generate(proc, 100, 1)
        config = BootstrapConfig(delta=0.1, B=100, seed=2)
        with pytest.raises(DomainError, match="the fit was made on"):
            bootstrap_quantile(model, other, fit, config, "wald")
        copy = Dataset(X=data.X.copy(), y=data.y.copy())
        assert bootstrap_quantile(model, copy, fit, config, "wald") == bootstrap_quantile(
            model, data, fit, config, "wald"
        )

    def test_kind_validated(self):
        _, data, model, fit = _fit("squared", "linear_wellspec", 60, 2)
        with pytest.raises(DomainError):
            bootstrap_quantile(model, data, fit, BootstrapConfig(delta=0.1), kind="rao")

    def test_requires_converged_base_fit(self):
        proc = Process(kind="logistic_wellspec", theta0=theta0_equispaced(2))
        data = generate(proc, 100, 0)
        model = model_for_data("logistic", data.X)
        stalled = fit_erm(model, data, SolverOptions(max_iter=1, tol=1e-12))
        with pytest.raises(NonConverged):
            bootstrap_quantile(model, data, stalled, BootstrapConfig(delta=0.1), kind="wald")

    def test_too_many_failures(self):
        # at n = 3 the weighted Gram matrix goes indefinite often enough
        # that this seed pushes failures past the B/10 budget
        proc = Process(kind="linear_wellspec", theta0=theta0_equispaced(1))
        data = generate(proc, 3, 1001)
        model = model_for_data("squared", data.X)
        fit = fit_erm(model, data)
        with pytest.raises(
            TooManyFailures, match=r"12 of 60 bootstrap replications failed \(singular: 12\)"
        ):
            _bootstrap_statistics(fit, 60, 1)

    def test_config_validation_and_warning(self):
        with pytest.raises(DomainError):
            BootstrapConfig(delta=0.0)
        with pytest.raises(DomainError):
            BootstrapConfig(delta=0.1, B=0)
        with pytest.warns(UserWarning, match="too few"):
            BootstrapConfig(delta=0.1, B=50)
        for seed in (-1, 1.5, True, None):
            with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
                BootstrapConfig(delta=0.1, seed=seed)
        assert BootstrapConfig(delta=0.1, seed=2**63 + 17).seed == 2**63 + 17


class TestCoverageExperiment:
    def _config(self, **overrides):
        base = dict(d=2, n=80, deltas=(0.9, 0.8), reps=60, B=80)
        base.update(overrides)
        return CoverageTableExperiment(**base)

    def _table(self, config, kind="linear_wellspec", seed=0):
        return CoverageTable(tuple(_process_coverage(config, kind, seed)))

    def test_deterministic(self):
        config = self._config()
        assert self._table(config).rows == self._table(config).rows

    def test_covers_near_nominal(self):
        table = self._table(self._config())
        for method in ("oracle", "bootwald", "bootlr"):
            row = table.lookup(method, 0.9)
            assert 0.75 <= row.coverage <= 1.0
            assert row.reps + row.failures == 60
            assert row.stderr == pytest.approx(
                np.sqrt(row.coverage * (1 - row.coverage) / row.reps), rel=1e-12
            )

    def test_levels_are_ordered(self):
        table = self._table(self._config())
        for method in ("oracle", "bootwald", "bootlr"):
            assert table.lookup(method, 0.9).coverage >= table.lookup(method, 0.8).coverage

    def test_failed_fits_count_as_failures(self):
        # logistic at d = 5, n = 30, seed 3: the fits of two evaluation and
        # one calibration replication stop at max_iter
        config = self._config(d=5, n=30, reps=40, methods=("oracle",))
        row = self._table(config, "logistic_wellspec", seed=3).lookup("oracle", 0.9)
        assert (row.reps, row.failures) == (38, 2)

    def test_failed_bootstrap_counts_for_the_bootstrap_methods_only(self, monkeypatch):
        # replications 1 and 4 get a bootstrap over its failure budget
        config = self._config(reps=10, B=100)
        clean = self._table(config)
        calls = []
        statistics = experiments._bootstrap_statistics

        def failing(fit, B, seed):
            calls.append(seed)
            if len(calls) in (2, 5):
                raise TooManyFailures("forced")
            return statistics(fit, B, seed)

        monkeypatch.setattr(experiments, "_bootstrap_statistics", failing)
        table = self._table(config)
        assert len(calls) == 10
        for level in config.deltas:
            assert table.lookup("oracle", level) == clean.lookup("oracle", level)
            for method in ("bootwald", "bootlr"):
                row, ref = table.lookup(method, level), clean.lookup(method, level)
                assert (ref.reps, ref.failures) == (10, 0)
                assert (row.reps, row.failures) == (8, 2)

    def test_method_subset(self):
        table = self._table(self._config(methods=("oracle",), reps=10, B=50))
        assert {row.method for row in table.rows} == {"oracle"}
        with pytest.raises(KeyError):
            table.lookup("bootwald", 0.9)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            self._config(methods=("jackknife",))
        with pytest.raises(DomainError):
            self._config(deltas=(0.9, 1.0))
        with pytest.raises(DomainError):
            self._config(reps=0)
        with pytest.raises(DomainError):
            self._config(n=0)
        with pytest.raises(DomainError):
            self._config(d=0)
        with pytest.raises(DomainError, match="unknown process kind"):
            self._config(processes=("linear_wellspec", "linear_bogus"))


class TestCoverageCsv:
    def _rows(self, reps):
        config = CoverageTableExperiment(d=2, n=40, deltas=(0.9,), reps=reps, B=60)
        return _process_coverage(config, "linear_wellspec", 0)

    def test_format_metadata_and_round_trip(self, tmp_path):
        rows = self._rows(8)
        path = tmp_path / "coverage.csv"
        write_table(rows, path, metadata={"n": 40, "d": 2})
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "# d=2"
        assert lines[2] == "# n=40"
        assert lines[3] == "model,method,delta,coverage,stderr,reps,failures"
        first = lines[4].split(",")
        assert first[0] == "linear_wellspec"
        assert first[2] == "0.9"
        row = rows[0]
        assert float(first[3]) == row.coverage
        assert int(first[5]) == row.reps

    def test_metadata_optional(self, tmp_path):
        path = tmp_path / "coverage.csv"
        write_table(self._rows(5), path)
        assert path.read_text().splitlines()[1].startswith("model,")
