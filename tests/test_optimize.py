import concurrent.futures
import functools
import importlib
import multiprocessing
import os

import numpy as np
import pytest

from streamopt import relax
from streamopt import (EventLineIncidence, InfeasibleError, OptimizerConfig,
                       Scheme, SchemeScorer, SyntheticSpec, enumerate_optimal,
                       extreme_schemes, fold_modules, gen_synthetic, optimize,
                       read_cost, storage_cost, sweep_streams)
from streamopt.model import _row_entropy
from helpers import build_catalog, random_clustered_instance, random_instance

# The package binds the name ``optimize`` to the function.
optimize_module = importlib.import_module("streamopt.optimize")


def canonical(scheme):
    """The scheme's partition: streams renumbered in order of first use."""
    labels = {}
    return tuple(labels.setdefault(s, len(labels)) for s in scheme.assignment)


def three_line_instance():
    cat = build_catalog([("l1", 1.0, True, False, "l1"),
                         ("l2", 1.0, True, False, "l2"),
                         ("l3", 1.0, True, False, "l3")])
    inc = EventLineIncidence(3, 3, [(0, 0), (2, 0), (0, 1), (1, 1), (1, 2)])
    return inc, cat


def duplicate_module_instance():
    """Two identical heavy modules plus two disjoint light ones."""
    rows = [("a", 1.0, True, False, "A"), ("b", 1.0, True, False, "B"),
            ("c", 1.0, True, False, "C"), ("d", 1.0, True, False, "D")]
    cat = build_catalog(rows)
    entries = [(e, 0) for e in range(10)] + [(e, 1) for e in range(10)]
    entries += [(e, 2) for e in range(10, 15)]
    entries += [(e, 3) for e in range(15, 20)]
    return EventLineIncidence(20, 4, entries), cat


class TestConfig:
    @pytest.mark.parametrize("bad", [
        dict(n_streams=0), dict(n_streams=2, n_restarts=0),
        dict(n_streams=2, max_iters=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            OptimizerConfig(**bad)


class TestOptimize:
    def test_finds_known_optimum(self):
        inc, cat = three_line_instance()
        folded = fold_modules(inc, cat)
        result = optimize(folded, cat,
                          OptimizerConfig(n_streams=2, n_restarts=10, seed=1))
        assert result.best_cost_discrete.total == 6.0
        assert set(result.best_scheme.assignment) == {0, 1}

    def test_single_stream_returns_immediately(self):
        inc, cat = three_line_instance()
        folded = fold_modules(inc, cat)
        result = optimize(folded, cat, OptimizerConfig(n_streams=1, seed=0))
        assert result.best_scheme == Scheme(1, (0, 0, 0))
        assert result.per_restart[0].iterations == 0
        assert result.best_cost_discrete.total == \
            read_cost(inc, cat, Scheme(1, (0, 0, 0))).total

    def test_duplicate_modules_stay_together(self):
        # Keeping the duplicates together is strictly optimal
        # (oracle-confirmed).
        inc, cat = duplicate_module_instance()
        folded = fold_modules(inc, cat)
        oracle = enumerate_optimal(inc, cat, 2)
        result = optimize(folded, cat,
                          OptimizerConfig(n_streams=2, n_restarts=10, seed=3))
        assert result.best_cost_discrete.total == pytest.approx(
            oracle.best_cost, rel=1e-12)
        best = result.best_scheme.assignment
        assert best[0] == best[1]

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(44)
        inc, cat = random_instance(rng)
        folded = fold_modules(inc, cat)
        config = OptimizerConfig(n_streams=3, n_restarts=5, seed=11)
        assert optimize(folded, cat, config) == optimize(folded, cat, config)

    def test_seed_changes_trajectories(self):
        rng = np.random.default_rng(45)
        inc, cat = random_instance(rng)
        folded = fold_modules(inc, cat)
        a = optimize(folded, cat, OptimizerConfig(n_streams=2, n_restarts=3,
                                                  seed=1))
        b = optimize(folded, cat, OptimizerConfig(n_streams=2, n_restarts=3,
                                                  seed=2))
        assert [r.relaxed_loss for r in a.per_restart] != \
            [r.relaxed_loss for r in b.per_restart]

    def test_best_is_min_over_restarts(self):
        rng = np.random.default_rng(46)
        inc, cat = random_instance(rng)
        folded = fold_modules(inc, cat)
        result = optimize(folded, cat,
                          OptimizerConfig(n_streams=2, n_restarts=8, seed=5))
        costs = [r.discrete_cost for r in result.per_restart if not r.failed]
        assert result.best_cost_discrete.total == min(costs)
        assert len(result.per_restart) == 8
        assert [r.index for r in result.per_restart] == list(range(8))

    def test_returned_scheme_is_feasible(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            inc, cat = random_instance(rng)
            folded = fold_modules(inc, cat)
            k = int(rng.integers(1, min(4, cat.n_modules) + 1))
            result = optimize(folded, cat,
                              OptimizerConfig(n_streams=k, n_restarts=3,
                                              seed=9))
            scheme = result.best_scheme
            assert scheme.n_units == cat.n_modules
            assert scheme.n_streams == k
            assert all(0 <= s < k for s in scheme.assignment)

    def test_relabeled_tie_goes_to_lowest_restart(self):
        # Both restarts end in one partition under different stream labels;
        # the later one's cost rounds an ulp lower, and must not win on it.
        inc, cat = random_instance(np.random.default_rng(18), max_events=60,
                                   max_modules=5)
        result = optimize(fold_modules(inc, cat), cat,
                          OptimizerConfig(n_streams=3, n_restarts=2, seed=2,
                                          max_iters=200))
        first, second = result.per_restart
        assert first.scheme != second.scheme
        assert canonical(first.scheme) == canonical(second.scheme)
        assert second.discrete_cost < first.discrete_cost
        assert second.discrete_cost == pytest.approx(first.discrete_cost,
                                                     rel=1e-12)
        assert result.best_scheme == first.scheme

    def test_too_many_streams_is_infeasible(self):
        inc, cat = three_line_instance()
        folded = fold_modules(inc, cat)
        with pytest.raises(InfeasibleError, match="exceeds"):
            optimize(folded, cat, OptimizerConfig(n_streams=4))

    def test_nonfinite_restart_is_discarded(self, monkeypatch):
        inc, cat = three_line_instance()
        folded = fold_modules(inc, cat)

        real = relax.LossEvaluator.loss_and_gradient

        def poisoned(self, probs):
            loss, grad = real(self, probs)
            if probs.ndim == 3 and probs.shape[0] == 3:
                # Only the full batch: restart 1 diverges on its first step.
                loss = loss.copy()
                loss[1] = np.nan
            return loss, grad

        monkeypatch.setattr(relax.LossEvaluator, "loss_and_gradient", poisoned)
        result = optimize(folded, cat,
                          OptimizerConfig(n_streams=2, n_restarts=3, seed=2))
        failed = [r for r in result.per_restart if r.failed]
        assert len(failed) == 1
        assert failed[0].scheme is None
        assert failed[0].stop_reason == "non_finite"
        assert result.best_cost_discrete.total == 6.0


class TestSettledStop:
    def test_stopping_settled_restarts_changes_no_result(self, monkeypatch):
        rng = np.random.default_rng(20261018)
        settled = 0
        for trial in range(5):
            inc, cat, n_streams = random_clustered_instance(rng)
            folded = fold_modules(inc, cat)
            config = OptimizerConfig(n_streams=n_streams, n_restarts=4,
                                     seed=700 + trial)
            stopped = optimize(folded, cat, config)
            with monkeypatch.context() as patch:
                # No entropy is below zero, so no restart ever settles.
                patch.setattr(optimize_module, "SETTLED_ENTROPY", 0.0)
                full = optimize(folded, cat, config)
            assert stopped.best_scheme == full.best_scheme
            assert stopped.best_cost_discrete == full.best_cost_discrete
            assert [r.discrete_cost for r in stopped.per_restart] == \
                [r.discrete_cost for r in full.per_restart]
            assert not any(r.iterations and r.stop_reason == "settled"
                           for r in full.per_restart)
            settled += sum(r.stop_reason == "settled"
                           and r.iterations < config.max_iters
                           for r in stopped.per_restart)
        assert settled >= 1

    def test_every_settled_row_passes_the_gate(self):
        # The gate skips the entropy pass unless every row sum of a restart
        # is below the bound, so it must hold for every row that could
        # settle, including the worst case of one runner-up stream.
        bound = optimize_module._settle_sum(
            optimize_module.SETTLED_ENTROPY + 0.01)
        assert bound == pytest.approx(1.1028, abs=1e-4)
        rng = np.random.default_rng(7)
        settled = 0
        for n_streams in (2, 3, 5, 8, 20):
            logits = rng.normal(0.0, 1.0, (20000, n_streams))
            logits *= rng.uniform(0.0, 12.0, (20000, 1))
            logits[:5000, 2:] -= 40.0  # nearly two-point rows
            probs = logits - logits.max(axis=1, keepdims=True)
            np.exp(probs, out=probs)
            sums = probs.sum(axis=1)
            probs /= sums[:, None]
            below = _row_entropy(probs) < optimize_module.SETTLED_ENTROPY
            settled += below.sum()
            assert (sums[below] < bound).all()
        assert settled > 10000

    def test_cap_below_the_settle_step(self):
        inc, cat = duplicate_module_instance()
        folded = fold_modules(inc, cat)
        config = OptimizerConfig(n_streams=2, n_restarts=1, seed=1)
        record = optimize(folded, cat, config).per_restart[0]
        assert record.stop_reason == "settled"
        assert record.max_row_entropy < optimize_module.SETTLED_ENTROPY
        assert 1 <= record.best_found_at <= record.iterations
        capped_at = record.iterations - 1
        capped = optimize(folded, cat, OptimizerConfig(
            n_streams=2, n_restarts=1, max_iters=capped_at, seed=1))
        record = capped.per_restart[0]
        assert record.stop_reason == "max_iters"
        assert record.iterations == capped_at


def clustered_sweep_instance():
    spec = SyntheticSpec(n_events=400, n_modules=6, lines_per_module=(1, 3),
                         n_latent_clusters=3, intra_cluster_pass_rate=0.5,
                         cross_cluster_pass_rate=0.03,
                         prescale_options=(1.0, 0.5), seed=5)
    instance = gen_synthetic(spec)
    return instance.incidence, instance.catalog


def serial_points(inc, cat, counts, config):
    """Per-K ``optimize`` and storage, one after another.  The storage comes
    from a scorer, as the sweep's does: this checks the pool, not the
    formula."""
    scorer = SchemeScorer(inc, cat)
    points = []
    for k in counts:
        result = optimize(scorer.fold, cat, OptimizerConfig(
            k, config.n_restarts, config.max_iters, config.seed))
        points.append((k, result, scorer.storage_cost(result.best_scheme)))
    return points


class TestSweep:
    # Three distinct descents (4, 2, 3) for two workers, a repeated K and
    # both shortcuts, so that the order of the points is tested too.
    COUNTS = [4, 1, 2, 3, 6, 2]

    def check_equals_serial(self, inc, cat, config):
        points = sweep_streams(SchemeScorer(inc, cat), self.COUNTS, config)
        # Dataclass equality: the best scheme and costs, every
        # RestartRecord and the StorageBreakdown, field for field.
        assert ([(p.n_streams, p.result, p.storage) for p in points]
                == serial_points(inc, cat, self.COUNTS, config))
        assert [p.descent_s is None for p in points] == [
            k in (1, 6) for k in self.COUNTS]

    def test_parallel_points_equal_serial_optimize(self, monkeypatch):
        inc, cat = clustered_sweep_instance()
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            CountingPool)
        config = OptimizerConfig(n_streams=1, n_restarts=3, max_iters=800,
                                 seed=3)
        self.check_equals_serial(inc, cat, config)
        assert pools == [(2,)]

    def test_single_cpu_starts_no_pool(self, monkeypatch):
        inc, cat = clustered_sweep_instance()

        def no_pool(*args, **kwargs):
            raise AssertionError("a single-CPU sweep started a pool")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        config = OptimizerConfig(n_streams=1, n_restarts=3, max_iters=800,
                                 seed=3)
        self.check_equals_serial(inc, cat, config)
        assert optimize_module.sweep_workers(self.COUNTS, 6) == 1

    def test_spawned_pool_points_equal_serial_optimize(self, monkeypatch):
        # The spawn start method, the default on macOS and Windows, pickles
        # the initializer's fold and catalog instead of forking them.
        inc, cat = clustered_sweep_instance()
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            functools.partial(
                                concurrent.futures.ProcessPoolExecutor,
                                mp_context=spawn))
        config = OptimizerConfig(n_streams=1, n_restarts=3, max_iters=800,
                                 seed=3)
        self.check_equals_serial(inc, cat, config)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpu_count, workers", [(8, 3), (2, 2), (None, 1)])
    def test_workers_without_cpu_affinity(self, monkeypatch, cpu_count,
                                          workers):
        # Platforms such as macOS have no sched_getaffinity; the sweep then
        # counts every CPU, or one when even that count is unknown.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert optimize_module.sweep_workers(self.COUNTS, 6) == workers

    def test_infeasible_count_checked_before_any_descent(self, monkeypatch):
        inc, cat = clustered_sweep_instance()

        def no_descent(*args, **kwargs):
            raise AssertionError("a descent ran")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_descent)
        monkeypatch.setattr(optimize_module, "optimize", no_descent)
        with pytest.raises(InfeasibleError, match="n_streams=7"):
            sweep_streams(SchemeScorer(inc, cat), [2, 3, 7],
                          OptimizerConfig(n_streams=1, seed=0))

    def test_endpoints_match_extremes(self):
        rng = np.random.default_rng(48)
        inc, cat = random_instance(rng, max_modules=4, max_events=120)
        single, per_unit = extreme_schemes(cat)
        config = OptimizerConfig(n_streams=1, n_restarts=20, seed=6)
        points = sweep_streams(SchemeScorer(inc, cat), [1, cat.n_modules],
                               config)
        assert points[0].result.best_cost_discrete.total == pytest.approx(
            read_cost(inc, cat, single).total, rel=1e-9)
        assert points[-1].result.best_cost_discrete.total == pytest.approx(
            read_cost(inc, cat, per_unit).total, rel=1e-9)

    def test_reports_storage_of_best_scheme(self):
        rng = np.random.default_rng(49)
        inc, cat = random_instance(rng, max_modules=5)
        config = OptimizerConfig(n_streams=1, n_restarts=5, seed=6)
        points = sweep_streams(SchemeScorer(inc, cat), [2], config)
        point = points[0]
        assert point.n_streams == 2
        assert point.storage.total == pytest.approx(
            storage_cost(inc, cat, point.result.best_scheme).total, rel=1e-12)

    def test_rejects_bad_counts(self):
        rng = np.random.default_rng(50)
        inc, cat = random_instance(rng)
        with pytest.raises(InfeasibleError):
            sweep_streams(SchemeScorer(inc, cat), [0],
                          OptimizerConfig(n_streams=1, seed=0))
