from dataclasses import replace

import numpy as np
import pytest

from streamopt import (DataError, EventLineIncidence, InfeasibleError,
                       LineCatalog, Scheme, cost, count_partitions,
                       enumerate_optimal, extreme_schemes, mc_prescale_check,
                       oracle, read_cost, restricted_growth_strings,
                       storage_cost)
from helpers import (build_catalog, random_clustered_instance,
                     random_instance, random_scheme,
                     reference_mc_prescale_check,
                     reference_restricted_growth_strings)


def three_line_instance():
    cat = build_catalog([("l1", 1.0, True, False, "l1"),
                         ("l2", 1.0, True, False, "l2"),
                         ("l3", 1.0, True, False, "l3")])
    inc = EventLineIncidence(3, 3, [(0, 0), (2, 0), (0, 1), (1, 1), (1, 2)])
    return inc, cat


def partition_costs(inc, cat, n_streams):
    """Line-level read cost of every canonical partition, in enumeration
    order."""
    return [read_cost(inc, cat, Scheme(n_streams, code)).total
            for code in restricted_growth_strings(cat.n_modules, n_streams)]


class TestPartitionEnumeration:
    def test_three_items_two_blocks(self):
        codes = [tuple(a) for a in restricted_growth_strings(3, 2)]
        assert codes == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
        assert count_partitions(3, 2) == 4

    @pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (5, 3), (6, 4), (7, 7)])
    def test_count_matches_enumeration(self, n, k):
        assert count_partitions(n, k) == \
            sum(1 for _ in restricted_growth_strings(n, k))

    def test_full_bell_numbers(self):
        # B(1..6) = 1, 2, 5, 15, 52, 203
        assert [count_partitions(n, n) for n in range(1, 7)] == \
            [1, 2, 5, 15, 52, 203]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_codes_match_reference(self, n):
        for k in range(1, 5):
            codes = restricted_growth_strings(n, k)
            assert codes.dtype == np.int8
            assert codes.shape == (count_partitions(n, k), n)
            assert [tuple(c) for c in codes.tolist()] == \
                list(reference_restricted_growth_strings(n, k))

    def test_count_at_the_caps(self):
        assert len(restricted_growth_strings(12, 4)) == 700_075

    def test_codes_are_canonical(self):
        for code in restricted_growth_strings(6, 3):
            assert code[0] == 0
            for i in range(1, 6):
                assert code[i] <= max(code[:i]) + 1
                assert code[i] < 3


class TestEnumerateOptimal:
    def test_three_line_instance(self):
        inc, cat = three_line_instance()
        result = enumerate_optimal(inc, cat, 2)
        assert result.best_cost == 6.0
        assert result.best_scheme.assignment == (0, 1, 1)
        assert result.n_evaluated == 4
        assert sorted(partition_costs(inc, cat, 2)) == [6.0, 7.0, 8.0, 9.0]

    def test_single_stream_single_evaluation(self):
        inc, cat = three_line_instance()
        result = enumerate_optimal(inc, cat, 1)
        assert result.n_evaluated == 1
        assert result.best_cost == 9.0

    def test_best_cost_bounds_every_partition(self):
        rng = np.random.default_rng(52)
        inc, cat = random_instance(rng, max_modules=5)
        result = enumerate_optimal(inc, cat, 3)
        costs = partition_costs(inc, cat, 3)
        assert result.n_evaluated == len(costs)
        assert result.best_cost == pytest.approx(min(costs), rel=1e-9)
        assert read_cost(inc, cat, result.best_scheme).total == \
            pytest.approx(result.best_cost, rel=1e-9)

    def test_module_reordering_invariance(self):
        rng = np.random.default_rng(53)
        inc, cat = random_instance(rng, max_modules=6, prescale_mix=False)
        perm = rng.permutation(cat.n_modules)
        line_perm = [int(perm[m]) for m in cat.module_of_line]
        reordered_cat = build_catalog([
            (rec.name, rec.prescale, rec.is_turbo, rec.is_persist_reco,
             f"m{line_perm[i]:02d}")
            for i, rec in enumerate(cat.lines)
        ])
        a = enumerate_optimal(inc, cat, 2)
        b = enumerate_optimal(inc, reordered_cat, 2)
        assert a.best_cost == pytest.approx(b.best_cost, rel=1e-12)

    def test_per_unit_extreme_is_optimal_at_full_width(self):
        rng = np.random.default_rng(54)
        inc, cat = random_instance(rng, max_modules=4)
        _, per_unit = extreme_schemes(cat)
        result = enumerate_optimal(inc, cat, cat.n_modules)
        assert result.best_cost == pytest.approx(
            read_cost(inc, cat, per_unit).total, rel=1e-12)

    def test_storage_objective_prefers_single_stream(self):
        rng = np.random.default_rng(55)
        inc, cat = random_instance(rng, max_modules=5)
        single, _ = extreme_schemes(cat)
        result = enumerate_optimal(inc, cat, 2, objective="S")
        assert result.best_cost == pytest.approx(
            storage_cost(inc, cat, single).total, rel=1e-12)
        assert len(set(result.best_scheme.assignment)) == 1

    def test_weighted_objective_interpolates(self):
        inc, cat = three_line_instance()
        t_only = enumerate_optimal(inc, cat, 2, objective="T")
        weighted = enumerate_optimal(inc, cat, 2, objective="weighted:0.0")
        assert weighted.best_cost == pytest.approx(t_only.best_cost, rel=1e-12)

    @pytest.mark.parametrize("objective", ["T", "S", "weighted:0.37"])
    def test_batch_size_changes_no_result(self, monkeypatch, objective):
        rng = np.random.default_rng(58)
        for _ in range(4):
            inc, cat, n_streams = random_clustered_instance(rng)
            want = enumerate_optimal(inc, cat, n_streams, objective)
            monkeypatch.setattr(cost, "_BATCH_ELEMS", 1)
            got = enumerate_optimal(inc, cat, n_streams, objective)
            monkeypatch.undo()
            assert got == want

    def test_module_cap(self):
        rng = np.random.default_rng(56)
        cat = build_catalog([(f"l{i}", 1.0, True, False, f"l{i}")
                             for i in range(13)])
        inc = EventLineIncidence(2, 13, [(0, i) for i in range(13)] + [(1, 0)])
        with pytest.raises(InfeasibleError, match="12 modules"):
            enumerate_optimal(inc, cat, 2)

    def test_stream_cap(self):
        inc, cat = three_line_instance()
        with pytest.raises(InfeasibleError, match="streams"):
            enumerate_optimal(inc, cat, 5)


class TestMonteCarlo:
    def test_unit_prescales_are_exact(self):
        inc, cat = three_line_instance()
        scheme = Scheme(2, (1, 0, 0))
        check = mc_prescale_check(inc, cat, scheme, 500, seed=1)
        assert check.read_mean == read_cost(inc, cat, scheme).total
        assert check.read_se == 0.0
        assert check.storage_mean == storage_cost(inc, cat, scheme).total
        assert check.storage_se == 0.0

    def test_single_prescaled_line(self):
        cat = build_catalog([("a", 0.5, True, False, "a")])
        inc = EventLineIncidence(1, 1, [(0, 0)])
        check = mc_prescale_check(inc, cat, Scheme(1, (0,)), 20000, seed=2)
        assert abs(check.read_mean - 0.5) <= 3 * check.read_se
        assert check.read_se == pytest.approx(0.5 / np.sqrt(20000), rel=0.05)

    def test_random_instances_match_analytic(self):
        rng = np.random.default_rng(57)
        for k in range(5):
            inc, cat = random_instance(rng, max_events=120, max_modules=5)
            scheme = random_scheme(rng, cat.n_modules, 2)
            check = mc_prescale_check(inc, cat, scheme, 30000, seed=100 + k)
            t = read_cost(inc, cat, scheme).total
            s = storage_cost(inc, cat, scheme).total
            assert abs(check.read_mean - t) <= 3 * check.read_se + 1e-9
            assert abs(check.storage_mean - s) <= 3 * check.storage_se + 1e-9

    def test_rejects_zero_samples(self):
        inc, cat = three_line_instance()
        with pytest.raises(ValueError):
            mc_prescale_check(inc, cat, Scheme(1, (0, 0, 0)), 0, seed=0)

    def test_rejects_extra_units(self):
        inc, cat = three_line_instance()
        with pytest.raises(DataError, match="6 units"):
            mc_prescale_check(inc, cat, Scheme(2, (0, 1, 0, 1, 0, 1)), 10,
                              seed=0)

    def test_rejects_missing_units(self):
        inc, cat = three_line_instance()
        with pytest.raises(DataError, match="no stream assignment"):
            mc_prescale_check(inc, cat, Scheme(2, (0, 1)), 10, seed=0)

    def test_rejects_inconsistent_instance(self):
        inc, cat = three_line_instance()
        short = build_catalog([("l1", 1.0, True, False, "l1"),
                               ("l2", 1.0, True, False, "l2")])
        with pytest.raises(DataError, match="lines"):
            mc_prescale_check(inc, short, Scheme(1, (0, 0)), 10, seed=0)


def with_zero_prescales(rng, cat):
    """The catalog with about a quarter of its lines at prescale 0."""
    return LineCatalog(tuple(
        replace(rec, prescale=0.0) if rng.random() < 0.25 else rec
        for rec in cat.lines))


class TestMonteCarloReference:
    """The sampler equals a compare of every entry with its draw, exactly."""

    CASES = {
        "mixed": {},
        "unit-prescales": dict(prescale_mix=False),
        "no-turbo": dict(turbo_prob=0.0),
        "no-persist-reco": dict(pr_prob=0.0),
        "all-persist-reco": dict(pr_prob=1.0, turbo_prob=0.0),
        "zero-prescales": dict(zero=True),
        # Many lines per module, so that most runs mix sure and live entries.
        "mixed-runs": dict(lines_range=(3, 6), rate_range=(0.1, 0.4)),
    }

    @staticmethod
    def check(inc, cat, scheme, n_samples, seed):
        got = mc_prescale_check(inc, cat, scheme, n_samples, seed,
                                base_kb=7.0, shared_kb=40.0)
        want = reference_mc_prescale_check(inc, cat, scheme, n_samples, seed,
                                           base_kb=7.0, shared_kb=40.0)
        assert (got.read_mean, got.read_se, got.storage_mean, got.storage_se,
                got.n_samples) == want

    @pytest.mark.parametrize("case", CASES)
    def test_random_instances(self, case):
        rng = np.random.default_rng(59)
        options = dict(self.CASES[case])
        zero = options.pop("zero", False)
        for k in range(6):
            inc, cat = random_instance(rng, max_events=150, max_modules=6,
                                       **options)
            if zero:
                cat = with_zero_prescales(rng, cat)
            scheme = random_scheme(rng, cat.n_modules, int(rng.integers(1, 4)))
            for n_samples in (1, 2, 333):
                self.check(inc, cat, scheme, n_samples, seed=k)

    def test_run_with_sure_and_live_entries(self):
        # Event 0 passes a unit and a prescaled line of one module, event 1
        # only the prescaled line, event 2 a persist-reco line at 0.3.
        cat = build_catalog([("a", 1.0, True, True, "m"),
                             ("b", 0.5, True, True, "m"),
                             ("c", 0.3, False, True, "n")])
        inc = EventLineIncidence(3, 3, [(0, 0), (0, 1), (1, 1), (2, 2),
                                        (0, 2)])
        for scheme in (Scheme(1, (0, 0)), Scheme(2, (0, 1)),
                       Scheme(2, (1, 0))):
            self.check(inc, cat, scheme, 500, seed=3)

    @pytest.mark.parametrize("budget", [1, 1 << 30])
    def test_batch_budget_changes_no_result(self, monkeypatch, budget):
        rng = np.random.default_rng(60)
        for k in range(3):
            inc, cat = random_instance(rng, max_events=150, max_modules=6)
            scheme = random_scheme(rng, cat.n_modules, 3)
            want = mc_prescale_check(inc, cat, scheme, 300, seed=k)
            monkeypatch.setattr(oracle, "_MC_ELEMS", budget)
            got = mc_prescale_check(inc, cat, scheme, 300, seed=k)
            monkeypatch.undo()
            assert got == want
