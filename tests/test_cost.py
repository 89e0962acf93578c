import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamopt import (DataError, EventLineIncidence, InfeasibleError,
                       LineCatalog, Scheme, SchemeScorer, extreme_schemes,
                       fold_modules, parse_objective, read_cost,
                       read_cost_from_modules, storage_cost)
from streamopt.cost import first_minimum
from streamopt.oracle import enumerate_optimal
from helpers import build_catalog, brute_force_read_cost, random_instance, \
    random_scheme


def three_line_instance():
    """l1 selects {e0,e2}, l2 selects {e0,e1}, l3 selects {e1}."""
    cat = build_catalog([("l1", 1.0, True, False, "l1"),
                         ("l2", 1.0, True, False, "l2"),
                         ("l3", 1.0, True, False, "l3")])
    inc = EventLineIncidence(3, 3, [(0, 0), (2, 0), (0, 1), (1, 1), (1, 2)])
    return inc, cat


class TestReadCost:
    def test_two_stream_arithmetic(self):
        # Stream A: 2 lines over 10 events; stream B: 1 line over 5 events.
        rows = [("a1", 1.0, True, False, "A"), ("a2", 1.0, True, False, "A"),
                ("b1", 1.0, True, False, "B")]
        cat = build_catalog(rows)
        entries = [(e, 0) for e in range(10)] + [(e, 1) for e in range(10)]
        entries += [(e, 2) for e in range(10, 15)]
        inc = EventLineIncidence(15, 3, entries)
        result = read_cost(inc, cat, Scheme(2, (0, 1)))
        assert result.total == 25.0
        assert [r.contribution for r in result.per_stream] == [20.0, 5.0]
        assert [r.n_lines for r in result.per_stream] == [2, 1]

    def test_prescaled_expectation(self):
        # One event, two lines at prescale 0.5: E = 1 - 0.25, T = 2 * 0.75.
        cat = build_catalog([("a", 0.5, True, False, "a"),
                             ("b", 0.5, True, False, "b")])
        inc = EventLineIncidence(1, 2, [(0, 0), (0, 1)])
        result = read_cost(inc, cat, Scheme(1, (0, 0)))
        assert result.per_stream[0].expected_events == pytest.approx(0.75, abs=1e-12)
        assert result.total == pytest.approx(1.5, abs=1e-12)

    def test_three_line_optimum_value(self):
        # Frozen from exhaustive enumeration: {l2,l3}|{l1} is the optimum.
        inc, cat = three_line_instance()
        assert read_cost(inc, cat, Scheme(2, (1, 0, 0))).total == 6.0

    def test_matches_set_union_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            inc, cat = random_instance(rng, prescale_mix=False)
            scheme = random_scheme(rng, cat.n_modules,
                                   int(rng.integers(1, 5)))
            got = read_cost(inc, cat, scheme).total
            want = brute_force_read_cost(inc, cat, scheme)
            assert got == pytest.approx(want, rel=1e-12)

    def test_unassigned_module_error(self):
        inc, cat = three_line_instance()
        with pytest.raises(DataError, match="l3"):
            read_cost(inc, cat, Scheme(2, (0, 1)))

    def test_stream_relabeling_invariance(self):
        rng = np.random.default_rng(22)
        inc, cat = random_instance(rng)
        scheme = random_scheme(rng, cat.n_modules, 3)
        perm = [2, 0, 1]
        relabeled = Scheme(3, tuple(perm[s] for s in scheme.assignment))
        assert read_cost(inc, cat, scheme).total == pytest.approx(
            read_cost(inc, cat, relabeled).total, rel=1e-12)

    def test_event_order_invariance(self):
        rng = np.random.default_rng(23)
        inc, cat = random_instance(rng)
        scheme = random_scheme(rng, cat.n_modules, 2)
        perm = rng.permutation(inc.n_events)
        shuffled = EventLineIncidence(
            inc.n_events, inc.n_lines,
            [(int(perm[e]), l) for e, l in inc.pairs()])
        assert read_cost(inc, cat, scheme).total == pytest.approx(
            read_cost(shuffled, cat, scheme).total, rel=1e-12)

    def test_empty_stream_costs_positive_zero(self):
        inc, cat = three_line_instance()
        scheme = Scheme(3, (0, 0, 1))
        for cost in (read_cost(inc, cat, scheme),
                     read_cost_from_modules(fold_modules(inc, cat), cat,
                                            scheme)):
            empty = cost.per_stream[2]
            assert math.copysign(1.0, empty.expected_events) == 1.0
            assert math.copysign(1.0, empty.contribution) == 1.0

    def test_scorer_of_a_fold_scores_read_cost_only(self):
        inc, cat = three_line_instance()
        scorer = SchemeScorer(None, cat, fold=fold_modules(inc, cat))
        scheme = Scheme(2, (0, 0, 1))
        assert scorer.read_cost(scheme) == read_cost(inc, cat, scheme)
        with pytest.raises(ValueError, match="line-level incidence"):
            scorer.storage_cost(scheme)
        one_module = build_catalog([(f"l{i}", 1.0, True, False, "m")
                                    for i in (1, 2, 3)])
        with pytest.raises(DataError, match="does not match catalog"):
            SchemeScorer(None, cat, fold=fold_modules(inc, one_module))

    def test_scorer_needs_the_incidence_or_its_fold(self):
        _, cat = three_line_instance()
        with pytest.raises(ValueError, match="incidence or its fold"):
            SchemeScorer(None, cat)

    def test_module_level_evaluation_agrees(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            inc, cat = random_instance(rng)
            folded = fold_modules(inc, cat)
            scheme = random_scheme(rng, cat.n_modules, int(rng.integers(1, 4)))
            assert read_cost_from_modules(folded, cat, scheme).total == \
                pytest.approx(read_cost(inc, cat, scheme).total, rel=1e-12)


class TestStorageCost:
    def test_turbo_plus_persist_reco(self):
        # 3 turbo lines, one of them persist-reco: 10*3 + 50.
        cat = build_catalog([("a", 1.0, True, True, "m"),
                             ("b", 1.0, True, False, "m"),
                             ("c", 1.0, True, False, "m")])
        inc = EventLineIncidence(1, 3, [(0, 0), (0, 1), (0, 2)])
        assert storage_cost(inc, cat, Scheme(1, (0,))).total == 80.0

    def test_event_outside_stream_contributes_nothing(self):
        cat = build_catalog([("a", 1.0, True, True, "a"),
                             ("b", 1.0, True, True, "b")])
        inc = EventLineIncidence(2, 2, [(0, 0), (1, 1)])
        result = storage_cost(inc, cat, Scheme(2, (0, 1)))
        assert result.per_stream == (60.0, 60.0)

    def test_prescale_enters_both_terms(self):
        # Single turbo+persist-reco line at 0.5: 10*0.5 + 50*0.5 = 30 kB.
        cat = build_catalog([("a", 0.5, True, True, "a")])
        inc = EventLineIncidence(1, 1, [(0, 0)])
        assert storage_cost(inc, cat, Scheme(1, (0,))).total == \
            pytest.approx(30.0, abs=1e-12)

    def test_non_turbo_line_skips_base_term(self):
        cat = build_catalog([("a", 1.0, False, True, "a")])
        inc = EventLineIncidence(1, 1, [(0, 0)])
        assert storage_cost(inc, cat, Scheme(1, (0,))).total == 50.0

    def test_size_constants_configurable(self):
        cat = build_catalog([("a", 1.0, True, True, "a")])
        inc = EventLineIncidence(1, 1, [(0, 0)])
        result = storage_cost(inc, cat, Scheme(1, (0,)), base_kb=1.0,
                              shared_kb=2.0)
        assert result.total == 3.0


class TestExtremes:
    def test_shapes(self):
        rng = np.random.default_rng(25)
        _, cat = random_instance(rng, max_modules=4)
        single, per_unit = extreme_schemes(cat)
        assert single.n_streams == 1
        assert per_unit.n_streams == cat.n_modules
        assert per_unit.assignment == tuple(range(cat.n_modules))

    def test_per_unit_minimizes_read_cost(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            inc, cat = random_instance(rng)
            _, per_unit = extreme_schemes(cat)
            floor = read_cost(inc, cat, per_unit).total
            for _ in range(20):
                scheme = random_scheme(rng, cat.n_modules,
                                       int(rng.integers(1, cat.n_modules + 1)))
                assert read_cost(inc, cat, scheme).total >= floor - 1e-9

    def test_single_stream_minimizes_storage(self):
        rng = np.random.default_rng(27)
        for _ in range(5):
            inc, cat = random_instance(rng)
            single, _ = extreme_schemes(cat)
            floor = storage_cost(inc, cat, single).total
            for _ in range(20):
                scheme = random_scheme(rng, cat.n_modules,
                                       int(rng.integers(1, cat.n_modules + 1)))
                assert storage_cost(inc, cat, scheme).total >= floor - 1e-9


class TestMonotonicity:
    def test_merging_streams_never_lowers_read_cost(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            inc, cat = random_instance(rng)
            scheme = random_scheme(rng, cat.n_modules, 4)
            a, b = rng.choice(4, size=2, replace=False)
            merged = Scheme(4, tuple(int(a) if s == b else s
                                     for s in scheme.assignment))
            assert read_cost(inc, cat, merged).total >= \
                read_cost(inc, cat, scheme).total - 1e-9

    def test_splitting_stream_never_lowers_storage(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            inc, cat = random_instance(rng, max_modules=6)
            scheme = Scheme(1, (0,) * cat.n_modules)
            split = Scheme(2, tuple(int(s) for s in
                                    rng.integers(0, 2, cat.n_modules)))
            assert storage_cost(inc, cat, split).total >= \
                storage_cost(inc, cat, scheme).total - 1e-9


class TestObjective:
    @pytest.mark.parametrize("token,expected", [
        ("T", (1.0, 0.0)), ("S", (0.0, 1.0)),
        ("weighted:0.25", (1.0, 0.25)), ("weighted:0", (1.0, 0.0)),
    ])
    def test_parse(self, token, expected):
        assert parse_objective(token) == expected

    @pytest.mark.parametrize("token", ["X", "weighted:", "weighted:-1",
                                       "weighted:abc", "weighted:nan",
                                       "weighted:inf", "weighted:1e400"])
    def test_parse_rejects(self, token):
        with pytest.raises(ValueError):
            parse_objective(token)

    def test_weight_zero_scores_read_cost_when_storage_overflows(self):
        # Every line is persist-reco, so S at shared_kb=1e308 overflows on
        # every scheme, which names the sizes; weight 0 never computes S.
        rng = np.random.default_rng(32)
        inc, cat = random_instance(rng, max_modules=5, pr_prob=1.0)
        scorer = SchemeScorer(inc, cat, shared_kb=1e308)
        assignments = np.array(list(itertools.product(range(2),
                                                      repeat=cat.n_modules)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for objective in ("S", "weighted:1"):
                with pytest.raises(InfeasibleError, match="--shared-kb"):
                    scorer.values(assignments, 2, objective)
            with pytest.raises(InfeasibleError, match="--shared-kb"):
                scorer.storage_cost(Scheme(2, tuple(assignments[1].tolist())))
            np.testing.assert_array_equal(
                scorer.values(assignments, 2, "weighted:0"),
                scorer.values(assignments, 2, "T"), strict=True)
            oracle = enumerate_optimal(inc, cat, 2, "weighted:0",
                                       shared_kb=1e308)
        assert oracle == enumerate_optimal(inc, cat, 2, "T")

    @pytest.mark.parametrize("flags", [
        None, dict(is_persist_reco=False), dict(is_turbo=False)],
        ids=["random-flags", "no-persist-reco", "no-turbo"])
    def test_scorer_matches_line_level_reference(self, flags):
        # Every assignment of small random instances: the values of one
        # batch against read_cost + w * storage_cost, and each scheme's
        # breakdowns field by field, with one more scheme whose last stream
        # is empty.  Flags, when given, are set on every line, which leaves
        # no persist-reco or no turbo line.
        rng = np.random.default_rng(30)
        for _ in range(4):
            inc, cat = random_instance(rng, max_events=120, max_modules=5)
            if flags is not None:
                cat = LineCatalog(tuple(replace(rec, **flags)
                                        for rec in cat.lines))
            scorer = SchemeScorer(inc, cat, base_kb=7.0, shared_kb=40.0)
            n_streams = int(rng.integers(1, 4))
            assignments = list(itertools.product(range(n_streams),
                                                 repeat=cat.n_modules))
            schemes = [Scheme(n_streams, a) for a in assignments]
            t = np.array([read_cost(inc, cat, s).total for s in schemes])
            s_kb = np.array([storage_cost(inc, cat, s, base_kb=7.0,
                                          shared_kb=40.0).total
                             for s in schemes])
            for objective, want in [("T", t), ("S", s_kb),
                                    ("weighted:0.5", t + 0.5 * s_kb),
                                    ("weighted:3", t + 3.0 * s_kb)]:
                np.testing.assert_allclose(
                    scorer.values(assignments, n_streams, objective),
                    want, rtol=1e-9, atol=1e-9)
            for scheme in schemes + [Scheme(n_streams + 1, assignments[0])]:
                self.assert_breakdowns_match(scorer, inc, cat, scheme)

    @staticmethod
    def assert_breakdowns_match(scorer, inc, cat, scheme):
        close = dict(rtol=1e-9, atol=1e-9)
        got, want = scorer.read_cost(scheme), read_cost(inc, cat, scheme)
        assert [(r.n_units, r.n_lines) for r in got.per_stream] == \
            [(r.n_units, r.n_lines) for r in want.per_stream]
        np.testing.assert_allclose(
            [(r.expected_events, r.contribution) for r in got.per_stream],
            [(r.expected_events, r.contribution) for r in want.per_stream],
            **close)
        np.testing.assert_allclose(got.total, want.total, **close)
        got = scorer.storage_cost(scheme)
        want = storage_cost(inc, cat, scheme, base_kb=7.0, shared_kb=40.0)
        np.testing.assert_allclose(got.per_stream, want.per_stream, **close)
        np.testing.assert_allclose(got.total, want.total, **close)
        for s in scheme.empty_streams():
            assert math.copysign(1.0, got.per_stream[s]) == 1.0


class TestFirstMinimum:
    def test_ulps_apart_is_a_tie(self):
        low = 11191.0
        assert first_minimum([np.nextafter(low, np.inf), low]) == 0
        assert first_minimum([low + 4e-12, low, low]) == 0

    def test_clear_minimum_wins(self):
        assert first_minimum([11191.0 * (1 + 1e-10), 11191.0]) == 1
        assert first_minimum([3.0, 2.0, 1.0, 1.0]) == 2

    def test_infinite_costs_never_win(self):
        assert first_minimum([np.inf, 5.0, np.inf]) == 1

    def test_negative_and_zero_minimum(self):
        assert first_minimum([-1.0 + 1e-13, -1.0]) == 0
        assert first_minimum([1e-300, 0.0]) == 1


class TestBreakdownInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_totals_match_per_stream_sums(self, seed):
        rng = np.random.default_rng(seed)
        inc, cat = random_instance(rng, max_events=80, max_modules=5)
        scheme = random_scheme(rng, cat.n_modules, int(rng.integers(1, 4)))
        t = read_cost(inc, cat, scheme)
        s = storage_cost(inc, cat, scheme)
        assert t.total == pytest.approx(
            sum(r.contribution for r in t.per_stream), rel=1e-9)
        assert s.total == pytest.approx(sum(s.per_stream), rel=1e-9)
