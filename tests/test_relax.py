import importlib.machinery
import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from streamopt import (EventLineIncidence, LossEvaluator, Scheme,
                       fold_modules, read_cost, softmax_rows)
from streamopt.model import _row_entropy
from streamopt import relax
from streamopt.relax import _operand, _product, one_hot
from helpers import build_catalog, random_instance, random_scheme


def evaluator_of(inc, cat):
    """Evaluator over the folded incidence, with the catalog's line counts."""
    return LossEvaluator(fold_modules(inc, cat), cat.module_line_counts)


def finite_difference_gradient(evaluator, logits, step=1e-5):
    grad = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            plus = logits.copy()
            plus[i, j] += step
            minus = logits.copy()
            minus[i, j] -= step
            f_plus = evaluator.loss(softmax_rows(plus))
            f_minus = evaluator.loss(softmax_rows(minus))
            grad[i, j] = (f_plus - f_minus) / (2 * step)
    return grad


class TestSoftmaxRows:
    def test_symmetric_row(self):
        assert np.allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_closed_form(self):
        out = softmax_rows(np.array([[0.0, math.log(3.0)]]))
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax_rows(np.array([[np.inf, 0.0]]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=5),
           st.floats(-100, 100))
    def test_shift_invariance(self, row, shift):
        base = softmax_rows(np.array([row]))
        shifted = softmax_rows(np.array([row]) + shift)
        assert np.allclose(base, shifted, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=5),
                    min_size=1, max_size=4).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_rows_sum_to_one(self, rows):
        out = softmax_rows(np.array(rows))
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-15, 15), min_size=2, max_size=6))
    def test_rows_land_strictly_inside(self, row):
        # Logit gaps beyond ~36 underflow 1-p below machine epsilon, so the
        # strictly-inside property is checked on moderate logits.
        p = softmax_rows(np.array([row]))
        assert np.all(p > 0.0) and np.all(p < 1.0)
        assert abs(p.sum() - 1.0) <= 1e-12


class TestOneHot:
    def test_one_hot_is_exact(self):
        probs = one_hot([2, 0, 1], 3)
        assert probs[0, 2] == 1.0
        assert probs.sum() == 3.0
        assert _row_entropy(probs).max() == 0.0


class TestExpectedLines:
    def test_three_line_module_split(self):
        cat = build_catalog([(f"l{i}", 1.0, True, False, "m") for i in range(3)])
        inc = EventLineIncidence(1, 3, [(0, 0)])
        lines = evaluator_of(inc, cat).expected_lines(np.array([[0.5, 0.5]]))
        assert np.allclose(lines, [1.5, 1.5])

    def test_hard_assignment_counts_lines(self):
        cat = build_catalog([("a", 1.0, True, False, "m0"),
                             ("b", 1.0, True, False, "m0"),
                             ("c", 1.0, True, False, "m1")])
        inc = EventLineIncidence(1, 3, [(0, 0)])
        lines = evaluator_of(inc, cat).expected_lines(one_hot([0, 1], 2))
        assert lines.tolist() == [2.0, 1.0]

    def test_dimension_mismatch(self):
        cat = build_catalog([("a", 1.0, True, False, "m0")])
        inc = EventLineIncidence(1, 1, [(0, 0)])
        with pytest.raises(ValueError, match="units"):
            evaluator_of(inc, cat).expected_lines(np.array([[0.5, 0.5],
                                                            [0.5, 0.5]]))

    def test_line_counts_checked(self):
        cat = build_catalog([("a", 1.0, True, False, "m0")])
        inc = EventLineIncidence(1, 1, [(0, 0)])
        with pytest.raises(ValueError, match="one entry per module"):
            LossEvaluator(fold_modules(inc, cat), [1.0, 2.0])


class TestExpectedEvents:
    def test_single_module_splits_mass(self):
        cat = build_catalog([("a", 1.0, True, False, "m")])
        inc = EventLineIncidence(1, 1, [(0, 0)])
        events = evaluator_of(inc, cat).expected_events(np.array([[0.5, 0.5]]))
        assert np.allclose(events, [0.5, 0.5])

    def test_hard_assignment_counts_events(self):
        rng = np.random.default_rng(31)
        inc, cat = random_instance(rng, prescale_mix=False)
        scheme = random_scheme(rng, cat.n_modules, 3)
        events = evaluator_of(inc, cat).expected_events(
            one_hot(scheme.assignment, 3))
        stream_of_line = np.asarray(scheme.assignment)[cat.module_of_line]
        for s in range(3):
            selected = {e for e, l in inc.pairs() if stream_of_line[l] == s}
            assert events[s] == pytest.approx(len(selected), rel=1e-12)

    def test_two_module_arithmetic(self):
        cat = build_catalog([("a", 1.0, True, False, "m0"),
                             ("b", 0.5, True, False, "m1")])
        inc = EventLineIncidence(1, 2, [(0, 0), (0, 1)])
        events = evaluator_of(inc, cat).expected_events(one_hot([0, 0], 2))
        assert events[0] == pytest.approx(1.0, abs=1e-12)
        assert events[1] == 0.0


class TestRelaxedLoss:
    def test_one_hot_equals_discrete_cost(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            inc, cat = random_instance(rng)
            scheme = random_scheme(rng, cat.n_modules, int(rng.integers(1, 5)))
            loss = evaluator_of(inc, cat).loss(
                one_hot(scheme.assignment, scheme.n_streams))
            cost = read_cost(inc, cat, scheme).total
            assert loss == pytest.approx(cost, rel=1e-9)

    def test_interior_point_differs_from_expectation(self):
        # One line, one event, half/half: surrogate is 0.5 although any
        # rounded assignment costs 1.
        cat = build_catalog([("a", 1.0, True, False, "m")])
        inc = EventLineIncidence(1, 1, [(0, 0)])
        loss = evaluator_of(inc, cat).loss(np.array([[0.5, 0.5]]))
        assert loss == pytest.approx(0.5)

    def test_uniform_single_module_closed_form(self):
        rng = np.random.default_rng(33)
        n_lines, n_events, k = 4, 30, 3
        mat = rng.random((n_events, n_lines)) < 0.5
        mat[:, 0] = True
        inc = EventLineIncidence.from_dense(mat)
        cat = build_catalog([(f"l{i}", 1.0, True, False, "m")
                             for i in range(n_lines)])
        folded = fold_modules(inc, cat)
        evaluator = LossEvaluator(folded, cat.module_line_counts)
        expected = n_lines / k * folded.values.data.sum()
        assert evaluator.loss(np.full((1, k), 1.0 / k)) == \
            pytest.approx(expected, rel=1e-12)

    def test_value_is_product_of_factors(self):
        rng = np.random.default_rng(34)
        inc, cat = random_instance(rng)
        evaluator = evaluator_of(inc, cat)
        probs = softmax_rows(rng.normal(0, 1, (cat.n_modules, 3)))
        assert evaluator.loss(probs) == pytest.approx(
            float(np.sum(evaluator.expected_lines(probs)
                         * evaluator.expected_events(probs))), rel=1e-9)

    def test_ungrouped_reduction(self):
        # One module per line at unit prescales reduces to the line-level
        # surrogate computed directly from the incidence matrix.
        rng = np.random.default_rng(35)
        mat = rng.random((40, 5)) < 0.3
        mat = mat[mat.any(axis=1)]
        inc = EventLineIncidence.from_dense(mat)
        cat = build_catalog([(f"l{i}", 1.0, True, False, f"l{i}")
                             for i in range(5)])
        probs = softmax_rows(rng.normal(0, 1, (5, 3)))
        lines = probs.sum(axis=0)
        miss = 1.0 - mat.astype(float)[:, :, None] * probs[None, :, :]
        events = (1.0 - miss.prod(axis=1)).sum(axis=0)
        want = float((lines * events).sum())
        got = evaluator_of(inc, cat).loss(probs)
        assert got == pytest.approx(want, rel=1e-12)


class TestLossGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(36)
        inc, cat = random_instance(rng, max_modules=5)
        evaluator = evaluator_of(inc, cat)
        logits = rng.normal(0, 1, (cat.n_modules, 3))
        _, analytic = evaluator.loss_and_gradient(softmax_rows(logits))
        numeric = finite_difference_gradient(evaluator, logits)
        scale = max(np.abs(numeric).max(), 1e-12)
        assert np.abs(analytic - numeric).max() / scale < 1e-5

    def test_uniform_logits_symmetric_across_streams(self):
        rng = np.random.default_rng(37)
        inc, cat = random_instance(rng)
        _, grad = evaluator_of(inc, cat).loss_and_gradient(
            softmax_rows(np.zeros((cat.n_modules, 3))))
        assert np.allclose(grad, grad[:, :1], atol=1e-12)

    def test_single_stream_gradient_vanishes(self):
        rng = np.random.default_rng(38)
        inc, cat = random_instance(rng)
        _, grad = evaluator_of(inc, cat).loss_and_gradient(
            softmax_rows(rng.normal(0, 1, (cat.n_modules, 1))))
        assert np.all(grad == 0.0)

    def test_shift_invariance_of_loss_and_gradient(self):
        rng = np.random.default_rng(39)
        inc, cat = random_instance(rng)
        evaluator = evaluator_of(inc, cat)
        logits = rng.normal(0, 1, (cat.n_modules, 3))
        shifted = logits + rng.normal(0, 5, (cat.n_modules, 1))
        a = softmax_rows(logits)
        b = softmax_rows(shifted)
        assert np.allclose(a, b, atol=1e-12)
        loss_a, grad_a = evaluator.loss_and_gradient(a)
        loss_b, grad_b = evaluator.loss_and_gradient(b)
        assert loss_a == pytest.approx(loss_b, rel=1e-12)
        assert np.allclose(grad_a, grad_b, atol=1e-9)


def dense_reference(fold, counts, probs):
    """Loss, events and logit gradient from the dense product formula."""
    factors = 1.0 - fold[None, :, :, None] * probs[:, None, :, :]
    events = (1.0 - factors.prod(axis=2)).sum(axis=1)
    lines = np.einsum("m,bms->bs", counts, probs)
    leave_one_out = np.stack(
        [np.delete(factors, m, axis=2).prod(axis=2)
         for m in range(fold.shape[1])], axis=2)
    devents = np.einsum("em,bems->bms", fold, leave_one_out)
    grad_probs = (counts[None, :, None] * events[:, None, :]
                  + lines[:, None, :] * devents)
    inner = np.sum(grad_probs * probs, axis=-1, keepdims=True)
    return (lines * events).sum(axis=-1), events, probs * (grad_probs - inner)


class TestKernel:
    @staticmethod
    def assert_groups_rebuild(folded):
        """The fold's row groups are distinct rows whose weights, which
        count every event, repeat them into the fold's rows exactly."""
        groups = folded.row_groups()
        assert groups.weights.sum() == folded.n_events
        rows = np.zeros((len(groups.weights), folded.n_modules))
        hits = groups.hits
        assert np.all(hits.data == 1.0)
        r = np.repeat(np.arange(hits.shape[0]), np.diff(hits.indptr))
        c = hits.indices
        rows[r, groups.column_module[c]] = groups.column_value[c]
        assert len(np.unique(rows, axis=0)) == len(rows)
        rebuilt = np.repeat(rows, groups.weights.astype(int), axis=0)
        for got, want in zip(np.unique(rebuilt, axis=0, return_counts=True),
                             np.unique(folded.to_dense(), axis=0,
                                       return_counts=True)):
            assert np.array_equal(got, want)

    def test_row_groups_rebuild_the_fold(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            inc, cat = random_instance(rng, max_modules=6)
            self.assert_groups_rebuild(fold_modules(inc, cat))

    def test_row_groups_of_many_distinct_values(self):
        # 300 one-line modules, each with its own prescale below 1, give
        # 300 x 300 (module, value) codes, more than the nonzeros: the
        # columns are numbered by np.unique, not by a table of the codes.
        rng = np.random.default_rng(47)
        prescales = rng.permutation(np.linspace(0.05, 0.95, 300))
        cat = build_catalog([(f"l{m}", float(p), True, False, f"l{m}")
                             for m, p in enumerate(prescales)])
        patterns = rng.random((400, 300)) < rng.uniform(0.01, 0.1, (400, 1))
        patterns[:, 0] = True
        inc = EventLineIncidence.from_dense(
            patterns[rng.integers(0, 400, 1500)])
        folded = fold_modules(inc, cat)
        nnz = folded.values.nnz
        assert nnz < 90_000
        assert 300 * len(np.unique(folded.values.data)) > max(nnz, 1 << 16)
        self.assert_groups_rebuild(folded)
        evaluator = evaluator_of(inc, cat)
        for n_streams in (1, 3, 7):
            assignment = rng.integers(0, n_streams, (1, 300))
            np.testing.assert_allclose(
                evaluator.loss(one_hot(assignment, n_streams)),
                [read_cost(inc, cat, Scheme(n_streams, tuple(
                    assignment[0].tolist()))).total], rtol=1e-9)

    def test_row_groups_match_loop_reference(self):
        # Columns are the distinct (module, value) pairs in sorted order, and
        # the distinct rows, as tuples of their sorted column ids, are listed
        # in lexicographic order.
        rng = np.random.default_rng(43)
        cases = [random_instance(rng, max_modules=6) for _ in range(10)]
        # Up to 40 modules with mixed prescales.  Every event passes the
        # first 12 lines, so that rows agree on their leading ids and differ
        # only in later places.
        rng = np.random.default_rng(45)
        for _ in range(4):
            inc, cat = random_instance(rng, max_modules=40,
                                       rate_range=(0.1, 0.25))
            dense = inc.to_dense()
            dense[:, :12] = True
            cases.append((EventLineIncidence.from_dense(dense), cat))
        # 90 one-line modules.  Rows share one of three 9-module heads, and
        # half add modules past the head, so each head's rows mix short and
        # longer rows, repeats included.
        dense = np.zeros((400, 90), dtype=bool)
        for row in dense:
            row[rng.integers(3) + np.arange(9)] = True
            if rng.random() < 0.5:
                row[rng.choice(np.arange(11, 89), rng.integers(1, 4))] = True
        dense[0, 11:89] = True  # a row of 87 places
        cases.append((EventLineIncidence.from_dense(dense), build_catalog(
            [(f"l{m}", 1.0, True, False, f"l{m}") for m in range(90)])))
        # 300 one-line modules: over 255 columns, so the labels are 16-bit.
        # Rows share one of three 20-module heads, at low and at high ids,
        # and half add a few modules anywhere: long shared prefixes that
        # differ past them, repeats included.
        dense = np.zeros((600, 300), dtype=bool)
        for row in dense:
            row[135 * rng.integers(3) + np.arange(20)] = True
            if rng.random() < 0.5:
                row[rng.choice(300, rng.integers(1, 4))] = True
        cases.append((EventLineIncidence.from_dense(dense), build_catalog(
            [(f"l{m}", 1.0, True, False, f"l{m}") for m in range(300)])))
        long_rows = wide = 0
        for inc, cat in cases:
            folded = fold_modules(inc, cat)
            values, groups = folded.values, folded.row_groups()
            entries = []
            for e in range(inc.n_events):
                part = slice(values.indptr[e], values.indptr[e + 1])
                entries.append(list(zip(values.indices[part].tolist(),
                                        values.data[part].tolist())))
            pairs = sorted({pair for row in entries for pair in row})
            column = {pair: c for c, pair in enumerate(pairs)}
            rows = [tuple(column[pair] for pair in row) for row in entries]
            distinct = sorted(set(rows))
            assert groups.column_module.tolist() == [m for m, _ in pairs]
            assert groups.column_value.tolist() == [v for _, v in pairs]
            assert groups.column_module.dtype == values.indices.dtype
            hits = groups.hits
            assert [tuple(hits.indices[a:b].tolist()) for a, b
                    in zip(hits.indptr[:-1], hits.indptr[1:])] == distinct
            assert groups.weights.tolist() == [rows.count(row)
                                               for row in distinct]
            long_rows += max(map(len, rows)) >= 8
            wide += len(pairs) > 255
        # Rows of 8 or more places, and more than 255 columns.
        assert long_rows >= 2 and wide >= 1

    def test_matches_dense_formula_with_zero_factors(self):
        rng = np.random.default_rng(42)
        checked_zero = 0
        for _ in range(10):
            inc, cat = random_instance(rng, max_modules=6, rate_range=(0.1, 0.4))
            folded = fold_modules(inc, cat)
            fold = folded.to_dense()
            counts = cat.module_line_counts.astype(float)
            n_modules, n_streams = cat.n_modules, 3
            soft = softmax_rows(rng.normal(0, 1, (n_modules, n_streams)))
            # Half the modules exactly one-hot, so fold values of 1 meet
            # L = 1; once with exact zeros elsewhere and once with tiny
            # entries that let the saturated rows reach the logit gradient.
            one_hot = soft.copy()
            sure = rng.permutation(n_modules)[:(n_modules + 1) // 2]
            one_hot[sure] = 0.0
            one_hot[sure, rng.integers(0, n_streams, len(sure))] = 1.0
            tiny = np.where(one_hot[sure] == 0.0, 1e-30, 1.0)
            saturated = one_hot.copy()
            saturated[sure] = tiny
            probs = np.stack([soft, one_hot, saturated])
            checked_zero += int(np.any(fold[:, sure] == 1.0))

            evaluator = LossEvaluator(folded, counts)
            want_loss, want_events, want_grad = dense_reference(fold, counts,
                                                                probs)
            loss, grad = evaluator.loss_and_gradient(probs)
            np.testing.assert_allclose(loss, want_loss, rtol=1e-12, atol=0)
            np.testing.assert_allclose(evaluator.loss(probs), want_loss,
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(evaluator.expected_events(probs),
                                       want_events, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(grad, want_grad, rtol=1e-9,
                                       atol=1e-9 * np.abs(want_grad[0]).max()
                                       * 1e-30)
        assert checked_zero >= 5

    def test_batch_independence(self):
        # A restart's loss and gradient must not depend on what else is in
        # the batch: the optimizer drops restarts from the batch as they
        # settle, and the others must keep their exact trajectories.
        rng = np.random.default_rng(43)
        with_zero = without_zero = 0
        for trial in range(12):
            inc, cat = random_instance(rng, max_modules=6,
                                       rate_range=(0.1, 0.4),
                                       prescale_mix=trial % 3 != 0)
            folded = fold_modules(inc, cat)
            fold = folded.to_dense()
            evaluator = LossEvaluator(folded,
                                      cat.module_line_counts.astype(float))
            n_modules, n_streams = cat.n_modules, 3
            batch = softmax_rows(rng.normal(0, 1, (6, n_modules, n_streams)))
            # Slices 1 and 4 have exactly one-hot modules, so fold values of
            # 1 meet L = 1 there; the other slices have no zero factor.
            for b in (1, 4):
                sure = rng.permutation(n_modules)[:(n_modules + 1) // 2]
                batch[b, sure] = 0.0
                batch[b, sure, rng.integers(0, n_streams, len(sure))] = 1.0
            zero = [bool(np.any((fold[:, :, None] == 1.0)
                                & (batch[b][None] == 1.0)))
                    for b in range(len(batch))]
            with_zero += sum(zero)
            without_zero += len(zero) - sum(zero)

            loss, grad = evaluator.loss_and_gradient(batch)
            events = evaluator.expected_events(batch)
            for b in range(len(batch)):
                alone_loss, alone_grad = evaluator.loss_and_gradient(batch[b])
                assert alone_loss == loss[b]
                assert np.array_equal(alone_grad, grad[b])
                assert np.array_equal(evaluator.expected_events(batch[b]),
                                      events[b])
                # Also in a smaller batch that mixes slices with and without
                # zero factors.
                pair = [b, (b + 3) % len(batch)]
                pair_loss, pair_grad = evaluator.loss_and_gradient(batch[pair])
                assert pair_loss[0] == loss[b]
                assert np.array_equal(pair_grad[0], grad[b])
        assert with_zero >= 5 and without_zero >= 40


def result_bytes(result):
    """The bytes of every array an evaluator call returns."""
    arrays = result if isinstance(result, tuple) else (result,)
    return [np.asarray(a).tobytes() for a in arrays]


class TestWorkspace:
    def test_product_matches_scipy_bytes(self):
        rng = np.random.default_rng(7)
        for width in range(1, 34):
            for build in (sp.csr_matrix, sp.csc_matrix):
                n_row, n_col = rng.integers(1, 40, size=2)
                dense = rng.normal(size=(n_row, n_col))
                matrix = build(dense * (rng.random(dense.shape) < 0.3))
                x = rng.normal(size=(n_col, width))
                want = (matrix @ x).tobytes()
                # Stale contents of the output buffer must not leak in.
                out = np.full((n_row, width), np.nan)
                operand = _operand(matrix.format, matrix.indptr,
                                   matrix.indices, matrix.data, matrix.shape)
                assert _product(operand, x, out) is out
                assert out.tobytes() == want
                assert _product(operand, x).tobytes() == want

    def test_loader_fallback_gives_the_same_bytes(self, monkeypatch):
        # Without the extension file where the loader looks, the routines
        # come through scipy.sparse, and every product is the same.
        rng = np.random.default_rng(8)
        inc, cat = random_instance(rng, max_modules=6, rate_range=(0.1, 0.4))
        probs = softmax_rows(rng.normal(0, 1, (4, cat.n_modules, 3)))
        want = result_bytes(evaluator_of(inc, cat).loss_and_gradient(probs))
        monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                            [".missing"])
        fallback = relax._load_sparsetools()
        assert fallback.__name__ == "scipy.sparse._sparsetools"
        monkeypatch.setattr(relax, "_sparsetools", fallback)
        assert result_bytes(evaluator_of(inc, cat).loss_and_gradient(
            probs)) == want
        matrix = sp.random(30, 20, density=0.3, format="csr", random_state=9)
        x = rng.normal(size=(20, 5))
        for m in (matrix, matrix.tocsc()):
            assert _product(_operand(m.format, m.indptr, m.indices, m.data,
                                     m.shape), x).tobytes() == (m @ x).tobytes()

    def test_interleaved_calls_match_fresh_evaluators(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            inc, cat = random_instance(rng, max_modules=6,
                                       rate_range=(0.1, 0.4))
            n_modules, k = cat.n_modules, 3
            calls = [
                ("loss_and_gradient",
                 softmax_rows(rng.normal(0, 1, (8, n_modules, k)))),
                ("loss", one_hot(rng.integers(0, k, (5, n_modules)), k)),
                ("expected_events",
                 softmax_rows(rng.normal(0, 1, (n_modules, k)))),
                ("loss_and_gradient",
                 softmax_rows(rng.normal(0, 1, (6, n_modules, k)))),
            ]
            shared = evaluator_of(inc, cat)
            for name, probs in calls:
                fresh = evaluator_of(inc, cat)
                assert result_bytes(getattr(shared, name)(probs)) == \
                    result_bytes(getattr(fresh, name)(probs))

    def test_returned_arrays_survive_later_calls(self):
        rng = np.random.default_rng(12)
        inc, cat = random_instance(rng, max_modules=6, rate_range=(0.1, 0.4))
        evaluator = evaluator_of(inc, cat)
        shape = (4, cat.n_modules, 3)
        probs = softmax_rows(rng.normal(0, 1, shape))
        loss, grad = evaluator.loss_and_gradient(probs)
        returned = (loss, grad, evaluator.expected_events(probs),
                    evaluator.loss(probs))
        kept = [a.copy() for a in returned]
        other = softmax_rows(rng.normal(0, 1, shape))
        evaluator.loss_and_gradient(other)
        evaluator.expected_events(other[:2])
        evaluator.loss(one_hot(rng.integers(0, 3, (7, cat.n_modules)), 3))
        for array, copy in zip(returned, kept):
            assert array.tobytes() == copy.tobytes()
            assert not any(np.shares_memory(array, buffer)
                           for buffer in evaluator._flat)
