from dataclasses import replace

import numpy as np
import pytest

from streamopt import (DataError, EventLineIncidence, LineCatalog, LineRecord,
                       ModuleIncidence, Scheme, enumerate_optimal,
                       fold_modules, mc_prescale_check, read_cost,
                       storage_cost, validate_dataset)
from streamopt.model import CSR, _csr
from helpers import (build_catalog, random_instance,
                     reference_validate_dataset)


def simple_catalog():
    return build_catalog([
        ("l1", 1.0, True, False, "m1"),
        ("l2", 1.0, True, True, "m1"),
        ("l3", 0.5, True, False, "m2"),
    ])


class TestEventLineIncidence:
    def test_entries_are_canonicalized(self):
        inc = EventLineIncidence(2, 2, [(1, 0), (0, 1), (0, 0)])
        assert inc.pairs() == [(0, 0), (0, 1), (1, 0)]
        assert inc.n_entries == 3

    def test_rejects_out_of_range_event(self):
        with pytest.raises(DataError, match="event index"):
            EventLineIncidence(2, 2, [(2, 0), (0, 0), (1, 0)])

    def test_rejects_out_of_range_line(self):
        with pytest.raises(DataError, match="line index"):
            EventLineIncidence(2, 2, [(0, 5), (1, 0)])

    def test_rejects_duplicates(self):
        with pytest.raises(DataError, match="duplicate"):
            EventLineIncidence(2, 2, [(0, 0), (0, 0), (1, 1)])

    def test_rejects_event_without_lines(self):
        with pytest.raises(DataError, match="event 1 passes no line"):
            EventLineIncidence(3, 2, [(0, 0), (2, 1)])

    def test_dropping_empty_events_renumbers(self, caplog):
        with caplog.at_level("INFO"):
            inc, dropped = EventLineIncidence.dropping_empty_events(
                4, 2, [(0, 0), (3, 1)])
        assert dropped == 2
        assert inc.n_events == 2
        assert inc.pairs() == [(0, 0), (1, 1)]
        assert "dropped 2 events" in caplog.text

    def test_bad_entries_are_data_errors(self):
        with pytest.raises(DataError, match="out of range"):
            EventLineIncidence.dropping_empty_events(3, 2, [(0, 0), (5, 1)])
        with pytest.raises(DataError, match="pairs"):
            EventLineIncidence(1, 1, [(0, 0, 0)])

    def test_dense_round_trip(self):
        mat = np.array([[1, 0, 1], [0, 1, 0]], dtype=bool)
        assert np.array_equal(EventLineIncidence.from_dense(mat).to_dense(), mat)

    def test_arrays_are_read_only(self):
        inc = EventLineIncidence(1, 1, [(0, 0)])
        with pytest.raises(ValueError):
            inc.event_index[0] = 5


class TestModuleIncidence:
    @pytest.mark.parametrize("bad", [-0.5, 1.5, float("nan")])
    def test_values_outside_unit_interval_rejected(self, bad):
        with pytest.raises(DataError, match=r"lie in \[0, 1\]"):
            ModuleIncidence(2, 2, np.array([[1.0, 0.0], [bad, 0.5]]))

    def test_dense_values_canonicalised_as_the_fold(self):
        rng = np.random.default_rng(5)
        inc, cat = random_instance(rng, max_modules=6, rate_range=(0.1, 0.4))
        folded = fold_modules(inc, cat)
        dense = folded.to_dense()
        rebuilt = ModuleIncidence(inc.n_events, cat.n_modules, dense).values
        for got, want in zip(rebuilt, folded.values):
            assert np.array_equal(got, want)
            assert np.asarray(got).dtype == np.asarray(want).dtype
        assert rebuilt.indices.dtype == np.int32
        assert rebuilt.nnz == np.count_nonzero(dense)
        assert np.array_equal(rebuilt.toarray(), dense)

    def test_record_taken_as_it_is(self):
        values = CSR(np.array([0, 1, 1], np.int32), np.array([1], np.int32),
                     np.array([0.5]), (2, 2))
        assert ModuleIncidence(2, 2, values).values is values
        with pytest.raises(DataError, match="does not match"):
            ModuleIncidence(3, 2, values)
        with pytest.raises(DataError, match="does not match"):
            ModuleIncidence(2, 2, np.zeros(4))

    def test_index_dtype(self):
        # int32 until the nonzeros or a dimension need int64, as in scipy.
        limit = np.iinfo(np.int32).max
        for n_col, dtype in ((limit, np.int32), (limit + 1, np.int64)):
            values = _csr(1, n_col, np.array([0]), np.array([n_col - 1]),
                          np.array([0.5]))
            assert values.indptr.dtype == values.indices.dtype == dtype
            assert values.indptr.tolist() == [0, 1]


class TestCatalog:
    def test_modules_derived_in_first_appearance_order(self):
        cat = simple_catalog()
        assert cat.modules == ("m1", "m2")
        assert cat.module_of_line.tolist() == [0, 0, 1]
        assert cat.module_line_counts.tolist() == [2, 1]
        interleaved = build_catalog([("a", 1.0, True, False, "m2"),
                                     ("b", 1.0, True, False, "m1"),
                                     ("c", 1.0, True, False, "m2")])
        assert interleaved.modules == ("m2", "m1")
        assert interleaved.module_of_line.tolist() == [0, 1, 0]

    def test_default_module_is_line_name(self):
        rec = LineRecord("solo")
        assert rec.module == "solo"

    def test_empty_catalog_rejected(self):
        with pytest.raises(DataError):
            LineCatalog(())
        with pytest.raises(DataError):
            LineCatalog.of_columns((), [], [], [], [], ())

    def test_columns(self):
        cat = simple_catalog()
        assert cat.line_names == ("l1", "l2", "l3")
        for column, dtype in (("prescales", np.float64),
                              ("turbo_mask", np.bool_),
                              ("persist_reco_mask", np.bool_),
                              ("module_of_line", np.int64),
                              ("module_line_counts", np.int64)):
            array = getattr(cat, column)
            assert array.dtype == dtype
            assert not array.flags.writeable
        assert cat.prescales.tolist() == [1.0, 1.0, 0.5]
        assert cat.persist_reco_mask.tolist() == [False, True, False]
        columns = LineCatalog.of_columns(
            ["l1", "l2", "l3"], np.array([1.0, 1.0, 0.5]), [True] * 3,
            np.array([False, True, False]), np.array([0, 0, 1]), ["m1", "m2"])
        assert columns == cat and hash(columns) == hash(cat)

    def test_records_round_trip(self):
        records = (LineRecord("a", 0.25, False, True, "m"), LineRecord("b"),
                   LineRecord("c", 1.0, True, False, "m"))
        cat = LineCatalog(records)
        assert cat.lines == records
        assert cat.lines is cat.lines
        assert LineCatalog(cat.lines) == cat
        assert LineCatalog(iter(records)) == cat

    def test_equal_exactly_when_the_records_are(self):
        base = (LineRecord("a", 0.5, True, False, "m"),
                LineRecord("b", 1.0, False, True, "n"))
        same = (LineRecord("a", 0.5, True, False, "m"),
                LineRecord("b", 1.0, False, True, "n"))
        assert LineCatalog(base) == LineCatalog(same)
        changes = [dict(name="c"), dict(prescale=0.25), dict(is_turbo=False),
                   dict(is_persist_reco=True), dict(module="n")]
        for change in changes:
            other = (replace(base[0], **change), base[1])
            assert LineCatalog(base) != LineCatalog(other), change
        # The same modules in another order number the lines otherwise.
        swapped = (replace(base[0], module="n"), replace(base[1], module="m"))
        assert LineCatalog(base) != LineCatalog(swapped)
        assert LineCatalog(base) != LineCatalog(base[:1])
        assert LineCatalog(base).__eq__(base) is NotImplemented


class TestValidateDataset:
    def test_consistent_dataset_is_clean(self):
        inc = EventLineIncidence(3, 3, [(0, 0), (1, 1), (2, 2)])
        assert validate_dataset(inc, simple_catalog()) == []

    def test_prescale_out_of_range_names_line(self):
        cat = build_catalog([("bad", 1.5, True, False, "m")])
        inc = EventLineIncidence(1, 1, [(0, 0)])
        report = validate_dataset(inc, cat)
        assert len(report) == 1
        assert "bad" in report[0] and "1.5" in report[0]

    def test_dimension_mismatch_reported(self):
        inc = EventLineIncidence(1, 8, [(0, 7)])
        report = validate_dataset(inc, simple_catalog())
        assert any("8 lines" in v for v in report)

    def test_messages_in_line_order(self):
        cat = build_catalog([("a", 1.0, True, False, "m"),
                             ("a", np.nan, True, False, "m"),
                             ("b", -1.0, True, False, "m"),
                             ("b", 0.5, True, False, "m"),
                             ("a", 2.0, True, False, "m")])
        inc = EventLineIncidence(1, 4, [(0, 0)])
        report = validate_dataset(inc, cat)
        assert report == reference_validate_dataset(inc, cat)
        assert report == [
            "incidence has 4 lines but catalog has 5",
            "line 'a': prescale nan outside [0, 1]",
            "duplicate line name 'a'",
            "line 'b': prescale -1.0 outside [0, 1]",
            "duplicate line name 'b'",
            "line 'a': prescale 2.0 outside [0, 1]",
            "duplicate line name 'a'"]

    def test_duplicate_line_names_reported(self):
        cat = build_catalog([("dup", 1.0, True, False, "m"),
                             ("dup", 1.0, True, False, "m")])
        inc = EventLineIncidence(1, 2, [(0, 0), (0, 1)])
        assert any("duplicate line name" in v
                   for v in validate_dataset(inc, cat))


class TestFoldModules:
    def test_sure_line_dominates_module(self):
        # P=1 and P=0.5 lines both passing: 1 - (1-1)(1-0.5) = 1.
        cat = build_catalog([("a", 1.0, True, False, "m"),
                             ("b", 0.5, True, False, "m")])
        inc = EventLineIncidence(1, 2, [(0, 0), (0, 1)])
        assert fold_modules(inc, cat).to_dense()[0, 0] == 1.0

    def test_single_prescaled_line(self):
        cat = build_catalog([("b", 0.5, True, False, "m")])
        inc = EventLineIncidence(1, 1, [(0, 0)])
        assert fold_modules(inc, cat).to_dense()[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_identity_embedding(self):
        # One module per line, unit prescales: folding is the identity.
        rng = np.random.default_rng(8)
        mat = rng.random((40, 6)) < 0.3
        mat = mat[mat.any(axis=1)]
        inc = EventLineIncidence.from_dense(mat)
        cat = build_catalog([(f"l{i}", 1.0, True, False, f"l{i}")
                             for i in range(6)])
        folded = fold_modules(inc, cat)
        assert np.array_equal(folded.to_dense(), mat.astype(float))

    def test_unit_prescales_give_binary_values(self):
        rng = np.random.default_rng(9)
        mat = rng.random((30, 6)) < 0.4
        mat = mat[mat.any(axis=1)]
        inc = EventLineIncidence.from_dense(mat)
        cat = build_catalog([(f"l{i}", 1.0, True, False, f"m{i % 2}")
                             for i in range(6)])
        values = fold_modules(inc, cat).to_dense()
        assert np.all((values == 0.0) | (values == 1.0))

    def test_monotone_in_added_line(self):
        # Adding a passing line to a module never lowers any fold value.
        rng = np.random.default_rng(10)
        for _ in range(20):
            n_lines = int(rng.integers(2, 6))
            prescales = rng.uniform(0.1, 1.0, n_lines)
            mat = rng.random((25, n_lines)) < 0.5
            mat[:, 0] = True  # keep every event valid
            inc = EventLineIncidence.from_dense(mat)
            rows = [(f"l{i}", float(prescales[i]), True, False, "m")
                    for i in range(n_lines - 1)]
            smaller = build_catalog(rows + [(f"l{n_lines-1}",
                                             float(prescales[-1]), True,
                                             False, "other")])
            bigger = build_catalog(rows + [(f"l{n_lines-1}",
                                            float(prescales[-1]), True,
                                            False, "m")])
            before = fold_modules(inc, smaller).to_dense()[:, 0]
            after = fold_modules(inc, bigger).to_dense()[:, 0]
            assert np.all(after >= before - 1e-15)

    def test_invalid_prescale_rejected(self):
        cat = build_catalog([("a", 2.0, True, False, "m")])
        inc = EventLineIncidence(1, 1, [(0, 0)])
        with pytest.raises(DataError, match="prescale"):
            fold_modules(inc, cat)

    @pytest.mark.parametrize("bad", [np.nan, -0.5, 1.5, np.inf])
    def test_prescale_outside_unit_interval_rejected_everywhere(self, bad):
        # NaN fails every comparison, so the range test must be negated.
        cat = build_catalog([("a", 1.0, True, True, "m"),
                             ("b", bad, True, True, "m")])
        inc = EventLineIncidence(2, 2, [(0, 0), (1, 1)])
        scheme = Scheme(1, (0,))
        message = ("catalog contains prescales outside \\[0, 1\\]; "
                   "run validate_dataset for details")
        for check in (lambda: fold_modules(inc, cat),
                      lambda: read_cost(inc, cat, scheme),
                      lambda: storage_cost(inc, cat, scheme),
                      lambda: enumerate_optimal(inc, cat, 1),
                      lambda: mc_prescale_check(inc, cat, scheme, 10, 0)):
            with pytest.raises(DataError, match=message):
                check()
        assert validate_dataset(inc, cat) == [
            f"line 'b': prescale {bad} outside [0, 1]"]


class TestScheme:
    def test_stream_bounds_checked(self):
        with pytest.raises(DataError):
            Scheme(2, (0, 2))

    def test_empty_streams_reported(self):
        scheme = Scheme(4, (0, 2, 0))
        assert scheme.empty_streams() == (1, 3)

