import csv
import hashlib
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamopt import instances
from streamopt import (DataError, EventLineIncidence, InstanceFile,
                       LineCatalog, LineRecord, Scheme, SyntheticSpec,
                       fold_modules, gen_synthetic, load_instance,
                       load_measurements, load_scheme, validate_dataset,
                       write_scheme)
from streamopt.instances import scheme_from_text, scheme_to_text
from helpers import reference_validate_dataset

SAMPLE = """\
[catalog]
name,prescale,turbo,persist_reco,module
l1,1.0,1,0,m1
l2,0.5,1,1,m1
l3,1.0,0,0,m2
[incidence]
event,line
ev_a,l1
ev_a,l2
ev_b,l3
"""
CATALOG, INCIDENCE = (f"[{part}" for part in SAMPLE.split("[")[1:])


def bulk_parse(text: str) -> tuple | None:
    """The bulk parse of a file holding ``text``: its catalog and incidence,
    or None."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "x.inst"
        path.write_bytes(text.encode())
        return instances._parse_bulk(path)


def same_columns(incidence, reference):
    """``incidence`` has ``reference``'s events and columns, dtypes too."""
    assert incidence.n_events == reference.n_events
    for column in ("event_index", "line_index"):
        np.testing.assert_array_equal(getattr(incidence, column),
                                      getattr(reference, column), strict=True)


def row_parse(text: str) -> InstanceFile:
    """The row-by-row parse of ``text``."""
    return InstanceFile(*instances._parse_rows(text))


class TestInstanceFormat:
    def test_parse_sample(self):
        inst = InstanceFile.from_text(SAMPLE)
        assert inst.catalog.n_lines == 3
        assert inst.catalog.modules == ("m1", "m2")
        assert inst.incidence.n_events == 2
        assert inst.event_ids == ("ev_a", "ev_b")
        assert inst.incidence.pairs() == [(0, 0), (0, 1), (1, 2)]

    def test_text_round_trip_is_byte_identical(self):
        inst = InstanceFile.from_text(SAMPLE)
        assert InstanceFile.from_text(inst.to_text()).to_text() == inst.to_text()

    def test_names_that_need_quotes_round_trip(self):
        # Commas and quotes would split a row, and a leading "#" or a
        # leading or trailing blank would skip or strip it, unless quoted.
        names = ("m,1", "#m1", " m1", "m1\t", 'a"b', '"q"', "m2", "")
        inst = InstanceFile(
            LineCatalog(tuple(LineRecord(f"l{name}", 0.5, True, False, name)
                              for name in names)),
            EventLineIncidence(len(names), len(names),
                               [(k, k) for k in range(len(names))]),
            tuple(f"{name}e" for name in names))
        text = inst.to_text()
        assert 'lm2,0.5,1,0,m2\n' in text and "\nm2e,lm2\n" in text
        parsed = InstanceFile.from_text(text)
        assert (parsed.catalog, parsed.event_ids, parsed.incidence.pairs()) \
            == (inst.catalog, inst.event_ids, inst.incidence.pairs())
        assert parsed.to_text() == text
        scheme = Scheme(3, tuple(k % 3 for k in range(len(names))))
        assert scheme_from_text(scheme_to_text(scheme, inst.catalog),
                                inst.catalog) == scheme

    @pytest.mark.parametrize("name", ["a\nb", "a\r", "\x1cb", "a\u2028b"])
    def test_names_with_line_breaks_are_not_written(self, name):
        # str.splitlines breaks such a name, so no reader could take it back.
        for line, module, event in ((name, "m", "e"), ("l", name, "e"),
                                    ("l", "m", name)):
            inst = InstanceFile(
                LineCatalog((LineRecord(line, module=module),)),
                EventLineIncidence(1, 1, [(0, 0)]), (event,))
            with pytest.raises(DataError, match=re.escape(repr(name))):
                inst.to_text()
        catalog = LineCatalog((LineRecord("l", module=name),))
        with pytest.raises(DataError, match=re.escape(repr(name))):
            scheme_to_text(Scheme(1, (0,)), catalog)

    def test_load_instance_validates(self, tmp_path):
        path = tmp_path / "toy.inst"
        path.write_text(SAMPLE)
        incidence, catalog = load_instance(path)
        assert validate_dataset(incidence, catalog) == []

    def test_unknown_line_named(self):
        bad = SAMPLE + "ev_c,l9\n"
        with pytest.raises(DataError, match="l9"):
            InstanceFile.from_text(bad)

    def test_empty_incidence_rejected(self):
        text = SAMPLE.split("[incidence]")[0] + "[incidence]\nevent,line\n"
        with pytest.raises(DataError, match="no events"):
            InstanceFile.from_text(text)

    def test_duplicate_rows_deduplicated_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            inst = InstanceFile.from_text(SAMPLE + "ev_a,l1\n")
        assert inst.incidence.n_entries == 3
        assert "duplicate" in caplog.text

    def test_bad_header_reports_line(self):
        text = SAMPLE.replace("name,prescale,turbo,persist_reco,module",
                              "name,prescale")
        with pytest.raises(DataError, match="line 2"):
            InstanceFile.from_text(text)

    def test_bad_flag_reports_line(self):
        text = SAMPLE.replace("l1,1.0,1,0,m1", "l1,1.0,maybe,0,m1")
        with pytest.raises(DataError, match="line 3.*maybe"):
            InstanceFile.from_text(text)

    def test_bad_prescale_reports_line(self):
        text = SAMPLE.replace("l2,0.5,1,1,m1", "l2,half,1,1,m1")
        with pytest.raises(DataError, match="half"):
            InstanceFile.from_text(text)

    def test_out_of_range_prescale_rejected_at_load(self, tmp_path):
        path = tmp_path / "bad.inst"
        path.write_text(SAMPLE.replace("l2,0.5", "l2,1.5"))
        with pytest.raises(DataError, match="prescale"):
            load_instance(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_instance(tmp_path / "absent.inst")


class TestIncidenceErrors:
    """Exact messages and line numbers of errors in the incidence section.

    ``SAMPLE`` has 10 lines, so appended rows start at line 11.
    """

    @staticmethod
    def error(text: str) -> str:
        assert bulk_parse(text) is None
        with pytest.raises(DataError) as info:
            InstanceFile.from_text(text)
        return str(info.value)

    def test_after_comment_and_blank_lines(self):
        gap = "\n# a comment\n   \n  # indented comment\n"
        assert self.error(SAMPLE + gap + "ev_c,l1,extra\n") == \
            "line 15: expected 2 fields, got 3"
        assert self.error(SAMPLE + gap + "ev_c,l1\n ev_d \n") == \
            "line 16: expected 2 fields, got 1"
        head, rows = SAMPLE.split("event,line\n")
        assert self.error(head + gap + "event,lines\n" + rows) == \
            "line 11: expected header 'event,line', got 'event,lines'"

    def test_inside_a_second_incidence_section(self):
        second = "[incidence]\n\nevent,line\nev_c,l1\n# done\nev_d\n"
        assert self.error(SAMPLE + second) == \
            "line 16: expected 2 fields, got 1"
        assert self.error(SAMPLE + "[incidence]\nev_c,l1\n") == \
            "line 12: expected header 'event,line', got 'ev_c,l1'"
        assert self.error(SAMPLE + "[incidence]\nevent,line\nev_c,l7\n") == \
            "incidence references unknown line 'l7'"
        # Rows of every section count, in order, and a catalog section in
        # between ends the first one.
        more = ("[catalog]\nname,prescale,turbo,persist_reco,module\n"
                "l4,1.0,1,0,m3\n[incidence]\nevent,line\nev_c,l4\nev_a,l4\n")
        inst = InstanceFile.from_text(SAMPLE + more)
        assert inst.event_ids == ("ev_a", "ev_b", "ev_c")
        assert inst.incidence.pairs() == [(0, 0), (0, 1), (0, 3), (1, 2),
                                          (2, 3)]

    def test_on_a_quoted_row(self):
        assert self.error(SAMPLE + '"ev,c",l1,"x"\n') == \
            "line 11: expected 2 fields, got 3"
        assert self.error(SAMPLE + 'ev_c,l1\n"ev,c,l1\n') == \
            "line 12: expected 2 fields, got 1"
        inst = InstanceFile.from_text(SAMPLE + '"ev,c",l1\n"ev_b",l3\n')
        assert inst.event_ids == ("ev_a", "ev_b", "ev,c")
        assert inst.incidence.pairs() == [(0, 0), (0, 1), (1, 2), (2, 0)]


class TestLoaderCases:
    """Inputs that must parse exactly as their plainest equivalent."""

    @staticmethod
    def parsed(text: str) -> tuple:
        # The bulk parse, where it takes the text, reads it the same way.
        bulk = bulk_parse(text)
        if bulk is not None:
            TestProperties.assert_same_parse(bulk, text)
        inst = InstanceFile.from_text(text)
        inc = inst.incidence
        return (inst.catalog, inst.event_ids, inc.n_events, inc.n_lines,
                inc.event_index.tolist(), inc.line_index.tolist())

    @staticmethod
    def generated() -> InstanceFile:
        return gen_synthetic(SyntheticSpec(n_events=80, n_modules=5,
                                           prescale_options=(1.0, 0.5),
                                           seed=3))

    def test_event_coming_back_keeps_its_first_number(self):
        inst = InstanceFile.from_text(SAMPLE + "ev_c,l3\nev_a,l3\n")
        assert inst.event_ids == ("ev_a", "ev_b", "ev_c")
        assert inst.incidence.pairs() == [(0, 0), (0, 1), (0, 2), (1, 2),
                                          (2, 2)]

    def test_unsorted_section_parses_as_its_sorted_permutation(self):
        inst = self.generated()
        head, rows = inst.to_text().split("event,line\n")
        rows = rows.splitlines()
        shuffled = [rows[k] for k in np.random.default_rng(0).permutation(
            len(rows))]
        # Sorting by (first appearance of the event, catalog line) keeps
        # every event's number, so both texts describe the same instance.
        first = {}
        for row in shuffled:
            first.setdefault(row.split(",")[0], len(first))
        names = inst.catalog.line_names
        ordered = sorted(shuffled, key=lambda row: (
            first[row.split(",")[0]], names.index(row.split(",")[1])))
        assert shuffled != ordered
        assert self.parsed(head + "event,line\n" + "\n".join(shuffled)) == \
            self.parsed(head + "event,line\n" + "\n".join(ordered))

    def test_crlf_parses_as_lf(self):
        text = self.generated().to_text()
        assert self.parsed(text.replace("\n", "\r\n")) == self.parsed(text)
        assert self.parsed(SAMPLE.replace("\n", "\r\n")) == \
            self.parsed(SAMPLE)
        # CRLF text takes the bulk parse and reads as the row parse does; a
        # lone CR still goes row by row.
        crlf = SAMPLE.replace("\n", "\r\n")
        TestProperties.assert_same_parse(bulk_parse(crlf), crlf)
        assert bulk_parse(SAMPLE.replace("ev_b", "ev\rb")) is None

    def test_trailing_whitespace_is_ignored(self):
        text = self.generated().to_text()
        padded = "\n".join(row + " \t" for row in text.splitlines())
        assert self.parsed(padded) == self.parsed(text)

    def test_missing_final_newline(self):
        text = self.generated().to_text()
        assert self.parsed(text.rstrip("\n")) == self.parsed(text)

    def test_comment_and_blank_rows_take_the_bulk_parse(self):
        text = self.generated().to_text()
        head, rows = text.split("event,line\n")
        commented = ('# made by "gen", seed 3\n\n' + head + "event,line\n#\n"
                     + rows.replace("\n", "\n\n\n", 1) + "# end")
        assert bulk_parse(commented) is not None
        assert self.parsed(commented) == self.parsed(text)
        # A comment that str.splitlines would break in two goes row by row.
        for brk in "\r\x0b\x1c":
            assert bulk_parse(f"#a{brk}b\n" + text) is None

    def test_keys_wider_than_one_word(self):
        # Line names that share their first 8-byte word, and one event id
        # far longer than the others.
        text = ("[catalog]\nname,prescale,turbo,persist_reco,module\n"
                "shared08_b,1.0,1,0,m1\nshared08_a,0.5,1,0,m1\n"
                "shared08,1.0,0,1,m2\n[incidence]\nevent,line\n"
                "run_0001_event_02,shared08_a\nrun_0001_event_01,shared08\n"
                "x,shared08_b\nrun_0001_event_02,shared08_b\n")
        assert row_parse(text).event_ids == ("run_0001_event_02",
                                             "run_0001_event_01", "x")
        bulk = bulk_parse(text)
        assert bulk is not None
        assert bulk[1].pairs() == [(0, 0), (0, 1), (1, 2), (2, 0)]
        TestProperties.assert_same_parse(bulk, text)

    @pytest.mark.parametrize("catalog_name", ["l1", "shared08_b"])
    def test_line_names_are_looked_up_in_the_catalog(self, catalog_name):
        # Keys of one word and of two, against a catalog that repeats a
        # name and holds a name wider than every incidence key.
        text = SAMPLE.replace("l1", catalog_name).replace(
            "[incidence]", f"{catalog_name},0.2,0,1,m3\n"
            "a_line_name_of_three_words,1.0,1,0,m3\n[incidence]")
        bulk = bulk_parse(text)
        assert bulk is not None
        assert bulk[1].pairs() == [(0, 0), (0, 1), (1, 2)]
        TestProperties.assert_same_parse(bulk, text)
        # An unknown name, one that only extends a catalog name, the first
        # one or two words of the wide catalog name, and one wider than
        # every catalog name go to the row parse, which names it.
        for name in ("l4", catalog_name + "x", "a_line_n", "a_line_name_of_t",
                     "x" * 40):
            unknown = text + f"ev_b,{name}\n"
            assert bulk_parse(unknown) is None
            with pytest.raises(DataError, match=f"unknown line '{name}'"):
                InstanceFile.from_text(unknown)

    def test_long_unused_catalog_name_keeps_the_bulk_parse(self):
        # Names are keyed as wide as the longest name of their window, not
        # of the catalog, so a long name no row uses widens no key.
        text = SAMPLE.replace("[incidence]", "x" * 200 + ",1.0,1,0,m3\n"
                              "[incidence]") + "ev_c,l1\n" * 5000
        TestProperties.assert_same_parse(bulk_parse(text), text)

    def test_too_wide_keys_take_the_row_parse(self, tmp_path, monkeypatch):
        # One 2,000-byte event id among 100 short rows would key every row
        # 2,000 bytes wide, more than the keys may take.
        text = (SAMPLE + "".join(f"ev_{k},l{1 + k % 3}\n" for k in range(100))
                + "e" * 2000 + ",l2\n")
        path = tmp_path / "x.inst"
        path.write_text(text)
        field_keys, refused = instances._field_keys, []

        def spy(data, start, stop):
            keys = field_keys(data, start, stop)
            refused.append(keys is None)
            return keys

        monkeypatch.setattr(instances, "_field_keys", spy)
        assert instances._parse_bulk(path) is None
        assert refused == [True, False]  # the event ids, then the names
        incidence, catalog = load_instance(path)
        rows = row_parse(text)
        assert catalog == rows.catalog
        assert incidence.pairs() == rows.incidence.pairs()
        loaded = InstanceFile.load(path)
        assert (loaded.catalog, loaded.event_ids, loaded.incidence.pairs()) \
            == (rows.catalog, rows.event_ids, rows.incidence.pairs())

    def test_zero_byte_in_the_text_takes_the_row_parse(self):
        # The bulk parse pads its bytes with zeros, which its scan must not
        # see; a zero byte of the text's own is a control character.
        assert bulk_parse(SAMPLE.replace("ev_b", "ev\0b")) is None
        assert InstanceFile.from_text(SAMPLE.replace("ev_b", "ev\0b")
                                      ).event_ids == ("ev_a", "ev\0b")

    @pytest.mark.parametrize("text", [
        # Event ids and line names that start with "[" but are not tags.
        CATALOG.replace("l1,", "[x],") + "[incidence]\nevent,line\n"
        "[e1],[x]\n[e1],l2\nev_b,[x]\n[x],l3\n",
        # A comment that would be a tag if it were not a comment.
        CATALOG + "#[incidence]\n" + INCIDENCE,
        # Two catalog sections, the second after the incidence.
        CATALOG.replace("l2,0.5,1,1,m1\nl3,1.0,0,0,m2\n", "") + INCIDENCE
        + "[catalog]\nname,prescale,turbo,persist_reco,module\n"
        "l2,0.5,1,1,m1\nl3,1.0,0,0,m2\n",
        # A tag followed directly by another tag.
        "[incidence]\n" + CATALOG + "[catalog]\n[incidence]\n"
        + INCIDENCE.replace("[incidence]\n", ""),
        # Skipped rows between a tag and its header.
        CATALOG.replace("]\n", "]\n#\n", 1)
        + INCIDENCE.replace("]\n", "]\n\n", 1),
        # A data row whose first field is a tag's text.
        SAMPLE + "[catalog],l1\n[incidence],l2\n",
    ], ids=["bracket-names", "commented-tag", "two-catalogs", "tag-then-tag",
            "skipped-before-header", "tag-text-as-event"])
    def test_bulk_parse_classifies_rows(self, text):
        TestProperties.assert_same_parse(bulk_parse(text), text)

    @pytest.mark.parametrize("text", [
        SAMPLE.replace("[incidence]", "[incidence_"),
        "stray\n" + SAMPLE,
        SAMPLE.replace("ev_b,l3", "ev_b l3"),
        SAMPLE.replace("ev_b,l3", 'ev_b"l3'),
    ], ids=["near-tag", "row-before-tag", "space-for-comma",
            "quote-for-comma"])
    def test_bulk_parse_leaves_other_rows_to_the_row_parse(self, text):
        assert bulk_parse(text) is None

    def test_duplicate_warning_counts_rows(self, caplog):
        with caplog.at_level("WARNING"):
            inst = InstanceFile.from_text(
                SAMPLE + "ev_b,l3\nev_a,l1\nev_b,l3\n")
        assert inst.incidence.pairs() == [(0, 0), (0, 1), (1, 2)]
        assert caplog.messages == ["ignored 3 duplicate incidence rows"]

    def test_incidence_canonicalises_unsorted_arrays(self):
        ev = np.array([2, 0, 1, 0, 2])
        li = np.array([0, 3, 1, 1, 2])
        order = np.lexsort((li, ev))
        unsorted = EventLineIncidence(3, 4, np.column_stack((ev, li)))
        ordered = EventLineIncidence(3, 4, np.column_stack((ev[order],
                                                            li[order])))
        assert unsorted.event_index.tolist() == [0, 0, 1, 2, 2]
        assert unsorted.line_index.tolist() == [1, 3, 1, 0, 2]
        assert unsorted.event_index.tolist() == ordered.event_index.tolist()
        assert unsorted.line_index.tolist() == ordered.line_index.tolist()

    def test_incidence_rejects_duplicated_arrays(self):
        for entries in ([(1, 0), (0, 2), (1, 0)], [(0, 2), (1, 0), (1, 0)]):
            with pytest.raises(DataError) as info:
                EventLineIncidence(2, 3, np.array(entries))
            assert str(info.value) == "duplicate incidence entry (1, 0)"


class TestWindowedParse:
    """The bulk parse scans and keys each section in windows of about
    ``_WINDOW_BYTES`` that end at a row end.  With windows of one to a few
    rows, runs, names, comments and line ends meet window edges, and every
    text must still parse as the row parse reads it, errors included."""

    @pytest.fixture(autouse=True, params=[1, 20, 64])
    def window(self, request, monkeypatch):
        monkeypatch.setattr(instances, "_WINDOW_BYTES", request.param)

    @staticmethod
    def same(text: str):
        TestProperties.assert_same_parse(bulk_parse(text), text)

    def test_runs_and_names_cut_by_window_edges(self):
        # ev_c's run spans windows and ev_a comes back after it; l3 is first
        # named in a later window, whose event keys are wider.
        self.same(SAMPLE.replace("ev_b,l3\n", "") + "ev_c,l1\nev_c,l2\n"
                  "ev_c,l1\nev_a,l2\nrun_0001_event_0002,l3\nev_b,l3\n")
        self.same(TestLoaderCases.generated().to_text())

    def test_crlf_and_commented_texts(self):
        text = TestLoaderCases.generated().to_text()
        self.same(text.replace("\n", "\r\n"))
        head, rows = text.split("event,line\n")
        self.same(head.replace("]\n", "]\n# a, \"b\"\n\n") + "event,line\n"
                  + rows.replace("\n", "\n#\n\n", 7) + "# end")

    def test_unknown_name_in_a_later_window(self):
        text = SAMPLE + "ev_c,l1\n" * 5 + "ev_d,l4\n"
        assert bulk_parse(text) is None
        with pytest.raises(DataError, match="unknown line 'l4'"):
            InstanceFile.from_text(text)

    @pytest.mark.parametrize("tail, message", [
        ("ev_c,l1\n" * 4 + "ev_c,l1,x\n", "line 15: expected 2 fields, got 3"),
        ("#\n\n" * 3 + "ev_c\n", "line 17: expected 2 fields, got 1"),
        ("[incidence]\n#\nev_c,l1\n", "line 13: expected header "
         "'event,line', got 'ev_c,l1'"),
    ])
    def test_errors_keep_their_line_numbers(self, tail, message):
        assert TestIncidenceErrors.error(SAMPLE + tail) == message

    @pytest.mark.parametrize("edit", [str, str.rstrip,
                                      lambda t: t.replace("\n", "\r\n")])
    def test_file_load_reads_as_the_text(self, edit):
        self.same(edit(SAMPLE + "ev_c,l3\nev_a,l3\n"))


class TestLoaders:
    """``load_instance`` reads a file as ``InstanceFile.load`` does, errors
    included.  Each parser has one consumer: ``load_instance`` reads a plain
    file in bulk alone, and ``InstanceFile`` reads every file row by row."""

    @staticmethod
    def texts() -> dict:
        text = TestLoaderCases.generated().to_text()
        head, rows = text.split("event,line\n")
        return {
            "plain": text,
            "commented": ('# made by "gen", seed 3\n\n' + head
                          + "event,line\n#\n" + rows.replace("\n", "\n\n", 3)
                          + "# end"),
            "crlf": text.replace("\n", "\r\n"),
            "quoted": text + '"ev,x",mod00_l0\n',
        }

    @staticmethod
    def refuse(monkeypatch, parser: str):
        def refuse(*args):
            raise AssertionError(f"{parser} was called")

        monkeypatch.setattr(instances, parser, refuse)

    @pytest.mark.parametrize("kind", ["plain", "commented", "crlf", "quoted"])
    def test_both_loaders_agree(self, tmp_path, monkeypatch, kind):
        text = self.texts()[kind]
        path = tmp_path / "x.inst"
        path.write_bytes(text.encode())
        assert (instances._parse_bulk(path) is None) == (kind == "quoted")
        with monkeypatch.context() as patch:
            self.refuse(patch, "_parse_bulk")
            reference = InstanceFile.load(path)
            assert InstanceFile.from_text(text).to_text() == \
                reference.to_text()
        if kind != "quoted":
            self.refuse(monkeypatch, "_parse_rows")
        incidence, catalog = load_instance(path)
        assert catalog == reference.catalog
        same_columns(incidence, reference.incidence)

    @pytest.mark.parametrize("tail", [
        "ev_c,l9\n", "#\n\nev_c,l1,x\n", "ev_c\n",
        "[incidence]\n#\nev_c,l1\n", '"ev,c",l1,"x"\n', "ev_c,l1\r\nev_d\n",
    ])
    def test_errors_agree(self, tmp_path, tail):
        path = tmp_path / "x.inst"
        path.write_bytes((SAMPLE + tail).encode())
        messages = []
        for load in (load_instance, InstanceFile.load):
            with pytest.raises(DataError) as info:
                load(path)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == TestIncidenceErrors.error(
            SAMPLE + tail.replace("\r\n", "\n"))


class TestSetUpMemory:
    def test_peaks_stay_proportional_to_the_file(self, tmp_path):
        # The desk spec at 10^5 requested events: a 2.4 MB file, whose load,
        # fold and row groups peaked at 3.3, 1.9 and 1.5 times its size.
        spec = SyntheticSpec(n_events=100_000, n_modules=100,
                             lines_per_module=(2, 2), n_latent_clusters=10,
                             intra_cluster_pass_rate=0.06,
                             cross_cluster_pass_rate=0.001,
                             prescale_options=(1.0, 0.5), seed=1000)
        path = tmp_path / "desk.inst"
        gen_synthetic(spec).write(path)

        def peak(stage):
            tracemalloc.start()
            try:
                return stage(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (incidence, catalog), load = peak(lambda: load_instance(path))
        fold, folding = peak(lambda: fold_modules(incidence, catalog))
        _, grouping = peak(fold.row_groups)
        size = path.stat().st_size
        assert load < 4 * size, load / size
        assert folding < 2.5 * size, folding / size
        assert grouping < 2.5 * size, grouping / size


class TestSchemeFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        inst = InstanceFile.from_text(SAMPLE)
        scheme = Scheme(4, (2, 0))  # streams 1 and 3 stay empty
        path = tmp_path / "plan.scheme"
        write_scheme(path, scheme, inst.catalog)
        assert load_scheme(path, inst.catalog) == scheme

    def test_missing_module_named(self):
        inst = InstanceFile.from_text(SAMPLE)
        with pytest.raises(DataError, match="m2"):
            scheme_from_text("module,stream\nm1,0\n", inst.catalog)

    def test_unknown_module_named(self):
        inst = InstanceFile.from_text(SAMPLE)
        text = scheme_to_text(Scheme(1, (0, 0)), inst.catalog) + "mX,0\n"
        with pytest.raises(DataError, match="mX"):
            scheme_from_text(text, inst.catalog)

    def test_duplicate_module_rejected(self):
        inst = InstanceFile.from_text(SAMPLE)
        with pytest.raises(DataError, match="duplicate"):
            scheme_from_text("module,stream\nm1,0\nm1,1\nm2,0\n", inst.catalog)

    def test_stream_outside_header_range_rejected(self):
        inst = InstanceFile.from_text(SAMPLE)
        with pytest.raises(DataError, match="invalid scheme"):
            scheme_from_text("# n_streams=1\nmodule,stream\nm1,0\nm2,3\n",
                             inst.catalog)

    def test_n_streams_defaults_to_max_plus_one(self):
        inst = InstanceFile.from_text(SAMPLE)
        scheme = scheme_from_text("module,stream\nm1,0\nm2,2\n", inst.catalog)
        assert scheme.n_streams == 3

    def test_last_n_streams_comment_wins(self):
        inst = InstanceFile.from_text(SAMPLE)
        text = "# n_streams=2\nmodule,stream\nm1,0\n#n_streams= 5\nm2,1\n"
        assert scheme_from_text(text, inst.catalog) == Scheme(5, (0, 1))
        with pytest.raises(DataError) as info:
            scheme_from_text(text + "# n_streams=many\n", inst.catalog)
        assert str(info.value) == "line 6: bad n_streams header"

    def test_header_error_names_the_row(self):
        inst = InstanceFile.from_text(SAMPLE)
        with pytest.raises(DataError) as info:
            scheme_from_text("# n_streams=2\nm1,0\nm2,1\n", inst.catalog)
        assert str(info.value) == \
            "line 2: expected header 'module,stream', got 'm1,0'"


class TestMeasurementFiles:
    GOOD = ("scheme_id,stream_id,n_lines,measured_time_s,measured_size_kb\n"
            "base,0,2,19.0,120.5\nbase,1,1,14.0,60.25\n")

    def test_load(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(self.GOOD)
        records = load_measurements(path)
        assert len(records) == 2
        assert records[0].scheme_id == "base"
        assert records[0].n_lines == 2
        assert records[1].measured_size_kb == 60.25

    def test_header_required(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="header"):
            load_measurements(path)

    def test_negative_measurement_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(self.GOOD + "base,2,1,-3.0,1.0\n")
        with pytest.raises(DataError, match="negative"):
            load_measurements(path)

    @pytest.mark.parametrize("row", ["base,2,1,nan,1.0", "base,2,1,3.0,inf",
                                     "base,2,1,-inf,1.0", "base,2,1,1.0,NaN"])
    def test_non_finite_measurement_rejected(self, tmp_path, row):
        path = tmp_path / "m.csv"
        path.write_text(self.GOOD + row + "\n")
        with pytest.raises(DataError) as info:
            load_measurements(path)
        assert str(info.value) == "line 4: non-finite measurement"

    def test_header_error_names_the_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# runs of May\n\nscheme,stream\n")
        with pytest.raises(DataError) as info:
            load_measurements(path)
        assert str(info.value) == (
            f"line 3: expected header '{instances.MEASUREMENT_HEADER}', "
            f"got 'scheme,stream'")


class TestRowGrammar:
    """The one row grammar of the three formats."""

    HEADERS = {"a": "x,y", "b": "z"}

    def rows(self, text, headers=None):
        return list(instances._rows(text, headers or self.HEADERS))

    def test_sections_comments_and_quotes(self):
        text = ("# top\n[a]\n  x,y \n1,2\n\n[b]\nz\n\"3,4\"\n"
                "[c]\n[a]\nx,y\n # gap\n5,6\n")
        assert self.rows(text) == [(4, "a", ["1", "2"]), (8, "b", ["3,4"]),
                                   (9, "b", ["[c]"]), (13, "a", ["5", "6"])]

    def test_format_without_sections(self):
        assert self.rows("z\n[a]\n", {None: "z"}) == [(2, None, ["[a]"])]

    def test_content_before_any_section(self):
        with pytest.raises(DataError) as info:
            self.rows("# top\nx,y\n")
        assert str(info.value) == "line 2: content before any section header"


class TestAtomicWriters:
    """The library writers leave the old file or the new one, never a part."""

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        inst = InstanceFile.from_text(SAMPLE)
        with pytest.raises(DataError, match="cannot write"):
            inst.write(tmp_path / "absent" / "x.inst")
        path = tmp_path / "x.scheme"
        path.write_text("old\n")

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(instances.os, "replace", fail)
        with pytest.raises(DataError, match="cannot write.*disk full"):
            write_scheme(path, Scheme(1, (0, 0)), inst.catalog)
        with pytest.raises(DataError, match="cannot write"):
            inst.write(tmp_path / "x.inst")
        assert [p.name for p in tmp_path.iterdir()] == ["x.scheme"]
        assert path.read_text() == "old\n"


class TestUndecodableFiles:
    """A file that is not valid UTF-8 is a data error, not a crash."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\xff" + SAMPLE.encode())
        return path

    def test_instance(self, path):
        with pytest.raises(DataError, match="cannot read instance file"):
            load_instance(path)

    def test_scheme(self, path):
        catalog = InstanceFile.from_text(SAMPLE).catalog
        with pytest.raises(DataError, match="cannot read scheme file"):
            load_scheme(path, catalog)

    def test_measurements(self, path):
        with pytest.raises(DataError, match="cannot read measurement file"):
            load_measurements(path)


class TestSyntheticGenerator:
    def test_deterministic_bytes(self):
        spec = SyntheticSpec(n_events=120, n_modules=6, seed=9,
                             prescale_options=(1.0, 0.5))
        assert gen_synthetic(spec).to_text() == gen_synthetic(spec).to_text()

    @pytest.mark.parametrize("block_cells", [instances._BLOCK_CELLS, 1, 16])
    def test_pinned_output(self, monkeypatch, block_cells):
        # Pins the generator's random stream: catalog draws, cluster draws,
        # pass draws (whatever their block size) and dropped-event renumbering.
        monkeypatch.setattr(instances, "_BLOCK_CELLS", block_cells)
        spec = SyntheticSpec(n_events=300, n_modules=7, lines_per_module=(1, 3),
                             n_latent_clusters=3, intra_cluster_pass_rate=0.3,
                             cross_cluster_pass_rate=0.01,
                             prescale_options=(1.0, 0.5, 0.25),
                             persist_reco_fraction=0.4, turbo_fraction=0.8,
                             seed=20)
        inst = gen_synthetic(spec)
        assert inst.incidence.n_events == 256
        assert hashlib.sha256(inst.to_text().encode()).hexdigest() == \
            "91159388939ed365a5e250b60bc96e395274c494ea61838a83a056621d3b346d"

    def test_different_seeds_differ(self):
        a = gen_synthetic(SyntheticSpec(n_events=120, n_modules=6, seed=1))
        b = gen_synthetic(SyntheticSpec(n_events=120, n_modules=6, seed=2))
        assert a.to_text() != b.to_text()

    def test_zero_cross_rate_is_block_diagonal(self):
        spec = SyntheticSpec(n_events=300, n_modules=8, n_latent_clusters=4,
                             intra_cluster_pass_rate=0.8,
                             cross_cluster_pass_rate=0.0, seed=4)
        inst = gen_synthetic(spec)
        cluster_of_module = (np.arange(8) * 4) // 8
        module_of_line = inst.catalog.module_of_line
        for event in range(inst.incidence.n_events):
            clusters = {
                int(cluster_of_module[module_of_line[l]])
                for e, l in inst.incidence.pairs() if e == event
            }
            assert len(clusters) == 1

    def test_empty_events_are_dropped(self, caplog):
        spec = SyntheticSpec(n_events=200, n_modules=4,
                             intra_cluster_pass_rate=0.05,
                             cross_cluster_pass_rate=0.0, seed=5)
        with caplog.at_level("INFO"):
            inst = gen_synthetic(spec)
        dropped = 200 - inst.incidence.n_events
        assert dropped > 0
        assert caplog.messages == [
            f"dropped {dropped} events that pass no line"]

    def test_validates_cleanly(self):
        spec = SyntheticSpec(n_events=150, n_modules=6, seed=6,
                             prescale_options=(1.0, 0.4, 0.7))
        inst = gen_synthetic(spec)
        assert validate_dataset(inst.incidence, inst.catalog) == []

    def test_rate_bounds_checked(self):
        with pytest.raises(ValueError):
            SyntheticSpec(intra_cluster_pass_rate=1.5)
        with pytest.raises(ValueError):
            SyntheticSpec(prescale_options=(2.0,))
        with pytest.raises(ValueError):
            SyntheticSpec(lines_per_module=(3, 1))


# -- properties ----------------------------------------------------------------

# Every character ``str.splitlines`` breaks on, so a drawn line stays one line.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
single_lines = st.text(
    st.one_of(st.sampled_from(',"ab '),
              st.characters(blacklist_characters=LINE_BREAKS)),
    min_size=1)
NAME_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_.-"
# Names span up to three 8-byte words, and some share their first word, so
# that the bulk parse compares keys wider than one word.
names = st.one_of(
    st.text(NAME_CHARS, min_size=1, max_size=20),
    st.text(NAME_CHARS, max_size=12).map(lambda tail: "shared08" + tail))
# Rows that both parsers skip: blank rows and comments, which may hold
# spaces, quotes and commas but no line break.
skipped_rows = st.one_of(
    st.just(""),
    st.text(st.characters(min_codepoint=32, max_codepoint=126)).map(
        lambda comment: "#" + comment))


# Names the writers must quote: commas and quotes anywhere, "#" and blanks
# at either end.
quoted_names = st.text(st.sampled_from('ab,"# \t'), max_size=6)


@st.composite
def line_records(draw, names=names, prescales=st.floats(0.0, 1.0)):
    line_names = draw(st.lists(names, min_size=1, max_size=6, unique=True))
    module_names = draw(st.lists(names, min_size=1, max_size=len(line_names),
                                 unique=True))
    # Each module gets its first line; the rest go anywhere.
    modules = module_names + [draw(st.sampled_from(module_names))
                              for _ in line_names[len(module_names):]]
    return tuple(
        LineRecord(name, draw(prescales), draw(st.booleans()),
                   draw(st.booleans()), module)
        for name, module in zip(line_names, modules))


@st.composite
def instance_files(draw, names=names):
    lines = draw(line_records(names))
    event_ids = draw(st.lists(names, min_size=1, max_size=8, unique=True))
    n_lines = len(lines)
    pairs = {(e, draw(st.integers(0, n_lines - 1)))
             for e in range(len(event_ids))}
    pairs |= draw(st.sets(st.tuples(st.integers(0, len(event_ids) - 1),
                                    st.integers(0, n_lines - 1))))
    incidence = EventLineIncidence(len(event_ids), n_lines, sorted(pairs))
    return InstanceFile(LineCatalog(lines), incidence, tuple(event_ids))


class TestProperties:
    @given(single_lines)
    def test_split_row_matches_csv_reader(self, line):
        expected = next(csv.reader([line]))
        assert instances._split_row(line, 7, len(expected)) == expected
        with pytest.raises(DataError, match=(
                f"line 7: expected {len(expected) + 1} fields, "
                f"got {len(expected)}$")):
            instances._split_row(line, 7, len(expected) + 1)

    @given(instance_files(names | quoted_names))
    def test_instance_text_round_trip(self, inst):
        text = inst.to_text()
        parsed = InstanceFile.from_text(text)
        assert parsed.catalog == inst.catalog
        assert parsed.event_ids == inst.event_ids
        assert parsed.incidence.n_events == inst.incidence.n_events
        assert parsed.incidence.n_lines == inst.incidence.n_lines
        assert parsed.incidence.pairs() == inst.incidence.pairs()
        assert parsed.to_text() == text

    @given(line_records(names | quoted_names))
    def test_parsed_catalogs_equal_the_records(self, records):
        # Both parsers build the columns straight from the text; they must
        # equal the columns of the records the text was written from.
        catalog = LineCatalog(records)
        n_lines = catalog.n_lines
        text = InstanceFile(catalog, EventLineIncidence(
            1, n_lines, [(0, k) for k in range(n_lines)]), ("e",)).to_text()
        parsed = [instances._parse_rows(text)[0]]
        bulk = bulk_parse(text)
        plain = all(set(name) <= set(NAME_CHARS)
                    for name in catalog.line_names + catalog.modules)
        assert plain <= (bulk is not None)
        parsed += [bulk[0]] if bulk else []
        for parse in parsed:
            assert parse == catalog
            assert parse.lines == records
            assert LineCatalog(parse.lines) == parse
            for column in ("prescales", "turbo_mask", "persist_reco_mask",
                           "module_of_line", "module_line_counts"):
                array, expected = getattr(parse, column), getattr(catalog,
                                                                  column)
                assert array.dtype == expected.dtype
                assert not array.flags.writeable

    @given(st.lists(st.builds(LineRecord, st.sampled_from(["a", "b", "c,d"]),
                              st.floats(-0.5, 1.5) | st.floats()),
                    min_size=1, max_size=8),
           st.integers(1, 8))
    def test_validation_matches_record_reference(self, records, n_lines):
        # Repeated names, and prescales out of range, infinite or NaN.
        incidence = EventLineIncidence(1, n_lines, [(0, 0)])
        catalog = LineCatalog(records)
        assert validate_dataset(incidence, catalog) == \
            reference_validate_dataset(incidence, catalog)

    @given(instance_files(), st.data())
    def test_bulk_parse_matches_row_parse(self, inst, data):
        # The row-by-row parse is the reference: the bulk parse takes every
        # canonical text, and whatever it takes it must read the same way.
        text = inst.to_text()
        assert bulk_parse(text) is not None
        rows = text.splitlines()
        # Blank and comment rows anywhere keep a text plain.
        for _ in range(data.draw(st.integers(1, 3))):
            rows.insert(data.draw(st.integers(0, len(rows))),
                        data.draw(skipped_rows))
        text = "\n".join(rows) + data.draw(st.sampled_from(["", "\n"]))
        self.assert_same_parse(bulk_parse(text), text)
        for _ in range(data.draw(st.integers(0, 3))):
            i = data.draw(st.integers(0, len(rows) - 1))
            j = data.draw(st.integers(0, len(rows) - 1))
            edit = data.draw(st.sampled_from(["swap", "copy", "delete"]))
            if edit == "swap":
                rows[i], rows[j] = rows[j], rows[i]
            elif edit == "copy":
                rows.insert(j, rows[i])
            elif len(rows) > 1:
                del rows[i]
        text = "\n".join(rows) + data.draw(st.sampled_from(["", "\n"]))
        bulk = bulk_parse(text)
        if bulk is not None:
            self.assert_same_parse(bulk, text)

    @staticmethod
    def assert_same_parse(bulk, text):
        reference = row_parse(text)
        assert bulk is not None
        catalog, incidence = bulk
        assert catalog == reference.catalog
        same_columns(incidence, reference.incidence)

    @given(instance_files(names | quoted_names), st.data())
    def test_scheme_text_round_trip(self, inst, data):
        n_modules = inst.catalog.n_modules
        n_streams = data.draw(st.integers(1, n_modules + 2))
        assignment = data.draw(st.lists(st.integers(0, n_streams - 1),
                                        min_size=n_modules,
                                        max_size=n_modules))
        scheme = Scheme(n_streams, tuple(assignment))
        text = scheme_to_text(scheme, inst.catalog)
        assert scheme_from_text(text, inst.catalog) == scheme

    @given(instance_files(), st.data())
    def test_malformed_instance_text_is_a_data_error(self, inst, data):
        rows = inst.to_text().splitlines()
        at = data.draw(st.integers(0, len(rows) - 1))
        edit = data.draw(st.sampled_from(["replace", "insert", "delete",
                                          "truncate"]))
        if edit == "replace":
            rows[at] = data.draw(st.text())
        elif edit == "insert":
            rows.insert(at, data.draw(st.text()))
        elif edit == "delete":
            del rows[at]
        else:
            rows[at] = rows[at][:data.draw(st.integers(0, len(rows[at])))]
        text = "\n".join(rows)
        # The bulk parse takes only what the row parse reads, and reads it
        # the same way.
        bulk = bulk_parse(text)
        if bulk is not None:
            self.assert_same_parse(bulk, text)
        try:
            parsed = InstanceFile.from_text(text)
        except DataError:
            return
        validate_dataset(parsed.incidence, parsed.catalog)
