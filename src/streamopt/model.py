"""Core data model: event/line incidence, line catalogs, and module folding.

An *incidence* records which events pass which selection lines.  Lines are
grouped into *modules* that must be streamed together; folding an incidence
over the modules gives, per event and module, the probability that the event
is kept by at least one of the module's lines after prescaling:

    fold[e, m] = 1 - prod_{l in m, e passes l} (1 - prescale[l])

The fold is a sparse CSR record (:class:`CSR`) at every module count.  For
evaluation it is recast as a binary incidence: each module becomes one 0/1
column per distinct fold value it takes, and identical event rows are merged
with multiplicities
(:meth:`ModuleIncidence.row_groups`).

All objects are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import logging
from dataclasses import astuple, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LineRecord:
    """One selection line.

    ``prescale`` is the probability that a positive decision is kept.  Turbo
    lines persist per-candidate payload; persist-reco lines additionally
    persist shared full-event payload.  Range checks are deliberately left to
    :func:`validate_dataset` so that malformed catalogs can be reported as a
    batch instead of raising record by record.
    """

    name: str
    prescale: float = 1.0
    is_turbo: bool = True
    is_persist_reco: bool = False
    module: str | None = None

    def __post_init__(self):
        if self.module is None:
            # A line without an explicit group is its own module.
            object.__setattr__(self, "module", self.name)


class LineCatalog:
    """Ordered collection of lines, held as columns: names, prescales,
    turbo and persist-reco flags, and each line's index in ``modules``, in
    order of first appearance.  Built of :class:`LineRecord` records, or
    by the parsers of columns (:meth:`of_columns`); equal when the lines
    are."""

    def __init__(self, lines):
        rows = list(map(astuple, lines))
        *columns, modules = zip(*rows) if rows else [()] * 5
        vars(self).update(vars(self.of_columns(*columns, *_number(modules))))

    @classmethod
    def of_columns(cls, line_names, prescales, turbo, persist_reco,
                   module_of_line, modules) -> "LineCatalog":
        """The catalog of its columns, whose arrays it takes over without a
        copy; ``modules`` must be numbered by first appearance."""
        if not line_names:
            raise DataError("catalog must contain at least one line")
        catalog = cls.__new__(cls)
        catalog.line_names, catalog.modules = tuple(line_names), tuple(modules)
        catalog.prescales = _read_only(np.asarray(prescales, float))
        catalog.turbo_mask = _read_only(np.asarray(turbo, bool))
        catalog.persist_reco_mask = _read_only(np.asarray(persist_reco, bool))
        catalog.module_of_line = _read_only(np.asarray(module_of_line, np.int64))
        return catalog

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            self.line_names == other.line_names
            and self.modules == other.modules
            and all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in ("prescales", "turbo_mask",
                                 "persist_reco_mask", "module_of_line")))

    def __hash__(self):
        return hash(self.line_names)

    def __repr__(self):
        return (f"LineCatalog(n_lines={self.n_lines}, "
                f"n_modules={self.n_modules})")

    @cached_property
    def lines(self) -> tuple[LineRecord, ...]:
        """The lines as records, built on first use."""
        modules = map(self.modules.__getitem__, self.module_of_line.tolist())
        return tuple(map(LineRecord, self.line_names, self.prescales.tolist(),
                         self.turbo_mask.tolist(),
                         self.persist_reco_mask.tolist(), modules))

    @property
    def n_lines(self) -> int:
        return len(self.line_names)

    @property
    def n_modules(self) -> int:
        return len(self.modules)

    @cached_property
    def module_line_counts(self) -> np.ndarray:
        return _read_only(np.bincount(self.module_of_line,
                                      minlength=self.n_modules))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _number(keys) -> tuple[np.ndarray, tuple]:
    """Codes of ``keys`` by first appearance, and the distinct keys."""
    index: dict = {}
    codes = [index.setdefault(key, len(index)) for key in keys]
    return np.array(codes, dtype=np.int64), tuple(index)


def _line_index(line_names: tuple[str, ...]) -> dict[str, int]:
    """Each line name's first catalog line."""
    n = len(line_names)
    return dict(zip(reversed(line_names), range(n - 1, -1, -1)))


class EventLineIncidence:
    """Sparse binary event-by-line pass matrix.

    ``entries`` is an ``(n, 2)`` integer array of (event, line) pairs or an
    iterable of such pairs.  Entries are canonicalized to lexicographic
    (event, line) order; entries already in that order, without repeats, are
    only checked.  Every event must pass at least one line; use
    :meth:`dropping_empty_events` to ingest raw data that may contain events
    passing nothing.
    """

    def __init__(self, n_events: int, n_lines: int, entries):
        self._adopt(n_events, n_lines, entries, False)

    @classmethod
    def of_sorted(cls, n_events: int, n_lines: int, ev: np.ndarray,
                  li: np.ndarray) -> "EventLineIncidence":
        """The incidence of int64 index columns already in strictly
        increasing (event, line) order, which it takes over without a copy."""
        incidence = cls.__new__(cls)
        incidence._adopt(n_events, n_lines, (ev, li), True)
        return incidence

    def _adopt(self, n_events, n_lines, entries, ordered: bool):
        n_events = int(n_events)
        n_lines = int(n_lines)
        if n_events < 1 or n_lines < 1:
            raise DataError("incidence needs at least one event and one line")
        ev, li = entries if ordered else _entry_columns(entries)
        if ev.min() < 0 or ev.max() >= n_events:
            raise DataError(f"event index out of range [0, {n_events})")
        if li.min() < 0 or li.max() >= n_lines:
            raise DataError(f"line index out of range [0, {n_lines})")
        if not ordered and _strictly_increasing(ev, li):
            ev, li = ev.copy(), li.copy()
        elif not ordered:
            order = np.lexsort((li, ev))
            ev, li = ev[order], li[order]
            dup = (np.diff(ev) == 0) & (np.diff(li) == 0)
            if dup.any():
                k = int(np.nonzero(dup)[0][0])
                raise DataError(
                    f"duplicate incidence entry ({ev[k]}, {li[k]})")
        passes = np.bincount(ev, minlength=n_events)
        if (passes == 0).any():
            missing = int(np.nonzero(passes == 0)[0][0])
            raise DataError(f"event {missing} passes no line")
        ev.setflags(write=False)
        li.setflags(write=False)
        self._n_events = n_events
        self._n_lines = n_lines
        self._event_index = ev
        self._line_index = li

    @classmethod
    def dropping_empty_events(
        cls, n_events: int, n_lines: int, entries
    ) -> tuple["EventLineIncidence", int]:
        """Build an incidence, renumbering away events that pass no line.

        Returns the incidence and the number of dropped events; the count is
        also logged because it silently shrinks the dataset.
        """
        n_events = int(n_events)
        ev, li = _entry_columns(entries)
        if ev.min() < 0 or ev.max() >= n_events:
            raise DataError(f"event index out of range [0, {n_events})")
        present = np.bincount(ev, minlength=n_events) > 0
        n_present = int(present.sum())
        dropped = n_events - n_present
        if dropped:
            logger.info("dropped %d events that pass no line", dropped)
            ev = (np.cumsum(present) - 1)[ev]
        return cls(n_present, n_lines, np.column_stack((ev, li))), dropped

    @classmethod
    def from_dense(cls, matrix) -> "EventLineIncidence":
        mat = np.asarray(matrix, dtype=bool)
        return cls(mat.shape[0], mat.shape[1], np.argwhere(mat))

    @property
    def n_events(self) -> int:
        return self._n_events

    @property
    def n_lines(self) -> int:
        return self._n_lines

    @property
    def n_entries(self) -> int:
        return len(self._event_index)

    @property
    def event_index(self) -> np.ndarray:
        return self._event_index

    @property
    def line_index(self) -> np.ndarray:
        return self._line_index

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self._event_index.tolist(), self._line_index.tolist()))

    def to_dense(self) -> np.ndarray:
        mat = np.zeros((self._n_events, self._n_lines), dtype=bool)
        mat[self._event_index, self._line_index] = True
        return mat

    def __repr__(self):
        return (f"EventLineIncidence(n_events={self._n_events}, "
                f"n_lines={self._n_lines}, n_entries={self.n_entries})")


def _strictly_increasing(major: np.ndarray, minor: np.ndarray) -> bool:
    """Whether the (major, minor) pairs are in strictly increasing order."""
    later = major[1:] > major[:-1]
    later |= (major[1:] == major[:-1]) & (minor[1:] > minor[:-1])
    return bool(later.all())


def _entry_columns(entries) -> tuple[np.ndarray, np.ndarray]:
    """Event and line index columns of an entry array or iterable of pairs."""
    if not isinstance(entries, np.ndarray):
        entries = list(entries)
    arr = np.asarray(entries, dtype=np.int64)
    if arr.size == 0:
        raise DataError("incidence has no entries")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DataError("incidence entries must be (event, line) pairs")
    return arr[:, 0], arr[:, 1]


class CSR(NamedTuple):
    """A sparse matrix as canonical CSR arrays: sorted, distinct columns in
    each row and no stored zeros."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)),
            self.indices] = self.data
        return out


def _csr(n_row: int, n_col: int, rows, columns, data) -> CSR:
    """The CSR form of entries given in row-major order.  As in scipy, the
    index arrays are int32 unless the nonzeros or a dimension need int64."""
    big = max(len(data), n_row, n_col) > np.iinfo(np.int32).max
    dtype = np.int64 if big else np.int32
    return CSR(np.searchsorted(rows, np.arange(n_row + 1)).astype(dtype),
               columns.astype(dtype), data, (n_row, n_col))


class RowGroups(NamedTuple):
    """A fold's distinct event rows, over binary (module, value) columns.

    Column ``c`` stands for module ``column_module[c]`` at fold value
    ``column_value[c]``; ``hits[r, c]`` is 1 when distinct row ``r`` has that
    value in that module, and ``weights[r]`` counts the events with row ``r``.
    """

    hits: CSR
    weights: np.ndarray
    column_module: np.ndarray
    column_value: np.ndarray


class ModuleIncidence:
    """Per-event, per-module selection probabilities produced by folding.

    ``values`` is an ``(n_events, n_modules)`` :class:`CSR` record, which is
    taken as it is, or a dense 2-D array.  All values lie in (0, 1]; with
    unit prescales they are exactly 1.
    """

    def __init__(self, n_events: int, n_modules: int, values):
        self._n_events = int(n_events)
        self._n_modules = int(n_modules)
        if not isinstance(values, CSR):
            values = np.asarray(values, dtype=float)
        if values.shape != (self._n_events, self._n_modules):
            raise DataError(
                f"values shape {values.shape} does not match "
                f"({self._n_events}, {self._n_modules})"
            )
        if not isinstance(values, CSR):
            rows, columns = np.nonzero(values)
            values = _csr(*values.shape, rows, columns, values[rows, columns])
        data = values.data
        # Negated so that NaN, which fails every comparison, is rejected.
        if data.size and not (np.min(data) >= 0.0 and np.max(data) <= 1.0):
            raise DataError("module incidence values must lie in [0, 1]")
        self._values = values

    @property
    def n_events(self) -> int:
        return self._n_events

    @property
    def n_modules(self) -> int:
        return self._n_modules

    @property
    def values(self) -> CSR:
        return self._values

    @property
    def is_dense(self) -> bool:
        """Always False: the fold is sparse at every module count."""
        return False

    def to_dense(self) -> np.ndarray:
        return self._values.toarray()

    def row_groups(self) -> RowGroups:
        """Distinct rows and their multiplicities (cached).

        Rows are compared exactly, by their sorted column ids, and listed in
        lexicographic order of those ids.
        """
        cached = getattr(self, "_row_groups", None)
        if cached is None:
            cached = self._group_rows()
            self._row_groups = cached
        return cached

    def _group_rows(self) -> RowGroups:
        values = self._values
        n_events, nnz = self._n_events, values.nnz
        # One column per distinct (module, value) pair, ordered by module and
        # then value, so each row's column ids come out sorted as its module
        # ids are.  The pairs are numbered through integer codes of the
        # distinct values, by a table of the codes present unless the table
        # would be larger than the fold; return_counts keeps np.unique off
        # its masked-array check, which imports numpy.ma (about 14 ms and
        # 1.2 MB) on numpy 2.
        distinct = np.unique(values.data, return_counts=True)[0]
        code = np.searchsorted(distinct, values.data)
        code += np.multiply(values.indices, len(distinct), dtype=np.int64)
        if self._n_modules * len(distinct) <= max(nnz, 1 << 16):
            present = np.zeros(self._n_modules * len(distinct), bool)
            present[code] = True
            pairs = np.flatnonzero(present)
            label = np.cumsum(present)[code]  # column id + 1
        else:
            pairs, label = np.unique(code, return_inverse=True)
            label += 1
        del code

        # Exact row dedupe: each row's column ids + 1, zero-padded to the
        # widest row, sorted lexicographically.  The labels are at most 16
        # bits below 65,536 columns, where numpy's stable sort, and so
        # np.lexsort, is a radix sort.  np.take gathers columns several
        # times faster than fancy indexing.
        lengths = np.diff(values.indptr)
        width = max(1, int(lengths.max(initial=0)))
        padded = np.zeros((width, n_events), np.min_scalar_type(len(pairs)))
        row = np.repeat(np.arange(n_events, dtype=lengths.dtype), lengths)
        padded[np.arange(nnz, dtype=row.dtype) - values.indptr[row], row] = label
        del row, label
        rows = np.lexsort(padded[::-1])
        ordered = np.take(padded, rows, axis=1)
        starts = np.flatnonzero(np.r_[True, np.any(
            ordered[:, 1:] != ordered[:, :-1], axis=0)])
        del ordered
        first = rows[starts]
        padded = np.take(padded, first, axis=1).T
        counts = lengths[first]
        hits = _csr(len(starts), len(pairs),
                    np.repeat(np.arange(len(starts)), counts),
                    padded[padded > 0] - 1, np.ones(counts.sum()))
        weights = np.diff(np.r_[starts, n_events]).astype(float)
        return RowGroups(hits, weights,
                         (pairs // len(distinct)).astype(values.indices.dtype),
                         distinct[pairs % len(distinct)])

    def __repr__(self):
        return (f"ModuleIncidence(n_events={self._n_events}, "
                f"n_modules={self._n_modules}, nnz={self._values.nnz})")


@dataclass(frozen=True)
class Scheme:
    """Hard assignment of units (modules) to streams.

    ``assignment[u]`` is the stream index of unit ``u``.  Streams may end up
    empty; they are kept in ``n_streams`` and surfaced via
    :meth:`empty_streams`.
    """

    n_streams: int
    assignment: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment",
                           tuple(int(s) for s in self.assignment))
        if self.n_streams < 1:
            raise DataError("a scheme needs at least one stream")
        if not self.assignment:
            raise DataError("a scheme must assign at least one unit")
        for u, s in enumerate(self.assignment):
            if not 0 <= s < self.n_streams:
                raise DataError(
                    f"unit {u} assigned to stream {s}, outside [0, {self.n_streams})"
                )

    @property
    def n_units(self) -> int:
        return len(self.assignment)

    def empty_streams(self) -> tuple[int, ...]:
        used = set(self.assignment)
        return tuple(s for s in range(self.n_streams) if s not in used)


def _row_entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) along the last axis of a probability array."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    return -terms.sum(axis=-1)


def validate_dataset(incidence: EventLineIncidence,
                     catalog: LineCatalog) -> list[str]:
    """Cross-check an incidence against a catalog.

    Returns a list of human-readable violations; an empty list means the
    dataset is consistent.  Nothing is raised here so that callers can report
    every problem at once.
    """
    violations: list[str] = []
    if incidence.n_lines != catalog.n_lines:
        violations.append(
            f"incidence has {incidence.n_lines} lines but catalog has "
            f"{catalog.n_lines}"
        )
    names, p = catalog.line_names, catalog.prescales
    # Each line's messages in line order: its prescale's, then its name's.
    # The range test is negated so that NaN, which fails it, is reported.
    found = [(k, 0, f"line '{names[k]}': prescale {p.item(k)} outside [0, 1]")
             for k in np.flatnonzero(~((p >= 0.0) & (p <= 1.0))).tolist()]
    if len(set(names)) < len(names):
        first = _line_index(names)
        found += [(k, 1, f"duplicate line name '{name}'")
                  for k, name in enumerate(names) if first[name] != k]
    return violations + [message for *_, message in sorted(found)]


def _require_consistent(incidence: EventLineIncidence, catalog: LineCatalog):
    if incidence.n_lines != catalog.n_lines:
        raise DataError(
            f"incidence has {incidence.n_lines} lines but catalog has "
            f"{catalog.n_lines}"
        )
    p = catalog.prescales
    # Negated so that NaN, which fails every comparison, is rejected.
    if not (p.min() >= 0.0 and p.max() <= 1.0):
        raise DataError("catalog contains prescales outside [0, 1]; "
                        "run validate_dataset for details")


def _log_keep_per_entry(incidence: EventLineIncidence,
                        catalog: LineCatalog) -> np.ndarray:
    """log(1 - prescale) per incidence entry; -inf where prescale == 1."""
    with np.errstate(divide="ignore"):
        return np.log1p(-catalog.prescales)[incidence.line_index]


def fold_modules(incidence: EventLineIncidence,
                 catalog: LineCatalog) -> ModuleIncidence:
    """Fold a line-level incidence into per-module selection probabilities.

    fold[e, m] = 1 - prod over passing lines l of module m of (1 - prescale[l]).
    Computed as -expm1(sum of log1p(-prescale)) for precision; a prescale of 1
    contributes -inf to the sum and the folded value is exactly 1.  Lines with
    prescale 0 leave no entry.
    """
    _require_consistent(incidence, catalog)
    n_events, n_modules = incidence.n_events, catalog.n_modules
    module = catalog.module_of_line
    # Sorted (event, module) keys are the CSR entries in row-major order.
    # When each module's lines are adjacent in the catalog, the entries'
    # keys come sorted, as the entries do, and need no sort.
    key = incidence.event_index * n_modules
    key += module[incidence.line_index]
    if (module[1:] >= module[:-1]).all():
        new = np.concatenate(([True], key[1:] != key[:-1]))
        keys, entry = key[new], np.cumsum(new) - 1
    else:
        keys, entry = np.unique(key, return_inverse=True)
    del key
    values = np.bincount(entry, weights=_log_keep_per_entry(incidence, catalog),
                         minlength=len(keys))
    del entry
    np.negative(np.expm1(values, out=values), out=values)
    keys, values = keys[values > 0.0], values[values > 0.0]
    events = keys // n_modules
    return ModuleIncidence(n_events, n_modules, _csr(
        n_events, n_modules, events, np.remainder(keys, n_modules, out=keys),
        values))
