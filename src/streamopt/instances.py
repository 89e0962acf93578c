"""Instance, scheme, and measurement file formats plus synthetic generation.

Instance files are plain text with two comma-separated sections, each with a
one-line header::

    [catalog]
    name,prescale,turbo,persist_reco,module
    mod00_l0,1.0,1,0,mod00
    ...
    [incidence]
    event,line
    e000000,mod00_l0
    ...

Events are indexed by first appearance in the incidence section.  Blank
rows and rows that start with ``#`` are skipped.  :func:`load_instance`
reads a plain instance file, such rows included, from its bytes in
windows, each scanned once for every row's start, end and separators
(:func:`_parse_bulk`).  Every other file, and every :class:`InstanceFile`,
is read row by row (:func:`_parse_rows`), which raises every parse error
and keeps the event ids.

Scheme files carry one ``module,stream`` row per module after a
``# n_streams=K`` header so that trailing empty streams survive a round
trip.  Measurement files are
``scheme_id,stream_id,n_lines,measured_time_s,measured_size_kb`` rows.  All
three formats share one row grammar (:func:`_rows`), and every file is
written atomically (:func:`_write_text`).
"""

from __future__ import annotations

import csv
import logging
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibrate import MeasurementRecord
from .errors import DataError
from .model import (EventLineIncidence, LineCatalog, Scheme, _line_index,
                    _number, _strictly_increasing, validate_dataset)

logger = logging.getLogger(__name__)

CATALOG_HEADER = "name,prescale,turbo,persist_reco,module"
INCIDENCE_HEADER = "event,line"
SCHEME_HEADER = "module,stream"
MEASUREMENT_HEADER = "scheme_id,stream_id,n_lines,measured_time_s,measured_size_kb"
_INSTANCE_HEADERS = {"catalog": CATALOG_HEADER, "incidence": INCIDENCE_HEADER}
_TAGS = {name: f"[{name}]\n".encode() for name in _INSTANCE_HEADERS}


def _read_text(path, what: str) -> str:
    """The text of a ``what`` file; a file that cannot be opened or decoded
    is a data error.  A decode error's text does not name the file."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {what} file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {what} file '{path}': {exc}") from exc


def _write_text(path, text: str):
    """Atomic write: the target appears complete or not at all.

    The text goes to a fresh temp file next to the target, so concurrent
    writers never share one, and is then renamed over the target.
    """
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                   suffix=".tmp")
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)
        raise DataError(f"cannot write '{path}': {exc}") from exc


@dataclass(frozen=True)
class InstanceFile:
    """Parsed instance file: catalog plus incidence with its event ids."""

    catalog: LineCatalog
    incidence: EventLineIncidence
    event_ids: tuple[str, ...]

    def __post_init__(self):
        if len(self.event_ids) != self.incidence.n_events:
            raise DataError("one event id required per event")

    def to_text(self) -> str:
        out = ["[catalog]", CATALOG_HEADER]
        catalog = self.catalog
        names = [_field(name) for name in catalog.line_names]
        modules = [_field(name) for name in catalog.modules]
        out += map("%s,%r,%d,%d,%s".__mod__, zip(
            names, catalog.prescales.tolist(), catalog.turbo_mask.tolist(),
            catalog.persist_reco_mask.tolist(),
            map(modules.__getitem__, catalog.module_of_line.tolist())))
        out.append("[incidence]")
        out.append(INCIDENCE_HEADER)
        event_ids = [_field(event) for event in self.event_ids]
        for e, l in self.incidence.pairs():
            out.append(f"{event_ids[e]},{names[l]}")
        return "\n".join(out) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "InstanceFile":
        return cls(*_parse_rows(text))

    def write(self, path):
        _write_text(path, self.to_text())

    @classmethod
    def load(cls, path) -> "InstanceFile":
        return cls.from_text(_read_text(path, "instance"))


def _field(name: str) -> str:
    """``name`` as a field that :func:`_rows` reads back: quoted, as in CSV,
    if it holds a comma or a quote, starts with ``#`` or has whitespace at
    either end.  A name with a line break cannot be written: it raises."""
    if "".join(name.splitlines()) != name:
        raise DataError(f"cannot write name {name!r}: it holds a line break")
    if "," in name or '"' in name or name[:1] == "#" or name != name.strip():
        return '"' + name.replace('"', '""') + '"'
    return name


_FLAGS = {"1": True, "true": True, "0": False, "false": False}


def _parse_bool(token: str, lineno: int) -> bool:
    flag = _FLAGS.get(token.strip().lower())
    if flag is None:
        raise DataError(f"line {lineno}: expected 0/1 flag, got '{token}'")
    return flag


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"line {lineno}: bad {what} '{token}'") from None


def _split_row(line: str, lineno: int, n_fields: int) -> list[str]:
    # On a line without quotes the csv reader returns exactly the
    # comma-separated pieces (and nothing for an empty line).
    if '"' in line or not line:
        row = next(csv.reader([line]))
    else:
        row = line.split(",")
    if len(row) != n_fields:
        raise DataError(
            f"line {lineno}: expected {n_fields} fields, got {len(row)}"
        )
    return row


def _rows(text: str, headers: dict):
    """Yield ``(line number, section, fields)`` for each data row of ``text``.

    Rows are stripped, and blank rows and ``#`` rows are skipped.  A
    ``[name]`` row opens section ``name`` if ``name`` is a key of
    ``headers``; a format without sections has the one key None.  A
    section's first row must be its header, and each later row must split
    into the header's number of fields.
    """
    section = None
    header = headers.get(None)
    n_fields = 0  # 0 until the section's header is seen
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line[0] == "[" and line[-1] == "]" and line[1:-1] in headers:
            section, header, n_fields = line[1:-1], headers[line[1:-1]], 0
        elif header is None:
            raise DataError(f"line {lineno}: content before any section header")
        elif n_fields:
            yield lineno, section, _split_row(line, lineno, n_fields)
        elif line == header:
            n_fields = header.count(",") + 1
        else:
            raise DataError(
                f"line {lineno}: expected header '{header}', got '{line}'")


def _parse_rows(text: str) -> tuple:
    """Parse an instance row by row; every parse error is raised here."""
    lines: list[tuple] = []
    events: list[str] = []
    line_names: list[str] = []
    for lineno, section, row in _rows(text, _INSTANCE_HEADERS):
        if section == "incidence":
            events.append(row[0])
            line_names.append(row[1])
            continue
        name, prescale, turbo, pr, module = row
        lines.append((name, _parse_float(prescale, lineno, "prescale"),
                      _parse_bool(turbo, lineno), _parse_bool(pr, lineno),
                      module))

    if not lines:
        raise DataError("instance file has no catalog section or no lines")
    if not events:
        raise DataError("instance file has no events")

    *columns, modules = zip(*lines)
    catalog = LineCatalog.of_columns(*columns, *_number(modules))
    ev, event_ids = _number(events)
    code, names = _number(line_names)
    index = _line_index(catalog.line_names)
    catalog_line = np.array([index.get(name, -1) for name in names], np.int64)
    if catalog_line.min() < 0:
        raise DataError("incidence references unknown line "
                        f"'{names[catalog_line.argmin()]}'")
    return catalog, _incidence(
        len(event_ids), catalog.n_lines, ev, catalog_line[code]), event_ids


def _incidence(n_events: int, n_lines: int, ev: np.ndarray,
               li: np.ndarray) -> EventLineIncidence:
    """The incidence of rows (event ``ev``, catalog line ``li``), which takes
    the columns over.

    Repeated rows are dropped, with a warning.  Strictly increasing rows
    cannot repeat, so they are kept as they are.
    """
    if not _strictly_increasing(ev, li):
        _, first = np.unique(ev * n_lines + li, return_index=True)
        if len(first) != len(ev):
            logger.warning("ignored %d duplicate incidence rows",
                           len(ev) - len(first))
        ev, li = ev[first], li[first]
    return EventLineIncidence.of_sorted(n_events, n_lines, ev, li)


_NEWLINE, _SPACE, _QUOTE, _HASH, _COMMA = b'\n "#,'
# _BYTE_MASKS[k] keeps the first k bytes of a little-endian 8-byte word.
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype="<u8")
# Bytes of a section that the bulk parse scans and keys at once.
_WINDOW_BYTES = 1 << 18


def _parse_bulk(path) -> tuple | None:
    """Parse the plain instance file at ``path`` from its bytes into its
    catalog and incidence, or return None.

    *Plain* means ASCII without any control character but the newline
    (CRLF line ends are read as LF first), and without quotes or spaces
    outside the skipped rows (the empty rows and the rows that start with
    ``#``); each section with its column header, and every row with the
    right number of fields naming a catalog line.  Then ``str.splitlines``
    and ``str.strip`` see exactly the newline rows, and the result is the
    row-by-row parse's.  Any other file, valid or not, returns None, and
    :func:`load_instance` reads it with :func:`_parse_rows`, as
    :class:`InstanceFile` reads every file.

    Tag rows are found by byte search.  The rows before the first tag, the
    catalog's sections, then the incidence's are scanned (:func:`_scan`) in
    windows of about ``_WINDOW_BYTES`` that end at a row end, so the parse
    holds the bytes, what it keeps of each row and one window's temporaries.
    An incidence window's distinct names are looked up by :func:`_line_index`,
    and its runs of rows of one event keep one event key each.  The bytes are
    dropped before the events are numbered by first appearance.
    """
    try:
        with open(path, "rb") as handle:
            buffer = bytearray(os.fstat(handle.fileno()).st_size + 9)
            del buffer[handle.readinto(memoryview(buffer)[:-9]):-9]
    except OSError as exc:
        raise DataError(f"cannot read instance file: {exc}") from exc
    if b"\r" in buffer:
        # Gated: replace copies the whole text even when nothing matches.
        buffer = buffer.replace(b"\r\n", b"\n")
    if not buffer.isascii():
        return None
    if not buffer.endswith(b"\n", 0, len(buffer) - 9):
        buffer[-9] = _NEWLINE
    # The text, ending in a newline, and 8 zero bytes (see _field_keys).
    data = np.frombuffer(buffer, np.uint8)[:-1]
    tags, at = [], buffer.find(b"[")
    while at != -1:
        if at == 0 or buffer[at - 1] == _NEWLINE:
            tags += [(at, at + len(tag), name) for name, tag in _TAGS.items()
                     if buffer.startswith(tag, at)]
        at = buffer.find(b"[", at + 1)
    head = _scan(data, 0, tags[0][0]) if tags and tags[0][0] else [()]
    if not tags or head is None or len(head[0]):
        return None
    sections = sorted(((stop, end, name) for (_, stop, name), (end, *_)
                       in zip(tags, tags[1:] + [(len(data) - 8,)])),
                      key=lambda section: section[2] == "incidence")
    catalog_rows, keys, lengths, lines, catalog = [], [], [], [], None
    for start, end, name in sections:
        header = _INSTANCE_HEADERS[name].encode() + b"\n"
        n_fields = header.count(b",") + 1
        while start < end:
            stop = buffer.find(b"\n", min(start + _WINDOW_BYTES, end) - 1) + 1
            rows = _scan(data, start, stop)
            start = stop
            if rows is None:
                return None
            if header and len(rows[0]):
                if not buffer.startswith(header, rows[0][0]):
                    return None
                header, rows = b"", [row[1:] for row in rows]
            starts, ends, last, fields = rows
            if (fields != n_fields).any():
                return None
            if not len(starts):
                continue
            if name == "catalog":
                catalog_rows.append((starts, ends))
                continue
            if not catalog:
                catalog = catalog_rows and _bulk_catalog(buffer, catalog_rows)
                index = catalog and _line_index(catalog.line_names)
            events = _field_keys(data, starts, last)
            line = _field_keys(data, last + 1, ends)
            if not catalog or events is None or line is None:
                return None
            # Each distinct name is looked up once; wider keys group as bytes.
            dtype = f"S{8 * line.shape[1]}"
            names, code = np.unique(line[:, 0] if line.shape[1] == 1
                                    else line.view(dtype)[:, 0],
                                    return_inverse=True)
            found = np.array([index.get(name, -1) for name in b"\n".join(
                names.view(dtype).tolist()).decode().split("\n")], np.int64)
            if found.min() < 0:
                return None
            lines.append(found[code])
            # A run cut by the window's edge goes on as a run of the same key.
            heads = np.flatnonzero(np.concatenate((
                [True], (events[1:] != events[:-1]).any(axis=1))))
            keys.append(events[heads])
            lengths.append(np.append(heads[1:], len(events)) - heads)
    del buffer, data
    if not lines:
        return None

    width = max(key.shape[1] for key in keys)
    keys = np.concatenate([
        key if key.shape[1] == width
        else np.pad(key, ((0, 0), (0, width - key.shape[1]))) for key in keys])
    code, n_events = _first_appearance(keys)
    ev = np.repeat(code, np.concatenate(lengths))
    del code, lengths
    lines = np.concatenate(lines)
    return catalog, _incidence(n_events, catalog.n_lines, ev, lines)


def _scan(data: np.ndarray, start: int, stop: int) -> list | None:
    """The starts, ends, last separators and field counts of the kept rows
    of ``data[start:stop]``, which ends at a newline, from one scan for
    commas, quotes, spaces and control characters; None if a row holds a
    control character but the newline, or a kept row a quote or a space."""
    window = data[start:stop]
    at = np.flatnonzero((window <= _SPACE) | (window == _COMMA)
                        | (window == _QUOTE))
    byte = window[at]
    at += start
    newline = np.flatnonzero(byte == _NEWLINE)
    if np.count_nonzero(byte < _SPACE) != len(newline):
        return None
    ends = at[newline]
    starts = np.concatenate(([start], ends[:-1] + 1))
    first = data[starts]
    keep = (first != _NEWLINE) & (first != _HASH)
    odd = at[(byte == _SPACE) | (byte == _QUOTE)]
    if keep[np.searchsorted(ends, odd)].any():
        return None
    fields = newline - np.concatenate(([-1], newline[:-1]))
    # The comma of a row of two fields (an empty first row reads at[-1]).
    last = at[newline - 1]
    rows = [starts, ends, last, fields]
    return rows if keep.all() else [row[keep] for row in rows]


def _bulk_catalog(buffer: bytearray, rows: list) -> LineCatalog | None:
    """The catalog of the catalog rows ``buffer[starts:ends]`` of the
    ``(starts, ends)`` pairs in ``rows``, five fields each, or None if a
    prescale or a flag is malformed.  Each run of adjacent rows is read as
    one slice."""
    starts, ends = (np.concatenate(column) for column in zip(*rows))
    cut = (np.flatnonzero(starts[1:] != ends[:-1] + 1) + 1).tolist()
    bounds = [0, *cut, len(starts)]
    rows = b"".join(buffer[starts[a]:ends[b - 1] + 1]
                    for a, b in zip(bounds, bounds[1:])).decode("ascii")
    cells = rows.replace("\n", ",").split(",")
    names, prescales, turbo, pr, modules = (cells[k:-1:5] for k in range(5))
    try:
        prescales = list(map(float, prescales))
    except ValueError:
        return None
    flags = {token: _FLAGS.get(token.lower()) for token in {*turbo, *pr}}
    if None in flags.values():
        return None
    return LineCatalog.of_columns(names, prescales,
                                  list(map(flags.get, turbo)),
                                  list(map(flags.get, pr)), *_number(modules))


def _field_keys(data: np.ndarray, start: np.ndarray,
                stop: np.ndarray) -> np.ndarray | None:
    """Each field ``data[start:stop]`` as a row of little-endian 8-byte
    words.

    The bytes are zero-padded to the longest field rounded up to whole
    words; a plain field holds no zero byte, so equal keys are equal
    fields.  ``data`` ends in 8 zero bytes past the fields.  Keys may take
    at most twice the rows' bytes, or 64 KiB; wider fields return None.
    """
    length = stop - start
    words = max(1, -(-int(length.max()) // 8))
    if len(start) * words * 8 > max(2 * int(stop[-1] - start[0]), 1 << 16):
        return None
    # The little-endian 8-byte word that starts at each byte of ``data``.
    word_at = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))
    word = 8 * np.arange(words)
    # A word past the field's stop, masked to zero below, is read there.
    key = word_at[np.minimum(start[:, None] + word, stop[:, None])]
    key &= _BYTE_MASKS[(length[:, None] - word).clip(0, 8)]
    return key


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Codes of the rows of ``keys`` by first appearance, and the number of
    distinct rows.

    Equal rows are grouped by one lexsort of their bytes, a radix sort per
    byte.  It is stable, so each group's first row is its least index.
    """
    order = np.lexsort(keys.view(np.uint8).reshape(len(keys), -1).T[::-1])
    keys = keys[order]
    new = np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1)))
    del keys  # a copy as large as the input
    first = order if new.all() else order[new]
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    code = np.empty_like(order)
    code[order] = rank[np.cumsum(new) - 1]
    return code, len(first)


def load_instance(path) -> tuple[EventLineIncidence, LineCatalog]:
    """Load and validate an instance file; its event ids are not kept."""
    catalog, incidence = (_parse_bulk(path)
                          or _parse_rows(_read_text(path, "instance"))[:2])
    violations = validate_dataset(incidence, catalog)
    if violations:
        raise DataError("invalid instance: " + "; ".join(violations))
    return incidence, catalog


# -- schemes ---------------------------------------------------------------


def scheme_to_text(scheme: Scheme, catalog: LineCatalog) -> str:
    if scheme.n_units != catalog.n_modules:
        raise DataError("scheme does not cover the catalog's modules")
    out = [f"# n_streams={scheme.n_streams}", SCHEME_HEADER]
    for name, stream in zip(catalog.modules, scheme.assignment):
        out.append(f"{_field(name)},{stream}")
    return "\n".join(out) + "\n"


def _n_streams(text: str) -> int | None:
    """K of the last ``# n_streams=K`` comment, or None without one."""
    n_streams = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line.startswith("#") and line[1:].strip().startswith("n_streams="):
            try:
                n_streams = int(line.partition("=")[2])
            except ValueError:
                raise DataError(f"line {lineno}: bad n_streams header") from None
    return n_streams


def scheme_from_text(text: str, catalog: LineCatalog) -> Scheme:
    n_streams = _n_streams(text)
    mapping: dict[str, int] = {}
    for lineno, _, (name, stream) in _rows(text, {None: SCHEME_HEADER}):
        if name in mapping:
            raise DataError(f"line {lineno}: duplicate module '{name}'")
        try:
            mapping[name] = int(stream)
        except ValueError:
            raise DataError(f"line {lineno}: bad stream index '{stream}'") from None

    missing = [name for name in catalog.modules if name not in mapping]
    if missing:
        raise DataError(f"scheme file does not assign module '{missing[0]}'")
    known = set(catalog.modules)
    unknown = [name for name in mapping if name not in known]
    if unknown:
        raise DataError(f"scheme file names unknown module '{unknown[0]}'")
    assignment = tuple(mapping[name] for name in catalog.modules)
    if n_streams is None:
        n_streams = max(assignment) + 1
    try:
        return Scheme(n_streams, assignment)
    except DataError as exc:
        raise DataError(f"invalid scheme file: {exc}") from exc


def load_scheme(path, catalog: LineCatalog) -> Scheme:
    return scheme_from_text(_read_text(path, "scheme"), catalog)


def write_scheme(path, scheme: Scheme, catalog: LineCatalog):
    _write_text(path, scheme_to_text(scheme, catalog))


# -- measurements ------------------------------------------------------------


def load_measurements(path) -> tuple[MeasurementRecord, ...]:
    text = _read_text(path, "measurement")
    records: list[MeasurementRecord] = []
    for lineno, _, row in _rows(text, {None: MEASUREMENT_HEADER}):
        scheme_id, stream_id, n_lines, time_s, size_kb = row
        try:
            stream = int(stream_id)
            lines = int(n_lines)
        except ValueError:
            raise DataError(f"line {lineno}: bad integer field") from None
        time_value = _parse_float(time_s, lineno, "measured_time_s")
        size_value = _parse_float(size_kb, lineno, "measured_size_kb")
        if not (math.isfinite(time_value) and math.isfinite(size_value)):
            raise DataError(f"line {lineno}: non-finite measurement")
        if time_value < 0 or size_value < 0:
            raise DataError(f"line {lineno}: negative measurement")
        if lines < 0:
            raise DataError(f"line {lineno}: negative line count")
        records.append(MeasurementRecord(scheme_id, stream, lines,
                                         time_value, size_value))
    if not records:
        raise DataError("measurement file has no rows")
    return tuple(records)


# -- synthetic instances ------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the planted-cluster generator.

    Modules are split evenly over latent clusters and each event belongs to
    one cluster; a line fires with ``intra_cluster_pass_rate`` on its own
    cluster's events and ``cross_cluster_pass_rate`` elsewhere.  Events that
    end up passing nothing are dropped (and counted), so the emitted instance
    may contain fewer than ``n_events`` events.
    """

    n_events: int = 1000
    n_modules: int = 10
    lines_per_module: tuple[int, int] = (1, 4)
    n_latent_clusters: int = 4
    intra_cluster_pass_rate: float = 0.7
    cross_cluster_pass_rate: float = 0.02
    prescale_options: tuple[float, ...] = (1.0,)
    persist_reco_fraction: float = 0.25
    turbo_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_events, self.n_modules, self.n_latent_clusters) < 1:
            raise ValueError("counts must be >= 1")
        lo, hi = self.lines_per_module
        if not 1 <= lo <= hi:
            raise ValueError("lines_per_module must be an increasing range >= 1")
        for name in ("intra_cluster_pass_rate", "cross_cluster_pass_rate",
                     "persist_reco_fraction", "turbo_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not self.prescale_options:
            raise ValueError("prescale_options must not be empty")
        for p in self.prescale_options:
            if not 0.0 <= p <= 1.0:
                raise ValueError("prescales must lie in [0, 1]")


# Events x lines cells drawn at once by the generator.
_BLOCK_CELLS = 1 << 20


def _planted_scheme(spec: SyntheticSpec) -> Scheme:
    """The grouping the generator plants: ``min(C, M)`` streams, one per
    latent cluster, with module ``m`` in stream ``m * min(C, M) // M``."""
    k = min(spec.n_latent_clusters, spec.n_modules)
    return Scheme(k, tuple(m * k // spec.n_modules
                           for m in range(spec.n_modules)))


def gen_synthetic(spec: SyntheticSpec) -> InstanceFile:
    """Generate a planted-cluster instance, deterministic for a given seed."""
    rng = np.random.default_rng(spec.seed)
    planted = _planted_scheme(spec)
    cluster_of_module = np.array(planted.assignment)

    lo, hi = spec.lines_per_module
    modules = [f"mod{m:02d}" for m in range(spec.n_modules)]
    names, prescales, turbo, pr, module_of_line = [], [], [], [], []
    for m, module in enumerate(modules):
        for j in range(int(rng.integers(lo, hi + 1))):
            names.append(f"{module}_l{j}")
            prescales.append(float(rng.choice(spec.prescale_options)))
            turbo.append(bool(rng.random() < spec.turbo_fraction))
            pr.append(bool(rng.random() < spec.persist_reco_fraction))
            module_of_line.append(m)
    catalog = LineCatalog.of_columns(names, prescales, turbo, pr,
                                     module_of_line, modules)

    cluster_of_event = rng.integers(0, planted.n_streams, size=spec.n_events)
    line_cluster = cluster_of_module[catalog.module_of_line][None, :]
    # Passes are drawn over blocks of event rows to bound memory; the blocks'
    # draws concatenate to the one events x lines draw, so the output does
    # not depend on the block size.
    block = max(1, _BLOCK_CELLS // catalog.n_lines)
    found = []
    for start in range(0, spec.n_events, block):
        rows = cluster_of_event[start:start + block]
        pass_prob = np.where(rows[:, None] == line_cluster,
                             spec.intra_cluster_pass_rate,
                             spec.cross_cluster_pass_rate)
        ev, li = np.nonzero(rng.random(pass_prob.shape) < pass_prob)
        found.append(np.column_stack((ev + start, li)))
    entries = np.concatenate(found)
    if entries.size == 0:
        raise DataError("generator produced no passing events; raise the rates")
    incidence, _ = EventLineIncidence.dropping_empty_events(
        spec.n_events, catalog.n_lines, entries)
    event_ids = tuple(f"e{i:06d}" for i in range(incidence.n_events))
    return InstanceFile(catalog, incidence, event_ids)
