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
rows and rows that start with ``#`` are skipped.  A plain instance file,
such rows included, is read from one scan of its bytes that finds every
row's start, end and separators (:func:`_parse_bulk`); any other goes row
by row (:func:`_parse_rows`), which raises every parse error.

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
from .model import (EventLineIncidence, LineCatalog, LineRecord, Scheme,
                    _strictly_increasing, validate_dataset)

logger = logging.getLogger(__name__)

CATALOG_HEADER = "name,prescale,turbo,persist_reco,module"
INCIDENCE_HEADER = "event,line"
SCHEME_HEADER = "module,stream"
MEASUREMENT_HEADER = "scheme_id,stream_id,n_lines,measured_time_s,measured_size_kb"
_INSTANCE_HEADERS = {"catalog": CATALOG_HEADER, "incidence": INCIDENCE_HEADER}


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
        for rec in self.catalog.lines:
            out.append(f"{rec.name},{rec.prescale!r},{int(rec.is_turbo)},"
                       f"{int(rec.is_persist_reco)},{rec.module}")
        out.append("[incidence]")
        out.append(INCIDENCE_HEADER)
        names = self.catalog.line_names
        for e, l in self.incidence.pairs():
            out.append(f"{self.event_ids[e]},{names[l]}")
        return "\n".join(out) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "InstanceFile":
        return _parse_bulk(text) or _parse_rows(text)

    def write(self, path):
        _write_text(path, self.to_text())

    @classmethod
    def load(cls, path) -> "InstanceFile":
        return cls.from_text(_read_text(path, "instance"))


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


def _parse_rows(text: str) -> InstanceFile:
    """Parse an instance row by row; every parse error is raised here."""
    records: list[LineRecord] = []
    events: list[str] = []
    line_names: list[str] = []
    for lineno, section, row in _rows(text, _INSTANCE_HEADERS):
        if section == "incidence":
            events.append(row[0])
            line_names.append(row[1])
            continue
        name, prescale, turbo, pr, module = row
        records.append(LineRecord(
            name=name,
            prescale=_parse_float(prescale, lineno, "prescale"),
            is_turbo=_parse_bool(turbo, lineno),
            is_persist_reco=_parse_bool(pr, lineno),
            module=module,
        ))

    if not records:
        raise DataError("instance file has no catalog section or no lines")
    if not events:
        raise DataError("instance file has no events")

    catalog = LineCatalog(tuple(records))
    ev, event_ids = _number(events)
    code, names = _number(line_names)
    line_index = _line_index(catalog.line_names)
    unknown = [name for name in names if name not in line_index]
    if unknown:
        raise DataError(f"incidence references unknown line '{unknown[0]}'")
    catalog_line = np.array([line_index[name] for name in names],
                            dtype=np.int64)
    return _instance(catalog, event_ids, ev, catalog_line[code])


def _instance(catalog: LineCatalog, event_ids: tuple[str, ...],
              ev: np.ndarray, li: np.ndarray) -> InstanceFile:
    """The instance of incidence rows (event ``ev``, catalog line ``li``).

    Repeated rows are dropped, with a warning.  Strictly increasing rows
    cannot repeat, so they are kept as they are.
    """
    if not _strictly_increasing(ev, li):
        _, first = np.unique(ev * catalog.n_lines + li, return_index=True)
        if len(first) != len(ev):
            logger.warning("ignored %d duplicate incidence rows",
                           len(ev) - len(first))
        ev, li = ev[first], li[first]
    incidence = EventLineIncidence(len(event_ids), catalog.n_lines,
                                   np.column_stack((ev, li)))
    return InstanceFile(catalog, incidence, event_ids)


def _number(keys: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes of ``keys`` by first appearance, and the distinct keys."""
    index: dict[str, int] = {}
    codes = [index.setdefault(key, len(index)) for key in keys]
    return np.array(codes, dtype=np.int64), tuple(index)


_NEWLINE, _SPACE, _QUOTE, _HASH, _COMMA, _BRACKET = b'\n "#,['
# _BYTE_MASKS[k] keeps the first k bytes of a little-endian 8-byte word.
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype="<u8")


def _parse_bulk(text: str) -> InstanceFile | None:
    """Parse a plain instance from one scan of its bytes, or return None.

    *Plain* means ASCII without any control character but the newline
    (CRLF line ends are read as LF first), and without quotes or spaces
    outside the skipped rows (the empty rows and the rows that start with
    ``#``); each section with its column header, and every row with the
    right number of fields naming a catalog line.  Then ``str.splitlines``
    and ``str.strip`` see exactly the newline rows, and the result is the
    row-by-row parse's.  Any other text, valid or not, returns None and goes
    through :func:`_parse_rows`.

    One ``np.flatnonzero`` finds every comma, quote, space and control
    character.  Its newlines are the row ends, and a kept row has one field
    more than it has scanned bytes before its newline.  Skipped rows are
    dropped by index, so no text is rebuilt; only kept rows that start with
    ``[`` can be section tags, and the row after a tag must be its header.
    """
    if "\r" in text:
        # Gated: replace copies the whole text even when nothing matches.
        text = text.replace("\r\n", "\n")
    if not text.endswith("\n"):
        text += "\n"
    if not text.isascii():
        return None
    # _field_keys reads a word at any byte of the text, so 8 zero bytes
    # follow it, which the scan must not see.
    data = np.frombuffer(text.encode("ascii") + bytes(8), np.uint8)
    scan = data[:-8]
    at = np.flatnonzero((scan <= _SPACE) | (scan == _COMMA) | (scan == _QUOTE))
    byte = data[at]
    newline = np.flatnonzero(byte == _NEWLINE)
    if np.count_nonzero(byte < _SPACE) != len(newline):
        return None
    ends = at[newline]
    starts = np.concatenate(([0], ends[:-1] + 1))
    first = data[starts]
    keep = (first != _NEWLINE) & (first != _HASH)
    if " " in text or '"' in text:
        odd = at[(byte == _SPACE) | (byte == _QUOTE)]
        if keep[np.searchsorted(ends, odd)].any():
            return None
    fields = newline - np.concatenate(([-1], newline[:-1]))
    # The comma of a row of two fields (an empty first row reads at[-1]).
    last = at[newline - 1]
    del at, byte, newline  # else held through the peak of the keying
    if not keep.all():
        starts, ends, last, fields, first = (
            array[keep] for array in (starts, ends, last, fields, first))

    tags = []
    for k in np.flatnonzero(first == _BRACKET).tolist():
        row = text[starts[k]:ends[k]]
        if row[-1] == "]" and row[1:-1] in _INSTANCE_HEADERS:
            tags.append((k, row[1:-1]))
    if not tags or tags[0][0] != 0:
        return None
    sections = {name: [] for name in _INSTANCE_HEADERS}
    for (k, name), (end, _) in zip(tags, tags[1:] + [(len(starts), "")]):
        header = _INSTANCE_HEADERS[name] + "\n"
        if k + 1 < end and not text.startswith(header, starts[k + 1]):
            return None
        sections[name].append(slice(k + 2, end))
    for name, spans in sections.items():
        # One section is indexed by a slice, so its row arrays are views;
        # slice(0, 0) keeps the indices integer when there is no section.
        rows = spans[0] if len(spans) == 1 else np.r_[(slice(0, 0), *spans)]
        n_fields = fields[rows]
        if (not n_fields.size
                or (n_fields != _INSTANCE_HEADERS[name].count(",") + 1).any()):
            return None
        sections[name] = rows

    rows = sections["catalog"]
    records = _bulk_catalog(text, starts[rows], ends[rows])
    if records is None:
        return None
    catalog = LineCatalog(tuple(records))
    rows = sections["incidence"]
    numbered = _bulk_incidence(data, starts[rows], last[rows], ends[rows],
                               catalog.line_names)
    if numbered is None:
        return None
    return _instance(catalog, *numbered)


def _bulk_catalog(text: str, starts: np.ndarray, ends: np.ndarray
                  ) -> list[LineRecord] | None:
    """The line records of the catalog rows ``text[starts:ends]``, five
    fields each, or None if a prescale or a flag is malformed.  Each run of
    adjacent rows is read as one slice."""
    cut = (np.flatnonzero(starts[1:] != ends[:-1] + 1) + 1).tolist()
    bounds = [0, *cut, len(starts)]
    rows = "".join(text[starts[a]:ends[b - 1] + 1]
                   for a, b in zip(bounds, bounds[1:]))
    cells = rows.replace("\n", ",").split(",")
    names, prescales, turbo, pr, modules = (cells[k:-1:5] for k in range(5))
    try:
        prescales = list(map(float, prescales))
    except ValueError:
        return None
    flags = {token: _FLAGS.get(token.lower()) for token in {*turbo, *pr}}
    if None in flags.values():
        return None
    return list(map(LineRecord, names, prescales, map(flags.get, turbo),
                    map(flags.get, pr), modules))


def _bulk_incidence(data: np.ndarray, start: np.ndarray, comma: np.ndarray,
                    stop: np.ndarray, line_names: tuple[str, ...]
                    ) -> tuple[tuple[str, ...], np.ndarray, np.ndarray] | None:
    """Event ids, event numbers and catalog lines of the incidence rows
    ``data[start:stop]``, each split at its ``comma``.

    Fields are compared as the keys of :func:`_field_keys`.  Events are
    numbered by first appearance over the runs of rows that name them, and
    only the distinct event ids and line names are decoded; a name stands
    for its first catalog line.  Returns None when a line name is not in the
    catalog, or when the fields are too uneven to pad.
    """
    row_bytes = int((stop - start).sum()) + len(start)
    keys = _field_keys(data, ((start, comma), (comma + 1, stop)), row_bytes)
    if keys is None:
        return None
    events, names = keys

    runs = np.flatnonzero((events[1:] != events[:-1]).any(axis=1)) + 1
    runs = np.concatenate(([0], runs))
    events = events[runs]
    run_ev, first = _first_appearance(events)
    event_ids = _decode_keys(events[first])
    ev = np.repeat(run_ev, np.diff(runs, append=len(names)))

    code, first = _first_appearance(names)
    index = _line_index(line_names)
    lines = [index.get(name, -1) for name in _decode_keys(names[first])]
    if -1 in lines:
        return None
    return tuple(event_ids), ev, np.array(lines, dtype=np.int64)[code]


def _field_keys(data: np.ndarray,
                fields: tuple[tuple[np.ndarray, np.ndarray], ...],
                n_bytes: int) -> list[np.ndarray] | None:
    """Each field ``data[start:stop]`` of the ``(start, stop)`` pairs in
    ``fields`` as a row of little-endian 8-byte words.

    The bytes are zero-padded to the field's longest value rounded up to
    whole words; a plain field holds no zero byte, so equal keys are equal
    fields.  ``data`` ends in 8 zero bytes past the fields.  A field's keys
    may take at most twice ``n_bytes``, or 64 KiB; wider fields return None.
    """
    lengths = [stop - start for start, stop in fields]
    words = [max(1, -(-int(length.max()) // 8)) for length in lengths]
    if len(lengths[0]) * max(words) * 8 > max(2 * n_bytes, 1 << 16):
        return None
    # The little-endian 8-byte word that starts at each byte of ``data``.
    word_at = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))
    keys = []
    for (start, stop), length, n in zip(fields, lengths, words):
        word = 8 * np.arange(n)
        # A word past the field's stop, masked to zero below, is read there.
        key = word_at[np.minimum(start[:, None] + word, stop[:, None])]
        key &= _BYTE_MASKS[(length[:, None] - word).clip(0, 8)]
        keys.append(key)
    return keys


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes of the rows of ``keys`` by first appearance, and the row where
    each code first appears.

    Equal rows are grouped by one sort: an argsort when a row is one word,
    else a lexsort of the words.  Neither needs to be stable, as each
    group's first row is its least index.
    """
    order = (np.argsort(keys[:, 0]) if keys.shape[1] == 1
             else np.lexsort(keys.T))
    keys = keys[order]
    new = np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1)))
    del keys  # a copy as large as the input
    first = order if new.all() else np.minimum.reduceat(order,
                                                       np.flatnonzero(new))
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    code = np.empty_like(order)
    code[order] = rank[np.cumsum(new) - 1]
    return code, first[by_first]


def _decode_keys(keys: np.ndarray) -> list[str]:
    """The fields of :func:`_field_keys`'s keys, as strings."""
    n, words = keys.shape
    fields = np.empty((n, 8 * words + 1), np.uint8)
    fields[:, :-1] = keys.view(np.uint8).reshape(n, -1)
    fields[:, -1] = _NEWLINE
    text = fields[fields != 0].tobytes().decode("ascii")
    return text.split("\n")[:-1]


def _line_index(line_names: tuple[str, ...]) -> dict[str, int]:
    """Each line name's first catalog line."""
    n = len(line_names)
    return dict(zip(reversed(line_names), range(n - 1, -1, -1)))


def load_instance(path) -> tuple[EventLineIncidence, LineCatalog]:
    """Load and validate an instance file."""
    instance = InstanceFile.load(path)
    violations = validate_dataset(instance.incidence, instance.catalog)
    if violations:
        raise DataError("invalid instance: " + "; ".join(violations))
    return instance.incidence, instance.catalog


# -- schemes ---------------------------------------------------------------


def scheme_to_text(scheme: Scheme, catalog: LineCatalog) -> str:
    if scheme.n_units != catalog.n_modules:
        raise DataError("scheme does not cover the catalog's modules")
    out = [f"# n_streams={scheme.n_streams}", SCHEME_HEADER]
    for name, stream in zip(catalog.modules, scheme.assignment):
        out.append(f"{name},{stream}")
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


def gen_synthetic(spec: SyntheticSpec) -> InstanceFile:
    """Generate a planted-cluster instance, deterministic for a given seed."""
    rng = np.random.default_rng(spec.seed)
    n_clusters = min(spec.n_latent_clusters, spec.n_modules)
    cluster_of_module = (np.arange(spec.n_modules) * n_clusters
                         ) // spec.n_modules

    lo, hi = spec.lines_per_module
    records: list[LineRecord] = []
    cluster_of_line: list[int] = []
    for m in range(spec.n_modules):
        module = f"mod{m:02d}"
        for j in range(int(rng.integers(lo, hi + 1))):
            records.append(LineRecord(
                name=f"{module}_l{j}",
                prescale=float(rng.choice(spec.prescale_options)),
                is_turbo=bool(rng.random() < spec.turbo_fraction),
                is_persist_reco=bool(rng.random() < spec.persist_reco_fraction),
                module=module,
            ))
            cluster_of_line.append(int(cluster_of_module[m]))
    catalog = LineCatalog(tuple(records))

    cluster_of_event = rng.integers(0, n_clusters, size=spec.n_events)
    line_cluster = np.asarray(cluster_of_line)[None, :]
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
    incidence, dropped = EventLineIncidence.dropping_empty_events(
        spec.n_events, catalog.n_lines, entries)
    if dropped:
        logger.info("synthetic instance kept %d of %d events",
                    incidence.n_events, spec.n_events)
    event_ids = tuple(f"e{i:06d}" for i in range(incidence.n_events))
    return InstanceFile(catalog, incidence, event_ids)
