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

Events are indexed by first appearance in the incidence section.  Scheme
files carry one ``module,stream`` row per module after a ``# n_streams=K``
header so that trailing empty streams survive a round trip.  Measurement
files are ``scheme_id,stream_id,n_lines,measured_time_s,measured_size_kb``
rows.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibrate import MeasurementRecord
from .errors import DataError
from .model import EventLineIncidence, LineCatalog, LineRecord, Scheme, \
    validate_dataset

logger = logging.getLogger(__name__)

CATALOG_HEADER = "name,prescale,turbo,persist_reco,module"
INCIDENCE_HEADER = "event,line"
SCHEME_HEADER = "module,stream"
MEASUREMENT_HEADER = "scheme_id,stream_id,n_lines,measured_time_s,measured_size_kb"


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
        return _parse_instance(text)

    def write(self, path):
        Path(path).write_text(self.to_text())

    @classmethod
    def load(cls, path) -> "InstanceFile":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise DataError(f"cannot read instance file: {exc}") from exc
        return cls.from_text(text)


def _parse_bool(token: str, lineno: int) -> bool:
    lowered = token.strip().lower()
    if lowered in ("1", "true"):
        return True
    if lowered in ("0", "false"):
        return False
    raise DataError(f"line {lineno}: expected 0/1 flag, got '{token}'")


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


def _read_incidence(lines: list[str], start: int, events: list[str],
                    line_names: list[str]) -> int:
    """Append the incidence rows from ``lines[start]`` up to the next section
    header to ``events`` and ``line_names``; return that header's index.

    A section without quotes is split in one pass over its joined text; a
    section with quotes goes row by row through ``_split_row``.
    """
    rows = list(map(str.strip, lines[start:]))
    end = len(rows)
    for header in ("[catalog]", "[incidence]"):
        try:
            end = rows.index(header, 0, end)
        except ValueError:
            pass
    del rows[end:]
    joined = "\n".join(rows)
    kept = range(len(rows))
    if "" in rows or joined.startswith("#") or "\n#" in joined:
        kept = [k for k, row in enumerate(rows) if row and row[0] != "#"]
        rows = [rows[k] for k in kept]
        joined = "\n".join(rows)
    if not rows:
        return start + end
    if '"' in joined:
        cells = [cell for k, row in zip(kept, rows)
                 for cell in _split_row(row, start + k + 1, 2)]
    else:
        commas = [row.count(",") for row in rows]
        if commas.count(1) != len(rows):
            k = next(k for k, n in enumerate(commas) if n != 1)
            _split_row(rows[k], start + kept[k] + 1, 2)
        cells = joined.replace("\n", ",").split(",")
    events.extend(cells[0::2])
    line_names.extend(cells[1::2])
    return start + end


def _parse_instance(text: str) -> InstanceFile:
    lines = text.splitlines()
    records: list[LineRecord] = []
    events: list[str] = []
    line_names: list[str] = []
    section = None
    header_seen = False
    index = 0
    while index < len(lines):
        line = lines[index].strip()
        index += 1
        lineno = index
        if not line or line.startswith("#"):
            continue
        if line == "[catalog]":
            section, header_seen = "catalog", False
            continue
        if line == "[incidence]":
            section, header_seen = "incidence", False
            continue
        if section is None:
            raise DataError(f"line {lineno}: content before any section header")
        if not header_seen:
            expected = CATALOG_HEADER if section == "catalog" else INCIDENCE_HEADER
            if line != expected:
                raise DataError(
                    f"line {lineno}: expected header '{expected}', got '{line}'"
                )
            header_seen = True
            if section == "incidence":
                index = _read_incidence(lines, index, events, line_names)
            continue
        name, prescale, turbo, pr, module = _split_row(line, lineno, 5)
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
    # Number events, and names as they appear, in order of first appearance;
    # then drop repeated (event, name) rows over whole arrays.
    event_ids = tuple(dict.fromkeys(events))
    event_index = dict(zip(event_ids, range(len(event_ids))))
    names = tuple(dict.fromkeys(line_names))
    name_code = dict(zip(names, range(len(names))))
    ev = np.fromiter(map(event_index.__getitem__, events), np.int64,
                     len(events))
    code = np.fromiter(map(name_code.__getitem__, line_names), np.int64,
                       len(line_names))
    _, first = np.unique(ev * len(names) + code, return_index=True)
    if len(first) != len(events):
        logger.warning("ignored %d duplicate incidence rows",
                       len(events) - len(first))
        ev, code = ev[first], code[first]
    line_index: dict[str, int] = {}
    for i, name in enumerate(catalog.line_names):
        line_index.setdefault(name, i)
    unknown = [name for name in names if name not in line_index]
    if unknown:
        raise DataError(f"incidence references unknown line '{unknown[0]}'")
    catalog_line = np.array([line_index[name] for name in names],
                            dtype=np.int64)
    incidence = EventLineIncidence(len(event_ids), catalog.n_lines,
                                   np.column_stack((ev, catalog_line[code])))
    return InstanceFile(catalog, incidence, event_ids)


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


def scheme_from_text(text: str, catalog: LineCatalog) -> Scheme:
    n_streams = None
    mapping: dict[str, int] = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n_streams="):
                try:
                    n_streams = int(body.split("=", 1)[1])
                except ValueError:
                    raise DataError(f"line {lineno}: bad n_streams header") from None
            continue
        if not header_seen:
            if line != SCHEME_HEADER:
                raise DataError(
                    f"line {lineno}: expected header '{SCHEME_HEADER}'"
                )
            header_seen = True
            continue
        name, stream = _split_row(line, lineno, 2)
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
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read scheme file: {exc}") from exc
    return scheme_from_text(text, catalog)


def write_scheme(path, scheme: Scheme, catalog: LineCatalog):
    Path(path).write_text(scheme_to_text(scheme, catalog))


# -- measurements ------------------------------------------------------------


def load_measurements(path) -> tuple[MeasurementRecord, ...]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read measurement file: {exc}") from exc
    records: list[MeasurementRecord] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != MEASUREMENT_HEADER:
                raise DataError(
                    f"line {lineno}: expected header '{MEASUREMENT_HEADER}'"
                )
            header_seen = True
            continue
        scheme_id, stream_id, n_lines, time_s, size_kb = _split_row(line, lineno, 5)
        try:
            stream = int(stream_id)
            lines = int(n_lines)
        except ValueError:
            raise DataError(f"line {lineno}: bad integer field") from None
        time_value = _parse_float(time_s, lineno, "measured_time_s")
        size_value = _parse_float(size_kb, lineno, "measured_size_kb")
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
