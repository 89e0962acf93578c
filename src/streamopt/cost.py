"""Discrete cost models evaluated on hard streaming schemes.

Read cost: analysis jobs read whole streams sequentially, and each event is
requested once per line it passes, so the total read cost is

    T = sum over streams of  N_lines_in_stream * E[N_events_in_stream]

where, with prescales applied analytically,

    E[N_events_in_stream] = sum_e (1 - prod_{l in stream} (1 - pass[e,l] * prescale[l])).

Storage: a turbo line contributes ``base_kb`` per expected pass; lines with
the persist-reco flag share one ``shared_kb`` payload per event and stream,
counted with probability 1 - prod(1 - pass * prescale) over those lines.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .model import (EventLineIncidence, LineCatalog, ModuleIncidence, Scheme,
                    _log_keep_per_entry, _require_consistent, fold_modules)
from .relax import LossEvaluator, one_hot

DEFAULT_BASE_KB = 10.0
DEFAULT_SHARED_KB = 50.0
# Schemes of equal cost in exact arithmetic, such as relabelings of one
# partition, can score a few ulps apart; costs this close to the minimum,
# relative to it, are ties.
TIE_RTOL = 1e-12
# Schemes per kernel call are capped so that each (rows, schemes * streams)
# temporary of the kernel stays under this many elements.
_BATCH_ELEMS = 1 << 17


@dataclass(frozen=True)
class StreamCost:
    """Read-cost contribution of one stream."""

    n_units: int
    n_lines: int
    expected_events: float
    contribution: float


@dataclass(frozen=True)
class CostBreakdown:
    """Per-stream read-cost terms; total is their sum (event-reads)."""

    per_stream: tuple[StreamCost, ...]
    total: float


@dataclass(frozen=True)
class StorageBreakdown:
    """Per-stream storage sizes in kB; total is their sum."""

    per_stream: tuple[float, ...]
    total: float


def _stream_of_units(catalog: LineCatalog, scheme: Scheme) -> np.ndarray:
    if scheme.n_units < catalog.n_modules:
        missing = catalog.modules[scheme.n_units]
        raise DataError(f"module '{missing}' has no stream assignment")
    if scheme.n_units > catalog.n_modules:
        raise DataError(
            f"scheme assigns {scheme.n_units} units but catalog has "
            f"{catalog.n_modules} modules"
        )
    return np.asarray(scheme.assignment, dtype=np.int64)


def _kept_events(incidence: EventLineIncidence, catalog: LineCatalog,
                 entry_stream: np.ndarray, entries, n_streams: int) -> np.ndarray:
    """Expected events per stream kept by at least one of the given entries.

    P(event kept in stream) = 1 - prod(1 - prescale) over its passing entries.
    """
    log_keep = _log_keep_per_entry(incidence, catalog)[entries]
    flat = incidence.event_index[entries] * n_streams + entry_stream[entries]
    log_miss = np.bincount(flat, weights=log_keep,
                           minlength=incidence.n_events * n_streams)
    return -np.expm1(log_miss.reshape(incidence.n_events, n_streams)).sum(axis=0)


def _cost_breakdown(catalog: LineCatalog, stream_of_unit: np.ndarray,
                    n_streams: int, expected_events) -> CostBreakdown:
    lines_per_stream = np.bincount(stream_of_unit,
                                   weights=catalog.module_line_counts,
                                   minlength=n_streams)
    units_per_stream = np.bincount(stream_of_unit, minlength=n_streams)
    # An empty stream's expected events come out as -0.0; adding 0.0 gives
    # +0.0 and leaves every other value as it is.
    expected_events = expected_events + 0.0
    contributions = lines_per_stream * expected_events
    per_stream = tuple(
        StreamCost(int(units_per_stream[s]), int(lines_per_stream[s]),
                   float(expected_events[s]), float(contributions[s]))
        for s in range(n_streams)
    )
    return CostBreakdown(per_stream, float(contributions.sum()))


def read_cost(incidence: EventLineIncidence, catalog: LineCatalog,
              scheme: Scheme) -> CostBreakdown:
    """Expected disk-read cost of a hard scheme, per stream and total.

    With all prescales equal to 1 the expected event term is the exact count
    of events passing at least one line of the stream.
    """
    _require_consistent(incidence, catalog)
    stream_of_unit = _stream_of_units(catalog, scheme)
    entry_stream = stream_of_unit[catalog.module_of_line][incidence.line_index]
    events = _kept_events(incidence, catalog, entry_stream, slice(None),
                          scheme.n_streams)
    return _cost_breakdown(catalog, stream_of_unit, scheme.n_streams, events)


def storage_cost(incidence: EventLineIncidence, catalog: LineCatalog,
                 scheme: Scheme, *, base_kb: float = DEFAULT_BASE_KB,
                 shared_kb: float = DEFAULT_SHARED_KB) -> StorageBreakdown:
    """Expected storage size of a hard scheme, per stream and total (kB)."""
    _require_consistent(incidence, catalog)
    stream_of_unit = _stream_of_units(catalog, scheme)
    n_streams = scheme.n_streams
    entry_stream = stream_of_unit[catalog.module_of_line][incidence.line_index]

    # Turbo payload: base_kb per expected pass of a turbo line.
    turbo = catalog.turbo_mask[incidence.line_index]
    turbo_passes = np.bincount(
        entry_stream[turbo],
        weights=catalog.prescales[incidence.line_index[turbo]],
        minlength=n_streams,
    )

    # Shared payload: one shared_kb per event and stream where any
    # persist-reco line keeps the event.
    pr = catalog.persist_reco_mask[incidence.line_index]
    pr_events = _kept_events(incidence, catalog, entry_stream, pr, n_streams)

    sizes = base_kb * turbo_passes + shared_kb * pr_events
    return StorageBreakdown(tuple(float(v) for v in sizes), float(sizes.sum()))


def read_cost_from_modules(module_incidence: ModuleIncidence,
                           catalog: LineCatalog,
                           scheme: Scheme) -> CostBreakdown:
    """Read cost of a hard scheme from a fold, by a scorer built per call.
    The benchmark's scheme check compares it with :func:`read_cost` on
    every written scheme."""
    return SchemeScorer(None, catalog, fold=module_incidence).read_cost(scheme)


def first_minimum(costs) -> int:
    """Index of the first cost tied with the minimum (within ``TIE_RTOL``)."""
    costs = np.asarray(costs, dtype=float)
    low = costs.min()
    return int(np.argmax(costs <= low + TIE_RTOL * abs(low)))


def extreme_schemes(catalog: LineCatalog) -> tuple[Scheme, Scheme]:
    """The two boundary schemes: everything in one stream, one stream per unit.

    The single stream minimizes storage (nothing is duplicated); one stream
    per module minimizes read cost (each job reads only the events its lines
    selected).
    """
    n = catalog.n_modules
    single = Scheme(1, (0,) * n)
    per_unit = Scheme(n, tuple(range(n)))
    return single, per_unit


def parse_objective(spec: str) -> tuple[str, float]:
    """Parse an objective token: 'T', 'S', or 'weighted:<w>'."""
    if spec == "T" or spec == "S":
        return spec, 0.0
    if spec.startswith("weighted:"):
        try:
            weight = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad objective weight in '{spec}'") from None
        if not math.isfinite(weight) or weight < 0:
            raise ValueError("objective weight must be finite and nonnegative")
        return "weighted", weight
    raise ValueError(f"unknown objective '{spec}' (use T, S, or weighted:<w>)")


class SchemeScorer:
    """T, S and T + w * S of hard schemes on one instance, through its fold:
    the relax kernel applied to one-hot schemes, which agrees with
    :func:`read_cost` and :func:`storage_cost` to rounding.

    Built once per command, it folds ``incidence`` unless given the
    ``fold``.  The T evaluator is built on first use, and the storage terms,
    the only part that reads ``incidence`` after the fold, on first use of S.
    """

    def __init__(self, incidence: EventLineIncidence | None,
                 catalog: LineCatalog, *, base_kb: float = DEFAULT_BASE_KB,
                 shared_kb: float = DEFAULT_SHARED_KB,
                 fold: ModuleIncidence | None = None):
        self.catalog, self._incidence = catalog, incidence
        self.base_kb, self.shared_kb = base_kb, shared_kb
        self.fold = fold_modules(incidence, catalog) if fold is None else fold
        if self.fold.n_modules != catalog.n_modules:
            raise DataError("module incidence does not match catalog")

    @functools.cached_property
    def evaluator(self) -> LossEvaluator:
        """The T evaluator, over ``fold``."""
        return LossEvaluator(self.fold, self.catalog.module_line_counts)

    @functools.cached_property
    def _storage(self) -> tuple[LossEvaluator, float, np.ndarray]:
        """The persist-reco lines' evaluator, the turbo payload in kB, and
        the expected turbo passes per module."""
        catalog, incidence = self.catalog, self._incidence
        if incidence is None:
            raise ValueError("storage needs the line-level incidence")
        # The shared payload is kept by the persist-reco lines only, so fold
        # with every other line's prescale set to 0.
        pr_catalog = LineCatalog(
            tuple(rec if rec.is_persist_reco else replace(rec, prescale=0.0)
                  for rec in catalog.lines))
        shared = LossEvaluator(fold_modules(incidence, pr_catalog),
                               catalog.module_line_counts)
        # The turbo payload is additive over modules, so every scheme stores
        # the same amount of it.
        lines = incidence.line_index[catalog.turbo_mask[incidence.line_index]]
        passes = catalog.prescales[lines]
        return shared, self.base_kb * passes.sum(), np.bincount(
            catalog.module_of_line[lines], passes, catalog.n_modules)

    def read_cost(self, scheme: Scheme) -> CostBreakdown:
        """Per-stream read cost of a hard scheme, as :func:`read_cost`'s."""
        stream, k = _stream_of_units(self.catalog, scheme), scheme.n_streams
        events = self.evaluator.expected_events(one_hot(stream, k))
        return _cost_breakdown(self.catalog, stream, k, events)

    def storage_cost(self, scheme: Scheme) -> StorageBreakdown:
        """Per-stream storage of a hard scheme, as :func:`storage_cost`'s."""
        stream, k = _stream_of_units(self.catalog, scheme), scheme.n_streams
        shared, _, turbo_passes = self._storage
        sizes = (self.base_kb * np.bincount(stream, turbo_passes, k)
                 + self.shared_kb * shared.expected_events(one_hot(stream, k)))
        return StorageBreakdown(tuple(float(v) for v in sizes),
                                float(sizes.sum()))

    def values(self, assignments, n_streams: int,
               objective: str = "T") -> np.ndarray:
        """The objective (see :func:`parse_objective`) of the hard schemes
        of integer ``assignments``, shape ``(batch, modules)``, in kernel
        calls whose temporaries stay under ``_BATCH_ELEMS`` elements.  A
        large weight may overflow to inf, which the caller can check."""
        kind, weight = parse_objective(objective)
        read = self.evaluator if kind != "S" else None
        shared, turbo_kb, _ = self._storage if kind != "T" else (None,) * 3
        rows = max(e.rows for e in (read, shared) if e is not None)
        batch = max(1, _BATCH_ELEMS // (rows * n_streams))
        values = np.empty(len(assignments))
        for start in range(0, len(values), batch):
            probs = one_hot(assignments[start:start + batch], n_streams)
            if kind != "T":
                stored = turbo_kb + self.shared_kb * shared.expected_events(
                    probs).sum(axis=1)
            with np.errstate(over="ignore"):
                values[start:start + batch] = (
                    read.loss(probs) if kind == "T" else stored if kind == "S"
                    else read.loss(probs) + weight * stored)
        return values
