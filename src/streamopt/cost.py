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

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .model import (EventLineIncidence, LineCatalog, ModuleIncidence, Scheme,
                    _log_keep_per_entry, _require_consistent, fold_modules)
from .relax import LossEvaluator, one_hot

DEFAULT_BASE_KB = 10.0
DEFAULT_SHARED_KB = 50.0


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


def _scheme_read_cost(evaluator: LossEvaluator, catalog: LineCatalog,
                     scheme: Scheme) -> CostBreakdown:
    """Read cost of a hard scheme from an evaluator over the folded incidence:
    the relax kernel applied to the scheme's one-hot assignment."""
    stream_of_unit = _stream_of_units(catalog, scheme)
    events = evaluator.expected_events(one_hot(stream_of_unit,
                                               scheme.n_streams))
    return _cost_breakdown(catalog, stream_of_unit, scheme.n_streams, events)


def read_cost_from_modules(module_incidence: ModuleIncidence,
                           catalog: LineCatalog,
                           scheme: Scheme) -> CostBreakdown:
    """Read cost of a hard scheme evaluated from a folded incidence.

    Identical to :func:`read_cost` for every hard scheme (the per-stream
    keep probability factors over modules); used where the line-level
    incidence is no longer at hand.  It builds a new evaluator on every
    call.  It is kept because the benchmark's scheme check compares it with
    :func:`read_cost`, which ties the folded kernel to the line-level
    definition on every written scheme.
    """
    if module_incidence.n_modules != catalog.n_modules:
        raise DataError("module incidence does not match catalog")
    return _scheme_read_cost(
        LossEvaluator(module_incidence, catalog.module_line_counts), catalog,
        scheme)


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


def objective_scorer(incidence: EventLineIncidence, catalog: LineCatalog,
                     objective: str, *, base_kb: float = DEFAULT_BASE_KB,
                     shared_kb: float = DEFAULT_SHARED_KB):
    """Score function of an objective token: T, S, or T + w * S.

    Returns ``score(assignments, n_streams)``, which maps integer stream
    assignments of shape ``(batch, modules)`` to one objective value per
    scheme, in one kernel pass: the relax kernel applied to the one-hot
    schemes.  The values agree with :func:`read_cost` and
    :func:`storage_cost` to rounding.
    """
    kind, weight = parse_objective(objective)
    read = shared = turbo_kb = None
    if kind != "S":
        read = LossEvaluator(fold_modules(incidence, catalog),
                             catalog.module_line_counts)
    if kind != "T":
        # The shared payload is kept by the persist-reco lines only, so fold
        # with every other line's prescale set to 0.
        pr_catalog = LineCatalog(
            tuple(rec if rec.is_persist_reco else replace(rec, prescale=0.0)
                  for rec in catalog.lines))
        shared = LossEvaluator(fold_modules(incidence, pr_catalog),
                               catalog.module_line_counts)
        # Expected turbo payload is additive over modules, so every scheme
        # stores the same amount of it.
        turbo = catalog.turbo_mask[incidence.line_index]
        turbo_kb = base_kb * catalog.prescales[
            incidence.line_index[turbo]].sum()

    def score(assignments, n_streams: int) -> np.ndarray:
        probs = one_hot(assignments, n_streams)
        if kind == "T":
            return read.loss(probs)
        stored = turbo_kb + shared_kb * shared.expected_events(probs).sum(axis=1)
        if kind == "S":
            return stored
        # A large weight may overflow to inf, which the caller can check.
        with np.errstate(over="ignore"):
            return read.loss(probs) + weight * stored

    return score
