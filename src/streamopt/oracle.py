"""Ground-truth checks: exact on small instances, sampled at desk scale.

Exhaustive enumeration walks canonical set partitions (restricted-growth
strings), so stream relabelings are never evaluated twice, and scores them
with the exact discrete objective: the relax kernel applied to batches of
one-hot partitions.  A Monte-Carlo sampler checks the analytic prescale
expectations against realized Bernoulli draws.

The enumeration is for small instances: it refuses those beyond its caps (12
modules, 4 streams) rather than truncating.  The Monte-Carlo check runs at
desk scale, in memory bounded by its batch budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import (DEFAULT_BASE_KB, DEFAULT_SHARED_KB, SchemeScorer,
                   _stream_of_units, first_minimum)
from .errors import InfeasibleError
from .model import (EventLineIncidence, LineCatalog, Scheme,
                    _require_consistent)

MAX_ORACLE_MODULES = 12
MAX_ORACLE_STREAMS = 4

# Monte-Carlo draws per batch are capped at this many elements.  The
# generator fills each batch row by row, so the samples do not depend on it.
_MC_ELEMS = 1 << 17


@dataclass(frozen=True)
class OracleResult:
    best_scheme: Scheme
    best_cost: float
    n_evaluated: int


@dataclass(frozen=True)
class MonteCarloCheck:
    read_mean: float
    read_se: float
    storage_mean: float
    storage_se: float
    n_samples: int


def count_partitions(n_items: int, max_blocks: int) -> int:
    """Number of set partitions of n items into at most max_blocks blocks."""
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    k = min(max_blocks, n_items)
    # Stirling numbers of the second kind, summed over block counts.
    stirling = [1] + [0] * k
    for _ in range(n_items):
        prev = stirling.copy()
        for j in range(k, 0, -1):
            stirling[j] = prev[j - 1] + j * prev[j]
        stirling[0] = 0
    return sum(stirling[1:])


def restricted_growth_strings(n_items: int, max_blocks: int) -> np.ndarray:
    """Canonical partition codes in lexicographic order, one per row.

    A code ``a`` satisfies a[0] == 0 and a[i] <= max(a[:i]) + 1, with all
    values below ``max_blocks``; each partition appears exactly once.  Built
    a position at a time, each code followed by its children in value order.
    """
    max_blocks = min(max_blocks, n_items)
    codes = np.zeros((1, n_items), dtype=np.int8)
    top = np.zeros(1, dtype=np.int8)  # the largest value in each code
    for i in range(1, n_items):
        n_children = np.minimum(top + 2, max_blocks)
        first = np.cumsum(n_children) - n_children
        codes = np.repeat(codes, n_children, axis=0)
        for value in range(1, max_blocks):
            codes[first[n_children > value] + value, i] = value
        top = np.maximum(np.repeat(top, n_children), codes[:, i])
    return codes


def enumerate_optimal(incidence: EventLineIncidence, catalog: LineCatalog,
                      n_streams: int, objective: str = "T", *,
                      base_kb: float = DEFAULT_BASE_KB,
                      shared_kb: float = DEFAULT_SHARED_KB) -> OracleResult:
    """Exactly minimize the discrete objective over all schemes.

    Ties (within ``cost.TIE_RTOL``, the rule that ranks ``optimize``'s
    restarts) are broken toward the lexicographically smallest canonical
    partition code.  Raises when the instance exceeds the enumeration caps.
    """
    n_modules = catalog.n_modules
    if n_streams < 1:
        raise InfeasibleError("n_streams must be >= 1")
    for what, n, cap in (("modules", n_modules, MAX_ORACLE_MODULES),
                         ("streams", n_streams, MAX_ORACLE_STREAMS)):
        if n > cap:
            raise InfeasibleError(
                f"oracle caps at {cap} {what} (got {n}); reduce the instance")
    scorer = SchemeScorer(incidence, catalog, base_kb=base_kb,
                          shared_kb=shared_kb)
    # At most count_partitions(12, 4) = 700,075 codes within the caps.
    codes = restricted_growth_strings(n_modules, n_streams)
    costs = scorer.values(codes, n_streams, objective)

    best = first_minimum(costs)
    return OracleResult(Scheme(n_streams, tuple(codes[best].tolist())),
                        float(costs[best]), len(codes))


def _run_counter(cols: np.ndarray, key: np.ndarray, p_col: np.ndarray,
                 weight: np.ndarray):
    """``count(draws)``: per row, the summed weight of the runs of equal
    ``key`` along draw columns ``cols`` that some draw keeps.

    ``key``, ``p_col`` (the prescales) and ``weight`` are per column; a run
    weighs what its first column does.  A draw is below 1, so the runs with a
    column of prescale 1 add a constant.  The others' columns are laid out
    longest run first in blocks (every run's first column, then the second of
    each run that has one, ...), each OR-ed into a prefix of the first.
    """
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    sure = np.logical_or.reduceat(p_col >= 1.0, starts)
    length = np.diff(starts, append=len(key))
    runs = np.flatnonzero(~sure)[np.argsort(-length[~sure])]
    widths = [np.count_nonzero(length[runs] > j)
              for j in range(length[runs].max(initial=1))]
    layout = np.concatenate([starts[runs[:width]] + j
                             for j, width in enumerate(widths)])
    cols, p_col = cols[layout], p_col[layout]
    constant, weight = int(weight[starts[sure]].sum()), weight[starts[runs]]

    def count(draws: np.ndarray) -> np.ndarray:
        kept = draws[:, cols] < p_col
        present, offset = kept[:, :widths[0]], widths[0]
        for width in widths[1:]:
            present[:, :width] |= kept[:, offset:offset + width]
            offset += width
        return constant + np.einsum("ij,j->i", present, weight)

    return count


def mc_prescale_check(incidence: EventLineIncidence, catalog: LineCatalog,
                      scheme: Scheme, n_samples: int, seed: int, *,
                      base_kb: float = DEFAULT_BASE_KB,
                      shared_kb: float = DEFAULT_SHARED_KB) -> MonteCarloCheck:
    """Sample prescale outcomes and measure the realized discrete T and S.

    Each (event, line) pass survives independently with the line's prescale;
    the realized read cost and storage are averaged over ``n_samples`` draws,
    for comparison with the analytic expectations.  A sample draws one uniform
    per entry, but only the runs that it can miss compare their draws.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    _require_consistent(incidence, catalog)
    stream_of_line = _stream_of_units(catalog, scheme)[catalog.module_of_line]
    lines_per_stream = np.bincount(stream_of_line, minlength=scheme.n_streams)

    # One key per entry, sorted, so that each stream's copy of an event is
    # one run of equal keys.  A sample's draws follow this order.
    stream = stream_of_line[incidence.line_index]
    key = stream * incidence.n_events + incidence.event_index
    order = np.argsort(key, kind="stable")
    key, stream, li = key[order], stream[order], incidence.line_index[order]
    p_entry = catalog.prescales[li]
    pr = np.flatnonzero(catalog.persist_reco_mask[li])
    turbo = np.flatnonzero(catalog.turbo_mask[li])
    # Read weighs a kept run by its stream's lines.  Storage counts the
    # persist-reco runs, and each kept turbo entry as a run of its own.
    read = _run_counter(np.arange(len(li)), key, p_entry,
                        lines_per_stream[stream])
    shared = _run_counter(pr, key[pr], p_entry[pr], np.ones_like(pr))
    payload = _run_counter(turbo, turbo, p_entry[turbo], np.ones_like(turbo))

    rng = np.random.default_rng(seed)
    read_samples = np.empty(n_samples)
    storage_samples = np.empty(n_samples)
    rows = min(n_samples, max(1, _MC_ELEMS // len(li)))
    draws = np.empty((rows, len(li)))
    for pos in range(0, n_samples, rows):
        batch = rng.random(out=draws[:min(rows, n_samples - pos)])
        read_samples[pos:pos + rows] = read(batch)
        storage_samples[pos:pos + rows] = (base_kb * payload(batch)
                                           + shared_kb * shared(batch))

    def mean_se(samples):
        mean = float(samples.mean())
        if n_samples < 2:
            return mean, 0.0
        return mean, float(samples.std(ddof=1) / np.sqrt(n_samples))

    read_mean, read_se = mean_se(read_samples)
    storage_mean, storage_se = mean_se(storage_samples)
    return MonteCarloCheck(read_mean, read_se, storage_mean, storage_se,
                           n_samples)
