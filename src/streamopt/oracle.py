"""Ground-truth reference for small instances.

Exhaustive enumeration walks canonical set partitions (restricted-growth
strings), so stream relabelings are never evaluated twice, and scores them
with the exact discrete objective: the relax kernel applied to batches of
one-hot partitions.  A Monte-Carlo sampler checks the analytic prescale
expectations against realized Bernoulli draws.

Both exist for verification at desk scale; the enumeration refuses instances
beyond its caps rather than silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .cost import DEFAULT_BASE_KB, DEFAULT_SHARED_KB, objective_scorer
from .errors import InfeasibleError
from .model import EventLineIncidence, LineCatalog, Scheme

MAX_ORACLE_MODULES = 12
MAX_ORACLE_STREAMS = 4

# Partitions per kernel call are capped so that one (events, batch * streams)
# intermediate stays under this many elements.
_BATCH_ELEMS = 1 << 17
# Monte-Carlo draws per batch.  The generator fills each batch row by row,
# so the samples do not depend on it.
_MC_CHUNK = 1024


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


def restricted_growth_strings(n_items: int, max_blocks: int):
    """Yield canonical partition codes in lexicographic order.

    A code ``a`` satisfies a[0] == 0 and a[i] <= max(a[:i]) + 1, with all
    values below ``max_blocks``; each partition appears exactly once.
    """
    a = [0] * n_items
    while True:
        yield a
        i = n_items - 1
        while i > 0:
            if a[i] < min(max(a[:i]) + 1, max_blocks - 1):
                break
            i -= 1
        if i == 0:
            return
        a[i] += 1
        for j in range(i + 1, n_items):
            a[j] = 0


def enumerate_optimal(incidence: EventLineIncidence, catalog: LineCatalog,
                      n_streams: int, objective: str = "T", *,
                      base_kb: float = DEFAULT_BASE_KB,
                      shared_kb: float = DEFAULT_SHARED_KB) -> OracleResult:
    """Exactly minimize the discrete objective over all schemes.

    Ties are broken toward the lexicographically smallest canonical partition
    code.  Raises when the instance exceeds the enumeration caps.
    """
    n_modules = catalog.n_modules
    if n_streams < 1:
        raise InfeasibleError("n_streams must be >= 1")
    if n_modules > MAX_ORACLE_MODULES:
        raise InfeasibleError(
            f"oracle caps at {MAX_ORACLE_MODULES} modules (got {n_modules}); "
            "reduce the instance"
        )
    if n_streams > MAX_ORACLE_STREAMS:
        raise InfeasibleError(
            f"oracle caps at {MAX_ORACLE_STREAMS} streams (got {n_streams}); "
            "reduce the instance"
        )
    # At most count_partitions(12, 4) = 700,075 partitions within the caps.
    total = count_partitions(n_modules, n_streams)

    score = objective_scorer(incidence, catalog, objective, base_kb=base_kb,
                             shared_kb=shared_kb)
    codes = np.fromiter(
        chain.from_iterable(restricted_growth_strings(n_modules, n_streams)),
        dtype=np.int8, count=total * n_modules).reshape(total, n_modules)
    costs = np.empty(total)
    batch = max(1, _BATCH_ELEMS // (incidence.n_events * n_streams))
    for start in range(0, total, batch):
        costs[start:start + batch] = score(codes[start:start + batch],
                                           n_streams)

    # argmin keeps the first of equal costs in enumeration order.
    best = int(np.argmin(costs))
    return OracleResult(Scheme(n_streams, tuple(codes[best].tolist())),
                        float(costs[best]), total)


def mc_prescale_check(incidence: EventLineIncidence, catalog: LineCatalog,
                      scheme: Scheme, n_samples: int, seed: int, *,
                      base_kb: float = DEFAULT_BASE_KB,
                      shared_kb: float = DEFAULT_SHARED_KB) -> MonteCarloCheck:
    """Sample prescale outcomes and measure the realized discrete T and S.

    Each (event, line) pass survives independently with the line's prescale;
    the realized read cost and storage are averaged over ``n_samples`` draws,
    for comparison with the analytic expectations.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    stream_of_line = np.asarray(scheme.assignment,
                                dtype=np.int64)[catalog.module_of_line]
    lines_per_stream = np.bincount(stream_of_line, minlength=scheme.n_streams)

    # One key per entry, sorted, so that each stream's copy of an event is
    # one run of equal keys.  Keys are >= 0, so the -1 in front makes the
    # first entry a run start.
    key = (stream_of_line[incidence.line_index] * incidence.n_events
           + incidence.event_index)
    order = np.argsort(key, kind="stable")
    key, li = key[order], incidence.line_index[order]
    p_entry = catalog.prescales[li]
    turbo = catalog.turbo_mask[li].astype(np.int64)
    pr = catalog.persist_reco_mask[li]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    run_lines = lines_per_stream[key[starts] // incidence.n_events]
    pr_starts = np.flatnonzero(np.diff(key[pr], prepend=-1))

    rng = np.random.default_rng(seed)
    read_samples = np.empty(n_samples)
    storage_samples = np.empty(n_samples)
    # Every chunk draws into the same buffers, and einsum weights columns
    # without a (batch, columns) integer copy.
    draws = np.empty((min(_MC_CHUNK, n_samples), len(li)))
    outcomes = np.empty(draws.shape, dtype=bool)
    for pos in range(0, n_samples, _MC_CHUNK):
        batch = min(_MC_CHUNK, n_samples - pos)
        kept = np.less(rng.random(out=draws[:batch]), p_entry,
                       out=outcomes[:batch])
        present = np.logical_or.reduceat(kept, starts, axis=1)
        read_samples[pos:pos + batch] = np.einsum("ij,j->i", present,
                                                  run_lines)
        pr_present = np.logical_or.reduceat(kept[:, pr], pr_starts, axis=1)
        storage_samples[pos:pos + batch] = (
            base_kb * np.einsum("ij,j->i", kept, turbo)
            + shared_kb * pr_present.sum(axis=1))

    def mean_se(samples):
        mean = float(samples.mean())
        if n_samples < 2:
            return mean, 0.0
        return mean, float(samples.std(ddof=1) / np.sqrt(n_samples))

    read_mean, read_se = mean_se(read_samples)
    storage_mean, storage_se = mean_se(storage_samples)
    return MonteCarloCheck(read_mean, read_se, storage_mean, storage_se,
                           n_samples)
