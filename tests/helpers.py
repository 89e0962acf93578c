"""Shared instance builders for the test suite."""

import numpy as np

from streamopt import (EventLineIncidence, LineCatalog, LineRecord, Scheme,
                       SyntheticSpec, gen_synthetic)


def build_catalog(rows):
    """Catalog from (name, prescale, turbo, persist_reco, module) tuples."""
    return LineCatalog(tuple(LineRecord(*row) for row in rows))


def random_instance(rng, *, max_events=300, max_modules=8, lines_range=(1, 3),
                    rate_range=(0.01, 0.12), prescale_mix=True,
                    turbo_prob=0.9, pr_prob=0.3):
    """Random sparse instance: per-line pass rates drawn from rate_range."""
    n_modules = int(rng.integers(2, max_modules + 1))
    records = []
    for m in range(n_modules):
        for j in range(int(rng.integers(lines_range[0], lines_range[1] + 1))):
            if prescale_mix and rng.random() < 0.5:
                prescale = float(rng.uniform(0.2, 1.0))
            else:
                prescale = 1.0
            records.append(LineRecord(
                f"m{m:02d}_l{j}", prescale,
                bool(rng.random() < turbo_prob),
                bool(rng.random() < pr_prob),
                f"m{m:02d}",
            ))
    catalog = LineCatalog(tuple(records))
    n_events = int(rng.integers(20, max_events + 1))
    rates = rng.uniform(rate_range[0], rate_range[1], catalog.n_lines)
    matrix = rng.random((n_events, catalog.n_lines)) < rates
    matrix = matrix[matrix.any(axis=1)]
    if matrix.shape[0] == 0:
        matrix = np.zeros((1, catalog.n_lines), dtype=bool)
        matrix[0, 0] = True
    return EventLineIncidence.from_dense(matrix), catalog


def random_clustered_instance(rng, *, max_events=300, max_modules=8,
                              max_streams=3):
    """Planted-cluster instance plus a random feasible stream count."""
    n_modules = int(rng.integers(3, max_modules + 1))
    n_streams = min(int(rng.integers(2, max_streams + 1)), n_modules)
    spec = SyntheticSpec(
        n_events=int(rng.integers(60, max_events + 1)),
        n_modules=n_modules,
        lines_per_module=(1, 3),
        n_latent_clusters=int(rng.integers(2, min(n_modules, 5) + 1)),
        intra_cluster_pass_rate=float(rng.uniform(0.2, 0.6)),
        cross_cluster_pass_rate=float(rng.uniform(0.0, 0.05)),
        prescale_options=(1.0, 1.0, float(rng.uniform(0.3, 0.9))),
        persist_reco_fraction=0.3,
        seed=int(rng.integers(0, 2 ** 31)),
    )
    instance = gen_synthetic(spec)
    return instance.incidence, instance.catalog, n_streams


def random_scheme(rng, n_units, n_streams):
    return Scheme(n_streams,
                  tuple(int(s) for s in rng.integers(0, n_streams, n_units)))


def brute_force_read_cost(incidence, catalog, scheme):
    """Set-based reference for the read cost, valid for unit prescales only."""
    stream_of_line = [scheme.assignment[catalog.modules.index(rec.module)]
                      for rec in catalog.lines]
    total = 0.0
    for s in range(scheme.n_streams):
        lines = [i for i, t in enumerate(stream_of_line) if t == s]
        events = set()
        for e, l in incidence.pairs():
            if l in set(lines):
                events.add(e)
        total += len(lines) * len(events)
    return total


def reference_restricted_growth_strings(n_items, max_blocks):
    """Yield canonical partition codes in lexicographic order, one at a time.

    A code ``a`` satisfies a[0] == 0 and a[i] <= max(a[:i]) + 1, with all
    values below ``max_blocks``.
    """
    a = [0] * n_items
    while True:
        yield tuple(a)
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


def reference_mc_prescale_check(incidence, catalog, scheme, n_samples, seed, *,
                                base_kb=10.0, shared_kb=50.0, chunk=1024):
    """Monte-Carlo check that compares every entry with its draw.

    Returns (read_mean, read_se, storage_mean, storage_se, n_samples), from
    the same draws as :func:`streamopt.mc_prescale_check`: one uniform per
    entry and sample, with the entries sorted by (stream, event).
    """
    stream_of_line = np.asarray(scheme.assignment,
                                dtype=np.int64)[catalog.module_of_line]
    lines_per_stream = np.bincount(stream_of_line, minlength=scheme.n_streams)
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
    for pos in range(0, n_samples, chunk):
        batch = min(chunk, n_samples - pos)
        kept = rng.random((batch, len(li))) < p_entry
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

    return (*mean_se(read_samples), *mean_se(storage_samples), n_samples)


def reference_validate_dataset(incidence, catalog):
    """The checks of :func:`streamopt.validate_dataset`, line by line over
    the catalog's records."""
    violations = []
    if incidence.n_lines != catalog.n_lines:
        violations.append(f"incidence has {incidence.n_lines} lines but "
                          f"catalog has {catalog.n_lines}")
    seen = set()
    for rec in catalog.lines:
        if not 0.0 <= rec.prescale <= 1.0:
            violations.append(
                f"line '{rec.name}': prescale {rec.prescale} outside [0, 1]")
        if rec.name in seen:
            violations.append(f"duplicate line name '{rec.name}'")
        seen.add(rec.name)
    return violations

