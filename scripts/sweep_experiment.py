#!/usr/bin/env python3
"""Full sweep experiment on a planted-cluster instance.

Generates a clustered synthetic dataset, optimizes one scheme per stream
count, and writes a table of read cost and storage versus stream count,
normalized to the planted grouping at the reference stream count.  The
table's shape is the usual story: read cost falls as streams are added while
storage creeps up from event duplication.

Usage:
    python3 scripts/sweep_experiment.py --out-dir out/ --events 10000
"""

import argparse
import sys
from pathlib import Path

from streamopt import (OptimizerConfig, Scheme, SchemeScorer, SyntheticSpec,
                       gen_synthetic, sweep_streams)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=10_000)
    parser.add_argument("--modules", type=int, default=20)
    parser.add_argument("--clusters", type=int, default=5)
    parser.add_argument("--intra", type=float, default=0.8)
    parser.add_argument("--cross", type=float, default=0.015)
    parser.add_argument("--streams", type=str, default="1,2,3,4,5,6,8")
    parser.add_argument("--restarts", type=int, default=20)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out-dir", type=Path, default=Path("out"))
    return parser.parse_args()


def main():
    args = parse_args()
    counts = [int(tok) for tok in args.streams.split(",")]
    args.out_dir.mkdir(parents=True, exist_ok=True)

    spec = SyntheticSpec(
        n_events=args.events, n_modules=args.modules,
        lines_per_module=(2, 4), n_latent_clusters=args.clusters,
        intra_cluster_pass_rate=args.intra,
        cross_cluster_pass_rate=args.cross, seed=args.seed,
    )
    instance = gen_synthetic(spec)
    incidence, catalog = instance.incidence, instance.catalog
    instance.write(args.out_dir / "instance.txt")
    print(f"instance: {incidence.n_events} events, {catalog.n_lines} lines, "
          f"{catalog.n_modules} modules")

    # The planted grouping (contiguous cluster blocks) is the reference.
    baseline = Scheme(args.clusters, tuple(
        (m * args.clusters) // args.modules for m in range(args.modules)))
    scorer = SchemeScorer(incidence, catalog)
    t_base = scorer.read_cost(baseline).total
    s_base = scorer.storage_cost(baseline).total
    print(f"planted grouping at {args.clusters} streams: "
          f"T={t_base:.0f} S={s_base:.0f} kB")

    config = OptimizerConfig(n_streams=1, n_restarts=args.restarts,
                             seed=args.seed)
    points = sweep_streams(scorer, counts, config)

    rows = ["n_streams,read_cost,storage_kb,read_vs_planted,storage_vs_planted"]
    for point in points:
        t = point.result.best_cost_discrete.total
        s = point.storage.total
        rows.append(f"{point.n_streams},{t:.6g},{s:.6g},"
                    f"{t / t_base:.4f},{s / s_base:.4f}")
        print(rows[-1])
    table = args.out_dir / "sweep.csv"
    table.write_text("\n".join(rows) + "\n")
    print(f"wrote {table}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
