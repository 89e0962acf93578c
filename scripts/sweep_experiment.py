#!/usr/bin/env python3
"""Full sweep experiment on a planted-cluster instance.

Generates a clustered synthetic dataset and runs ``streamopt sweep`` on it,
with the planted grouping (contiguous cluster blocks, written to
``planted.scheme``) as the baseline.  The table, ``sweep.csv``, gives read
cost and storage per stream count, each also normalized to the planted
grouping.  Its shape is the usual story: read cost falls as streams are added
while storage creeps up from event duplication.

Usage:
    python3 scripts/sweep_experiment.py --out-dir out/ --events 10000
"""

import argparse
import sys
from pathlib import Path

from streamopt import Scheme, SyntheticSpec, gen_synthetic, write_scheme
from streamopt.cli import main as streamopt_main


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
    args.out_dir.mkdir(parents=True, exist_ok=True)
    instance = gen_synthetic(SyntheticSpec(
        n_events=args.events, n_modules=args.modules,
        lines_per_module=(2, 4), n_latent_clusters=args.clusters,
        intra_cluster_pass_rate=args.intra,
        cross_cluster_pass_rate=args.cross, seed=args.seed,
    ))
    path = args.out_dir / "instance.txt"
    planted = args.out_dir / "planted.scheme"
    instance.write(path)
    write_scheme(planted, Scheme(args.clusters, tuple(
        (m * args.clusters) // args.modules for m in range(args.modules))),
        instance.catalog)
    return streamopt_main([
        "sweep", "--instance", str(path), "--streams", args.streams,
        "--restarts", str(args.restarts), "--seed", str(args.seed),
        "--baseline", str(planted), "--out", str(args.out_dir / "sweep.csv")])


if __name__ == "__main__":
    sys.exit(main())
