#!/usr/bin/env python3
"""Write a workload's seeded instance files and their manifest.

Runs in its own process, before and outside the measured one, so that the
generator's memory peak never shows in the measured ``peak_rss_mb``:

    python3 perfbench/gen.py --workload prescaled --seed 1 --out DIR [--tiny]
"""

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

import env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    env.prepare()
    import streamopt
    import workloads

    w = workloads.workload(args.workload, args.tiny)
    args.out.mkdir(parents=True, exist_ok=True)
    instances = []
    for i, spec in enumerate(w.specs(args.seed)):
        start = time.perf_counter()
        instance = streamopt.gen_synthetic(spec)
        path = args.out / f"instance{i}.inst"
        instance.write(path)
        seconds = time.perf_counter() - start
        fold = streamopt.fold_modules(instance.incidence, instance.catalog)
        instances.append({
            "file": path.name,
            "spec": asdict(spec),
            "events_requested": spec.n_events,
            "events": instance.incidence.n_events,
            "lines": instance.catalog.n_lines,
            "modules": instance.catalog.n_modules,
            "nnz": instance.incidence.n_entries,
            # Only the dense path dedupes rows; a sparse fold never does.
            "unique_rows": (len(fold.row_groups()[0]) if fold.is_dense
                            else None),
            "dense_fold": fold.is_dense,
            "generate_s": seconds,
        })
    manifest = {
        "workload": w.name, "seed": args.seed, "tiny": args.tiny,
        "instances": instances,
        "generate_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    (args.out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
