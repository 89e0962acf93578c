#!/usr/bin/env python3
"""streamopt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload planted --seed 1 --seconds 25 --trace 0

Generates the workload's instances from the seed in a separate process,
sets up several times, then repeats the workload's user operation in a
closed loop (one at a time) for ``--seconds`` and checks every output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates traced and untraced operations and reports the per-layer metrics.
The last line of standard output is the JSON result; the full report (and,
when traced, the spans) goes to ``.perfbench_runs/``.  ``--tiny`` shrinks
every workload for the smoke test.  Exits 1 without a result when the
checkout holds no program.
"""

import argparse
import sys

import env


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one streamopt benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    thread_caps = env.prepare()
    import harness

    return harness.run(args, thread_caps)


if __name__ == "__main__":
    sys.exit(main())
