"""One benchmark run: generate, set up, time the user operation, check,
report.

The load is a closed loop from this one process: the next operation starts
only after the previous one and its checks finished.  End-to-end timings
are means over the whole run at reference speed (see ``gauge``), per-layer
timings medians over the traced operations; quality figures come from each
instance's first operation and must repeat exactly on every later one.
"""

from __future__ import annotations

import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import env
import gauge
import streamopt
import tracing
import workloads

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "read_vs_single": "ratio"}
PER_LAYER = {
    "instances.load_s": "s", "instances.entries_per_s": "1/s",
    "model.fold_s": "s", "model.dedupe_s": "s",
    "model.unique_row_frac": "ratio",
    "relax.evaluator_build_s": "s", "relax.lossgrad_s": "s",
    "relax.loss_s": "s", "relax.cells_per_s": "1/s",
    "optimize.descent_s": "s", "optimize.self_s": "s",
    "optimize.step_s": "s", "optimize.steps": "count",
    "optimize.restarts": "count", "optimize.restart_iters": "count",
    "optimize.capped_frac": "ratio", "optimize.restarts_failed": "count",
    "cost.modules_cost_s": "s", "cost.modules_cost_calls": "count",
    "cost.read_cost_s": "s", "cost.storage_cost_s": "s",
    "oracle.enumerate_s": "s", "oracle.n_evaluated": "count",
    "oracle.partitions_per_s": "1/s", "oracle.mc_s": "s",
    "oracle.exact_frac": "ratio", "oracle.gap_max": "ratio",
    "pipeline.residual_s": "s", "trace.overhead_s": "s",
    "trace.spans": "count",
}
# Set-up is repeated between operations, taking this share of the time spent
# on them, so that its samples see the same machine conditions as solve_s.
# Each set-up block is followed by as long a run of gauge units.
SETUP_SHARE = 0.15
# One set-up sample is a block of back-to-back set-ups of every instance,
# repeated until the block lasts this long, so that millisecond set-ups are
# not timed one by one.
SETUP_BLOCK_S = 0.05
MIN_SETUP_BLOCKS = 10
HARD_STOP_S = 150.0    # start no cycle after this; the run must end < 180 s
GENERATE_TIMEOUT_S = 120


def _generate(args, work: Path) -> dict:
    gen = Path(__file__).with_name("gen.py")
    cmd = [sys.executable, str(gen), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(work)]
    subprocess.run(cmd + (["--tiny"] if args.tiny else []), check=True,
                   timeout=GENERATE_TIMEOUT_S)
    return json.loads((work / "manifest.json").read_text())


def _set_up(path: Path) -> None:
    """The work before the first descent step, as ``optimize`` does it."""
    incidence, catalog = streamopt.load_instance(path)
    fold = streamopt.fold_modules(incidence, catalog)
    streamopt.LossEvaluator(fold, catalog.module_line_counts.astype(float))


def _reference(path: Path) -> workloads.Reference:
    """An instance loaded for the checks.  It is loaded after the operation
    and dropped before the next, so that the measuring process holds no
    copy of the instance while an operation runs."""
    incidence, catalog = streamopt.load_instance(path)
    return workloads.Reference(incidence, catalog,
                               streamopt.fold_modules(incidence, catalog))


def _median_time(fn, min_reps=3, min_seconds=0.3, max_reps=50) -> float:
    times = []
    while len(times) < min_reps or (sum(times) < min_seconds
                                    and len(times) < max_reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _relax_probe(w, ref: workloads.Reference, seed: int) -> dict:
    """One loss+gradient and one forward call at the workload's
    restarts x modules x streams, outside any pipeline span."""
    counts = ref.catalog.module_line_counts.astype(float)
    evaluator = streamopt.LossEvaluator(ref.fold, counts)
    shape = (w.restarts, ref.catalog.n_modules, w.n_streams)
    probs = streamopt.softmax_rows(
        np.random.default_rng(seed).normal(0.0, 0.1, shape))
    lossgrad = _median_time(lambda: evaluator.loss_and_gradient(probs))
    loss = _median_time(lambda: evaluator.loss(probs))
    rows = (len(ref.fold.row_groups()[0]) if ref.fold.is_dense
            else ref.fold.n_events)
    return {"relax.lossgrad_s": lossgrad, "relax.loss_s": loss,
            "relax.cells_per_s": rows * int(np.prod(shape)) / lossgrad}


def _layer_metrics(spans: list[list]) -> dict:
    """Per-layer figures of one traced operation."""
    self_s, incl_s, calls, counts = tracing.layer_totals(spans)
    steps = calls["relax.loss_and_gradient"]
    descent = incl_s["optimize.optimize"] - incl_s["relax.LossEvaluator"]
    load = self_s["instances.load_instance"]
    enumerate_s = self_s["oracle.enumerate_optimal"]
    restarts = counts["restarts"]
    return {
        "instances.load_s": load,
        "instances.entries_per_s": counts["entries"] / load if load else 0.0,
        "model.fold_s": self_s["model.fold_modules"],
        "model.dedupe_s": self_s["model.row_groups"],
        "relax.evaluator_build_s": self_s["relax.LossEvaluator"],
        "optimize.descent_s": descent,
        "optimize.self_s": self_s["optimize.optimize"],
        "optimize.step_s": descent / steps if steps else 0.0,
        "optimize.steps": steps,
        "optimize.restarts": restarts,
        "optimize.restart_iters": counts["iterations"],
        "optimize.capped_frac": counts["capped"] / restarts if restarts else 0.0,
        "optimize.restarts_failed": counts["failed"],
        "cost.modules_cost_s": self_s["cost.read_cost_from_modules"],
        "cost.modules_cost_calls": calls["cost.read_cost_from_modules"],
        "cost.read_cost_s": self_s["cost.read_cost"],
        "cost.storage_cost_s": self_s["cost.storage_cost"],
        "oracle.enumerate_s": enumerate_s,
        "oracle.n_evaluated": counts["partitions"],
        "oracle.partitions_per_s":
            counts["partitions"] / enumerate_s if enumerate_s else 0.0,
        "oracle.mc_s": self_s["oracle.mc_prescale_check"],
        "pipeline.residual_s": self_s["pipeline"],
        "trace.spans": len(spans),
    }


def _summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"mean": statistics.fmean(values),
            "median": statistics.median(values), "q1": quartiles[0],
            "q3": quartiles[2], "min": min(values), "max": max(values),
            "n": len(values), "samples": values}


def _mean_of_means(times: list[list[float]]) -> float:
    """Mean over the instances of each instance's mean operation time."""
    means = [statistics.fmean(t) for t in times if t]
    return statistics.fmean(means) if means else float("nan")


def _environment(thread_caps: dict) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": env.nproc(), "thread_caps": thread_caps}


class Run:
    """State of one run: instances, operations and their checks."""

    def __init__(self, args, w: workloads.Workload, work: Path, paths):
        self.args, self.w, self.work, self.paths = args, w, work, paths
        self.quality: list[dict | None] = [None] * len(paths)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        # Operation times per instance, keyed by whether they were traced.
        self.times = {traced: [[] for _ in paths] for traced in (False, True)}
        self.setup_times: list[float] = []  # mean time per set-up, per block
        self.gauge_times: list[float] = []  # one per gauge unit
        self.layers: list[dict] = []
        self.tracer = tracing.Tracer(
            f"{args.workload}-{args.seed}-{time.time_ns()}")

    def set_up_block(self) -> float:
        """Set up every instance in turn, in whole passes, until the block
        lasts ``SETUP_BLOCK_S``; records the mean time per set-up and
        returns the block's time."""
        count, start = 0, time.perf_counter()
        while (count % len(self.paths) or count == 0
               or time.perf_counter() - start < SETUP_BLOCK_S):
            _set_up(self.paths[count % len(self.paths)])
            count += 1
        elapsed = time.perf_counter() - start
        self.setup_times.append(elapsed / count)
        return elapsed

    def set_up(self, budget: float):
        """Set-up blocks for about ``budget`` seconds, each followed by
        gauge units for as long as the block took."""
        while budget > 0:
            elapsed = self.set_up_block()
            budget -= elapsed
            while elapsed > 0:
                self.gauge_times.append(gauge.unit())
                elapsed -= self.gauge_times[-1]

    def operate(self, i: int, traced: bool) -> float | None:
        """Run and check one operation on instance ``i``; its time, or None
        when it failed."""
        out_dir = self.work / f"out{i}"
        out_dir.mkdir(exist_ok=True)
        seed = self.args.seed * 1000 + i
        first_span = len(self.tracer.spans)
        self.attempted += 1
        try:
            if traced:
                with tracing.instrument(self.tracer):
                    start = time.perf_counter()
                    with self.tracer.span("pipeline"):
                        outcome = workloads.solve(self.w, self.paths[i],
                                                  out_dir, seed)
                    elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                outcome = workloads.solve(self.w, self.paths[i], out_dir, seed)
                elapsed = time.perf_counter() - start
            problems, quality = workloads.check(self.w, outcome,
                                                _reference(self.paths[i]))
        except Exception as exc:  # a failing operation is counted, not fatal
            problems, quality = [f"{type(exc).__name__}: {exc}"], None
        if quality is not None:
            if self.quality[i] is None:
                self.quality[i] = quality
            elif quality["signature"] != self.quality[i]["signature"]:
                problems.append("output differs from the first operation on "
                                "the same instance")
        if problems:
            self.failed += 1
            self.problems.extend(f"instance {i}: {p}" for p in problems)
            print(f"perfbench: instance {i} failed: {problems}",
                  file=sys.stderr)
            return None
        self.times[traced][i].append(elapsed)
        if traced:
            self.layers.append(_layer_metrics(self.tracer.spans[first_span:]))
        return elapsed

    def loop(self, seconds: float, process_start: float):
        """Closed loop over whole cycles (each instance once) until the time
        is up.  A traced run traces every other cycle and ends after an even
        number of cycles, so every instance runs traced and untraced alike.
        An untraced run repeats set-up after each operation."""
        start, cycles = time.perf_counter(), 0
        tracing_run = bool(self.args.trace)
        while True:
            traced = tracing_run and cycles % 2 == 0
            for i in range(len(self.paths)):
                elapsed = self.operate(i, traced)
                if elapsed is not None and not tracing_run:
                    self.set_up(SETUP_SHARE * elapsed)
            cycles += 1
            now = time.perf_counter()
            if now - process_start >= HARD_STOP_S:
                break
            if now - start >= seconds and not (tracing_run and cycles % 2):
                break


def _per_layer(state: Run, manifest: dict, probe: dict) -> dict:
    """Medians over the traced operations, plus the probes, the run-level
    quality and counters, and the tracing overhead (traced minus untraced
    solve_s).  A layer the workload never calls reads 0; so does
    ``model.unique_row_frac`` when no fold is dense, as only the dense path
    dedupes."""
    layers = {name: statistics.median(op[name] for op in state.layers)
              for name in (state.layers[0] if state.layers else ())}
    oracle = [q for q in state.quality if q is not None and "exact" in q]
    dense = [inst for inst in manifest["instances"] if inst["dense_fold"]]
    layers.update(probe)
    layers.update({
        "model.unique_row_frac": (sum(i["unique_rows"] for i in dense)
                                  / sum(i["events"] for i in dense)
                                  if dense else 0.0),
        "oracle.exact_frac": (statistics.fmean(q["exact"] for q in oracle)
                              if oracle else 0.0),
        "oracle.gap_max": max((q["gap"] for q in oracle), default=0.0),
        "trace.overhead_s": (_mean_of_means(state.times[True])
                             - _mean_of_means(state.times[False])),
    })
    return layers


def run(args, thread_caps: dict) -> int:
    process_start = time.perf_counter()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    w = workloads.workload(args.workload, args.tiny)
    run_dir = env.RUNS_DIR / (f"{args.workload}-seed{args.seed}-trace"
                              f"{args.trace}{'-tiny' if args.tiny else ''}")
    work = run_dir / "work"
    shutil.rmtree(run_dir, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        manifest = _generate(args, work)
        paths = [work / inst["file"] for inst in manifest["instances"]]
        state = Run(args, w, work, paths)
        state.loop(args.seconds, process_start)
        while not args.trace and len(state.setup_times) < MIN_SETUP_BLOCKS:
            state.set_up(SETUP_BLOCK_S)
        probe = (_relax_probe(w, _reference(paths[0]), args.seed)
                 if args.trace else {})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = [q for q in state.quality if q is not None]
    quality = {
        "read_vs_single": (statistics.fmean(q["read_vs_single"] for q in done)
                           if done else float("nan")),
        "per_instance": [None if q is None else
                         {k: v for k, v in q.items() if k != "signature"}
                         for q in state.quality],
    }
    # Wall seconds to seconds at the gauge's reference speed; an untraced
    # run always has gauge units, a traced one none.
    scale = (gauge.REF_S / statistics.fmean(state.gauge_times)
             if state.gauge_times else None)
    if args.trace:
        values = _per_layer(state, manifest, probe)
        units = PER_LAYER
    else:
        values = {
            "solve_s": scale * _mean_of_means(state.times[False]),
            "setup_s": scale * statistics.fmean(state.setup_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "read_vs_single": quality["read_vs_single"],
        }
        units = END_TO_END
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "environment": _environment(thread_caps),
        "load": "closed loop, one process, one operation at a time",
        "instances": manifest,
        "gauge": {"ref_s": gauge.REF_S, "scale": scale,
                  "unit_s": _summary(state.gauge_times)},
        "setup_wall_s": _summary(state.setup_times),
        "solve_wall_s": {"per_instance": [
            {"untraced": _summary(state.times[False][i]),
             "traced": _summary(state.times[True][i])}
            for i in range(len(paths))]},
        "quality": quality,
        "attempted": state.attempted, "failed": state.failed,
        "problems": state.problems[:50],
        "metrics": metrics,
        "per_operation_layers": state.layers,
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        state.tracer.write(run_dir / "spans.jsonl")

    print(f"{args.workload:10s} environment: "
          + ", ".join(f"{k} {v}" for k, v in report["environment"].items()
                      if k != "thread_caps")
          + f", threads capped at {thread_caps['OMP_NUM_THREADS']}")
    for name, metric in metrics.items():
        print(f"{args.workload:10s} {name:28s} {metric['value']:.6g} "
              f"{metric['unit']}")
    print(f"{args.workload:10s} operations: {state.attempted} attempted, "
          f"{state.failed} failed; report: {run_dir / 'report.json'}")
    print(json.dumps({"correct": state.failed == 0 and state.attempted > 0,
                      "attempted": state.attempted, "failed": state.failed,
                      "metrics": metrics}))
    return 0
