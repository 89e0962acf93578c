"""The benchmark's workloads: seeded instance specs, the timed user
operation, and the checks on its outputs.

Every instance comes from ``streamopt.gen_synthetic``; the program under test
only ever sees the instance files written from these specs.  The sizes are
set so that one run fits the benchmark's time budget with several timed
operations per run, and every module has two lines so that the catalog's
size does not change with the seed.  BENCHMARK.json says why each workload
is there.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import streamopt
import streamopt.cli

MC_SAMPLES = 4000
REL_TOL = 1e-9
# The sweep table prints costs with six significant digits.
CSV_REL_TOL = 5e-6
SWEEP_HEADER = "n_streams,read_cost,storage_kb"


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict                    # SyntheticSpec fields other than the seed
    streams: tuple[int, ...]      # the sweep's stream counts, or the one K
    restarts: int
    max_iters: int | None = None  # None keeps the optimizer's default budget
    n_instances: int = 1
    sweep: bool = False           # run `streamopt sweep` through the CLI
    oracle: bool = False          # add enumerate_optimal + mc_prescale_check

    def specs(self, seed: int) -> list:
        return [streamopt.SyntheticSpec(**self.spec, seed=seed * 1000 + i)
                for i in range(self.n_instances)]

    @property
    def n_streams(self) -> int:
        return self.streams[-1]


WORKLOADS = {w.name: w for w in (
    Workload(
        "planted",
        dict(n_events=10_000, n_modules=20, lines_per_module=(2, 2),
             n_latent_clusters=5,
             intra_cluster_pass_rate=0.8, cross_cluster_pass_rate=0.015),
        streams=(1, 3, 5), restarts=1, sweep=True),
    Workload(
        "prescaled",
        dict(n_events=20_000, n_modules=100, lines_per_module=(2, 2),
             n_latent_clusters=10,
             intra_cluster_pass_rate=0.06, cross_cluster_pass_rate=0.001,
             prescale_options=(1.0, 0.5)),
        streams=(8,), restarts=4, max_iters=1),
    Workload(
        "wide",
        dict(n_events=1500, n_modules=600, lines_per_module=(2, 2),
             n_latent_clusters=20,
             intra_cluster_pass_rate=0.01, cross_cluster_pass_rate=0.0002),
        streams=(8,), restarts=4, max_iters=2),
    Workload(
        "oracle",
        dict(n_events=250, n_modules=8, lines_per_module=(2, 2),
             n_latent_clusters=4, intra_cluster_pass_rate=0.4,
             cross_cluster_pass_rate=0.03, prescale_options=(1.0, 1.0, 0.5),
             persist_reco_fraction=0.3),
        streams=(4,), restarts=1, n_instances=4, oracle=True),
)}

# Smoke-test sizes: the same code paths (wide stays above the dense/sparse
# threshold) at a fraction of the cost.
TINY = {
    "planted": replace(WORKLOADS["planted"], streams=(1, 2), spec=dict(
        WORKLOADS["planted"].spec, n_events=400, n_modules=6,
        n_latent_clusters=3)),
    "prescaled": replace(WORKLOADS["prescaled"], streams=(3,), restarts=2,
                         spec=dict(WORKLOADS["prescaled"].spec, n_events=600,
                                   n_modules=12, n_latent_clusters=3,
                                   intra_cluster_pass_rate=0.3)),
    "wide": replace(WORKLOADS["wide"], streams=(3,), restarts=2, max_iters=1,
                    spec=dict(WORKLOADS["wide"].spec, n_events=300)),
    "oracle": replace(WORKLOADS["oracle"], streams=(2,), n_instances=1,
                      spec=dict(WORKLOADS["oracle"].spec, n_events=60,
                                n_modules=5)),
}


def workload(name: str, tiny: bool = False) -> Workload:
    return (TINY if tiny else WORKLOADS)[name]


@dataclass
class Reference:
    """An instance loaded once, outside any timed region, for the checks."""

    incidence: object
    catalog: object
    fold: object

    @property
    def single_stream_cost(self) -> float:
        single = streamopt.Scheme(1, (0,) * self.catalog.n_modules)
        return streamopt.read_cost(self.incidence, self.catalog, single).total


# -- the timed user operation -------------------------------------------------


def solve(w: Workload, instance: Path, out_dir: Path, seed: int) -> dict:
    """Instance file to written result, as a user would run it."""
    if w.sweep:
        return _solve_sweep(w, instance, out_dir, seed)
    return _solve_optimize(w, instance, out_dir, seed)


def _solve_sweep(w, instance, out_dir, seed):
    table = out_dir / "sweep.csv"
    argv = ["sweep", "--instance", str(instance),
            "--streams", ",".join(map(str, w.streams)),
            "--restarts", str(w.restarts), "--seed", str(seed),
            "--out", str(table)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = streamopt.cli.main(argv)
    return {"exit_code": code, "table": table}


def _solve_optimize(w, instance, out_dir, seed):
    """Mirrors ``streamopt optimize`` with the workload's descent budget
    (the CLI exposes none), plus the oracle steps on the oracle workload."""
    incidence, catalog = streamopt.load_instance(instance)
    fold = streamopt.fold_modules(incidence, catalog)
    budget = {} if w.max_iters is None else {"max_iters": w.max_iters}
    config = streamopt.OptimizerConfig(n_streams=w.n_streams,
                                       n_restarts=w.restarts, seed=seed,
                                       **budget)
    result = streamopt.optimize(fold, catalog, config)
    best = result.best_scheme
    scheme_path = out_dir / "best.scheme"
    streamopt.write_scheme(scheme_path, best, catalog)
    diag = {
        "instance": str(instance), "n_streams": w.n_streams, "seed": seed,
        "best": {"relaxed_loss": result.best_loss_relaxed,
                 "read_cost": result.best_cost_discrete.total,
                 "assignment": list(best.assignment),
                 "empty_streams": list(best.empty_streams())},
        "restarts": [{"index": r.index, "iterations": r.iterations,
                      "failed": r.failed,
                      "read_cost": None if r.failed else r.discrete_cost}
                     for r in result.per_restart],
    }
    Path(f"{scheme_path}.diag.json").write_text(json.dumps(diag) + "\n")
    outcome = {"result": result, "scheme_path": scheme_path,
               "read_cost": streamopt.read_cost(incidence, catalog, best).total}
    if w.oracle:
        outcome["oracle"] = streamopt.enumerate_optimal(incidence, catalog,
                                                        w.n_streams)
        outcome["mc"] = streamopt.mc_prescale_check(incidence, catalog, best,
                                                    MC_SAMPLES, seed)
        outcome["mc_seed"] = seed
    return outcome


# -- output checks (untimed) --------------------------------------------------


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def check(w: Workload, outcome: dict, ref: Reference) -> tuple[list[str], dict]:
    """Problems found in one operation's outputs, and its quality figures.

    ``quality`` carries ``signature`` (what must repeat exactly on the same
    instance), ``read_vs_single`` and, on the oracle workload, the oracle
    comparison.
    """
    if w.sweep:
        return _check_sweep(w, outcome, ref)
    return _check_optimize(w, outcome, ref)


def _check_sweep(w, outcome, ref):
    if outcome["exit_code"] != 0:
        return [f"sweep exited with {outcome['exit_code']}"], {}
    try:
        lines = outcome["table"].read_text().splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except (OSError, ValueError) as exc:
        return [f"sweep table does not parse: {exc}"], {}
    problems = []
    if not lines or lines[0] != SWEEP_HEADER:
        problems.append("sweep table has the wrong header")
    if [int(r[0]) for r in rows] != list(w.streams) or any(len(r) != 3
                                                           for r in rows):
        return problems + ["sweep table does not list the requested K"], {}
    costs = [r[1] for r in rows]
    if not all(math.isfinite(v) and v > 0 for r in rows for v in r[1:]):
        problems.append("sweep table holds a non-positive or non-finite cost")
    if any(b > a for a, b in zip(costs, costs[1:])):
        problems.append(f"sweep read cost rises with K: {costs}")
    single = ref.single_stream_cost
    if not _close(costs[0], single, CSV_REL_TOL):
        problems.append(f"K=1 read cost {costs[0]} != single stream {single}")
    quality = {"signature": lines, "read_cost": costs[-1],
               "read_vs_single": costs[-1] / single}
    return problems, quality


def _scheme_problems(w, outcome, ref) -> list[str]:
    """The written scheme re-parses, covers every module, is the reported
    best, and its line-level and folded read costs agree."""
    try:
        scheme = streamopt.load_scheme(outcome["scheme_path"], ref.catalog)
    except streamopt.DataError as exc:
        return [f"written scheme does not re-parse: {exc}"]
    problems = []
    best = outcome["result"].best_scheme
    if (scheme.n_units != ref.catalog.n_modules or scheme != best
            or scheme.n_streams != w.n_streams):
        problems.append("written scheme is not the reported best scheme")
    line_cost = streamopt.read_cost(ref.incidence, ref.catalog, scheme).total
    fold_cost = streamopt.read_cost_from_modules(ref.fold, ref.catalog,
                                                 scheme).total
    if not _close(line_cost, fold_cost, REL_TOL):
        problems.append(f"read_cost {line_cost!r} != "
                        f"read_cost_from_modules {fold_cost!r}")
    for name, value in (("reported", outcome["result"].best_cost_discrete.total),
                        ("printed", outcome["read_cost"])):
        if not _close(value, line_cost, REL_TOL):
            problems.append(f"{name} read cost {value!r} != {line_cost!r}")
    return problems


def _mc_agrees(mc, analytic_t, analytic_s) -> list[bool]:
    """3-sigma agreement of the Monte-Carlo T and S with the analytic ones."""
    return [abs(mc.read_mean - analytic_t)
            <= 3 * mc.read_se + REL_TOL * max(analytic_t, 1.0),
            abs(mc.storage_mean - analytic_s)
            <= 3 * mc.storage_se + REL_TOL * max(analytic_s, 1.0)]


def _check_optimize(w, outcome, ref):
    problems = _scheme_problems(w, outcome, ref)
    result = outcome["result"]
    cost = result.best_cost_discrete.total
    quality = {"signature": (result.best_scheme, cost), "read_cost": cost,
               "read_vs_single": cost / ref.single_stream_cost}
    if not w.oracle:
        return problems, quality
    optimum = outcome["oracle"].best_cost
    if cost < optimum * (1 - REL_TOL):
        problems.append(f"optimizer T {cost!r} below the oracle's {optimum!r}")
    quality.update(exact=cost <= optimum * (1 + REL_TOL),
                   gap=cost / optimum - 1.0,
                   n_evaluated=outcome["oracle"].n_evaluated)
    scheme = result.best_scheme
    analytic_s = streamopt.storage_cost(ref.incidence, ref.catalog,
                                        scheme).total
    agree = _mc_agrees(outcome["mc"], cost, analytic_s)
    if not all(agree):
        # A single 3-sigma test misfires 0.27% of the time; a real bias
        # also fails an independent second draw.
        redraw = streamopt.mc_prescale_check(ref.incidence, ref.catalog, scheme,
                                             MC_SAMPLES, outcome["mc_seed"] + 1)
        again = _mc_agrees(redraw, cost, analytic_s)
        for name, first, second in zip("TS", agree, again):
            if not (first or second):
                problems.append(f"Monte-Carlo {name} misses the analytic "
                                "value by more than 3 sigma twice")
    return problems, quality
