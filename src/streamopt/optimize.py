"""Gradient-descent driver: AdaMax on logits, multi-restart, rounding.

Each restart starts from independent Gaussian logits and follows AdaMax
(first-moment EMA, infinity-norm second moment, bias-corrected step) until
its assignment has settled, at most ``max_iters`` steps.  Restarts are
ranked by the *discrete* read cost of rounded schemes, because the surrogate
loss of a non-integral assignment is not the expected discrete cost.

The surrogate rewards spreading a module's probability over several streams
(both loss factors shrink), so on instances with more streams than natural
groups the descent can end at an interior point whose rounding is poor even
though it passed through the true optimum on the way.  Each restart therefore
rounds its assignment whenever the argmax pattern changes and keeps the best
discrete cost seen along its whole trajectory, not just at the stopping
point.

All restarts advance together as one batched tensor.  A restart leaves the
batch when its loss turns non-finite, when it has settled (every module
row's entropy is below ``SETTLED_ENTROPY`` nats, so each module sits almost
wholly on one stream) or at step ``max_iters``, all in one place after that
step's rounding; nothing is updated or evaluated after a restart's last
step.  On logged trajectories (the benchmark workloads and the oracle
suite) no settled restart changed its argmax or improved its best rounded
scheme after its stop step.  A restart that keeps a module split between
streams (a 50/50 row has entropy ln 2) runs to the cap.  Leaving the batch
does not change the other restarts' trajectories, so results are
bit-reproducible for a given seed and configuration.

The driver keeps two kinds of per-restart state.  The descent state (logits,
the AdaMax moments, the gradient, the previous argmax and each batch slice's
restart index) holds one slice per restart still in the batch, and only it is
compacted when restarts leave.  The restart table holds, in arrays by
restart index, each restart's best rounded cost, the step that found it and
its assignment; a restart's ``RestartRecord`` is built where it stops.
A step makes one ``LossEvaluator.loss_and_gradient`` call and works in place
in fixed buffers: the softmax, and AdaMax, whose temporaries go into a
scratch array compacted with the descent state.  The rounding runs only when
some argmax moved, and the stop checks only when a restart may stop.

A sweep maps ``optimize`` over its distinct configs, in worker processes
when more than one stream count needs a descent, one task per config.  The
descents share no state and each seeds its own generator from its config, so
the points equal a serial sweep's bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .cost import (CostBreakdown, SchemeScorer, StorageBreakdown,
                   extreme_schemes, first_minimum)
from .errors import InfeasibleError, StreamOptError
from .model import LineCatalog, ModuleIncidence, Scheme, _row_entropy
from .relax import one_hot

# AdaMax step size, moment decay rates and denominator guard, and the
# standard deviation of the initial logits.
STEP_SIZE = 0.002
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
INIT_SCALE = 0.1
# A restart stops once the largest entropy (nats) of its module rows falls
# below this.  0.6 stops too early: on the `planted` benchmark instance of
# seed 7 (spec seed 7000), K=5, 6 restarts, seed 7, restart 3 stops at step
# 2,156 with cost 154,824 at 0.6, but at 0.3 it finds 117,016 at step 2,961
# and settles at step 3,602.
SETTLED_ENTROPY = 0.3


@dataclass(frozen=True)
class OptimizerConfig:
    n_streams: int
    n_restarts: int = 20
    max_iters: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.n_streams < 1:
            raise ValueError("n_streams must be >= 1")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class RestartRecord:
    """Outcome of one restart.

    ``stop_reason`` is ``"settled"`` (every module row's entropy fell below
    ``SETTLED_ENTROPY``), ``"max_iters"`` or ``"non_finite"`` (the run is
    discarded); ``relaxed_loss`` and ``max_row_entropy`` are those of its
    last step.  ``best_found_at`` is the step that first rounded to the
    restart's best scheme.
    """

    index: int
    relaxed_loss: float
    discrete_cost: float
    iterations: int
    max_row_entropy: float
    scheme: Scheme | None
    stop_reason: str
    best_found_at: int

    @property
    def failed(self) -> bool:
        return self.stop_reason == "non_finite"


@dataclass(frozen=True)
class OptimizationResult:
    """The best scheme of a run and every restart's record.  ``descent_s``
    is the wall time of the ``optimize`` call, or None for the K=1 and
    K=modules shortcuts; it is a measurement, not a result, so equality
    ignores it."""

    best_scheme: Scheme
    best_loss_relaxed: float
    best_cost_discrete: CostBreakdown
    per_restart: tuple[RestartRecord, ...]
    seed: int
    descent_s: float | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SweepPoint:
    n_streams: int
    result: OptimizationResult
    storage: StorageBreakdown


def _settle_sum(entropy: float) -> float:
    """Bound on the softmax row sum of any row with entropy below ``entropy``.

    A row with entropy below ln 2 has a largest probability p > 1/2, since
    its entropy is at least -ln p.  For p >= 1/2 its entropy is at least the
    binary entropy h(p) = -p ln p - (1-p) ln(1-p), which falls as p grows.
    So the row has p above the root p* of h(p*) = ``entropy`` in [1/2, 1],
    and row sum 1/p below 1/p*.  The root is found by bisection, from below.
    """
    if entropy >= math.log(2.0):
        return math.inf
    low, high = 0.5, 1.0
    for _ in range(60):
        mid = (low + high) / 2
        if -mid * math.log(mid) - (1.0 - mid) * math.log1p(-mid) > entropy:
            low = mid
        else:
            high = mid
    return 1.0 / low


def _needs_descent(n_streams: int, n_modules: int) -> bool:
    return 1 < n_streams < n_modules


def _check_feasible(n_streams: int, n_modules: int):
    if n_streams > n_modules:
        raise InfeasibleError(
            f"n_streams={n_streams} exceeds the {n_modules} available modules"
        )


def optimize(module_incidence: ModuleIncidence, catalog: LineCatalog,
             config: OptimizerConfig) -> OptimizationResult:
    """Minimize the surrogate loss and return the best rounded scheme.

    Runs ``config.n_restarts`` independent AdaMax descents from random
    logits; each restart keeps the best rounded scheme it visits, and the
    restart with the smallest discrete read cost wins (ties go to the lowest
    restart index).  Restarts that produce a non-finite loss are discarded
    but reported.
    """
    start = time.perf_counter()
    scorer = SchemeScorer(None, catalog, fold=module_incidence)
    n_modules, n_streams = module_incidence.n_modules, config.n_streams
    _check_feasible(n_streams, n_modules)
    evaluator = scorer.evaluator
    if not _needs_descent(n_streams, n_modules):
        # Both boundary cases are settled without optimization: one stream is
        # the only scheme, and one stream per module is provably optimal
        # (every other scheme merges some of its streams, and merging never
        # lowers the read cost).
        single, per_unit = extreme_schemes(catalog)
        scheme = single if n_streams == 1 else per_unit
        breakdown = scorer.read_cost(scheme)
        record = RestartRecord(0, breakdown.total, breakdown.total, 0, 0.0,
                               scheme, "settled", 0)
        return OptimizationResult(scheme, breakdown.total, breakdown,
                                  (record,), config.seed)

    # The descent state, one slice per restart in the batch; origin[j] is
    # the restart index of slice j.
    rng = np.random.default_rng(config.seed)
    n_restarts = config.n_restarts
    logits = rng.normal(0.0, INIT_SCALE,
                        size=(n_restarts, n_modules, n_streams))
    moment = np.zeros_like(logits)
    inf_norm = np.zeros_like(logits)
    scratch = np.empty_like(logits)
    previous = np.full((n_restarts, n_modules), -1, dtype=np.int64)
    origin = np.arange(n_restarts)

    # The restart table, by restart index.
    best_cost = np.full(n_restarts, np.inf)
    best_step = np.zeros(n_restarts, dtype=np.int64)
    best_assignment = np.zeros((n_restarts, n_modules), dtype=np.int64)
    records: list[RestartRecord | None] = [None] * n_restarts

    # A restart can have settled only once every softmax row sum (1 / the
    # row's largest probability) is below this; the 0.01 margin covers
    # rounding.
    settle_sum = _settle_sum(SETTLED_ENTROPY + 0.01)
    beta1_power = 1.0
    for step in range(1, config.max_iters + 1):
        # softmax_rows in place, keeping the row sums for the settle check
        # below.  Its finiteness check is left out: a restart whose loss
        # turns non-finite leaves the batch.
        probs = logits - np.maximum.reduce(logits, axis=2, keepdims=True)
        np.exp(probs, out=probs)
        sums = np.add.reduce(probs, axis=2, keepdims=True)
        probs /= sums
        loss, grad = evaluator.loss_and_gradient(probs)

        # Round the restarts whose argmax pattern moved, cost them in one
        # batched one-hot call and keep each restart's best; argmax breaks
        # ties toward the lowest stream.
        rounded = probs.argmax(axis=2)
        if rounded.tobytes() != previous.tobytes():
            moved = np.logical_or.reduce(rounded != previous,
                                         axis=1).nonzero()[0]
            costs = evaluator.loss(one_hot(rounded[moved], n_streams))
            better = costs < best_cost[origin[moved]]
            j, k = moved[better], origin[moved[better]]
            best_cost[k], best_step[k] = costs[better], step
            best_assignment[k] = rounded[j]
        previous = rounded

        # Every restart stops here: when its loss is not finite, when it has
        # settled, or at the cap.  Nothing is checked unless this is the cap,
        # some restart's largest row sum is below the bound or the loss sum
        # is not finite; the least of those row sums and the loss sum are
        # taken over lists, which costs less than numpy reductions here.
        last = step == config.max_iters
        peaks = np.maximum.reduce(sums, axis=1).ravel().tolist()
        if (last or min(peaks) < settle_sum
                or not math.isfinite(sum(loss.tolist()))):
            failed = ~np.isfinite(loss)
            entropy = np.maximum.reduce(_row_entropy(probs), axis=1)
            settled = entropy < SETTLED_ENTROPY
            retire = failed | settled | last
            for j in retire.nonzero()[0].tolist():
                # A non-finite run keeps no scheme.
                k = int(origin[j])
                cost, row_entropy, scheme, reason = (
                    (math.inf, math.nan, None, "non_finite") if failed[j] else
                    (float(best_cost[k]), float(entropy[j]),
                     Scheme(n_streams, tuple(best_assignment[k].tolist())),
                     "settled" if settled[j] else "max_iters"))
                records[k] = RestartRecord(k, float(loss[j]), cost, step,
                                           row_entropy, scheme, reason,
                                           int(best_step[k]))
            if retire.all():
                break
            if np.logical_or.reduce(retire):
                keep = ~retire
                logits, moment, inf_norm, scratch, grad, previous, origin = (
                    a[keep] for a in (logits, moment, inf_norm, scratch, grad,
                                      previous, origin))

        # AdaMax in place, in the same order of operations as
        # m = b1 m + (1 - b1) g; u = max(b2 u, |g|); x -= c m / (u + eps),
        # with both temporaries in ``scratch``.
        beta1_power *= BETA1
        moment *= BETA1
        moment += np.multiply(1.0 - BETA1, grad, out=scratch)
        inf_norm *= BETA2
        np.maximum(inf_norm, np.abs(grad, out=grad), out=inf_norm)
        step_term = np.multiply(STEP_SIZE / (1.0 - beta1_power), moment,
                                out=scratch)
        step_term /= np.add(inf_norm, EPSILON, out=grad)
        logits -= step_term

    survivors = [r for r in records if not r.failed]
    if not survivors:
        raise StreamOptError("every restart diverged to a non-finite loss")
    best = survivors[first_minimum([r.discrete_cost for r in survivors])]
    breakdown = scorer.read_cost(best.scheme)
    return OptimizationResult(best.scheme, best.relaxed_loss, breakdown,
                              tuple(records), config.seed,
                              time.perf_counter() - start)


# The fold and catalog of the sweep a worker process serves, set once by the
# pool's initializer.  Under fork the worker inherits them without a copy.
_worker_instance: tuple[ModuleIncidence, LineCatalog] | None = None


def _adopt(module_incidence: ModuleIncidence, catalog: LineCatalog):
    global _worker_instance
    _worker_instance = (module_incidence, catalog)


def _descend(config: OptimizerConfig):
    """Pool task: ``optimize`` of one config on the adopted instance."""
    return optimize(*_worker_instance, config)


def sweep_workers(stream_counts, n_modules: int) -> int:
    """Worker processes a sweep uses: one per descent, up to the CPUs this
    process may run on.  At 1 or 0 the sweep runs in-process."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return min(len({k for k in stream_counts
                    if _needs_descent(k, n_modules)}), cpus)


def sweep_streams(scorer: SchemeScorer, configs) -> list[SweepPoint]:
    """Optimize once per distinct config and report T and S.

    ``configs`` holds one config per point, repeats allowed.  Each distinct
    config, shortcuts included, is one ``optimize`` task, handed out largest
    stream count first (ties as first seen) so that the longest descents
    start first.  With more than one descent the tasks run in
    ``sweep_workers`` worker processes, which receive the scorer's fold and
    catalog once, through the pool's initializer; each task carries only its
    config.  Every count, and that S is finite, is checked before any task
    runs.  The storage costs come from the scorer, here.  Points come in the
    order of ``configs``.
    """
    module_incidence, catalog = scorer.fold, scorer.catalog
    n_modules = module_incidence.n_modules
    for config in configs:
        _check_feasible(config.n_streams, n_modules)
    # Merging streams never raises S, so the single stream stores least:
    # if its S overflows, every point's does, and no descent need run.
    scorer.storage_cost(extreme_schemes(catalog)[0])
    distinct = sorted(dict.fromkeys(configs), key=lambda c: -c.n_streams)
    workers = sweep_workers([c.n_streams for c in distinct], n_modules)
    # Grouped before any worker starts, so that forked workers inherit the
    # fold's cached row groups; every task builds its own evaluator.
    module_incidence.row_groups()
    with contextlib.ExitStack() as stack:
        mapper = map
        task = functools.partial(optimize, module_incidence, catalog)
        if workers > 1:
            # Imported here, because it loads multiprocessing (about 0.25 MB
            # resident), which no other command needs.
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(
                workers, initializer=_adopt,
                initargs=(module_incidence, catalog)))
            mapper, task = pool.map, _descend
        results = dict(zip(distinct, mapper(task, distinct)))
    return [SweepPoint(c.n_streams, results[c],
                       scorer.storage_cost(results[c].best_scheme))
            for c in configs]
