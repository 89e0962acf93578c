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
batch when its loss turns non-finite, or when it has settled: every module
row's entropy is below ``SETTLED_ENTROPY`` nats, so each module sits almost
wholly on one stream.  The stop is taken after that step's rounding, and on
logged trajectories (the benchmark workloads and the oracle suite) no
restart changed its argmax or improved its best rounded scheme after that
point.  A restart that keeps a module split between streams (a 50/50 row
has entropy ln 2) runs to ``max_iters``.  Leaving the batch does not change
the other restarts' trajectories, so results are bit-reproducible for a
given seed and configuration.

The driver keeps two kinds of per-restart state.  The descent state (logits,
the AdaMax moments, the gradient, the previous argmax and each batch slice's
restart index) holds one slice per restart still in the batch, and only it is
compacted when restarts leave.  The restart table holds what each restart has
found, by restart index: its best rounded cost, the step that found it, its
assignment and, once it stops, its ``RestartRecord``.  Every record of a
descending restart, whether settled, capped or non-finite, is built by one
``stop`` call.

A sweep runs its stream counts' descents in worker processes, one task per
stream count.  The descents share no state and each seeds its own generator
from its config, so the points equal a serial sweep's bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cost import (CostBreakdown, SchemeScorer, StorageBreakdown,
                   extreme_schemes, first_minimum)
from .errors import InfeasibleError, StreamOptError
from .model import LineCatalog, ModuleIncidence, Scheme, _row_entropy
from .relax import one_hot, softmax_rows

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
    discarded).  ``best_found_at`` is the step that first rounded to the
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
    best_scheme: Scheme
    best_loss_relaxed: float
    best_cost_discrete: CostBreakdown
    per_restart: tuple[RestartRecord, ...]
    seed: int


@dataclass(frozen=True)
class SweepPoint:
    """One stream count's result.  ``descent_s`` is the wall time of its
    descent, or None for the K=1 and K=modules shortcuts; it is a
    measurement, not a result, so equality ignores it."""

    n_streams: int
    result: OptimizationResult
    storage: StorageBreakdown
    descent_s: float | None = field(default=None, compare=False)


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
    previous = np.full((n_restarts, n_modules), -1, dtype=np.int64)
    origin = np.arange(n_restarts)

    # The restart table, by restart index.
    best_cost = np.full(n_restarts, np.inf)
    best_step = np.zeros(n_restarts, dtype=np.int64)
    best_assignment: list[tuple[int, ...] | None] = [None] * n_restarts
    records: list[RestartRecord | None] = [None] * n_restarts

    def stop(k: int, loss, entropy, iterations: int, reason: str):
        """Record restart k's outcome; a non-finite run keeps no scheme."""
        if reason == "non_finite":
            cost, entropy, scheme = math.inf, math.nan, None
        else:
            cost = float(best_cost[k])
            scheme = Scheme(n_streams, best_assignment[k])
        records[k] = RestartRecord(k, float(loss), cost, iterations,
                                   float(entropy), scheme, reason,
                                   int(best_step[k]))

    # A restart can have settled only once every softmax row sum (1 / the
    # row's largest probability) is below this; the 0.01 margin covers
    # rounding.
    settle_sum = _settle_sum(SETTLED_ENTROPY + 0.01)
    beta1_power = 1.0
    for step in range(1, config.max_iters + 1):
        # softmax_rows in place, keeping the row sums for the settle check
        # below.  Its finiteness check is left out: a restart whose loss
        # turns non-finite leaves the batch.
        probs = logits - logits.max(axis=2, keepdims=True)
        np.exp(probs, out=probs)
        sums = probs.sum(axis=2, keepdims=True)
        probs /= sums
        loss, grad = evaluator.loss_and_gradient(probs)

        # Round the restarts whose argmax pattern moved, cost them in one
        # batched one-hot call and keep each restart's best; argmax breaks
        # ties toward the lowest stream.
        rounded = probs.argmax(axis=2)
        moved = (rounded != previous).any(axis=1).nonzero()[0]
        if moved.size:
            costs = evaluator.loss(one_hot(rounded[moved], n_streams))
            for j, k, cost in zip(moved.tolist(), origin[moved].tolist(),
                                  costs.tolist()):
                if cost < best_cost[k]:
                    best_cost[k] = cost
                    best_step[k] = step
                    best_assignment[k] = tuple(rounded[j].tolist())
        previous = rounded

        retire = failed = ~np.isfinite(loss)
        entropy = None
        if sums.max(axis=1).min() < settle_sum:
            entropy = _row_entropy(probs).max(axis=1)
            retire = failed | (entropy < SETTLED_ENTROPY)
        if retire.any():
            for j in retire.nonzero()[0]:
                if failed[j]:
                    stop(int(origin[j]), loss[j], math.nan, step, "non_finite")
                else:
                    stop(int(origin[j]), loss[j], entropy[j], step, "settled")
            keep = ~retire
            logits, moment, inf_norm = logits[keep], moment[keep], inf_norm[keep]
            grad, previous, origin = grad[keep], previous[keep], origin[keep]
            if origin.size == 0:
                break

        # AdaMax in place, in the same order of operations as
        # m = b1 m + (1 - b1) g; u = max(b2 u, |g|); x -= c m / (u + eps).
        beta1_power *= BETA1
        moment *= BETA1
        moment += (1.0 - BETA1) * grad
        inf_norm *= BETA2
        np.maximum(inf_norm, np.abs(grad, out=grad), out=inf_norm)
        step_term = (STEP_SIZE / (1.0 - beta1_power)) * moment
        step_term /= np.add(inf_norm, EPSILON, out=grad)
        logits -= step_term
    else:
        probs = softmax_rows(logits)
        loss = np.atleast_1d(evaluator.loss(probs))
        entropy = _row_entropy(probs).max(axis=1)
        for j, k in enumerate(origin.tolist()):
            stop(k, loss[j], entropy[j], config.max_iters,
                 "max_iters" if np.isfinite(loss[j]) else "non_finite")

    survivors = [r for r in records if not r.failed]
    if not survivors:
        raise StreamOptError("every restart diverged to a non-finite loss")
    best = survivors[first_minimum([r.discrete_cost for r in survivors])]
    breakdown = scorer.read_cost(best.scheme)
    return OptimizationResult(best.scheme, best.relaxed_loss, breakdown,
                              tuple(records), config.seed)


# The fold and catalog of the sweep a worker process serves, set once by the
# pool's initializer.  Under fork the worker inherits them without a copy.
_worker_instance: tuple[ModuleIncidence, LineCatalog] | None = None


def _adopt(module_incidence: ModuleIncidence, catalog: LineCatalog):
    global _worker_instance
    _worker_instance = (module_incidence, catalog)


def _timed_optimize(module_incidence, catalog, config):
    start = time.perf_counter()
    result = optimize(module_incidence, catalog, config)
    return result, time.perf_counter() - start


def _descend(config: OptimizerConfig):
    """Pool task: one stream count's descent on the adopted instance."""
    return _timed_optimize(*_worker_instance, config)


def _descents(stream_counts, n_modules: int) -> list[int]:
    """The distinct stream counts that need a descent, in first-seen order."""
    return list(dict.fromkeys(k for k in stream_counts
                              if _needs_descent(k, n_modules)))


def sweep_workers(stream_counts, n_modules: int) -> int:
    """Worker processes a sweep uses: one per descent, up to the CPUs this
    process may run on.  At 1 or 0 the sweep runs in-process."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return min(len(_descents(stream_counts, n_modules)), cpus)


def sweep_streams(scorer: SchemeScorer, stream_counts,
                  config: OptimizerConfig) -> list[SweepPoint]:
    """Optimize once per requested stream count and report T and S.

    The descents run in ``sweep_workers`` worker processes, which receive
    the scorer's fold and catalog once, through the pool's initializer;
    each task carries only its config.  Every count is checked before a
    worker starts.  The shortcuts, and the storage costs from the scorer,
    are computed here.  Points come in the requested order.
    """
    counts = [int(k) for k in stream_counts]
    if any(k < 1 for k in counts):
        raise InfeasibleError("stream counts must be >= 1")
    module_incidence, catalog = scorer.fold, scorer.catalog
    n_modules = module_incidence.n_modules
    for k in counts:
        _check_feasible(k, n_modules)
    descents = _descents(counts, n_modules)
    workers = sweep_workers(counts, n_modules)
    with contextlib.ExitStack() as stack:
        mapper = map
        task = functools.partial(_timed_optimize, module_incidence, catalog)
        if workers > 1:
            # Imported here, because it loads multiprocessing (about 0.25 MB
            # resident), which no other command needs.
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(
                workers, initializer=_adopt,
                initargs=(module_incidence, catalog)))
            mapper, task = pool.map, _descend
        timed = dict(zip(descents, mapper(
            task, [replace(config, n_streams=k) for k in descents])))

    points = []
    for k in counts:
        if k in timed:
            result, seconds = timed[k]
        else:
            result, seconds = optimize(module_incidence, catalog,
                                       replace(config, n_streams=k)), None
        points.append(SweepPoint(k, result,
                                 scorer.storage_cost(result.best_scheme),
                                 seconds))
    return points
