"""Spans around the calls into each streamopt layer, recorded from outside.

``instrument(tracer)`` temporarily rebinds the public entry points of each
module (in every streamopt module that imported them, so calls made inside
the package are seen too) to wrappers that record a span: name, start, end,
parent and counts.  Spans are kept in memory and written out when the run
ends.  A layer's self time is its span minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) pairs for functions; (module, class, method) for methods.
FUNCTIONS = (
    ("instances", "load_instance"),
    ("model", "fold_modules"),
    ("optimize", "optimize"),
    ("cost", "read_cost"),
    ("cost", "storage_cost"),
    ("cost", "read_cost_from_modules"),
    ("oracle", "enumerate_optimal"),
    ("oracle", "mc_prescale_check"),
)
METHODS = (
    ("model", "ModuleIncidence", "row_groups"),
    ("relax", "LossEvaluator", "__init__"),
    ("relax", "LossEvaluator", "loss_and_gradient"),
    ("relax", "LossEvaluator", "loss"),
)


class Tracer:
    """In-memory span store for one run; every span carries the run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, parent, name, start, end, counts]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, name, time.perf_counter(), None, {}]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record[5]
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def write(self, path):
        with open(path, "w") as out:
            for sid, parent, name, start, end, counts in self.spans:
                out.write(json.dumps({"run": self.run_id, "id": sid,
                                      "parent": parent, "name": name,
                                      "start": start, "end": end,
                                      "counts": counts}) + "\n")


def _counts(name: str, args, kwargs, result) -> dict:
    """Exact-repeat counters recorded at the boundary that produces them."""
    if name == "instances.load_instance":
        return {"entries": result[0].n_entries}
    if name == "oracle.enumerate_optimal":
        return {"partitions": result.n_evaluated}
    if name == "optimize.optimize":
        config = args[2] if len(args) > 2 else kwargs["config"]
        ran = [r for r in result.per_restart if r.iterations or r.failed]
        return {"restarts": len(ran),
                "iterations": sum(r.iterations for r in ran),
                "capped": sum(r.iterations == config.max_iters
                              and not r.failed for r in ran),
                "failed": sum(r.failed for r in ran)}
    return {}


def _module(name: str):
    # The package rebinds some submodule names (``streamopt.optimize``) to
    # functions, so look the modules up by their full name.
    return importlib.import_module(f"streamopt.{name}")


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as counts:
            result = fn(*args, **kwargs)
            counts.update(_counts(name, args, kwargs, result))
            return result
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind every layer entry point to a span-recording wrapper."""
    undo = []
    modules = [m for key, m in sys.modules.items()
               if key == "streamopt" or key.startswith("streamopt.")]
    for module_name, attr in FUNCTIONS:
        original = getattr(_module(module_name), attr)
        wrapper = _wrap(tracer, f"{module_name}.{attr}", original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)
    for module_name, cls_name, method in METHODS:
        cls = getattr(_module(module_name), cls_name)
        original = cls.__dict__[method]
        name = cls_name if method == "__init__" else method
        undo.append((cls, method, original))
        setattr(cls, method, _wrap(tracer, f"{module_name}.{name}", original))
    try:
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def layer_totals(spans: list[list]) -> tuple[dict, dict, Counter, Counter]:
    """Self time, inclusive time, call count and counts summed per span name."""
    child_time = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s, incl_s = defaultdict(float), defaultdict(float)
    calls, counts = Counter(), Counter()
    for sid, _, name, start, end, extra in spans:
        self_s[name] += end - start - child_time[sid]
        incl_s[name] += end - start
        calls[name] += 1
        counts.update(extra)
    return self_s, incl_s, calls, counts
