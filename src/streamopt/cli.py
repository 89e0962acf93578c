"""Command-line interface.

Subcommands: generate, optimize, evaluate, compare, sweep, calibrate.
Exit codes: 0 success, 1 usage error, 2 data error, 3 infeasible
configuration or out of memory.  Output files are written atomically (temp
file + rename), so a failing command never leaves partial output behind.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time

try:
    import resource
except ImportError:  # a platform without getrusage, such as Windows
    resource = None

import numpy as np

from .calibrate import corrected_read_cost, fit_linear
from .cost import (DEFAULT_BASE_KB, DEFAULT_SHARED_KB, SchemeScorer,
                   extreme_schemes, first_minimum, parse_objective)
from .errors import DataError, InfeasibleError, StreamOptError
from .instances import (SyntheticSpec, _write_text, gen_synthetic,
                        load_instance, load_measurements, load_scheme,
                        write_scheme)
from .model import Scheme
from .optimize import (OptimizerConfig, optimize, sweep_streams,
                       sweep_workers)

# Named, not __name__, so that `python -m streamopt.cli` logs as the package.
logger = logging.getLogger("streamopt.cli")

USAGE_EXIT = 1
DATA_EXIT = 2
INFEASIBLE_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _objective(value: str) -> str:
    try:
        parse_objective(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _stream_list(value: str) -> list[int]:
    try:
        counts = [int(tok) for tok in value.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad stream list '{value}' (use e.g. 1,2,4)") from None
    if not counts:
        raise argparse.ArgumentTypeError("empty stream list")
    return counts


def _int_range(value: str) -> tuple[int, int]:
    try:
        lo, _, hi = value.partition(":")
        return (int(lo), int(hi)) if hi else (int(lo), int(lo))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad range '{value}' (use LO:HI)") from None


def _at_least(low, kind=int):
    """argparse type: a finite ``kind`` number no smaller than ``low``."""
    def parse(value: str):
        try:
            number = kind(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: '{value}'") from None
        # False for NaN and the infinities too.
        if not low <= number < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be a finite number >= {low}, got {value}")
        return number
    return parse


def _float_list(value: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in value.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list '{value}'") from None


def _usages(children: bool = False):
    """Resource usage of this process, and with ``children`` of its
    waited-for child processes too; None where the ``resource`` module is
    missing."""
    if resource is None:
        return None
    usages = [resource.getrusage(resource.RUSAGE_SELF)]
    if children:
        usages.append(resource.getrusage(resource.RUSAGE_CHILDREN))
    return usages


def _cpu_seconds(children: bool = False):
    """User and sys CPU seconds used so far (see ``_usages``), or None."""
    usages = _usages(children)
    if usages is None:
        return None
    return (sum(u.ru_utime for u in usages), sum(u.ru_stime for u in usages))


def _max_rss_mb(children: bool = False):
    """Peak resident set size in MB (2**20 bytes) of this process, plus with
    ``children`` that of its largest waited-for child process, or None."""
    usages = _usages(children)
    if usages is None:
        return None
    # ru_maxrss is in bytes on macOS and in KiB on Linux and the BSDs.
    unit = 1 if sys.platform == "darwin" else 1024
    return sum(u.ru_maxrss for u in usages) * unit / 2**20


def _cpu_timings(start, children: bool = False) -> dict:
    """``user_s`` and ``sys_s`` since ``start`` (a ``_cpu_seconds`` value),
    both None where it is None."""
    if start is None:
        return {"user_s": None, "sys_s": None}
    end = _cpu_seconds(children)
    return {"user_s": end[0] - start[0], "sys_s": end[1] - start[1]}


def _load_named_scheme(token: str, catalog) -> Scheme:
    """A scheme file path or one of the built-ins single-stream/per-module."""
    single, per_unit = extreme_schemes(catalog)
    if token == "single-stream":
        return single
    if token == "per-module":
        return per_unit
    return load_scheme(token, catalog)


def build_parser() -> _Parser:
    parser = _Parser(prog="streamopt",
                     description="Assign selection-line modules to output "
                                 "streams to minimize analysis read cost.")
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument("-v", "--verbose", dest="log_level",
                           action="store_const", const=logging.DEBUG,
                           default=logging.INFO,
                           help="also log debug messages, such as timings")
    verbosity.add_argument("-q", "--quiet", dest="log_level",
                           action="store_const", const=logging.WARNING,
                           help="log only warnings and errors")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    size = argparse.ArgumentParser(add_help=False)
    size_kb = _at_least(0.0, float)
    size.add_argument("--base-kb", type=size_kb, default=DEFAULT_BASE_KB,
                      help="per-pass payload of a turbo line in kB")
    size.add_argument("--shared-kb", type=size_kb, default=DEFAULT_SHARED_KB,
                      help="shared persist-reco payload per event in kB")

    p = sub.add_parser("generate",
                       help="write a synthetic planted-cluster instance")
    p.add_argument("--events", type=int, default=1000)
    p.add_argument("--modules", type=int, default=10)
    p.add_argument("--lines-per-module", type=_int_range, default=(1, 4),
                   metavar="LO:HI")
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument("--intra", type=float, default=0.7,
                   help="pass rate on the line's own cluster")
    p.add_argument("--cross", type=float, default=0.02,
                   help="pass rate on other clusters")
    p.add_argument("--prescales", type=_float_list, default=(1.0,),
                   metavar="P1,P2,...")
    p.add_argument("--persistreco-frac", type=float, default=0.25)
    p.add_argument("--turbo-frac", type=float, default=1.0)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("optimize", parents=[size],
                       help="optimize a scheme and write it with diagnostics")
    p.add_argument("--instance", required=True)
    p.add_argument("--streams", type=int, required=True)
    p.add_argument("--restarts", type=_at_least(1), default=20)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--objective", type=_objective, default="T",
                   help="rank the restarts, which descend T, by T, S, or "
                        "weighted:<w>")
    p.add_argument("--out", required=True,
                   help="scheme file path; diagnostics go to <out>.diag.json")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("evaluate", parents=[size],
                       help="print read-cost and storage breakdowns")
    p.add_argument("--instance", required=True)
    p.add_argument("--scheme", required=True,
                   help="scheme file, or single-stream / per-module")
    p.add_argument("--out", help="also write the breakdowns as JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", parents=[size],
                       help="normalize a candidate scheme to a baseline")
    p.add_argument("--instance", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--out", help="also write the comparison as CSV")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", parents=[size],
                       help="optimize over several stream counts")
    p.add_argument("--instance", required=True)
    p.add_argument("--streams", type=_stream_list, required=True,
                   metavar="K1,K2,...")
    p.add_argument("--restarts", type=_at_least(1), default=20)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--baseline",
                   help="scheme used to normalize the T and S columns")
    p.add_argument("--out", help="write the table as CSV instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate", parents=[size],
                       help="fit model terms against measurements")
    p.add_argument("--measurements", required=True)
    p.add_argument("--t-initial", type=_at_least(0.0, float), default=9.0,
                   help="per-job startup time subtracted from measurements")
    p.add_argument("--pool-schemes", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="fit one regression over all schemes (default) or "
                        "one per scheme")
    p.add_argument("--instance",
                   help="instance used to compute model terms")
    p.add_argument("--scheme-file", action="append", default=[],
                   metavar="ID=PATH",
                   help="scheme file for a scheme_id in the measurements "
                        "(repeatable)")
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=cmd_calibrate)
    return parser


# -- commands ----------------------------------------------------------------


def cmd_generate(args) -> int:
    try:
        instance = gen_synthetic(SyntheticSpec(
            n_events=args.events,
            n_modules=args.modules,
            lines_per_module=args.lines_per_module,
            n_latent_clusters=args.clusters,
            intra_cluster_pass_rate=args.intra,
            cross_cluster_pass_rate=args.cross,
            prescale_options=args.prescales,
            persist_reco_fraction=args.persistreco_frac,
            turbo_fraction=args.turbo_frac,
            seed=args.seed,
        ))
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    instance.write(args.out)
    print(f"wrote {args.out}: {instance.incidence.n_events} events, "
          f"{instance.catalog.n_lines} lines, "
          f"{instance.catalog.n_modules} modules")
    return 0


def _restart_diag(r) -> dict:
    """A restart's record as written to ``diag.json``."""
    return {
        "index": r.index,
        "relaxed_loss": None if r.failed else r.relaxed_loss,
        "read_cost": None if r.failed else r.discrete_cost,
        "iterations": r.iterations,
        "stop_reason": r.stop_reason,
        "best_found_at": None if r.failed else r.best_found_at,
        "max_row_entropy": None if r.failed else r.max_row_entropy,
        "failed": r.failed,
    }


def cmd_optimize(args) -> int:
    if args.streams < 1:
        raise InfeasibleError("stream counts must be >= 1")
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    incidence, catalog = load_instance(args.instance)
    loaded = time.perf_counter()
    scorer = SchemeScorer(incidence, catalog, base_kb=args.base_kb,
                          shared_kb=args.shared_kb)
    folded = time.perf_counter()
    groups = scorer.fold.row_groups()
    deduped = time.perf_counter()
    config = OptimizerConfig(n_streams=args.streams, n_restarts=args.restarts,
                             seed=args.seed)
    result = optimize(scorer.fold, catalog, config)
    optimized = time.perf_counter()
    logger.debug("load %.3f s, fold %.3f s, dedupe %.3f s, optimize %.3f s",
                 loaded - start, folded - loaded, deduped - folded,
                 optimized - deduped)

    best = result.best_scheme
    relaxed_loss = result.best_loss_relaxed
    best_read_cost = result.best_cost_discrete.total
    if args.objective != "T":
        # Re-rank the recorded restarts by the requested objective; ties go
        # to the lowest restart index.
        survivors = [r for r in result.per_restart if not r.failed]
        costs = scorer.values([r.scheme.assignment for r in survivors],
                              args.streams, args.objective)
        if not np.isfinite(costs).any():
            raise InfeasibleError(
                f"objective {args.objective} is not finite for any restart; "
                f"use a smaller weight")
        chosen = survivors[first_minimum(costs)]
        best, relaxed_loss, best_read_cost = (
            chosen.scheme, chosen.relaxed_loss, chosen.discrete_cost)

    diag = {
        "instance": str(args.instance),
        "n_streams": args.streams,
        "objective": args.objective,
        "seed": result.seed,
        "timings": {
            "load_s": loaded - start,
            "fold_s": folded - loaded,
            "dedupe_s": deduped - folded,
            "optimize_s": optimized - deduped,
            **_cpu_timings(cpu_start),
        },
        "max_rss_mb": _max_rss_mb(),
        "kernel": {
            "events": scorer.fold.n_events,
            "unique_rows": len(groups.weights),
            "columns": groups.hits.shape[1],
            "nonzeros": groups.hits.nnz,
        },
        "best": {
            "relaxed_loss": relaxed_loss,
            "read_cost": best_read_cost,
            "assignment": list(best.assignment),
            "empty_streams": list(best.empty_streams()),
        },
        "restarts": [_restart_diag(r) for r in result.per_restart],
    }
    write_scheme(args.out, best, catalog)
    _write_text(str(args.out) + ".diag.json", json.dumps(diag, indent=2) + "\n")
    print(f"wrote {args.out} (read cost {best_read_cost:.6g})")
    if best.empty_streams():
        print(f"note: streams {list(best.empty_streams())} ended up empty")
    return 0


def _scorer(args) -> SchemeScorer:
    """The scorer of the command's instance and sizes."""
    return SchemeScorer(*load_instance(args.instance), base_kb=args.base_kb,
                        shared_kb=args.shared_kb)


def _baseline_breakdowns(scorer, token):
    """Breakdowns of a baseline scheme, which must cost more than zero."""
    baseline = _load_named_scheme(token, scorer.catalog)
    t, s = scorer.read_cost(baseline), scorer.storage_cost(baseline)
    if t.total == 0 or s.total == 0:
        raise DataError("baseline scheme has zero cost; cannot normalize")
    return t, s


def cmd_evaluate(args) -> int:
    scorer = _scorer(args)
    scheme = _load_named_scheme(args.scheme, scorer.catalog)
    t, s = scorer.read_cost(scheme), scorer.storage_cost(scheme)
    print("stream  units  lines  expected_events  read_contribution  storage_kb")
    for i, (row, size) in enumerate(zip(t.per_stream, s.per_stream)):
        print(f"{i:6d}  {row.n_units:5d}  {row.n_lines:5d}  "
              f"{row.expected_events:15.3f}  {row.contribution:17.3f}  "
              f"{size:10.3f}")
    print(f"read cost total: {t.total:.6g}")
    print(f"storage total (kB): {s.total:.6g}")
    if scheme.empty_streams():
        print(f"empty streams: {list(scheme.empty_streams())}")
    if args.out:
        payload = {
            "read_cost": {
                "total": t.total,
                "per_stream": [row.__dict__ for row in t.per_stream],
            },
            "storage_kb": {"total": s.total, "per_stream": list(s.per_stream)},
        }
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_compare(args) -> int:
    scorer = _scorer(args)
    candidate = _load_named_scheme(args.scheme, scorer.catalog)
    t_c, s_c = scorer.read_cost(candidate), scorer.storage_cost(candidate)
    t_b, s_b = _baseline_breakdowns(scorer, args.baseline)
    rows = [
        ("read_cost", t_c.total, t_b.total, t_c.total / t_b.total),
        ("storage_kb", s_c.total, s_b.total, s_c.total / s_b.total),
    ]
    print("metric,candidate,baseline,ratio")
    lines = []
    for name, cand, base, ratio in rows:
        line = f"{name},{cand:.6g},{base:.6g},{ratio!r}"
        print(line)
        lines.append(line)
    if args.out:
        _write_text(args.out,
                    "metric,candidate,baseline,ratio\n" + "\n".join(lines) + "\n")
    return 0


def cmd_sweep(args) -> int:
    cpu_start = _cpu_seconds(children=True)
    scorer = _scorer(args)
    header = "n_streams,read_cost,storage_kb"
    if args.baseline:
        # Checked before the sweep, so an unusable baseline fails fast.
        t_b, s_b = _baseline_breakdowns(scorer, args.baseline)
        header += ",read_vs_baseline,storage_vs_baseline"
    config = OptimizerConfig(n_streams=1, n_restarts=args.restarts,
                             seed=args.seed)
    points = sweep_streams(scorer, args.streams, config)
    rows = [header]
    for point in points:
        if point.descent_s is not None:
            logger.debug("%d streams: descent %.3f s", point.n_streams,
                         point.descent_s)
        t = point.result.best_cost_discrete.total
        s = point.storage.total
        row = f"{point.n_streams},{t:.6g},{s:.6g}"
        if args.baseline:
            row += f",{t / t_b.total:.6g},{s / s_b.total:.6g}"
        rows.append(row)
    table = "\n".join(rows) + "\n"
    if args.out:
        diag = {
            "instance": str(args.instance),
            "seed": args.seed,
            "workers": sweep_workers(args.streams, scorer.catalog.n_modules),
            "timings": _cpu_timings(cpu_start, children=True),
            "max_rss_mb": _max_rss_mb(children=True),
            "points": [
                {
                    "n_streams": point.n_streams,
                    "descent_s": point.descent_s,
                    "restarts": [_restart_diag(r)
                                 for r in point.result.per_restart],
                }
                for point in points
            ],
        }
        _write_text(args.out, table)
        _write_text(str(args.out) + ".diag.json",
                    json.dumps(diag, indent=2) + "\n")
        print(f"wrote {args.out}")
    else:
        print(table, end="")
    return 0


def cmd_calibrate(args) -> int:
    measurements = list(load_measurements(args.measurements))

    schemes = {}
    for token in args.scheme_file:
        scheme_id, _, path = token.partition("=")
        if not path:
            raise DataError(f"--scheme-file expects ID=PATH, got '{token}'")
        schemes[scheme_id] = path

    report: dict = {"t_initial": args.t_initial}
    fits_possible = bool(schemes)
    if fits_possible:
        if not args.instance:
            raise DataError("--scheme-file requires --instance to compute "
                            "model terms")
        scorer = _scorer(args)
        breakdowns = {}
        for sid, path in schemes.items():
            scheme = load_scheme(path, scorer.catalog)
            breakdowns[sid] = (scorer.read_cost(scheme),
                               scorer.storage_cost(scheme))
        enriched = []
        for rec in measurements:
            if rec.scheme_id not in breakdowns:
                raise DataError(
                    f"no --scheme-file given for scheme '{rec.scheme_id}'")
            t, s = breakdowns[rec.scheme_id]
            if not 0 <= rec.stream_id < len(t.per_stream):
                raise DataError(
                    f"measurement stream {rec.stream_id} out of range for "
                    f"scheme '{rec.scheme_id}'")
            enriched.append((rec, t.per_stream[rec.stream_id].contribution,
                             s.per_stream[rec.stream_id]))

        groups = {}
        if args.pool_schemes:
            groups["all"] = enriched
        else:
            for item in enriched:
                groups.setdefault(item[0].scheme_id, []).append(item)
        report["fits"] = {}
        for group_id, items in groups.items():
            time_fit = fit_linear([m for _, m, _ in items],
                                  [r.measured_time_s for r, _, _ in items])
            size_fit = fit_linear([m for _, _, m in items],
                                  [r.measured_size_kb for r, _, _ in items])
            report["fits"][group_id] = {
                "time": time_fit.__dict__,
                "size": size_fit.__dict__,
            }
            print(f"[{group_id}] time fit: slope={time_fit.slope:.6g} "
                  f"intercept={time_fit.intercept:.6g} "
                  f"r2={time_fit.r_squared:.6g} n={time_fit.n_points}")
            print(f"[{group_id}] size fit: slope={size_fit.slope:.6g} "
                  f"intercept={size_fit.intercept:.6g} "
                  f"r2={size_fit.r_squared:.6g} n={size_fit.n_points}")

    corrected = corrected_read_cost(measurements, args.t_initial)
    report["corrected_read_cost"] = corrected
    print(f"corrected read cost (t_initial={args.t_initial:g} s): "
          f"{corrected:.6g}")
    if args.out:
        _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    logging.basicConfig(format="%(message)s")
    logging.getLogger("streamopt").setLevel(args.log_level)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INFEASIBLE_EXIT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return INFEASIBLE_EXIT
    except StreamOptError as exc:  # DataError and any other package error
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
