"""Command-line interface.

Subcommands: generate, optimize, evaluate, compare, sweep, calibrate.
Exit codes: 0 success, 1 usage error, 2 data error, 3 infeasible
configuration or out of memory.  Output files are written atomically (temp
file + rename), so a failing command never leaves partial output behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # a platform without getrusage, such as Windows
    resource = None

import numpy as np

from .calibrate import DEFAULT_T_INITIAL, corrected_read_cost, fit_linear
from .cost import (DEFAULT_BASE_KB, DEFAULT_SHARED_KB, SchemeScorer,
                   extreme_schemes, first_minimum, parse_objective)
from .errors import DataError, InfeasibleError, StreamOptError
from .instances import (SyntheticSpec, _planted_scheme, _write_text,
                        gen_synthetic, load_instance, load_measurements,
                        load_scheme, write_scheme)
from .model import Scheme, fold_modules
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


def _resource_usage(children: bool = False, since=(0.0, 0.0, None)):
    """User and sys CPU seconds, less those of ``since`` (an earlier
    reading), and peak resident set size in MB (2**20 bytes) of this
    process; with ``children``, also of its waited-for child processes (the
    largest child's peak is added).  None for each where the ``resource``
    module is missing."""
    if resource is None:
        return None, None, None
    usages = [resource.getrusage(resource.RUSAGE_SELF)]
    if children:
        usages.append(resource.getrusage(resource.RUSAGE_CHILDREN))
    # ru_maxrss is in bytes on macOS and in KiB on Linux and the BSDs.
    unit = 1 if sys.platform == "darwin" else 1024
    return (sum(u.ru_utime for u in usages) - since[0],
            sum(u.ru_stime for u in usages) - since[1],
            sum(u.ru_maxrss for u in usages) * unit / 2**20)


def _load_named_scheme(token: str, catalog) -> Scheme:
    """A scheme file path or one of the built-ins single-stream/per-module."""
    single, per_unit = extreme_schemes(catalog)
    if token == "single-stream":
        return single
    if token == "per-module":
        return per_unit
    return load_scheme(token, catalog)


def _set_up(args, storage: bool = True) -> tuple[SchemeScorer, dict]:
    """The scorer of the command's instance and sizes, and the seconds of
    its load, fold and row dedupe.  The incidence outlives the fold, in the
    scorer, only with ``storage``, which S needs."""
    start = time.perf_counter()
    incidence, catalog = load_instance(args.instance)
    loaded = time.perf_counter()
    scorer = SchemeScorer(incidence if storage else None, catalog,
                          fold=fold_modules(incidence, catalog),
                          base_kb=args.base_kb, shared_kb=args.shared_kb)
    del incidence
    folded = time.perf_counter()
    scorer.fold.row_groups()
    deduped = time.perf_counter()
    return scorer, {"load_s": loaded - start, "fold_s": folded - loaded,
                    "dedupe_s": deduped - folded}


def _run_diag(scorer, timings: dict, usage) -> dict:
    """A diag's ``timings``, with the CPU seconds of ``usage`` (a reading of
    :func:`_resource_usage`), its ``max_rss_mb`` and the ``kernel``'s size."""
    user_s, sys_s, max_rss_mb = usage
    groups = scorer.fold.row_groups()
    return {
        "timings": {**timings, "user_s": user_s, "sys_s": sys_s},
        "max_rss_mb": max_rss_mb,
        "kernel": {
            "events": scorer.fold.n_events,
            "unique_rows": len(groups.weights),
            "columns": groups.hits.shape[1],
            "nonzeros": groups.hits.nnz,
        },
    }


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

    descent = OptimizerConfig(n_streams=1)  # its defaults are the CLI's
    size = argparse.ArgumentParser(add_help=False)
    size_kb = _at_least(0.0, float)
    size.add_argument("--base-kb", type=size_kb, default=DEFAULT_BASE_KB,
                      help="per-pass payload of a turbo line in kB")
    size.add_argument("--shared-kb", type=size_kb, default=DEFAULT_SHARED_KB,
                      help="shared persist-reco payload per event in kB")

    # Each dest is a SyntheticSpec field, set only by a given option.
    p = sub.add_parser("generate", argument_default=argparse.SUPPRESS,
                       help="write a synthetic planted-cluster instance")
    p.add_argument("--events", dest="n_events", type=int)
    p.add_argument("--modules", dest="n_modules", type=int)
    p.add_argument("--lines-per-module", type=_int_range, metavar="LO:HI")
    p.add_argument("--clusters", dest="n_latent_clusters", type=int)
    p.add_argument("--intra", dest="intra_cluster_pass_rate", type=float,
                   help="pass rate on the line's own cluster")
    p.add_argument("--cross", dest="cross_cluster_pass_rate", type=float,
                   help="pass rate on other clusters")
    p.add_argument("--prescales", dest="prescale_options", type=_float_list,
                   metavar="P1,P2,...")
    p.add_argument("--persistreco-frac", dest="persist_reco_fraction",
                   type=float)
    p.add_argument("--turbo-frac", dest="turbo_fraction", type=float)
    p.add_argument("--seed", type=_at_least(0))
    p.add_argument("--out", required=True,
                   help="instance file path; the planted grouping goes to "
                        "<out>.planted.scheme")
    p.set_defaults(func=cmd_generate, companions=(".planted.scheme",))

    p = sub.add_parser("optimize", parents=[size],
                       help="optimize a scheme and write it with diagnostics")
    p.add_argument("--instance", required=True)
    p.add_argument("--streams", type=int, required=True)
    p.add_argument("--restarts", type=_at_least(1), default=descent.n_restarts)
    p.add_argument("--seed", type=_at_least(0), default=descent.seed)
    p.add_argument("--objective", type=_objective, default="T",
                   help="rank the restarts, which descend T, by T, S, or "
                        "weighted:<w>")
    p.add_argument("--out", required=True,
                   help="scheme file path; diagnostics go to <out>.diag.json")
    p.set_defaults(func=cmd_optimize, companions=(".diag.json",))

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
    p.add_argument("--restarts", type=_at_least(1), default=descent.n_restarts)
    p.add_argument("--seed", type=_at_least(0), default=descent.seed)
    p.add_argument("--baseline",
                   help="scheme used to normalize the T and S columns")
    p.add_argument("--out", help="write the table as CSV instead of stdout")
    p.set_defaults(func=cmd_sweep, companions=(".diag.json",))

    p = sub.add_parser("calibrate", parents=[size],
                       help="fit model terms against measurements")
    p.add_argument("--measurements", required=True)
    p.add_argument("--t-initial", type=_at_least(0.0, float),
                   default=DEFAULT_T_INITIAL,
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
    fields = {field.name for field in dataclasses.fields(SyntheticSpec)}
    try:
        spec = SyntheticSpec(**{key: value for key, value in vars(args).items()
                                if key in fields})
        instance = gen_synthetic(spec)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    instance.write(args.out)
    write_scheme(str(args.out) + args.companions[0], _planted_scheme(spec),
                 instance.catalog)
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
    _, s_weight = parse_objective(args.objective)
    usage_start = _resource_usage()
    scorer, timings = _set_up(args, storage=s_weight != 0)
    start = time.perf_counter()
    config = OptimizerConfig(n_streams=args.streams, n_restarts=args.restarts,
                             seed=args.seed)
    result = optimize(scorer.fold, scorer.catalog, config)
    timings["optimize_s"] = time.perf_counter() - start
    logger.debug("load %.3f s, fold %.3f s, dedupe %.3f s, optimize %.3f s",
                 *timings.values())

    best = result.best_scheme
    relaxed_loss = result.best_loss_relaxed
    best_read_cost = result.best_cost_discrete.total
    if s_weight:
        # Re-rank the restarts by the objective, ties to the lowest index.
        # The scorer checks S, so only the weight can overflow T + w * S.
        survivors = [r for r in result.per_restart if not r.failed]
        costs = scorer.values([r.scheme.assignment for r in survivors],
                              args.streams, args.objective)
        if not np.isfinite(costs).any():
            raise InfeasibleError(
                f"objective {args.objective} is not finite for any restart; "
                "use a smaller weight")
        chosen = survivors[first_minimum(costs)]
        best, relaxed_loss, best_read_cost = (
            chosen.scheme, chosen.relaxed_loss, chosen.discrete_cost)

    diag = {
        "instance": str(args.instance),
        "n_streams": args.streams,
        "objective": args.objective,
        "seed": result.seed,
        **_run_diag(scorer, timings, _resource_usage(since=usage_start)),
        "best": {
            "relaxed_loss": relaxed_loss,
            "read_cost": best_read_cost,
            "assignment": list(best.assignment),
            "empty_streams": list(best.empty_streams()),
        },
        "restarts": [_restart_diag(r) for r in result.per_restart],
    }
    write_scheme(args.out, best, scorer.catalog)
    _write_text(str(args.out) + args.companions[0],
                json.dumps(diag, indent=2) + "\n")
    print(f"wrote {args.out} (read cost {best_read_cost:.6g})")
    if best.empty_streams():
        print(f"note: streams {list(best.empty_streams())} ended up empty")
    return 0


def _baseline_breakdowns(scorer, token):
    """Breakdowns of a baseline scheme, which must cost more than zero."""
    baseline = _load_named_scheme(token, scorer.catalog)
    t, s = scorer.read_cost(baseline), scorer.storage_cost(baseline)
    if t.total == 0 or s.total == 0:
        raise DataError("baseline scheme has zero cost; cannot normalize")
    return t, s


def cmd_evaluate(args) -> int:
    usage_start = _resource_usage()
    scorer, timings = _set_up(args)
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
            **_run_diag(scorer, timings, _resource_usage(since=usage_start)),
        }
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_compare(args) -> int:
    scorer, _ = _set_up(args)
    candidate = _load_named_scheme(args.scheme, scorer.catalog)
    t_c, s_c = scorer.read_cost(candidate), scorer.storage_cost(candidate)
    t_b, s_b = _baseline_breakdowns(scorer, args.baseline)
    table = "metric,candidate,baseline,ratio\n" + "".join(
        f"{name},{cand:.6g},{base:.6g},{cand / base!r}\n"
        for name, cand, base in (("read_cost", t_c.total, t_b.total),
                                 ("storage_kb", s_c.total, s_b.total)))
    print(table, end="")
    if args.out:
        _write_text(args.out, table)
    return 0


def cmd_sweep(args) -> int:
    usage_start = _resource_usage(children=True)
    scorer, timings = _set_up(args)
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
        if point.result.descent_s is not None:
            logger.debug("%d streams: descent %.3f s", point.n_streams,
                         point.result.descent_s)
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
            **_run_diag(scorer, timings, _resource_usage(True, usage_start)),
            "points": [
                {
                    "n_streams": point.n_streams,
                    "descent_s": point.result.descent_s,
                    "restarts": [_restart_diag(r)
                                 for r in point.result.per_restart],
                }
                for point in points
            ],
        }
        _write_text(args.out, table)
        _write_text(str(args.out) + args.companions[0],
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
        if scheme_id in schemes:
            raise DataError(f"--scheme-file given twice for scheme "
                            f"'{scheme_id}'")
        schemes[scheme_id] = path

    report: dict = {"t_initial": args.t_initial}
    if schemes:
        if not args.instance:
            raise DataError("--scheme-file requires --instance to compute "
                            "model terms")
        scorer, _ = _set_up(args)
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
        # Checked first, so that a long run cannot end in an unwritable name:
        # --out and the command's companion files, such as <out>.diag.json.
        if args.out:
            out = str(args.out)
            if not Path(out).parent.is_dir():
                raise DataError(f"cannot write '{out}': no directory "
                                f"'{Path(out).parent}'")
            for suffix in ("", *getattr(args, "companions", ())):
                if Path(out + suffix).is_dir():
                    raise DataError(f"cannot write '{out}{suffix}': it is a "
                                    "directory")
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
