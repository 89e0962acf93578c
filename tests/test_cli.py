import concurrent.futures
import dataclasses
import importlib
import json
import logging
import math
import multiprocessing
import os
import subprocess
import sys
import types
import warnings
import weakref

import numpy as np
import pytest

from streamopt import (InfeasibleError, InstanceFile, LineCatalog,
                       LineRecord, LossEvaluator, ModuleIncidence,
                       OptimizerConfig, Scheme, SyntheticSpec,
                       extreme_schemes, fold_modules, gen_synthetic,
                       load_instance, load_scheme, read_cost, storage_cost,
                       write_scheme)
import streamopt.cli
from streamopt.cli import main
from streamopt.optimize import SETTLED_ENTROPY

# The package binds the name ``optimize`` to the function.
optimize_module = importlib.import_module("streamopt.optimize")
MEASUREMENT_HEADER = ("scheme_id,stream_id,n_lines,measured_time_s,"
                      "measured_size_kb\n")


def stream_lines(catalog, scheme) -> list[int]:
    """Each stream's line count, which a measurement of the stream gives."""
    return np.bincount(scheme.assignment, catalog.module_line_counts,
                       scheme.n_streams).astype(int).tolist()


def two_cpus(monkeypatch):
    """Let a sweep use two worker processes, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def kernel_block(incidence, catalog) -> dict:
    """The ``kernel`` block that a command's JSON holds for an instance."""
    groups = fold_modules(incidence, catalog).row_groups()
    return {
        "events": incidence.n_events,
        "unique_rows": len(groups.weights),
        "columns": groups.hits.shape[1],
        "nonzeros": groups.hits.nnz,
    }


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "toy.inst"
    code = main(["generate", "--events", "250", "--modules", "6",
                 "--clusters", "3", "--intra", "0.6", "--cross", "0.02",
                 "--seed", "1", "--out", str(path)])
    assert code == 0
    return path


class TestGenerate:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.inst", tmp_path / "b.inst"
        args = ["generate", "--events", "100", "--modules", "4", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_loadable(self, instance_path):
        incidence, catalog = load_instance(instance_path)
        assert catalog.n_modules == 6

    def test_defaults_are_the_spec_defaults(self, tmp_path):
        out = tmp_path / "defaults.inst"
        assert main(["generate", "--out", str(out)]) == 0
        assert out.read_bytes() == \
            gen_synthetic(SyntheticSpec()).to_text().encode()

    @pytest.mark.parametrize("modules, clusters, planted", [
        (7, 3, (0, 0, 0, 1, 1, 2, 2)),  # blocks of modules, one per cluster
        (4, 9, (0, 1, 2, 3)),           # more clusters than modules
    ])
    def test_writes_the_planted_grouping(self, tmp_path, capsys, modules,
                                         clusters, planted):
        out = tmp_path / "p.inst"
        assert main(["generate", "--events", "200", "--modules", str(modules),
                     "--clusters", str(clusters), "--seed", "3",
                     "--out", str(out)]) == 0
        scheme = tmp_path / "p.inst.planted.scheme"
        _, catalog = load_instance(out)
        assert load_scheme(scheme, catalog) == \
            Scheme(max(planted) + 1, planted)
        capsys.readouterr()
        assert main(["sweep", "--instance", str(out), "--streams", "1",
                     "--restarts", "1", "--baseline", str(scheme)]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(
            ",read_vs_baseline,storage_vs_baseline")


class TestOptimizeCommand:
    def test_writes_scheme_and_diagnostics(self, instance_path, tmp_path):
        out = tmp_path / "best.scheme"
        code = main(["optimize", "--instance", str(instance_path),
                     "--streams", "3", "--restarts", "8", "--seed", "2",
                     "--out", str(out)])
        assert code == 0
        incidence, catalog = load_instance(instance_path)
        scheme = load_scheme(out, catalog)
        assert scheme.n_streams == 3
        diag = json.loads((tmp_path / "best.scheme.diag.json").read_text())
        assert diag["seed"] == 2
        assert set(diag["timings"]) == {"load_s", "fold_s", "dedupe_s",
                                        "optimize_s", "user_s", "sys_s"}
        assert all(isinstance(t, float) and t >= 0.0
                   for t in diag["timings"].values())
        assert diag["max_rss_mb"] > 0.0
        assert diag["kernel"] == kernel_block(incidence, catalog)
        assert diag["kernel"]["unique_rows"] <= incidence.n_events
        assert len(diag["restarts"]) == 8
        assert diag["best"]["read_cost"] == pytest.approx(
            read_cost(incidence, catalog, scheme).total)
        for r in diag["restarts"]:
            assert not r["failed"]
            assert r["stop_reason"] in ("settled", "max_iters")
            assert 1 <= r["best_found_at"] <= r["iterations"]
            if r["stop_reason"] == "settled":
                assert r["max_row_entropy"] < SETTLED_ENTROPY
            else:
                assert r["iterations"] == OptimizerConfig(3).max_iters

    def test_deterministic_under_seed(self, instance_path, tmp_path):
        outs = []
        for name in ("x.scheme", "y.scheme"):
            out = tmp_path / name
            main(["optimize", "--instance", str(instance_path), "--streams",
                  "2", "--restarts", "4", "--seed", "9", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_storage_objective_prefers_single_stream_shape(self, instance_path,
                                                           tmp_path):
        out = tmp_path / "s.scheme"
        code = main(["optimize", "--instance", str(instance_path),
                     "--streams", "2", "--restarts", "6", "--seed", "3",
                     "--objective", "S", "--out", str(out)])
        assert code == 0
        incidence, catalog = load_instance(instance_path)
        scheme = load_scheme(out, catalog)
        # With everything duplicated-averse, grouping all modules together
        # minimizes storage; the ranking must pick such a restart if seen.
        single, _ = extreme_schemes(catalog)
        assert storage_cost(incidence, catalog, scheme).total <= \
            storage_cost(incidence, catalog, single).total * 1.05

    @pytest.mark.parametrize("objective", ["S", "weighted:1"])
    def test_diagnostics_describe_the_written_scheme(self, tmp_path, objective):
        # Three latent clusters and four streams: both rankings pick a
        # different restart than the read-cost ranking does.
        inst = tmp_path / "p.inst"
        assert main(["generate", "--events", "200", "--modules", "6",
                     "--prescales", "1,0.5,0.2", "--clusters", "3",
                     "--cross", "0.1", "--seed", "1", "--out", str(inst)]) == 0
        out = tmp_path / "p.scheme"
        assert main(["optimize", "--instance", str(inst), "--streams", "4",
                     "--restarts", "6", "--seed", "1", "--objective",
                     objective, "--out", str(out)]) == 0
        assert main(["evaluate", "--instance", str(inst), "--scheme",
                     str(out), "--out", str(tmp_path / "eval.json")]) == 0
        evaluated = json.loads((tmp_path / "eval.json").read_text())
        diag = json.loads((tmp_path / "p.scheme.diag.json").read_text())
        best = diag["best"]
        assert best["read_cost"] == pytest.approx(
            evaluated["read_cost"]["total"], rel=1e-9)
        chosen = [r for r in diag["restarts"]
                  if r["read_cost"] == best["read_cost"]
                  and r["relaxed_loss"] == best["relaxed_loss"]]
        assert chosen
        assert best["read_cost"] > min(r["read_cost"]
                                       for r in diag["restarts"])

    @pytest.mark.parametrize("objective", ["T", "weighted:1"])
    def test_printed_cost_is_the_diagnostics_cost(self, instance_path,
                                                  tmp_path, capsys,
                                                  objective):
        # The kernel has scored the written scheme; no command scores at
        # line level (TestScoring).
        out = tmp_path / "c.scheme"
        assert main(["optimize", "--instance", str(instance_path),
                     "--streams", "3", "--restarts", "4", "--seed", "5",
                     "--objective", objective, "--out", str(out)]) == 0
        diag = json.loads((tmp_path / "c.scheme.diag.json").read_text())
        assert f"wrote {out} (read cost {diag['best']['read_cost']:.6g})" \
            in capsys.readouterr().out

    @pytest.mark.parametrize("objective, held", [
        ("T", False), ("weighted:0", False), ("S", True),
        ("weighted:1", True)])
    def test_only_storage_keeps_the_incidence_past_the_fold(
            self, instance_path, tmp_path, monkeypatch, objective, held):
        # T, and T + 0 * S, read the fold alone, so the line-level incidence
        # is gone before the row dedupe; S re-ranks with it after the
        # descent.
        loaded, alive = [], {}
        dedupe = ModuleIncidence.row_groups

        def load(path):
            incidence, catalog = load_instance(path)
            loaded.append(weakref.ref(incidence))
            return incidence, catalog

        def first_dedupe(self):
            alive.setdefault("dedupe", loaded[0]() is not None)
            return dedupe(self)

        def descend(*args):
            alive["descent"] = loaded[0]() is not None
            return optimize_module.optimize(*args)

        monkeypatch.setattr(streamopt.cli, "load_instance", load)
        monkeypatch.setattr(ModuleIncidence, "row_groups", first_dedupe)
        monkeypatch.setattr(streamopt.cli, "optimize", descend)
        assert main(["optimize", "--instance", str(instance_path),
                     "--streams", "3", "--restarts", "2", "--seed", "5",
                     "--objective", objective,
                     "--out", str(tmp_path / "c.scheme")]) == 0
        assert alive == {"dedupe": held, "descent": held}

    def test_cpu_timings_are_null_without_resource(self, instance_path,
                                                   tmp_path, monkeypatch):
        monkeypatch.setattr(streamopt.cli, "resource", None)
        out = tmp_path / "x.scheme"
        table = tmp_path / "sweep.csv"
        assert main(["optimize", "--instance", str(instance_path),
                     "--streams", "2", "--restarts", "2",
                     "--out", str(out)]) == 0
        assert main(["sweep", "--instance", str(instance_path),
                     "--streams", "1,2", "--restarts", "2",
                     "--out", str(table)]) == 0
        for written in (out, table):
            diag = json.loads((tmp_path / f"{written.name}.diag.json")
                              .read_text())
            assert diag["timings"]["user_s"] is None
            assert diag["timings"]["sys_s"] is None
            assert diag["max_rss_mb"] is None

    def test_infeasible_exit_code(self, instance_path, tmp_path):
        code = main(["optimize", "--instance", str(instance_path),
                     "--streams", "40", "--out", str(tmp_path / "x.scheme")])
        assert code == 3

    def test_weight_that_overflows_every_restart_is_infeasible(
            self, instance_path, tmp_path, capsys):
        out = tmp_path / "x.scheme"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["optimize", "--instance", str(instance_path),
                         "--streams", "2", "--restarts", "3",
                         "--objective", "weighted:1e308", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: objective weighted:1e308 is not finite for any scheme; "
            "use a smaller weight\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "toy.inst", "toy.inst.planted.scheme"]

    def test_weight_zero_is_the_read_cost_when_storage_overflows(
            self, instance_path, tmp_path, capsys):
        outs = [tmp_path / "t.scheme", tmp_path / "w0.scheme"]
        argv = ["optimize", "--instance", str(instance_path), "--streams",
                "2", "--restarts", "3", "--shared-kb", "1e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + ["--out", str(outs[0])]) == 0
            assert main(argv + ["--objective", "weighted:0",
                                "--out", str(outs[1])]) == 0
            assert main(argv + ["--objective", "S",
                                "--out", str(tmp_path / "s.scheme")]) == 3
        assert outs[0].read_text() == outs[1].read_text()
        assert capsys.readouterr().err == (
            "error: storage overflows to infinity; use smaller --base-kb and "
            "--shared-kb\n")
        assert not (tmp_path / "s.scheme").exists()

    def test_every_restart_diverging_is_a_data_error(
            self, instance_path, tmp_path, capsys, monkeypatch):
        kernel = LossEvaluator.loss_and_gradient

        def diverge(self, probs):
            loss, grad = kernel(self, probs)
            return np.full_like(loss, np.nan), grad

        monkeypatch.setattr(LossEvaluator, "loss_and_gradient", diverge)
        out = tmp_path / "x.scheme"
        assert main(["optimize", "--instance", str(instance_path),
                     "--streams", "2", "--restarts", "3",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: every restart diverged to a non-finite "
                       "loss\n")
        assert not out.exists()

    def test_no_partial_output_on_failure(self, instance_path, tmp_path):
        missing_dir = tmp_path / "does" / "not" / "exist" / "x.scheme"
        code = main(["optimize", "--instance", str(instance_path),
                     "--streams", "2", "--restarts", "2",
                     "--out", str(missing_dir)])
        assert code == 2
        assert not missing_dir.exists()

    @pytest.mark.parametrize("command, streams", [("optimize", "2"),
                                                  ("sweep", "1,2")])
    def test_missing_out_directory_fails_before_the_descent(
            self, instance_path, tmp_path, capsys, monkeypatch, command,
            streams):
        def descend(*args, **kwargs):
            raise AssertionError("descended before checking --out")
        monkeypatch.setattr(streamopt.cli, "optimize", descend)
        monkeypatch.setattr(streamopt.cli, "sweep_streams", descend)
        out = tmp_path / "missing" / "x"
        assert main([command, "--instance", str(instance_path), "--streams",
                     streams, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write '{out}': no directory '{out.parent}'\n")
        assert not out.parent.exists()

    @pytest.mark.parametrize("command, suffix", [
        ("optimize", ".diag.json"), ("sweep", ".diag.json"),
        ("generate", ".planted.scheme"), ("optimize", "")])
    def test_directory_in_the_way_fails_before_the_run(
            self, instance_path, tmp_path, capsys, monkeypatch, command,
            suffix):
        def run(*args, **kwargs):
            raise AssertionError("ran before checking --out")
        for name in ("optimize", "sweep_streams", "gen_synthetic"):
            monkeypatch.setattr(streamopt.cli, name, run)
        out = tmp_path / "out" / "x"
        blocked = tmp_path / "out" / ("x" + suffix)
        blocked.mkdir(parents=True)
        argv = {"optimize": ["--streams", "2"], "sweep": ["--streams", "1,2"],
                "generate": []}[command]
        if command != "generate":
            argv += ["--instance", str(instance_path)]
        assert main([command, *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write '{blocked}': it is a directory\n")
        assert list((tmp_path / "out").rglob("*")) == [blocked]

    def test_existing_tmp_file_left_untouched(self, instance_path, tmp_path):
        out = tmp_path / "x.scheme"
        stale = tmp_path / "x.scheme.tmp"
        stale.write_text("someone else's file\n")
        assert main(["optimize", "--instance", str(instance_path),
                     "--streams", "2", "--restarts", "2",
                     "--out", str(out)]) == 0
        assert stale.read_text() == "someone else's file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "toy.inst", "toy.inst.planted.scheme", "x.scheme",
            "x.scheme.diag.json", "x.scheme.tmp"]
        # The output gets the mode of a plain write, not the temp file's 0600.
        assert out.stat().st_mode & 0o777 == stale.stat().st_mode & 0o777


    def test_names_that_need_quotes_round_trip(self, instance_path,
                                               tmp_path):
        # Module names that a bare row would split, skip or strip.
        inst = InstanceFile.load(instance_path)
        names = dict(zip(inst.catalog.modules,
                         ["m,1", "#m2", " m3", "m4 ", 'm"5', "m6"]))
        catalog = LineCatalog(tuple(
            dataclasses.replace(rec, module=names[rec.module])
            for rec in inst.catalog.lines))
        path, out = tmp_path / "quoted.inst", tmp_path / "quoted.scheme"
        InstanceFile(catalog, inst.incidence, inst.event_ids).write(path)
        assert main(["optimize", "--instance", str(path), "--streams", "3",
                     "--restarts", "2", "--seed", "3", "--out", str(out)]) == 0
        diag = json.loads((tmp_path / "quoted.scheme.diag.json").read_text())
        assert load_scheme(out, catalog).assignment == \
            tuple(diag["best"]["assignment"])
        assert main(["evaluate", "--instance", str(path), "--scheme",
                     str(out), "--out", str(tmp_path / "eval.json")]) == 0
        evaluated = json.loads((tmp_path / "eval.json").read_text())
        assert evaluated["read_cost"]["total"] == pytest.approx(
            diag["best"]["read_cost"], rel=1e-9)


class TestEvaluateCommand:
    def test_totals_match_library(self, instance_path, capsys):
        incidence, catalog = load_instance(instance_path)
        single, _ = extreme_schemes(catalog)
        assert main(["evaluate", "--instance", str(instance_path),
                     "--scheme", "single-stream"]) == 0
        out = capsys.readouterr().out
        want = read_cost(incidence, catalog, single).total
        assert f"read cost total: {want:.6g}" in out

    def test_builtin_extremes(self, instance_path, capsys):
        assert main(["evaluate", "--instance", str(instance_path),
                     "--scheme", "per-module"]) == 0
        out = capsys.readouterr().out
        incidence, catalog = load_instance(instance_path)
        _, per_unit = extreme_schemes(catalog)
        assert f"read cost total: {read_cost(incidence, catalog, per_unit).total:.6g}" in out

    def test_json_out(self, instance_path, tmp_path):
        out = tmp_path / "eval.json"
        main(["evaluate", "--instance", str(instance_path),
              "--scheme", "single-stream", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["read_cost"]["total"] > 0
        # Set-up is timed and sized as optimize's and sweep's diags are.
        assert set(payload["timings"]) == {"load_s", "fold_s", "dedupe_s",
                                           "user_s", "sys_s"}
        assert all(isinstance(t, float) and t >= 0.0
                   for t in payload["timings"].values())
        assert payload["max_rss_mb"] > 0.0
        assert payload["kernel"] == kernel_block(*load_instance(instance_path))

    def test_missing_instance_is_data_error(self, tmp_path, capsys):
        code = main(["evaluate", "--instance", str(tmp_path / "nope"),
                     "--scheme", "single-stream"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["instance", "scheme", "measurements"])
    def test_undecodable_file_is_data_error(self, instance_path, tmp_path,
                                            capsys, flag):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"\xff")
        argv = {
            "instance": ["evaluate", "--instance", str(bad),
                         "--scheme", "single-stream"],
            "scheme": ["evaluate", "--instance", str(instance_path),
                       "--scheme", str(bad)],
            "measurements": ["calibrate", "--measurements", str(bad)],
        }[flag]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")
        assert "Traceback" not in err

    def test_empty_stream_has_positive_zero(self, instance_path, tmp_path,
                                            capsys):
        _, catalog = load_instance(instance_path)
        scheme = tmp_path / "gap.scheme"
        write_scheme(scheme, Scheme(3, tuple(m % 2 for m in
                                             range(catalog.n_modules))),
                     catalog)
        out = tmp_path / "eval.json"
        assert main(["evaluate", "--instance", str(instance_path),
                     "--scheme", str(scheme), "--out", str(out)]) == 0
        assert "-0.000" not in capsys.readouterr().out
        empty = json.loads(out.read_text())["read_cost"]["per_stream"][2]
        assert math.copysign(1.0, empty["expected_events"]) == 1.0
        assert math.copysign(1.0, empty["contribution"]) == 1.0


class TestCompareCommand:
    def test_self_comparison_is_exactly_one(self, instance_path, capsys):
        assert main(["compare", "--instance", str(instance_path),
                     "--scheme", "per-module", "--baseline", "per-module"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines()[1:]:
            assert line.rsplit(",", 1)[1] == "1.0"

    def test_extremes_ordering(self, instance_path, capsys):
        assert main(["compare", "--instance", str(instance_path),
                     "--scheme", "per-module", "--baseline",
                     "single-stream"]) == 0
        lines = capsys.readouterr().out.splitlines()
        read_ratio = float(lines[1].split(",")[-1])
        storage_ratio = float(lines[2].split(",")[-1])
        assert read_ratio < 1.0
        assert storage_ratio >= 1.0


class TestSweepCommand:
    def test_endpoints_match_extremes(self, instance_path, tmp_path):
        incidence, catalog = load_instance(instance_path)
        single, per_unit = extreme_schemes(catalog)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--instance", str(instance_path), "--streams",
                     "1,6", "--restarts", "20", "--seed", "4",
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "n_streams,read_cost,storage_kb"
        first = rows[1].split(",")
        last = rows[2].split(",")
        assert float(first[1]) == pytest.approx(
            read_cost(incidence, catalog, single).total, rel=1e-6)
        assert float(last[1]) == pytest.approx(
            read_cost(incidence, catalog, per_unit).total, rel=1e-6)

    def test_baseline_normalization(self, instance_path, capsys):
        code = main(["sweep", "--instance", str(instance_path), "--streams",
                     "1", "--restarts", "2", "--seed", "1",
                     "--baseline", "single-stream"])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].endswith("read_vs_baseline,storage_vs_baseline")
        values = rows[1].split(",")
        assert float(values[3]) == pytest.approx(1.0, rel=1e-9)
        assert float(values[4]) == pytest.approx(1.0, rel=1e-9)


    def test_writes_diagnostics(self, instance_path, tmp_path, monkeypatch):
        two_cpus(monkeypatch)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--instance", str(instance_path), "--streams",
                     "1,2,3", "--restarts", "3", "--seed", "5",
                     "--out", str(out)]) == 0
        diag = json.loads((tmp_path / "sweep.csv.diag.json").read_text())
        assert diag["seed"] == 5
        assert diag["workers"] == 2
        # Set-up's seconds, and the CPU seconds of this process and of its
        # two finished workers.
        assert list(diag["timings"]) == ["load_s", "fold_s", "dedupe_s",
                                         "user_s", "sys_s"]
        assert all(isinstance(t, float) and t >= 0.0
                   for t in diag["timings"].values())
        assert diag["max_rss_mb"] > 0.0
        assert [p["n_streams"] for p in diag["points"]] == [1, 2, 3]
        shortcut = diag["points"][0]
        assert shortcut["descent_s"] is None
        assert [(r["stop_reason"], r["iterations"])
                for r in shortcut["restarts"]] == [("settled", 0)]
        # Each descent's restarts read as those of `optimize` at that K.
        for point in diag["points"][1:]:
            assert point["descent_s"] > 0.0
            scheme = tmp_path / f"k{point['n_streams']}.scheme"
            assert main(["optimize", "--instance", str(instance_path),
                         "--streams", str(point["n_streams"]),
                         "--restarts", "3", "--seed", "5",
                         "--out", str(scheme)]) == 0
            optimized = json.loads(
                (tmp_path / (scheme.name + ".diag.json")).read_text())
            assert point["restarts"] == optimized["restarts"]
            assert diag["kernel"] == optimized["kernel"]

    def test_no_process_left_running(self, instance_path, tmp_path,
                                     monkeypatch, capsys):
        two_cpus(monkeypatch)
        assert main(["sweep", "--instance", str(instance_path), "--streams",
                     "2,3", "--restarts", "2"]) == 0
        assert multiprocessing.active_children() == []

        def no_pool(*args, **kwargs):
            raise AssertionError("an infeasible sweep started a worker")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        out = tmp_path / "bad.csv"
        assert main(["sweep", "--instance", str(instance_path), "--streams",
                     "2,99", "--restarts", "2", "--out", str(out)]) == 3
        assert "n_streams=99" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "bad.csv.diag.json").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="a patch reaches the workers only by fork")
    def test_worker_error_keeps_its_class(self, instance_path, monkeypatch,
                                          capsys):
        two_cpus(monkeypatch)
        parent, original = os.getpid(), optimize_module.optimize

        def refuse_in_worker(module_incidence, catalog, config):
            if os.getpid() != parent:
                raise InfeasibleError(f"worker refused {config.n_streams}")
            return original(module_incidence, catalog, config)

        monkeypatch.setattr(optimize_module, "optimize", refuse_in_worker)
        assert main(["sweep", "--instance", str(instance_path), "--streams",
                     "1,2,3", "--restarts", "2"]) == 3
        assert "worker refused 3" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_rejects_bad_counts_before_set_up(self, tmp_path, capsys,
                                              monkeypatch):
        def load(*args, **kwargs):
            raise AssertionError("loaded the instance")

        monkeypatch.setattr(streamopt.cli, "load_instance", load)
        missing = str(tmp_path / "missing.inst")
        out = tmp_path / "x.csv"
        for argv in (["sweep", "--streams", "0,3"],
                     ["sweep", "--streams", "0,3", "--out", str(out)],
                     ["optimize", "--streams", "0", "--out", str(out)]):
            assert main(argv + ["--instance", missing]) == 3
            assert capsys.readouterr().err == (
                "error: stream counts must be >= 1\n")
        assert list(tmp_path.iterdir()) == []

    def test_zero_storage_baseline_is_data_error(self, tmp_path, capsys):
        inst = tmp_path / "bare.inst"
        assert main(["generate", "--events", "100", "--modules", "4",
                     "--turbo-frac", "0", "--persistreco-frac", "0",
                     "--seed", "2", "--out", str(inst)]) == 0
        code = main(["sweep", "--instance", str(inst), "--streams", "1,2",
                     "--restarts", "2", "--baseline", "single-stream"])
        assert code == 2
        assert "zero cost" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_worked_example(self, tmp_path, capsys):
        meas = tmp_path / "m.csv"
        meas.write_text(
            "scheme_id,stream_id,n_lines,measured_time_s,measured_size_kb\n"
            "base,0,2,19.0,100\nbase,1,1,14.0,50\n")
        assert main(["calibrate", "--measurements", str(meas)]) == 0
        assert "corrected read cost (t_initial=9 s): 25" in \
            capsys.readouterr().out

    def test_fit_against_model_terms(self, instance_path, tmp_path, capsys):
        incidence, catalog = load_instance(instance_path)
        scheme = Scheme(2, tuple(i % 2 for i in range(catalog.n_modules)))
        scheme_path = tmp_path / "two.scheme"
        write_scheme(scheme_path, scheme, catalog)
        t = read_cost(incidence, catalog, scheme)
        s = storage_cost(incidence, catalog, scheme)
        rows = ["scheme_id,stream_id,n_lines,measured_time_s,measured_size_kb"]
        for i, row in enumerate(t.per_stream):
            time_s = 9.0 + 0.001 * row.contribution
            size_kb = 2.0 * s.per_stream[i]
            rows.append(f"two,{i},{row.n_lines},{time_s!r},{size_kb!r}")
        meas = tmp_path / "m.csv"
        meas.write_text("\n".join(rows) + "\n")
        out = tmp_path / "report.json"
        code = main(["calibrate", "--measurements", str(meas),
                     "--instance", str(instance_path),
                     "--scheme-file", f"two={scheme_path}",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        fits = report["fits"]["all"]
        assert fits["time"]["slope"] == pytest.approx(0.001, rel=1e-6)
        assert fits["time"]["r_squared"] == pytest.approx(1.0, abs=1e-9)
        assert fits["size"]["slope"] == pytest.approx(2.0, rel=1e-6)

    def test_per_scheme_fits(self, instance_path, tmp_path, capsys):
        incidence, catalog = load_instance(instance_path)
        paths = {}
        rows = ["scheme_id,stream_id,n_lines,measured_time_s,measured_size_kb"]
        for sid, k in (("a", 2), ("b", 3)):
            scheme = Scheme(k, tuple(i % k for i in range(catalog.n_modules)))
            paths[sid] = tmp_path / f"{sid}.scheme"
            write_scheme(paths[sid], scheme, catalog)
            t = read_cost(incidence, catalog, scheme)
            for i, row in enumerate(t.per_stream):
                rows.append(f"{sid},{i},{row.n_lines},"
                            f"{9.0 + 0.01 * row.contribution!r},1.0")
        meas = tmp_path / "m.csv"
        meas.write_text("\n".join(rows) + "\n")
        code = main(["calibrate", "--measurements", str(meas),
                     "--instance", str(instance_path), "--no-pool-schemes",
                     "--scheme-file", f"a={paths['a']}",
                     "--scheme-file", f"b={paths['b']}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[a] time fit" in out and "[b] time fit" in out

    @pytest.mark.parametrize("pool, message", [
        ("--no-pool-schemes", "scheme 'B' has 1 measurement; a fit needs at "
                              "least 2"),
        ("--pool-schemes", "the pooled group has 1 measurement; a fit needs "
                           "at least 2")])
    def test_group_too_small_to_fit_is_named(self, instance_path, tmp_path,
                                             capsys, pool, message):
        _, catalog = load_instance(instance_path)
        scheme, two = tmp_path / "two.scheme", Scheme(
            2, (0, 1) * (catalog.n_modules // 2))
        write_scheme(scheme, two, catalog)
        n0, n1 = stream_lines(catalog, two)
        rows = (f"A,0,{n0},19.0,120.5\nA,1,{n1},14.0,60.25\n"
                if pool == "--no-pool-schemes" else "")
        rows += f"B,0,{n0},12.0,50.0\n"
        meas = tmp_path / "m.csv"
        meas.write_text(MEASUREMENT_HEADER + rows)
        out = tmp_path / "report.json"
        assert main(["calibrate", "--measurements", str(meas), pool,
                     "--instance", str(instance_path),
                     "--scheme-file", f"A={scheme}",
                     "--scheme-file", f"B={scheme}", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "fit" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("case, message", [
        ("no id", "--scheme-file expects ID=PATH, got 'run1'"),
        ("no instance", "--scheme-file requires --instance to compute "
                        "model terms"),
        ("no scheme file", "no --scheme-file given for scheme 'other'"),
        ("stream out of range", "measurement stream 2 out of range for "
                                "scheme 'run1'"),
        ("repeated id", "--scheme-file given twice for scheme 'run1'"),
        ("lines differ", "measurement for scheme 'run1' stream 1 says 99 "
                         "lines; the scheme's stream has 9"),
    ])
    def test_scheme_file_errors(self, instance_path, tmp_path, capsys, case,
                                message):
        _, catalog = load_instance(instance_path)
        scheme, two = tmp_path / "two.scheme", Scheme(
            2, (0, 1) * (catalog.n_modules // 2))
        write_scheme(scheme, two, catalog)
        n0, n1 = stream_lines(catalog, two)
        row = {"no scheme file": "other,0", "stream out of range": "run1,2"
               }.get(case, "run1,1")
        meas = tmp_path / "m.csv"
        meas.write_text(
            "scheme_id,stream_id,n_lines,measured_time_s,measured_size_kb\n"
            f"run1,0,{n0},19.0,120.5\n"
            f"{row},{99 if case == 'lines differ' else n1},14.0,60.25\n")
        argv = ["calibrate", "--measurements", str(meas),
                "--scheme-file", "run1" if case == "no id" else
                f"run1={scheme}"]
        if case != "no instance":
            argv += ["--instance", str(instance_path)]
        if case == "repeated id":
            other = tmp_path / "other.scheme"
            other.write_text(scheme.read_text())
            argv += ["--scheme-file", f"run1={other}"]
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_time_below_startup_is_data_error(self, tmp_path, capsys):
        meas = tmp_path / "m.csv"
        meas.write_text(
            "scheme_id,stream_id,n_lines,measured_time_s,measured_size_kb\n"
            "base,0,2,5.0,100\n")
        assert main(["calibrate", "--measurements", str(meas)]) == 2
        assert "t_initial" in capsys.readouterr().err


class TestScoring:
    def test_no_command_scores_at_line_level(self, instance_path, tmp_path,
                                             monkeypatch):
        # Every command scores T and S through the fold; the line-level
        # read_cost and storage_cost are the tests' reference only.
        def line_level(*args, **kwargs):
            raise AssertionError("a command scored at line level")

        originals = (streamopt.cost.read_cost, streamopt.cost.storage_cost)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "streamopt":
                for key, value in list(vars(module).items()):
                    if any(value is f for f in originals):
                        monkeypatch.setattr(module, key, line_level)
        inst, scheme = str(instance_path), str(tmp_path / "c.scheme")
        measured = tmp_path / "m.csv"
        incidence, catalog = load_instance(instance_path)
        evaluated = tmp_path / "eval.json"
        for argv in (
                ["optimize", "--instance", inst, "--streams", "3",
                 "--restarts", "2", "--seed", "5", "--objective", "T",
                 "--out", scheme],
                ["optimize", "--instance", inst, "--streams", "3",
                 "--restarts", "2", "--seed", "5", "--objective",
                 "weighted:1", "--out", scheme],
                ["evaluate", "--instance", inst, "--scheme", scheme,
                 "--out", str(evaluated)],
                ["compare", "--instance", inst, "--scheme", scheme,
                 "--baseline", "single-stream"],
                ["sweep", "--instance", inst, "--streams", "1,3",
                 "--restarts", "2", "--baseline", "single-stream"]):
            assert main(argv) == 0, argv
        written = load_scheme(scheme, catalog)
        n0, n1 = stream_lines(catalog, written)[:2]
        measured.write_text(MEASUREMENT_HEADER + f"run1,0,{n0},19.0,120.5\n"
                            f"run1,1,{n1},14.0,60.25\n")
        assert main(["calibrate", "--measurements", str(measured),
                     "--instance", inst, "--scheme-file",
                     f"run1={scheme}"]) == 0

        monkeypatch.undo()
        totals = json.loads(evaluated.read_text())
        assert totals["read_cost"]["total"] == pytest.approx(
            read_cost(incidence, catalog, written).total, rel=1e-9)
        assert totals["storage_kb"]["total"] == pytest.approx(
            storage_cost(incidence, catalog, written).total, rel=1e-9)

    def test_no_command_builds_line_records(self, instance_path, tmp_path,
                                            monkeypatch):
        # The catalog is columns; its records are built only when asked for.
        def no_records(self, *args, **kwargs):
            raise AssertionError("a command built a LineRecord")

        monkeypatch.setattr(LineRecord, "__init__", no_records)
        incidence, catalog = load_instance(instance_path)
        assert catalog.n_lines == incidence.n_lines
        inst, scheme = str(instance_path), str(tmp_path / "c.scheme")
        for argv in (
                ["optimize", "--instance", inst, "--streams", "3",
                 "--restarts", "2", "--seed", "5", "--objective", "T",
                 "--out", scheme],
                ["optimize", "--instance", inst, "--streams", "3",
                 "--restarts", "2", "--seed", "5", "--objective",
                 "weighted:1", "--out", scheme],
                ["sweep", "--instance", inst, "--streams", "1,3",
                 "--restarts", "2", "--baseline", "single-stream"],
                ["evaluate", "--instance", inst, "--scheme", scheme,
                 "--out", str(tmp_path / "eval.json")]):
            assert main(argv) == 0, argv
        with pytest.raises(AssertionError, match="LineRecord"):
            catalog.lines


class TestMaxRss:
    @pytest.mark.parametrize("platform, unit", [("linux", 1024),
                                                ("darwin", 1)])
    def test_platform_unit_and_children(self, monkeypatch, platform, unit):
        peaks = {"self": 3 * 2**20 // unit, "children": 2**20 // unit}
        monkeypatch.setattr(streamopt.cli, "resource", types.SimpleNamespace(
            RUSAGE_SELF="self", RUSAGE_CHILDREN="children",
            getrusage=lambda who: types.SimpleNamespace(
                ru_maxrss=peaks[who], ru_utime=0.0, ru_stime=0.0)))
        monkeypatch.setattr(sys, "platform", platform)
        assert streamopt.cli._resource_usage()[2] == 3.0
        assert streamopt.cli._resource_usage(children=True)[2] == 4.0


@pytest.fixture
def package_log_level():
    """Restore the package logger's level, which ``main`` sets."""
    logger = logging.getLogger("streamopt")
    level = logger.level
    yield
    logger.setLevel(level)


@pytest.mark.usefixtures("package_log_level")
class TestVerbosity:
    # 3000 events at these rates leave most events passing no line, which
    # the generator logs at INFO.
    GENERATE = ["generate", "--events", "3000", "--modules", "4",
                "--intra", "0.01", "--cross", "0.001"]

    @pytest.mark.parametrize("flags, level", [
        ([], logging.INFO), (["-v"], logging.DEBUG),
        (["--verbose"], logging.DEBUG), (["-q"], logging.WARNING),
        (["--quiet"], logging.WARNING)])
    def test_flags_set_the_package_level(self, tmp_path, flags, level):
        out = str(tmp_path / "x.inst")
        assert main(flags + self.GENERATE + ["--out", out]) == 0
        assert logging.getLogger("streamopt").level == level

    def test_verbose_and_quiet_exclude_each_other(self, capsys):
        assert main(["-v", "-q"] + self.GENERATE + ["--out", "x"]) == 1
        assert "not allowed" in capsys.readouterr().err

    def test_quiet_drops_info(self, tmp_path, caplog):
        out = str(tmp_path / "x.inst")
        assert main(self.GENERATE + ["--out", out]) == 0
        assert "events that pass no line" in caplog.text
        caplog.clear()
        assert main(["-q"] + self.GENERATE + ["--out", out]) == 0
        assert caplog.text == ""

    def test_verbose_logs_timings(self, instance_path, tmp_path, caplog):
        argv = ["optimize", "--instance", str(instance_path), "--streams",
                "2", "--restarts", "2", "--out", str(tmp_path / "x.scheme")]
        assert main(argv) == 0
        assert "dedupe" not in caplog.text
        assert main(["-v"] + argv) == 0
        assert "dedupe" in caplog.text


# Every command in a fresh interpreter, which must not import scipy.sparse,
# nor numpy.ma where importing numpy does not (numpy 1.x does); then a later
# import of scipy.sparse reuses the routines relax loaded.
STARTUP_SCRIPT = """
import sys
import numpy
unloaded = {"scipy.sparse", "numpy.ma"} - set(sys.modules)
from streamopt import load_instance, load_scheme
from streamopt.cli import main

common = ["--instance", "a.inst"]
for argv in (
        ["generate", "--events", "200", "--modules", "5", "--clusters", "2",
         "--prescales", "1,0.5", "--seed", "3", "--out", "a.inst"],
        ["optimize", *common, "--streams", "2", "--restarts", "2",
         "--out", "a.scheme"],
        ["evaluate", *common, "--scheme", "a.scheme"],
        ["compare", *common, "--scheme", "a.scheme",
         "--baseline", "single-stream"],
        ["sweep", *common, "--streams", "1,2,3", "--restarts", "2",
         "--out", "sweep.csv"]):
    assert main(argv) == 0, argv
# The measurements give each stream's true line count.
_, catalog = load_instance("a.inst")
scheme = load_scheme("a.scheme", catalog)
lines = [sum(catalog.module_line_counts[m] for m, k
             in enumerate(scheme.assignment) if k == s) for s in (0, 1)]
with open("measured.csv", "w") as f:
    f.write("scheme_id,stream_id,n_lines,measured_time_s,measured_size_kb\\n"
            "run1,0,%d,19.0,120.5\\nrun1,1,%d,14.0,60.25\\n" % tuple(lines))
assert main(["calibrate", *common, "--measurements", "measured.csv",
             "--scheme-file", "run1=a.scheme"]) == 0
assert not unloaded & set(sys.modules), unloaded & set(sys.modules)

import scipy.sparse
from scipy.sparse import _sparsetools
from streamopt import relax
assert _sparsetools is relax._sparsetools
print("ok")
"""


class TestStartup:
    def test_commands_leave_scipy_sparse_unloaded(self, tmp_path):
        src = os.path.dirname(os.path.dirname(streamopt.cli.__file__))
        path = os.pathsep.join(filter(None, (src,
                                              os.environ.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", STARTUP_SCRIPT], cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path}, capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "ok"


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert main(["evaluate", "--bogus"]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_objective(self, instance_path, capsys):
        assert main(["optimize", "--instance", str(instance_path),
                     "--streams", "2", "--objective", "Q",
                     "--out", "x"]) == 1

    def test_bad_stream_list(self, instance_path, capsys):
        assert main(["sweep", "--instance", str(instance_path),
                     "--streams", "1,za"]) == 1

    @pytest.mark.parametrize("argv, code", [
        (["optimize", "--streams", "2", "--restarts", "0"], 1),
        (["sweep", "--streams", "1,2", "--restarts", "-3"], 1),
        (["optimize", "--streams", "2", "--seed", "-1"], 1),
        (["sweep", "--streams", "1,2", "--seed", "-5"], 1),
        (["optimize", "--streams", "0"], 3),
        (["generate", "--prescales", "2"], 2),
        (["generate", "--lines-per-module", "3:1"], 2),
        (["generate", "--prescales", ","], 2),
        (["generate", "--base-kb", "5"], 1),
        (["optimize", "--streams", "2", "--objective", "weighted:nan"], 1),
        (["evaluate", "--scheme", "single-stream", "--base-kb", "nan"], 1),
        (["compare", "--scheme", "single-stream", "--baseline",
          "single-stream", "--base-kb", "-1", "--shared-kb", "-50"], 1),
        (["calibrate", "--measurements", "m.csv", "--t-initial", "nan"], 1),
    ])
    def test_bad_arguments_exit_without_traceback(self, instance_path,
                                                  tmp_path, capsys, argv,
                                                  code):
        out = tmp_path / "out"
        if argv[0] != "generate":
            argv = argv + ["--instance", str(instance_path)]
        assert main(argv + ["--out", str(out)]) == code
        assert "error" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("argv, text, code, message", [
        (["sweep", "--instance", "{inst}", "--streams", ","], None, 1,
         "argument --streams: empty stream list"),
        (["generate", "--lines-per-module", "a:b"], None, 1,
         "argument --lines-per-module: bad range 'a:b' (use LO:HI)"),
        (["optimize", "--instance", "{inst}", "--streams", "2",
          "--restarts", "x"], None, 1,
         "argument --restarts: invalid int value: 'x'"),
        (["generate", "--prescales", "a,b"], None, 1,
         "argument --prescales: bad float list 'a,b'"),
        (["evaluate", "--instance", "{inst}", "--scheme", "{file}"],
         "# n_streams=2\nmodule,stream\nmod00,x\n", 2,
         "line 3: bad stream index 'x'"),
        (["calibrate", "--measurements", "{file}"], MEASUREMENT_HEADER, 2,
         "measurement file has no rows"),
        (["calibrate", "--measurements", "{file}"],
         MEASUREMENT_HEADER + "run1,0,-1,19.0,120.5\n", 2,
         "line 2: negative line count"),
        (["calibrate", "--measurements", "{file}"],
         MEASUREMENT_HEADER + "run1,a,4,19.0,120.5\n", 2,
         "line 2: bad integer field"),
        (["generate", "--intra", "0", "--cross", "0"], None, 2,
         "generator produced no passing events; raise the rates"),
    ])
    def test_input_errors_name_the_fault(self, instance_path, tmp_path,
                                         capsys, argv, text, code, message):
        bad, out = tmp_path / "bad.txt", tmp_path / "out"
        if text is not None:
            bad.write_text(text)
        argv = [a.format(inst=instance_path, file=bad) for a in argv]
        assert main(argv + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.endswith(f"error: {message}\n")
        assert "Traceback" not in err
        assert not out.exists()


class TestOutNamesAnInput:
    @pytest.mark.parametrize("argv, out, target, option", [
        (["optimize", "--instance", "{inst}", "--streams", "2"], "{inst}",
         "{inst}", "--instance"),
        # The companion <out>.diag.json is the instance.
        (["optimize", "--instance", "{companion}", "--streams", "2"],
         "{run}", "{companion}", "--instance"),
        (["evaluate", "--instance", "{inst}", "--scheme", "{scheme}"],
         "{scheme}", "{scheme}", "--scheme"),
        # Another spelling of the same file.
        (["compare", "--instance", "{inst}", "--scheme", "single-stream",
          "--baseline", "{scheme}"], "{alias}", "{alias}", "--baseline"),
        (["sweep", "--instance", "{inst}", "--streams", "1,2"], "{inst}",
         "{inst}", "--instance"),
        (["sweep", "--instance", "{inst}", "--streams", "1,2", "--baseline",
          "{scheme}"], "{scheme}", "{scheme}", "--baseline"),
        (["calibrate", "--measurements", "{meas}"], "{meas}", "{meas}",
         "--measurements"),
        (["calibrate", "--measurements", "{meas}", "--instance", "{inst}",
          "--scheme-file", "run1={scheme}"], "{scheme}", "{scheme}",
         "--scheme-file"),
    ], ids=["optimize", "optimize-companion", "evaluate", "compare", "sweep",
            "sweep-baseline", "calibrate", "calibrate-scheme-file"])
    def test_refused_before_set_up(self, instance_path, tmp_path, capsys,
                                   monkeypatch, argv, out, target, option):
        def load(*args, **kwargs):
            raise AssertionError("loaded an input")

        _, catalog = load_instance(instance_path)
        for name in ("load_instance", "load_measurements"):
            monkeypatch.setattr(streamopt.cli, name, load)
        names = {"inst": instance_path, "run": tmp_path / "run",
                 "companion": tmp_path / "run.diag.json",
                 "scheme": tmp_path / "x.scheme",
                 "alias": tmp_path / "." / "x.scheme",
                 "meas": tmp_path / "m.csv"}
        names["companion"].write_bytes(instance_path.read_bytes())
        write_scheme(names["scheme"], Scheme(1, (0,) * catalog.n_modules),
                     catalog)
        names["meas"].write_text(MEASUREMENT_HEADER +
                                 f"run1,0,{catalog.n_lines},19.0,1.5\n")
        files = {path: path.read_bytes() for path in tmp_path.iterdir()}
        argv = [a.format(**names) for a in argv]
        assert main(argv + ["--out", out.format(**names)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write '{target.format(**names)}': it is the "
            f"command's {option}\n")
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files

    def test_builtin_scheme_names_no_file(self, instance_path, tmp_path,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "single-stream").write_text("not an input\n")
        assert main(["evaluate", "--instance", str(instance_path), "--scheme",
                     "single-stream", "--out", "single-stream"]) == 0
        assert "read_cost" in json.loads(
            (tmp_path / "single-stream").read_text())


class TestStorageOverflow:
    """Only the sizes can make S overflow, so every command that scores S
    names them and exits 3, without a numpy warning or an output file.  A
    sweep exits before its first descent."""

    @pytest.mark.parametrize("size", ["--base-kb", "--shared-kb"])
    @pytest.mark.parametrize("argv", [
        ["optimize", "--streams", "2", "--restarts", "2", "--objective", "S"],
        ["optimize", "--streams", "2", "--restarts", "2", "--objective",
         "weighted:1"],
        ["evaluate", "--scheme", "single-stream"],
        ["compare", "--scheme", "per-module", "--baseline", "per-module"],
        ["sweep", "--streams", "1,2,3"],
        ["calibrate", "--measurements", "{meas}", "--scheme-file",
         "run1={scheme}"],
    ], ids=["optimize-S", "optimize-weighted", "evaluate", "compare",
            "sweep", "calibrate"])
    def test_every_command_names_the_sizes(self, instance_path, tmp_path,
                                           capsys, monkeypatch, argv, size):
        def no_descent(*args):
            raise AssertionError("a descent ran")

        monkeypatch.setattr(optimize_module, "optimize", no_descent)
        _, catalog = load_instance(instance_path)
        scheme, meas = tmp_path / "two.scheme", tmp_path / "m.csv"
        two = Scheme(2, (0, 1) * (catalog.n_modules // 2))
        write_scheme(scheme, two, catalog)
        n0, n1 = stream_lines(catalog, two)
        meas.write_text(MEASUREMENT_HEADER + f"run1,0,{n0},19.0,120.5\n"
                        f"run1,1,{n1},14.0,60.25\n")
        argv = [a.format(meas=meas, scheme=scheme) for a in argv]
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv + ["--instance", str(instance_path), size,
                                "1e308", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: storage overflows to infinity; use smaller --base-kb and "
            "--shared-kb\n")
        assert not out.exists()


class TestOutOfMemory:
    """A request too large for memory exits 3 with a message.

    The failed allocation is simulated: whether a real one fails or gets the
    process killed depends on the host's overcommit setting.
    """

    @pytest.mark.parametrize("callee, argv", [
        ("gen_synthetic", ["generate", "--events", "1000000000000"]),
        ("optimize", ["optimize", "--streams", "2",
                      "--restarts", "1000000000"]),
        ("SchemeScorer", ["evaluate", "--scheme", "single-stream"]),
    ])
    def test_exit_code_and_message(self, instance_path, tmp_path, capsys,
                                   monkeypatch, callee, argv):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(streamopt.cli, callee, out_of_memory)
        out = tmp_path / "out"
        if argv[0] != "generate":
            argv = argv + ["--instance", str(instance_path)]
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "error: out of memory: Unable to allocate 7.28 TiB" in err
        assert "Traceback" not in err
        assert not out.exists()
