"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

import env

HERE = Path(__file__).resolve().parent
BENCH = json.loads((env.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(*args, cwd=env.ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_no_result_without_the_program(tmp_path):
    """Next to BENCHMARK.json and perfbench alone, the run fails loudly."""
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "planted", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _wrong_assignment(best, catalog, streamopt):
    shifted = tuple((s + 1) % best.n_streams for s in best.assignment)
    return streamopt.instances.scheme_to_text(
        streamopt.Scheme(best.n_streams, shifted), catalog)


def _missing_module(best, catalog, streamopt):
    text = streamopt.instances.scheme_to_text(best, catalog)
    return "\n".join(text.splitlines()[:-1]) + "\n"


@pytest.mark.parametrize("sabotage", [_wrong_assignment, _missing_module])
def test_wrong_scheme_is_counted_as_failed(tmp_path, monkeypatch, sabotage):
    env.prepare()
    import harness
    import streamopt
    import workloads

    w = workloads.workload("prescaled", tiny=True)
    path = tmp_path / "instance0.inst"
    streamopt.gen_synthetic(w.specs(3)[0]).write(path)
    args = argparse.Namespace(workload=w.name, seed=3, trace=0, tiny=True)
    run = harness.Run(args, w, tmp_path, [path])
    catalog = streamopt.load_instance(path)[1]
    assert run.operate(0, traced=False) is not None
    assert (run.attempted, run.failed) == (1, 0)

    solve = workloads.solve

    def solve_then_overwrite(*solve_args):
        outcome = solve(*solve_args)
        outcome["scheme_path"].write_text(sabotage(
            outcome["result"].best_scheme, catalog, streamopt))
        return outcome

    monkeypatch.setattr(workloads, "solve", solve_then_overwrite)
    assert run.operate(0, traced=False) is None
    assert (run.attempted, run.failed) == (2, 1)
    assert run.problems
