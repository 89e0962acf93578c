"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from streamopt import (LossEvaluator, OptimizerConfig, Scheme,
                       enumerate_optimal, extreme_schemes, fit_linear,
                       fold_modules, load_instance, mc_prescale_check,
                       corrected_read_cost, MeasurementRecord, optimize,
                       read_cost, softmax_rows, storage_cost)
from streamopt.cli import main
from streamopt.relax import one_hot
from helpers import random_clustered_instance, random_instance, random_scheme


def report(name, t0, budget_s=None, detail=""):
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s{'; ' + detail if detail else ''})")
    if budget_s is not None:
        assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget"


def test_integer_equivalence_suite():
    """One-hot surrogate loss equals the discrete read cost (1e-9 relative)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(200):
        inc, cat = random_instance(rng, max_events=500, max_modules=20,
                                   rate_range=(0.01, 0.3))
        evaluator = LossEvaluator(fold_modules(inc, cat),
                                  cat.module_line_counts)
        n_streams = int(rng.integers(1, 9))
        scheme = random_scheme(rng, cat.n_modules, n_streams)
        loss = evaluator.loss(one_hot(scheme.assignment, n_streams))
        cost = read_cost(inc, cat, scheme).total
        assert abs(loss - cost) <= 1e-9 * max(cost, 1.0), \
            f"loss {loss} != cost {cost}"
        checked += 1
    report("integer-equivalence", t0, 30, f"{checked} instances")


def test_gradient_suite():
    """Analytic gradient matches central finite differences to 1e-5."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    step = 1e-5
    for trial in range(50):
        inc, cat = random_instance(rng, max_events=200, max_modules=20,
                                   rate_range=(0.01, 0.25))
        evaluator = LossEvaluator(fold_modules(inc, cat),
                                  cat.module_line_counts)
        n_streams = int(rng.integers(2, 9))
        logits = rng.normal(0.0, 1.0, (cat.n_modules, n_streams))
        _, analytic = evaluator.loss_and_gradient(softmax_rows(logits))
        numeric = np.zeros_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                plus = logits.copy()
                plus[i, j] += step
                minus = logits.copy()
                minus[i, j] -= step
                f_plus = evaluator.loss(softmax_rows(plus))
                f_minus = evaluator.loss(softmax_rows(minus))
                numeric[i, j] = (f_plus - f_minus) / (2 * step)
        scale = max(np.abs(numeric).max(), 1e-12)
        rel = np.abs(analytic - numeric).max() / scale
        assert rel < 1e-5, f"trial {trial}: gradient off by {rel}"
    report("gradient-vs-finite-differences", t0, 60, "50 instances")


def test_oracle_suite():
    """20-restart optimization attains the exhaustive optimum >= 95% of runs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    exact = 0
    ratios = []
    for k in range(50):
        inc, cat, n_streams = random_clustered_instance(rng)
        folded = fold_modules(inc, cat)
        result = optimize(folded, cat,
                          OptimizerConfig(n_streams=n_streams, n_restarts=20,
                                          seed=5000 + k))
        oracle = enumerate_optimal(inc, cat, n_streams)
        ratio = result.best_cost_discrete.total / oracle.best_cost
        ratios.append(ratio)
        if ratio <= 1.0 + 1e-9:
            exact += 1
        else:
            assert ratio <= 1.01, f"instance {k}: {ratio:.4f}x above optimum"
    assert exact >= 48, f"only {exact}/50 instances hit the oracle optimum"
    report("optimizer-vs-oracle", t0, 300,
           f"{exact}/50 exact, worst ratio {max(ratios):.5f}")


def test_expectation_suite():
    """Analytic prescale expectations agree with Monte-Carlo at 3 sigma."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    for k in range(20):
        inc, cat = random_instance(rng, max_events=150, max_modules=6,
                                   rate_range=(0.02, 0.2))
        scheme = random_scheme(rng, cat.n_modules, int(rng.integers(1, 4)))
        check = mc_prescale_check(inc, cat, scheme, 100_000, seed=900 + k)
        t_analytic = read_cost(inc, cat, scheme).total
        s_analytic = storage_cost(inc, cat, scheme).total
        assert abs(check.read_mean - t_analytic) <= \
            3 * check.read_se + 1e-9 * max(t_analytic, 1.0)
        assert abs(check.storage_mean - s_analytic) <= \
            3 * check.storage_se + 1e-9 * max(s_analytic, 1.0)
    report("monte-carlo-expectations", t0, None, "20 instances, 1e5 samples")


def test_extremes_and_monotonicity():
    """Boundary schemes are optimal; merges/splits move costs one way."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)

    for _ in range(10):
        inc, cat = random_instance(rng, max_events=200, max_modules=8)
        single, per_unit = extreme_schemes(cat)
        t_floor = read_cost(inc, cat, per_unit).total
        s_floor = storage_cost(inc, cat, single).total
        for _ in range(25):
            scheme = random_scheme(rng, cat.n_modules,
                                   int(rng.integers(1, cat.n_modules + 1)))
            assert read_cost(inc, cat, scheme).total >= t_floor - 1e-9
            assert storage_cost(inc, cat, scheme).total >= s_floor - 1e-9

    merges = splits = 0
    while merges < 1000 or splits < 1000:
        inc, cat = random_instance(rng, max_events=120, max_modules=8)
        for _ in range(50):
            if merges < 1000:
                k = int(rng.integers(2, cat.n_modules + 1))
                scheme = random_scheme(rng, cat.n_modules, k)
                a, b = rng.choice(k, size=2, replace=False)
                merged = Scheme(k, tuple(int(a) if s == b else s
                                         for s in scheme.assignment))
                before = read_cost(inc, cat, scheme).total
                after = read_cost(inc, cat, merged).total
                assert after >= before - 1e-9 * max(before, 1.0)
                merges += 1
            if splits < 1000:
                k = int(rng.integers(1, cat.n_modules))
                scheme = random_scheme(rng, cat.n_modules, k)
                moved = int(rng.integers(0, cat.n_modules))
                split = Scheme(k + 1, tuple(
                    k if u == moved else s
                    for u, s in enumerate(scheme.assignment)))
                before = storage_cost(inc, cat, scheme).total
                after = storage_cost(inc, cat, split).total
                assert after >= before - 1e-9 * max(before, 1.0)
                splits += 1
    report("extremes-and-monotonicity", t0, None,
           f"{merges} merges, {splits} splits")


def test_end_to_end_sweep_and_compare(tmp_path):
    """Sweep on planted clusters: read cost falls with stream count, and the
    optimized scheme beats a scrambled grouping at equal stream count."""
    t0 = time.perf_counter()
    instance_path = tmp_path / "clusters.inst"
    assert main(["generate", "--events", "10000", "--modules", "20",
                 "--lines-per-module", "2:4", "--clusters", "5",
                 "--intra", "0.8", "--cross", "0.015", "--seed", "42",
                 "--out", str(instance_path)]) == 0

    sweep_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--instance", str(instance_path),
                 "--streams", "1,2,3,4,5,6", "--restarts", "20",
                 "--seed", "11", "--out", str(sweep_path)]) == 0
    rows = [line.split(",") for line in
            sweep_path.read_text().splitlines()[1:]]
    costs = [float(r[1]) for r in rows]
    pairs = len(costs) - 1
    good = sum(costs[i + 1] <= costs[i] + 1e-9 for i in range(pairs))
    assert good >= 0.9 * pairs, f"read cost rose in {pairs - good}/{pairs} steps"

    incidence, catalog = load_instance(instance_path)
    scrambled = Scheme(5, tuple(m % 5 for m in range(catalog.n_modules)))
    from streamopt import write_scheme
    baseline_path = tmp_path / "scrambled.scheme"
    write_scheme(baseline_path, scrambled, catalog)
    optimized_path = tmp_path / "optimized.scheme"
    assert main(["optimize", "--instance", str(instance_path),
                 "--streams", "5", "--restarts", "20", "--seed", "11",
                 "--out", str(optimized_path)]) == 0
    compare_path = tmp_path / "compare.csv"
    assert main(["compare", "--instance", str(instance_path),
                 "--scheme", str(optimized_path),
                 "--baseline", str(baseline_path),
                 "--out", str(compare_path)]) == 0
    read_row = compare_path.read_text().splitlines()[1].split(",")
    assert read_row[0] == "read_cost"
    ratio = float(read_row[3])
    assert ratio < 1.0, f"optimized scheme not below scrambled ({ratio})"
    report("end-to-end-sweep-and-compare", t0, 600,
           f"{good}/{pairs} non-increasing, optimized/scrambled = {ratio:.3f}")


def test_calibration_suite():
    """Exact linear data is recovered exactly; the worked example gives 25."""
    t0 = time.perf_counter()
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    fit = fit_linear(x, 2.0 * x + 1.0)
    assert abs(fit.slope - 2.0) <= 1e-12
    assert abs(fit.intercept - 1.0) <= 1e-12
    assert abs(fit.r_squared - 1.0) <= 1e-12
    records = (MeasurementRecord("demo", 0, 2, 19.0, 0.0),
               MeasurementRecord("demo", 1, 1, 14.0, 0.0))
    assert corrected_read_cost(records, 9.0) == 25.0
    report("calibration", t0, None)
