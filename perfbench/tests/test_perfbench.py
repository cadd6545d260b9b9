"""Self-tests of the benchmark, at tiny size.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import qsteer
import run
import worker
from tracer import Tracer
from qsteer.errors import NotHermitian
from workloads import CLASSICAL_ZERO_TOL, KNOWN_DEFECTS, WORKLOADS, OracleLog, pauli_coefficients

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "2",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER
    ]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_emits_every_end_to_end_metric(workload):
    line = _bench(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    assert line["correct"] and line["failed"] == 0  # known defects lower verified_frac only
    assert set(line["metrics"]) == set(run.END_TO_END)
    for name, m in line["metrics"].items():
        assert m["unit"] == run.END_TO_END[name]
        assert math.isfinite(m["value"]) and m["value"] > 0, name


def test_traced_run_emits_every_per_layer_metric():
    line = _bench("generic-2q", 1)
    assert [n for n in line["metrics"]] == [m.name for m in layers.PER_LAYER]
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    assert line["metrics"]["optimize.nelder_mead.runs_per_op"]["value"] > 0


def test_same_seed_same_inputs():
    wl = WORKLOADS["degenerate-2q"]
    a, _ = wl.build(5, ROOT)
    b, _ = wl.build(5, ROOT)
    c, _ = wl.build(6, ROOT)
    assert [x.kind for x in a] == [x.kind for x in c]
    assert all(np.array_equal(x.state.matrix, y.state.matrix) for x, y in zip(a, b))
    assert not all(np.array_equal(x.state.matrix, y.state.matrix) for x, y in zip(a, c))


@pytest.fixture
def workdir():
    path = os.path.join(ROOT, ".perfbench-tmp", f"tests-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:  # another run is using it
        pass


def _first(cases, kind):
    return next((k, c) for k, c in enumerate(cases) if c.kind == kind)


def test_checker_flags_perturbed_answers():
    wl = WORKLOADS["generic-2q"]
    cases, _ = wl.build(0, ROOT)
    oracle = OracleLog()
    for kind in ("chord", "hs", "pure"):
        k, case = _first(cases, kind)
        state, res, ell = wl.run(case)
        assert wl.check(case, (state, res, ell), k, oracle).ok
        bumped = dataclasses.replace(res, value=res.value + 1e-3)
        assert not wl.check(case, (state, bumped, ell), k, oracle).ok
        off = dataclasses.replace(ell, semiaxes=ell.semiaxes + 1e-6)
        assert wl.check(case, (state, res, off), k, oracle).code == "qse"
    k, case = _first(cases, "chord")
    answer = wl.run(case)
    moved = dataclasses.replace(case, exact=case.exact + 10 * case.tol)
    assert wl.check(moved, answer, k, oracle).code == "exact"


def test_checker_flags_perturbed_sweep(workdir):
    wl = WORKLOADS["damping-sweep"]
    cases, _ = wl.build(0, workdir)
    k, case = _first(cases, "classical-0.75")
    code = wl.run(case)
    with open(case.argv[-1]) as fh:
        rows = fh.read().splitlines()
    assert wl.check(case, code, k, None).ok
    gamma, value = rows[50].split(",")
    rows[50] = f"{gamma},{float(value) + 1e-5!r}"
    with open(case.argv[-1], "w") as fh:
        fh.write("\n".join(rows) + "\n")
    assert wl.check(case, code, k, None).code == "exact"
    assert wl.check(case, code, k, None).code == "csv"  # each output is read once
    assert wl.check(case, 3, k, None).code == "exit"


def test_known_defect_fails_stays_in_the_workload_and_is_kept_out_of_ref_digits():
    wl = WORKLOADS["degenerate-2q"]
    cases, _ = wl.build(0, ROOT)
    k, case = _first(cases, "rho_c(0.5)")
    tally = worker.Tally(wl, cases)
    tally.add(k, 0.0, wl.run(case), None)
    assert tally.failed == 1 and tally.unexpected_failed == 0 and not tally.unexpected
    assert tally.worst_error is None and tally.worst_known_error > CLASSICAL_ZERO_TOL


def test_known_defect_above_its_rate_or_with_another_code_is_unexpected():
    wl = WORKLOADS["generic-2q"]
    cases, _ = wl.build(0, ROOT)
    k, _ = _first(cases, "near-product")
    tally = worker.Tally(wl, cases)
    for _ in range(100):
        tally.add(k, 0.0, None, NotHermitian("steered state"))
    assert not tally.unexpected and tally.unexpected_failed == 0
    tally.check_rates()
    assert len(tally.unexpected) == 1 and "near-product: 100 of 100" in tally.unexpected[0]
    allowed = KNOWN_DEFECTS["near-product"].allowed(100)
    assert tally.failed == 100 and tally.unexpected_failed == 100 - math.floor(allowed)
    tally = worker.Tally(wl, cases)
    tally.add(k, 0.0, None, ValueError("boom"))
    assert len(tally.unexpected) == 1 and tally.unexpected_failed == 1


def test_non_ball_inputs_are_b0_full_rank_and_not_balls():
    cases, _ = WORKLOADS["degenerate-2q"].build(0, ROOT)
    for case in [c for c in cases if c.kind == "non-ball"][:5]:
        th = pauli_coefficients(case.state.matrix)
        sv = np.linalg.svd(th[1:, 1:], compute_uv=False)
        assert np.abs(th[0, 1:]).max() < 1e-12 and np.linalg.norm(th[1:, 0]) > 0.05
        assert sv[-1] > 1e-6 and sv[0] - sv[-1] > 1e-3
        assert np.linalg.eigvalsh(case.state.matrix)[0] > -1e-12


def test_tracer_self_times_add_up_to_traced_time():
    wl = WORKLOADS["generic-2q"]
    cases, _ = wl.build(0, ROOT)
    tally = worker.Tally(wl, cases)
    _, plain_s = worker.run_ops(tally, count=40)
    tracer = Tracer(layers.PACKAGE)
    tracer.install(layers.TRACED)
    try:
        _, traced_s = worker.run_ops(tally, count=40, tracer=tracer)
    finally:
        tracer.uninstall()
    assert not tally.unexpected
    self_sum = sum(t.self_s for t in tracer.all_totals().values())
    assert tracer.totals("op").calls == 40
    assert self_sum == pytest.approx(tracer.totals("op").total_s, rel=1e-9)
    # The traced op time exceeds the spans only by the root span's own timer
    # calls, a small part of the recorded overhead traced_s - plain_s.
    assert self_sum <= traced_s <= self_sum + 0.01 * plain_s + max(traced_s - plain_s, 0.0)
    nm = tracer.totals("optimize.nelder_mead")
    assert nm.total_s == pytest.approx(nm.self_s + tracer.totals("optimize.objective").total_s, rel=1e-9)


def test_tracer_wraps_copied_references_and_restores_them():
    original = qsteer.optimize.nelder_mead
    assert qsteer.msc.nelder_mead is original
    tracer = Tracer(layers.PACKAGE)
    tracer.install({"optimize.nelder_mead": layers.TRACED["optimize.nelder_mead"]})
    try:
        assert qsteer.msc.nelder_mead is not original
        tracer.span("op", qsteer.msc_two_qubit, qsteer.rho_p(0.5, 0.3).state)
        tracer.fold()
    finally:
        tracer.uninstall()
    assert qsteer.msc.nelder_mead is original and qsteer.optimize.nelder_mead is original
    assert tracer.totals("optimize.nelder_mead").calls > 0
    assert tracer.totals("optimize.objective").calls > 0


def test_paused_calls_are_not_recorded():
    tracer = Tracer(layers.PACKAGE)
    f = tracer.wrap("f", lambda x: x + 1)
    with tracer.paused():
        assert f(1) == 2
    assert f(2) == 3
    tracer.fold()
    assert tracer.totals("f").calls == 1


def test_missing_name_yields_zero_calls():
    tracer = Tracer(layers.PACKAGE)
    tracer.install({"optimize.no_such_function": (None, None), "no_such_module.f": (None, None)})
    tracer.uninstall()
    assert tracer.missing == ["optimize.no_such_function", "no_such_module.f"]
    assert tracer.totals("optimize.no_such_function").calls == 0
    ctx = layers.Context(tracer, ops=3, overhead_frac=0.0, oracle_calls=0, oracle_seconds=0.0, oracle_points=0)
    metrics = layers.compute(ctx)
    assert metrics["optimize.nelder_mead.runs_per_op"]["value"] == 0.0
    assert metrics["msc.msc_oracle.points_per_s"]["value"] == 0.0


def test_tail_is_the_nearest_rank_percentile():
    assert worker.tail(list(range(100)), 90.0) == (89, 10)
    assert worker.tail(list(range(2000)), 99.0) == (1979, 20)
    assert worker.tail([5.0], 75.0) == (5.0, 0)
