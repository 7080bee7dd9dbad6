"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from schmidt_cone import classify, oracles  # noqa: E402
from schmidt_cone.classify import MembershipVerdict  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GRID_STEPS = [("grid", 0, 0), ("grid", 0, 1)]


@pytest.fixture
def ctx():
    context = workloads.prepare(ROOT, workers=2)
    yield context
    shutil.rmtree(context.tmp, ignore_errors=True)


def _grid_counts(ctx, seed, tracer=None):
    samples, tally = {}, workloads.Tally()
    if tracer is None:
        workloads.run_steps(ctx, seed, GRID_STEPS, tally, samples, {})
    else:
        with tracer:
            workloads.run_steps(ctx, seed, GRID_STEPS, tally, samples, {})
    assert tally.failed == 0, tally.notes
    return samples["grid"]["counts"]


@pytest.mark.parametrize("workers", [1, 2])
def test_exact_counts_repeat_and_match_the_trace(ctx, workers):
    ctx.workers = workers
    first = _grid_counts(ctx, seed=5)
    assert first == _grid_counts(ctx, seed=5)
    assert first["points_checked"] > first["interior_points"] > 0
    tracer = tracing.Tracer()
    assert _grid_counts(ctx, seed=5, tracer=tracer) == first
    totals = tracer.totals
    # measured by the wrappers, in the pool workers when there are two
    assert totals["numpy.linalg.cholesky.calls"] == first["cholesky.calls"]
    assert totals["oracles.random_frames.calls"] == first["random_frames.calls"]
    # grid_agreement splits each k into tasks of ten grid rows
    tasks = sum(d * -(-grid_n // 10) for d, grid_n in workloads.GRID)
    assert totals["oracles.grid_task.calls"] == tasks
    assert totals["oracles.grid_task.s"] > totals["oracles.grid_task.self_s"] > 0
    assert (totals.get("oracles.pool.s", 0) > 0) == (workers > 1)


def test_tracer_uninstalls_cleanly():
    before = (classify.is_k_positive, oracles.grid_agreement, oracles._grid_task,
              oracles.is_k_positive, oracles.ProcessPoolExecutor)
    with tracing.Tracer():
        assert oracles.is_k_positive is classify.is_k_positive is not before[0]
    after = (classify.is_k_positive, oracles.grid_agreement, oracles._grid_task,
             oracles.is_k_positive, oracles.ProcessPoolExecutor)
    assert after == before


def test_seed_changes_inputs():
    ops = [pickle.dumps(workloads.query_ops(seed, 0)) for seed in (1, 1, 2)]
    assert ops[0] == ops[1] != ops[2]
    assert workloads.cold_argv(1, 0, Path("t")) != workloads.cold_argv(2, 0, Path("t"))
    assert workloads.suite_operators(1, 0) == workloads.suite_operators(1, 0)
    assert workloads.suite_operators(1, 0) != workloads.suite_operators(2, 0)
    assert workloads.suite_seed(1, 0) != workloads.suite_seed(2, 0)


def test_injected_wrong_classifier_answer_is_a_failure(ctx, monkeypatch):
    clean = workloads.Tally()
    workloads.query_step(ctx, 3, 0, 0, clean, {})
    assert clean.failed == 0, clean.notes

    def always_inside(d, p, q, k, tol=classify.BOUNDARY_TOL):
        return MembershipVerdict("inside", 1)

    monkeypatch.setattr(classify, "is_k_positive", always_inside)
    tally = workloads.Tally()
    workloads.query_step(ctx, 3, 0, 0, tally, {})
    assert tally.attempted == clean.attempted
    assert 0 < tally.failed <= tally.attempted


def _mix_cli_calls(ctx, rng, tally):
    for n, (_, command) in enumerate(op for op in workloads.QUERY_OPS if op[0] == "cli"):
        argv = workloads._fill_out(workloads.cli_argv(rng, command), ctx.tmp / f"t{n}")
        workloads._cli_call(ctx, argv, tally, [])


def test_every_cli_call_of_the_mix_checks_out(ctx):
    tally = workloads.Tally()
    rng = np.random.default_rng(0)
    for _ in range(3):
        _mix_cli_calls(ctx, rng, tally)
    assert tally.failed == 0, tally.notes


def test_cli_call_that_writes_nothing_is_a_failure(ctx, monkeypatch):
    tally = workloads.Tally()
    _mix_cli_calls(ctx, np.random.default_rng(0), tally)  # leaves files behind
    monkeypatch.setattr(workloads.cli, "main", lambda argv: print("{}") or 0)
    tally = workloads.Tally()
    _mix_cli_calls(ctx, np.random.default_rng(0), tally)
    assert tally.failed == sum(op[0] == "cli" for op in workloads.QUERY_OPS)


def test_injected_wrong_grid_count_is_a_failure(ctx, monkeypatch):
    real = oracles.grid_agreement

    def one_point_short(*args, **kwargs):
        report = real(*args, **kwargs)
        report.samples -= 1
        return report

    monkeypatch.setattr(oracles, "grid_agreement", one_point_short)
    tally = workloads.Tally()
    workloads.run_steps(ctx, 5, GRID_STEPS[:1], tally, {}, {})
    assert tally.failed == 1


def test_mix_percentile_ignores_the_draw():
    kinds = [op[1:] for op in workloads.QUERY_OPS if op[0] == "emit"][:2]
    weight = {op[1:]: p for op, p in zip(workloads.QUERY_OPS, workloads.QUERY_P) if op[0] == "emit"}
    # kind 0 takes 1..4 ms, kind 1 takes 10..40 ms
    seconds = [1e-3, 2e-3, 3e-3, 4e-3, 1e-2, 2e-2, 3e-2, 4e-2]
    cells = [kinds[0]] * 4 + [kinds[1]] * 4
    once = workloads.mix_percentile("emit", seconds, cells, 75)
    # drawing kind 1 three times as often changes nothing
    assert workloads.mix_percentile("emit", seconds + seconds[4:] * 2, cells + cells[4:] * 2, 75) == pytest.approx(once)
    w0, w1 = weight[kinds[0]], weight[kinds[1]]
    assert once == pytest.approx((w0 * 3.25e-3 + w1 * 3.25e-2) / (w0 + w1))


def _run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_every_metric(trace, section):
    proc = _run("--workload", "query", "--seed", "4", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = json.loads(lines[-2])["report"]
    assert report["failed_share"] == 0 and report["machine"]["workers"] >= 1
    # every phase runs on every workload, so no metric reads zero
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if section == "per_layer":
        assert result["metrics"]["oracles.points_checked"]["value"] == report["counts"]["points_checked"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
