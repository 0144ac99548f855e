"""Tests of the benchmark itself, on the smoke configuration.

Run from the root of the repository:  python3 -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run  # puts ./src on sys.path
import tracing
import workloads
from tlpsparse import bench, cli

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd, check=False)


def test_benchmark_json_matches_the_metric_tables():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e == {n: run.E2E_UNITS[n] for n in run.E2E_LISTED}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {n: run.LAYER_UNITS[n] for n in run.LAYER_LISTED}
    assert sorted(w["name"] for w in SPEC["workloads"]) == ["files", "wide"]
    assert set(workloads.WORKLOADS) == {"desk", "files", "wide"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.SMOKE))
def test_smoke_run_prints_every_metric_with_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units, listed = ((run.E2E_UNITS, run.E2E_LISTED) if trace == 0
                     else (run.LAYER_UNITS, run.LAYER_LISTED))
    want = {n: units[n] for n in listed}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())
    report = "\n".join(lines[:-1])
    assert "# check success table:" in report
    assert "gives the same result: True" in report
    kind = "end_to_end" if trace == 0 else "per_layer"
    for name in units:
        assert f"# {kind} {name} = " in report
    if trace:
        assert "self times sum to each op's wall time" in report
        assert "outermost span" in report


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "desk", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", ["files", "wide"])
def test_root_span_check_catches_an_untraced_layer(workload, monkeypatch,
                                                   tmp_path):
    def traced_checks():
        tracer = tracing.Tracer()
        log, _, _ = run.run_rounds(workloads.SMOKE[workload], 2, 0.0,
                                   str(tmp_path), tracer)
        return run.per_layer(log, tracer, run.SMOKE_ROOT_SHARE)[2]

    assert traced_checks()
    # Unwrap the solver: its time lands in bench.run_trial or cli.main.
    monkeypatch.setattr(tracing, "TARGETS", tuple(
        t for t in tracing.TARGETS
        if not t[2].startswith(("solver.", "penalty."))))
    assert not traced_checks()


def _smoke_ops(name, monkeypatch, tmp_path, target=None, replacement=None):
    if target is not None:
        monkeypatch.setattr(*target, replacement)
    log = workloads.Log()
    workloads.SMOKE[name].run_round(5, 0, log, str(tmp_path))
    return log.ops


def test_solver_exception_counts_as_error_not_failure(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise FloatingPointError("boom")

    ops = _smoke_ops("desk", monkeypatch, tmp_path, (bench, "irls_tlp"),
                     broken)
    tlp = [o for o in ops if o.method == "tlp"]
    assert tlp and all(o.error == "raised FloatingPointError" for o in tlp)
    assert all(o.error is None for o in ops if o.method != "tlp")


def test_non_finite_solution_is_an_error(monkeypatch, tmp_path):
    inner = bench.irls_lq_baseline

    def nan_x(*args, **kwargs):
        result = inner(*args, **kwargs)
        result.x = np.full_like(result.x, np.nan)
        return result

    ops = _smoke_ops("desk", monkeypatch, tmp_path,
                     (bench, "irls_lq_baseline"), nan_x)
    assert [o.error for o in ops if o.method == "lq"] == ["non-finite x"]


def test_files_checks_catch_wrong_outputs(monkeypatch, tmp_path):
    assert all(o.error is None
               for o in _smoke_ops("files", monkeypatch, tmp_path))
    ops = _smoke_ops("files", monkeypatch, tmp_path,
                     (cli, "relaxation_degree"),
                     lambda kind, params, N: 0.5)
    assert {o.label for o in ops if o.error} == {"rd"}

    def lossy(A, path):
        np.savetxt(path, A.entries, delimiter=",", fmt="%.6g",
                   header=f"{A.shape[0]},{A.shape[1]}", comments="")

    ops = _smoke_ops("files", monkeypatch, tmp_path,
                     (cli, "save_matrix_csv"), lossy)
    assert {o.label for o in ops if o.error} >= {"gen:gaussian", "gen:dct"}


def test_inputs_are_timed_by_their_fastest_run(tmp_path):
    log, rounds, _ = run.run_rounds(workloads.SMOKE["wide"], 4, 0.0,
                                    str(tmp_path), passes=2)
    per_round = len(log.ops) // 2
    assert rounds == 1 and len(run.fastest_runs(log.ops)) == per_round
    assert run.runs_agree(log.ops)
    for first, second, best in zip(log.ops[:per_round],
                                   log.ops[per_round:],
                                   run.fastest_runs(log.ops)):
        assert (first.slot, first.label) == (second.slot, second.label)
        assert best.wall == min(first.wall, second.wall)
    log.ops[-1].recovered = not log.ops[-1].recovered
    assert not run.runs_agree(log.ops)


def test_reference_mismatch_is_reported():
    ref = json.loads(run.REFERENCE.read_text())
    label, bits = next(iter(ref["workloads"]["desk"]["cells"].items()))
    flipped = "0" if bits[0] == "1" else "1"
    op = workloads.Op(label=label, method="tlp", round=0, traced=False,
                      wall=1.0, error=None, recovered=flipped == "1")
    ok, note = run.check_reference("desk", [op])
    assert not ok and "MISMATCH" in note
    op.recovered = not op.recovered
    assert run.check_reference("desk", [op])[0]
