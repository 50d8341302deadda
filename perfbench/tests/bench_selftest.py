"""Self-tests of the benchmark harness at tiny sizes (seconds, not minutes).

Run from the repository root:

    python3 -m pytest -q perfbench/tests/bench_selftest.py

The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".pair_evals", ".plastic_calls", ".bytes")
COUNT_NAMES = ("solver.steps", "solver.picard_iterations", "stationary.iterations")


def _declared(kind: str) -> list:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_tiny_run_reports_every_metric(name, tmp_path, capsys):
    summary = run.run_workload(name, seed=7, seconds=0, trace=True, tiny=True,
                               min_runs=1, run_root=tmp_path)
    commands = len(workloads.WORKLOADS[name].commands)
    assert summary["problems"] == []
    assert (summary["attempted"], summary["failed"]) == (2 * commands, 0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = run.report(summary, trace=False, declared=declared)
    assert set(e2e) == set(_declared("end_to_end"))
    assert all(m["value"] > 0 for m in e2e.values())
    layers = run.report(summary, trace=True, declared=declared)
    assert set(layers) == set(_declared("per_layer"))
    assert "missing" not in capsys.readouterr().out


def test_corrupted_output_counts_as_failed(tmp_path):
    wl = workloads.WORKLOADS["picard-1d-periodic"]
    bench_run = run.WorkloadRun(wl, 3, tmp_path / "run", tiny=True)
    assert bench_run.measure(trace=False) is not None
    assert (bench_run.attempted, bench_run.failed) == (1, 0)
    argvs = workloads.command_argvs(wl, bench_run.config_path, bench_run.run_dir / "out")
    out = workloads.out_dir_of(argvs[0])

    # a drifted key number fails against its recorded value
    recorded = bench_run.numbers[workloads.command_key(argvs[0])]
    bench_run.reference = {workloads.command_key(argvs[0]):
                           {**recorded, "final_sup": recorded["final_sup"] * (1 + 1e-5)}}
    bench_run.check(argvs, [0])
    assert (bench_run.attempted, bench_run.failed) == (2, 1)

    # a corrupted artifact fails without any reference
    bench_run.reference = None
    bench_run.check(argvs, [0])
    assert bench_run.failed == 1
    path = out / "trajectory.csv"
    text = path.read_text()
    path.write_text(text[: text.rindex(",")] + ",-1.0\n")
    bench_run.check(argvs, [0])
    assert (bench_run.attempted, bench_run.failed) == (4, 2)

    # so do positivity violations recorded by the program, and a failed exit
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["bound_report"]["positivity_violations"] = 3
    (out / "manifest.json").write_text(json.dumps(manifest))
    bench_run.check(argvs, [0])
    assert any("3 positivity violations" in p for p in bench_run.problems)
    bench_run.check(argvs, [1])
    assert (bench_run.attempted, bench_run.failed) == (6, 4)
    assert any("exit code 1" in p for p in bench_run.problems)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_count_metrics_repeat_exactly(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    counts = []
    for attempt in range(2):
        bench_run = run.WorkloadRun(wl, 11, tmp_path / str(attempt), tiny=True)
        result = bench_run.measure(trace=True)
        assert bench_run.failed == 0
        counts.append({k: v for k, v in result["layers"].items()
                       if k.endswith(COUNT_SUFFIXES) or k in COUNT_NAMES})
    assert counts[0] == counts[1]
    assert counts[0]["discretization.apply_j_values.calls"] > 0


def test_unresolved_hook_is_reported_missing(monkeypatch, capsys):
    sys.path.insert(0, str(ROOT / "src"))
    import neuralfield.cli  # noqa: F401  (loads every package module)

    monkeypatch.setattr(tracer, "HOOKS", tracer.HOOKS + (
        ("io.removed", "io", "no_such_function", None, ()),))
    trace = tracer.Tracer()
    monkeypatch.setattr(trace, "_wrap", lambda index, fn, counter: fn)
    trace.install()
    assert trace.missing == ["io.removed"]
    layers = trace.metrics(0.0, 1.0)
    assert "io.removed.s" not in layers
    summary = {"workload": workloads.WORKLOADS["verify-1d"], "plain": [],
               "traced": [{"layers": layers, "wall_s": 1.0}], "attempted": 1,
               "failed": 0, "problems": [], "notes": []}
    declared = {"per_layer": [{"name": "io.removed.s", "unit": "s"}]}
    assert run.report(summary, trace=True, declared=declared) == {}
    lines = capsys.readouterr().out.splitlines()
    assert ["verify-1d", "io.removed.s", "missing"] in [line.split() for line in lines]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-1d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
