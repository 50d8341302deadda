"""Benchmark of the neuralfield CLI: seeded workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py`` or ``all``.  Load model:
closed loop, one client, one command at a time (``--threads 1``), BLAS
and OpenMP pinned to one thread.  Each measured run of the workload's
commands is a fresh Python process (``child.py``), so set-up time and
peak RSS are per run; runs repeat until S seconds are used and every
metric is the median over runs.  Every command's output is checked; a
command that exits non-zero or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics, taken from the traced runs; ``trace.overhead_frac``
compares the two kinds.  The last line of standard output is one JSON
object; the lines before it are a readable table and the run
environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".perfbench_run"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (sits beside this file)

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
CHILD_TIMEOUT_S = 60
MIN_RUNS = 3


def child_env() -> dict:
    """The caller's environment minus config overrides, threads pinned."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("NF_") and key != "PYTHONPATH"}
    env.update(PINNED_THREADS)
    return env


def spawn_child(spec: dict, run_dir: Path) -> tuple:
    """Run child.py on SPEC; returns (its result or None, start time)."""
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path = Path(spec["result"])
    result_path.unlink(missing_ok=True)
    with open(run_dir / "child.log", "w", encoding="utf-8") as log:
        started = time.perf_counter()
        try:
            subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                           env=child_env(), stdout=log, stderr=log,
                           timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return None, started
    if not result_path.exists():
        return None, started
    return json.loads(result_path.read_text(encoding="utf-8")), started


class WorkloadRun:
    """Inputs of one workload for one seed, and its measured runs."""

    def __init__(self, workload, seed: int, run_dir: Path, tiny: bool = False,
                 reference: dict | None = None):
        self.workload = workload
        self.run_dir = run_dir
        self.reference = reference
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(
            json.dumps(workloads.config_document(workload, seed, tiny), indent=2),
            encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.numbers = {}      # key numbers of the last run, per command
        self.notes = set()

    def spec(self, trace: bool, setup_only: bool, out_root: Path) -> dict:
        return {
            "src": str(SRC),
            "bench": str(BENCH),
            "configs": [str(self.config_path)],
            "commands": workloads.command_argvs(self.workload, self.config_path, out_root),
            "trace": trace,
            "setup_only": setup_only,
            "result": str(self.run_dir / "result.json"),
        }

    def warm_up(self) -> dict:
        """Untimed set-up run: compiles bytecode, warms the file cache."""
        result, _ = spawn_child(self.spec(False, True, self.run_dir / "out"), self.run_dir)
        if result is None:
            raise RuntimeError(f"set-up run failed; see {self.run_dir / 'child.log'}")
        return result["software"]

    def measure(self, trace: bool) -> dict | None:
        """One measured run; checks every command's output."""
        out_root = self.run_dir / "out"
        shutil.rmtree(out_root, ignore_errors=True)
        spec = self.spec(trace, False, out_root)
        result, started = spawn_child(spec, self.run_dir)
        exit_codes = result["exit_codes"] if result else ["no result"] * len(spec["commands"])
        self.check(spec["commands"], exit_codes)
        if result is not None:
            result["setup_s"] = result["setup_end"] - started
        return result

    def check(self, argvs: list, exit_codes: list) -> None:
        """Counts each command as attempted, and as failed if a check fails."""
        for argv, code in zip(argvs, exit_codes):
            key = workloads.command_key(argv)
            reference = None if self.reference is None else self.reference.get(key, {})
            check = workloads.check_command(argv, code, reference)
            self.numbers[key] = check.numbers
            self.notes.update(f"{key}: {note}" for note in check.notes)
            self.attempted += 1
            if check.problems:
                self.failed += 1
                self.problems.extend(f"{key}: {p}" for p in check.problems)


def load_references() -> dict:
    with open(BENCH / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 min_runs: int = MIN_RUNS, run_root: Path = RUN_ROOT) -> dict:
    """Measure one workload for about SECONDS; returns the summary.

    Tiny runs (the self-tests) have no recorded key numbers to compare.
    """
    workload = workloads.WORKLOADS[name]
    reference = None
    if not tiny:
        reference = load_references()[name][str(workloads.variant_of(seed))]
    run = WorkloadRun(workload, seed, run_root / name, tiny=tiny, reference=reference)
    software = run.warm_up()
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        kinds = (False, True) if trace else (False,)
        for kind in kinds:
            before = time.perf_counter()
            result = run.measure(kind)
            if result is not None:
                (traced if kind else plain).append(result)
            last = time.perf_counter() - before
        done = min(len(plain), len(traced) if trace else len(plain))
        elapsed = time.perf_counter() - started
        # the next round would overrun; runs that keep failing end early
        if elapsed + last * len(kinds) > seconds and (done >= min_runs or elapsed > 2 * seconds):
            break
    return {
        "workload": workload,
        "software": software,
        "plain": plain,
        "traced": traced,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "notes": sorted(run.notes),
    }


# Every metric is the median over runs except peak RSS, which takes the
# mean: identical runs peak at two or three levels exactly one n x n array
# apart, so the median and the maximum jump between levels from one
# benchmark run to the next while the mean moves smoothly.
AGGREGATES = {"peak_rss_mb": ("mean", statistics.fmean)}
MEDIAN = ("median", statistics.median)


def end_to_end(summary: dict) -> dict:
    plain = summary["plain"]
    return {name: [r[name] for r in plain] for name in ("wall_s", "setup_s", "peak_rss_mb")}


def per_layer(summary: dict) -> dict:
    traced = summary["traced"]
    names = sorted(set().union(*(r["layers"] for r in traced))) if traced else []
    samples = {name: [r["layers"][name] for r in traced if name in r["layers"]]
               for name in names}
    if traced and summary["plain"]:
        plain_wall = statistics.median(r["wall_s"] for r in summary["plain"])
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        samples["trace.overhead_frac"] = [traced_wall / plain_wall - 1.0]
    return samples


def environment(summaries: list) -> dict:
    """Machine, software and per-workload operator sizes of this run."""
    llc = _last_level_cache()
    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "ram_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
            "last_level_cache": llc,
        },
        "software": summaries[0]["software"] if summaries else {},
        "pinned_threads": {**PINNED_THREADS, "--threads": "1"},
        "commit": _commit(),
        "operators": {
            s["workload"].name: {
                "n": s["workload"].nodes(),
                "operator_matrix_bytes": 8 * s["workload"].nodes() ** 2,
                "last_level_cache_bytes": llc["bytes"] if llc else None,
            }
            for s in summaries
        },
        "scope": ("time, memory and limits are measured for the benchmark's own "
                  "processes only; other load on the machine is not measured"),
    }
    return record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _last_level_cache() -> dict | None:
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
        size_bytes = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        if best is None or level >= best["level"]:
            best = {"level": level, "size": size, "bytes": size_bytes}
    return best


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def report(summary: dict, trace: bool, declared: dict) -> dict:
    """Prints the readable table; returns the JSON metrics."""
    name = summary["workload"].name
    samples = per_layer(summary) if trace else end_to_end(summary)
    wanted = declared["per_layer"] if trace else declared["end_to_end"]
    metrics = {}
    for metric in wanted:
        values = samples.get(metric["name"])
        if not values:
            print(f"{name:20s} {metric['name']:48s} missing")
            continue
        label, aggregate = AGGREGATES.get(metric["name"], MEDIAN)
        value = aggregate(values)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        spread = ""
        if len(values) >= 4:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"  q1 {q1:.6g}  q3 {q3:.6g}"
        print(f"{name:20s} {metric['name']:48s} {value:14.6g} {metric['unit']:6s}"
              f" ({label} of {len(values)}{spread})")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"{name:20s} {'failed_frac':48s} {failed / max(attempted, 1):14.6g} {'1':6s}"
          f" ({failed} of {attempted} commands)")
    for problem in summary["problems"][:20]:
        print(f"{name:20s} FAILED {problem}")
    for note in summary["notes"][:20]:
        print(f"{name:20s} NOTE {note}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "neuralfield" / "__init__.py").is_file():
        print(f"error: no neuralfield sources under {SRC}", file=sys.stderr)
        return 2
    declared = _declared()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = [run_workload(name, args.seed, args.seconds, bool(args.trace))
                 for name in names]
    print("environment " + json.dumps(environment(summaries), sort_keys=True))
    metrics = {}
    for summary in summaries:
        for key, value in report(summary, bool(args.trace), declared).items():
            metrics[key if len(names) == 1 else f"{summary['workload'].name}.{key}"] = value
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
