"""Record the key numbers of every workload input variant.

Usage (from the repository root): python3 perfbench/record_references.py

Runs each workload once per variant at benchmark size, requires every
check to pass, and writes ``perfbench/references.json``.  The benchmark
compares later runs against these values within ``workloads.REL_TOL``,
so rerun this only when the program's results are meant to change.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    references = {}
    for name, workload in workloads.WORKLOADS.items():
        references[name] = {}
        for variant in range(workloads.N_VARIANTS):
            bench_run = run.WorkloadRun(workload, variant, run.RUN_ROOT / "record" / name)
            bench_run.measure(trace=False)
            if bench_run.failed:
                print("\n".join(bench_run.problems), file=sys.stderr)
                return 1
            references[name][str(variant)] = bench_run.numbers
            print(f"{name} variant {variant}: {bench_run.numbers}", flush=True)
    with open(run.BENCH / "references.json", "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
