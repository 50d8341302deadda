"""One measured run of a workload, in a fresh Python process.

Usage: python3 child.py SPEC.json

SPEC names the package source directory, the config files, the CLI argvs
to run through ``neuralfield.cli.main``, whether to trace, and the path
of the result file this process writes.  Set-up ends once
``neuralfield`` is imported and every config has passed ``build_config``;
the measured window runs from the first ``cli.main`` call to the return
of the last.  The parent takes the start time just before it spawns this
process; ``time.perf_counter`` reads the same monotonic clock in both.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, spec["bench"])

    import neuralfield.cli as cli
    from neuralfield.config import parse_config

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    for path in spec["configs"]:
        parse_config(path)
    setup_end = time.perf_counter()

    result = {"setup_end": setup_end}
    if spec["setup_only"]:
        import numpy
        import scipy

        result["software"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas_name(numpy),
        }
    else:
        exit_codes = []
        t0 = time.perf_counter()
        for argv in spec["commands"]:
            try:
                exit_codes.append(cli.main(argv))
            except Exception:  # a crash is a failed command, the run goes on
                traceback.print_exc()
                exit_codes.append("exception")
        t1 = time.perf_counter()
        result["wall_s"] = t1 - t0
        result["exit_codes"] = exit_codes
        if tracer is not None:
            result["layers"] = tracer.metrics(t0, t1)
            result["missing"] = tracer.missing
            result["spans"] = tracer.spans
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _blas_name(numpy) -> str:
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
