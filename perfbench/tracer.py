"""Outside-in span tracer for the ``neuralfield`` package.

The package binds functions by name at import time (``solver`` does
``from .discretization import apply_j_values``, ``cli`` binds
``compute_constants``, and so on), so a hook replaces every binding of the
target function object in every loaded ``neuralfield`` module, not only
the defining one.  Nothing inside the package changes.

Each call records a span (hook, start, end, parent span) in memory.  At
the end of a run the spans give inclusive time (``.s``), self time
(``.self_s``: duration minus the time covered by child spans) and call
counts per hook, plus work counts taken from call arguments and return
values.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

PACKAGE = "neuralfield"


def _count_j(args, result):
    values = args["values"]
    return {"plastic_calls": int(args["model"].gamma != 0.0),
            "pair_evals": int(values.shape[0]) ** 2}


def _count_steps(args, result):
    return {"steps": len(result.times) - 1}


def _count_picard(args, result):
    return {"iterations": result.iterations}


def _count_stationary(args, result):
    return {"iterations": result.iterations}


def _count_written(args, result):
    return {"bytes": os.path.getsize(args["path"])}


# (span name, module, attribute, counter over bound arguments and result,
# the counter's keys).  A key becomes the metric "<span name>.<key>" unless
# renamed in COUNT_NAMES.
HOOKS = (
    # cli.run is not reported itself: its self time (dispatch, manifest)
    # counts toward cli.self_s
    ("cli.run", "cli", "run", None, ()),
    ("cli.simulate", "cli", "cmd_simulate", None, ()),
    ("cli.gainfield", "cli", "cmd_gainfield", None, ()),
    ("cli.study", "cli", "cmd_study", None, ()),
    ("config.build_config", "config", "build_config", None, ()),
    ("discretization.build_operator", "discretization", "build_operator", None, ()),
    ("discretization.apply_j_values", "discretization", "apply_j_values", _count_j,
     ("plastic_calls", "pair_evals")),
    ("model.compute_constants", "model", "compute_constants", None, ()),
    ("solver.solve_global", "solver", "solve_global", _count_steps, ("steps",)),
    ("solver.picard_segment", "solver", "picard_segment", _count_picard, ("iterations",)),
    ("solver.monitor_bounds", "solver", "monitor_bounds", None, ()),
    ("stationary.find_stationary_fp", "stationary", "find_stationary_fp", _count_stationary,
     ("iterations",)),
    ("experiments.contraction_measure", "experiments", "contraction_measure", None, ()),
    ("experiments.plasticity_limit_study", "experiments", "plasticity_limit_study", None, ()),
    ("experiments.continuous_dependence_study", "experiments",
     "continuous_dependence_study", None, ()),
    ("experiments.l1_bound_study", "experiments", "l1_bound_study", None, ()),
    ("gainfield.build_learned_kernel", "gainfield", "build_learned_kernel", None, ()),
    ("gainfield.mercer_decompose", "gainfield", "mercer_decompose", None, ()),
    ("gainfield.presynaptic_gain", "gainfield", "presynaptic_gain", None, ()),
    ("gainfield.schrodinger_cross_check", "gainfield", "schrodinger_cross_check", None, ()),
    ("gainfield.simulate_gainfield", "gainfield", "simulate_gainfield", None, ()),
    ("io.write_csv", "io", "write_csv", _count_written, ("bytes",)),
    ("io.write_json", "io", "write_json", None, ()),
    ("io.sha256_file", "io", "sha256_file", _count_written, ("bytes",)),
)

COUNT_NAMES = {
    "solver.solve_global.steps": "solver.steps",
    "solver.picard_segment.iterations": "solver.picard_iterations",
    "stationary.find_stationary_fp.iterations": "stationary.iterations",
}

# layers whose summed self time is reported as "<layer>.self_s"
SELF_TIME_LAYERS = ("cli", "experiments")


class Tracer:
    """Installs the hooks and keeps every span in memory."""

    def __init__(self):
        self.spans = []        # [hook index, start, end, parent span index]
        self.counts = {}
        self.missing = []
        self._stack = []

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for index, (span_name, module, attr, counter, _) in enumerate(HOOKS):
            target = getattr(sys.modules.get(f"{PACKAGE}.{module}"), attr, None)
            if not callable(target):
                self.missing.append(span_name)
                continue
            wrapper = self._wrap(index, target, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, name, wrapper)

    def _wrap(self, index, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(fn) if counter is not None else None
        prefix = HOOKS[index][0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                for key, value in counter(bound.arguments, result).items():
                    name = f"{prefix}.{key}"
                    counts[name] = counts.get(name, 0) + value
            return result

        return traced

    def metrics(self, t0: float, t1: float) -> dict:
        """Per-layer metrics of the spans; [t0, t1] is the measured window."""
        names = [hook[0] for hook in HOOKS]
        total = dict.fromkeys(names, 0.0)
        own = dict.fromkeys(names, 0.0)
        calls = dict.fromkeys(names, 0)
        child_time = [0.0] * len(self.spans)
        top_level = 0.0
        for index, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for position, (index, start, end, parent) in enumerate(self.spans):
            name = names[index]
            total[name] += end - start
            own[name] += end - start - child_time[position]
            calls[name] += 1
            if parent < 0 and start >= t0 and end <= t1:
                top_level += end - start
        out = {}
        for name in names:
            if name in self.missing:
                continue
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
            out[f"{name}.calls"] = calls[name]
        for span_name, _, _, _, keys in HOOKS:
            if span_name in self.missing:
                continue
            for key in keys:
                name = f"{span_name}.{key}"
                out[COUNT_NAMES.get(name, name)] = self.counts.get(name, 0)
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = sum(own[n] for n in names if n.startswith(layer + "."))
        pairs = out.get("discretization.apply_j_values.pair_evals", 0)
        if pairs:
            out["discretization.apply_j_values.ns_per_pair"] = (
                out["discretization.apply_j_values.s"] / pairs * 1e9)
        elif "discretization.apply_j_values.s" in out:
            out["discretization.apply_j_values.ns_per_pair"] = 0.0
        out["trace.unspanned_s"] = (t1 - t0) - top_level
        return out

