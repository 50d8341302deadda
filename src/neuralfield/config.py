"""Run configuration: one schema table of keys, defaults and rules.

``SCHEMA`` is the single list of config keys, each with its default and its
rule; ``DEFAULT_CONFIG`` is derived from it.  One walk over the table fills
defaults, applies ``NF_`` environment overrides named by the uppercased key
path (``NF_MODEL_GAMMA=0.5``, ``NF_SOLVER_PICARD_TOL=1e-8``), reports unknown
keys and checks every leaf.  A ``params`` section is filled from its kind's
table of defaults (``KERNEL_DEFAULTS`` for ``model.kernel``, and so on), so
the echo lists every parameter a run used and ``NF_`` variables reach every
filled key.  Rules tying keys together live only in
the model, grid, quadrature and solver constructors, whose errors become
violations too.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .discretization import (BOUNDARIES, QUADRATURE_RULES, FieldState, Grid, Quadrature,
                             make_quadrature)
from .errors import ParseError, SchemaError
from .model import (FIRING_DEFAULTS, KERNEL_DEFAULTS, LEARNING_DEFAULTS, MODEL_MODES,
                    ModelSpec)
from .solver import SOLVER_METHODS, SolverConfig

ENV_PREFIX = "NF_"


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


# A rule is (predicate, what): a value failing the predicate is reported as
# "<dotted path>: must be <what>".
POSITIVE = (lambda x: _is_number(x) and x > 0, "a positive number")
NONNEGATIVE = (lambda x: _is_number(x) and x >= 0, "a nonnegative number")
UNIT_INTERVAL = (lambda x: _is_number(x) and 0 < x <= 1, "a number in (0, 1]")
COUNT = (lambda x: _is_int(x) and x >= 1, "a positive integer")
NODE_COUNT = (lambda x: _is_int(x) and x >= 3, "an integer >= 3")
SEED = (lambda x: _is_int(x) and x >= 0, "a nonnegative integer")
PAIR = (lambda x: isinstance(x, list) and len(x) == 2 and all(_is_number(v) for v in x),
        "a pair of numbers [lo, hi]")
# a kind's params: its leaf's default is the table of every kind's defaults,
# and the constructor of the kind checks them
PARAMS = (lambda x: isinstance(x, dict), "an object")


def _one_of(options):
    options = tuple(options)  # a list given as a kind is then reported, not raised on
    return (lambda x: x in options, f"one of {list(options)}")


def _nullable(rule):
    predicate, what = rule
    return (lambda x: x is None or predicate(x), f"null or {what}")


def _list_of(rule):
    predicate, what = rule
    return (lambda x: isinstance(x, list) and len(x) > 0 and all(predicate(v) for v in x),
            f"a nonempty list, each entry {what}")


DESCENDING = (lambda x: isinstance(x, list) and len(x) >= 2 and all(POSITIVE[0](v) for v in x)
              and x == sorted(x, reverse=True),
              "a descending list of at least two positive numbers")

INITIAL_DEFAULTS = {
    "zero": {},
    "constant": {"value": 0.2},
    "gaussian-bump": {"amplitude": 0.5, "center": 0.0, "width": 2.0},
    "step": {"low": 0.0, "high": 1.0, "split": None},
}

SCHEMA = {
    "model": {
        "kernel": {"kind": ("exponential", _one_of(KERNEL_DEFAULTS)),
                   "params": (KERNEL_DEFAULTS, PARAMS)},
        "firing": {"kind": ("sigmoid", _one_of(FIRING_DEFAULTS)),
                   "params": (FIRING_DEFAULTS, PARAMS)},
        "learning": {"kind": ("gaussian", _one_of(LEARNING_DEFAULTS)),
                     "params": (LEARNING_DEFAULTS, PARAMS)},
        "gamma": (1.0, NONNEGATIVE),
        "mode": ("well-posed", _one_of(MODEL_MODES)),
    },
    "grid": {
        "bounds": ([[-10.0, 10.0]], _list_of(PAIR)),
        "nodes": ([401], _list_of(NODE_COUNT)),
        "boundary": ("compact", _one_of(BOUNDARIES)),
    },
    "quadrature": ("trapezoid", _one_of(QUADRATURE_RULES)),
    "solver": {
        "method": ("exp-euler", _one_of(SOLVER_METHODS)),
        "dt": (0.05, POSITIVE),
        "t_end": (10.0, POSITIVE),
        "segment_rho": (None, _nullable(POSITIVE)),
        "picard_tol": (1e-10, POSITIVE),
        "picard_max_iter": (200, COUNT),
    },
    "initial": {"kind": ("gaussian-bump", _one_of(INITIAL_DEFAULTS)),
                "params": (INITIAL_DEFAULTS, PARAMS)},
    "seed": (12345, SEED),
    "stationary": {
        "method": ("fp", _one_of(("fp", "flow"))),
        "damping": (0.5, UNIT_INTERVAL),
        "tol": (1e-9, POSITIVE),
        "max_iter": (5000, COUNT),
        "t_max": (500.0, POSITIVE),
        "settle_tol": (1e-8, POSITIVE),
        "dt": (0.1, POSITIVE),
    },
    "gainfield": {
        "lambda": (1.0, POSITIVE),
        "half_width": (1.0, POSITIVE),
        "k_pre": (1.0, POSITIVE),
        "n_eigs": (12, COUNT),
        "crosscheck_box": (20.0, POSITIVE),
        "crosscheck_nodes": (2001, NODE_COUNT),
    },
    "schrodinger": {
        "half_width": (1.0, POSITIVE),
        "height": (2.0, NONNEGATIVE),
        "box": (20.0, POSITIVE),
        "nodes": (2001, NODE_COUNT),
        "n_states": (4, COUNT),
        "lambda": (None, _nullable(POSITIVE)),
    },
    "study": {
        "plasticity": {
            "gamma_list": ([0.4, 0.2, 0.1, 0.05, 0.025], DESCENDING),
            "t_end": (10.0, POSITIVE),
            "dt": (0.05, POSITIVE),
            # picard picks its segment length per gamma, so its runs would
            # not share the reference run's time lattice
            "method": ("rk4", _one_of(("exp-euler", "rk4"))),
            "slack": (0.0, NONNEGATIVE),
        },
        "dependence": {
            "eps_list": ([0.2, 0.1, 0.05], _list_of(NONNEGATIVE)),
            "rho": (None, _nullable(POSITIVE)),
            "dt": (0.001, POSITIVE),
            "slack_coeff": (10.0, NONNEGATIVE),
        },
        "contraction": {
            "n_pairs": (200, COUNT),
            "rho": (None, _nullable(POSITIVE)),
            "time_steps": (8, COUNT),
            "slack": (0.01, NONNEGATIVE),
        },
        # the L1 bound has no (1 + gamma) factor, so the default isolates the
        # unconditional gamma = 0 case; null inherits the model's gamma
        "l1": {
            "t_end": (20.0, POSITIVE),
            "dt": (0.05, POSITIVE),
            "slack": (1e-6, NONNEGATIVE),
            "gamma": (0.0, _nullable(NONNEGATIVE)),
            "initials": (["zero", "step", "initial"], _list_of(_one_of(("zero", "step", "initial")))),
        },
    },
}


def _overrides(env, path, keys):
    """The NF_ overrides of the children ``keys`` of ``path``, parsed as JSON
    where possible; each variable used is removed from ``env``."""
    found = {}
    for key in keys:
        raw = env.pop(ENV_PREFIX + "_".join(path + (key,)).upper(), None)
        if raw is not None:
            try:
                found[key] = json.loads(raw)
            except json.JSONDecodeError:
                found[key] = raw
    return found


def _walk(schema, given, path, env, violations):
    """``given`` merged over the defaults of ``schema`` with the NF_ overrides
    in ``env`` applied; unknown keys and failed leaf rules become violations."""
    if not isinstance(given, dict):
        violations.append(f"{'.'.join(path) or '<root>'}: expected an object")
        given = {}
    given = {**given, **_overrides(env, path, schema)}
    for key in sorted(set(given) - set(schema)):
        violations.append(f"{'.'.join(path + (key,))}: unknown key")
    doc = {}
    for key, spec in schema.items():
        here = path + (key,)
        if isinstance(spec, dict):
            doc[key] = _walk(spec, given.get(key, {}), here, env, violations)
            continue
        default, (predicate, what) = spec
        value = copy.deepcopy(given.get(key, {} if spec[1] is PARAMS else default))
        if spec[1] is PARAMS and isinstance(value, dict):
            # the section's kind, walked first, fills its defaults under the
            # given params; an unknown kind fills none and its rule reports it
            kind = doc["kind"]
            value = {**(default.get(kind, {}) if isinstance(kind, str) else {}), **value}
            value.update(_overrides(env, here, value))
        if not predicate(value):
            violations.append(f"{'.'.join(here)}: must be {what}")
        doc[key] = value
    return doc


DEFAULT_CONFIG = _walk(SCHEMA, {}, (), {}, [])


@dataclass
class RunConfig:
    """Validated configuration with constructed objects and the echo document."""

    model: ModelSpec
    grid: Grid
    quadrature: Quadrature
    solver: SolverConfig
    seed: int
    document: dict
    initial: FieldState | None = None


def _construct(section, violations, build, *args):
    """build(*args), or None with its error recorded as a violation of ``section``."""
    try:
        return build(*args)
    except (ValueError, TypeError) as exc:
        violations.append(f"{section}: {exc}")
        return None


def build_config(user_doc: dict, environ=None) -> RunConfig:
    """Merge, override, validate, and construct a RunConfig."""
    violations = []
    env = {name.upper(): raw for name, raw in (os.environ if environ is None else environ).items()
           if name.startswith(ENV_PREFIX)}
    doc = _walk(SCHEMA, user_doc, (), env, violations)
    violations.extend(f"environment override {name}: no matching config key" for name in sorted(env))
    if violations:
        raise SchemaError(violations)

    g = doc["grid"]
    model = _construct("model", violations, ModelSpec.from_json, doc["model"])
    grid = _construct("grid", violations, Grid, g["bounds"], g["nodes"], g["boundary"])
    solver = _construct("solver", violations, lambda s: SolverConfig(**s), doc["solver"])
    cfg = RunConfig(model=model, grid=grid, quadrature=None, solver=solver,
                    seed=doc["seed"], document=doc)
    if grid is not None:
        cfg.quadrature = _construct("quadrature", violations, make_quadrature, grid,
                                    doc["quadrature"])
        cfg.initial = _construct("initial", violations, initial_state, cfg)
    if violations:
        raise SchemaError(violations)
    return cfg


def parse_config(path, environ=None) -> RunConfig:
    """Load a JSON config file and validate it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        user_doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user_doc, dict):
        raise ParseError(f"config {path} must contain a JSON object")
    return build_config(user_doc, environ=environ)


def initial_state(cfg: RunConfig, kind: str | None = None, params: dict | None = None) -> FieldState:
    """Build the initial field from the config's initial section (or overrides)."""
    section = cfg.document["initial"]
    kind = kind or section["kind"]
    if kind not in INITIAL_DEFAULTS:
        raise ValueError(f"unknown initial kind {kind!r}")
    merged = {**INITIAL_DEFAULTS[kind], **(section["params"] if params is None else params)}
    extra = set(merged) - set(INITIAL_DEFAULTS[kind])
    if extra:
        raise ValueError(f"initial kind {kind!r} got unexpected params {sorted(extra)}")
    pts = cfg.grid.points
    x = pts[:, 0]
    if kind == "zero":
        values = np.zeros(cfg.grid.n_total)
    elif kind == "constant":
        values = np.full(cfg.grid.n_total, float(merged["value"]))
    elif kind == "gaussian-bump":
        center = np.atleast_1d(np.asarray(merged["center"], dtype=float))
        r2 = np.sum((pts - center) ** 2, axis=1)
        values = float(merged["amplitude"]) * np.exp(-r2 / (2.0 * float(merged["width"]) ** 2))
    else:  # step: indicator of the left half of the first axis
        split = merged["split"]
        if split is None:
            a, b = cfg.grid.bounds[0]
            split = 0.5 * (a + b)
        values = np.where(x < float(split), float(merged["high"]), float(merged["low"]))
    return FieldState(values)
