"""Command-line entry points.

Subcommands: simulate, stationary, gainfield, schrodinger, study <name>,
constants, validate, each with its options in the table
``_COMMON_OPTIONS`` / ``_COMMANDS``.  ``parse_args`` reads the canonical
form ``COMMAND [NAME] --opt VALUE ...`` (exact option names) from that
table directly, so a scripted run never loads argparse; any other argv
(help, ``--version``, prefixes, ``--``, usage errors) goes to the argparse
tree ``_parser`` builds from the same table.
``run`` dispatches every command but validate from a
name -> ``cmd_*`` table, builds the run's one discrete operator and
computes the constants from it.  Each ``cmd_*`` takes the config, the
operator when it integrates the model, and the constants (schrodinger,
which reads no model, gets neither), reads ``cfg.document`` alone, writes
no file, and returns ``(artifacts, extra)``: file name -> JSON payload (a
dict) or CSV ``(header, rows)``, rows possibly a generator; ``extra`` goes
into the manifest.  ``main`` sets the config keys of the flags ``--seed``,
``--method``, ``--well`` and ``--lambda`` over the file and the ``NF_``
overrides and walks the document again, so a flag error exits 2 before
anything is written and the config echo is the run's.
A run with an output directory owns it exclusively; ``run`` alone writes
the artifacts, then a manifest.json with the config echo (a tabulated
kernel's tables as their shape and sha256), the constants and contraction
data (not for schrodinger), wall time, peak RSS, minor page faults, and the
sha256 of each artifact, taken as it was written.
A picard ``simulate`` also lists each segment's q, sweeps and update norms,
``stationary`` and ``gainfield`` the stationary solve's residual history,
``gainfield`` the sizes of the cross-check's condensed probe matrix.
The manifest is written even when the command fails, with an error
section, and is then the only file written; older files are not listed.
``constants`` may run without an output directory; it then only prints.
Study rows run serially; ``--threads`` is accepted and ignored.

Exit codes: 0 success, 1 numerical failure (a NeuralFieldError or
FloatingPointError), a failed study verdict or lock contention, 2 config
error, 3 a bug: any other exception, whose traceback goes to stderr once
the output lock is released.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import __version__
from .config import RunConfig, build_config, initial_state, parse_config
from .discretization import Grid, build_operator, make_quadrature
from .errors import NeuralFieldError, OutputLockedError, ParseError, SchemaError
from .experiments import (
    continuous_dependence_study,
    contraction_measure,
    l1_bound_study,
    plasticity_limit_study,
)
from .gainfield import (
    build_learned_kernel,
    mercer_decompose,
    presynaptic_gain,
    schrodinger_cross_check,
    schrodinger_fd,
    simulate_gainfield,
    square_well,
)
from .io import fmt, node_rows, output_lock, write_csv, write_json
from .model import compute_constants, contraction_factor
from .solver import SolverConfig, monitor_bounds, segment_length, solve_global
from .stationary import find_stationary_fp, stationary_via_flow

STUDY_NAMES = ("plasticity-limit", "dependence", "contraction", "l1")

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
EXIT_BUG = 3


def _coordinate_header(grid: Grid):
    return ["x"] if grid.dimension == 1 else ["x", "y"]


def _field_csv(grid: Grid, values, name="u"):
    return _coordinate_header(grid) + [name], node_rows(grid.points, values)


def _segment(cfg: RunConfig, constants) -> dict:
    """The picard segment length rho the config implies, and its factor q."""
    rho = segment_length(cfg.solver, constants, cfg.model.gamma)
    return {"rho": rho, "q": contraction_factor(constants, cfg.model.gamma, rho)}


def _config_echo(cfg: RunConfig) -> dict:
    """The config document as the manifest echoes it.  A tabulated kernel's
    ``matrix`` and ``nodes`` become ``{"shape", "sha256"}``, the digest of
    their little-endian float64 values in C order, not n^2 numbers."""
    kernel = cfg.model.kernel
    if kernel.kind != "tabulated":
        return cfg.document
    model = cfg.document["model"]
    params = dict(model["kernel"]["params"])
    for key in ("matrix", "nodes"):
        table = np.ascontiguousarray(kernel.params[key], dtype="<f8")
        params[key] = {"shape": list(table.shape), "sha256": hashlib.sha256(table).hexdigest()}
    return {**cfg.document, "model": {**model, "kernel": {**model["kernel"], "params": params}}}


def _emit_manifest(out_dir, command, cfg: RunConfig, started, faults_before,
                   checksums, extra=None, error=None, constants=None):
    usage = resource.getrusage(resource.RUSAGE_SELF)
    manifest = {
        "command": command,
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
        # the process peak (ru_maxrss is in KiB on Linux) and this run's faults
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "minor_page_faults": usage.ru_minflt - faults_before,
        "checksums": checksums,
        "config": _config_echo(cfg),
        "seed": cfg.seed,
    }
    if constants is not None:
        manifest["constants"] = asdict(constants)
        manifest.update(_segment(cfg, constants))
    if extra:
        manifest.update(extra)
    if error is not None:
        manifest["error"] = error
    write_json(out_dir / "manifest.json", manifest)


def _fixed_point(cfg: RunConfig, op, u0, constants):
    """The stationary fixed point under the config's ``stationary`` settings."""
    if cfg.grid.boundary != "compact":
        raise SchemaError(["grid: the stationary fixed-point solve needs a compact grid"])
    section = cfg.document["stationary"]
    return find_stationary_fp(cfg.model, op, u0, constants, damping=section["damping"],
                              tol=section["tol"], max_iter=section["max_iter"])


def cmd_simulate(cfg: RunConfig, op, constants):
    traj = solve_global(cfg.model, op, cfg.initial, cfg.solver, constants)
    report = monitor_bounds(traj, constants, cfg.model)

    nodes = np.column_stack([np.arange(cfg.grid.n_total), cfg.grid.points])
    bound_rows = [
        [traj.times[n], report.sup_per_time[n], report.bound_theoretical, report.min_per_time[n]]
        for n in range(len(traj))
    ]
    extra = {
        "bound_report": {
            "sup_observed": report.sup_observed,
            "bound": report.bound_theoretical,
            "within_bound": report.within_bound,
            "min_observed": report.min_observed,
            "positivity_applicable": report.positivity_applicable,
            "positivity_violations": report.positivity_violations,
        }
    }
    if traj.picard_segments:
        extra["picard_segments"] = [asdict(seg) for seg in traj.picard_segments]
    return {
        "trajectory.csv": (["t", "node_index"] + _coordinate_header(cfg.grid) + ["u"],
                           node_rows(nodes, traj.values, traj.times)),
        "bounds.csv": (["t", "sup_u", "bound", "min_u"], bound_rows),
    }, extra


def cmd_stationary(cfg: RunConfig, op, constants):
    u0 = cfg.initial
    section = cfg.document["stationary"]
    if section["method"] == "fp":
        result = _fixed_point(cfg, op, u0, constants)
    else:
        result = stationary_via_flow(cfg.model, op, u0, t_max=section["t_max"],
                                     settle_tol=section["settle_tol"], dt=section["dt"])
    payload = {
        "method": result.method,
        "residual": result.residual_sup,
        "iterations": result.iterations,
        "converged": result.converged,
        # existence is only guaranteed for gamma * Cw < 1; surface the product
        "gamma_times_cw": cfg.model.gamma * constants.kernel_l1_sup,
    }
    return ({"u_inf.csv": _field_csv(cfg.grid, result.u_inf), "stationary.json": payload},
            {"stationary": payload, "stationary_history": result.history})


def cmd_gainfield(cfg: RunConfig, op, constants):
    u0 = cfg.initial
    section = cfg.document["gainfield"]
    stationary = _fixed_point(cfg, op, u0, constants)
    learned = build_learned_kernel(stationary.u_inf, cfg.model, cfg.grid)
    eig = mercer_decompose(learned, cfg.quadrature, n_eigs=section["n_eigs"])
    phi_pre = presynaptic_gain(learned, k_pre=section["k_pre"])

    lam = section["lambda"]
    box = section["crosscheck_box"]
    n_nodes = section["crosscheck_nodes"]
    cross_grid = Grid(bounds=[(-box, box)], npts=[n_nodes])
    cross_quad = make_quadrature(cross_grid, "trapezoid")
    crosscheck, condensed = schrodinger_cross_check(lam, section["half_width"], cross_grid,
                                                    cross_quad)

    # exploratory: frozen-gain run against the plastic run.  For w >= 0 and a
    # nondecreasing f >= 0, J(u) <= (1 + gamma) W f(u) and the gained
    # exp-euler map is monotone, so by induction plastic <= gained at every
    # step when phi_pre >= 1 + gamma, i.e. K_pre >= 1 (phi_pre is K_pre
    # (1 + gamma), recorded under "mercer"); reported, not asserted
    probe_cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=5.0)
    plastic = solve_global(cfg.model, op, u0, probe_cfg, constants)
    gained = simulate_gainfield(op, phi_pre, cfg.model.firing, u0, probe_cfg)
    tail = slice(len(plastic.times) // 2, None)
    above = float(np.mean(gained.values[tail] > plastic.values[tail]))
    exploratory = {
        "sup_diff_gain_vs_plastic": float(np.max(np.abs(gained.values - plastic.values))),
        "fraction_gain_above_plastic_late": above,
    }
    n_eigs = min(section["n_eigs"], eig.values.shape[0])
    return {
        "eigs.csv": (["i", "sigma_i"], [[i, eig.values[i]] for i in range(n_eigs)]),
        "phi_pre.csv": _field_csv(cfg.grid, phi_pre, "phi"),
        "crosscheck.json": crosscheck,
    }, {
        "stationary_residual": stationary.residual_sup,
        "stationary_iterations": stationary.iterations,
        "stationary_history": stationary.history,
        "mercer": {"rank": len(eig.values), "eig_error_bound": eig.error_bound,
                   "k_pre_times_one_plus_gamma": section["k_pre"] * (1.0 + cfg.model.gamma)},
        "crosscheck": crosscheck,
        # the probes' matrix sizes; manifest only, crosscheck.json is checksummed
        "crosscheck_condensed": condensed,
        "exploratory": exploratory,
    }


def cmd_schrodinger(cfg: RunConfig):
    section = cfg.document["schrodinger"]
    half_width, height, lam = section["half_width"], section["height"], section["lambda"]
    grid = Grid(bounds=[(-section["box"], section["box"])], npts=[section["nodes"]])
    potential = square_well(grid.axis_nodes[0], half_width, height)
    eig = schrodinger_fd(potential, grid, n_states=section["n_states"])
    payload = {
        "half_width": half_width,
        "height": height,
        "energies": [float(e) for e in eig.values],
    }
    if lam is not None:
        payload["lambda"] = lam
        payload["base_gain_for_consistency"] = [float(e) + lam * lam for e in eig.values]
    return {
        "eigs.csv": (["i", "energy"], [[i, eig.values[i]] for i in range(eig.values.shape[0])]),
        "ground_state.csv": _field_csv(grid, eig.functions[:, 0]),
        "schrodinger.json": payload,
    }, {"schrodinger": payload}


def _study_initials(cfg: RunConfig, names):
    """The run's initial field as ``initial``; ``zero`` and ``step`` at their defaults."""
    return [(name, cfg.initial if name == "initial" else initial_state(cfg, name, {}))
            for name in names]


def cmd_study(cfg: RunConfig, op, constants, study_name):
    u0 = cfg.initial
    section = cfg.document["study"]

    if study_name == "plasticity-limit":
        s = section["plasticity"]
        solver_cfg = SolverConfig(method=s["method"], dt=s["dt"], t_end=s["t_end"])
        rows, verdict = plasticity_limit_study(cfg.model, op, s["gamma_list"], u0,
                                               solver_cfg, slack=s["slack"])
    elif study_name == "dependence":
        s = section["dependence"]
        rows, verdict = continuous_dependence_study(cfg.model, op, u0, s["eps_list"],
                                                    constants, rho=s["rho"], dt=s["dt"],
                                                    slack_coeff=s["slack_coeff"])
    elif study_name == "contraction":
        s = section["contraction"]
        rows, verdict = contraction_measure(cfg.model, op, constants, rho=s["rho"],
                                            n_pairs=s["n_pairs"], seed=cfg.seed,
                                            time_steps=s["time_steps"], slack=s["slack"])
    elif study_name == "l1":
        s = section["l1"]
        initials = _study_initials(cfg, s["initials"])
        solver_cfg = SolverConfig(method="exp-euler", dt=s["dt"], t_end=s["t_end"])
        model = cfg.model if s["gamma"] is None else replace(cfg.model, gamma=s["gamma"])
        rows, verdict = l1_bound_study(model, op, initials, solver_cfg, constants,
                                       slack=s["slack"])
    else:
        raise SchemaError([f"study: unknown study {study_name!r}"])

    artifacts = {"verdict.json": verdict}
    if rows:
        artifacts[f"{study_name}.csv"] = (list(rows[0]), [list(row.values()) for row in rows])
    return artifacts, {"verdict": verdict}


def cmd_constants(cfg: RunConfig, constants):
    payload = {"constants": asdict(constants), "gamma": cfg.model.gamma,
               **_segment(cfg, constants)}
    for key, value in payload["constants"].items():
        print(f"{key}: {value if isinstance(value, str) else fmt(float(value))}")
    print(f"rho: {fmt(payload['rho'])}")
    print(f"q: {fmt(payload['q'])}")
    return {"constants.json": payload}, {"constants_report": payload}


def run(command: str, cfg: RunConfig, out_dir, study_name=None) -> int:
    """Dispatch a validated config; with out_dir, write its artifacts, then a manifest."""
    # built per call, so the table holds the module's current cmd_* bindings
    commands = {
        "simulate": cmd_simulate,
        "stationary": cmd_stationary,
        "gainfield": cmd_gainfield,
        "schrodinger": cmd_schrodinger,
        "study": partial(cmd_study, study_name=study_name),
        "constants": cmd_constants,
    }
    started = time.perf_counter()
    faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    constants = extra = error = None
    checksums = {}
    status = EXIT_OK
    with output_lock(out_dir) if out_dir is not None else nullcontext() as out:
        try:
            if command not in commands:
                raise SchemaError([f"command: unknown command {command!r}"])
            # one operator and one computation of the constants serve every
            # command and the manifest
            args = ()
            if command != "schrodinger":
                op = build_operator(cfg.model.kernel, cfg.grid, cfg.quadrature)
                constants = compute_constants(cfg.model, op)
                args = (constants,) if command == "constants" else (op, constants)
            artifacts, extra = commands[command](cfg, *args)
            if out is not None:
                for name, artifact in artifacts.items():
                    checksums[name] = (write_json(out / name, artifact) if isinstance(artifact, dict)
                                       else write_csv(out / name, *artifact))
        except SchemaError as exc:
            error = {"type": "SchemaError", "violations": exc.violations}
            for violation in exc.violations:
                print(f"config error: {violation}", file=sys.stderr)
            status = EXIT_CONFIG
        except (NeuralFieldError, FloatingPointError) as exc:
            error = {"type": type(exc).__name__, "message": str(exc)}
            print(f"numerical failure: {exc}", file=sys.stderr)
            status = EXIT_NUMERICAL
        if out is not None:
            _emit_manifest(out, command, cfg, started, faults_before, checksums, extra=extra,
                           error=error, constants=constants)
    verdict = (extra or {}).get("verdict")
    if verdict is not None and not verdict["pass"]:
        print("study verdict: FAIL (measured exceeded bound + slack)", file=sys.stderr)
        return EXIT_NUMERICAL
    return status


# option -> (namespace field, value type or tuple of choices, help)
_COMMON_OPTIONS = {
    "--config": ("config", str, "JSON config file (defaults apply when omitted)"),
    "--out": ("out", str, "output directory (required for artifact commands)"),
    "--seed": ("seed", int, "override the config seed"),
    "--threads": ("threads", int, "accepted and ignored; study rows run serially"),
}
# command -> (help, its options beside the common ones, choices of its positional name)
_COMMANDS = {
    "simulate": ("integrate the field equation", {}, None),
    "stationary": ("solve for a stationary state",
                   {"--method": ("method", ("fp", "flow"), "override the config method")}, None),
    "gainfield": ("learned kernel, spectral split, gain field, cross-check", {}, None),
    "schrodinger": ("standalone eigensolver",
                    {"--well": ("well", str, "square well as 'half_width,height'"),
                     "--lambda": ("lam", float, "kernel decay rate")}, None),
    "study": ("run a verification study", {}, STUDY_NAMES),
    "constants": ("print the model constants", {}, None),
    "validate": ("validate a config file", {}, None),
}


def _canonical(argv) -> SimpleNamespace | None:
    """The namespace argparse returns for ``argv`` when it is in the one form
    scripts and the benchmark use: the command, then tokens each
    ``--opt VALUE`` (VALUE not starting with "-") or ``--opt=VALUE`` with an
    exact option name of the command, or, for ``study``, its one name; each
    value of its type or among its choices.  Else None: nothing is printed
    or raised, and ``_parser`` reads the argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = argv[0]
    _, extra, names = _COMMANDS[command]
    options = {**_COMMON_OPTIONS, **extra}
    fields = {**dict.fromkeys(field for field, _, _ in options.values()),
              "command": command, "threads": 1}
    args = iter(argv[1:])
    for arg in args:
        if arg[:1] != "-":
            if not names or arg not in names or "name" in fields:
                return None
            fields["name"] = arg
            continue
        option, eq, value = arg.partition("=")
        if option not in options:
            return None
        if not eq:
            value = next(args, None)
            if value is None or value[:1] == "-":
                return None
        field, kind, _ = options[option]
        if isinstance(kind, tuple):
            if value not in kind:
                return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
        fields[field] = value
    if names and "name" not in fields:
        return None
    return SimpleNamespace(**fields)


def _parser():
    """The argparse tree of the option table: it reads every argv that
    ``_canonical`` declines, with argparse's grammar, help and messages."""
    import argparse  # loaded only off the canonical path

    parser = argparse.ArgumentParser(prog="neuralfield",
                                     description="Neural field simulation and bound verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (about, extra, names) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=about)
        for option, (field, kind, text) in {**_COMMON_OPTIONS, **extra}.items():
            check = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            cmd.add_argument(option, dest=field, help=text, **check)
        if names:
            cmd.add_argument("name", choices=names)
        cmd.set_defaults(threads=1)
    return parser


def parse_args(argv=None):
    """The command and its fields from ``argv`` (default ``sys.argv[1:]``)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return _canonical(argv) or _parser().parse_args(argv)


def _flag_keys(args) -> dict:
    """{(section, key): value} of each flag given; section "" is the document root."""
    keys = {("", "seed"): args.seed,
            ("stationary", "method"): getattr(args, "method", None),
            ("schrodinger", "lambda"): getattr(args, "lam", None)}
    if getattr(args, "well", None) is not None:
        try:
            half_width, height = (float(part) for part in args.well.split(","))
        except ValueError:
            raise SchemaError(["--well: expected 'half_width,height'"]) from None
        keys["schrodinger", "half_width"], keys["schrodinger", "height"] = half_width, height
    return {path: value for path, value in keys.items() if value is not None}


def main(argv=None) -> int:
    args = parse_args(argv)

    try:
        cfg = parse_config(args.config) if args.config is not None else build_config({})
        # flags come last: set over the file and NF_, then walked once more
        flags = _flag_keys(args)
        for (section, key), value in flags.items():
            (cfg.document[section] if section else cfg.document)[key] = value
        if flags:
            cfg = build_config(cfg.document, environ={})
    except (ParseError, SchemaError) as exc:
        if isinstance(exc, SchemaError):
            for violation in exc.violations:
                print(f"config error: {violation}", file=sys.stderr)
        else:
            print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        print("config ok")
        return EXIT_OK

    if args.out is None and args.command != "constants":
        print("error: --out is required for this command", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return run(args.command, cfg, args.out, study_name=getattr(args, "name", None))
    except OutputLockedError as exc:
        # lock contention surfaces here, before any manifest can exist
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception:  # unclassified: a bug or an environment fault; the lock is released
        import traceback  # loaded only here, off every run's import path
        traceback.print_exc()
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
