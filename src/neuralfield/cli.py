"""Command-line entry points.

Subcommands: simulate, stationary, gainfield, schrodinger, study <name>,
constants, validate.  ``run`` dispatches every command but validate from a
name -> ``cmd_*`` table; each ``cmd_*`` takes the config, the output
directory and the constants (None for schrodinger, which reads no model),
plus its own options.  Every run that writes artifacts owns its output
directory exclusively, emits CSV series plus a manifest.json with the full
config echo, the computed constants and contraction data (not for
schrodinger), wall time, peak RSS, the run's minor page faults, and a
checksum per emitted file.  The manifest is written even when the run
fails, with an error section.  ``constants`` may run without an output
directory; it then only prints.  Study rows run serially; ``--threads`` is
accepted for compatibility and ignored.

Exit codes: 0 success, 1 numerical failure (a NeuralFieldError or
FloatingPointError), 2 config error.  Any other exception is a bug: it
propagates with its traceback once the output lock is released.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, build_config, check_section, initial_state, parse_config
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
from .io import fmt, node_rows, output_lock, sha256_file, write_csv, write_json
from .model import compute_constants, contraction_factor
from .solver import SolverConfig, monitor_bounds, segment_length, solve_global
from .stationary import find_stationary_fp, stationary_via_flow

STUDY_NAMES = ("plasticity-limit", "dependence", "contraction", "l1")

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


def _coordinate_header(grid: Grid):
    return ["x"] if grid.dimension == 1 else ["x", "y"]


def _write_field_csv(path, grid: Grid, values, name="u"):
    write_csv(path, _coordinate_header(grid) + [name], node_rows(grid.points.tolist(), values))


def _segment(cfg: RunConfig, constants) -> dict:
    """The picard segment length rho the config implies, and its factor q."""
    rho = segment_length(cfg.solver, constants, cfg.model.gamma)
    return {"rho": rho, "q": contraction_factor(constants, cfg.model.gamma, rho)}


def _emit_manifest(out_dir, command, cfg: RunConfig | None, started, faults_before,
                   extra=None, error=None, constants=None):
    usage = resource.getrusage(resource.RUSAGE_SELF)
    manifest = {
        "command": command,
        "version": __version__,
        "wall_time_s": time.time() - started,
        # the process peak (ru_maxrss is in KiB on Linux) and this run's faults
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "minor_page_faults": usage.ru_minflt - faults_before,
    }
    if cfg is not None:
        manifest["config"] = cfg.document
        manifest["seed"] = cfg.seed
    if constants is not None:
        manifest["constants"] = constants.to_json()
        manifest.update(_segment(cfg, constants))
    if extra:
        manifest.update(extra)
    if error is not None:
        manifest["error"] = error
    checksums = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.name in ("manifest.json", ".lock") or path.suffix == ".tmp":
            continue
        checksums[path.name] = sha256_file(path)
    manifest["checksums"] = checksums
    write_json(Path(out_dir) / "manifest.json", manifest)


def _operator(cfg: RunConfig):
    return build_operator(cfg.model.kernel, cfg.grid, cfg.quadrature)


def _fixed_point(cfg: RunConfig, op, u0, constants):
    """The stationary fixed point under the config's ``stationary`` settings."""
    if cfg.grid.boundary != "compact":
        raise SchemaError(["grid: the stationary fixed-point solve needs a compact grid"])
    section = cfg.document["stationary"]
    return find_stationary_fp(cfg.model, op, u0, constants, damping=section["damping"],
                              tol=section["tol"], max_iter=section["max_iter"])


def cmd_simulate(cfg: RunConfig, out_dir, constants):
    op = _operator(cfg)
    u0 = initial_state(cfg)
    traj = solve_global(cfg.model, op, u0, cfg.solver, constants)
    report = monitor_bounds(traj, constants, cfg.model)

    nodes = [[i, *point] for i, point in enumerate(cfg.grid.points.tolist())]
    write_csv(Path(out_dir) / "trajectory.csv",
              ["t", "node_index"] + _coordinate_header(cfg.grid) + ["u"],
              node_rows(nodes, traj.values, traj.times))

    bound_rows = [
        [traj.times[n], report.sup_per_time[n], report.bound_theoretical, report.min_per_time[n]]
        for n in range(len(traj))
    ]
    write_csv(Path(out_dir) / "bounds.csv", ["t", "sup_u", "bound", "min_u"], bound_rows)
    return {
        "bound_report": {
            "sup_observed": report.sup_observed,
            "bound": report.bound_theoretical,
            "within_bound": report.within_bound,
            "min_observed": report.min_observed,
            "positivity_applicable": report.positivity_applicable,
            "positivity_violations": report.positivity_violations,
        }
    }


def cmd_stationary(cfg: RunConfig, out_dir, constants, method=None):
    op = _operator(cfg)
    u0 = initial_state(cfg)
    section = cfg.document["stationary"]
    method = method or section["method"]
    if method == "fp":
        result = _fixed_point(cfg, op, u0, constants)
    else:
        result = stationary_via_flow(cfg.model, op, u0, t_max=section["t_max"],
                                     settle_tol=section["settle_tol"], dt=section["dt"])
    _write_field_csv(Path(out_dir) / "u_inf.csv", cfg.grid, result.u_inf)
    payload = {
        "method": result.method,
        "residual": result.residual_sup,
        "iterations": result.iterations,
        "converged": result.converged,
        # existence is only guaranteed for gamma * Cw < 1; surface the product
        "gamma_times_cw": cfg.model.gamma * constants.kernel_l1_sup,
    }
    write_json(Path(out_dir) / "stationary.json", payload)
    return {"stationary": payload}


def cmd_gainfield(cfg: RunConfig, out_dir, constants):
    op = _operator(cfg)
    u0 = initial_state(cfg)
    section = cfg.document["gainfield"]
    stationary = _fixed_point(cfg, op, u0, constants)
    learned = build_learned_kernel(stationary.u_inf, cfg.model, cfg.grid, sign=section["sign"])
    eig = mercer_decompose(learned, cfg.quadrature, n_eigs=section["n_eigs"])
    phi_pre = presynaptic_gain(eig, k_pre=section["k_pre"])

    n_eigs = min(section["n_eigs"], eig.values.shape[0])
    write_csv(Path(out_dir) / "eigs.csv", ["i", "sigma_i"],
              [[i, eig.values[i]] for i in range(n_eigs)])
    _write_field_csv(Path(out_dir) / "phi_pre.csv", cfg.grid, phi_pre, "phi")

    lam = section["lambda"]
    box = section["crosscheck_box"]
    n_nodes = section["crosscheck_nodes"]
    cross_grid = Grid(bounds=[(-box, box)], npts=[n_nodes])
    cross_quad = make_quadrature(cross_grid, "trapezoid")
    report = schrodinger_cross_check(lam, section["half_width"], cross_grid, cross_quad)
    write_json(Path(out_dir) / "crosscheck.json", report.to_json())

    # exploratory only: frozen-gain run against the plastic run (the ordering
    # claim between them is unproved, so nothing here is asserted)
    probe_cfg = SolverConfig(method="exp-euler", dt=0.1, t_end=5.0)
    plastic = solve_global(cfg.model, op, u0, probe_cfg, constants)
    gained = simulate_gainfield(op, phi_pre, cfg.model.firing, u0, probe_cfg)
    tail = slice(len(plastic.times) // 2, None)
    above = float(np.mean(gained.values[tail] > plastic.values[tail]))
    exploratory = {
        "sup_diff_gain_vs_plastic": float(np.max(np.abs(gained.values - plastic.values))),
        "fraction_gain_above_plastic_late": above,
    }
    return {
        "stationary_residual": stationary.residual_sup,
        "stationary_iterations": stationary.iterations,
        "mercer": {"path": eig.path, "rank": len(eig.values), "eig_error_bound": eig.error_bound},
        "crosscheck": report.to_json(),
        "exploratory": exploratory,
    }


def cmd_schrodinger(cfg: RunConfig, out_dir, constants, well=None, lam=None):
    section = dict(cfg.document["schrodinger"])
    if well is not None:
        try:
            section["half_width"], section["height"] = (float(part) for part in well.split(","))
        except ValueError:
            raise SchemaError(["--well: expected 'half_width,height'"]) from None
    if lam is not None:
        section["lambda"] = lam
    # the options bypass the config walk, so they meet its rules here
    check_section("schrodinger", section)
    half_width, height, lam = section["half_width"], section["height"], section["lambda"]
    grid = Grid(bounds=[(-section["box"], section["box"])], npts=[section["nodes"]])
    potential = square_well(grid.axis_nodes[0], half_width, height)
    eig = schrodinger_fd(potential, grid, n_states=section["n_states"])
    write_csv(Path(out_dir) / "eigs.csv", ["i", "energy"],
              [[i, eig.values[i]] for i in range(eig.values.shape[0])])
    _write_field_csv(Path(out_dir) / "ground_state.csv", grid, eig.functions[:, 0])
    payload = {
        "half_width": half_width,
        "height": height,
        "energies": [float(e) for e in eig.values],
    }
    if lam is not None:
        payload["lambda"] = lam
        payload["base_gain_for_consistency"] = [float(e) + lam * lam for e in eig.values]
    write_json(Path(out_dir) / "schrodinger.json", payload)
    return {"schrodinger": payload}


def _study_initials(cfg: RunConfig, names):
    out = []
    for name in names:
        if name == "zero":
            out.append(("zero", initial_state(cfg, kind="zero", params={})))
        elif name == "step":
            out.append(("step", initial_state(cfg, kind="step", params={})))
        else:
            out.append(("initial", initial_state(cfg)))
    return out


def cmd_study(cfg: RunConfig, out_dir, constants, study_name):
    op = _operator(cfg)
    u0 = initial_state(cfg)
    section = cfg.document["study"]

    if study_name == "plasticity-limit":
        s = section["plasticity"]
        solver_cfg = SolverConfig(method=s["method"], dt=s["dt"], t_end=s["t_end"])
        result = plasticity_limit_study(cfg.model, op, s["gamma_list"], u0, solver_cfg,
                                        slack=s["slack"])
        csv_name = "plasticity-limit.csv"
    elif study_name == "dependence":
        s = section["dependence"]
        result = continuous_dependence_study(cfg.model, op, u0, s["eps_list"], constants,
                                             rho=s["rho"], dt=s["dt"],
                                             slack_coeff=s["slack_coeff"])
        csv_name = "dependence.csv"
    elif study_name == "contraction":
        s = section["contraction"]
        result = contraction_measure(cfg.model, op, constants, rho=s["rho"],
                                     n_pairs=s["n_pairs"], seed=cfg.seed,
                                     time_steps=s["time_steps"], slack=s["slack"])
        csv_name = "contraction.csv"
    elif study_name == "l1":
        s = section["l1"]
        initials = _study_initials(cfg, s["initials"])
        solver_cfg = SolverConfig(method="exp-euler", dt=s["dt"], t_end=s["t_end"])
        model = cfg.model if s["gamma"] is None else replace(cfg.model, gamma=s["gamma"])
        result = l1_bound_study(model, op, initials, solver_cfg, constants, slack=s["slack"])
        csv_name = "l1.csv"
    else:
        raise SchemaError([f"study: unknown study {study_name!r}"])

    if result.rows:
        header = list(result.rows[0].keys())
        write_csv(Path(out_dir) / csv_name, header,
                  [[("" if row[k] is None else row[k]) for k in header] for row in result.rows])
    verdict = {"pass": result.passed, "worst_margin": result.worst_margin}
    fit = result.fit or {}
    if "slope" in fit:
        verdict["fitted_slope"] = fit["slope"]
        verdict["r2"] = fit["r2"]
    if "max_ratio" in fit:
        verdict["max_ratio"] = fit["max_ratio"]
        verdict["q"] = fit["q"]
    write_json(Path(out_dir) / "verdict.json", verdict)
    return {"verdict": verdict}


def cmd_constants(cfg: RunConfig, out_dir, constants):
    payload = {"constants": constants.to_json(), "gamma": cfg.model.gamma,
               **_segment(cfg, constants)}
    for key, value in payload["constants"].items():
        print(f"{key}: {value if isinstance(value, str) else fmt(float(value))}")
    print(f"rho: {fmt(payload['rho'])}")
    print(f"q: {fmt(payload['q'])}")
    if out_dir is not None:
        write_json(Path(out_dir) / "constants.json", payload)
    return {"constants_report": payload}


def run(command: str, cfg: RunConfig, out_dir, study_name=None, **options) -> int:
    """Dispatch a validated config; writes a manifest whenever out_dir is set.

    ``options`` are the command's own keywords (``method`` for stationary,
    ``well`` and ``lam`` for schrodinger).
    """
    # built per call, so the table holds the module's current cmd_* bindings
    commands = {
        "simulate": cmd_simulate,
        "stationary": cmd_stationary,
        "gainfield": cmd_gainfield,
        "schrodinger": cmd_schrodinger,
        "study": partial(cmd_study, study_name=study_name),
        "constants": cmd_constants,
    }
    started = time.time()
    faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    constants = extra = error = None
    status = EXIT_OK
    with output_lock(out_dir) if out_dir is not None else nullcontext() as out:
        try:
            if command not in commands:
                raise SchemaError([f"command: unknown command {command!r}"])
            # one computation serves every command and the manifest
            if command != "schrodinger":
                constants = compute_constants(cfg.model, cfg.grid)
            extra = commands[command](cfg, out, constants, **options)
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
            _emit_manifest(out, command, cfg, started, faults_before, extra=extra,
                           error=error, constants=constants)
    verdict = (extra or {}).get("verdict")
    if verdict is not None and not verdict["pass"]:
        print("study verdict: FAIL (measured exceeded bound + slack)", file=sys.stderr)
        return EXIT_NUMERICAL
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="neuralfield",
                                     description="Neural field simulation and bound verification")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    common.add_argument("--out", help="output directory (required for artifact commands)")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored; study rows run serially")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common], help="integrate the field equation")
    stat = sub.add_parser("stationary", parents=[common], help="solve for a stationary state")
    stat.add_argument("--method", choices=("fp", "flow"), help="override the config method")
    sub.add_parser("gainfield", parents=[common],
                   help="learned kernel, spectral split, gain field, cross-check")
    sch = sub.add_parser("schrodinger", parents=[common], help="standalone eigensolver")
    sch.add_argument("--well", help="square well as 'half_width,height'")
    sch.add_argument("--lambda", dest="lam", type=float, help="kernel decay rate")
    study = sub.add_parser("study", parents=[common], help="run a verification study")
    study.add_argument("name", choices=STUDY_NAMES)
    sub.add_parser("constants", parents=[common], help="print the model constants")
    sub.add_parser("validate", parents=[common], help="validate a config file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        if args.config is not None:
            cfg = parse_config(args.config)
        else:
            cfg = build_config({})
    except (ParseError, SchemaError) as exc:
        if isinstance(exc, SchemaError):
            for violation in exc.violations:
                print(f"config error: {violation}", file=sys.stderr)
        else:
            print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.seed is not None:
        cfg.document["seed"] = args.seed
        cfg = build_config(cfg.document)

    if args.command == "validate":
        print("config ok")
        return EXIT_OK

    if args.out is None and args.command != "constants":
        print("error: --out is required for this command", file=sys.stderr)
        return EXIT_CONFIG

    options = {key: getattr(args, key) for key in ("method", "well", "lam") if hasattr(args, key)}
    try:
        return run(args.command, cfg, args.out, study_name=getattr(args, "name", None), **options)
    except OutputLockedError as exc:
        # lock contention surfaces here, before any manifest can exist
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
