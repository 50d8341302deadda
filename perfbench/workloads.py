"""Workload definitions: seeded CLI inputs, output checks and key numbers.

A workload is a fixed list of ``neuralfield`` CLI commands together with
the config files they read.  The config files are generated from the
workload seed; the program receives nothing else.  The seed selects one
of ``N_VARIANTS`` input variants, because every variant's key numbers are
recorded in ``references.json`` from the program itself, and a run whose
key numbers drift from them beyond ``REL_TOL`` counts as failed.

Everything here is plain Python: the benchmark's parent process never
imports the program or numpy.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

N_VARIANTS = 32

# Relative tolerance on recorded key numbers.  Loose enough for fast paths
# that change trailing bits (FFT operators, low-rank plasticity, batched
# sums), tight enough that any real change of the computed field fails.
REL_TOL = 1e-6
ABS_TOL = 1e-10

# Bound on the Schrodinger cross-check residual at the default 2001 nodes,
# as in the package's own gain-field tests (measured: 4.0e-5).
CROSSCHECK_RESIDUAL_TOL = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple        # CLI subcommand argv heads, e.g. ("study", "l1")
    full: dict             # config overrides at benchmark size
    tiny: dict             # config overrides for the self-tests
    dimension: int = 1

    def nodes(self) -> int:
        return math.prod(self.full["grid"]["nodes"])


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="verify-1d",
            why=("the four studies at n=401: about 600 small J evaluations, so "
                 "per-call overhead, the studies' per-time-slice loops and the "
                 "rk4 stepper dominate; study verdicts check correctness"),
            commands=(("study", "contraction"), ("study", "plasticity-limit"),
                      ("study", "dependence"), ("study", "l1")),
            full={
                "grid": {"nodes": [401]},
                "study": {
                    "contraction": {"n_pairs": 6},
                    "plasticity": {"t_end": 0.3},
                    "dependence": {"eps_list": [0.2, 0.1], "dt": 0.01},
                    "l1": {"t_end": 2.5},
                },
            },
            tiny={
                "grid": {"nodes": [41]},
                "study": {
                    "contraction": {"n_pairs": 2, "time_steps": 2},
                    "plasticity": {"t_end": 0.2},
                    "dependence": {"eps_list": [0.2], "dt": 0.02},
                    "l1": {"t_end": 0.5},
                },
            },
        ),
        Workload(
            name="simulate-2d",
            why=("exp-euler on a 41x41 compact grid, gamma=1: the n^2 operator "
                 "build, the 2-D constants loop, plastic J and memory all weigh"),
            commands=(("simulate",),),
            full={
                "grid": {"bounds": [[-10.0, 10.0], [-10.0, 10.0]], "nodes": [41, 41]},
                "solver": {"method": "exp-euler", "dt": 0.1, "t_end": 1.5},
            },
            tiny={
                "grid": {"bounds": [[-10.0, 10.0], [-10.0, 10.0]], "nodes": [9, 9]},
                "solver": {"method": "exp-euler", "dt": 0.1, "t_end": 0.5},
            },
            dimension=2,
        ),
        Workload(
            name="gainfield-1d",
            why=("gainfield at n=901, gamma=1: stationary fixed point, learned "
                 "kernel, O(n^3) Mercer eigh and the Schrodinger bisection"),
            commands=(("gainfield",),),
            full={"grid": {"nodes": [901]}},
            tiny={"grid": {"nodes": [61]}, "gainfield": {"n_eigs": 4}},
        ),
        Workload(
            name="picard-1d-periodic",
            why=("picard at n=1600 on a periodic grid, gamma=0: batched segment "
                 "solves, the plain operator product and a large trajectory CSV"),
            commands=(("simulate",),),
            full={
                "grid": {"bounds": [[-10.0, 10.0]], "nodes": [1600], "boundary": "periodic"},
                "model": {"gamma": 0.0},
                "solver": {"method": "picard", "dt": 0.05, "t_end": 1.2},
            },
            tiny={
                "grid": {"bounds": [[-10.0, 10.0]], "nodes": [64], "boundary": "periodic"},
                "model": {"gamma": 0.0},
                "solver": {"method": "picard", "dt": 0.05, "t_end": 0.5},
            },
        ),
    )
}


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def config_document(workload: Workload, seed: int, tiny: bool = False) -> dict:
    """The config the program reads, generated from the workload seed.

    The seed sets the config ``seed`` (the contraction study's random
    pairs) and the gaussian bump's amplitude, centre and width.  The
    amplitude stays positive, so u0 >= 0 and positivity is checkable.
    """
    variant = variant_of(seed)
    rng = random.Random(f"{workload.name}/{variant}")
    centre = [round(rng.uniform(-2.0, 2.0), 6) for _ in range(workload.dimension)]
    doc = copy.deepcopy(workload.tiny if tiny else workload.full)
    doc["seed"] = variant
    doc["initial"] = {
        "kind": "gaussian-bump",
        "params": {
            "amplitude": round(rng.uniform(0.3, 0.8), 6),
            "center": centre[0] if workload.dimension == 1 else centre,
            "width": round(rng.uniform(1.5, 2.5), 6),
        },
    }
    return doc


def command_argvs(workload: Workload, config_path: Path, out_root: Path) -> list:
    """One CLI argv per command, each with its own fresh output directory."""
    argvs = []
    for index, head in enumerate(workload.commands):
        out = out_root / f"{index}-{'-'.join(head)}"
        argvs.append([*head, "--config", str(config_path), "--out", str(out),
                      "--threads", "1"])
    return argvs


def out_dir_of(argv: list) -> Path:
    return Path(argv[argv.index("--out") + 1])


# ---------------------------------------------------------------- checks


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: Path) -> tuple:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_manifest(out: Path, problems: list) -> dict:
    manifest = _read_json(out / "manifest.json")
    if "error" in manifest:
        problems.append(f"manifest records an error: {manifest['error']}")
    for name, digest in manifest.get("checksums", {}).items():
        if _sha256(out / name) != digest:
            problems.append(f"{name}: checksum differs from the manifest")
    return manifest


def _study_numbers(out: Path, problems: list) -> dict:
    verdict = _read_json(out / "verdict.json")
    if verdict.get("pass") is not True:
        problems.append("study verdict did not pass")
    return {key: float(value) for key, value in sorted(verdict.items())
            if key != "pass" and isinstance(value, (int, float))}


def _simulate_numbers(out: Path, manifest: dict, problems: list, notes: list) -> dict:
    report = manifest["bound_report"]
    if report["within_bound"] is not True:
        message = (f"sup {report['sup_observed']:.6g} exceeds the bound "
                   f"{report['bound']:.6g}")
        # The bound is a theorem for the true kernel constant Cw.  Where the
        # program falls back to a grid lower sum for Cw (2-D grids), the
        # computed bound is too small; that is a known program defect,
        # reported here but not counted as a failed command.
        if manifest["constants"]["method"] == "analytic":
            problems.append(message)
        else:
            notes.append(f"known defect: {message} computed from the "
                         "grid-estimated Cw, a lower Riemann sum")
    if report["positivity_applicable"] and report["positivity_violations"] != 0:
        problems.append(f"{report['positivity_violations']} positivity violations")
    _, bound_rows = _read_csv(out / "bounds.csv")
    header, rows = _read_csv(out / "trajectory.csv")
    n = math.prod(manifest["config"]["grid"]["nodes"])
    if len(rows) != len(bound_rows) * n:
        problems.append(f"trajectory.csv has {len(rows)} rows, expected "
                        f"{len(bound_rows)} x {n}")
    final = [float(row[-1]) for row in rows[-n:]]
    grid = manifest["config"]["grid"]
    intervals = [m if grid["boundary"] == "periodic" else m - 1 for m in grid["nodes"]]
    cell = math.prod((b - a) / k for (a, b), k in zip(grid["bounds"], intervals))
    return {
        "sup_observed": float(report["sup_observed"]),
        "min_observed": float(report["min_observed"]),
        "final_sup": max(abs(v) for v in final),
        "final_l1": cell * math.fsum(abs(v) for v in final),
        "final_time": float(rows[-1][0]),
    }


def _gainfield_numbers(out: Path, manifest: dict, problems: list) -> dict:
    stat_tol = manifest["config"]["stationary"]["tol"]
    if not manifest["stationary_residual"] < stat_tol:
        problems.append(f"stationary solve did not converge "
                        f"(residual {manifest['stationary_residual']:.3g} >= {stat_tol:.3g})")
    cross = _read_json(out / "crosscheck.json")
    if not cross["residual_l2"] < CROSSCHECK_RESIDUAL_TOL:
        problems.append(f"cross-check residual_l2 {cross['residual_l2']:.3g} "
                        f">= {CROSSCHECK_RESIDUAL_TOL:.1g}")
    _, eig_rows = _read_csv(out / "eigs.csv")
    sigma = [float(row[1]) for row in eig_rows]
    if len(sigma) != manifest["config"]["gainfield"]["n_eigs"] or sigma != sorted(sigma, reverse=True):
        problems.append("eigs.csv is not the requested count of descending values")
    numbers = {f"sigma_{i}": s for i, s in enumerate(sigma[:4])}
    numbers["crosscheck_V0"] = float(cross["V0"])
    numbers["crosscheck_E"] = float(cross["E"])
    numbers["sup_diff_gain_vs_plastic"] = float(
        manifest["exploratory"]["sup_diff_gain_vs_plastic"])
    return numbers


@dataclass
class CommandCheck:
    problems: list         # each one makes the command count as failed
    notes: list            # known program defects, reported only
    numbers: dict          # key numbers compared against references.json


def check_command(argv: list, exit_code, reference: dict | None) -> CommandCheck:
    """Checks one finished command's exit code and outputs.

    ``reference`` maps key names to recorded values; None skips that
    comparison (the tiny self-test sizes have no recorded values).
    """
    problems, notes = [], []
    numbers = {}
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    out = out_dir_of(argv)
    try:
        manifest = _check_manifest(out, problems)
        if argv[0] == "study":
            numbers = _study_numbers(out, problems)
        elif argv[0] == "simulate":
            numbers = _simulate_numbers(out, manifest, problems, notes)
        elif argv[0] == "gainfield":
            numbers = _gainfield_numbers(out, manifest, problems)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    if reference is not None:
        for key in sorted(set(reference) | set(numbers)):
            want, got = reference.get(key), numbers.get(key)
            if want is None or got is None:
                problems.append(f"{key}: recorded {want}, measured {got}")
            elif not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                problems.append(f"{key}: measured {got!r}, recorded {want!r}")
    return CommandCheck(problems, notes, numbers)


def command_key(argv: list) -> str:
    return "-".join(argv[:argv.index("--config")])
