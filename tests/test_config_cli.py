import json
import math
import os
import subprocess
import sys
import numpy as np
import pytest

from neuralfield.cli import main, run
from neuralfield.config import (
    DEFAULT_CONFIG,
    build_config,
    initial_state,
    parse_config,
)
from neuralfield.errors import ParseError, SchemaError
from neuralfield.discretization import Grid, build_operator
from neuralfield.gainfield import schrodinger_fd, square_well
from neuralfield.io import atomic_write_text, fmt, node_rows, output_lock, sha256_file, write_csv
from neuralfield.model import compute_constants
from neuralfield.solver import solve_global
from neuralfield.stationary import find_stationary_fp


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSchema:
    def test_empty_document_fills_defaults(self):
        cfg = build_config({}, environ={})
        assert cfg.model.gamma == 1.0
        assert cfg.grid.npts == (401,)
        assert cfg.solver.method == "exp-euler"
        assert cfg.document["model"]["gamma"] == 1.0
        assert cfg.document["study"]["contraction"]["n_pairs"] == 200

    def test_negative_gamma_names_the_field(self):
        with pytest.raises(SchemaError) as err:
            build_config({"model": {"gamma": -0.1}}, environ={})
        assert any(v.startswith("model.gamma") for v in err.value.violations)

    def test_linear_firing_cites_mode_restriction(self):
        doc = {"model": {"firing": {"kind": "linear", "params": {}}}}
        with pytest.raises(SchemaError) as err:
            build_config(doc, environ={})
        assert any("gain-field" in v for v in err.value.violations)

    def test_all_violations_collected(self):
        doc = {
            "model": {"gamma": -1.0},
            "solver": {"dt": -0.5},
            "grid": {"nodes": [2]},
            "bogus": True,
        }
        with pytest.raises(SchemaError) as err:
            build_config(doc, environ={})
        joined = "\n".join(err.value.violations)
        for needle in ("model.gamma", "solver.dt", "grid.nodes", "bogus: unknown key"):
            assert needle in joined
        assert len(err.value.violations) >= 4

    def test_unknown_nested_key(self):
        with pytest.raises(SchemaError) as err:
            build_config({"solver": {"timestep": 0.1}}, environ={})
        assert any(v.startswith("solver.timestep") for v in err.value.violations)

    def test_simpson_needs_odd_nodes(self):
        doc = {"quadrature": "simpson", "grid": {"nodes": [400]}}
        with pytest.raises(SchemaError) as err:
            build_config(doc, environ={})
        assert any("odd" in v for v in err.value.violations)

    def test_dt_vs_segment(self):
        with pytest.raises(SchemaError) as err:
            build_config({"solver": {"dt": 0.5, "segment_rho": 0.1}}, environ={})
        assert any("segment_rho" in v for v in err.value.violations)

    def test_env_override_scalar(self):
        cfg = build_config({}, environ={"NF_MODEL_GAMMA": "0.25"})
        assert cfg.model.gamma == 0.25
        assert cfg.document["model"]["gamma"] == 0.25

    def test_env_override_multi_token_key(self):
        cfg = build_config({}, environ={"NF_SOLVER_PICARD_TOL": "1e-8",
                                        "NF_GRID_BOUNDARY": "periodic"})
        assert cfg.solver.picard_tol == 1e-8
        assert cfg.grid.boundary == "periodic"

    def test_env_override_reaches_study_sections(self):
        cfg = build_config({}, environ={"NF_STUDY_L1_GAMMA": "null",
                                        "NF_STUDY_CONTRACTION_N_PAIRS": "25"})
        assert cfg.document["study"]["l1"]["gamma"] is None
        assert cfg.document["study"]["contraction"]["n_pairs"] == 25

    def test_env_override_unknown_key_is_violation(self):
        with pytest.raises(SchemaError) as err:
            build_config({}, environ={"NF_MODEL_GAMA": "0.5"})
        assert any("NF_MODEL_GAMA" in v for v in err.value.violations)

    def test_env_override_still_validated(self):
        with pytest.raises(SchemaError) as err:
            build_config({}, environ={"NF_MODEL_GAMMA": "-3"})
        assert any(v.startswith("model.gamma") for v in err.value.violations)

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            parse_config(str(bad), environ={})
        with pytest.raises(ParseError):
            parse_config(str(tmp_path / "missing.json"), environ={})

    def test_initial_state_kinds(self):
        cfg = build_config({}, environ={})
        zero = initial_state(cfg, kind="zero", params={})
        assert np.all(zero.values == 0.0)
        step = initial_state(cfg, kind="step", params={})
        assert set(np.unique(step.values)) == {0.0, 1.0}
        const = initial_state(cfg, kind="constant", params={"value": 0.7})
        assert np.all(const.values == 0.7)


# the defaults as documented in README; the schema table must keep them
EXPECTED_DEFAULTS = {
    "model": {
        "kernel": {"kind": "exponential", "params": {"amplitude": 0.5, "decay": 1.0}},
        "firing": {"kind": "sigmoid", "params": {"slope": 1.0, "threshold": 0.0}},
        "learning": {"kind": "gaussian", "params": {"width": 1.0}},
        "gamma": 1.0,
        "mode": "well-posed",
    },
    "grid": {"bounds": [[-10.0, 10.0]], "nodes": [401], "boundary": "compact"},
    "quadrature": "trapezoid",
    "solver": {"method": "exp-euler", "dt": 0.05, "t_end": 10.0, "segment_rho": None,
               "picard_tol": 1e-10, "picard_max_iter": 200},
    "initial": {"kind": "gaussian-bump", "params": {"amplitude": 0.5, "center": 0.0, "width": 2.0}},
    "seed": 12345,
    "stationary": {"method": "fp", "damping": 0.5, "tol": 1e-9, "max_iter": 5000, "t_max": 500.0,
                   "settle_tol": 1e-8, "dt": 0.1},
    "gainfield": {"lambda": 1.0, "half_width": 1.0, "k_pre": 1.0, "sign": "plus", "n_eigs": 12,
                  "crosscheck_box": 20.0, "crosscheck_nodes": 2001},
    "schrodinger": {"half_width": 1.0, "height": 2.0, "box": 20.0, "nodes": 2001, "n_states": 4,
                    "lambda": None},
    "study": {
        "plasticity": {"gamma_list": [0.4, 0.2, 0.1, 0.05, 0.025], "t_end": 10.0, "dt": 0.05,
                       "method": "rk4", "slack": 0.0},
        "dependence": {"eps_list": [0.2, 0.1, 0.05], "rho": None, "dt": 0.001, "slack_coeff": 10.0},
        "contraction": {"n_pairs": 200, "rho": None, "time_steps": 8, "slack": 0.01},
        "l1": {"t_end": 20.0, "dt": 0.05, "slack": 1e-6, "gamma": 0.0,
               "initials": ["zero", "step", "initial"]},
    },
}

# a section that switches kind without params takes the new kind's defaults
KIND_SWITCHES = [
    {"model": {"kernel": {"kind": "mexican-hat"}}},
    {"model": {"firing": {"kind": "scaled-arctan"}}},
    {"initial": {"kind": "zero"}},
    {"initial": {"kind": "step"}},
]


class TestSchemaTable:
    def test_default_config_unchanged(self):
        assert DEFAULT_CONFIG == EXPECTED_DEFAULTS
        assert build_config({}, environ={}).document == EXPECTED_DEFAULTS

    @pytest.mark.parametrize("doc", KIND_SWITCHES)
    def test_kind_switch_validates_and_runs(self, tmp_path, doc):
        path = write_config(tmp_path, {**small_sim_doc(t_end=0.5), **doc})
        assert main(["validate", "--config", path]) == 0
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 0

    def test_kind_switch_takes_the_new_kinds_defaults(self):
        cfg = build_config({"model": {"kernel": {"kind": "mexican-hat"}}}, environ={})
        assert cfg.model.kernel.params == {"scale": 1.0}
        cfg = build_config({}, environ={"NF_MODEL_FIRING_KIND": "scaled-arctan"})
        assert cfg.model.firing.params == {"scale": 1.0}

    @pytest.mark.parametrize("doc,needle", [
        ({"model": {"kernel": {"params": {"decay": -1}}}}, "model: exponential kernel decay"),
        ({"model": {"firing": {"params": {"slope": 1.0, "gain": 2.0}}}}, "model: firing rate"),
        ({"model": {"firing": {"params": {"slope": "steep"}}}}, "model: firing rate"),
        ({"model": {"learning": {"params": {"width": "wide"}}}}, "model: "),
        ({"initial": {"kind": "zero", "params": {"amplitude": 1.0}}}, "initial: initial kind 'zero'"),
        ({"initial": {"params": {"amplitude": "tall"}}}, "initial: "),
        ({"grid": {"bounds": [[0.0, 1.0]], "nodes": [5, 5]}}, "grid: need one node count"),
        ({"quadrature": "simpson", "grid": {"boundary": "periodic"}}, "quadrature: simpson"),
    ])
    def test_constructor_errors_exit_2_with_section(self, tmp_path, capsys, doc, needle):
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"config error: {needle}" in err and "Traceback" not in err

    def test_leaf_rules_are_collected_before_constructors_run(self):
        doc = {"model": {"gamma": -1.0, "firing": {"kind": "linear", "params": {}}},
               "stationary": {"damping": 2.0}, "study": {"plasticity": {"gamma_list": [0.1, 0.2]}},
               "seed": -1}
        with pytest.raises(SchemaError) as err:
            build_config(doc, environ={})
        assert sorted(v.split(":")[0] for v in err.value.violations) == [
            "model.gamma", "seed", "stationary.damping", "study.plasticity.gamma_list"]


class TestIO:
    def test_fmt_round_trip(self):
        for x in (1.0 / 3.0, 1e-300, 123456.789, -0.1):
            assert float(fmt(x)) == x

    def test_write_csv_no_partial_files(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["a", "b"], [[1, 2.5], [3, 4.5]])
        assert path.read_text().splitlines()[0] == "a,b"
        assert not list(tmp_path.glob("*.tmp"))

    def test_atomic_write_replaces(self, tmp_path):
        p = tmp_path / "x.txt"
        atomic_write_text(p, "one")
        atomic_write_text(p, "two")
        assert p.read_text() == "two"

    def test_lock_collision(self, tmp_path):
        with output_lock(tmp_path / "run"):
            with pytest.raises(RuntimeError, match="locked"):
                with output_lock(tmp_path / "run"):
                    pass
        # released afterwards
        with output_lock(tmp_path / "run"):
            pass

    def test_lock_of_dead_process_is_taken_over(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text(str(child.pid))
        cfg = build_config({"schrodinger": {"nodes": 101, "n_states": 1}}, environ={})
        assert run("schrodinger", cfg, out) == 0
        assert not (out / ".lock").exists()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n_times", [None, 1, 4])
    def test_node_rows_match_per_cell_fmt(self, tmp_path, dim, n_times):
        special = [-0.0, 5e-324, 3.0, float(2**53 + 1), 1e16, 0.1, 1.0 / 3.0,
                   math.nan, math.inf, -math.inf]
        n = len(special)
        coords = [np.linspace(-2.5, 1.0, n), -np.geomspace(1e-3, 7.0, n)]
        points = np.column_stack(coords[:dim])
        values = np.array([np.roll(special, k) * (-1.0) ** k for k in range(n_times or 1)])
        pts = list(points)
        if n_times is None:
            header = ["x", "y"][:dim] + ["u"]
            expected = [list(pts[i]) + [values[0, i]] for i in range(n)]
            fast = node_rows(points.tolist(), values[0])
        else:
            header = ["t", "node_index"] + ["x", "y"][:dim] + ["u"]
            times = np.array([0.0, 5e-324, 0.1, 1.0 / 3.0])[:n_times]
            expected = [[times[k], i] + list(pts[i]) + [values[k, i]]
                        for k in range(n_times) for i in range(n)]
            fast = node_rows([[i, *p] for i, p in enumerate(points.tolist())], values, times)
        write_csv(tmp_path / "cells.csv", header, expected)
        write_csv(tmp_path / "arrays.csv", header, fast)
        assert (tmp_path / "arrays.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    def test_lock_of_live_process_still_blocks(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text(str(os.getpid()))
        with pytest.raises(RuntimeError, match="locked"):
            with output_lock(out):
                pass


def small_sim_doc(t_end=2.0):
    return {
        "grid": {"nodes": [101]},
        "solver": {"dt": 0.1, "t_end": t_end},
        "model": {"gamma": 0.5},
    }


class TestRun:
    def test_simulate_artifacts(self, tmp_path):
        cfg = build_config(small_sim_doc(), environ={})
        out = tmp_path / "sim"
        assert run("simulate", cfg, out) == 0
        for name in ("trajectory.csv", "bounds.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["model"]["gamma"] == 0.5
        assert set(manifest["checksums"]) == {"trajectory.csv", "bounds.csv"}
        assert manifest["peak_rss_mb"] > 1.0
        assert isinstance(manifest["minor_page_faults"], int) and manifest["minor_page_faults"] >= 0
        # checksums match the files on disk
        for name, digest in manifest["checksums"].items():
            assert sha256_file(out / name) == digest
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,node_index,x,u"

    def test_manifest_constants_match_fresh_computation(self, tmp_path):
        cfg = build_config(small_sim_doc(), environ={})
        out = tmp_path / "sim"
        run("simulate", cfg, out)
        manifest = json.loads((out / "manifest.json").read_text())
        echoed = build_config(manifest["config"], environ={})
        fresh = compute_constants(echoed.model, echoed.grid).to_json()
        assert manifest["constants"] == fresh

    def test_rerun_identical_checksums(self, tmp_path):
        doc = small_sim_doc()
        sums = []
        for name in ("a", "b"):
            cfg = build_config(doc, environ={})
            out = tmp_path / name
            assert run("simulate", cfg, out) == 0
            sums.append(json.loads((out / "manifest.json").read_text())["checksums"])
        assert sums[0] == sums[1]

    def test_checksums_independent_of_blas_threads(self, tmp_path):
        path = write_config(tmp_path, {**small_sim_doc(t_end=0.5), "grid": {"nodes": [201]}})
        sums = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas-{threads}"
            result = subprocess.run(
                [sys.executable, "-m", "neuralfield.cli", "simulate",
                 "--config", path, "--out", str(out)],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
            )
            assert result.returncode == 0, result.stderr
            sums.append(json.loads((out / "manifest.json").read_text())["checksums"])
        assert sums[0] == sums[1]

    def test_gainfield_checksums_independent_of_blas_threads_and_reruns(self, tmp_path):
        path = write_config(tmp_path, {"grid": {"nodes": [201]},
                                       "gainfield": {"crosscheck_nodes": 801}})
        sums = []
        for run_name, threads in (("a", "1"), ("b", "2"), ("c", "1")):
            out = tmp_path / f"blas-{run_name}"
            result = subprocess.run(
                [sys.executable, "-m", "neuralfield.cli", "gainfield",
                 "--config", path, "--out", str(out)],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
            )
            assert result.returncode == 0, result.stderr
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["mercer"]["path"] == "factor"
            sums.append({name: manifest["checksums"][name] for name in ("eigs.csv", "phi_pre.csv")})
        assert sums[0] == sums[1] == sums[2]

    def test_2d_checksums_independent_of_blas_threads_and_reruns(self, tmp_path):
        doc = {
            "grid": {"bounds": [[-5.0, 5.0], [-5.0, 5.0]], "nodes": [21, 21]},
            "model": {"kernel": {"kind": "mexican-hat", "params": {"scale": 1.5}}, "gamma": 0.5},
            "solver": {"method": "exp-euler", "dt": 0.1, "t_end": 0.5},
            "initial": {"kind": "gaussian-bump",
                        "params": {"amplitude": 0.5, "center": [-1.0, 0.5], "width": 1.5}},
        }
        path = write_config(tmp_path, doc)
        sums = []
        for run_name, threads in (("a", "1"), ("b", "2"), ("c", "1")):
            out = tmp_path / f"blas-{run_name}"
            result = subprocess.run(
                [sys.executable, "-m", "neuralfield.cli", "simulate",
                 "--config", path, "--out", str(out)],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
            )
            assert result.returncode == 0, result.stderr
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["constants"]["method"] == "grid-estimated"
            sums.append(manifest["checksums"])
        assert sums[0] == sums[1] == sums[2]

    @pytest.mark.parametrize("command, doc", [
        ("simulate", {"grid": {"bounds": [[-5.0, 5.0]], "nodes": [64], "boundary": "periodic"},
                      "model": {"gamma": 0.0},
                      "solver": {"method": "picard", "dt": 0.05, "t_end": 0.5}}),
        ("simulate", {"grid": {"bounds": [[-3.0, 2.0], [-1.0, 4.0]], "nodes": [9, 11]},
                      "model": {"gamma": 0.5},
                      "solver": {"method": "exp-euler", "dt": 0.1, "t_end": 0.5},
                      "initial": {"kind": "gaussian-bump",
                                  "params": {"amplitude": 0.5, "center": [-0.5, 1.0],
                                             "width": 1.0}}}),
        ("stationary", {"grid": {"nodes": [101]}, "model": {"gamma": 0.4}}),
        ("schrodinger", {"schrodinger": {"nodes": 301, "n_states": 2}}),
    ])
    def test_node_csvs_equal_per_cell_rows(self, tmp_path, command, doc):
        cfg = build_config(doc, environ={})
        out = tmp_path / "run"
        assert run(command, cfg, out) == 0
        coords = ["x"] if cfg.grid.dimension == 1 else ["x", "y"]
        op = build_operator(cfg.model.kernel, cfg.grid, cfg.quadrature)
        pts = cfg.grid.points
        if command == "simulate":
            name, header = "trajectory.csv", ["t", "node_index"] + coords + ["u"]
            traj = solve_global(cfg.model, op, initial_state(cfg), cfg.solver,
                                compute_constants(cfg.model, cfg.grid))
            rows = [[traj.times[n], i] + list(pts[i]) + [traj.values[n, i]]
                    for n in range(len(traj)) for i in range(cfg.grid.n_total)]
        elif command == "stationary":
            s = cfg.document["stationary"]
            u_inf = find_stationary_fp(cfg.model, op, initial_state(cfg),
                                       compute_constants(cfg.model, cfg.grid), damping=s["damping"],
                                       tol=s["tol"], max_iter=s["max_iter"]).u_inf
            name, header = "u_inf.csv", coords + ["u"]
            rows = [list(pts[i]) + [u_inf[i]] for i in range(cfg.grid.n_total)]
        else:
            s = cfg.document["schrodinger"]
            grid = Grid(bounds=[(-s["box"], s["box"])], npts=[s["nodes"]])
            pot = square_well(grid.axis_nodes[0], s["half_width"], s["height"])
            ground = schrodinger_fd(pot, grid, n_states=s["n_states"]).functions[:, 0]
            name, header = "ground_state.csv", ["x", "u"]
            rows = [list(grid.points[i]) + [ground[i]] for i in range(grid.n_total)]
        write_csv(tmp_path / name, header, rows)
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_schrodinger_computes_no_constants(self, tmp_path, monkeypatch):
        import neuralfield.cli as cli

        def refuse(model, grid):
            raise AssertionError("constants computed")

        monkeypatch.setattr(cli, "compute_constants", refuse)
        doc = {"grid": {"bounds": [[-5.0, 5.0], [-5.0, 5.0]], "nodes": [31, 31]},
               "model": {"kernel": {"kind": "mexican-hat"}},
               "schrodinger": {"nodes": 201, "n_states": 1}}
        out = tmp_path / "sch"
        assert run("schrodinger", build_config(doc, environ={}), out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "error" not in manifest
        assert not {"constants", "rho", "q"} & set(manifest)

    def test_stationary_and_gainfield(self, tmp_path):
        doc = {
            "grid": {"nodes": [101]},
            "model": {"gamma": 0.4},
            "stationary": {"tol": 1e-10},
            "gainfield": {"crosscheck_nodes": 801, "n_eigs": 5},
        }
        cfg = build_config(doc, environ={})
        out1 = tmp_path / "stat"
        assert run("stationary", cfg, out1) == 0
        stat = json.loads((out1 / "stationary.json").read_text())
        assert stat["converged"] and stat["residual"] < 1e-10

        out2 = tmp_path / "gf"
        assert run("gainfield", cfg, out2) == 0
        eigs = (out2 / "eigs.csv").read_text().splitlines()
        assert eigs[0] == "i,sigma_i"
        assert len(eigs) == 6
        cross = json.loads((out2 / "crosscheck.json").read_text())
        assert cross["E"] == pytest.approx(cross["k2"] - 1.0)
        assert cross["residual_l2"] < 1e-2
        # the manifest, not a checksummed artifact, counts the solve's J calls
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["stationary_iterations"] == stat["iterations"]

    def test_simulate_2d_grid(self, tmp_path):
        doc = {
            "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "nodes": [9, 9]},
            "solver": {"dt": 0.1, "t_end": 0.5},
            "model": {"gamma": 0.5},
            "initial": {"kind": "gaussian-bump",
                        "params": {"amplitude": 0.5, "center": 0.5, "width": 0.3}},
        }
        cfg = build_config(doc, environ={})
        out = tmp_path / "sim2d"
        assert run("simulate", cfg, out) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,node_index,x,y,u"
        report = json.loads((out / "manifest.json").read_text())["bound_report"]
        assert report["within_bound"]

    def test_schrodinger_standalone(self, tmp_path):
        cfg = build_config({"schrodinger": {"nodes": 1001, "n_states": 2}}, environ={})
        out = tmp_path / "sch"
        assert run("schrodinger", cfg, out, well="1,2", lam=1.0) == 0
        payload = json.loads((out / "schrodinger.json").read_text())
        assert payload["half_width"] == 1.0 and payload["height"] == 2.0
        assert len(payload["energies"]) >= 1

    def test_study_contraction_verdict(self, tmp_path):
        doc = {"grid": {"nodes": [101]},
               "study": {"contraction": {"n_pairs": 40, "rho": 0.1}}}
        cfg = build_config(doc, environ={})
        out = tmp_path / "study"
        assert run("study", cfg, out, study_name="contraction") == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["pass"] is True
        assert verdict["max_ratio"] <= verdict["q"] + 0.01
        assert (out / "contraction.csv").exists()

    def test_numerical_failure_still_writes_manifest(self, tmp_path):
        doc = {
            "model": {
                "kernel": {"kind": "exponential", "params": {"amplitude": 60.0, "decay": 0.2}},
                "firing": {"kind": "linear", "params": {}},
                "mode": "gain-field",
                "gamma": 0.0,
            },
            "grid": {"nodes": [51], "bounds": [[-5.0, 5.0]]},
            "solver": {"method": "rk4", "dt": 0.5, "t_end": 200.0},
        }
        cfg = build_config(doc, environ={})
        out = tmp_path / "boom"
        assert run("simulate", cfg, out) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["type"] == "NumericalInstabilityError"
        assert (out / ".lock").exists() is False

    def test_noncontractive_study_segment_is_a_numerical_failure(self, tmp_path):
        doc = {"grid": {"nodes": [101]}, "study": {"dependence": {"rho": 50.0}}}
        out = tmp_path / "dep"
        assert run("study", build_config(doc, environ={}), out, study_name="dependence") == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["type"] == "NonContractiveError"

    def test_crosscheck_box_narrower_than_the_well_is_a_numerical_failure(self, tmp_path):
        # no node lies outside the well, so no depth in the bracket binds a state
        doc = {"grid": {"nodes": [101]},
               "gainfield": {"crosscheck_box": 0.5, "half_width": 1.0, "crosscheck_nodes": 101}}
        out = tmp_path / "gf"
        assert run("gainfield", build_config(doc, environ={}), out) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["type"] == "NoBoundStateError"

    @pytest.mark.parametrize("command", ["stationary", "gainfield"])
    def test_fixed_point_on_periodic_grid_is_a_config_error(self, tmp_path, command):
        doc = {"grid": {"nodes": [64], "boundary": "periodic"}}
        out = tmp_path / command
        assert run(command, build_config(doc, environ={}), out) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["type"] == "SchemaError"
        assert "compact" in manifest["error"]["violations"][0]

    @pytest.mark.parametrize("bug", [TypeError, ValueError, RuntimeError])
    def test_unexpected_error_propagates_and_unlocks(self, tmp_path, monkeypatch, bug):
        import neuralfield.cli as cli

        def broken(cfg, out_dir, constants):
            raise bug("a bug, not a numerical failure")

        monkeypatch.setattr(cli, "cmd_simulate", broken)
        out = tmp_path / "bug"
        with pytest.raises(bug, match="a bug"):
            run("simulate", build_config(small_sim_doc(), environ={}), out)
        assert not (out / ".lock").exists()

    @pytest.mark.parametrize("argv, key", [
        (["--well", "nan,2"], "schrodinger.half_width"),
        (["--well", "0,2"], "schrodinger.half_width"),
        (["--well", "1,-2"], "schrodinger.height"),
        (["--well", "1,inf"], "schrodinger.height"),
        (["--lambda", "0"], "schrodinger.lambda"),
        (["--lambda", "nan"], "schrodinger.lambda"),
    ])
    def test_schrodinger_options_meet_the_schema(self, tmp_path, capsys, argv, key):
        out = tmp_path / "sch"
        assert main(["schrodinger", "--out", str(out), *argv]) == 2
        assert f"config error: {key}: must be" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["type"] == "SchemaError"
        assert not (out / "schrodinger.json").exists()


class TestMainEntry:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, small_sim_doc())
        assert main(["validate", "--config", path]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_reports_all_errors(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": {"gamma": -2}, "junk": 1})
        assert main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "model.gamma" in err and "junk" in err

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{{{")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_out_is_config_error(self, tmp_path):
        path = write_config(tmp_path, small_sim_doc())
        assert main(["simulate", "--config", path]) == 2

    def test_constants_prints(self, capsys):
        assert main(["constants"]) == 0
        out = capsys.readouterr().out
        assert "kernel_l1_sup" in out and "q:" in out

    def test_constants_writes_json_with_out(self, tmp_path):
        out = tmp_path / "c"
        assert main(["constants", "--out", str(out)]) == 0
        payload = json.loads((out / "constants.json").read_text())
        assert payload["q"] < 1.0
        assert payload["constants"]["firing_lipschitz"] == 0.25

    def test_only_lock_contention_exits_1_from_main(self, tmp_path, monkeypatch):
        import neuralfield.cli as cli

        out = tmp_path / "o"
        out.mkdir()
        (out / ".lock").write_text(str(os.getpid()))
        assert main(["constants", "--out", str(out)]) == 1
        (out / ".lock").unlink()

        def broken(cfg, out_dir, constants):
            raise RuntimeError("a bug, not lock contention")

        monkeypatch.setattr(cli, "cmd_constants", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["constants", "--out", str(out)])
        assert not (out / ".lock").exists()

    def test_unknown_study_name_exits_config_error(self, tmp_path):
        cfg = build_config({}, environ={})
        assert run("study", cfg, tmp_path / "s", study_name="bogus") == 2

    def test_plasticity_study_refuses_picard(self, tmp_path, capsys):
        # picard picks its segment length per gamma, so the gamma runs and the
        # gamma = 0 reference would not share a time lattice to compare on
        doc = {"grid": {"nodes": [101]},
               "study": {"plasticity": {"method": "picard", "t_end": 0.5}}}
        out = tmp_path / "s"
        code = main(["study", "plasticity-limit", "--config", write_config(tmp_path, doc),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: study.plasticity.method: must be one of ['exp-euler', 'rk4']" in err
        assert not out.exists()

    def test_seed_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, small_sim_doc())
        out = tmp_path / "o"
        assert main(["simulate", "--config", path, "--out", str(out), "--seed", "777"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 777

    def test_console_entry_point(self, tmp_path):
        # module execution path used by scripts and docs
        path = write_config(tmp_path, small_sim_doc(t_end=0.5))
        result = subprocess.run(
            [sys.executable, "-m", "neuralfield.cli", "simulate",
             "--config", path, "--out", str(tmp_path / "cli-run")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "cli-run" / "manifest.json").exists()
